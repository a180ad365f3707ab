"""The four workloads: seeded inputs, the ops that run them, and their checks.

Each workload is a fixed list of ops.  Expected results come from another
route than the one timed and are worked out while the inputs are built,
before any timing.  The program is called through module attributes
(``bijection.eigen_decompose``, ``cli.run``) so that the tracer's wrappers
are the ones called when it is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from eigenperm import bijection, cli, perms, recurrences, series, textforms

import members
from members import Shape

PATTERN = "3(5)241"

# The README's terms of the eigensequence b_1, b_2, ...; b_13 = a_12.
EIGEN_PREFIX = (1, 1, 2, 6, 23, 104, 531, 2982, 18109, 117545)
A_12 = 44553224
NEW4_PREFIX = (1, 2, 5, 15, 55, 248, 1357, 8809)
# Digest of `seq a --n 300` at the seed commit: a_100..a_300 have no other
# route cheap enough to run on every pass.
SEQ_A_300_SHA256 = "50ea6dade00ce7404591556eb01143fa69f37dcbc0d512cbc30321463d181bc7"

LARGE_SIZES = (100, 200, 400, 800)
LARGE_PER_SHAPE = {100: 4, 200: 3, 400: 2, 800: 2}
LARGE_SHAPES = tuple(Shape(fan, loosen) for fan in (0.15, 0.25, 0.35, 0.45) for loosen in (0.0, 1.0))
DEEP_COUNT = 2
# A quarter of the n = 8 members bring a non-member neighbour, so the median
# op is a round trip rather than the gap between the two kinds.
NEIGHBOUR_SHARE = 0.25
STREAM_LENGTHS = (20, 30, 40, 50, 60)
STREAM_SHAPES = tuple(Shape(fan, loosen) for loosen in (0.0, 1.0) for fan in (0.2, 0.35, 0.5))
# Every other member brings a non-member neighbour: the median op stays a member.
STREAM_MEMBERS = 150


@dataclass
class Op:
    kind: str  # roundtrip, reject, command or stream
    arg: object
    expect: object = None
    n: int = 0
    metric: str = ""  # the per-command end-to-end metric this op's time feeds
    known: type[BaseException] | None = None  # raised today by a known defect


@dataclass
class Workload:
    name: str
    ops: list[Op]
    run: Callable[[Op], object]
    check: Callable[[Op, object], str | None]
    shape: dict[str, object]


def judge(w: Workload, op: Op, out: object, exc: BaseException | None) -> str | None:
    """Return "ok", "known" (a known defect's exception) or why the op failed."""
    if op.kind == "reject":
        if isinstance(exc, perms.InvalidInputError):
            return "ok"
        return "accepted an invalid input" if exc is None else f"raised {exc!r}"
    if exc is not None:
        if op.known is not None and isinstance(exc, op.known):
            return "known"
        return f"raised {type(exc).__name__}: {exc}"
    return w.check(op, out) or "ok"


def _text(p: tuple[int, ...]) -> str:
    return " ".join(map(str, p))


def _shares(values: list[object]) -> dict[str, float]:
    counts = Counter(values)
    return {str(k): counts[k] / len(values) for k in sorted(counts)}


def _bucket(k: int) -> str:
    # Power-of-two buckets: 1, 2-3, 4-7, ...
    lo = 1 << (k.bit_length() - 1)
    return str(lo) if lo == 1 else f"{lo}-{2 * lo - 1}"


def _run_command(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def _decomposition_error(rho: tuple[int, ...], items: tuple[tuple[int, ...], ...], n: int) -> str | None:
    if len(items) != len(rho) + 1:
        return f"{len(items)} slots for rho of length {len(rho)}"
    if len(rho) + sum(map(len, items)) != n - 1:
        return "decomposition does not carry size n-1"
    for part in (rho,) + items:
        if sorted(part) != list(range(1, len(part) + 1)) or not members.is_member(part):
            return f"{part} is not a standard class member"
    return None


# --- class_small: every member at n = 8 through the CLI's text path --------


def _text_roundtrip(text: str) -> tuple[str, str]:
    # The same calls as `eigen decompose` then `eigen compose`.
    p = textforms.parse_perm(text)
    rho, items = bijection.eigen_decompose(p)
    line = f"{textforms.format_perm(rho)} ; {textforms.format_perm_list(items)}"
    head, _, tail = line.partition(";")
    back = bijection.eigen_compose(textforms.parse_perm(head), textforms.parse_perm_list(tail))
    return line, textforms.format_perm(back)


def _run_class_small(op: Op) -> object:
    if op.kind == "reject":
        return bijection.eigen_decompose(textforms.parse_perm(op.arg))
    return _text_roundtrip(op.arg)


def _check_class_small(op: Op, out: object) -> str | None:
    line, back = out
    if back != op.arg:
        return f"round trip gave {back!r}"
    head, _, tail = line.partition(";")
    rho = tuple(int(t) for t in head.split())
    items = tuple(tuple(int(t) for t in chunk.split()) for chunk in tail.split("/"))
    return _decomposition_error(rho, items, op.n)


def class_small(seed: int) -> Workload:
    rng = random.Random(seed)
    pattern = perms.parse_pattern(PATTERN)
    ops: list[Op] = []
    factors = []
    for p in members.all_members(8)[8]:
        ops.append(Op("roundtrip", _text(p), n=8))
        factors.append(members.factor_count(p))
        if rng.random() >= NEIGHBOUR_SHARE:
            continue
        # The definition, not the recogniser the decompose path uses, says
        # which neighbour is outside the class.
        for q in members.neighbours(p, rng):
            if not perms.satisfies(q, pattern):
                ops.append(Op("reject", _text(q), n=8))
                break
    rng.shuffle(ops)
    rejects = sum(op.kind == "reject" for op in ops)
    shape = {
        "length": {"8": 1.0},
        "member_factors": _shares([_bucket(k) for k in factors]),
        "max_first": sum(k == 1 for k in factors) / len(factors),
        "non_member": rejects / len(ops),
    }
    return Workload("class_small", ops, _run_class_small, _check_class_small, shape)


# --- members_large: long members, round trip through the API ---------------


def _run_large(op: Op) -> object:
    rho, items = bijection.eigen_decompose(op.arg)
    return rho, items, bijection.eigen_compose(rho, items)


def _check_large(op: Op, out: object) -> str | None:
    rho, items, back = out
    if back != op.arg:
        return "compose(decompose(p)) != p"
    return _decomposition_error(rho, items, op.n)


def members_large(seed: int) -> Workload:
    rng = random.Random(seed)
    built: list[members.Member] = []
    for n in LARGE_SIZES:
        for shape in LARGE_SHAPES:
            built.extend(members.build(n, shape, rng) for _ in range(LARGE_PER_SHAPE[n]))
    limit = sys.getrecursionlimit()
    deep = []
    while len(deep) < DEEP_COUNT:
        m = members.build(rng.randint(1180, 1220), Shape(0.3, chain=True), rng)
        if m.depth > limit + 50:
            deep.append(m)
    ops = [Op("roundtrip", m.perm, n=len(m.perm)) for m in built]
    ops += [Op("roundtrip", m.perm, n=len(m.perm), known=RecursionError) for m in deep]
    rng.shuffle(ops)
    every = built + deep
    shape = {
        "length": _shares([str(n) if n in LARGE_SIZES else "1180-1220" for n in (len(m.perm) for m in every)]),
        "member_factors": _shares([_bucket(m.factors) for m in every]),
        "depth": _shares([_bucket(m.depth) for m in every]),
        "max_first": sum(m.max_first for m in every) / len(every),
        "past_recursion_limit": sum(m.depth > limit for m in every) / len(every),
        "non_member": 0.0,
    }
    return Workload("members_large", ops, _run_large, _check_large, shape)


# --- census: brute enumeration and occurrence search -----------------------


def _pattern_text(full: tuple[int, ...], mark: int) -> str:
    return "".join(f"({v})" if i == mark else str(v) for i, v in enumerate(full, start=1))


def _orbits() -> set[frozenset[str]]:
    """Orbits of the 96 marked 4-patterns under complement, reverse, inverse."""

    def moves(full: tuple[int, ...], mark: int):
        yield tuple(5 - v for v in full), mark
        yield full[::-1], 5 - mark
        inverse = [0] * 4
        for i, v in enumerate(full, start=1):
            inverse[v - 1] = i
        yield tuple(inverse), full[mark - 1]

    seen: set[tuple[tuple[int, ...], int]] = set()
    orbits = set()
    for full in itertools.permutations((1, 2, 3, 4)):
        for mark in range(1, 5):
            if (full, mark) in seen:
                continue
            orbit, frontier = {(full, mark)}, [(full, mark)]
            while frontier:
                for nxt in moves(*frontier.pop()):
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
            seen |= orbit
            orbits.add(frozenset(_pattern_text(f, m) for f, m in orbit))
    return orbits


def _check_classify(text: str, orbits: set[frozenset[str]]) -> str | None:
    lines = text.splitlines()
    if lines[0] != f"{len(orbits)} orbits; 64 trivial patterns":
        return f"header {lines[0]!r}"
    printed, labels = set(), []
    for line in lines[1:]:
        label, _, rest = line[1:].partition("]")
        kind, _, names = rest.partition(": ")
        printed.add(frozenset(names.split()))
        labels.append((label.strip(), "nontrivial" in kind, len(names.split())))
    if printed != orbits:
        return "orbits differ from complement/reverse/inverse closure"
    nontrivial = sorted((size, label) for label, nt, size in labels if nt)
    want = [(4, "a051295"), (4, "new4"), (8, "a051295"), (8, "bell"), (8, "bell")]
    if nontrivial != want:
        return f"nontrivial orbits {nontrivial}"
    if any(label != "catalan" for label, nt, _ in labels if not nt):
        return "a trivial orbit is not labelled catalan"
    return None


def _run_census(op: Op) -> object:
    if op.kind == "command":
        return _run_command(op.arg)
    pattern, p = op.arg
    return perms.satisfies(p, pattern), perms.fast_35241ok(p)


def _check_census(op: Op, out: object) -> str | None:
    if op.kind == "stream":
        if out != (op.expect, op.expect):
            return f"(satisfies, fast_35241ok) = {out}, expected {op.expect}"
        return None
    rc, text = out
    if rc != 0:
        return f"exit status {rc}"
    if op.metric == "classify4_s":
        return _check_classify(text, op.expect)
    if op.metric == "verify_s":
        lines = text.splitlines()
        return None if len(lines) == 10 and all(s.startswith("PASS") for s in lines) else "a check failed"
    return None if text == op.expect else f"printed {text!r}"


def census(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = [
        Op("command", ["count", "--pattern", PATTERN, "--n", "9"], "117545\n", metric="count_brute_s"),
        Op("command", ["classify4", "--max-n", "7"], _orbits(), metric="classify4_s"),
        Op("command", ["verify", "--suite", "all", "--max-n", "6"], metric="verify_s"),
    ]
    pattern = perms.parse_pattern(PATTERN)
    stream = []
    for i in range(STREAM_MEMBERS):
        shape = STREAM_SHAPES[i % len(STREAM_SHAPES)]
        p = members.build(STREAM_LENGTHS[i % len(STREAM_LENGTHS)], shape, rng).perm
        stream.append(p)
        if i % 2:
            stream.extend(itertools.islice((q for q in members.neighbours(p, rng) if not members.is_member(q)), 1))
    rng.shuffle(stream)
    ops += [Op("stream", (pattern, p), members.is_member(p), n=len(p)) for p in stream]
    shape = {
        "stream_length": _shares([str(len(p)) for p in stream]),
        "stream_factors": _shares([_bucket(members.factor_count(p)) for p in stream]),
        "max_first": sum(p[0] == len(p) for p in stream) / len(stream),
        "non_member": sum(not op.expect for op in ops[3:]) / len(stream),
    }
    return Workload("census", ops, _run_census, _check_census, shape)


# --- sequences: exact big-integer kernels ----------------------------------


def _bell(n_max: int) -> list[int]:
    # B_{n+1} = sum_k C(n, k) B_k, not the program's triangle.
    b = [1]
    for n in range(n_max):
        b.append(sum(math.comb(n, k) * b[k] for k in range(n + 1)))
    return b


def _a051295(n_max: int) -> list[int]:
    fact = [math.factorial(i) for i in range(n_max + 1)]
    u = [1]
    for n in range(1, n_max + 1):
        u.append(sum(u[k - 1] * fact[n - k] for k in range(1, n + 1)))
    return u


def _new4(n_max: int) -> list[int]:
    # term(n) = (n-1)! + sum_k sum_i falling(k, i) * sum_{j <= k-i} rising(n-2-k, j),
    # with the inner sum over j taken from running totals.
    out = [1]
    for n in range(1, n_max + 1):
        total = math.factorial(n - 1)
        for k in range(n - 1):
            rising, acc, prefix = 1, 0, []
            for j in range(k + 1):
                acc += rising
                prefix.append(acc)
                rising *= n - 2 - k + j
            falling = 1
            for i in range(k + 1):
                total += falling * prefix[k - i]
                falling *= k - i
        out.append(total)
    return out


def _check_sequences(op: Op, out: object) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit status {rc}"
    terms = [int(t) for t in text.split()]
    if op.metric == "seq_eigen_s" and not series.verify_shift(terms, len(terms)):
        return "B(B(x)) != B(x)/x - 1"
    if op.metric == "seq_a_s":
        if hashlib.sha256(text.encode()).hexdigest() != SEQ_A_300_SHA256:
            return "terms differ from the frozen digest"
        terms = terms[: len(op.expect)]
    if terms != op.expect:
        bad = next((i for i, (x, y) in enumerate(zip(terms, op.expect)) if x != y), min(len(terms), len(op.expect)))
        return f"{len(terms)} terms, first difference at term {bad + 1}"
    return None


def sequences(seed: int) -> Workload:
    # Fixed commands in a fixed order: the seed changes nothing here, and the
    # order decides which garbage is still uncollected when catalan peaks.
    a = list(recurrences.recurrence_tables(99).a)  # the recurrence route for eigen
    if a[:10] != list(EIGEN_PREFIX[:10]) or a[12] != A_12:
        raise AssertionError("frozen terms disagree with the recurrence route")
    if _new4(8)[1:] != list(NEW4_PREFIX):
        raise AssertionError("new4 reference disagrees with its frozen terms")
    ops = [
        Op("command", ["seq", "eigen", "--n", "100"], a, metric="seq_eigen_s"),
        Op("command", ["seq", "a", "--n", "300"], a[1:], metric="seq_a_s"),
        Op("command", ["seq", "new4", "--n", "80"], _new4(80)[1:], metric="seq_new4_s"),
        Op("command", ["seq", "catalan", "--n", "20"],
           [math.comb(2 * i, i) // (i + 1) for i in range(1, 21)], metric="seq_catalan_s"),
        Op("command", ["seq", "a051295", "--n", "400"], _a051295(400)[1:], metric="seq_a051295_s"),
        Op("command", ["seq", "bell", "--n", "400"], _bell(400)[1:], metric="seq_bell_s"),
    ]
    shape = {"terms": {op.metric: int(op.arg[-1]) for op in ops}}
    return Workload("sequences", ops, _run_command_op, _check_sequences, shape)


def _run_command_op(op: Op) -> object:
    return _run_command(op.arg)


BY_NAME = {"class_small": class_small, "members_large": members_large, "census": census, "sequences": sequences}


def warm_up_inputs(name: str) -> list:
    """Small fixed inputs for the warm-up, made before its timing starts."""
    if name == "class_small":
        return [_text(p) for p in members.all_members(5)[5]]
    rng = random.Random(0)
    if name == "members_large":
        return [members.build(60, shape, rng).perm for shape in LARGE_SHAPES[::2]]
    if name == "census":
        return [members.build(20, Shape(0.35), rng).perm]
    return []


def warm_up(name: str, inputs: list) -> None:
    """Run each code path the workload times once, on the warm-up inputs."""
    if name == "class_small":
        for text in inputs:
            _text_roundtrip(text)
    elif name == "members_large":
        for p in inputs:
            _run_large(Op("roundtrip", p))
    elif name == "census":
        _run_command(["count", "--pattern", PATTERN, "--n", "6"])
        _run_command(["classify4", "--max-n", "5"])
        _run_command(["verify", "--suite", "all", "--max-n", "5"])
        pattern = perms.parse_pattern(PATTERN)
        for p in inputs:
            _run_census(Op("stream", (pattern, p)))
    else:
        for kind in ("eigen", "a", "new4", "catalan", "a051295", "bell"):
            _run_command(["seq", kind, "--n", "10"])
