"""Permutations, marked-letter patterns, and the OK predicate.

Permutations are tuples of distinct positive integers in one-line notation.
A *standard* permutation on [n] uses each of the values 1..n exactly once.

A marked pattern such as ``3(5)241`` is a standard permutation with one
letter singled out.  A permutation *satisfies* the pattern when every
occurrence of the pattern-minus-marked-letter extends, by one extra entry
in the position gap and value gap left by the marked letter, to an
occurrence of the full pattern.  For ``3(5)241`` this says: every 3241
instance is part of a 35241 instance.

The module also provides the left-to-right-maximum factorization, the
terminal increasing run of top values (LIT entries), the dihedral symmetry
action on permutations and patterns, brute-force censuses, class counts on
a generating tree, and a fast structural recognizer for the ``3(5)241``
class.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

__all__ = [
    "GENERATORS",
    "InvalidInputError",
    "LRMaxFactorization",
    "Perm",
    "ResourceLimitError",
    "UnderlinedPattern",
    "apply_pattern_symmetry",
    "apply_symmetry",
    "as_perm",
    "census",
    "complement",
    "contains",
    "fast_35241ok",
    "format_pattern",
    "invert",
    "is_avoider",
    "is_standard",
    "lit_entries",
    "lrmax_factorize",
    "occurrences",
    "parse_pattern",
    "reduce_word",
    "reverse",
    "satisfies",
]

Perm = tuple[int, ...]

GENERATORS = ("complement", "reverse", "inverse")

# The largest n that census enumerates: 10! permutations.
CENSUS_LIMIT = 10


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A brute-force operation would exceed its configured size limit."""


def as_perm(word: Iterable[int]) -> Perm:
    """Return ``word`` as a tuple after checking entries are distinct positive ints.

    >>> as_perm([3, 1, 2])
    (3, 1, 2)
    """
    p = tuple(word)
    for e in p:
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise InvalidInputError(f"entries must be positive integers, got {_echo(p)}")
    if len(set(p)) != len(p):
        raise InvalidInputError(f"entries must be distinct, got {_echo(p)}")
    return p


def _echo(value: object) -> str:
    # How a diagnostic quotes a caller's value: its repr, cut to 60 characters.
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _checked_size(value: object, name: str, least: int = 0) -> int:
    # The one check for sizes and counts: an int, not a bool, at least ``least``.
    if isinstance(value, int) and not isinstance(value, bool) and value >= least:
        return value
    kinds = {0: "a nonnegative integer", 1: "a positive integer"}
    kind = kinds.get(least, f"an integer of at least {least}")
    raise InvalidInputError(f"{name} must be {kind}, got {_echo(value)}")


def _within_limit(what: str, n: int, limit: int) -> None:
    # The one ceiling check: refuse work past ``limit`` before doing any.
    if n > limit:
        raise ResourceLimitError(f"{what} at n={n} exceeds the limit {limit}")


def is_standard(p: Sequence[int]) -> bool:
    """True when ``p`` uses exactly the values 1..len(p).

    >>> is_standard((2, 3, 1))
    True
    >>> is_standard((9, 4, 7))
    False
    """
    return sorted(p) == list(range(1, len(p) + 1))


def reduce_word(word: Iterable[int]) -> Perm:
    """Rank the entries of ``word``: the i-th smallest entry becomes i.

    >>> reduce_word((9, 4, 7))
    (3, 1, 2)
    >>> reduce_word(())
    ()
    """
    return _reduce(as_perm(word))


def _reduce(p: Sequence[int]) -> Perm:
    # reduce_word without validation: p holds distinct positive ints.
    rank = {v: i for i, v in enumerate(sorted(p), start=1)}
    return tuple(rank[v] for v in p)


def lit_entries(word: Iterable[int]) -> Perm:
    """Terminal run of top values appearing in increasing order (LIT entries).

    These are the values ``s_j < s_{j+1} < ... < s_m`` (consecutive in the
    sorted support, ending at the maximum) that occur left to right in
    ``word``, with ``j`` as small as possible.

    >>> lit_entries((2, 1, 4, 7, 6, 5, 8, 9, 3))
    (7, 8, 9)
    >>> lit_entries((3, 1, 5, 2, 4))
    (5,)
    >>> lit_entries(())
    ()
    """
    return _lit(as_perm(word))


def _lit(p: Sequence[int]) -> Perm:
    # lit_entries without validation: p holds distinct positive ints.
    if not p:
        return ()
    support = sorted(p)
    pos = {v: i for i, v in enumerate(p)}
    j = len(support) - 1
    while j > 0 and pos[support[j - 1]] < pos[support[j]]:
        j -= 1
    return tuple(support[j:])


@dataclass(frozen=True)
class LRMaxFactorization:
    """Factorization of a permutation at its left-to-right maxima.

    ``factors[i]`` is a pair ``(head, tail)``: a left-to-right maximum and
    the (possibly empty) run of smaller entries following it before the
    next maximum.  ``lit_start`` is the index of the first factor whose
    head is an LIT entry; the LIT entries always form a terminal segment
    of the heads.
    """

    factors: tuple[tuple[int, Perm], ...]
    lit_start: int

    @property
    def heads(self) -> Perm:
        return tuple(h for h, _ in self.factors)

    @property
    def lit(self) -> Perm:
        """The LIT entry values, ascending."""
        return self.heads[self.lit_start:]


def lrmax_factorize(p: Iterable[int]) -> LRMaxFactorization:
    """Split ``p`` into factors headed by its left-to-right maxima.

    >>> f = lrmax_factorize((3, 1, 5, 2, 4))
    >>> f.factors
    ((3, (1,)), (5, (2, 4)))
    >>> f.lit
    (5,)
    """
    p = as_perm(p)
    factors = _lrmax_factors(p)
    lit = _lit(p)
    lit_start = len(factors) - len(lit)
    if tuple(h for h, _ in factors[lit_start:]) != lit:
        raise AssertionError("LIT entries are not a terminal segment of the heads")
    return LRMaxFactorization(tuple(factors), lit_start)


def _lrmax_factors(p: Sequence[int]) -> list[tuple[int, Perm]]:
    # lrmax_factorize's (head, tail) pairs without validation.
    factors: list[tuple[int, Perm]] = []
    head = 0
    tail: list[int] = []
    for v in p:
        if v > head:
            if head:
                factors.append((head, tuple(tail)))
            head, tail = v, []
        else:
            tail.append(v)
    if head:
        factors.append((head, tuple(tail)))
    return factors


def complement(p: Iterable[int]) -> Perm:
    """Replace each entry e of a standard permutation by n+1-e."""
    return _move("complement", _checked_standard(p))


def reverse(p: Iterable[int]) -> Perm:
    """Read the permutation right to left."""
    return _move("reverse", _checked_standard(p))


def invert(p: Iterable[int]) -> Perm:
    """Group-theoretic inverse: entry i of the result is the position of i in p.

    >>> invert((2, 3, 1))
    (3, 1, 2)
    """
    return _move("inverse", _checked_standard(p))


def _move(name: str, p: Perm) -> Perm:
    # One generator from GENERATORS on a standard p, without validation.
    if name == "complement":
        n = len(p)
        return tuple(n + 1 - e for e in p)
    if name == "reverse":
        return p[::-1]
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def _checked_standard(p: Iterable[int]) -> Perm:
    q = as_perm(p)
    # Distinct positive ints are exactly 1..len(q) when the largest is len(q).
    if q and max(q) != len(q):
        raise InvalidInputError(f"a standard permutation is required, got {_echo(q)}")
    return q


def _generator_list(g: str | Iterable[str]) -> tuple[str, ...]:
    names = tuple(g.split()) if isinstance(g, str) else tuple(g)
    for name in names:
        if name not in GENERATORS:
            raise InvalidInputError(f"unknown symmetry generator {_echo(name)}")
    return names


def apply_symmetry(p: Iterable[int], g: str | Iterable[str]) -> Perm:
    """Apply a word over {complement, reverse, inverse}, left to right.

    >>> apply_symmetry((2, 3, 1), "reverse")
    (1, 3, 2)
    >>> apply_symmetry((2, 3, 1), ("reverse", "reverse"))
    (2, 3, 1)
    """
    q = _checked_standard(p)
    for name in _generator_list(g):
        q = _move(name, q)
    return q


@dataclass(frozen=True)
class UnderlinedPattern:
    """A standard permutation with one marked letter.

    ``full`` is the complete pattern and ``mark`` the 1-based position of
    the marked letter.  ``3(5)241`` is ``UnderlinedPattern((3, 5, 2, 4, 1), 2)``.
    """

    full: Perm
    mark: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "full", _checked_standard(self.full))
        _checked_size(self.mark, "mark position", 1)
        if self.mark > len(self.full):
            raise InvalidInputError(f"mark position {self.mark!r} out of range for {_echo(self.full)}")

    @cached_property
    def base(self) -> Perm:
        """The pattern with the marked letter deleted, reduced."""
        rest = self.full[: self.mark - 1] + self.full[self.mark:]
        return _reduce(rest)

    @cached_property
    def _extension(self) -> tuple[int, int, int]:
        # (slot, lo_idx, hi_idx): the inserted entry must sit after base
        # position slot-1 and before base position slot, with value between
        # the occurrence values at base indices lo_idx and hi_idx (-1: none).
        w = self.full[self.mark - 1]
        rest = self.full[: self.mark - 1] + self.full[self.mark:]
        lo = hi = -1
        for t, v in enumerate(rest):
            if v == w - 1:
                lo = t
            elif v == w + 1:
                hi = t
        return self.mark - 1, lo, hi

    def __str__(self) -> str:
        return format_pattern(self)


def parse_pattern(text: str) -> UnderlinedPattern:
    """Parse e.g. ``"3(5)241"`` into an :class:`UnderlinedPattern`.

    Letters are single ASCII digits; exactly one letter is parenthesized.

    >>> parse_pattern("3(5)241").mark
    2
    """
    letters: list[int] = []
    mark: int | None = None
    i, s = 0, text.strip()
    while i < len(s):
        ch = s[i]
        if ch == "(":
            if mark is not None:
                raise InvalidInputError(f"more than one marked letter in {_echo(text)}")
            if i + 2 >= len(s) or not ("0" <= s[i + 1] <= "9") or s[i + 2] != ")":
                raise InvalidInputError(f"malformed mark in {_echo(text)}")
            letters.append(int(s[i + 1]))
            mark = len(letters)
            i += 3
        elif "0" <= ch <= "9":
            letters.append(int(ch))
            i += 1
        elif ch.isspace():
            i += 1
        else:
            raise InvalidInputError(f"unexpected character {ch!r} in pattern {_echo(text)}")
    if mark is None:
        raise InvalidInputError(f"no marked letter in {_echo(text)}")
    return UnderlinedPattern(tuple(letters), mark)


def format_pattern(up: UnderlinedPattern) -> str:
    """Inverse of :func:`parse_pattern`.

    >>> format_pattern(UnderlinedPattern((3, 5, 2, 4, 1), 2))
    '3(5)241'
    """
    return "".join(f"({v})" if i == up.mark else str(v) for i, v in enumerate(up.full, start=1))


def apply_pattern_symmetry(up: UnderlinedPattern, g: str | Iterable[str]) -> UnderlinedPattern:
    """Apply a symmetry word to a marked pattern, transporting the mark.

    Complement keeps the marked position, reverse mirrors it, and inverse
    moves the mark to the position given by the marked letter's value.
    """
    full, mark = up.full, up.mark
    for name in _generator_list(g):
        mark = {"complement": mark, "reverse": len(full) + 1 - mark, "inverse": full[mark - 1]}[name]
        full = _move(name, full)
    return UnderlinedPattern(full, mark)


@lru_cache(maxsize=None)
def _tight_bounds(pattern: Perm) -> tuple[tuple[int, int], ...]:
    # For each pattern index t, the earlier indices holding the closest
    # pattern values below and above pattern[t] (-1: unbounded).  Checking
    # these two suffices for order-isomorphism of a partial match.
    bounds = []
    for t, v in enumerate(pattern):
        lo_ref = hi_ref = -1
        lo_val, hi_val = 0, len(pattern) + 1
        for s in range(t):
            if lo_val < pattern[s] < v:
                lo_val, lo_ref = pattern[s], s
            elif v < pattern[s] < hi_val:
                hi_val, hi_ref = pattern[s], s
        bounds.append((lo_ref, hi_ref))
    return tuple(bounds)


def _iter_occurrences(p: Perm, pattern: Perm) -> Iterator[tuple[int, ...]]:
    # Yields 0-based position tuples in lexicographic order.
    m, n = len(pattern), len(p)
    if m == 0:
        yield ()
        return
    bounds = _tight_bounds(pattern)
    occ = [0] * m
    vals = [0] * m
    big = n + 1
    t = q = 0
    while True:
        if q > n - (m - t):
            if t == 0:
                return
            t -= 1
            q = occ[t] + 1
            continue
        v = p[q]
        lo_ref, hi_ref = bounds[t]
        if (vals[lo_ref] if lo_ref >= 0 else 0) < v < (vals[hi_ref] if hi_ref >= 0 else big):
            occ[t] = q
            vals[t] = v
            if t == m - 1:
                yield tuple(occ)
                q += 1
            else:
                t += 1
                q += 1
        else:
            q += 1


def occurrences(p: Iterable[int], pattern: Iterable[int]) -> list[tuple[int, ...]]:
    """All occurrences of ``pattern`` in ``p`` as 1-based position tuples.

    >>> occurrences((3, 2, 1), (3, 2, 1))
    [(1, 2, 3)]
    >>> occurrences((1, 2), (2, 1))
    []
    """
    p = as_perm(p)
    return [tuple(q + 1 for q in occ) for occ in _iter_occurrences(p, _checked_standard(pattern))]


def contains(p: Iterable[int], pattern: Iterable[int]) -> bool:
    """True when ``pattern`` occurs in ``p`` at least once."""
    p = as_perm(p)
    return next(_iter_occurrences(p, _checked_standard(pattern)), None) is not None


def is_avoider(p: Iterable[int], pattern: Iterable[int]) -> bool:
    """True when ``pattern`` does not occur in ``p``."""
    return not contains(p, pattern)


def _satisfies(p: Perm, up: UnderlinedPattern) -> bool:
    # Core loop without argument validation; p standard, possibly empty.
    n = len(p)
    base = up.base
    slot, lo_idx, hi_idx = up._extension
    big = n + 1
    nb = len(base)
    for occ in _iter_occurrences(p, base):
        lo = p[occ[lo_idx]] if lo_idx >= 0 else 0
        hi = p[occ[hi_idx]] if hi_idx >= 0 else big
        a = occ[slot - 1] + 1 if slot > 0 else 0
        b = occ[slot] if slot < nb else n
        for x in range(a, b):
            if lo < p[x] < hi:
                break
        else:
            return False
    return True


def satisfies(p: Iterable[int], up: UnderlinedPattern) -> bool:
    """True when every base occurrence of ``up`` in ``p`` extends to the full pattern.

    The extension entry must land in the position gap and the value gap
    that the marked letter occupies inside ``up.full``.  The empty
    permutation satisfies every pattern whose base is nonempty.

    >>> satisfies((3, 2, 4, 1), parse_pattern("3(5)241"))
    False
    >>> satisfies((3, 5, 2, 4, 1), parse_pattern("3(5)241"))
    True
    """
    return _satisfies(_checked_standard(p), up)


def census(up: UnderlinedPattern, n: int) -> int:
    """Number of standard permutations of [n] satisfying ``up``.

    Brute force over all n! permutations; refuses to run past ``CENSUS_LIMIT``.

    >>> census(parse_pattern("3(5)241"), 4)
    23
    """
    _checked_size(n, "n")
    _within_limit("census", n, CENSUS_LIMIT)
    count = 0
    sat = _satisfies
    for p in itertools.permutations(range(1, n + 1)):
        if sat(p, up):
            count += 1
    return count


def _class_counts(up: UnderlinedPattern, max_n: int) -> tuple[int, ...]:
    # census(up, n) for n = 0..max_n on a generating tree (West 1995); up's
    # base must be nonempty.  With the mark not last, the class is closed
    # under deleting the last entry and reducing, so each member of length
    # m+1 is a member q of length m plus a new last value v in 1..m+1
    # (entries of q from v up shift by one).  v can only break a base
    # occurrence that ends at it: an occurrence h of the head base[:-1]
    # in q, completed by v in [lo_v, hi_v].  The v that some unextended h
    # forbids form one bit set per q; the rest are q's children, built
    # below max_n and only counted at max_n.  A pattern marked last is
    # counted through its reverse, whose class is the reversed class.
    # The caller checks max_n against CENSUS_LIMIT.
    if up.mark == len(up.full):
        up = apply_pattern_symmetry(up, "reverse")
    base = up.base
    last = len(base) - 1
    head = _reduce(base[:-1])
    below = base[-1] - 1  # head letters below the new entry
    below_at = head.index(below) if below else -1
    above_at = head.index(below + 1) if below < last else -1
    slot, lo_idx, hi_idx = up._extension
    counts = [1]
    level: list[Perm] = [()]
    for m in range(max_n):
        top = m + 1
        grown: list[Perm] = []
        total = 0
        for q in level:
            forbidden = 0
            for h in _iter_occurrences(q, head):
                lo_v = q[h[below_at]] + 1 if below_at >= 0 else 1
                hi_v = q[h[above_at]] if above_at >= 0 else top
                span = (1 << (hi_v + 1)) - (1 << lo_v)  # the bits lo_v..hi_v
                if forbidden & span == span:
                    continue
                # The gap entries that could extend h, leaving v aside.
                lo = q[h[lo_idx]] if 0 <= lo_idx < last else 0
                hi = q[h[hi_idx]] if 0 <= hi_idx < last else top
                gap = q[h[slot - 1] + 1 if slot else 0 : h[slot] if slot < last else m]
                inside = [x for x in gap if lo < x < hi]
                if lo_idx == last:
                    # The extension must lie above v: v up to max(inside) survives.
                    lo_v = max(lo_v, max(inside, default=0) + 1)
                elif hi_idx == last:
                    # The extension must lie below v: v past min(inside) survives.
                    hi_v = min(hi_v, min(inside, default=top))
                elif inside:
                    continue
                if lo_v <= hi_v:
                    forbidden |= (1 << (hi_v + 1)) - (1 << lo_v)
            allowed = ((1 << (top + 1)) - 2) & ~forbidden  # the bits 1..top
            if top < max_n:
                for v in range(1, top + 1):
                    if allowed >> v & 1:
                        grown.append(tuple(x + (x >= v) for x in q) + (v,))
            else:
                total += allowed.bit_count()
        counts.append(len(grown) if top < max_n else total)
        level = grown
    return tuple(counts)


def fast_35241ok(p: Iterable[int]) -> bool:
    """Structural recognizer for the ``3(5)241`` class.

    A permutation is in the class iff the tails of its left-to-right
    maximum factorization are value-ordered (everything in an earlier tail
    is smaller than everything in a later tail) and each reduced tail is
    recursively in the class.

    >>> fast_35241ok((3, 2, 4, 1))
    False
    >>> fast_35241ok((3, 5, 2, 4, 1))
    True
    """
    return _fast_ok(_checked_standard(p))


def _fast_ok(p: Sequence[int]) -> bool:
    # An explicit stack of tails, so any nesting depth is fine.  The check
    # only compares values, so tails need no reduction; words shorter than
    # 4 are always in the class.
    if len(p) < 4:
        return True
    stack = [p]
    while stack:
        prev_max = 0
        for _, tail in _lrmax_factors(stack.pop()):
            if tail:
                if min(tail) < prev_max:
                    return False
                prev_max = max(tail)
                if len(tail) >= 4:
                    stack.append(tail)
    return True
