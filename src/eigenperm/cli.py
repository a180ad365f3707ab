"""Command-line front end.

Subcommands::

    seq <eigen|a|catalan|bell|a051295|new4> --n N [--bfile] [--json]
    count --pattern P --n N [--brute|--fast]
    classify4 [--max-n N] [--json]
    biject <forward|inverse> --input "..."
    eigen <decompose|compose> --input "..."
    verify --suite <name> --max-n N

Results go to standard output; diagnostics go to standard error.  Exit
status is 0 on success, 1 on a failed verification, 2 on invalid input,
and 3 when an enumeration limit is exceeded.  Through ``main``, a closed
output pipe ends the process by SIGPIPE, without a traceback.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections.abc import Sequence
from importlib import import_module

from .perms import (
    InvalidInputError,
    ResourceLimitError,
    _checked_size,
    _within_limit,
    census,
    format_pattern,
    parse_pattern,
)

__all__ = ["main", "run"]

_FAST_PATTERN = parse_pattern("3(5)241")


def _module(name: str):
    # A command imports the modules it runs, when it runs, by their full
    # names: reading the package namespace (``from . import series``) would
    # load every module.
    return import_module(f"{__package__}.{name}")


# name -> (its first n terms, the largest n accepted).  The routes cost
# O(n^2)-O(n^3) big-integer operations on operands that grow with n; at its
# ceiling each runs for at most about 15 s (Python 3.11, 2 vCPUs), "a" about
# 3-6 s in one process and "eigen" about 6-7 s.
# Routes are looked up at call time, so a patched or traced attribute is the
# one run.
_SEQUENCES = {
    "eigen": (lambda n: _module("series").eigensequence(n), 400),
    "a": (lambda n: _module("recurrences").counts_via_dominance(n)[1:], 400),
    "catalan": (lambda n: _module("recurrences").catalan_numbers(n)[1:], 5000),
    "bell": (lambda n: _module("recurrences").bell_numbers(n)[1:], 4000),
    "a051295": (lambda n: _module("four_patterns").a051295_terms(n)[1:], 1000),
    "new4": (lambda n: _module("four_patterns").new4_terms(n)[1:], 300),
}

# verify.SUITES, in order, without importing verify to build the parser.
_SUITES = ("recurrences", "bijection", "fourpatterns", "all")


# Integer flags, read by the text forms' rule (ASCII digits, here after an
# optional "-"), not by argparse's int, which takes any script's digits,
# underscores and blanks.
_INT_FLAGS = {"n": "--n", "max_n": "--max-n"}


def _sequence_terms(name: str, n: int, command: str) -> list[int]:
    """First ``n`` terms for ``command``, where term ``i`` counts length-``i`` objects."""
    _checked_size(n, "--n", 1)
    terms, ceiling = _SEQUENCES[name]
    _within_limit(command, n, ceiling)
    return terms(n)


def _emit_sequence(terms: list[int], bfile: bool, as_json: bool) -> None:
    if as_json:
        import json  # here, as only the --json forms need it

        print(json.dumps([{"n": i, "value": v} for i, v in enumerate(terms, 1)]))
    elif bfile:
        sys.stdout.write("".join(f"{i} {v}\n" for i, v in enumerate(terms, 1)))
    else:
        print(" ".join(str(v) for v in terms))


def _cmd_seq(args: argparse.Namespace) -> int:
    terms = _sequence_terms(args.name, args.n, f"seq {args.name}")
    # Exact terms may pass the interpreter's int-to-str digit limit
    # (Python 3.11+ and late 3.10 releases); lift it only while writing.
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        _emit_sequence(terms, args.bfile, args.json)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.pattern)
    _checked_size(args.n, "--n")
    if args.fast:
        if pattern != _FAST_PATTERN:
            raise InvalidInputError(
                "no fast counting route for pattern "
                f"{format_pattern(pattern)!r}; rerun with --brute"
            )
        # seq a's terms start at n = 1; a_0 = 1 counts the empty permutation.
        print(_sequence_terms("a", args.n, "count --fast")[-1] if args.n else 1)
        return 0
    print(census(pattern, args.n))
    return 0


def _cmd_classify4(args: argparse.Namespace) -> int:
    four_patterns = _module("four_patterns")
    classes = four_patterns.classify(max_n=args.max_n)
    if args.json:
        import json  # here, as only the --json forms need it

        records = [
            {
                "representative": format_pattern(c.representative),
                "members": [format_pattern(m) for m in c.members],
                "label": c.label,
                "trivial": c.trivial,
                "counts": list(c.counts),
            }
            for c in classes
        ]
        print(json.dumps(records))
    else:
        print(four_patterns.classification_report(classes))
    return 0


def _cmd_biject(args: argparse.Namespace) -> int:
    bijection, textforms = _module("bijection"), _module("textforms")
    if args.direction == "forward":
        marked = textforms.parse_marked(args.input)
        print(textforms.format_perm_list(bijection.marked_to_list(marked)))
    else:
        items = textforms.parse_perm_list(args.input)
        print(textforms.format_marked(bijection.list_to_marked(items)))
    return 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    bijection, textforms = _module("bijection"), _module("textforms")
    if args.direction == "decompose":
        p = textforms.parse_perm(args.input)
        rho, items = bijection.eigen_decompose(p)
        print(f"{textforms.format_perm(rho)} ; {textforms.format_perm_list(items)}")
    else:
        head, semicolon, tail = args.input.partition(";")
        if not semicolon:
            raise InvalidInputError('compose input must look like "<rho> ; <item list>"')
        rho = textforms.parse_perm(head)
        items = textforms.parse_perm_list(tail)
        print(textforms.format_perm(bijection.eigen_compose(rho, items)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = _module("verify").run_suite(args.suite, args.max_n)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.detail})")
    failures = [r for r in results if not r.ok]
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenperm",
        description="Eigensequence counts, pattern censuses, and bijections.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_seq = sub.add_parser("seq", help="print a counting sequence")
    p_seq.add_argument("name", choices=tuple(_SEQUENCES))
    p_seq.add_argument("--n", required=True, help="number of terms")
    p_seq.add_argument("--bfile", action="store_true", help="one 'n value' per line")
    p_seq.add_argument("--json", action="store_true", help="JSON records")
    p_seq.set_defaults(func=_cmd_seq)

    p_count = sub.add_parser("count", help="census a marked pattern")
    p_count.add_argument("--pattern", required=True, help='for example "3(5)241"')
    p_count.add_argument("--n", required=True, help="permutation length")
    route = p_count.add_mutually_exclusive_group()
    route.add_argument(
        "--brute", action="store_true", help="exhaustive census (default)"
    )
    route.add_argument(
        "--fast", action="store_true", help="recurrence route where available"
    )
    p_count.set_defaults(func=_cmd_count)

    p_cls = sub.add_parser("classify4", help="classify the 96 marked 4-patterns")
    p_cls.add_argument("--max-n", default="6", help="largest length counted")
    p_cls.add_argument("--json", action="store_true", help="JSON records")
    p_cls.set_defaults(func=_cmd_classify4)

    p_bij = sub.add_parser("biject", help="marked permutation <-> list")
    p_bij.add_argument("direction", choices=("forward", "inverse"))
    p_bij.add_argument(
        "--input",
        required=True,
        help='marked permutation ("5 1 4 2 6^ 3 7") or list ("1 / 2 1 / ")',
    )
    p_bij.set_defaults(func=_cmd_biject)

    p_eig = sub.add_parser("eigen", help="permutation <-> (rho ; item list)")
    p_eig.add_argument("direction", choices=("decompose", "compose"))
    p_eig.add_argument("--input", required=True)
    p_eig.set_defaults(func=_cmd_eigen)

    p_ver = sub.add_parser("verify", help="run a consistency suite")
    p_ver.add_argument("--suite", choices=_SUITES, required=True)
    p_ver.add_argument("--max-n", default="6")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for dest in _INT_FLAGS.keys() & vars(args).keys():
            setattr(args, dest, _module("textforms")._int_token(getattr(args, dest), name=_INT_FLAGS[dest]))
        return args.func(args)
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3


def main(argv: Sequence[str] | None = None) -> int:
    # A reader that goes away, as in ``eigenperm classify4 | head -3``, ends
    # the process silently, as it ends ``cat``, where the platform has SIGPIPE.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
