"""Re-runnable consistency suites behind the ``verify`` CLI command.

Each check cross-validates two independent routes to the same quantity at
a configurable size and reports a failed check as a result, not an error.

The bijection checks run the private cores of :mod:`eigenperm.bijection` on
the class members the suite lists, which need no second validation, and
check that every output of a forward map is a list of class members of the
right count and sizes before the inverse map reads it.  So a stage that
emits a non-member, or a map that raises on a member the suite gives it,
fails its check and names that member.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

# By full name: ``from . import`` reads the package namespace, which loads
# every module on first use (see ``eigenperm/__init__``).
import eigenperm.bijection as bijection
import eigenperm.four_patterns as four_patterns
import eigenperm.perms as perms
import eigenperm.recurrences as recurrences
import eigenperm.series as series

__all__ = ["CheckResult", "SUITES", "run_suite"]

# The largest max_n the recurrences checks accept: their routes at order
# max_n + 2 take about 8-12 s together there, in one process (Python 3.11,
# 2 vCPUs).  The other checks cap their own sizes.
RECURRENCES_LIMIT = 350


class CheckResult(perms._Record):
    """One check's outcome: its ``name``, whether it passed (``ok``), and a ``detail`` line."""

    __match_args__ = ("name", "ok", "detail")


def _ok_perms(bound: int) -> Iterator[perms.Perm]:
    """The 3(5)241-OK permutations of lengths 1..bound, shortest first."""
    for n in range(1, bound + 1):
        for p in itertools.permutations(range(1, n + 1)):
            if perms._fast_ok(p):
                yield p


def _first_failure(name: str, scope: str, failures: Iterator[str]) -> CheckResult:
    """Pass with ``scope`` as detail, or fail with the first of the lazy ``failures``."""
    detail = next(failures, None)
    return CheckResult(name, detail is None, scope if detail is None else detail)


def verify_recurrences(max_n: int) -> list[CheckResult]:
    perms._within_limit("recurrences checks", max_n, RECURRENCES_LIMIT)
    out = []
    b = series.eigensequence(max_n + 2)
    tables = recurrences.recurrence_tables(max_n + 1)
    ok = all(tables.a[n] == b[n] for n in range(max_n + 1))
    out.append(CheckResult("a_n equals shifted eigensequence", ok, f"n <= {max_n}"))
    dom_n = min(max_n, 12)  # the cubic sum could go further, but its "n <= 12" line is stdout
    dom = recurrences.counts_via_dominance(dom_n)
    ok = all(dom[n] == tables.a[n] for n in range(dom_n + 1))
    out.append(CheckResult("dominance sum equals recurrence tables", ok, f"n <= {dom_n}"))
    ok = all(sum(row) == tables.a[n] for n, row in enumerate(tables.by_first, start=1))
    out.append(CheckResult("first-entry rows sum to a_n", ok, f"n <= {max_n + 1}"))
    census_n = min(max_n, 7)
    up = perms.parse_pattern("3(5)241")
    ok = all(perms.census(up, n) == b[n] for n in range(census_n + 1))
    out.append(CheckResult("census equals eigensequence", ok, f"n <= {census_n}"))
    ok = series.verify_shift(b, max_n + 2)
    out.append(CheckResult("self-composition shifts left", ok, f"order {max_n + 2}"))
    return out


def _broken(round_trip: Callable[..., bool], *case: object) -> str | None:
    """None when ``round_trip(*case)`` holds; else "", or ": " and what it raised.

    The checks run the maps on members the suite lists, so an error they
    raise is a fault of a stage, and fails the check like a wrong result.
    """
    try:
        return None if round_trip(*case) else ""
    except Exception as exc:
        return f": {exc}"


def _members(qs: tuple) -> bool:
    # An empty slot, most slots of a short member's list, is a member.
    return all(perms.is_standard(q) and perms._fast_ok(q) for q in qs if q)


def _eigen_round_trip(p: perms.Perm) -> bool:
    # The cores trust their input, so each output of the forward one is
    # checked before the inverse one reads it.
    rho, its = bijection._decompose(p)
    return (
        _members((rho, *its))
        and len(its) == len(rho) + 1
        and len(rho) + sum(map(len, its)) == len(p) - 1
        and bijection._compose(rho, its) == p
    )


def _eigen_failures(bound: int) -> Iterator[str]:
    for p in _ok_perms(bound):
        why = _broken(_eigen_round_trip, p)
        if why is not None:
            yield f"failed at {p}{why}"


def _marked_round_trip(p: perms.Perm, marks: tuple[int, ...]) -> bool:
    its = bijection._to_list(p, marks)
    return (
        _members(its)
        and all(its)
        and len(its) == len(marks) + 1
        and sum(map(len, its)) == len(p)
        and bijection._from_list(its) == (p, marks)
    )


def _marked_failures(bound: int) -> Iterator[str]:
    for p in _ok_perms(bound):
        lit = perms._lit(p)[:-1]  # the marks allowed: non-maximal LIT entries, ascending
        for r in range(len(lit) + 1):
            for marks in itertools.combinations(lit, r):
                why = _broken(_marked_round_trip, p, marks)
                if why is not None:
                    yield f"failed at {p} marks {marks}{why}"


def verify_bijection(max_n: int) -> list[CheckResult]:
    eigen_n, marked_n = min(max_n, 8), min(max_n, 7)
    return [
        _first_failure("eigen decompose/compose round trip", f"n <= {eigen_n}", _eigen_failures(eigen_n)),
        _first_failure("marked list round trip", f"n <= {marked_n}", _marked_failures(marked_n)),
    ]


def _partition_round_trip(p: perms.Perm) -> bool:
    return four_patterns.from_partition_increasing(four_patterns.to_partition_increasing(p)) == p


def _partition_failures(bound: int) -> Iterator[str]:
    bell = recurrences.bell_numbers(bound)
    pattern = perms.parse_pattern("32(4)1")
    for n in range(1, bound + 1):
        members = [p for p in itertools.permutations(range(1, n + 1)) if perms._satisfies(p, pattern)]
        if len(members) != bell[n]:
            yield f"{len(members)} members at n = {n}, not {bell[n]}"
        for p in members:
            why = _broken(_partition_round_trip, p)
            if why is not None:
                yield f"failed at {p}{why}"


def verify_fourpatterns(max_n: int) -> list[CheckResult]:
    out = []
    bound = max(5, min(max_n, 7))
    try:
        classes = four_patterns.classify(max_n=bound)
    except four_patterns.ClassificationError as exc:
        return [CheckResult("classification", False, str(exc))]
    sizes = sorted(len(c.members) for c in classes if not c.trivial)
    ok = sizes == [4, 4, 8, 8, 8] and sum(
        len(c.members) for c in classes if c.trivial
    ) == 64
    out.append(CheckResult("orbit structure 64 + (8,8,8,4,4)", ok, f"n <= {bound}"))
    labels = sorted(c.label for c in classes if not c.trivial)
    ok = labels == ["a051295", "a051295", "bell", "bell", "new4"]
    out.append(CheckResult("nontrivial labels", ok, ", ".join(labels)))
    out.append(_first_failure("partition bijection round trip", f"n <= {bound}", _partition_failures(bound)))
    return out


_SUITES = {
    "recurrences": (verify_recurrences,),
    "bijection": (verify_bijection,),
    "fourpatterns": (verify_fourpatterns,),
    "all": (verify_recurrences, verify_bijection, verify_fourpatterns),
}
SUITES = tuple(_SUITES)


def run_suite(name: str, max_n: int) -> list[CheckResult]:
    if not isinstance(name, str) or name not in _SUITES:
        raise perms.InvalidInputError(f"unknown suite {perms._echo(name)}; choose from {SUITES}")
    perms._checked_size(max_n, "max_n")
    return [result for suite in _SUITES[name] for result in suite(max_n)]
