"""Re-runnable consistency suites behind the ``verify`` CLI command.

Each check cross-validates two independent routes to the same quantity at
a configurable size and reports a failed check as a result, not an error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import bijection, four_patterns, perms, recurrences, series

__all__ = ["CheckResult", "SUITES", "run_suite"]

# The largest max_n the recurrences checks accept: their routes at order
# max_n + 2 take about 12-13 s together there (Python 3.11, 2 vCPUs).  The
# other checks cap their own sizes.
RECURRENCES_LIMIT = 350


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


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
    dom_n = min(max_n, 12)
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


def _eigen_failures(bound: int) -> Iterator[str]:
    for p in _ok_perms(bound):
        if bijection.eigen_compose(*bijection.eigen_decompose(p)) != p:
            yield f"failed at {p}"


def _marked_failures(bound: int) -> Iterator[str]:
    for p in _ok_perms(bound):
        lit = sorted(set(perms.lit_entries(p)) - {len(p)})
        for r in range(len(lit) + 1):
            for marks in itertools.combinations(lit, r):
                mp = bijection.MarkedPermutation(p, frozenset(marks))
                if bijection.list_to_marked(bijection.marked_to_list(mp)) != mp:
                    yield f"failed at {p} marks {marks}"


def verify_bijection(max_n: int) -> list[CheckResult]:
    eigen_n, marked_n = min(max_n, 8), min(max_n, 7)
    return [
        _first_failure("eigen decompose/compose round trip", f"n <= {eigen_n}", _eigen_failures(eigen_n)),
        _first_failure("marked list round trip", f"n <= {marked_n}", _marked_failures(marked_n)),
    ]


def _partition_failures(bound: int) -> Iterator[str]:
    bell = recurrences.bell_numbers(bound)
    pattern = perms.parse_pattern("32(4)1")
    for n in range(1, bound + 1):
        members = [p for p in itertools.permutations(range(1, n + 1)) if perms._satisfies(p, pattern)]
        if len(members) != bell[n]:
            yield f"{len(members)} members at n = {n}, not {bell[n]}"
        for p in members:
            if four_patterns.from_partition_increasing(four_patterns.to_partition_increasing(p)) != p:
                yield f"failed at {p}"


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
    if name not in _SUITES:
        raise perms.InvalidInputError(f"unknown suite {perms._echo(name)}; choose from {SUITES}")
    perms._checked_size(max_n, "max_n")
    return [result for suite in _SUITES[name] for result in suite(max_n)]
