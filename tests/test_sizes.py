"""Every size or count argument goes through one check.

Each entry point below must reject ``True``, a float and the integer just
under its least accepted value with InvalidInputError, never TypeError and
never by running on the value.
"""

from __future__ import annotations

import argparse

import pytest

from eigenperm import (
    InvalidInputError,
    PowerSeries,
    StarredPermutation,
    UnderlinedPattern,
    a051295_terms,
    bell_numbers,
    catalan_via_compositions,
    census,
    classify,
    compositions,
    count_1342ok_by_position,
    counts_via_dominance,
    dominance_count,
    eigensequence,
    new4_terms,
    parse_pattern,
    recurrence_tables,
    run_suite,
    verify_shift,
)
from eigenperm import cli
from eigenperm.recurrences import catalan_numbers

UP = parse_pattern("3(5)241")

# (name, call, least accepted value)
ENTRY_POINTS = [
    ("census", lambda v: census(UP, v), 0),
    ("recurrence_tables", recurrence_tables, 1),
    ("compositions", compositions, 1),
    ("counts_via_dominance", counts_via_dominance, 0),
    ("catalan_via_compositions", catalan_via_compositions, 0),
    ("bell_numbers", bell_numbers, 0),
    ("catalan_numbers", catalan_numbers, 0),
    ("dominance_count part", lambda v: dominance_count((1, v)), 1),
    ("eigensequence", eigensequence, 1),
    ("verify_shift", lambda v: verify_shift([1, 1], v), 1),
    ("PowerSeries.identity", PowerSeries.identity, 1),
    ("classify", lambda v: classify(max_n=v), 5),
    ("a051295_terms", a051295_terms, 0),
    ("new4_terms", new4_terms, 0),
    ("count_1342ok_by_position n", lambda v: count_1342ok_by_position(v, 1), 1),
    ("count_1342ok_by_position k", lambda v: count_1342ok_by_position(3, v), 1),
    ("run_suite", lambda v: run_suite("bijection", v), 0),
    ("cli seq", lambda v: cli._sequence_terms("eigen", v, "seq eigen"), 1),
    ("cli count", lambda v: cli._cmd_count(argparse.Namespace(pattern="3(5)241", n=v, fast=True)), 0),
    ("UnderlinedPattern mark", lambda v: UnderlinedPattern((1, 2), v), 1),
    ("StarredPermutation before", lambda v: StarredPermutation((1,), (v,)), 0),
    ("StarredPermutation after_max", lambda v: StarredPermutation((1,), (0,), v), 0),
]


@pytest.mark.parametrize("value", [True, 1.5, "least - 1"])
@pytest.mark.parametrize("name, call, least", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
def test_sizes_must_be_ints_of_at_least_their_least(name, call, least, value):
    if value == "least - 1":
        value = least - 1
    with pytest.raises(InvalidInputError):
        call(value)
