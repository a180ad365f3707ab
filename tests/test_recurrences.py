from __future__ import annotations

import gc
import hashlib
import itertools
import math
import time

import pytest

from eigenperm import (
    InvalidInputError,
    ResourceLimitError,
    bell_numbers,
    catalan_via_compositions,
    compositions,
    counts_via_dominance,
    dominance_count,
    eigensequence,
    is_avoider,
    recurrence_tables,
    recurrences,
)


def test_tables_frozen_values():
    t = recurrence_tables(9)
    assert t.a == (1, 1, 2, 6, 23, 104, 531, 2982, 18109, 117545)
    assert t.ascent_start == (1, 1, 3, 12, 57, 305, 1787, 11269, 75629)
    assert t.by_first[0] == (1,)
    assert t.by_first[1] == (1, 1)
    assert t.by_first[2] == (2, 2, 2)
    assert t.by_first[3] == (6, 6, 5, 6)


def test_tables_internal_consistency():
    t = recurrence_tables(12)
    for n in range(1, 13):
        row = t.by_first[n - 1]
        assert len(row) == n
        assert row[-1] == t.a[n - 1]
        assert sum(row) == t.a[n]


def test_tables_match_eigensequence():
    t = recurrence_tables(20)
    assert list(t.a) == eigensequence(21)[:21]
    assert list(recurrence_tables(119).a) == eigensequence(120)


def literal_tables(n_max):
    # a_n, c_n and a_{n,k} straight from the docstring, indexed by n, k, i, j.
    a, c, tri = {0: 1}, {1: 1}, {}
    for n in range(1, n_max + 1):
        if n >= 2:
            c[n] = sum(i * tri[n - 1, i] for i in range(1, n))
        a[n] = sum(a[i] * c[n - i] for i in range(n))
        for k in range(1, n):
            tri[n, k] = sum(
                a[i] * sum(tri[n - 1 - i, j] for j in range(k - i, n - i)) for i in range(k)
            )
        tri[n, n] = a[n - 1]
    return recurrences.RecurrenceTables(
        tuple(a[n] for n in range(n_max + 1)),
        tuple(c[n] for n in range(1, n_max + 1)),
        tuple(tuple(tri[n, k] for k in range(1, n + 1)) for n in range(1, n_max + 1)),
    )


def test_tables_match_their_formulas_read_literally():
    assert recurrence_tables(40) == literal_tables(40)


PINNED_120 = "743e5fd603821d4cc90d1c157e100c9e754616d4e5516f1cce4032cd5804fc59"


def digest(tables):
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def test_tables_at_120_are_pinned():
    # The digest of the tables that the row-indexed triangle gave.
    assert digest(recurrence_tables(120)) == PINNED_120


def test_tables_validation():
    with pytest.raises(InvalidInputError):
        recurrence_tables(0)


def test_by_first_against_brute_force():
    t = recurrence_tables(6)
    from eigenperm import fast_35241ok

    for n in range(1, 7):
        counted = [0] * n
        for p in itertools.permutations(range(1, n + 1)):
            if fast_35241ok(p):
                counted[p[0] - 1] += 1
        assert tuple(counted) == t.by_first[n - 1]


def test_compositions_enumeration():
    assert compositions(1) == [(1,)]
    assert compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    for n in range(1, 9):
        comps = compositions(n)
        assert len(comps) == 2 ** (n - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n and min(c) >= 1 for c in comps)
    with pytest.raises(InvalidInputError):
        compositions(0)
    assert len(compositions(recurrences.COMPOSITION_LIMIT)) == 2 ** (recurrences.COMPOSITION_LIMIT - 1)
    with pytest.raises(ResourceLimitError):
        compositions(recurrences.COMPOSITION_LIMIT + 1)


def test_compositions_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        compositions(12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def brute_dominance(comp):
    n, r = sum(comp), len(comp)
    want = [sum(comp[: i + 1]) for i in range(r)]
    count = 0
    for d in compositions(n):
        if len(d) != r:
            continue
        have = [sum(d[: i + 1]) for i in range(r)]
        if all(h >= w for h, w in zip(have, want)):
            count += 1
    return count


def test_dominance_count_examples_and_validation():
    assert dominance_count((1, 2)) == 2
    assert dominance_count((1, 1, 1)) == 1
    assert dominance_count((5,)) == 1
    with pytest.raises(InvalidInputError):
        dominance_count(())
    with pytest.raises(InvalidInputError):
        dominance_count((1, 0))
    # The ceiling is on the total, checked before any table is built.
    assert dominance_count((recurrences.DOMINANCE_LIMIT,)) == 1
    for comp in ((2**70,), (10**9,), (1, recurrences.DOMINANCE_LIMIT)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            dominance_count(comp)
        assert time.perf_counter() - start < 0.1


def test_dominance_count_against_enumeration():
    for n in range(1, 10):
        for comp in compositions(n):
            assert dominance_count(comp) == brute_dominance(comp)


def test_counts_via_dominance_matches_tables():
    assert counts_via_dominance(10) == eigensequence(11)[:11]
    assert counts_via_dominance(17) == eigensequence(18)


def test_catalan_via_compositions():
    assert catalan_via_compositions(8) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    got = catalan_via_compositions(12)
    for n in range(13):
        assert got[n] == math.comb(2 * n, n) // (n + 1)
    assert catalan_via_compositions(17)[17] == math.comb(34, 17) // 18


def test_composition_sums_equal_their_terms_listed_one_by_one():
    dom, cat = counts_via_dominance(12), catalan_via_compositions(12)
    for n in range(1, 13):
        comps = compositions(n)
        assert dom[n] == sum(dominance_count(c) * math.prod(dom[p - 1] for p in c) for c in comps)
        assert cat[n] == sum(math.prod(cat[p - 1] for p in c) for c in comps)


def test_composition_sums_past_the_enumeration_range():
    # Listing the 2^(n-1) compositions of n would never finish at these sizes.
    start = time.perf_counter()
    dom = counts_via_dominance(200)
    cat = catalan_via_compositions(2000)
    assert time.perf_counter() - start < 15
    assert dom == list(recurrence_tables(200).a) == eigensequence(201)
    assert cat == recurrences.catalan_numbers(2000)


def test_catalan_matches_avoider_counts():
    got = catalan_via_compositions(7)
    for n in range(1, 8):
        brute = sum(
            is_avoider(p, (3, 2, 1))
            for p in itertools.permutations(range(1, n + 1))
        )
        assert got[n] == brute


def test_bell_numbers():
    assert bell_numbers(8) == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    with pytest.raises(InvalidInputError):
        bell_numbers(-1)
