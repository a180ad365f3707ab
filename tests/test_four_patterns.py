from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import time

import pytest

from eigenperm import (
    GENERATORS,
    ClassificationError,
    InvalidInputError,
    ResourceLimitError,
    SetPartition,
    a051295_terms,
    all_underlined4,
    apply_pattern_symmetry,
    apply_symmetry,
    bell_numbers,
    classification_report,
    classify,
    count_1342ok_by_position,
    format_pattern,
    from_partition_decreasing,
    from_partition_increasing,
    is_avoider,
    new4_terms,
    parse_pattern,
    patience_ok,
    pattern_orbit,
    perms,
    satisfies,
    to_partition_decreasing,
    to_partition_increasing,
    wilf_map,
)
from eigenperm import _lanes
from eigenperm.recurrences import catalan_numbers


def all_partitions(n):
    if n == 0:
        yield ()
        return
    for rest in all_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + (rest[i] | {n},) + rest[i + 1:]
        yield rest + (frozenset({n}),)


def test_all_underlined4():
    pats = all_underlined4()
    assert len(pats) == 96
    assert len(set(pats)) == 96
    assert format_pattern(pats[0]) == "(1)234"
    assert format_pattern(pats[-1]) == "432(1)"
    assert all(len(up.full) == 4 for up in pats)


def test_pattern_orbit_closure_and_example():
    orbit = pattern_orbit(parse_pattern("(1)234"))
    assert {format_pattern(up) for up in orbit} == {
        "(1)234", "123(4)", "(4)321", "432(1)",
    }
    for up in orbit:
        for g in GENERATORS:
            assert apply_pattern_symmetry(up, g) in orbit


def test_orbits_partition_the_96(pattern_census_table):
    pats = all_underlined4()
    seen = set()
    orbits = []
    for up in pats:
        if up in seen:
            continue
        orbit = pattern_orbit(up)
        orbits.append(orbit)
        seen |= orbit
    assert sum(len(o) for o in orbits) == 96
    assert len(orbits) == 16
    assert sorted(len(o) for o in orbits) == [4] * 8 + [8] * 8
    for orbit in orbits:
        counts = {pattern_census_table[up] for up in orbit}
        assert len(counts) == 1


def test_classify_structure(pattern_census_table):
    classes = classify(max_n=6)
    assert len(classes) == 16
    assert sum(len(c.members) for c in classes) == 96
    trivial = [c for c in classes if c.trivial]
    assert sum(len(c.members) for c in trivial) == 64
    assert sorted(len(c.members) for c in trivial) == [4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8]
    labels = sorted((c.label, len(c.members)) for c in classes if not c.trivial)
    assert labels == [
        ("a051295", 4), ("a051295", 8), ("bell", 8), ("bell", 8), ("new4", 4),
    ]
    for c in classes:
        assert c.representative in c.members
        assert (c.label == "catalan") == c.trivial
        # One count tuple per orbit: it must be every member's.
        for up in c.members:
            assert pattern_census_table[up] == c.counts, up
    report = classification_report(classes)
    assert "catalan" in report and "new4" in report and "bell" in report


def test_classify_to_length_9_matches_the_references():
    # The census of all 96 patterns at n = 9 against the closed forms: an
    # orbit that disagreed or matched no reference would raise.
    classes = classify(max_n=9)
    assert sum(len(c.members) for c in classes if c.trivial) == 64
    nontrivial = [c for c in classes if not c.trivial]
    assert sorted(len(c.members) for c in nontrivial) == [4, 4, 8, 8, 8]
    assert sorted(c.label for c in nontrivial) == ["a051295", "a051295", "bell", "bell", "new4"]


def test_classify_respects_census_limit(monkeypatch):
    # The depth is refused before any counting, through census or the lane
    # kernel that census and classify call.
    def refuse(*args):
        raise AssertionError("classify counted past the limit")

    monkeypatch.setattr(perms, "census", refuse)
    monkeypatch.setattr(_lanes, "census", refuse)
    with pytest.raises(ResourceLimitError):
        classify(max_n=11)


def test_classify_raises_when_one_member_disagrees(monkeypatch):
    # A kernel that miscounts one pattern at one n must break its orbit.
    orbit = sorted(pattern_orbit(parse_pattern("32(4)1")), key=lambda u: (u.full, u.mark))
    rep, target = orbit[0], orbit[-1]
    count = _lanes.census

    def shifted(n, plans):
        counts = count(n, plans)
        if n == 6:
            counts[plans.index(target._plan)] += 1
        return counts

    monkeypatch.setattr(_lanes, "census", shifted)
    with pytest.raises(ClassificationError, match=re.escape(f"orbit of {rep} disagrees at {target}")):
        classify(max_n=6)


def test_three_letter_bases_are_catalan():
    # Simion-Schmidt: each 3-pattern has C_n avoiders, which is why a
    # Catalan orbit is the trivial one.
    cat = catalan_numbers(8)
    for base in itertools.permutations((1, 2, 3)):
        counts = [
            sum(1 for p in itertools.permutations(range(1, n + 1)) if is_avoider(p, base))
            for n in range(9)
        ]
        assert counts == cat, base


def test_reference_sequences_match_censuses(pattern_census_table):
    bell = tuple(bell_numbers(6))
    cat = tuple(math.comb(2 * n, n) // (n + 1) for n in range(7))
    assert pattern_census_table[parse_pattern("32(4)1")] == bell
    assert pattern_census_table[parse_pattern("3(1)42")] == bell
    assert pattern_census_table[parse_pattern("(1)324")] == tuple(a051295_terms(6))
    assert pattern_census_table[parse_pattern("(1)342")] == tuple(a051295_terms(6))
    assert pattern_census_table[parse_pattern("321(4)")] == tuple(new4_terms(6))
    assert pattern_census_table[parse_pattern("(1)234")] == cat


def test_set_partition_validation():
    with pytest.raises(InvalidInputError):
        SetPartition((frozenset(),))
    with pytest.raises(InvalidInputError):
        SetPartition((frozenset({1, 3}),))
    sp = SetPartition((frozenset({3, 5}), frozenset({1, 2, 4})))
    assert sp.n == 5
    assert [max(b) for b in sp.blocks] == [4, 5]


@pytest.mark.parametrize(
    "blocks",
    [[{1}, {"a"}], [{1.0}], [{True}], [[1, 1], [2]]],
    ids=["mixed types", "float", "bool", "repeated entry"],
)
def test_set_partition_rejects_entries_that_are_not_a_partition_of_ints(blocks):
    # Mixed types once leaked sorted's TypeError; 1.0 and True passed as 1,
    # and a repeated entry was dropped by the block's frozenset.
    with pytest.raises(InvalidInputError, match=r"^blocks must partition 1\.\.n$"):
        SetPartition(blocks)


def test_partition_worked_examples():
    p = (4, 1, 2, 6, 7, 3, 5)
    sp = to_partition_increasing(p)
    assert sp.blocks == (
        frozenset({1, 2, 4}), frozenset({6}), frozenset({3, 5, 7}),
    )
    assert from_partition_increasing(sp) == p
    assert from_partition_decreasing(sp) == (4, 2, 1, 6, 7, 5, 3)
    assert to_partition_decreasing((4, 2, 1, 6, 7, 5, 3)) == sp


def test_partition_bijections_exhaustive():
    inc = parse_pattern("32(4)1")
    dec = parse_pattern("31(4)2")
    bell = bell_numbers(6)
    for n in range(1, 7):
        partitions = [SetPartition(b) for b in all_partitions(n)]
        assert len(partitions) == bell[n]
        inc_members = {
            p
            for p in itertools.permutations(range(1, n + 1))
            if satisfies(p, inc)
        }
        dec_members = {
            p
            for p in itertools.permutations(range(1, n + 1))
            if satisfies(p, dec)
        }
        assert len(inc_members) == len(dec_members) == bell[n]
        assert {from_partition_increasing(sp) for sp in partitions} == inc_members
        assert {from_partition_decreasing(sp) for sp in partitions} == dec_members
        for p in inc_members:
            assert from_partition_increasing(to_partition_increasing(p)) == p
        for p in dec_members:
            assert from_partition_decreasing(to_partition_decreasing(p)) == p


def test_partition_readers_reject_wrong_monotonicity():
    with pytest.raises(InvalidInputError):
        to_partition_increasing((3, 2, 1))
    with pytest.raises(InvalidInputError):
        to_partition_decreasing((3, 1, 2, 4))


def test_a051295_terms():
    assert a051295_terms(8) == [1, 1, 2, 5, 15, 54, 235, 1237, 7790]
    terms = a051295_terms(300)
    for n in range(1, 301):
        assert terms[n] == sum(
            terms[k - 1] * math.factorial(n - k) for k in range(1, n + 1)
        )
    with pytest.raises(InvalidInputError):
        a051295_terms(-1)


def test_count_by_position_of_smallest():
    assert count_1342ok_by_position(3, 2) == 2
    pat = parse_pattern("(1)342")
    for n in range(1, 7):
        by_pos = [0] * n
        for p in itertools.permutations(range(1, n + 1)):
            prefix = p[: p.index(1)]
            if all(a > b for a, b in zip(prefix, prefix[1:])) and satisfies(p, pat):
                by_pos[p.index(1)] += 1
        for k in range(1, n + 1):
            assert count_1342ok_by_position(n, k) == by_pos[k - 1]
        assert sum(by_pos) == a051295_terms(n)[n]
    with pytest.raises(InvalidInputError):
        count_1342ok_by_position(3, 4)


def test_count_by_position_matches_power_expansion_at_30():
    # u_{30,k} is the coefficient of x^(30-k) in (sum m! x^m)^k.
    n = 30
    facts = [math.factorial(m) for m in range(n)]
    power = [1] + [0] * (n - 1)
    for k in range(1, n + 1):
        power = [sum(power[i] * facts[d - i] for i in range(d + 1)) for d in range(n)]
        assert count_1342ok_by_position(n, k) == power[n - k]


def test_new4_terms():
    assert new4_terms(10) == [
        1, 1, 2, 5, 15, 55, 248, 1357, 8809, 66323, 568238,
    ]
    # The docstring's formula: (n-1)! plus falling(k, i) * rising(n-2-k, j)
    # over k = 0..n-2 and i + j <= k.
    terms = new4_terms(60)
    for n in range(1, 61):
        assert terms[n] == math.factorial(n - 1) + sum(
            math.prod(range(k - i + 1, k + 1)) * math.prod(range(n - 2 - k, n - 2 - k + j))
            for k in range(n - 1)
            for i in range(k + 1)
            for j in range(k - i + 1)
        )
    with pytest.raises(InvalidInputError):
        new4_terms(-2)


def test_wilf_map_examples_and_bijectivity():
    assert wilf_map((3, 1, 2)) == (3, 1, 2)
    assert wilf_map((3, 4, 1, 2)) == (3, 1, 2, 4)
    src_pat = parse_pattern("(1)324")
    dst_pat = parse_pattern("(1)342")
    for n in range(1, 7):
        src = [
            p
            for p in itertools.permutations(range(1, n + 1))
            if satisfies(p, src_pat)
        ]
        images = {wilf_map(p) for p in src}
        assert len(images) == len(src)
        assert images == {
            p
            for p in itertools.permutations(range(1, n + 1))
            if satisfies(p, dst_pat)
        }


def test_every_small_wilf_map_image_is_pinned():
    # Bijectivity holds for any bijection onto the class; this pins the
    # images themselves: every (1)324-OK permutation of length 1..8 (9,339).
    pat = parse_pattern("(1)324")
    digest = hashlib.sha256()
    for n in range(1, 9):
        for p in itertools.permutations(range(1, n + 1)):
            if satisfies(p, pat):
                digest.update(repr((p, wilf_map(p))).encode())
    assert digest.hexdigest() == (
        "23d603851ccc41b379e68f6fdccf2f5c77b1b03cc40a26560f2bef7320fb89d0"
    )


def test_wilf_map_requires_source_class():
    with pytest.raises(InvalidInputError):
        wilf_map((2, 3, 1, 4))


def test_patience_ok():
    assert patience_ok((1, 3, 2))
    assert not patience_ok((2, 3, 1))
    pat = parse_pattern("3(1)42")
    for n in range(7):
        for p in itertools.permutations(range(1, n + 1)):
            assert patience_ok(p) == satisfies(p, pat)


def test_patience_ok_on_long_members():
    # 3(1)42 shares an orbit with 31(4)2, so the symmetry word between the
    # two carries the decreasing partition map's members into the class;
    # one transposition of each member mostly leaves it.
    source, target = parse_pattern("31(4)2"), parse_pattern("3(1)42")
    word = next(
        w for r in range(4) for w in itertools.product(GENERATORS, repeat=r)
        if apply_pattern_symmetry(source, w) == target
    )
    rng = random.Random(3142)
    outcomes = set()
    for n in range(10, 121, 2):
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        blocks = [[v for v in range(1, n + 1) if labels[v - 1] == b] for b in set(labels)]
        member = apply_symmetry(from_partition_decreasing(SetPartition(blocks)), word)
        assert patience_ok(member)
        i, j = rng.sample(range(n), 2)
        swapped = list(member)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for p in (member, tuple(swapped)):
            outcomes.add(patience_ok(p))
            assert patience_ok(p) == satisfies(p, target)
    assert outcomes == {True, False}


def test_patience_ok_is_fast_on_long_inputs():
    # A decreasing block, then 1, then pairs (top + t, 2 + t): each pair
    # has many entries between its values, each cut off by an earlier low.
    b = d = 400
    top = b + d + 2
    slow = (*range(top - 1, d + 1, -1), 1, *(v for t in range(d) for v in (top + t, 2 + t)))
    for p in (slow, tuple(range(20000, 0, -1))):
        start = time.perf_counter()
        assert patience_ok(p)
        assert time.perf_counter() - start < 1.0
