from __future__ import annotations

import enum
import itertools
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenperm import (
    GENERATORS,
    InvalidInputError,
    MarkedPermutation,
    PowerSeries,
    ResourceLimitError,
    SetPartition,
    StarredPermutation,
    UnderlinedPattern,
    all_underlined4,
    apply_pattern_symmetry,
    apply_symmetry,
    as_perm,
    census,
    classification_report,
    collapse_stars,
    complement,
    compose,
    contains,
    dominance_count,
    eigen_compose,
    eigen_decompose,
    eigensequence,
    expand_stars,
    fast_35241ok,
    format_marked,
    format_pattern,
    format_perm,
    format_perm_list,
    format_starred,
    from_partition_decreasing,
    from_partition_increasing,
    invert,
    is_avoider,
    is_standard,
    list_to_marked,
    lit_entries,
    lrmax_factorize,
    marked_to_list,
    occurrences,
    parse_marked,
    parse_pattern,
    parse_perm,
    parse_perm_list,
    parse_starred,
    pattern_orbit,
    reduce_word,
    reverse,
    satisfies,
    sort_factor_tails,
    star_decode,
    verify_shift,
    window_forward,
    window_plan,
)
from eigenperm import _lanes
from eigenperm.perms import _checked_standard, _lrmax_factors, _tight_bounds

words = st.lists(st.integers(1, 50), max_size=9, unique=True).map(tuple)
small_perms = st.integers(0, 7).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


def naive_satisfies(p, up):
    """Reference implementation straight from the definition."""
    m = len(up.full)
    slot = up.mark - 1
    for positions in itertools.combinations(range(len(p)), m - 1):
        if reduce_word(p[i] for i in positions) != up.base:
            continue
        extended = False
        for x in range(len(p)):
            if x in positions:
                continue
            merged = sorted(positions + (x,))
            if merged.index(x) != slot:
                continue
            if reduce_word(p[i] for i in merged) == up.full:
                extended = True
                break
        if not extended:
            return False
    return True


class _Letter(enum.IntEnum):
    A = 1
    B = 2


def test_as_perm_validation():
    assert as_perm(()) == ()
    # int subclasses other than bool pass, and come back as they went in.
    p = (_Letter.B, 3, _Letter.A)
    assert as_perm(p) is p
    for word, message in (
        ((True, 2), "entries must be positive integers, got (True, 2)"),
        ((1.0, 2), "entries must be positive integers, got (1.0, 2)"),
        ((0, 1), "entries must be positive integers, got (0, 1)"),
        ((-1,), "entries must be positive integers, got (-1,)"),
        (("1",), "entries must be positive integers, got ('1',)"),
        ((1, 1, 2), "entries must be distinct, got (1, 1, 2)"),
    ):
        with pytest.raises(InvalidInputError) as info:
            as_perm(word)
        assert str(info.value) == message
    # Other iterables are converted to tuples.
    assert as_perm([3, 1, 2]) == (3, 1, 2)
    assert as_perm(v for v in (2, 1)) == (2, 1)


# Each argument documented as an iterable, given something that is not one.
NOT_ITERABLE = {
    "as_perm(5)": lambda: as_perm(5),
    "lit_entries(None)": lambda: lit_entries(None),
    "satisfies(5, up)": lambda: satisfies(5, parse_pattern("3(5)241")),
    "occurrences(None, (1,))": lambda: occurrences(None, (1,)),
    "occurrences((1,), 5)": lambda: occurrences((1,), 5),
    "StarredPermutation((1,), 5)": lambda: StarredPermutation((1,), 5),
    "MarkedPermutation((1, 2), 5)": lambda: MarkedPermutation((1, 2), 5),
    "eigen_compose((), 5)": lambda: eigen_compose((), 5),
    "list_to_marked(None)": lambda: list_to_marked(None),
    "expand_stars(marked, 5)": lambda: expand_stars(MarkedPermutation((1,)), 5),
    "window_plan((1, 2), 5)": lambda: window_plan((1, 2), 5),
    "sort_factor_tails((1, 2), 5)": lambda: sort_factor_tails((1, 2), 5),
    "UnderlinedPattern(5, 1)": lambda: UnderlinedPattern(5, 1),
    "dominance_count(5)": lambda: dominance_count(5),
    "verify_shift(5, 1)": lambda: verify_shift(5, 1),
    "PowerSeries(5)": lambda: PowerSeries(5),
}


@pytest.mark.parametrize("call", list(NOT_ITERABLE.values()), ids=list(NOT_ITERABLE))
def test_a_non_iterable_argument_is_invalid_input(call):
    with pytest.raises(InvalidInputError, match="must be iterable, got (5|None)$"):
        call()


# Each argument documented as a pattern, a marked or starred permutation, a
# set partition, a power series or text, given an object of another kind;
# the iterables among them given a non-iterable.
WRONG_KIND = {
    "satisfies((1,), 5)": lambda: satisfies((1,), 5),
    "census(5, 3)": lambda: census(5, 3),
    "format_pattern(5)": lambda: format_pattern(5),
    "pattern_orbit(5)": lambda: pattern_orbit(5),
    "apply_pattern_symmetry(5, 'reverse')": lambda: apply_pattern_symmetry(5, "reverse"),
    "marked_to_list(5)": lambda: marked_to_list(5),
    "window_forward(5)": lambda: window_forward(5),
    "collapse_stars(None)": lambda: collapse_stars(None),
    "star_decode((), 5)": lambda: star_decode((), 5),
    "expand_stars(5, (1,))": lambda: expand_stars(5, (1,)),
    "format_marked(5)": lambda: format_marked(5),
    "format_starred(None)": lambda: format_starred(None),
    "from_partition_increasing(5)": lambda: from_partition_increasing(5),
    "from_partition_decreasing(None)": lambda: from_partition_decreasing(None),
    "compose(5, series)": lambda: compose(5, PowerSeries((1,))),
    "compose(series, None)": lambda: compose(PowerSeries((1,)), None),
    "parse_perm(5)": lambda: parse_perm(5),
    "parse_pattern(None)": lambda: parse_pattern(None),
    "parse_marked(5)": lambda: parse_marked(5),
    "parse_starred(5)": lambda: parse_starred(5),
    "parse_perm_list(None)": lambda: parse_perm_list(None),
    "is_standard(5)": lambda: is_standard(5),
    "format_perm(5)": lambda: format_perm(5),
    "format_perm_list(None)": lambda: format_perm_list(None),
    "classification_report(5)": lambda: classification_report(5),
    "classification_report([5])": lambda: classification_report([5]),
    "SetPartition(5)": lambda: SetPartition(5),
    "SetPartition((5,))": lambda: SetPartition((5,)),
}


@pytest.mark.parametrize("call", list(WRONG_KIND.values()), ids=list(WRONG_KIND))
def test_an_argument_of_the_wrong_kind_is_invalid_input(call):
    with pytest.raises(InvalidInputError, match="must be (of type \\w+|iterable), got (5|None)$"):
        call()


def test_is_standard():
    assert is_standard(())
    assert is_standard((2, 1, 3))
    assert not is_standard((2, 1, 4))
    # Entries that are not ints make it False, never an error from sorting.
    assert not is_standard(("a", 1))
    assert not is_standard((True,))
    assert not is_standard((1.0, 2.0))


def test_checked_standard_agrees_with_as_perm_and_is_standard():
    def reference(word):
        q = as_perm(word)
        if not is_standard(q):
            raise InvalidInputError(f"a standard permutation is required, got {q!r}")
        return q

    def outcome(check, word):
        try:
            return check(word)
        except InvalidInputError as exc:
            return str(exc)

    words = [w for n in range(6) for w in itertools.product(range(1, 6), repeat=n)]
    words += [(True,), (1, True), (0,), (2, 0, 1), (1, 1), (2, 1, 2)]
    for word in words:
        assert outcome(_checked_standard, word) == outcome(reference, word), word


def test_reduce_word_examples():
    assert reduce_word((7, 2, 9)) == (2, 1, 3)
    assert reduce_word(()) == ()
    assert reduce_word((5,)) == (1,)


@given(words)
def test_reduce_word_is_standard_and_order_preserving(w):
    r = reduce_word(w)
    assert is_standard(r)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            assert (w[i] < w[j]) == (r[i] < r[j])
    assert reduce_word(r) == r


def test_lit_entries_examples():
    assert lit_entries(()) == ()
    assert lit_entries((1, 2, 3)) == (1, 2, 3)
    assert lit_entries((3, 2, 1)) == (3,)
    assert lit_entries((2, 1, 3)) == (2, 3)
    assert lit_entries((1, 3, 2)) == (3,)
    assert lit_entries((2, 8, 3, 1, 9, 4, 6, 5, 10, 7)) == (8, 9, 10)


def test_lit_entries_are_terminal_lrmax_heads():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            f = lrmax_factorize(p)
            lit = lit_entries(p)
            assert f.lit == lit
            assert f.heads[len(f.heads) - len(lit):] == lit
            assert lit[-1] == n
            # the LIT values are consecutive up to n and placed in order
            assert lit == tuple(range(lit[0], n + 1))
            positions = [p.index(v) for v in lit]
            assert positions == sorted(positions)


def test_lit_entries_match_their_definition():
    # The run s_j < ... < s_m of the top values that occurs left to right,
    # with j as small as possible, checked straight from the definition on
    # every permutation of length <= 8 and on words that are not standard.
    rng = random.Random(14)
    words = [p for n in range(9) for p in itertools.permutations(range(1, n + 1))]
    words += [tuple(rng.sample(range(1, 101), rng.randint(0, 30))) for _ in range(5000)]

    def in_order(p, values):
        positions = [p.index(v) for v in values]
        return positions == sorted(positions)

    for p in words:
        lit = lit_entries(p)
        support = sorted(p)
        j = len(support) - len(lit)
        assert lit == tuple(support[j:]), p
        assert in_order(p, lit), p
        assert j == 0 or not in_order(p, support[j - 1:]), p
        f = lrmax_factorize(p)
        assert tuple(itertools.chain.from_iterable((h, *t) for h, t in f.factors)) == p
        for h, tail in f.factors:
            assert all(v < h for v in p[:p.index(h)]), p  # an LR maximum
            assert all(v < h for v in tail), p
        assert f.lit == lit, p


def test_lrmax_factorize_example():
    f = lrmax_factorize((3, 1, 5, 2, 4, 6))
    assert f.heads == (3, 5, 6)
    assert [t for _, t in f.factors] == [(1,), (2, 4), ()]
    assert f.lit == (5, 6)


def test_symmetries_small():
    assert complement((1, 3, 2)) == (3, 1, 2)
    assert reverse((1, 3, 2)) == (2, 3, 1)
    assert invert((3, 1, 2)) == (2, 3, 1)
    with pytest.raises(InvalidInputError):
        complement((1, 3))


@given(small_perms)
def test_symmetries_compose_correctly(p):
    assert complement(complement(p)) == p
    assert reverse(reverse(p)) == p
    assert invert(invert(p)) == p
    assert apply_symmetry(p, "reverse complement") == complement(reverse(p))
    assert apply_symmetry(p, ()) == p
    # reverse-complement commutes with inverse
    rc_then_inv = invert(apply_symmetry(p, "reverse complement"))
    inv_then_rc = apply_symmetry(invert(p), "reverse complement")
    assert rc_then_inv == inv_then_rc


def test_apply_symmetry_matches_composed_generators():
    one = {"complement": complement, "reverse": reverse, "inverse": invert}
    short_words = [()] + [(g,) for g in GENERATORS] + list(itertools.product(GENERATORS, repeat=2))
    for n in range(6):
        for p in itertools.permutations(range(1, n + 1)):
            for word in short_words:
                expected = p
                for g in word:
                    expected = one[g](expected)
                assert apply_symmetry(p, word) == expected, (p, word)


def test_apply_symmetry_rejects_unknown_generator():
    with pytest.raises(InvalidInputError):
        apply_symmetry((1,), "transpose")


def test_symmetry_words_that_are_not_iterable_are_invalid_input():
    with pytest.raises(InvalidInputError, match="unknown symmetry generator 5"):
        apply_symmetry((1, 2), 5)
    with pytest.raises(InvalidInputError, match="unknown symmetry generator 5"):
        apply_pattern_symmetry(parse_pattern("(1)2"), 5)


def test_pattern_parse_format_round_trip():
    up = parse_pattern("3(5)241")
    assert up.full == (3, 5, 2, 4, 1)
    assert up.mark == 2
    assert up.base == (3, 2, 4, 1)
    assert format_pattern(up) == "3(5)241"
    assert str(up) == "3(5)241"
    assert parse_pattern(format_pattern(up)) == up


@pytest.mark.parametrize(
    "text", ["", "123", "(1)(2)3", "1(1)3", "13(4)", "1x(2)", "(12)3", "3(²)241", "2²(1)"]
)
def test_pattern_parse_rejects(text):
    with pytest.raises(InvalidInputError):
        parse_pattern(text)


def test_pattern_requires_valid_mark():
    with pytest.raises(InvalidInputError):
        UnderlinedPattern((2, 1), 3)
    with pytest.raises(InvalidInputError):
        UnderlinedPattern((2, 1), 0)
    with pytest.raises(InvalidInputError):
        UnderlinedPattern((2, 2, 1), 1)
    with pytest.raises(InvalidInputError):
        UnderlinedPattern((), 1)


def test_pattern_symmetry_on_marked_pattern():
    up = parse_pattern("3(5)241")
    assert format_pattern(apply_pattern_symmetry(up, "complement")) == "3(1)425"
    assert format_pattern(apply_pattern_symmetry(up, "reverse")) == "142(5)3"
    assert apply_pattern_symmetry(apply_pattern_symmetry(up, "inverse"), "inverse") == up


def test_pattern_symmetry_moves_every_marked_4_pattern():
    for up in all_underlined4():
        full, mark = up.full, up.mark
        inverse = tuple(full.index(v) + 1 for v in range(1, 5))
        expected = {
            "complement": UnderlinedPattern(tuple(5 - v for v in full), mark),
            "reverse": UnderlinedPattern(full[::-1], 5 - mark),
            "inverse": UnderlinedPattern(inverse, full[mark - 1]),
        }
        for g in GENERATORS:
            assert apply_pattern_symmetry(up, g) == expected[g], (up, g)


def test_pattern_symmetry_preserves_census(pattern_census_table):
    for up, counts in pattern_census_table.items():
        for g in GENERATORS:
            assert pattern_census_table[apply_pattern_symmetry(up, g)] == counts


def test_occurrences_against_brute_force():
    patterns = [(1,), (2, 1), (1, 2, 3), (2, 3, 1), (3, 2, 4, 1), (3, 5, 2, 4, 1)]
    for n in range(7):
        for p in itertools.permutations(range(1, n + 1)):
            for pat in patterns:
                expected = [
                    tuple(i + 1 for i in positions)
                    for positions in itertools.combinations(range(n), len(pat))
                    if reduce_word(p[i] for i in positions) == pat
                ]
                assert occurrences(p, pat) == expected


def quadratic_tight_bounds(pattern):
    """_tight_bounds by a quadratic scan of the earlier letters, with m for the floor and m+1 for the ceiling."""
    m = len(pattern)
    bounds = []
    for t, v in enumerate(pattern):
        lo_ref, hi_ref = m, m + 1
        lo_val, hi_val = 0, m + 1
        for s in range(t):
            if lo_val < pattern[s] < v:
                lo_val, lo_ref = pattern[s], s
            elif v < pattern[s] < hi_val:
                hi_val, hi_ref = pattern[s], s
        bounds.append((lo_ref, hi_ref))
    return tuple(bounds)


def test_tight_bounds_match_the_quadratic_scan():
    for m in range(8):
        for pattern in itertools.permutations(range(1, m + 1)):
            assert _tight_bounds(pattern) == quadratic_tight_bounds(pattern), pattern
    rng = random.Random(300)
    for _ in range(200):
        m = rng.randint(20, 300)
        pattern = tuple(rng.sample(range(1, m + 1), m))
        assert _tight_bounds(pattern) == quadratic_tight_bounds(pattern), pattern


LONG = tuple(range(1, 100001))


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: contains((2, 1), LONG), False),
        (lambda: occurrences((2, 1), LONG), []),
        (lambda: satisfies((1, 2), UnderlinedPattern(LONG, 1)), True),
    ],
    ids=["contains", "occurrences", "satisfies"],
)
def test_a_pattern_of_100000_letters_is_read_in_linear_time(call, expected):
    # A quadratic bounds scan would take about 5 * 10**9 steps here.
    start = time.perf_counter()
    assert call() == expected
    assert time.perf_counter() - start < 2


def test_contains_and_avoider_counts():
    for n in range(1, 8):
        avoiders = sum(
            is_avoider(p, (3, 2, 1))
            for p in itertools.permutations(range(1, n + 1))
        )
        assert avoiders == math.comb(2 * n, n) // (n + 1)
    assert contains((2, 4, 1, 3), (2, 4, 1, 3))
    assert not contains((2, 4, 1, 3), (3, 2, 1))


def test_satisfies_empty_and_validation():
    up = parse_pattern("3(5)241")
    assert satisfies((), up)
    assert satisfies((1,), up)
    with pytest.raises(InvalidInputError):
        satisfies((1, 3), up)


def test_satisfies_matches_naive_definition_exhaustively():
    pats = [parse_pattern(s) for s in ("3(5)241", "(1)324", "32(4)1", "2(4)13")]
    for n in range(6):
        for p in itertools.permutations(range(1, n + 1)):
            for up in pats:
                assert satisfies(p, up) == naive_satisfies(p, up)


@given(st.permutations(range(1, 8)).map(tuple), st.sampled_from(range(96)))
def test_satisfies_matches_naive_definition_sampled(p, idx):
    up = all_underlined4()[idx]
    assert satisfies(p, up) == naive_satisfies(p, up)


def test_census_values_and_limit():
    up = parse_pattern("3(5)241")
    assert [census(up, n) for n in range(7)] == [1, 1, 2, 6, 23, 104, 531]
    assert census(parse_pattern("32(4)1"), 5) == 52
    with pytest.raises(ResourceLimitError):
        census(up, 11)
    with pytest.raises(InvalidInputError):
        census(up, -1)


def test_census_matches_satisfies_on_every_marked_4_pattern(pattern_census_table):
    # The fixture counts satisfies one permutation at a time, n <= 6.
    for up, counts in pattern_census_table.items():
        assert tuple(census(up, n) for n in range(7)) == counts, up


@pytest.mark.parametrize(
    "text",
    # The mark first, inside and last; bases longer than n; 8 > 7 letters;
    # (1)324, whose last two base letters satisfies decides with one query.
    ["(1)", "(1)2", "2(1)", "1(3)2", "(1)324", "3(5)241", "31(5)42", "21(6)534", "41(5)7263"],
)
def test_census_matches_satisfies_to_length_8(text):
    up = parse_pattern(text)
    for n in range(9):
        expected = sum(satisfies(p, up) for p in itertools.permutations(range(1, n + 1)))
        assert census(up, n) == expected, n


def test_census_batch_matches_one_plan_calls():
    # All 96 4-patterns (six bases, 16 boxes each) and bases of length 0,
    # 2, 4 and 5, in one batch; n = 8 has blocks with a fixed prefix.
    ups = all_underlined4() + [parse_pattern(t) for t in ("(1)", "1(3)2", "3(5)241", "21(6)534")]
    plans = [up._plan for up in ups]
    boxes_by_base = {}
    for plan in plans:
        boxes_by_base.setdefault(plan[0], set()).add(plan[1:5])
    assert sorted(len(b) for b in boxes_by_base.values()) == [1, 1, 1, 1] + [16] * 6
    for n in range(9):
        assert _lanes.census(n, plans) == [census(up, n) for up in ups], n


def test_single_letter_pattern_means_nonempty():
    lone = parse_pattern("(1)")
    assert not satisfies((), lone)
    assert satisfies((2, 1), lone)
    assert census(lone, 0) == 0
    assert census(lone, 3) == 6


def test_fast_35241ok_matches_satisfies():
    up = parse_pattern("3(5)241")
    for n in range(9):
        for p in itertools.permutations(range(1, n + 1)):
            assert fast_35241ok(p) == satisfies(p, up), p


def nested_tail_ok(p):
    """The recogniser's rule applied literally: re-scan every nested tail."""
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


def test_fast_35241ok_matches_the_nested_tail_rule_at_length_9():
    members = 0
    for p in itertools.permutations(range(1, 10)):
        ok = fast_35241ok(p)
        assert ok == nested_tail_ok(p), p
        members += ok
    assert members == eigensequence(10)[9]


def nested_chain(n):
    # Every level is two heads, 2 < top, with tails (1) and the next level.
    word, lo, hi = [], 0, n
    while hi - lo >= 3:
        word += [lo + 2, lo + 1, hi]
        lo, hi = lo + 2, hi - 1
    word += range(hi, lo, -1)
    return tuple(word)


DEEP_FAMILIES = {
    "decreasing": lambda n: tuple(range(n, 0, -1)),
    "swapped_pairs": lambda n: tuple(v - (-1) ** v for v in range(1, n + 1)),  # 2 1 4 3 ...
    "nested_chain": nested_chain,
    "identity": lambda n: tuple(range(1, n + 1)),  # marked below at every LIT entry
}


@pytest.mark.parametrize("family", sorted(DEEP_FAMILIES))
def test_deep_families_at_length_2000(family):
    n = 2000
    p = DEEP_FAMILIES[family](n)
    assert sorted(p) == list(range(1, n + 1))
    assert fast_35241ok(p) and nested_tail_ok(p)
    # Transpositions, which mostly leave the class, against the rule.
    rng = random.Random(family)
    q = list(p)
    for _ in range(5):
        i, j = rng.sample(range(n), 2)
        q[i], q[j] = q[j], q[i]
        assert fast_35241ok(q) == nested_tail_ok(q)
        q[i], q[j] = q[j], q[i]
    assert eigen_compose(*eigen_decompose(p)) == p
    marked = MarkedPermutation(p, frozenset(lit_entries(p)) - {n})
    assert list_to_marked(marked_to_list(marked)) == marked


def test_fast_35241ok_spot_checks():
    assert fast_35241ok((3, 5, 2, 4, 1))
    assert not fast_35241ok((3, 4, 2, 5, 1))
    assert not fast_35241ok((3, 2, 4, 1))
    assert fast_35241ok((2, 8, 3, 1, 9, 4, 6, 5, 10, 7))


def test_diagnostics_quote_short_values_whole_and_cut_long_ones():
    with pytest.raises(InvalidInputError, match=r"^entries must be distinct, got \(1, 1\)$"):
        as_perm((1, 1))
    with pytest.raises(InvalidInputError) as info:
        as_perm([1] * 1000)
    quoted = str(info.value).removeprefix("entries must be distinct, got ")
    assert len(quoted) == 60 and quoted.endswith("...")
    assert quoted[:57] == repr(tuple([1] * 1000))[:57]
