from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenperm import (
    GENERATORS,
    InvalidInputError,
    ResourceLimitError,
    UnderlinedPattern,
    apply_pattern_symmetry,
    apply_symmetry,
    as_perm,
    census,
    complement,
    contains,
    eigensequence,
    fast_35241ok,
    format_pattern,
    invert,
    is_avoider,
    is_standard,
    lit_entries,
    lrmax_factorize,
    occurrences,
    parse_pattern,
    reduce_word,
    reverse,
    satisfies,
)
from eigenperm.perms import _checked_standard, _class_counts

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


def test_as_perm_validation():
    assert as_perm([3, 1, 2]) == (3, 1, 2)
    assert as_perm(()) == ()
    with pytest.raises(InvalidInputError):
        as_perm((1, 1, 2))
    with pytest.raises(InvalidInputError):
        as_perm((0, 1))
    with pytest.raises(InvalidInputError):
        as_perm((True, 2))
    with pytest.raises(InvalidInputError):
        as_perm((1.0, 2))


def test_is_standard():
    assert is_standard(())
    assert is_standard((2, 1, 3))
    assert not is_standard((2, 1, 4))


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
    from eigenperm import all_underlined4

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
    from eigenperm import all_underlined4

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


def test_class_tree_matches_census():
    # The generating tree against the definition on all 96 marked
    # 4-patterns, the 24 marked last (grown through their reverse) included.
    from eigenperm import all_underlined4

    patterns = all_underlined4()
    assert sum(up.mark == 4 for up in patterns) == 24
    for up in patterns:
        assert _class_counts(up, 7) == tuple(census(up, n) for n in range(8)), up


def test_class_tree_counts_3_5_241_to_length_9():
    # Term n of the shifted eigensequence counts the class at length n.
    assert _class_counts(parse_pattern("3(5)241"), 9) == tuple(eigensequence(10))


def test_single_letter_pattern_means_nonempty():
    lone = parse_pattern("(1)")
    assert not satisfies((), lone)
    assert satisfies((2, 1), lone)
    assert census(lone, 0) == 0
    assert census(lone, 3) == 6


def test_fast_35241ok_matches_satisfies(ok_perms):
    up = parse_pattern("3(5)241")
    for n in range(7):
        expected = set(ok_perms[n])
        for p in itertools.permutations(range(1, n + 1)):
            assert fast_35241ok(p) == (p in expected)
            assert satisfies(p, up) == (p in expected)


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
