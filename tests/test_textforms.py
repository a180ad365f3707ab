from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenperm import (
    InvalidInputError,
    MarkedPermutation,
    StarredPermutation,
    format_marked,
    format_perm,
    format_perm_list,
    format_starred,
    lit_entries,
    parse_marked,
    parse_perm,
    parse_perm_list,
    parse_starred,
)
from eigenperm.perms import as_perm
from eigenperm.textforms import _int_token

perms_text = st.integers(0, 8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


def test_parse_perm_basics():
    assert parse_perm("3 1 2") == (3, 1, 2)
    assert parse_perm("") == ()
    assert parse_perm("  2   1 ") == (2, 1)
    with pytest.raises(InvalidInputError):
        parse_perm("1 a 2")


@pytest.mark.parametrize("parse", [parse_perm, parse_marked, parse_starred, parse_perm_list])
@pytest.mark.parametrize("entry", ["²", "٣", "9" * 5000, "+1", "1_0"])
def test_entries_are_ascii_digits(parse, entry):
    with pytest.raises(InvalidInputError):
        parse(f"1 {entry}")


@given(perms_text)
def test_perm_text_round_trip(p):
    assert parse_perm(format_perm(p)) == p


def test_marked_round_trip():
    mp = MarkedPermutation((5, 1, 2, 8, 3, 6, 4, 9, 7, 10), frozenset({8, 9}))
    text = format_marked(mp)
    assert text == "5 1 2 8^ 3 6 4 9^ 7 10"
    assert parse_marked(text) == mp
    assert parse_marked("1") == MarkedPermutation((1,), frozenset())


def test_marked_rejects_bad_marks():
    with pytest.raises(InvalidInputError):
        parse_marked("3 1 2^")  # 2 is not an LIT entry of 312
    with pytest.raises(InvalidInputError):
        parse_marked("1 2 3^")  # the maximum cannot carry a mark
    with pytest.raises(InvalidInputError):
        parse_marked("1 2^^ 3")


@pytest.mark.parametrize(
    "text, message",
    [
        ("^", "bad entry '^' in '^'"),
        ("3^^", "bad entry '3^^' in '3^^'"),
        ("1 2^^ 3", "bad entry '2^^' in '1 2^^ 3'"),
        ("2 ٣^", "bad entry '٣^' in '2 ٣^'"),
    ],
)
def test_marked_messages_name_the_token_as_written(text, message):
    with pytest.raises(InvalidInputError) as info:
        parse_marked(text)
    assert str(info.value) == message


def test_starred_round_trip_with_groups():
    sp = StarredPermutation(
        (2, 8, 3, 1, 9, 4, 6, 5, 10, 7),
        (0, 0, 0, 0, 2, 0, 0, 0, 1, 0),
        after_max=1,
    )
    text = format_starred(sp)
    assert text == "2 8 3 1 * * 9 4 6 5 * 10 * 7"
    assert parse_starred(text) == sp


def test_starred_empty_base():
    sp = StarredPermutation((), (), after_max=3)
    assert format_starred(sp) == "* * *"
    assert parse_starred("* * *") == sp
    assert parse_starred("") == StarredPermutation((), ())


def test_starred_trailing_and_max_positions():
    sp = parse_starred("1 2 *")
    assert sp.after_max == 1
    assert sp.before == (0, 0)
    sp2 = parse_starred("2 * 3 1")
    assert sp2.before == (0, 1, 0) and sp2.after_max == 0
    assert parse_starred("3 * 1 2") == StarredPermutation((3, 1, 2), (0, 0, 0), after_max=1)
    for text in (
        "2 1 *",  # stars after a non-max final entry
        "3 * 1 * 2",  # a run after the maximum that does not touch it
        "3 1 * 2",
    ):
        with pytest.raises(InvalidInputError):
            parse_starred(text)
    with pytest.raises(InvalidInputError):
        parse_starred("* 1 3 2")  # 1 is not an LIT entry of 132


def test_starred_validation():
    with pytest.raises(InvalidInputError):
        StarredPermutation((1, 3, 2), (1, 0, 0))  # star before a non-LIT entry
    with pytest.raises(InvalidInputError):
        StarredPermutation((1, 2), (0,))  # wrong length
    with pytest.raises(InvalidInputError):
        StarredPermutation((1, 2), (0, 0), after_max=-1)


@given(perms_text, st.data())
def test_starred_text_round_trip(p, data):
    lit = lit_entries(p)
    before = [0] * len(p)
    for v in lit:
        before[p.index(v)] = data.draw(st.integers(0, 2))
    after = data.draw(st.integers(0, 2)) if p else data.draw(st.integers(0, 2))
    sp = StarredPermutation(p, tuple(before), after_max=after)
    assert parse_starred(format_starred(sp)) == sp


def test_perm_list_round_trip():
    items = ((2, 1, 4, 5, 3), (2, 3, 1), (), (1,))
    text = format_perm_list(items)
    assert parse_perm_list(text) == items
    assert parse_perm_list("1") == ((1,),)
    assert parse_perm_list("") == ((),)
    assert parse_perm_list(" / ") == ((), ())
    assert format_perm_list(((), ())) == " / "


def test_perm_list_rejects_garbage():
    with pytest.raises(InvalidInputError):
        parse_perm_list("1 2 / x")


# The fast path of parse_perm against the token-by-token reading it replaced:
# each token through _int_token, then as_perm, each list item stripped.
def _reference_perm(text):
    tokens = text.split()
    return as_perm(_int_token(t, text) for t in tokens) if tokens else ()


def _reference_perm_list(text):
    return tuple(_reference_perm(chunk.strip()) for chunk in text.split("/"))


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the exception's type and message are compared
        return type(exc), str(exc)


# ASCII digits (0 included), blanks of four kinds, separators and signs,
# digits of other scripts, a letter, and one token one digit past the
# interpreter's default int-from-str limit of 4300 digits.  Half the draws
# are 1-9 or a blank, so well-formed permutations and lists come up too.
_PIECES = [*"0123456789", " ", "\t", "\n", "\u3000", *"/+-_²٣a", "7" * 4301]
_texts = st.lists(
    st.one_of(st.sampled_from("123456789 "), st.sampled_from(_PIECES)), max_size=24
).map("".join)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_texts)
def test_parsers_agree_with_the_token_by_token_reading(text):
    assert _outcome(parse_perm, text) == _outcome(_reference_perm, text)
    assert _outcome(parse_perm_list, text) == _outcome(_reference_perm_list, text)


def test_long_text_parses_in_bounded_time():
    # Each took well under 1 s on a 2-vCPU host; the bound allows slow hosts.
    n = 200_000
    text = " ".join(map(str, range(n, 0, -1)))
    start = time.perf_counter()
    assert parse_perm(text) == tuple(range(n, 0, -1))
    with pytest.raises(InvalidInputError, match=r"^bad entry '1x' in "):
        parse_perm(text + " 1x")
    assert parse_perm_list("/" * 99_999) == ((),) * 100_000
    assert time.perf_counter() - start < 10
