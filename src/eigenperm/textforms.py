"""Plain-text forms for permutations, marked/starred variants, and lists.

Permutations are space-separated entries ("3 5 2 4 1"); marked entries
carry a trailing caret ("26^"); stars are literal "*" tokens interleaved
with the entries; lists of permutations are joined with " / ".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .perms import InvalidInputError, Perm, _as_tuple, _echo, _of_kind, as_perm

__all__ = [
    "format_marked",
    "format_perm",
    "format_perm_list",
    "format_starred",
    "parse_marked",
    "parse_perm",
    "parse_perm_list",
    "parse_starred",
]

if TYPE_CHECKING:  # the marked and starred forms import bijection when they run
    from .bijection import MarkedPermutation, StarredPermutation


def _int_token(token: str, text: str | None = None, name: str = "entry", mark: str = "") -> int:
    # The one integer grammar: ASCII digits, so no other script's digits,
    # underscores or blanks.  An entry of ``text`` has no sign, and may end
    # in ``mark``; a command-line value (no ``text``) may start with one "-".
    # Messages name the token as written, mark included.
    body = token.removesuffix(mark)
    digits = body[1:] if text is None and body[:1] == "-" else body
    if not (digits.isascii() and digits.isdigit()):
        where = "" if text is None else f" in {_echo(text)}"
        raise InvalidInputError(f"bad {name} {_echo(token)}{where}")
    try:
        return int(body)
    except ValueError:  # past the interpreter's int-from-str digit limit
        raise InvalidInputError(f"{name} {_echo(token)} has {len(digits)} digits, too many to read") from None


def parse_perm(text: str) -> Perm:
    """Parse "3 5 2 4 1"; the empty string is the empty permutation.

    >>> parse_perm("1 ٣")
    Traceback (most recent call last):
    ...
    eigenperm.perms.InvalidInputError: bad entry '٣' in '1 ٣'
    """
    tokens = _of_kind(text, str, "the text").split()
    if not tokens:
        return ()
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():
        try:
            entries = tuple(map(int, tokens))
        except ValueError:  # a token past the int-from-str digit limit
            pass
        else:
            return as_perm(entries)
    # Bad text: read it again token by token, only to name the first bad one.
    return as_perm(_int_token(t, text) for t in tokens)


def format_perm(p: Iterable[int]) -> str:
    return " ".join(map(str, p if type(p) is tuple else _as_tuple(p, "a permutation")))


def parse_marked(text: str) -> MarkedPermutation:
    """Parse "25 26^ 13": caret-suffixed entries are the marks."""
    from .bijection import MarkedPermutation

    entries: list[int] = []
    marks: list[int] = []
    for token in _of_kind(text, str, "the text").split():
        entries.append(_int_token(token, text, mark="^"))
        if token.endswith("^"):
            marks.append(entries[-1])
    return MarkedPermutation(tuple(entries), frozenset(marks))


def format_marked(mp: MarkedPermutation) -> str:
    from .bijection import MarkedPermutation

    _of_kind(mp, MarkedPermutation, "the marked permutation")
    return " ".join(f"{v}^" if v in mp.marks else str(v) for v in mp.perm)


def parse_starred(text: str) -> StarredPermutation:
    """Parse "2 8 3 1 * * 9 4 6 5 * 10 * 7": a star run sits on the entry after it.

    The run right after the maximum is the after-max run, so trailing stars
    need the maximum to come last; :class:`StarredPermutation` checks that
    every other run sits on an LIT entry.
    """
    from .bijection import StarredPermutation

    entries: list[int] = []
    runs = [0]  # runs[i]: the stars before entry i; runs[-1]: the trailing stars
    for token in _of_kind(text, str, "the text").split():
        if token == "*":
            runs[-1] += 1
        else:
            entries.append(_int_token(token, text))
            runs.append(0)
    # An empty base has top_at -1: bare stars sit after its absent maximum.
    top_at = entries.index(max(entries)) if entries else -1
    if runs[-1] and top_at != len(entries) - 1:
        raise InvalidInputError(f"trailing stars must follow the maximum in {_echo(text)}")
    after = runs[top_at + 1]
    runs[top_at + 1] = 0
    return StarredPermutation(tuple(entries), tuple(runs[:-1]), after)


def format_starred(sp: StarredPermutation) -> str:
    from .bijection import StarredPermutation

    tokens: list[str] = []
    top = len(_of_kind(sp, StarredPermutation, "the starred permutation").base)
    for cnt, v in zip(sp.before, sp.base):
        tokens.extend("*" * cnt)
        tokens.append(str(v))
        if v == top:
            tokens.extend("*" * sp.after_max)
    if not sp.base:
        tokens.extend("*" * sp.after_max)
    return " ".join(tokens)


def parse_perm_list(text: str) -> tuple[Perm, ...]:
    """Parse "2 1 / / 3 1 2": slash-separated items, blanks are empty.

    Blank text is the one-item list holding the empty permutation; a
    zero-item list has no textual form (lists here always have k >= 1
    items).  A message echoes the stripped item that holds the bad token.

    >>> parse_perm_list("2 1 / 1 x ")
    Traceback (most recent call last):
    ...
    eigenperm.perms.InvalidInputError: bad entry 'x' in '1 x'
    """
    return tuple(map(parse_perm, map(str.strip, _of_kind(text, str, "the text").split("/"))))


def format_perm_list(items: Iterable[Iterable[int]]) -> str:
    return " / ".join(map(format_perm, _as_tuple(items, "the item list")))
