"""Plain-text forms for permutations, marked/starred variants, and lists.

Permutations are space-separated entries ("3 5 2 4 1"); marked entries
carry a trailing caret ("26^"); stars are literal "*" tokens interleaved
with the entries; lists of permutations are joined with " / ".
"""

from __future__ import annotations

from typing import Iterable

from .bijection import MarkedPermutation, StarredPermutation
from .perms import InvalidInputError, Perm, as_perm

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


def _int_token(token: str, text: str) -> int:
    if not token.isdigit():
        raise InvalidInputError(f"bad entry {token!r} in {text!r}")
    return int(token)


def parse_perm(text: str) -> Perm:
    """Parse "3 5 2 4 1"; the empty string is the empty permutation."""
    return as_perm(_int_token(t, text) for t in text.split())


def format_perm(p: Iterable[int]) -> str:
    return " ".join(str(v) for v in p)


def parse_marked(text: str) -> MarkedPermutation:
    """Parse "25 26^ 13": caret-suffixed entries are the marks."""
    entries: list[int] = []
    marks: list[int] = []
    for token in text.split():
        if token.endswith("^"):
            v = _int_token(token[:-1], text)
            marks.append(v)
        else:
            v = _int_token(token, text)
        entries.append(v)
    return MarkedPermutation(tuple(entries), frozenset(marks))


def format_marked(mp: MarkedPermutation) -> str:
    return " ".join(f"{v}^" if v in mp.marks else str(v) for v in mp.perm)


def parse_starred(text: str) -> StarredPermutation:
    """Parse "2 8 3 1 * * 9 4 6 5 * 10 * 7": stars precede the next entry.

    Star groups after the maximum entry (including trailing groups) count
    as after-max stars.
    """
    entries: list[int] = []
    pending: list[int] = []  # star-run length before each parsed entry
    run = 0
    for token in text.split():
        if token == "*":
            run += 1
        else:
            entries.append(_int_token(token, text))
            pending.append(run)
            run = 0
    trailing = run
    if not entries:
        # Bare stars sit after the (absent) maximum of an empty base.
        return StarredPermutation((), (), trailing)
    top = max(entries)
    top_at = entries.index(top)
    before = [0] * len(entries)
    after = trailing
    if trailing and top_at != len(entries) - 1:
        raise InvalidInputError(f"trailing stars must follow the maximum in {text!r}")
    for i, cnt in enumerate(pending):
        if cnt and i > top_at:
            if i == top_at + 1:
                after += cnt
            else:
                raise InvalidInputError(
                    f"stars after the maximum must be adjacent to it in {text!r}"
                )
        else:
            before[i] = cnt
    return StarredPermutation(tuple(entries), tuple(before), after)


def format_starred(sp: StarredPermutation) -> str:
    tokens: list[str] = []
    top = len(sp.base)
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
    items).
    """
    return tuple(parse_perm(chunk.strip()) for chunk in text.split("/"))


def format_perm_list(items: Iterable[Iterable[int]]) -> str:
    return " / ".join(format_perm(it) for it in items)
