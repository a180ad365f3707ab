"""Permutations, marked-letter patterns, and the OK predicate.

Permutations are tuples of distinct positive integers in one-line notation.
A *standard* permutation on [n] uses each of the values 1..n exactly once.

A marked pattern such as ``3(5)241`` is a standard permutation with one
letter singled out.  A permutation *satisfies* the pattern when every
occurrence of the pattern-minus-marked-letter extends, by one extra entry
in the position gap and value gap left by the marked letter, to an
occurrence of the full pattern.  For ``3(5)241`` this says: every 3241
instance is part of a 35241 instance.

The module also provides the left-to-right-maximum factorization, the
terminal increasing run of top values (LIT entries), the dihedral symmetry
action on permutations and patterns, brute-force censuses, and a fast
structural recognizer for the ``3(5)241`` class.  The left-to-right maxima
and the LIT entries come from one linear pass, with no sort, which every
reader here shares; the bijection's window pass keeps its own, as it also
needs each factor's largest tail entry.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "GENERATORS",
    "InvalidInputError",
    "LRMaxFactorization",
    "Perm",
    "ResourceLimitError",
    "UnderlinedPattern",
    "apply_pattern_symmetry",
    "apply_symmetry",
    "as_perm",
    "census",
    "complement",
    "contains",
    "fast_35241ok",
    "format_pattern",
    "invert",
    "is_avoider",
    "is_standard",
    "lit_entries",
    "lrmax_factorize",
    "occurrences",
    "parse_pattern",
    "reduce_word",
    "reverse",
    "satisfies",
]

Perm = tuple[int, ...]

GENERATORS = ("complement", "reverse", "inverse")

# The largest n that census checks: 10! permutations in 720 blocks of 7! lanes.
CENSUS_LIMIT = 10


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A brute-force operation would exceed its configured size limit."""


# Stores a field of a _Record past its refusing __setattr__.
_setfield = object.__setattr__


class _Record:
    """Base of the package's frozen value classes.

    A subclass names its fields in ``__match_args__``.  The constructor
    here takes each field once, by position or by name, or raises
    TypeError; a subclass that checks its arguments has its own, which
    stores each field once with ``_setfield``.
    Instances of one class with equal fields are equal and hash alike,
    ``repr`` reads ``Name(field=value, ...)``, and assigning or deleting
    an attribute raises AttributeError.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        key = attrgetter(*cls.__match_args__)

        def __eq__(self: _Record, other: object) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        def __hash__(self: _Record) -> int:
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        values = dict(zip(names, args), **kwargs)
        # Given once each, the values fill exactly the fields' names.
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}() takes each of its fields {names} once, "
                            "by position or by name")
        for name in names:
            _setfield(self, name, values[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def as_perm(word: Iterable[int]) -> Perm:
    """Return ``word`` as a tuple after checking entries are distinct positive ints.

    >>> as_perm([3, 1, 2])
    (3, 1, 2)
    """
    # A tuple needs no conversion, and as_perm runs several times per round trip.
    p = word if type(word) is tuple else _as_tuple(word, "a permutation")
    for e in p:
        # ``type(e) is int`` first: the common case skips both isinstance calls.
        if type(e) is not int and not _is_int(e) or e < 1:
            raise InvalidInputError(f"entries must be positive integers, got {_echo(p)}")
    if len(set(p)) != len(p):
        raise InvalidInputError(f"entries must be distinct, got {_echo(p)}")
    return p


def _as_tuple(value: object, name: str) -> tuple:
    # The one conversion of a caller's iterable: anything else is invalid input.
    try:
        iter(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be iterable, got {_echo(value)}") from None
    return tuple(value)


def _of_kind(value: object, kind: type, name: str) -> Any:
    # The one check that an argument is of the class it must be, such as a
    # pattern, a marked or starred permutation, or text.
    if not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be of type {kind.__name__}, got {_echo(value)}")
    return value


def _echo(value: object) -> str:
    # How a diagnostic quotes a caller's value: its repr, cut to 60 characters.
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _is_int(value: object) -> bool:
    # The one int rule: an int, and not a bool.
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_size(value: object, name: str, least: int = 0) -> int:
    # The one check for sizes and counts: an int, not a bool, at least ``least``.
    if _is_int(value) and value >= least:
        return value
    kinds = {0: "a nonnegative integer", 1: "a positive integer"}
    kind = kinds.get(least, f"an integer of at least {least}")
    raise InvalidInputError(f"{name} must be {kind}, got {_echo(value)}")


def _within_limit(what: str, n: int, limit: int) -> None:
    # The one ceiling check: refuse work past ``limit`` before doing any.
    if n > limit:
        raise ResourceLimitError(f"{what} at n={n} exceeds the limit {limit}")


def is_standard(p: Sequence[int]) -> bool:
    """True when ``p`` uses exactly the values 1..len(p), each an ``int``.

    Any entry that is not an ``int``, a ``bool`` included, makes it False.

    >>> is_standard((2, 3, 1))
    True
    >>> is_standard((9, 4, 7))
    False
    """
    q = _as_tuple(p, "a permutation")
    # The int check comes first, as mixed types do not sort.
    return all(map(_is_int, q)) and sorted(q) == list(range(1, len(q) + 1))


def reduce_word(word: Iterable[int]) -> Perm:
    """Rank the entries of ``word``: the i-th smallest entry becomes i.

    >>> reduce_word((9, 4, 7))
    (3, 1, 2)
    >>> reduce_word(())
    ()
    """
    return _reduce(as_perm(word))


def _reduce(p: Sequence[int]) -> Perm:
    # reduce_word without validation: p holds distinct positive ints.
    rank = {v: i for i, v in enumerate(sorted(p), start=1)}
    return tuple(map(rank.__getitem__, p))


def lit_entries(word: Iterable[int]) -> Perm:
    """Terminal run of top values appearing in increasing order (LIT entries).

    These are the values ``s_j < s_{j+1} < ... < s_m`` (consecutive in the
    sorted support, ending at the maximum) that occur left to right in
    ``word``, with ``j`` as small as possible.

    >>> lit_entries((2, 1, 4, 7, 6, 5, 8, 9, 3))
    (7, 8, 9)
    >>> lit_entries((3, 1, 5, 2, 4))
    (5,)
    >>> lit_entries(())
    ()
    """
    return _lit(as_perm(word))


def _lit(p: Sequence[int]) -> Perm:
    # lit_entries without validation: p holds distinct positive ints.
    heads, lit = _chain(p)
    return tuple(p[h] for h in heads[lit:])


def _chain(p: Sequence[int]) -> tuple[list[int], int]:
    # The positions of p's left-to-right maxima, and the index among them
    # of the first LIT entry.  A head is an LIT entry exactly when every
    # entry that is not a head is smaller (the earlier ones are anyway), so
    # the LIT entries are the heads above the largest tail entry.  p need
    # only hold distinct positive ints.
    heads: list[int] = []
    top = loose = 0
    for i, v in enumerate(p):
        if v > top:
            heads.append(i)
            top = v
        elif v > loose:
            loose = v
    lit = len(heads)
    while lit and p[heads[lit - 1]] > loose:
        lit -= 1
    return heads, lit


class LRMaxFactorization(_Record):
    """Factorization of a permutation at its left-to-right maxima.

    ``factors[i]`` is a pair ``(head, tail)``: a left-to-right maximum and
    the (possibly empty) run of smaller entries following it before the
    next maximum.  ``lit_start`` is the index of the first factor whose
    head is an LIT entry; the LIT entries always form a terminal segment
    of the heads.
    """

    __match_args__ = ("factors", "lit_start")

    @property
    def heads(self) -> Perm:
        return tuple(h for h, _ in self.factors)

    @property
    def lit(self) -> Perm:
        """The LIT entry values, ascending."""
        return self.heads[self.lit_start:]


def lrmax_factorize(p: Iterable[int]) -> LRMaxFactorization:
    """Split ``p`` into factors headed by its left-to-right maxima.

    >>> f = lrmax_factorize((3, 1, 5, 2, 4))
    >>> f.factors
    ((3, (1,)), (5, (2, 4)))
    >>> f.lit
    (5,)
    """
    p = as_perm(p)
    return LRMaxFactorization(tuple(_lrmax_factors(p)), _chain(p)[1])


def _lrmax_factors(p: Perm) -> list[tuple[int, Perm]]:
    # lrmax_factorize's (head, tail) pairs without validation.
    heads, _ = _chain(p)
    return [(p[a], p[a + 1:b]) for a, b in itertools.pairwise([*heads, len(p)])]


def complement(p: Iterable[int]) -> Perm:
    """Replace each entry e of a standard permutation by n+1-e."""
    return _move("complement", _checked_standard(p))


def reverse(p: Iterable[int]) -> Perm:
    """Read the permutation right to left."""
    return _move("reverse", _checked_standard(p))


def invert(p: Iterable[int]) -> Perm:
    """Group-theoretic inverse: entry i of the result is the position of i in p.

    >>> invert((2, 3, 1))
    (3, 1, 2)
    """
    return _move("inverse", _checked_standard(p))


def _move(name: str, p: Perm) -> Perm:
    # One generator from GENERATORS on a standard p, without validation.
    if name == "complement":
        n = len(p)
        return tuple(n + 1 - e for e in p)
    if name == "reverse":
        return p[::-1]
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def _checked_standard(p: Iterable[int]) -> Perm:
    q = as_perm(p)
    # Distinct positive ints are exactly 1..len(q) when the largest is len(q).
    if q and max(q) != len(q):
        raise InvalidInputError(f"a standard permutation is required, got {_echo(q)}")
    return q


def _generator_list(g: str | Iterable[str]) -> tuple[str, ...]:
    # A non-iterable is taken as one name, which the check below rejects.
    names = tuple(g.split()) if isinstance(g, str) else tuple(g) if isinstance(g, Iterable) else (g,)
    for name in names:
        if name not in GENERATORS:
            raise InvalidInputError(f"unknown symmetry generator {_echo(name)}")
    return names


def apply_symmetry(p: Iterable[int], g: str | Iterable[str]) -> Perm:
    """Apply a word over {complement, reverse, inverse}, left to right.

    >>> apply_symmetry((2, 3, 1), "reverse")
    (1, 3, 2)
    >>> apply_symmetry((2, 3, 1), ("reverse", "reverse"))
    (2, 3, 1)
    """
    q = _checked_standard(p)
    for name in _generator_list(g):
        q = _move(name, q)
    return q


class UnderlinedPattern(_Record):
    """A standard permutation with one marked letter.

    ``full`` is the complete pattern and ``mark`` the 1-based position of
    the marked letter.  ``3(5)241`` is ``UnderlinedPattern((3, 5, 2, 4, 1), 2)``.
    """

    __match_args__ = ("full", "mark")

    def __init__(self, full: Iterable[int], mark: int) -> None:
        full = _checked_standard(full)
        _checked_size(mark, "mark position", 1)
        if mark > len(full):
            raise InvalidInputError(f"mark position {mark!r} out of range for {_echo(full)}")
        _setfield(self, "full", full)
        _setfield(self, "mark", mark)

    @cached_property
    def base(self) -> Perm:
        """The pattern with the marked letter deleted, reduced."""
        rest = self.full[: self.mark - 1] + self.full[self.mark:]
        return _reduce(rest)

    @cached_property
    def _plan(self) -> tuple[tuple[tuple[int, int], ...], int, int, int, int, int, int]:
        # The search plan (bounds, left, right, lo, hi, fix, find) of the
        # base, of length m, for every walk that reads it.  Indices m and
        # m+1 name a floor (value 0, position -1) and a ceiling (value n+1,
        # position n), which each walk appends to its occ and vals arrays.
        # bounds is the base's _tight_bounds.  The marked letter w sits
        # between the positions at base indices left and right and between
        # the values at lo and hi; the reduced base keeps the values below w
        # and lowers those above it by one, so w-1 and w+1 became w-1 and w.
        # fix is the depth at which this box is fixed, and find the depth
        # after which range queries decide the remaining base letters (m:
        # none).  find is m-3, two letters left, when letter m-2 fixes the
        # box by its value alone and the last letter's range does not refer
        # to it.
        base, slot, w = self.base, self.mark - 1, self.full[self.mark - 1]
        m = len(base)
        bounds = _tight_bounds(base)
        left = slot - 1 if slot else m
        right = slot if slot < m else m + 1
        lo = base.index(w - 1) if w > 1 else m
        hi = base.index(w) if w <= m else m + 1
        fix = max(x if x < m else -1 for x in (left, right, lo, hi))
        if fix == m - 2 and right < m - 2 and fix not in bounds[m - 1]:
            return bounds, left, right, lo, hi, fix, m - 3
        return bounds, left, right, lo, hi, fix, m - 2 if fix < m - 1 else m

    def __str__(self) -> str:
        return format_pattern(self)


def parse_pattern(text: str) -> UnderlinedPattern:
    """Parse e.g. ``"3(5)241"`` into an :class:`UnderlinedPattern`.

    Letters are single ASCII digits; exactly one letter is parenthesized.

    >>> parse_pattern("3(5)241").mark
    2
    """
    letters: list[int] = []
    mark: int | None = None
    i, s = 0, _of_kind(text, str, "the text").strip()
    while i < len(s):
        ch = s[i]
        if ch == "(":
            if mark is not None:
                raise InvalidInputError(f"more than one marked letter in {_echo(text)}")
            if i + 2 >= len(s) or not ("0" <= s[i + 1] <= "9") or s[i + 2] != ")":
                raise InvalidInputError(f"malformed mark in {_echo(text)}")
            letters.append(int(s[i + 1]))
            mark = len(letters)
            i += 3
        elif "0" <= ch <= "9":
            letters.append(int(ch))
            i += 1
        elif ch.isspace():
            i += 1
        else:
            raise InvalidInputError(f"unexpected character {ch!r} in pattern {_echo(text)}")
    if mark is None:
        raise InvalidInputError(f"no marked letter in {_echo(text)}")
    return UnderlinedPattern(tuple(letters), mark)


def format_pattern(up: UnderlinedPattern) -> str:
    """Inverse of :func:`parse_pattern`.

    >>> format_pattern(UnderlinedPattern((3, 5, 2, 4, 1), 2))
    '3(5)241'
    """
    _of_kind(up, UnderlinedPattern, "the pattern")
    return "".join(f"({v})" if i == up.mark else str(v) for i, v in enumerate(up.full, start=1))


def apply_pattern_symmetry(up: UnderlinedPattern, g: str | Iterable[str]) -> UnderlinedPattern:
    """Apply a symmetry word to a marked pattern, transporting the mark.

    Complement keeps the marked position, reverse mirrors it, and inverse
    moves the mark to the position given by the marked letter's value.
    """
    full, mark = _of_kind(up, UnderlinedPattern, "the pattern").full, up.mark
    for name in _generator_list(g):
        mark = {"complement": mark, "reverse": len(full) + 1 - mark, "inverse": full[mark - 1]}[name]
        full = _move(name, full)
    return UnderlinedPattern(full, mark)


def _tight_bounds(pattern: Perm) -> tuple[tuple[int, int], ...]:
    # For each index t of a standard pattern of length m, the earlier
    # indices holding the closest pattern values below and above pattern[t],
    # where m names the floor and m+1 the ceiling.  Checking these two
    # suffices for order-isomorphism of a partial match.  Read right to
    # left, the values still linked in the value-ordered list are those at
    # earlier indices, so a letter's neighbours there are its bounds.
    m = len(pattern)
    below = list(range(-1, m + 1))  # list neighbours of the values 0..m+1
    above = list(range(1, m + 3))
    where = [m] * (m + 2)  # the index holding each value
    where[m + 1] = m + 1
    for t, v in enumerate(pattern):
        where[v] = t
    bounds = [(m, m + 1)] * m
    for t in range(m - 1, -1, -1):
        v = pattern[t]
        lo, hi = below[v], above[v]
        bounds[t] = where[lo], where[hi]
        above[lo], below[hi] = hi, lo
    return tuple(bounds)


def _iter_occurrences(p: Perm, pattern: Perm) -> Iterator[tuple[int, ...]]:
    # Yields 0-based position tuples in lexicographic order.
    m, n = len(pattern), len(p)
    if m == 0:
        yield ()
        return
    bounds = _tight_bounds(pattern)
    occ = [0] * m
    vals = [0] * m + [0, n + 1]
    t = q = 0
    while True:
        if q > n - (m - t):
            if t == 0:
                return
            t -= 1
            q = occ[t] + 1
            continue
        v = p[q]
        lo_ref, hi_ref = bounds[t]
        if vals[lo_ref] < v < vals[hi_ref]:
            occ[t] = q
            vals[t] = v
            if t == m - 1:
                yield tuple(occ)
                q += 1
            else:
                t += 1
                q += 1
        else:
            q += 1


def occurrences(p: Iterable[int], pattern: Iterable[int]) -> list[tuple[int, ...]]:
    """All occurrences of ``pattern`` in ``p`` as 1-based position tuples.

    >>> occurrences((3, 2, 1), (3, 2, 1))
    [(1, 2, 3)]
    >>> occurrences((1, 2), (2, 1))
    []
    """
    p = as_perm(p)
    return [tuple(q + 1 for q in occ) for occ in _iter_occurrences(p, _checked_standard(pattern))]


def contains(p: Iterable[int], pattern: Iterable[int]) -> bool:
    """True when ``pattern`` occurs in ``p`` at least once."""
    p = as_perm(p)
    return next(_iter_occurrences(p, _checked_standard(pattern)), None) is not None


def is_avoider(p: Iterable[int], pattern: Iterable[int]) -> bool:
    """True when ``pattern`` does not occur in ``p``."""
    return not contains(p, pattern)


def _satisfies(p: Perm, up: UnderlinedPattern) -> bool:
    # A search for one violating occurrence: a base occurrence whose box,
    # the position gap and value gap the marked letter would fill, holds no
    # entry.  p is standard, possibly empty.  The box is fixed once the base
    # letters at the plan's left, right, lo and hi (here lo_idx and hi_idx)
    # are placed, at depth fix; there it is tested once, and a partial
    # occurrence with an entry in its box is dropped, since no completion
    # of it violates.  When fix comes before the last letter, that letter
    # only has to exist: one range query after placing letter m-2 answers
    # it.  Both tests read after[i], the set of values at positions >= i as
    # bits, so the entries at positions [a, b) with values in (lo, hi) are
    # (after[a] ^ after[b]) >> (lo + 1), masked to hi - lo - 1 bits.
    #
    # When letter m-2 fixes the box by its value alone and the last
    # letter's range does not refer to it, as in 3(5)241, (1)324, (2)314,
    # (3)241 and (4)231, the search stops after letter m-3 and one query
    # decides the last two letters: the last letter fits after letter m-2
    # exactly when that letter lies before end, the last position with a
    # value in the last letter's range, read from upto[v], the set of
    # positions holding values <= v as bits.  The box is empty exactly when
    # letter m-2's value passes the nearest box value on its side: the
    # largest below the box's top if it is the box's bottom, the smallest
    # above its bottom if it is the top.  The search becomes quadratic.
    # Each table is n+1 ints of at most n+1 bits; at n = 10**4 the search
    # peaks under tracemalloc at 13.7 MB with after alone and 20.7 MB with
    # upto, built only for these patterns.
    n = len(p)
    m = len(up.base)
    if not m:
        return n > 0
    bounds, left, right, lo_idx, hi_idx, fix, find = up._plan
    after = [0] * (n + 1)
    bits = 0
    for i in range(n - 1, -1, -1):
        bits |= 1 << p[i]
        after[i] = bits
    if find < fix:
        upto = [0] * (n + 1)
        for i, v in enumerate(p):
            upto[v] = 1 << i
        for v in range(1, n + 1):
            upto[v] |= upto[v - 1]
    occ = [0] * m + [-1, n]
    vals = [0] * m + [0, n + 1]
    t = q = 0
    while True:
        if q > n - (m - t):
            if t == 0:
                return True
            t -= 1
            q = occ[t] + 1
            continue
        v = p[q]
        lo_ref, hi_ref = bounds[t]
        if not vals[lo_ref] < v < vals[hi_ref]:
            q += 1
            continue
        occ[t] = q
        vals[t] = v
        if t == fix:
            lo, hi = vals[lo_idx], vals[hi_idx]
            if (after[occ[left] + 1] ^ after[occ[right]]) >> (lo + 1) & ((1 << (hi - lo - 1)) - 1):
                q += 1
                continue
            if t == m - 1:
                return False
        if t == find:
            lo_ref, hi_ref = bounds[m - 1]
            lo, hi = vals[lo_ref], vals[hi_ref]
            end = n
            if find < fix:
                # Letter fix = m-2 lies in [q+1, end), with its value in
                # its own range narrowed to empty the box.
                end = (upto[hi - 1] ^ upto[lo]).bit_length() - 1
                box = after[occ[left] + 1] ^ after[occ[right]]
                lo_ref, hi_ref = bounds[fix]
                lo, hi = vals[lo_ref], vals[hi_ref]
                if lo_idx == fix:
                    lo = max(lo, (box & ((1 << vals[hi_idx]) - 1)).bit_length() - 1)
                else:
                    bottom = vals[lo_idx]
                    above = box >> (bottom + 1)
                    if above:
                        hi = min(hi, bottom + (above & -above).bit_length())
            if q + 1 < end and lo + 1 < hi:
                if (after[q + 1] ^ after[end]) >> (lo + 1) & ((1 << (hi - lo - 1)) - 1):
                    return False
            q += 1
            continue
        t += 1
        q += 1


def satisfies(p: Iterable[int], up: UnderlinedPattern) -> bool:
    """True when every base occurrence of ``up`` in ``p`` extends to the full pattern.

    The extension entry must land in the position gap and the value gap
    that the marked letter occupies inside ``up.full``.  The empty
    permutation satisfies every pattern whose base is nonempty.

    >>> satisfies((3, 2, 4, 1), parse_pattern("3(5)241"))
    False
    >>> satisfies((3, 5, 2, 4, 1), parse_pattern("3(5)241"))
    True
    """
    return _satisfies(_checked_standard(p), _of_kind(up, UnderlinedPattern, "the pattern"))


def census(up: UnderlinedPattern, n: int) -> int:
    """Number of standard permutations of [n] satisfying ``up``.

    Checks the definition on every one of the n! permutations, without
    ``satisfies``: one bit per permutation, a block of up to 7! of them
    per big-integer operation.  This is the one-pattern call of the lane
    kernel, which ``four_patterns.classify`` calls with all 96 patterns
    at once.  Refuses to run past ``CENSUS_LIMIT``.

    >>> census(parse_pattern("3(5)241"), 4)
    23
    """
    _of_kind(up, UnderlinedPattern, "the pattern")
    _checked_size(n, "n")
    _within_limit("census", n, CENSUS_LIMIT)
    from ._lanes import census as lane_census  # here, so that commands that never count skip it

    return lane_census(n, [up._plan])[0]


def fast_35241ok(p: Iterable[int]) -> bool:
    """Structural recognizer for the ``3(5)241`` class.

    A permutation is in the class iff the tails of its left-to-right
    maximum factorization are value-ordered (everything in an earlier tail
    is smaller than everything in a later tail) and each reduced tail is
    recursively in the class.

    >>> fast_35241ok((3, 2, 4, 1))
    False
    >>> fast_35241ok((3, 5, 2, 4, 1))
    True
    """
    return _fast_ok(_checked_standard(p))


def _fast_ok(p: Sequence[int]) -> bool:
    # One pass over the next-greater-element forest.  The tail of a head is
    # the stretch up to its next greater entry, and the heads of one
    # segment (the word, or a tail) form a chain; the rule asks that every
    # entry of a tail exceed acc, the largest tail entry of the earlier
    # heads on its chain.  The stack holds the heads whose tails are open,
    # so an entry lies in the tail of every head left on it once the
    # smaller ones are popped.  Each head carries its floor: the largest
    # acc of itself and the heads below it.  The stack lives in two lists
    # of fixed length, heads[:top + 1] and floors[:top + 1], so a push or
    # a pop moves top and calls no method.  Only values are compared, so p
    # need not be standard (split_at_max_ok passes unreduced halves, whose
    # entries can exceed len(p) + 1); the sentinel at the bottom, never
    # popped, exceeds every entry.
    heads = [math.inf] * (len(p) + 1)
    floors = [0] * (len(p) + 1)
    top = 0
    for v in p:
        floor = floors[top]  # v's, if it starts a chain in the top head's tail
        if heads[top] < v:
            # v closes the tail of each head it pops; the top one's is empty.
            # The last head popped precedes v on its chain.  If its tail is
            # empty, v takes its floor.  Otherwise v's floor is that tail's
            # largest entry, the head popped just before it, which passed
            # the check below against every floor under it.
            top -= 1
            while heads[top] < v:
                floor = heads[top + 1]
                top -= 1
        if v < floors[top]:
            return False
        top += 1
        heads[top] = v
        floors[top] = floor
    return True
