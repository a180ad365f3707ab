"""The 96 single-marked 4-letter patterns, classified by counting sequence.

Complement, reverse and inverse act on marked patterns and preserve the
satisfying sets up to the same action on permutations, so patterns fall
into orbits with a common counting sequence.  Empirically (and provably)
each orbit counts one of: the Catalan numbers (trivial: every 3-letter
base has C_n avoiders, Simion-Schmidt 1985, so the mark adds nothing),
the Bell numbers, the factorial convolution sequence 1, 1, 2, 5, 15, 54,
235, ... (OEIS A051295), or the sequence 1, 1, 2, 5, 15, 55, 248, 1357,
... first produced by this classification.  This module computes the
orbits and labels, plus the explicit bijections and formulas behind the
non-Catalan classes.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from typing import Iterable, Sequence

from .perms import (
    CENSUS_LIMIT,
    GENERATORS,
    InvalidInputError,
    Perm,
    UnderlinedPattern,
    _checked_size,
    _as_tuple,
    _checked_standard,
    _echo,
    _lrmax_factors,
    _move,
    _of_kind,
    _Record,
    _satisfies,
    _setfield,
    _within_limit,
    apply_pattern_symmetry,
    census,
    is_standard,
    parse_pattern,
)
from .recurrences import bell_numbers, catalan_numbers
from .series import _power_columns

__all__ = [
    "ClassificationError",
    "PatternClass",
    "SetPartition",
    "a051295_terms",
    "all_underlined4",
    "classification_report",
    "classify",
    "count_1342ok_by_position",
    "from_partition_decreasing",
    "from_partition_increasing",
    "new4_terms",
    "pattern_orbit",
    "patience_ok",
    "to_partition_decreasing",
    "to_partition_increasing",
    "wilf_map",
]

LABELS = ("catalan", "bell", "a051295", "new4")


class ClassificationError(RuntimeError):
    """An orbit's counting sequence matched no reference sequence."""


class PatternClass(_Record):
    """One symmetry orbit of marked 4-patterns; trivial when labelled Catalan.

    ``representative`` is the first of ``members``, the orbit's
    ``UnderlinedPattern``s ordered by (full, mark); ``label`` is the one of
    ``LABELS`` that the orbit's counts match; ``trivial`` is True when that
    label is ``"catalan"``; ``counts`` holds the class sizes at n = 0..max_n.
    """

    __match_args__ = ("representative", "members", "label", "trivial", "counts")


def all_underlined4() -> list[UnderlinedPattern]:
    """All 96 marked patterns on 4 letters, in lexicographic order."""
    return [
        UnderlinedPattern(p, mark)
        for p in itertools.permutations((1, 2, 3, 4))
        for mark in range(1, 5)
    ]


def pattern_orbit(up: UnderlinedPattern) -> frozenset[UnderlinedPattern]:
    """Closure of ``up`` under complement, reverse and inverse."""
    seen = {_of_kind(up, UnderlinedPattern, "the pattern")}
    frontier = [up]
    while frontier:
        cur = frontier.pop()
        for g in GENERATORS:
            nxt = apply_pattern_symmetry(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def classify(max_n: int = 7) -> list[PatternClass]:
    """Partition the 96 patterns into orbits and label each by its counts.

    Counts for n = 0..max_n, from ``census``, are matched against the
    four reference sequences; an orbit is trivial when it is labelled
    Catalan, as every 3-letter base has C_n avoiders (Simion-Schmidt).
    Disagreements within an orbit, or an unmatched orbit, raise
    ClassificationError.  The references agree through n = 4 (bell,
    a051295 and new4 all read 1, 1, 2, 5, 15), so ``max_n`` below 5
    raises InvalidInputError; ``max_n`` past the census limit raises
    ResourceLimitError before any counting.
    """
    _checked_size(max_n, "max_n, to reach where the reference sequences differ,", 5)
    _within_limit("classify", max_n, CENSUS_LIMIT)
    patterns = all_underlined4()
    refs = {
        "catalan": tuple(catalan_numbers(max_n)),
        "bell": tuple(bell_numbers(max_n)),
        "a051295": tuple(a051295_terms(max_n)),
        "new4": tuple(new4_terms(max_n)),
    }
    counts = {up: tuple(census(up, n) for n in range(max_n + 1)) for up in patterns}
    classes = []
    assigned: set[UnderlinedPattern] = set()
    for up in patterns:
        if up in assigned:
            continue
        orbit = pattern_orbit(up)
        assigned |= orbit
        members = tuple(sorted(orbit, key=lambda u: (u.full, u.mark)))
        rep = members[0]
        cnt = counts[rep]
        for member in members:
            if counts[member] != cnt:
                raise ClassificationError(
                    f"orbit of {rep} disagrees at {member}: {counts[member]} != {cnt}"
                )
        label = next((name for name, ref in refs.items() if ref == cnt), None)
        if label is None:
            raise ClassificationError(f"orbit of {rep} matches no reference: {cnt}")
        classes.append(PatternClass(rep, members, label, label == "catalan", cnt))
    classes.sort(key=lambda c: (c.trivial, LABELS.index(c.label), c.representative.full, c.representative.mark))
    return classes


def classification_report(classes: Sequence[PatternClass]) -> str:
    """Human-readable summary: one line per orbit, nontrivial first."""
    classes = tuple(_of_kind(c, PatternClass, "a class") for c in _as_tuple(classes, "the classes"))
    lines = []
    trivial_total = sum(len(c.members) for c in classes if c.trivial)
    lines.append(f"{len(classes)} orbits; {trivial_total} trivial patterns")
    for c in classes:
        members = " ".join(str(m) for m in c.members)
        kind = "trivial" if c.trivial else "nontrivial"
        lines.append(f"[{c.label:8s}] size {len(c.members)} ({kind}): {members}")
    return "\n".join(lines)


class SetPartition(_Record):
    """A set partition of [n], blocks sorted by their maxima; its entries follow :func:`is_standard`."""

    __match_args__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        blocks = tuple(_as_tuple(b, "a block") for b in _as_tuple(blocks, "the blocks"))
        if not all(blocks):
            raise InvalidInputError("blocks must be nonempty")
        if not is_standard([v for b in blocks for v in b]):
            raise InvalidInputError("blocks must partition 1..n")
        _setfield(self, "blocks", tuple(sorted(map(frozenset, blocks), key=max)))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


def to_partition_increasing(p: Iterable[int]) -> SetPartition:
    """Blocks of a ``32(4)1``-OK permutation: each LRmax factor is a block.

    Membership in the class is exactly "every factor tail is increasing",
    which is what the input check enforces.

    >>> to_partition_increasing((4, 1, 2, 6, 7, 3, 5)).blocks
    (frozenset({1, 2, 4}), frozenset({6}), frozenset({3, 5, 7}))
    """
    return _factor_blocks(p, ascending=True, pattern="32(4)1")


def from_partition_increasing(sp: SetPartition) -> Perm:
    """Write each block max-first then increasing, blocks by increasing max.

    >>> from_partition_increasing(SetPartition((frozenset({1, 2, 4}), frozenset({6}), frozenset({3, 5, 7}))))
    (4, 1, 2, 6, 7, 3, 5)
    """
    word: list[int] = []
    for block in _of_kind(sp, SetPartition, "the partition").blocks:
        top = max(block)
        word.append(top)
        word.extend(sorted(block - {top}))
    return tuple(word)


def to_partition_decreasing(p: Iterable[int]) -> SetPartition:
    """Blocks of a ``31(4)2``-OK permutation (factor tails decreasing)."""
    return _factor_blocks(p, ascending=False, pattern="31(4)2")


def from_partition_decreasing(sp: SetPartition) -> Perm:
    """Write each block in decreasing order, blocks by increasing max.

    >>> from_partition_decreasing(SetPartition((frozenset({1, 2, 4}), frozenset({6}), frozenset({3, 5, 7}))))
    (4, 2, 1, 6, 7, 5, 3)
    """
    word: list[int] = []
    for block in _of_kind(sp, SetPartition, "the partition").blocks:
        word.extend(sorted(block, reverse=True))
    return tuple(word)


def _factor_blocks(p: Iterable[int], ascending: bool, pattern: str) -> SetPartition:
    # The LRmax factors of p as blocks, once every tail runs in the class's order.
    factors = _lrmax_factors(_checked_standard(p))
    for _, tail in factors:
        if list(tail) != sorted(tail, reverse=not ascending):
            raise InvalidInputError(f"not {pattern}-OK: factor tail {_echo(tail)} out of order")
    return SetPartition((head, *tail) for head, tail in factors)


def a051295_terms(n_max: int) -> list[int]:
    """The factorial convolution recurrence u_n = sum u_{k-1} (n-k)!.

    >>> a051295_terms(7)
    [1, 1, 2, 5, 15, 54, 235, 1237]
    """
    _checked_size(n_max, "n_max")
    u = [1]
    fact = [1]  # 0!, 1!, ..., (n-1)!
    for n in range(1, n_max + 1):
        u.append(sum(uk * f for uk, f in zip(u, reversed(fact))))
        fact.append(fact[-1] * n)
    return u


def count_1342ok_by_position(n: int, k: int) -> int:
    """Number of ``(1)342``-OK permutations of [n] with the entry 1 at position k.

    Such a permutation is a decreasing prefix a_1 > ... > a_{k-1}, the
    entry 1, and k arbitrary blocks on the complementary intervals, so the
    count is the sum over weak compositions s of n-k into k parts of
    prod s_i!, that is [x^(n-k)] (sum_m m! x^m)^k = [x^n] B^k for
    B = sum_i (i-1)! x^i: entry k-1 of column n of B's power table.

    >>> count_1342ok_by_position(3, 2)
    2
    """
    _checked_size(n, "n", 1)
    _checked_size(k, "k", 1)
    if k > n:
        raise InvalidInputError(f"need 1 <= k <= n, got n={n!r}, k={k!r}")
    *_, column = _power_columns([math.factorial(i) for i in range(n)])
    return column[k - 1]


def new4_terms(n_max: int) -> list[int]:
    """Counting sequence of the ``321(4)`` class: 1, 1, 2, 5, 15, 55, 248, ...

    term(n) = (n-1)! + sum over k = 0..n-2 and i, j >= 0 with i+j <= k of
    falling(k, i) * rising(n-2-k, j).

    >>> new4_terms(8)
    [1, 1, 2, 5, 15, 55, 248, 1357, 8809]
    """
    _checked_size(n_max, "n_max")
    out = [1]
    for n in range(1, n_max + 1):
        total = math.factorial(n - 1)
        for k in range(n - 1):
            # rising_sums[t] = sum of rising(n-2-k, j) over j <= t
            rising_sums = []
            acc, rising = 0, 1
            for j in range(k + 1):
                acc += rising
                rising_sums.append(acc)
                rising *= n - 2 - k + j
            falling = 1
            for i in range(k + 1):
                total += falling * rising_sums[k - i]
                falling *= k - i
        out.append(total)
    return out


_PATTERN_1324 = parse_pattern("(1)324")


def wilf_map(p: Iterable[int]) -> Perm:
    """Length-preserving bijection from the ``(1)324`` class to the ``(1)342`` class.

    Factor p at its left-to-right minima as m_1 L_1 m_2 L_2 ... m_r L_r and
    emit m_1 m_2 ... m_r L_r L_{r-1} ... L_1.

    >>> wilf_map((3, 1, 2))
    (3, 1, 2)
    >>> wilf_map((3, 4, 1, 2))
    (3, 1, 2, 4)
    """
    q = _checked_standard(p)
    if not _satisfies(q, _PATTERN_1324):
        raise InvalidInputError(f"not (1)324-OK: {_echo(q)}")
    # The LR minima of q are the LR maxima of its complement.
    flip = len(q) + 1
    factors = _lrmax_factors(_move("complement", q))
    out = [flip - head for head, _ in factors]
    for _, tail in reversed(factors):
        out.extend(flip - v for v in tail)
    return tuple(out)


def patience_ok(p: Iterable[int]) -> bool:
    """True when every 342 occurrence with adjacent "4","2" extends to 3142.

    Equivalently, p satisfies ``3(1)42``; the tests check this against
    :func:`satisfies` on every permutation of length up to 6 and on long
    class members.  One left-to-right pass decides it in O(n log n).

    >>> patience_ok((2, 3, 1))
    False
    >>> patience_ok((1, 3, 2))
    True
    """
    # A pair high > low fails when some entry in (low, high) follows the last entry below
    # low (the would-be "1"); the least entry there is the first suffix minimum above low.
    minima: list[int] = []  # the suffix minima of the entries read so far, ascending
    for high, low in itertools.pairwise(_checked_standard(p)):
        if low < high:
            k = bisect_right(minima, low)
            if k < len(minima) and minima[k] < high:
                return False
        del minima[bisect_right(minima, high):]
        minima.append(high)
    return True
