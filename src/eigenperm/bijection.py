"""The bijection pipeline between the ``3(5)241`` class and shorter data.

A class member p of length n splits at its maximum as sigma n tau.  The
pipeline encodes tau's interleaving into stars on the reduced sigma
(:func:`star_encode`), collapses star runs into marked LIT entries plus a
bit sequence (:func:`collapse_stars`), and rearranges the LRmax factors
into a list of shorter class members with a moving window
(:func:`marked_to_list`).  Composing the stages maps p of length n to a
pair (rho, v) -- a shorter class member and a list of class members --
carrying total size n-1, which is exactly the structure behind the
left-shift-under-composition recurrence.

The paper sorts the factor tails (:func:`sort_factor_tails`) to reach a
321-avoider, runs the window there and restores the tails.  Here the
window runs on the member itself: each pane starts at an LRmax, so it is
a union of whole factors, and the window reads only the LR maxima and
their positions, the LIT entries and each pane's set of other entries,
all of which the sort keeps.  So :func:`window_forward` and
:func:`window_inverse` are :func:`marked_to_list` and
:func:`list_to_marked` behind a 321 check.  One forward pass feeds both
:func:`marked_to_list` and :func:`window_plan`.  An unmarked member is
its own one-item list, so the window passes, and with them the check that
the panes tile the member, run only for marked members and for lists of
two or more items; :func:`window_plan` runs the pass on every input.
Public functions validate their arguments once (an empty slot needs no
check); the private cores behind them pass standard permutations and
ascending mark tuples to each other without checking again.  Every stage
has an explicit inverse here, and each is exercised round-trip by the
test suite.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import deque
from typing import Iterable, Sequence

from .perms import (
    InvalidInputError,
    Perm,
    _as_tuple,
    _chain,
    _checked_size,
    _checked_standard,
    _echo,
    _fast_ok,
    _is_int,
    _lit,
    _lrmax_factors,
    _of_kind,
    _Record,
    _reduce,
    _setfield,
    as_perm,
)

__all__ = [
    "MarkedPermutation",
    "StarredPermutation",
    "WindowPlan",
    "collapse_stars",
    "eigen_compose",
    "eigen_decompose",
    "expand_stars",
    "list_to_marked",
    "marked_to_list",
    "sort_factor_tails",
    "split_at_max_ok",
    "star_decode",
    "star_encode",
    "window_forward",
    "window_inverse",
    "window_plan",
]


def split_at_max_ok(sigma: Iterable[int], tau: Iterable[int]) -> bool:
    """Whether sigma (n) tau is in the class, tested on the two halves.

    True iff both halves are in the class after reduction and every entry
    of sigma exceeding min(tau) is an LIT entry of sigma.

    >>> split_at_max_ok((3, 2), (1,))
    False
    >>> split_at_max_ok((2, 3), (1,))
    True
    """
    s = as_perm(sigma)
    t = as_perm(tau)
    n = len(s) + len(t) + 1
    if sorted(s + t) != list(range(1, n)):
        raise InvalidInputError("sigma and tau together must use the values 1..n-1")
    if not _fast_ok(s) or not _fast_ok(t):
        return False
    if t:
        floor = min(t)
        lit = set(_lit(s))
        if any(v > floor and v not in lit for v in s):
            return False
    return True


class StarredPermutation(_Record):
    """A standard permutation with stars before LIT entries or after the max.

    ``before[i]`` counts the stars immediately preceding position i;
    ``after_max`` counts the stars immediately after the maximum entry.
    Stars may only precede LIT entries.  An empty base may still carry
    ``after_max`` stars (the degenerate all-from-tau case).
    """

    __match_args__ = ("base", "before", "after_max")

    def __init__(self, base: Iterable[int], before: Iterable[int], after_max: int = 0) -> None:
        base = _checked_standard(base)
        before = tuple(_checked_size(c, "a star count") for c in _as_tuple(before, "star counts"))
        _checked_size(after_max, "after_max")
        if len(before) != len(base):
            raise InvalidInputError("one star count per position is required")
        lit = set(_lit(base))
        for cnt, v in zip(before, base):
            if cnt and v not in lit:
                raise InvalidInputError(f"stars may only precede LIT entries, found {cnt} before {v}")
        _setfield(self, "base", base)
        _setfield(self, "before", before)
        _setfield(self, "after_max", after_max)

    @property
    def star_count(self) -> int:
        return sum(self.before) + self.after_max


class MarkedPermutation(_Record):
    """A standard permutation with a set of marked non-maximal LIT entries."""

    __match_args__ = ("perm", "marks")

    def __init__(self, perm: Iterable[int], marks: Iterable[int] = frozenset()) -> None:
        perm = _checked_standard(perm)
        given = _as_tuple(marks, "marks")
        if not all(map(_is_int, given)):
            raise InvalidInputError(f"marks must be integers, got {_echo(marks)}")
        marks = frozenset(given)
        if not marks <= set(_lit(perm)) - {len(perm)}:
            raise InvalidInputError(
                f"marks {_echo(sorted(marks))} are not non-maximal LIT entries of {_echo(perm)}"
            )
        _setfield(self, "perm", perm)
        _setfield(self, "marks", marks)


def star_encode(p: Iterable[int]) -> tuple[Perm, StarredPermutation]:
    """Encode a class member p = sigma n tau as (reduce(tau), starred sigma).

    Each entry c of tau contributes one star, placed before the smallest
    sigma entry exceeding c (always an LIT entry) or after sigma's maximum
    when no such entry exists.

    >>> rho, starred = star_encode((1, 2, 3))
    >>> rho, starred.base, starred.star_count
    ((), (1, 2), 0)
    """
    q = _checked_member(p)
    if not q:
        raise InvalidInputError("the empty permutation has no maximum to split at")
    rho, base, before, after = _star_encode(q)
    return rho, StarredPermutation(base, before, after)


def _star_encode(q: Perm) -> tuple[Perm, Perm, tuple[int, ...], int]:
    # q: a nonempty class member.  Returns rho and the starred sigma as
    # (base, before, after_max).  One walk up the values below n ranks each
    # within its half; the tau values since the last sigma value are the
    # stars on the next one, and those left at the end follow the maximum.
    n = len(q)
    pos = q.index(n)
    sigma = q[:pos]
    in_sigma = [False] * n
    for v in sigma:
        in_sigma[v] = True
    rank = [0] * n
    stars = [0] * n  # stars[v]: the stars before sigma value v
    s = run = 0  # the sigma values so far, and the tau values since the last
    for v in range(1, n):
        if in_sigma[v]:
            s += 1
            rank[v] = s
            stars[v] = run
            run = 0
        else:
            rank[v] = v - s
            run += 1
    rho = tuple(map(rank.__getitem__, q[pos + 1:]))
    return rho, tuple(map(rank.__getitem__, sigma)), tuple(map(stars.__getitem__, sigma)), run


def star_decode(rho: Iterable[int], starred: StarredPermutation) -> Perm:
    """Inverse of :func:`star_encode`.

    Walks the base values bottom-up, letting each star group consume the
    next free values for tau's support; rho is then transplanted onto that
    support and appended after the new maximum.
    """
    r = _checked_member(rho)
    _of_kind(starred, StarredPermutation, "the starred permutation")
    if not _fast_ok(starred.base):
        raise InvalidInputError("the starred permutation must be in the class")
    if len(r) != starred.star_count:
        raise InvalidInputError(
            f"rho must have length {starred.star_count} (one per star), got {len(r)}"
        )
    return _star_decode(r, starred.base, starred.before)


def _star_decode(r: Perm, base: Perm, before: Sequence[int]) -> Perm:
    # r: a class member with one entry per star; base: a class member; the
    # stars not counted in ``before`` follow the maximum.  Two index maps,
    # no per-value dict: step[t] is 1 plus the stars before base value t,
    # so its running sums give each sigma value its output value, and the
    # values no sigma entry takes, ascending, are tau's support.  Index 0
    # stays free, so support[x] is the x-th value of the support.
    n = len(base) + len(r) + 1
    step = [0] * (len(base) + 1)
    for v, c in zip(base, before):
        step[v] = c + 1
    val = list(itertools.accumulate(step))
    free = bytearray(b"\x01") * n
    for v in val[1:]:
        free[v] = 0
    support = list(itertools.compress(range(n), free))
    return (*map(val.__getitem__, base), n, *map(support.__getitem__, r))


def collapse_stars(starred: StarredPermutation) -> tuple[MarkedPermutation, tuple[int, ...]]:
    """Collapse star runs to marks and record the lost structure as bits.

    Star groups before non-maximal LIT entries shrink to a single mark;
    groups around the maximum disappear.  Reading tokens left to right,
    the bit sequence keeps a 1 for each surviving star and for the maximum
    itself, and a 0 for every deleted star.  Its length is the original
    star count plus one.
    """
    if not _of_kind(starred, StarredPermutation, "the starred permutation").base:
        raise InvalidInputError("cannot collapse stars on an empty permutation")
    marks, bits = _collapse_stars(starred.base, starred.before, starred.after_max)
    return MarkedPermutation(starred.base, frozenset(marks)), bits


def _collapse_stars(
    base: Perm, before: Sequence[int], after_max: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # base: nonempty, stars only before LIT entries.  The marks come out
    # ascending, because LIT entries increase from left to right.
    top = len(base)
    bits: list[int] = []
    marks: list[int] = []
    for cnt, v in zip(before, base):
        if v == top:
            bits.extend([0] * cnt)
            bits.append(1)
        elif cnt:
            bits.extend([0] * (cnt - 1))
            bits.append(1)
            marks.append(v)
    bits.extend([0] * after_max)
    return tuple(marks), tuple(bits)


def expand_stars(marked: MarkedPermutation, bits: Sequence[int]) -> StarredPermutation:
    """Inverse of :func:`collapse_stars`.

    The i-th 1 of ``bits`` lands on the i-th mark (in value order), the
    last 1 on the maximum; 0s become extra stars at the location of the
    next 1, or after the maximum once the 1s are exhausted.
    """
    p = _of_kind(marked, MarkedPermutation, "the marked permutation").perm
    if not p:
        raise InvalidInputError("cannot expand stars on an empty permutation")
    bts = _as_tuple(bits, "bits")
    if not all(_is_int(b) and b in (0, 1) for b in bts):
        raise InvalidInputError(f"bits must be 0 or 1, got {_echo(bts)}")
    marks = sorted(marked.marks)
    if sum(bts) != len(marks) + 1:
        raise InvalidInputError(
            f"expected {len(marks) + 1} ones in the bit sequence, got {sum(bts)}"
        )
    before, after = _expand_stars(p, marks, bts)
    return StarredPermutation(p, before, after)


def _expand_stars(
    p: Perm, marks: Sequence[int], bits: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    # marks ascending; bits hold one 1 per mark plus one for the maximum.
    # Returns (before, after_max) of the starred permutation on p.  The
    # marks and then the maximum are LIT entries, which rise left to right,
    # so each search for one resumes where the last one stopped.  The k-th
    # 1 of bits carries the 0s since the (k-1)-th: the difference of their
    # positions.
    before = [0] * len(p)
    x = 0
    last = -1  # the position of the previous 1
    for v, one in zip((*marks, len(p)), itertools.compress(range(len(bits)), bits)):
        x = p.index(v, x)
        before[x] = one - last
        last = one
    before[x] -= 1  # the maximum's 1 is the entry itself, not a star
    return tuple(before), len(bits) - 1 - last


def sort_factor_tails(
    p: Iterable[int], marks: Iterable[int] = ()
) -> tuple[MarkedPermutation, tuple[tuple[int, Perm], ...]]:
    """Sort every LRmax factor tail ascending, keeping marks and positions.

    Returns the sorted permutation as a :class:`MarkedPermutation` plus the
    original factors, from which the unsorted tails can be restored (factor
    boundaries do not move).  LIT entries are unchanged by the sort.

    >>> sort_factor_tails((3, 2, 1, 4))[0].perm
    (3, 1, 2, 4)
    """
    factors = tuple(_lrmax_factors(_checked_standard(p)))
    q = tuple(itertools.chain.from_iterable((head, *sorted(tail)) for head, tail in factors))
    return MarkedPermutation(q, marks), factors


class WindowPlan(_Record):
    """Everything the moving-window rearrangement decides for one input.

    ``pane_spans`` tile [0, n) in position order; ``initial_starts`` are
    the pane boundaries present before the window starts moving;
    ``associations`` records, in generation order, the pane-head value
    created at each step (None when the step only dropped a pane);
    ``insertion`` is the reversed association list followed by the values
    at the initial starts; ``rows[r]`` lists the pane-head values routed
    to item r, ascending, with row 0 the first item of the output list.
    """

    __match_args__ = ("pane_spans", "initial_starts", "associations", "insertion", "rows")


def _avoids_321(p: Perm) -> bool:
    # A 321 occurrence needs two entries that are not left-to-right maxima
    # in decreasing order, and any such pair completes one with an earlier
    # maximum; so p avoids 321 iff its other entries increase.
    rest = [v for _, tail in _lrmax_factors(p) for v in tail]
    return all(a < b for a, b in zip(rest, rest[1:]))


def window_plan(q: Iterable[int], marks: Iterable[int] = ()) -> WindowPlan:
    """Run the moving-window pass over a 321-avoiding marked permutation.

    The window starts as the panes cut at the first LIT entry and at the
    LIT entry following each mark; initial pane r opens row r.  The window
    is a queue.  Each step drops its last pane and lets m be the largest
    non-LRmax entry in the panes left.  If some not-yet-empaned LRmax entry
    exceeds m, the smallest such heads a new pane at the front, which
    takes over the dropped pane's row; otherwise that row closes.  Each
    step appends the new head (or None) to the association list.
    """
    marked = MarkedPermutation(q, marks)
    qq = marked.perm
    if not qq:
        raise InvalidInputError("an empty permutation has no window plan")
    if not _avoids_321(qq):
        raise InvalidInputError(f"a 321-avoiding permutation is required, got {_echo(qq)}")
    starts, assoc, panes = _window_pass(qq, tuple(sorted(marked.marks)))
    # Each row's panes, read back, come in position order and so by head value.
    return WindowPlan(
        pane_spans=tuple(sorted(span for row in panes for span in row)),
        initial_starts=tuple(starts),
        associations=tuple(assoc),
        insertion=(*reversed(assoc), *(qq[s] for s in starts)),
        rows=tuple(tuple(qq[a] for a, _ in reversed(row)) for row in panes),
    )


def _window_pass(
    qq: Perm, marks: tuple[int, ...]
) -> tuple[list[int], list[int | None], list[list[tuple[int, int]]]]:
    # qq: a nonempty class member, whose factor tails need no sorting (see
    # the module docstring); marks: ascending.  Returns the initial starts,
    # the associations and each row's position spans, initial pane first,
    # then those gained, right to left.  The pass counts in whole factors.
    # The window holds (loose max, row) per pane, leftmost first: initial
    # pane r is row r, and a pane a step creates takes the row of the pane
    # it drops.
    n = len(qq)
    # Factor f covers the positions cuts[f] to cuts[f + 1]; its head is
    # lrvals[f], and tops[f] is its largest tail entry (0 for none).
    cuts: list[int] = []
    lrvals: list[int] = []  # rising, and ending at n
    tops: list[int] = []
    top = 0
    for i, v in enumerate(qq):
        if v > top:
            cuts.append(i)
            lrvals.append(v)
            tops.append(0)
            top = v
        elif v > tops[-1]:
            tops[-1] = v
    cuts.append(n)
    lit = bisect_right(lrvals, max(tops))  # the LIT entries exceed every tail entry
    # The LIT values rise by 1 from lrvals[lit], so e + 1 heads factor lit + e + 1 - lrvals[lit].
    firsts = [lit, *(lit + e + 1 - lrvals[lit] for e in marks)]
    window: deque[tuple[int, int]] = deque()
    # The loose maxima that no pane to their left exceeds: non-decreasing,
    # so the last is the window's maximum.
    peaks: deque[int] = deque()
    panes = []
    for row, (a, b) in enumerate(zip(firsts, [*firsts[1:], len(lrvals)])):
        pm = max(tops[a:b])
        window.append((pm, row))
        if not peaks or pm >= peaks[-1]:
            peaks.append(pm)
        panes.append([(cuts[a], cuts[b])])
    left = lit  # the factors left of it are not yet empaned
    assoc: list[int | None] = []
    while window:
        pm, row = window.pop()
        if peaks[-1] == pm:
            peaks.pop()
        m = peaks[-1] if peaks else 0
        f = bisect_right(lrvals, m)
        if f < left:
            assoc.append(lrvals[f])
            panes[row].append((cuts[f], cuts[left]))
            pm = max(tops[f:left])
            while peaks and peaks[0] < pm:
                peaks.popleft()
            peaks.appendleft(pm)
            window.appendleft((pm, row))
            left = f
        else:
            assoc.append(None)  # the row closes
    edge = 0  # in position order, each pane starts where the last one ends
    for a, b in sorted(itertools.chain.from_iterable(panes)):
        edge = b if a == edge else -1
    if edge != n:
        raise AssertionError("pane spans do not tile the permutation")
    return [cuts[f] for f in firsts], assoc, panes


def window_forward(marked: MarkedPermutation) -> tuple[Perm, ...]:
    """Rearrange a 321-avoiding marked permutation into a (marks+1)-list.

    This is :func:`marked_to_list` on 321-avoiders; other permutations
    are rejected.

    >>> window_forward(MarkedPermutation((1, 2, 3)))
    ((1, 2, 3),)
    """
    if not _avoids_321(_of_kind(marked, MarkedPermutation, "the marked permutation").perm):
        raise InvalidInputError(f"a 321-avoiding permutation is required, got {_echo(marked.perm)}")
    return marked_to_list(marked)


def marked_to_list(marked: MarkedPermutation) -> tuple[Perm, ...]:
    """Map a marked class member to a list of class members.

    The window plan of p equals that of its tail-sorted, 321-avoiding
    form, as it reads only what the sort keeps (see the module docstring).
    Row r of the plan names the panes of p whose concatenation, reduced,
    becomes item r.  An unmarked member is its own one-item list.

    >>> marked_to_list(MarkedPermutation((2, 1, 3)))
    ((2, 1, 3),)
    """
    p = _of_kind(marked, MarkedPermutation, "the marked permutation").perm
    if not _fast_ok(p):
        raise InvalidInputError(f"a 3(5)241-OK permutation is required, got {_echo(p)}")
    if not p:
        raise InvalidInputError("an empty permutation has no window plan")
    return _to_list(p, tuple(sorted(marked.marks)))


def _to_list(p: Perm, marks: tuple[int, ...]) -> tuple[Perm, ...]:
    # p: a nonempty class member; marks: ascending.  A row's panes, read
    # back from the last one gained, run left to right.
    if not marks:
        # One initial pane, from the first LIT entry to the end.  Its step
        # leaves no pane, so m = 0 and the pane gained (if any) runs from
        # position 0 up to it; the step after closes the row.  Read back,
        # the row is p, which is standard and so its own reduction.
        return (p,)
    _, _, panes = _window_pass(p, marks)
    return tuple(_reduce([v for a, b in reversed(row) for v in p[a:b]]) for row in panes)


def _checked_items(items: Iterable[Iterable[int]]) -> tuple[Perm, ...]:
    its = tuple(_checked_member(it) for it in _as_tuple(items, "the item list"))
    if not its:
        raise InvalidInputError("the item list must be nonempty")
    if not all(its):
        raise InvalidInputError("every item must be nonempty")
    return its


def window_inverse(items: Iterable[Iterable[int]]) -> MarkedPermutation:
    """Inverse of :func:`window_forward`: :func:`list_to_marked` on 321-avoiding items."""
    its = _checked_items(items)
    for it in its:
        if not _avoids_321(it):
            raise InvalidInputError(f"every item must be 321-avoiding, got {_echo(it)}")
    return MarkedPermutation(*_from_list(its))


def list_to_marked(items: Iterable[Iterable[int]]) -> MarkedPermutation:
    """Inverse of :func:`marked_to_list` on lists of class members.

    The inverse window pass runs on the items themselves.  LIT entries
    take the top global values (last item first, right to left); the rest
    are dealt out in descending order to a queue of open items, first
    visited leftwards from the last.  A visit fills the largest blank
    entry while it is empaned or a left-to-right maximum, adds a pane for
    what it filled left of the item's panes, and sends the item to the
    back; a visit that fills nothing closes the item.  The largest value
    of each item but the last is a mark.  A visit fills only entries in
    or right of the item's panes, or LR maxima, so each pane starts at a
    factor head and the pass reads only what the tail sort keeps.
    """
    return MarkedPermutation(*_from_list(_checked_items(items)))


def _from_list(items: tuple[Perm, ...]) -> tuple[Perm, tuple[int, ...]]:
    # items: nonempty class members.  Returns the permutation and its marks,
    # ascending; list_to_marked describes the pass.  The per-item lists run
    # from the last item to the first, the order in which the items take
    # the top values and are first visited.
    if len(items) == 1:
        # A lone item takes its LIT values, then its other values in
        # descending order, each at its own position: a tail entry left of
        # the panes waits one visit at most, for its factor's larger head.
        # So the item comes back unchanged, with no mark.
        return items[0], ()
    b = sum(map(len, items))  # the next value to place
    values: list[list[int]] = []
    heads: list[list[bool]] = []  # per position: is it a left-to-right maximum
    blanks: list[deque[int]] = []
    panes: list[list[tuple[int, int]]] = []  # the initial pane first
    for it in reversed(items):
        where = [0] * len(it)
        for x, v in enumerate(it):
            where[v - 1] = x
        lrpos, lit = _chain(it)
        cut = it[lrpos[lit]] - 1  # the values above cut are the LIT entries
        vals = [0] * len(it)
        for pos in reversed(where[cut:]):
            vals[pos] = b
            b -= 1
        values.append(vals)
        head = [False] * len(it)
        for x in lrpos:
            head[x] = True
        heads.append(head)
        blanks.append(deque(reversed(where[:cut])))
        panes.append([(where[cut], len(it))])
    open_items = deque(range(len(items)))
    while b:
        if not open_items:
            raise InvalidInputError("the inverse window pass stalled; invalid item list")
        i = open_items.popleft()
        vals, head, blank = values[i], heads[i], blanks[i]
        covered = first = panes[i][-1][0]
        placed = b
        while blank and (blank[0] >= covered or head[blank[0]]):
            x = blank.popleft()
            if x < covered:
                first = x  # a head: those come right to left, as values fall
            vals[x] = b
            b -= 1
        if b == placed:
            continue  # the item closes: nothing this visit read can change
        if first < covered:
            panes[i].append((first, covered))
        open_items.append(i)
    marks = sorted(max(vals) for vals in values[1:])
    chunks: list[tuple[int, ...]] = []
    for vals, spans in zip(values, panes):
        chunks.extend(tuple(vals[a:z]) for a, z in spans)
    chunks.sort()  # by their heads, which differ
    return tuple(itertools.chain.from_iterable(chunks)), tuple(marks)


def eigen_decompose(p: Iterable[int]) -> tuple[Perm, tuple[Perm, ...]]:
    """Map a class member of length n to (rho, v) of total size n-1.

    rho is the reduction of the part after the maximum; v is a list with
    one slot per star-plus-one, empty slots placed where the collapsed
    bit sequence has 0s and the window items placed at its 1s.  When the
    maximum comes first the list is all-empty and rho is the rest.

    >>> eigen_decompose((1,))
    ((), ((),))
    """
    q = _checked_member(p)
    if not q:
        raise InvalidInputError("the empty permutation does not decompose")
    return _decompose(q)


def _decompose(q: Perm) -> tuple[Perm, tuple[Perm, ...]]:
    # q: a nonempty class member.
    n = len(q)
    if q[0] == n:
        return q[1:], ((),) * n
    rho, base, before, after = _star_encode(q)
    marks, bits = _collapse_stars(base, before, after)
    items = iter(_to_list(base, marks))
    v = tuple(next(items) if b else () for b in bits)
    return rho, v


def eigen_compose(rho: Iterable[int], items: Iterable[Iterable[int]]) -> Perm:
    """Inverse of :func:`eigen_decompose`.

    >>> eigen_compose((1, 2), ((), (), (1,)))
    (3, 4, 1, 2)
    """
    r = _checked_member(rho)
    its = tuple(map(_checked_member, _as_tuple(items, "the item list")))
    k = len(its)
    if k == 0:
        raise InvalidInputError("the item list must contain at least one slot")
    if len(r) != k - 1:
        raise InvalidInputError(f"rho must have length {k - 1}, got {len(r)}")
    return _compose(r, its)


def _compose(r: Perm, its: tuple[Perm, ...]) -> Perm:
    # r: a class member; its: len(r) + 1 class members, the empty slots ().
    nonempty = tuple(filter(None, its))
    if not nonempty:
        return (len(its),) + r
    perm, marks = _from_list(nonempty)
    before, _ = _expand_stars(perm, marks, tuple(map(bool, its)))
    return _star_decode(r, perm, before)


def _checked_member(p: Iterable[int]) -> Perm:
    if type(p) is tuple and not p:
        return p  # an empty slot, like most slots of a short member's list
    q = _checked_standard(p)
    if not _fast_ok(q):
        raise InvalidInputError(f"a 3(5)241-OK permutation is required, got {_echo(q)}")
    return q
