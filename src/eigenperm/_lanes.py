"""The census in bit lanes: one bit per permutation, many per big-integer operation.

``perms.census`` checks a marked pattern's definition on every permutation
of [n] here.  The permutations that share their first n-k entries form a
block, with k = min(n, 7).  Lane l of a block is the l-th arrangement, in
lex order, of the k free values on the last k positions, and bit l of a
mask stands for it.  Every comparison between two positions is one mask:

- between two free positions it depends only on k, and is tabled once;
- a fixed entry against a free one reads the table at the fixed entry's
  rank among the free values;
- two fixed entries compare in all lanes or in none.

``perms.census`` loads this module on its first call, so that the
commands that never count do not load it.  ``count``, ``classify4`` and
the ``recurrences`` and ``fourpatterns`` suites of ``verify`` count.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def census(n: int, plan: tuple) -> int:
    # The permutations of [n] in which every occurrence of the base extends.
    # plan is the pattern's UnderlinedPattern._plan; the caller checks n.
    k = min(n, 7)
    every, below, less = _lane_tables(k)
    lanes = math.factorial(k)
    count = 0
    for prefix in itertools.permutations(range(1, n + 1), n - k):
        ranks = [v - 1 - sum(w < v for w in prefix) for v in prefix]  # free values below v
        # lt[i][j]: the lanes where the entry at position i is below the one at j.
        lt = [
            [every if v < w else 0 for w in prefix] + [every ^ col[r] for col in below]
            for v, r in zip(prefix, ranks)
        ]
        lt += [[col[r] for r in ranks] + list(row) for col, row in zip(below, less)]
        count += lanes - _failing_lanes(lt, every, plan).bit_count()
    return count


@lru_cache(maxsize=None)
def _lane_tables(k: int) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    # Lane l stands for the l-th permutation s of range(k) in lex order.
    # every: all k! lanes.  below[j][r]: the lanes where s[j] < r, for
    # r = 0..k.  less[i][j]: the lanes where s[i] < s[j].  About 60 KB at k = 7.
    every = (1 << math.factorial(k)) - 1
    # s for lane l is flat[l*k : l*k + k]; column j, reversed, puts lane 0 on the low bit.
    flat = bytes(itertools.chain.from_iterable(itertools.permutations(range(k))))
    # For each r, a translate table that writes "1" for a byte v < r, else "0".
    digits = [bytes(48 + (v < r) for v in range(256)) for r in range(k + 1)]
    below = [tuple(int(flat[j::k][::-1].translate(d), 2) for d in digits) for j in range(k)]
    # s[i] < s[j] where s[i] = v and s[j] > v, for one v per lane: a disjoint sum.
    less = tuple(
        tuple(sum((below[i][v + 1] ^ below[i][v]) & ~below[j][v + 1] for v in range(k)) for j in range(k))
        for i in range(k)
    )
    return every, tuple(below), less


def _failing_lanes(lt: list[list[int]], every: int, plan: tuple) -> int:
    # The lanes of one block (lt, every as in census) where some occurrence
    # of the base does not extend.  Walks the position sets of the base in
    # lex order; masks[t] holds the lanes where the first t chosen positions
    # match the base, and a branch ends as soon as no lane is left.  The
    # floor and ceiling, indices m and m+1, bound no value.
    n = len(lt)
    bounds, left, right, lo, hi = plan[:5]
    m = len(bounds)
    bad = 0
    masks = [every] * (m + 1)
    occ = [0] * m + [-1, n]
    t = q = 0
    while True:
        if t == m:
            # Clear the lanes where some gap position extends the occurrence;
            # the empty base has one empty position set, and its gap is all.
            mask = masks[m]
            for x in range(occ[left] + 1, occ[right]):
                extends = lt[occ[lo]][x] if lo < m else every
                if hi < m:
                    extends &= lt[x][occ[hi]]
                mask &= ~extends
                if not mask:
                    break
            bad |= mask
            q = n + 1  # the last level holds this one position set
        if q > n - m + t:
            if t == 0:
                return bad
            t -= 1
            q = occ[t] + 1
            continue
        lo_ref, hi_ref = bounds[t]
        mask = masks[t]
        if lo_ref < m:
            mask &= lt[occ[lo_ref]][q]
        if hi_ref < m:
            mask &= lt[q][occ[hi_ref]]
        occ[t] = q
        q += 1
        if mask:
            t += 1
            masks[t] = mask
