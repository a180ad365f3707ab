"""Counting recurrences for the ``3(5)241`` class.

Three interlocking tables: ``a[n]`` counts class members of length n,
``ascent_start[n]`` counts members of length n+1 whose entries start with
an ascent at the bottom value (the convolution partner of ``a``), and
``by_first`` refines ``a`` by the value of the first entry.  A separate
route expresses ``a[n]`` as a sum over compositions of n weighted by how
many same-length compositions dominate them; dropping the dominance
weight collapses the sum to the Catalan numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from .perms import InvalidInputError, _checked_size, _within_limit

__all__ = [
    "RecurrenceTables",
    "bell_numbers",
    "catalan_numbers",
    "catalan_via_compositions",
    "compositions",
    "counts_via_dominance",
    "dominance_count",
    "recurrence_tables",
]

# The largest n_max the composition sums accept (2^(n-1) compositions of n).
COMPOSITION_LIMIT = 16


@dataclass(frozen=True)
class RecurrenceTables:
    """Joint tables a_n, c_n and the triangle a_{n,k}.

    ``a[n]`` is the class count for length n (n = 0..N); ``ascent_start``
    holds c_1..c_N; ``by_first[n-1]`` is the row (a_{n,1}, ..., a_{n,n})
    counting members of length n with first entry k.
    """

    a: tuple[int, ...]
    ascent_start: tuple[int, ...]
    by_first: tuple[tuple[int, ...], ...]


def recurrence_tables(n_max: int) -> RecurrenceTables:
    """Fill the three tables up to length ``n_max``.

    a_0 = c_1 = 1 and, for n >= 1:

    * a_n   = sum_{i<n} a_i * c_{n-i}
    * c_n   = sum_{i<n} i * a_{n-1,i}              (n >= 2)
    * a_{n,k} = sum_{i<k} a_i * sum_{j>=k-i} a_{n-1-i,j}   (k < n),
      and a_{n,n} = a_{n-1}.

    >>> t = recurrence_tables(4)
    >>> t.a
    (1, 1, 2, 6, 23)
    >>> t.ascent_start
    (1, 1, 3, 12)
    >>> t.by_first[2]
    (2, 2, 2)
    """
    _checked_size(n_max, "n_max", 1)
    a = [1]
    c = [1]
    rows: list[tuple[int, ...]] = []
    # diag[d] lists S_{m,m-d} = sum_{j>=m-d} a_{m,j} for m = d+1, d+2, ...
    # a_{n,k} reads S_{n-1-i,k-i} for i < k, all on diagonal d = n-1-k,
    # which after row n-1 holds exactly those k sums, the one for i = 0 last.
    diag: list[list[int]] = []
    for n in range(1, n_max + 1):
        if n >= 2:
            c.append(sum(map(mul, range(1, n), rows[n - 2])))
        a.append(sum(map(mul, a, reversed(c))))
        row = [sum(map(mul, a, reversed(diag[n - 1 - k]))) for k in range(1, n)]
        row.append(a[n - 1])
        rows.append(tuple(row))
        diag.append([])
        for d, total in enumerate(accumulate(reversed(row))):
            diag[d].append(total)
    return RecurrenceTables(tuple(a), tuple(c), tuple(rows))


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, first part descending then recursively so.

    There are 2^(n-1) of them, so n above ``COMPOSITION_LIMIT`` raises
    ResourceLimitError.

    >>> compositions(3)
    [(3,), (2, 1), (1, 2), (1, 1, 1)]
    """
    _checked_size(n, "n", 1)
    _within_limit("compositions", n, COMPOSITION_LIMIT)
    out: list[tuple[int, ...]] = []
    # Depth first; parts are pushed ascending so the largest pops first.
    stack: list[tuple[tuple[int, ...], int]] = [((), n)]
    while stack:
        prefix, remaining = stack.pop()
        if remaining == 0:
            out.append(prefix)
        else:
            stack.extend((prefix + (part,), remaining - part) for part in range(1, remaining + 1))
    return out


def dominance_count(comp: Sequence[int]) -> int:
    """Number of same-length compositions whose prefix sums dominate ``comp``.

    d dominates c when d_1+...+d_i >= c_1+...+c_i for every i (both have
    the same total, so the last prefix is automatic).

    >>> dominance_count((1, 2))
    2
    >>> dominance_count((1, 1, 1))
    1
    """
    c = tuple(_checked_size(x, "a composition part", 1) for x in comp)
    if not c:
        raise InvalidInputError("a composition needs at least one part")
    n = sum(c)
    r = len(c)
    prefix = []
    s = 0
    for x in c:
        s += x
        prefix.append(s)
    # g[s] = number of admissible d-prefixes with the current length and sum s
    g = [0] * (n + 1)
    g[0] = 1
    for i in range(1, r + 1):
        cum = 0
        cums = [0] * (n + 2)
        for s in range(n + 1):
            cum += g[s]
            cums[s + 1] = cum
        h = [0] * (n + 1)
        # after i parts the sum is at least prefix[i-1] and leaves >= 1 per remaining part
        for t in range(prefix[i - 1], n - (r - i) + 1):
            h[t] = cums[t]
        g = h
    return g[n]


def counts_via_dominance(n_max: int) -> list[int]:
    """Class counts a_0..a_{n_max} from the dominance-weighted composition sum.

    a_n = sum over compositions c of n of
    ``dominance_count(c) * prod a_{c_i - 1}``.

    >>> counts_via_dominance(4)
    [1, 1, 2, 6, 23]
    """
    return _composition_sum(n_max, weighted=True)


def catalan_via_compositions(n_max: int) -> list[int]:
    """Same composition sum with the dominance weight dropped: Catalan numbers.

    >>> catalan_via_compositions(4)
    [1, 1, 2, 5, 14]
    """
    return _composition_sum(n_max, weighted=False)


def _composition_sum(n_max: int, weighted: bool) -> list[int]:
    _checked_size(n_max, "n_max")
    # Refuse before any work; compositions(n) checks the same ceiling per n.
    _within_limit("composition sum", n_max, COMPOSITION_LIMIT)
    a = [1]
    for n in range(1, n_max + 1):
        total = 0
        for c in compositions(n):
            term = dominance_count(c) if weighted else 1
            for part in c:
                term *= a[part - 1]
            total += term
        a.append(total)
    return a


def bell_numbers(n_max: int) -> list[int]:
    """Bell numbers B_0..B_{n_max} via the standard triangle.

    >>> bell_numbers(5)
    [1, 1, 2, 5, 15, 52]
    """
    _checked_size(n_max, "n_max")
    bells = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        bells.append(nxt[0])
        row = nxt
    return bells[: n_max + 1]


def catalan_numbers(n_max: int) -> list[int]:
    """Catalan numbers C_0..C_{n_max} by the closed form binom(2n, n)/(n+1).

    >>> catalan_numbers(5)
    [1, 1, 2, 5, 14, 42]
    """
    _checked_size(n_max, "n_max")
    return [math.comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]
