"""Counting recurrences for the ``3(5)241`` class.

Three interlocking tables: ``a[n]`` counts class members of length n,
``ascent_start[n]`` counts members of length n+1 whose entries start with
an ascent at the bottom value (the convolution partner of ``a``), and
``by_first`` refines ``a`` by the value of the first entry.  A separate
route expresses ``a[n]`` as a sum over compositions of n weighted by how
many same-length compositions dominate them; dropping the dominance
weight collapses the sum to the Catalan numbers.  Neither sum lists the
compositions: one is a pass over non-crossing path pairs, one a convolution.
"""

from __future__ import annotations

import _thread
import marshal
import math
import os
import signal
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

from .perms import InvalidInputError, _as_tuple, _checked_size, _Record, _within_limit

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

# The largest n that compositions accepts (2^(n-1) compositions of n).
COMPOSITION_LIMIT = 16

# The largest total that dominance_count accepts.  Its cost grows with the
# total: the slowest shape found, r-1 ones and one large part, took 13-18 s
# at total 10000 (Python 3.11.7, 2 vCPUs).
DOMINANCE_LIMIT = 10000


class RecurrenceTables(_Record):
    """Joint tables a_n, c_n and the triangle a_{n,k}.

    ``a[n]`` is the class count for length n (n = 0..N); ``ascent_start``
    holds c_1..c_N; ``by_first[n-1]`` is the row (a_{n,1}, ..., a_{n,n})
    counting members of length n with first entry k.
    """

    __match_args__ = ("a", "ascent_start", "by_first")


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
    a: list[int] = [1]
    c: list[int] = [1]
    rows: list[tuple[int, ...]] = []
    # diag[d] lists S_{m,m-d} = sum_{j>=m-d} a_{m,j} for m = d+1, d+2, ...
    # a_{n,k} reads S_{n-1-i,k-i} for i < k, all on diagonal d = n-1-k,
    # which after row n-1 holds exactly those k sums, the one for i = 0 last.
    diag: list[list[int]] = []
    for n in range(1, n_max + 1):
        if n >= 2:
            c.append(sum(map(mul, range(1, n), rows[n - 2])))
        a.append(sum(map(mul, a, reversed(c))))
        # row[d] = a_{n,n-1-d}, the dot product along diagonal d.
        row = [sum(map(mul, a, reversed(diag[d]))) for d in range(n - 1)]
        row.reverse()
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
    the same total, so the last prefix is automatic).  A total above
    ``DOMINANCE_LIMIT`` raises ResourceLimitError.

    >>> dominance_count((1, 2))
    2
    >>> dominance_count((1, 1, 1))
    1
    """
    c = tuple(_checked_size(x, "a composition part", 1) for x in _as_tuple(comp, "a composition"))
    if not c:
        raise InvalidInputError("a composition needs at least one part")
    n = sum(c)
    _within_limit("dominance_count", n, DOMINANCE_LIMIT)
    r = len(c)
    # g[s] = number of admissible d-prefixes with the current length and sum s
    g = [1] + [0] * n
    for i, low in enumerate(accumulate(c), start=1):
        # after i parts the sum is at least c's prefix and leaves >= 1 per remaining part
        high = n - (r - i) + 1
        cums = [0, *accumulate(g)]
        g = [0] * (n + 1)
        g[low:high] = cums[low:high]
    return g[n]


def counts_via_dominance(n_max: int) -> list[int]:
    """Class counts a_0..a_{n_max} from the dominance-weighted composition sum.

    a_n = sum over compositions c of n of
    ``dominance_count(c) * prod a_{c_i - 1}``: a weighted count of pairs of
    non-crossing paths, same-length compositions (c, d) with d's partial
    sums never below c's.  Grouped by their sums (s, t), t >= s, they give
    H[s'][t'] = sum_{s<s'} a_{s'-s-1} * P[s][t'-1], where P[s] holds the
    prefix sums of H[s] over t, H[0][0] = 1 and a_n = H[n][n]: O(n_max^3).

    From ``SPLIT_MIN`` on, where at least two CPUs are available, the
    columns are filled in two blocks at once: this process fills the
    columns below 0.85 n_max and streams each row's term and prefix sum to
    a helper forked from it, which fills the rest and sends back the later
    terms.  The terms are the same exact integers on either route; when the
    helper cannot start or stops early, or another thread is running, this
    process fills every column.

    >>> counts_via_dominance(4)
    [1, 1, 2, 6, 23]
    """
    _checked_size(n_max, "n_max")
    # A fork copies only the calling thread, so a lock that another thread
    # holds would stay locked in the helper.
    if n_max >= SPLIT_MIN and _thread._count() == 0 and _cpu_count() >= 2:
        a = _split_counts(n_max)
        if a is not None:
            return a
    return _dominance_block(1, n_max)


def _dominance_block(
    lo: int,
    hi: int,
    receive: Callable[[], tuple[int, int]] | None = None,
    send: Callable[[int, int], object] | None = None,
) -> list[int]:
    """a_0..a_hi from rows 1..hi of H, filled over the columns t = lo..hi.

    A row s >= lo owns its diagonal and yields a_s = H[s][s].  A row s < lo
    lies partly left of the block: ``receive()`` gives its a_s and the prefix
    sum P[s][lo-1] of the columns left of it, after the row's own columns
    are filled, as those read only rows 0..s-1.  ``send(a_s, P[s][hi])``, if
    given, passes each row on to the block right of this one.  The block
    [1, n_max] alone is the whole sum.
    """
    a = [1]
    # cols[j] lists P[s][lo-1+j] for s = 0, 1, ...: P[0][t] = 1, P[s][t] = 0
    # for t < s.  Before row s, each column t-1 >= s-1 holds s = 0..s-1: as
    # many as a.
    cols = [[1] for _ in range(lo - 1, hi + 1)]
    for s in range(1, hi + 1):
        row = [sum(map(mul, reversed(a), col)) for col in cols[max(s, lo) - lo : hi - lo + 1]]
        if s >= lo:
            a.append(row[0])
            sums = zip(cols[s - lo + 1 :], accumulate(row))
        else:
            a_s, offset = receive()
            a.append(a_s)
            sums = zip(cols, accumulate(row, initial=offset))
        for col, total in sums:
            col.append(total)
        if send is not None:
            send(a[s], total)
    return a


# counts_via_dominance fills two column blocks at once from this n_max on.
# Forking the helper and reaping it takes about 2 ms.  Two blocks over one,
# median time ratio of 15 alternating runs (Python 3.11.7, 2 vCPUs): 1.00
# at n_max = 80 and 100, 0.80 at 120, 0.79 at 130, 0.76 at 150, 0.77 at
# 160, 0.73 at 300, 0.75 at 400.  The split would pay from about 120; the
# threshold stays at 160, so calls up to 150 still run in one process.
SPLIT_MIN = 160

# The helper's block starts at column m = n_max * SPLIT_PERCENT // 100.  The
# caller's rows s < m cost about s^3 (m - s) each and the helper's
# s^3 (n_max - m), and the helper's rows s >= m wait for the caller's last.
# A simulation of the two blocks from timed rows at n_max = 300 finished
# first at m = 0.85 n_max, and within 1 % of that from 0.83 to 0.87 n_max,
# where the caller's block is about half the work.
SPLIT_PERCENT = 85

def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _start_helper(ours, theirs, n_max: int, m: int) -> int:
    """Fork the helper on columns m..n_max, which talks through ``theirs``; its pid."""
    pid = os.fork()
    if pid == 0:
        # The helper leaves only here, so it never returns into the caller's
        # frames, flushes the caller's buffers or runs its exit handlers.
        # Closing ``ours`` leaves it to the caller, whose exit then ends the
        # helper's input.
        try:
            ours.close()
            _serve_right_block(theirs, n_max, m)
        finally:
            os._exit(0)
    return pid


def _split_counts(n_max: int) -> list[int] | None:
    """a_0..a_{n_max} from two column blocks, or None if the helper failed."""
    import socket

    # Rows go to the helper through a socket, sent with MSG_NOSIGNAL: a write
    # to a helper that has died then raises BrokenPipeError.  Through a pipe
    # it would raise SIGPIPE, whose default action, which the CLI restores,
    # ends the caller.
    flags = getattr(socket, "MSG_NOSIGNAL", None)
    if flags is None:
        return None
    m = n_max * SPLIT_PERCENT // 100
    try:
        ours, theirs = socket.socketpair()
    except OSError:
        return None
    pid = None
    with ours:
        try:
            pid = _start_helper(ours, theirs, n_max, m)
            # Once the helper holds the only other end, its exit makes our
            # next write fail instead of filling the buffer.
            theirs.close()
            a = _dominance_block(1, m - 1, send=lambda *row: ours.sendall(marshal.dumps(row), flags))
            with ours.makefile("rb") as replies:
                tail = marshal.load(replies)
        except (OSError, EOFError, ValueError):  # no helper, or it stopped
            return None
        finally:
            theirs.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return a + tail


def _serve_right_block(theirs, n_max: int, m: int) -> None:
    """The helper's side: rows 1..n_max over columns m..n_max, from ``theirs``."""
    with theirs.makefile("rb") as rows:
        a = _dominance_block(m, n_max, receive=lambda: marshal.load(rows))
    # A caller that has gone by now ends the helper, by SIGPIPE or by
    # BrokenPipeError, and nothing reads the terms.
    theirs.sendall(marshal.dumps(a[m:]))


def catalan_via_compositions(n_max: int) -> list[int]:
    """Same composition sum with the dominance weight dropped: Catalan numbers.

    Unweighted, it is [x^n] 1/(1 - x A(x)), so A = 1 + x A^2: a convolution.

    >>> catalan_via_compositions(4)
    [1, 1, 2, 5, 14]
    """
    _checked_size(n_max, "n_max")
    a = [1]
    for _ in range(n_max):
        a.append(sum(map(mul, a, reversed(a))))
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
