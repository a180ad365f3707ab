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

import marshal
import math
import os
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Sequence

from .perms import InvalidInputError, _as_tuple, _checked_size, _within_limit

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

# Rows past this one are split with a partner process when the tables reach
# at least twice as far: shorter tables, and the rows before it, cost less
# than the fork and the per-row exchanges save.
_SPLIT_ROW = 60

# Nonblocking polls of the link before a blocking receive: the other half of
# a row is usually tens of microseconds away, and waking a sleeping process
# costs more than that.
_SPIN = 5000


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

    From n_max = 120 on, when this process may run on two CPUs and can
    fork, a partner process computes half of each row past row 60; the
    tables are the same either way.

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
    tables = a, c, rows, diag
    if n_max >= 2 * _SPLIT_ROW and _usable_cpus() >= 2 and _can_fork():
        _fill(tables, _SPLIT_ROW)
        _fill_in_pair(tables, n_max)
    else:
        _fill(tables, n_max)
    return RecurrenceTables(tuple(a), tuple(c), tuple(rows))


def _fill(tables: tuple[list, list, list, list], n_max: int, link: _Link | None = None) -> None:
    # Extend a, c, rows and diag through row n_max.  With a link, this process
    # computes the entries on diagonals of its parity and the link delivers
    # the others; an entry it does not deliver is computed here.
    a, c, rows, diag = tables
    for n in range(len(rows) + 1, n_max + 1):
        if n >= 2:
            c.append(sum(map(mul, range(1, n), rows[n - 2])))
        a.append(sum(map(mul, a, reversed(c))))
        # entries[d] = a_{n,n-1-d}, the dot product along diagonal d.
        entries: list[int | None] = [None] * (n - 1)
        for d in range(n - 1) if link is None else range(link.parity, n - 1, 2):
            entries[d] = sum(map(mul, a, reversed(diag[d])))
        if link is not None and not link.swap(entries):
            link = None
        row = [sum(map(mul, a, reversed(diag[d]))) if e is None else e for d, e in enumerate(entries)]
        row.reverse()
        row.append(a[n - 1])
        rows.append(tuple(row))
        diag.append([])
        for d, total in enumerate(accumulate(reversed(row))):
            diag[d].append(total)


def _usable_cpus() -> int:
    # The CPUs this process may run on, or 1 where the platform cannot tell.
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _can_fork() -> bool:
    # A fork copies only the calling thread, so a process with others never forks.
    import _thread

    return hasattr(os, "fork") and _thread._count() == 0


def _fill_in_pair(tables: tuple[list, list, list, list], n_max: int) -> None:
    # Fork a partner that fills the odd diagonals of every row while this
    # process fills the even ones; both keep the whole state.  The partner
    # leaves only through os._exit, so it never returns into the caller or
    # flushes the stdio it inherited, and it is reaped here, whatever happens.
    # _socket, not socket, which would add selectors and enum to the first call.
    import _socket

    try:
        lead, follow = _socket.socketpair()
    except OSError:
        return _fill(tables, n_max)
    try:
        pid = os.fork()
    except OSError:
        lead.close()
        follow.close()
        return _fill(tables, n_max)
    if pid == 0:
        code = 1
        try:
            lead.close()
            import gc

            gc.disable()  # a collection would copy pages the caller still shares
            _fill(tables, n_max, _Link(follow, 1))
            code = 0
        finally:
            os._exit(code)
    try:
        follow.close()
        _fill(tables, n_max, _Link(lead, 0))
    finally:
        lead.close()
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # SIGCHLD ignored: the system reaped it
            pass


class _Link:
    """One end of the socket pair: swaps a row's halves with the other process.

    Parity 0 is the caller: it sends its half first, and a lost partner
    makes swap return False.  Parity 1 is the partner: it sends first only a
    half that fits a quarter of the socket's buffer, so the two sends never
    wait on each other, and a lost caller raises.  MSG_NOSIGNAL keeps a
    send to a dead peer from raising SIGPIPE, which the CLI leaves at its
    default action.
    """

    def __init__(self, sock, parity: int) -> None:
        import _socket

        self.sock, self.parity, self.flags = sock, parity, _socket.MSG_NOSIGNAL
        self.nowait = _socket.MSG_DONTWAIT
        self.room = sock.getsockopt(_socket.SOL_SOCKET, _socket.SO_SNDBUF) // 4

    def swap(self, entries: list) -> bool:
        own, theirs = slice(self.parity, None, 2), slice(1 - self.parity, None, 2)
        payload = marshal.dumps(entries[own])
        frame = len(payload).to_bytes(8, "little") + payload
        early = self.parity == 0 or len(frame) <= self.room
        try:
            if early:
                self.sock.sendall(frame, self.flags)
            got = self._receive()
            if not early:
                self.sock.sendall(frame, self.flags)
            if type(got) is not list or len(got) != len(entries[theirs]):
                raise EOFError("a half of the wrong size")
        except (OSError, EOFError, ValueError, TypeError):
            if self.parity:
                raise
            return False
        entries[theirs] = got
        return True

    def _receive(self) -> object:
        return marshal.loads(self._read(int.from_bytes(self._read(8), "little")))

    def _read(self, size: int) -> bytearray:
        data = bytearray(size)
        view = memoryview(data)
        while view:
            for _ in range(_SPIN):
                try:
                    got = self.sock.recv_into(view, 0, self.nowait)
                    break
                except BlockingIOError:
                    pass
            else:
                got = self.sock.recv_into(view)
            if not got:
                raise EOFError("the other process closed the link")
            view = view[got:]
        return data


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
    c = tuple(_checked_size(x, "a composition part", 1) for x in _as_tuple(comp, "a composition"))
    if not c:
        raise InvalidInputError("a composition needs at least one part")
    n = sum(c)
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

    >>> counts_via_dominance(4)
    [1, 1, 2, 6, 23]
    """
    _checked_size(n_max, "n_max")
    a = [1]
    # cols[t] lists P[s][t] for s = 0..t (P[s][t] = 0 for t < s).  Before
    # row s', each column t'-1 >= s'-1 holds s = 0..s'-1: as many as a.
    cols = [[1] for _ in range(n_max + 1)]
    for s in range(1, n_max + 1):
        row = [sum(map(mul, reversed(a), cols[t - 1])) for t in range(s, n_max + 1)]
        a.append(row[0])
        for col, total in zip(cols[s:], accumulate(row)):
            col.append(total)
    return a


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
