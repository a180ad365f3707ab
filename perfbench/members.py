"""Members of the 3(5)241 class, built from the class's LRmax-factor structure.

A permutation is in the class iff the tails of its left-to-right-maximum
factorization are value-ordered (every entry of an earlier tail is below
every entry of a later tail) and each tail is itself in the class.  This
module builds members from that description, enumerates them exhaustively
at small n, and recognises them, without importing eigenperm: the benchmark
hands the program inputs whose answers it already knows.

A member of length m is laid out from
  * k >= 1 factors with tail sizes t_1..t_k summing to m - k,
  * head ranks h_i = c_i + i, where c_i counts the non-head values below
    head i: c is nondecreasing, c_i >= t_1 + ... + t_i and c_k = m - k,
  * tail i holding the i-th block of consecutive non-head values, arranged
    as a member of length t_i.
Every member arises from exactly one such choice, which is what makes the
exhaustive enumerator count the class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

Perm = tuple[int, ...]

# Below this many entries a deep chain hands over to the shape's own policy.
CHAIN_CORE = 40


@dataclass(frozen=True)
class Shape:
    """How a generated member's factors are chosen, at every nesting level.

    ``fan``: about m**fan factors for m entries, so a small fan nests deeply
    and a large one makes many short tails.  ``loosen``: 0 puts every head as
    low as the tails allow; 1 raises each by up to a quarter of the slack.
    ``chain``: first nest about one level per entry (the maximum first, with
    now and then a second head) down to CHAIN_CORE entries.
    """

    fan: float
    loosen: float = 0.0
    chain: bool = False


@dataclass(frozen=True)
class Member:
    """A generated member and the properties the benchmark reports."""

    perm: Perm
    factors: int  # LRmax factor count at the top level
    depth: int  # nesting depth of tails with at least 4 entries

    @property
    def max_first(self) -> bool:
        return self.factors == 1


def _tails(m: int, level: int, shape: Shape, rng: random.Random) -> list[int]:
    if shape.chain and m >= CHAIN_CORE:
        if rng.random() < 0.02:
            a = rng.randint(1, 2)
            return [a, m - 2 - a]
        return [m - 1]
    k = max(1, min(m, round(m ** shape.fan)))
    # Near-equal tail sizes keep the cost of same-shape members close.
    weights = [rng.uniform(0.7, 1.3) for _ in range(k)]
    scale = (m - k) / sum(weights)
    sizes = [int(w * scale) for w in weights]
    for _ in range(m - k - sum(sizes)):
        sizes[rng.randrange(k)] += 1
    return sizes


def _head_counts(tails: list[int], loosen: float, rng: random.Random) -> list[int]:
    total = sum(tails)
    c, prefix, lo = [], 0, 0
    for t in tails[:-1]:
        prefix += t
        lo = max(lo, prefix)
        lo += int(loosen * rng.random() * (total - lo) / 4)
        c.append(lo)
    c.append(total)
    return c


def _layout(m: int, tails: list[int], c: list[int]) -> tuple[list[int], list[list[int]]]:
    """Heads' values and each tail's sorted values, on the values 1..m."""
    heads = [ci + i for i, ci in enumerate(c, start=1)]
    head_set = set(heads)
    rest = [v for v in range(1, m + 1) if v not in head_set]
    blocks, start = [], 0
    for t in tails:
        blocks.append(rest[start:start + t])
        start += t
    return heads, blocks


def build(m: int, shape: Shape, rng: random.Random) -> Member:
    """A seeded member of length m.  Iterative, so any nesting depth works."""
    out = [0] * m
    # Task: fill out[pos:pos+len(values)] with a member on ``values``.
    stack = [(0, list(range(1, m + 1)), 0)]
    factors = depth = 0
    while stack:
        pos, values, level = stack.pop()
        size = len(values)
        if size == 0:
            continue
        tails = _tails(size, level, shape, rng)
        if level == 0:
            factors = len(tails)
        if size >= 4:
            depth = max(depth, level + 1)
        heads, blocks = _layout(size, tails, _head_counts(tails, shape.loosen, rng))
        for head, block in zip(heads, blocks):
            out[pos] = values[head - 1]
            stack.append((pos + 1, [values[v - 1] for v in block], level + 1))
            pos += 1 + len(block)
    return Member(tuple(out), factors, depth)


def factor_count(p: Perm) -> int:
    """Number of left-to-right maxima of p."""
    count = head = 0
    for v in p:
        if v > head:
            head = v
            count += 1
    return count


def is_member(p: Perm) -> bool:
    """The structural test, iterative, on any word of distinct values."""
    stack = [p]
    while stack:
        q = stack.pop()
        if len(q) < 4:
            continue
        tails: list[list[int]] = []
        head = 0
        for v in q:
            if v > head:
                head = v
                tails.append([])
            else:
                tails[-1].append(v)
        floor = 0
        for tail in tails:
            if tail:
                if min(tail) < floor:
                    return False
                floor = max(tail)
        stack.extend(tuple(t) for t in tails if len(t) >= 4)
    return True


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _all_head_counts(tails: tuple[int, ...]) -> Iterator[list[int]]:
    # Every nondecreasing c with c_i >= t_1 + ... + t_i and c_k = sum(tails).
    total = sum(tails)
    prefix = list(itertools.accumulate(tails))

    def rec(i: int, lo: int) -> Iterator[list[int]]:
        if i == len(tails) - 1:
            yield [total]
            return
        for ci in range(max(lo, prefix[i]), total + 1):
            for rest in rec(i + 1, ci):
                yield [ci] + rest

    return rec(0, 0)


def all_members(n: int) -> list[list[Perm]]:
    """Every member of length 0..n, by length, in a fixed order."""
    table: list[list[Perm]] = [[()]]
    for m in range(1, n + 1):
        found: list[Perm] = []
        for k in range(1, m + 1):
            for tails in _weak_compositions(m - k, k):
                for c in _all_head_counts(tails):
                    heads, blocks = _layout(m, list(tails), c)
                    for inner in itertools.product(*(table[len(b)] for b in blocks)):
                        word: list[int] = []
                        for head, block, arrangement in zip(heads, blocks, inner):
                            word.append(head)
                            word.extend(block[v - 1] for v in arrangement)
                        found.append(tuple(word))
        table.append(found)
    return table


def neighbours(p: Perm, rng: random.Random) -> Iterator[Perm]:
    """p with one pair of positions swapped, every pair once, in seeded order."""
    pairs = list(itertools.combinations(range(len(p)), 2))
    rng.shuffle(pairs)
    for i, j in pairs:
        q = list(p)
        q[i], q[j] = q[j], q[i]
        yield tuple(q)
