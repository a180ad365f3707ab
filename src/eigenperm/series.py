"""Truncated integer power series and the self-composition shift sequence.

Series here have zero constant term: ``coeffs[i]`` is the coefficient of
``x**(i+1)``.  All arithmetic is exact over Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Sequence

from .perms import InvalidInputError, _checked_size, _echo

__all__ = ["PowerSeries", "compose", "eigensequence", "verify_shift"]


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients of x^1 .. x^N for a series with zero constant term."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) < 1:
            raise InvalidInputError("a series needs at least the x^1 coefficient")
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InvalidInputError(f"coefficients must be ints, got {_echo(c)}")

    @property
    def order(self) -> int:
        """The truncation order N."""
        return len(self.coeffs)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series x, truncated at the given order."""
        _checked_size(order, "order", 1)
        return cls((1,) + (0,) * (order - 1))


def _power_columns(b: Sequence[int]) -> Iterator[list[int]]:
    """Yield the columns m = 1, 2, ... of the power table of B = sum b_i x^i.

    Entry k-1 of column m is [x^m] B^k for k = 1..m, by
    [x^m] B^k = sum_j b_j [x^(m-j)] B^(k-1).  Column m reads only
    b_1..b_m, so a caller may append b_(m+1) to ``b`` before asking for
    the next column; the columns run out when ``b`` does.
    """
    # rows[k-1] lists [x^m] B^k for m = k, k+1, ...; until column m is
    # added, row k-1 ends at x^(m-1), so b_1 pairs with its last entry.
    rows: list[list[int]] = []
    while len(rows) < len(b):
        col = [b[len(rows)]] + [sum(map(mul, b, reversed(row))) for row in rows]
        rows.append([])
        for row, entry in zip(rows, col):
            row.append(entry)
        yield col


def compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """The composition outer(inner(x)), truncated at the shared order.

    >>> b = PowerSeries((1, 1, 0, 0))
    >>> compose(b, b).coeffs
    (1, 2, 2, 1)
    """
    if outer.order != inner.order:
        raise InvalidInputError(
            f"truncation orders differ: {outer.order} != {inner.order}"
        )
    a = outer.coeffs
    return PowerSeries(
        tuple(sum(map(mul, a, col)) for col in _power_columns(inner.coeffs))
    )


def eigensequence(order: int) -> list[int]:
    """First ``order`` terms of the monic sequence whose series shifts left
    under self-composition: ``[x^n] B(B(x)) = b_{n+1}`` with ``b_1 = 1``.

    >>> eigensequence(7)
    [1, 1, 2, 6, 23, 104, 531]
    """
    _checked_size(order, "order", 1)
    b = [1]
    columns = _power_columns(b)
    while len(b) < order:
        b.append(sum(map(mul, b, next(columns))))
    return b


def verify_shift(terms: Iterable[int], order: int) -> bool:
    """Check the shift property ``[x^n] B(B(x)) = b_{n+1}`` for n < order.

    ``terms`` supplies b_1, b_2, ...; at least ``order`` terms are needed.

    >>> verify_shift([1, 1, 2, 6, 23], 5)
    True
    >>> verify_shift([1, 1, 1, 1, 1], 3)
    False
    """
    _checked_size(order, "order", 1)
    ts = list(terms)
    if len(ts) < order:
        raise InvalidInputError("need at least `order` terms")
    if order == 1:
        return True
    prefix = PowerSeries(tuple(ts[: order - 1]))
    comp = compose(prefix, prefix).coeffs
    return all(comp[n - 1] == ts[n] for n in range(1, order))
