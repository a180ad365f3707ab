from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenperm import InvalidInputError, PowerSeries, compose, eigensequence, verify_shift
from eigenperm.series import _power_columns

coeff_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=7)

EIGEN_10 = (1, 1, 2, 6, 23, 104, 531, 2982, 18109, 117545)


def test_power_series_validation():
    with pytest.raises(InvalidInputError):
        PowerSeries(())
    with pytest.raises(InvalidInputError):
        PowerSeries((1, 2.0))
    s = PowerSeries((1, 0, 3))
    assert s.order == 3
    assert PowerSeries.identity(4).coeffs == (1, 0, 0, 0)


def test_compose_known_values():
    # (x + x^2) o (x + x^2) = x + 2x^2 + 2x^3 + x^4
    b = PowerSeries((1, 1, 0, 0))
    assert compose(b, b).coeffs == (1, 2, 2, 1)
    # x/(1-x) composed with itself is x/(1-2x)
    geom = PowerSeries((1,) * 6)
    assert compose(geom, geom).coeffs == (1, 2, 4, 8, 16, 32)


@given(coeff_lists, coeff_lists)
def test_compose_matches_naive_expansion(a, b):
    # outer(inner) = sum_k a_k inner^k, powers by schoolbook multiplication
    order = min(len(a), len(b))
    inner = [0] + b[:order]  # index i holds [x^i]
    expected = [0] * (order + 1)
    power = [1] + [0] * order
    for ak in a[:order]:
        power = [
            sum(power[j] * inner[i - j] for j in range(i + 1)) for i in range(order + 1)
        ]
        expected = [e + ak * c for e, c in zip(expected, power)]
    outer = PowerSeries(tuple(a[:order]))
    assert compose(outer, PowerSeries(tuple(b[:order]))).coeffs == tuple(expected[1:])


def test_compose_requires_matching_order():
    with pytest.raises(InvalidInputError):
        compose(PowerSeries((1, 1)), PowerSeries((1, 1, 1)))


@given(coeff_lists)
def test_identity_is_neutral_for_compose(coeffs):
    s = PowerSeries(tuple(coeffs))
    x = PowerSeries.identity(s.order)
    assert compose(s, x) == s
    assert compose(x, s) == s


@given(coeff_lists, coeff_lists, coeff_lists)
def test_compose_is_associative_on_truncations(a, b, c):
    order = min(len(a), len(b), len(c))
    pa = PowerSeries(tuple(a[:order]))
    pb = PowerSeries(tuple(b[:order]))
    pc = PowerSeries(tuple(c[:order]))
    assert compose(compose(pa, pb), pc) == compose(pa, compose(pb, pc))


def test_power_columns_grow_online_as_naive_powers():
    # Fed one term per column, as eigensequence feeds it, column m must be
    # [x^m] B^k for k = 1..m with B the final list, powered by schoolbook.
    rng = random.Random(9)
    for _ in range(40):
        final = [rng.choice((0, 0, 1, -1, rng.randint(-50, 50))) for _ in range(rng.randint(1, 25))]
        b = final[:1]
        columns = []
        for col in _power_columns(b):
            columns.append(col)
            if len(b) < len(final):
                b.append(final[len(b)])
        order = len(final)
        inner = [0] + final  # index i holds [x^i]
        power = [1] + [0] * order
        expected = [[] for _ in range(order)]
        for _k in range(order):
            power = [sum(power[j] * inner[i - j] for j in range(i + 1)) for i in range(order + 1)]
            for m in range(1, order + 1):
                if len(expected[m - 1]) < m:
                    expected[m - 1].append(power[m])
        assert columns == expected


def test_eigensequence_frozen_prefix():
    assert tuple(eigensequence(10)) == EIGEN_10
    assert eigensequence(1) == [1]
    with pytest.raises(InvalidInputError):
        eigensequence(0)


def test_eigensequence_terms_are_stable_under_extension():
    assert eigensequence(12)[:10] == list(EIGEN_10)


def test_verify_shift():
    assert verify_shift(EIGEN_10, 10)
    broken = list(EIGEN_10)
    broken[6] += 1
    assert not verify_shift(broken, 10)
    assert verify_shift(eigensequence(25), 25)
    assert verify_shift(eigensequence(120), 120)


@pytest.mark.parametrize(
    "terms, order",
    [([1, True], 2), ([1, 1, 2, 6, 23.0], 5), ([1, "a"], 2), (["x"], 1), ([True, 1], 2)],
)
def test_verify_shift_checks_every_term_it_reads(terms, order):
    with pytest.raises(InvalidInputError):
        verify_shift(terms, order)
