import functools
import inspect

import pytest
from hypothesis import given, strategies as st

import bouncepaths
from bouncepaths.closed_forms import Restriction, Slope, Step
from bouncepaths.series import (
    NonUnitConstantTerm,
    Series,
    ValuationMismatch,
)


def S(*coeffs):
    return Series(tuple(coeffs))


def series_strategy(max_order=8, max_coeff=9):
    return st.lists(
        st.integers(-max_coeff, max_coeff), min_size=1, max_size=max_order + 1
    ).map(lambda cs: Series(tuple(cs)))


def same_order_pairs():
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
            st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
        ).map(lambda ab: (Series(tuple(ab[0])), Series(tuple(ab[1]))))
    )


# ----------------------------------------------------------------- basics


def test_construction_and_accessors():
    a = S(1, 2, 3)
    assert a.order == 2
    assert a.coeffs[0] == 1
    assert a.coefficient(2) == 3
    assert Series([0, 1]).coeffs == (0, 1)  # lists are accepted and frozen
    with pytest.raises(IndexError, match="^coefficient 3 beyond truncation order 2$"):
        a.coefficient(3)
    with pytest.raises(IndexError, match=r"^coefficient -1 is below x\^0$"):
        a.coefficient(-1)
    with pytest.raises(ValueError):
        Series(())


def test_helpers():
    assert Series.zero(2) == S(0, 0, 0)
    assert Series.one(2) == S(1, 0, 0)
    assert Series.x(3) == S(0, 1, 0, 0)
    assert 7 + Series.zero(1) == S(7, 0)
    assert S(0, 0, 5).valuation() == 2
    assert Series.zero(4).valuation() is None
    assert S(1, 2, 3, 4).truncate(1) == S(1, 2)


# one argument per parameter name of the exported functions that take an order
ARGUMENTS = {
    "slope": Slope(2, 1), "restriction": Restriction.EE, "first": Step.E, "last": Step.N,
    "alpha": 2, "total_bounces": 1, "max_left": 2, "max_right": 2, "order": -1,
}


def negative_order_calls():
    for name in bouncepaths.__all__:
        fn = getattr(bouncepaths, name)
        if inspect.isfunction(fn) and "order" in inspect.signature(fn).parameters:
            args = {p: ARGUMENTS[p] for p in inspect.signature(fn).parameters}
            yield pytest.param(functools.partial(fn, **args), id=name)
    yield pytest.param(functools.partial(Series.one, -1), id="Series.one")
    yield pytest.param(functools.partial(Series.zero, -1), id="Series.zero")
    yield pytest.param(functools.partial(Series.x, -1), id="Series.x")
    yield pytest.param(functools.partial(S(1, 2, 3).truncate, -3), id="Series.truncate")


@pytest.mark.parametrize("call", negative_order_calls())
def test_a_negative_order_is_refused(call):
    with pytest.raises(ValueError, match="^a series needs at least its constant coefficient$"):
        call()


def test_addition():
    assert S(1, 1) + S(0, 0) == S(1, 1)
    assert S(1, 1) + S(-1, -1) == S(0, 0)
    assert S(0, 1, 2) + S(0, 0, 1) == S(0, 1, 3)
    # int coercion touches only the constant term
    assert 1 + S(0, 5) == S(1, 5)
    assert S(0, 5) - 1 == S(-1, 5)
    assert 1 - S(1, 5) == S(0, -5)


def test_multiplication():
    a = S(3, -1, 4)
    assert a * Series.one(2) == a
    assert (S(1, 1, 0) * S(1, -1, 0)) == S(1, 0, -1)
    sq = S(0, 1, 1, 2, 0) * S(0, 1, 1, 2, 0)
    assert sq == S(0, 0, 1, 2, 5)
    assert a * 2 == S(6, -2, 8)
    assert -a == S(-3, 1, -4)


def test_mul_truncates_to_min_order():
    a = S(1, 1, 1, 1)
    b = S(1, 1)
    assert (a * b).order == 1
    assert a * b == S(1, 2)


def test_pow():
    x = Series.x(4)
    assert x**0 == Series.one(4)
    assert x**2 == S(0, 0, 1, 0, 0)
    assert (1 + x) ** 3 == S(1, 3, 3, 1, 0)
    with pytest.raises(ValueError):
        x**-1


def test_reciprocal_geometric():
    assert S(1, -1, 0, 0).reciprocal() == S(1, 1, 1, 1)
    assert Series.one(0).reciprocal() == Series.one(0)


def test_reciprocal_frozen_case():
    a = S(1, 1, 2, 6)
    r = a.reciprocal()
    assert r == S(1, -1, -1, -3)
    assert a * r == Series.one(3)


def test_reciprocal_negative_unit():
    a = S(-1, 2, 1)
    assert a * a.reciprocal() == Series.one(2)


def test_reciprocal_requires_unit():
    with pytest.raises(NonUnitConstantTerm):
        S(2, 1).reciprocal()
    with pytest.raises(NonUnitConstantTerm):
        S(0, 1).reciprocal()


def test_div_monomial_cancellation():
    # x^2 / x = x, with the order dropping by the cancelled valuation
    q = S(0, 0, 1).div(S(0, 1, 0))
    assert q == S(0, 1)
    assert q.order == 1


def test_div_frozen_case():
    q = S(0, 1, 2, 5).div(S(1, 1, 1, 2))
    assert q == S(0, 1, 1, 3)
    assert q * S(1, 1, 1, 2) == S(0, 1, 2, 5)


def test_div_valuation_mismatch():
    with pytest.raises(ValuationMismatch):
        S(1, 1).div(S(0, 1))
    with pytest.raises(ZeroDivisionError):
        S(1, 1).div(S(0, 0))
    with pytest.raises(NonUnitConstantTerm):
        S(0, 0, 1).div(S(0, 2, 1))  # cofactor after cancelling x is not a unit


def test_repr_is_readable():
    assert "x^2" in repr(S(0, 0, 3))
    assert repr(Series.zero(1)) == "Series[1](0)"


# ---------------------------------------------------------------- properties


@given(same_order_pairs(), series_strategy())
def test_ring_axioms(pair, c):
    a, b = pair
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series_strategy(), st.sampled_from([1, -1]))
def test_reciprocal_round_trip(a, unit):
    u = Series((unit,) + a.coeffs[1:])
    assert u * u.reciprocal() == Series.one(u.order)


@given(same_order_pairs())
def test_div_round_trip(pair):
    q, b = pair
    unit = Series((1,) + b.coeffs[1:])
    assert (q * unit).div(unit) == q


@given(same_order_pairs(), st.integers(0, 3))
def test_div_with_valuation_round_trip(pair, shift):
    q, b = pair
    if q.order < shift:
        return
    unit = Series((1,) + b.coeffs[1:])
    shifted = Series((0,) * shift + unit.coeffs)  # x^shift * unit, higher order
    product = q * shifted.truncate(q.order)
    quotient = product.div(shifted.truncate(q.order))
    assert quotient.coeffs == q.coeffs[: quotient.order + 1]


@given(same_order_pairs(), st.integers(0, 8))
def test_truncation_consistency(pair, m):
    a, b = pair
    m = min(m, a.order)
    assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
    assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)


def schoolbook_product(a, b):
    """Literal schoolbook product truncated to the smaller order."""
    n = min(a.order, b.order)
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return Series(tuple(out))


def prefixed_series():
    """Series of order 0..10 whose first 0..order+1 coefficients are zero,
    so all-zero series and every valuation up to the order occur."""
    return st.integers(0, 10).flatmap(
        lambda n: st.tuples(
            st.integers(0, n + 1),
            st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
        ).map(lambda zc: Series((0,) * zc[0] + tuple(zc[1][zc[0]:])))
    )


@given(prefixed_series(), prefixed_series())
def test_mul_matches_schoolbook(a, b):
    product = a * b
    assert product == schoolbook_product(a, b)
    assert product.order == min(a.order, b.order)


# ------------------------------------------------ squares and long division


def reference_div(a, d):
    """Division as reciprocal then product: r_n = -d_0 sum_j d_j r_(n-j)
    for the cofactor after cancelling x^m, then the numerator times r."""
    m = d.valuation()
    n = min(a.order, d.order) - m
    c = d.coeffs[m : m + n + 1]
    r = [c[0]] + [0] * n
    for k in range(1, n + 1):
        r[k] = -c[0] * sum(c[j] * r[k - j] for j in range(1, k + 1))
    return schoolbook_product(Series(a.coeffs[m : m + n + 1]), Series(tuple(r)))


@st.composite
def division_cases(draw):
    """(numerator, divisor) of orders 0..40, unequal in general; the divisor
    is x^m times a cofactor with constant term +1 or -1, m in 0..3, and the
    numerator vanishes through x^(m-1) and may have a longer zero prefix."""
    m = draw(st.integers(0, 3))
    d_order = draw(st.integers(m, 40))
    a_order = draw(st.integers(m, 40))
    cofactor = draw(st.lists(st.integers(-9, 9), min_size=d_order - m, max_size=d_order - m))
    d = Series((0,) * m + (draw(st.sampled_from([1, -1])),) + tuple(cofactor))
    zeros = draw(st.integers(m, a_order + 1))
    tail = draw(st.lists(st.integers(-9, 9), min_size=a_order + 1 - zeros,
                         max_size=a_order + 1 - zeros))
    return Series((0,) * zeros + tuple(tail)), d


@given(division_cases())
def test_div_matches_reciprocal_then_product(case):
    a, d = case
    q = a.div(d)
    assert q == reference_div(a, d)
    assert q.order == min(a.order, d.order) - d.valuation()


@given(division_cases())
def test_reciprocal_matches_reference(case):
    _, d = case
    unit = Series(d.coeffs[d.valuation():])
    assert unit.reciprocal() == reference_div(Series.one(unit.order), unit)


def deep_prefixed_series():
    """Series of order 0..40 with a zero prefix of any length, all-zero included."""
    return st.integers(0, 40).flatmap(
        lambda n: st.tuples(
            st.integers(0, n + 1),
            st.lists(st.integers(-99, 99), min_size=n + 1, max_size=n + 1),
        ).map(lambda zc: Series((0,) * zc[0] + tuple(zc[1][zc[0]:])))
    )


@given(deep_prefixed_series())
def test_square_matches_product_with_an_equal_copy(a):
    square = a * a
    assert square == a * Series(a.coeffs)
    assert square == schoolbook_product(a, a)
    assert (a**2) == square


def test_square_edge_cases():
    assert Series.zero(3) * Series.zero(3) == Series.zero(3)
    assert S(5) * S(5) == S(25)
    assert S(0) * S(0) == S(0)
    a = S(0, 0, 3, -1, 2)
    assert a * a == S(0, 0, 0, 0, 9)
    b = S(0, 2, 3, 0, 0)
    assert b * b == S(0, 0, 4, 12, 9)
