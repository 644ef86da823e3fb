import math

import pytest
from hypothesis import given, strategies as st

from bouncepaths.closed_forms import (
    NonIntegerCoefficient,
    Restriction,
    Slope,
    Step,
    _exact,
    binomial,
    fuss_catalan,
    g_ab_series,
    g_prefix_series,
    g_series,
)
from bouncepaths.series import Series
from bouncepaths.verify import coprime_slopes


def coeffs(series, start=1):
    return list(series.coeffs[start:])


# ----------------------------------------------------------------- binomial


def test_binomial_values():
    assert binomial(10, 4) == 210
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 60), st.integers(-5, 65))
def test_binomial_matches_stdlib(m, n):
    expected = math.comb(m, n) if 0 <= n <= m else 0
    assert binomial(m, n) == expected


def test_an_inexact_coefficient_is_refused_by_name():
    with pytest.raises(NonIntegerCoefficient, match="^g: coefficient 3 is not an integer$"):
        _exact(7, 2, "g", 3)


# -------------------------------------------------------------------- slope


def test_slope_validation():
    assert Slope(2, 3).transpose() == Slope(3, 2)
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(0, 1)


def test_restriction_steps():
    assert Restriction.EN.first is Step.E
    assert Restriction.EN.last is Step.N
    assert Restriction.ALL.first is None


# ------------------------------------------------------------------- series


def test_g_series_values():
    assert coeffs(g_series(Slope(1, 1), 3)) == [2, 6, 20]
    assert coeffs(g_series(Slope(2, 3), 2)) == [10, 210]
    assert g_series(Slope(3, 4), 5).coeffs[0] == 0


def test_g_ab_series_values():
    assert coeffs(g_ab_series(Slope(2, 1), Step.E, Step.E, 3)) == [1, 6, 35]
    assert coeffs(g_ab_series(Slope(2, 1), Step.N, Step.N, 1)) == [0]
    assert coeffs(g_ab_series(Slope(1, 1), Step.E, Step.N, 3)) == [1, 2, 6]
    # NE counts equal EN counts
    assert g_ab_series(Slope(2, 3), Step.N, Step.E, 6) == g_ab_series(
        Slope(2, 3), Step.E, Step.N, 6
    )


def test_g_prefix_series_values():
    assert coeffs(g_prefix_series(Slope(1, 1), Step.E, 2)) == [1, 3]
    assert coeffs(g_prefix_series(Slope(2, 1), Step.E, 1)) == [2]
    assert coeffs(g_prefix_series(Slope(2, 1), Step.N, 1)) == [1]


def test_fuss_catalan_values():
    assert list(fuss_catalan(1, 4).coeffs) == [1, 1, 2, 5, 14]
    assert list(fuss_catalan(2, 4).coeffs) == [1, 1, 3, 12, 55]
    assert fuss_catalan(7, 0).coeffs[0] == 1
    with pytest.raises(ValueError):
        fuss_catalan(0, 3)
    with pytest.raises(ValueError, match="at least its constant coefficient"):
        fuss_catalan(1, -1)


# --------------------------------------------------------------- identities


@pytest.mark.parametrize("slope", coprime_slopes(8), ids=str)
def test_weighted_prefix_symmetry(slope):
    order = 12
    g_ee = g_ab_series(slope, Step.E, Step.E, order)
    g_en = g_ab_series(slope, Step.E, Step.N, order)
    g_nn = g_ab_series(slope, Step.N, Step.N, order)
    assert slope.beta * (g_ee + g_en) == slope.alpha * (g_nn + g_en)


@pytest.mark.parametrize("slope", coprime_slopes(8), ids=str)
def test_g_splits_by_first_and_last_step(slope):
    order = 10
    total = g_ab_series(slope, Step.E, Step.E, order) + 2 * g_ab_series(
        slope, Step.E, Step.N, order
    ) + g_ab_series(slope, Step.N, Step.N, order)
    assert total == g_series(slope, order)


@pytest.mark.parametrize("slope", coprime_slopes(9), ids=str)
def test_g_ab_series_matches_direct_binomial(slope):
    # g_ab is derived from g; the direct count places alpha*k - (east
    # boundary steps) east moves among the (alpha+beta)k - 2 free steps
    a, b, order = slope.alpha, slope.beta, 40
    for r in (Restriction.EE, Restriction.EN, Restriction.NE, Restriction.NN):
        shift = -(r.first is Step.E) - (r.last is Step.E)
        direct = [math.comb((a + b) * k - 2, a * k + shift) if a * k + shift >= 0 else 0
                  for k in range(1, order + 1)]
        assert coeffs(g_ab_series(slope, r.first, r.last, order)) == direct, r


# g takes its binomial from math.comb for small min(alpha, beta)*k and steps
# it by an exact ratio beyond; the extra cases sit on both sides of that switch
G_CASES = [(slope, 60) for slope in coprime_slopes(12)] + [
    (Slope(10000, 1), 5),
    (Slope(255, 1), 520),
    (Slope(65, 63), 30),
]


@pytest.mark.parametrize("slope, order", G_CASES, ids=str)
def test_g_series_matches_math_comb(slope, order):
    a, b = slope.alpha, slope.beta
    expected = [math.comb((a + b) * k, a * k) for k in range(1, order + 1)]
    assert coeffs(g_series(slope, order)) == expected


# fuss_catalan divides g of slope (alpha, 1), so its cases also sit on both
# sides of g's switch from math.comb to the exact ratio
FUSS_CASES = [(alpha, 60) for alpha in range(1, 13)] + [(2, 520), (10000, 5)]


@pytest.mark.parametrize("alpha, order", FUSS_CASES)
def test_fuss_catalan_matches_math_comb(alpha, order):
    expected = [math.comb((alpha + 1) * k, k) // (alpha * k + 1) for k in range(order + 1)]
    assert coeffs(fuss_catalan(alpha, order), start=0) == expected


@pytest.mark.parametrize("alpha", range(1, 6))
def test_fuss_catalan_functional_equation(alpha):
    order = 12
    c = fuss_catalan(alpha, order)
    assert 1 + Series.x(order) * c ** (alpha + 1) == c


@given(st.integers(1, 4), st.integers(1, 4))
def test_prefix_sums_cover_everything(alpha, beta):
    if math.gcd(alpha, beta) != 1:
        return
    slope = Slope(alpha, beta)
    total = g_prefix_series(slope, Step.E, 8) + g_prefix_series(slope, Step.N, 8)
    assert total == g_series(slope, 8)
