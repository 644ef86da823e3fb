import pytest
from hypothesis import given, strategies as st

from bouncepaths.beta_one import (
    nhc_nrb_series,
    nhc_prefix_series,
    nhc_series,
    rational_dyck_series,
)
from bouncepaths.bounce import bounce_free_ab, bounce_table
from bouncepaths.closed_forms import NonIntegerCoefficient, Restriction, Slope, fuss_catalan
from bouncepaths.enumeration import InvalidShape, TwoRowShape
from bouncepaths.series import Series
from bouncepaths.identities import (
    bounce_free_ab_beta1,
    bounce_table_beta1,
    f_ab_via_fuss_catalan,
)
from bouncepaths.verify import _hook_length_count, syt_two_row_count


def coeffs(series, start=1):
    return list(series.coeffs[start:])


# ------------------------------------------------------- Fuss-Catalan forms


def test_f_ab_via_fuss_catalan_frozen_values():
    f_ee, f_en, _ = f_ab_via_fuss_catalan(2, 8)
    assert coeffs(f_ee) == [1, 4, 18, 89, 466, 2537, 14209, 81316]
    assert coeffs(f_en) == [1, 3, 13, 63, 326, 1761, 9808, 55895]


# the place of each restriction's class in a (f_ee, f_en, f_nn) triple
CLASS = {Restriction.EE: 0, Restriction.EN: 1, Restriction.NE: 1, Restriction.NN: 2}


@pytest.mark.parametrize("alpha", range(1, 6))
@pytest.mark.parametrize(
    "restriction", [Restriction.EE, Restriction.EN, Restriction.NE, Restriction.NN]
)
def test_f_ab_routes_agree(alpha, restriction):
    order = 10
    general = bounce_free_ab(Slope(alpha, 1), restriction, order)
    assert f_ab_via_fuss_catalan(alpha, order)[CLASS[restriction]] == general
    assert bounce_free_ab_beta1(alpha, order)[CLASS[restriction]] == general


def test_diagonal_catalan_forms():
    order = 10
    c = fuss_catalan(1, order)
    xc = Series.x(order) * c
    f_ee = bounce_free_ab(Slope(1, 1), Restriction.EE, order)
    f_nn = bounce_free_ab(Slope(1, 1), Restriction.NN, order)
    f_en = bounce_free_ab(Slope(1, 1), Restriction.EN, order)
    assert f_ee == f_nn
    assert f_ee == (xc * c - xc).div(1 + xc)
    assert f_en == (xc * c).div(1 + xc)


# --------------------------------------------------------------- crosses


def test_nhc_series_frozen_values():
    assert coeffs(nhc_series(2, Restriction.EE, 3)) == [1, 5, 24]
    assert coeffs(nhc_series(2, Restriction.EN, 1)) == [1]
    # ENNE is the only EE-path to (2,2); it never crosses the diagonal
    assert nhc_series(1, Restriction.EE, 2).coefficient(2) == 1
    assert nhc_series(2, Restriction.NE, 5) == nhc_series(2, Restriction.EN, 5)
    with pytest.raises(ValueError):
        nhc_series(2, Restriction.NN, 3)


def test_nhc_prefix_series_frozen_values():
    assert coeffs(nhc_prefix_series(2, 2)) == [2, 8]
    assert nhc_prefix_series(1, 1).coefficient(1) == 1


@pytest.mark.parametrize("alpha", [0, -1, -3])
def test_nhc_prefix_series_refuses_alpha_below_one(alpha):
    with pytest.raises(ValueError, match="^alpha must be a positive integer$"):
        nhc_prefix_series(alpha, 4)


def test_nhc_nrb_series_frozen_values():
    assert coeffs(nhc_nrb_series(2, 8)) == [2, 6, 24, 110, 546, 2856, 15504, 86526]
    assert coeffs(nhc_nrb_series(1, 4)) == [1, 2, 5, 14]
    # enumeration: 6 crossless no-right-bounce E-start paths to (4, 2)
    assert nhc_nrb_series(2, 2).coefficient(2) == 6


def test_rational_dyck_series():
    assert coeffs(rational_dyck_series(1, 4)) == [1, 2, 5, 14]
    assert coeffs(rational_dyck_series(2, 4)) == [1, 3, 12, 55]
    # NEE is the single crossless N-start path to (2, 1)
    assert rational_dyck_series(2, 1).coefficient(1) == 1


# ---------------------------------------------------------------- tableaux


def test_two_row_shape():
    shape = TwoRowShape(4, 1)
    assert shape.first_row + shape.second_row == 5
    assert shape.as_partition() == (4, 1)
    assert TwoRowShape(3, 0).as_partition() == (3,)
    with pytest.raises(InvalidShape):
        TwoRowShape(1, 2)


def test_syt_two_row_count_frozen_values():
    assert syt_two_row_count(2, 1) == 1  # one-row shape (3,)
    assert syt_two_row_count(3, 1) == 4  # shape (4, 1)
    assert syt_two_row_count(3, 0) == 5  # shape (3, 2)
    with pytest.raises(InvalidShape):
        syt_two_row_count(3, 3)
    with pytest.raises(InvalidShape):
        syt_two_row_count(2, -1)


def test_hook_length_count_raises_on_inexact_division():
    # (1, 2) is not a partition: hook product 4 does not divide 3! = 6
    with pytest.raises(NonIntegerCoefficient):
        _hook_length_count((1, 2))


@given(st.integers(1, 12))
def test_syt_one_row_shapes_are_unique_fillings(n):
    assert syt_two_row_count(n, n - 1) == 1


# ------------------------------------------------------------- marker table


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_bounce_table_beta1_matches_general(alpha):
    simplified = bounce_table_beta1(alpha, 4, 4, 8)
    general = bounce_table(Slope(alpha, 1), Restriction.ALL, 4, 4, 8)
    assert tuple(map(tuple, simplified)) == general.entries
