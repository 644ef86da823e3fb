import math

import pytest
from hypothesis import given, settings, strategies as st

from bouncepaths import bounce
from bouncepaths.beta_one import g_b_series
from bouncepaths.bounce import (
    BounceTable,
    bounce_free_ab,
    bounce_free_prefix,
    bounce_free_total,
    bounce_table,
    expand_marker_quotient,
    marker_cells,
    no_left_bounce_total,
    nrb_series,
)
from bouncepaths.closed_forms import Restriction, Slope, Step, g_ab_series, g_series
from bouncepaths.enumeration import count_matching, count_table, enumerate_profiles
from bouncepaths.series import Series
from bouncepaths.identities import (
    b_lr_closed_form,
    bounce_free_classes,
    bounce_table_from_closed_forms,
    one_sided_bounce_series,
)
from bouncepaths.verify import coprime_slopes


def coeffs(series, start=1):
    return list(series.coeffs[start:])


# --------------------------------------------------------- no-bounce series


def test_nrb_series_frozen_values():
    # enumeration: EENN is the only EN-path to (2,2) without a right bounce
    assert coeffs(nrb_series(Slope(1, 1), Restriction.EN, 3)) == [1, 1, 3]
    assert coeffs(nrb_series(Slope(1, 1), Restriction.EE, 2)) == [0, 1]
    assert coeffs(nrb_series(Slope(2, 1), Restriction.EN, 1)) == [1]


def test_nrb_series_rejects_other_restrictions():
    with pytest.raises(ValueError):
        nrb_series(Slope(1, 1), Restriction.NE, 3)
    with pytest.raises(ValueError):
        nrb_series(Slope(1, 1), Restriction.ALL, 3)


@pytest.mark.parametrize("slope", [Slope(1, 1), Slope(2, 1), Slope(2, 3)], ids=str)
def test_nrb_series_counts_both_statistics(slope):
    order = 12 // (slope.alpha + slope.beta)
    for restriction in (Restriction.EE, Restriction.EN, Restriction.NN):
        series = nrb_series(slope, restriction, order)
        for k in range(1, order + 1):
            profiles = enumerate_profiles(slope, k)
            no_right = count_matching(
                profiles, first=restriction.first, last=restriction.last, right=0
            )
            assert series.coefficient(k) == no_right
            # the no-left twin lives on the mirrored class for EN
            if restriction is Restriction.EN:
                no_left = count_matching(profiles, first=Step.N, last=Step.E, left=0)
            else:
                no_left = count_matching(
                    profiles, first=restriction.first, last=restriction.last, left=0
                )
            assert series.coefficient(k) == no_left


# --------------------------------------------------------- bounce-free forms


def test_bounce_free_ab_frozen_values():
    assert coeffs(bounce_free_ab(Slope(1, 1), Restriction.EN, 3)) == [1, 1, 3]
    assert coeffs(bounce_free_ab(Slope(2, 1), Restriction.EE, 8)) == [
        1, 4, 18, 89, 466, 2537, 14209, 81316,
    ]
    assert coeffs(bounce_free_ab(Slope(2, 1), Restriction.EN, 8)) == [
        1, 3, 13, 63, 326, 1761, 9808, 55895,
    ]
    assert bounce_free_ab(Slope(2, 3), Restriction.NE, 6) == bounce_free_ab(
        Slope(2, 3), Restriction.EN, 6
    )
    with pytest.raises(ValueError):
        bounce_free_ab(Slope(1, 1), Restriction.ALL, 3)


def test_bounce_free_total_frozen_values():
    assert coeffs(bounce_free_total(Slope(1, 1), 4)) == [2, 4, 10, 28]
    # exhaustive: 10 paths at k=1 (no interior line point), 162 of 210 at k=2
    assert coeffs(bounce_free_total(Slope(3, 2), 2)) == [10, 162]


@pytest.mark.parametrize("slope", coprime_slopes(6), ids=str)
def test_bounce_free_total_splits_by_first_and_last(slope):
    order = 10
    total = (
        bounce_free_ab(slope, Restriction.EE, order)
        + 2 * bounce_free_ab(slope, Restriction.EN, order)
        + bounce_free_ab(slope, Restriction.NN, order)
    )
    assert total == bounce_free_total(slope, order)


def test_bounce_free_prefix():
    f_estar = bounce_free_prefix(Slope(2, 1), Step.E, 6)
    expected = bounce_free_ab(Slope(2, 1), Restriction.EE, 6) + bounce_free_ab(
        Slope(2, 1), Restriction.EN, 6
    )
    assert f_estar == expected


@pytest.mark.parametrize("slope", coprime_slopes(9), ids=str)
def test_marker_delta_matches_the_two_product_form(slope):
    # the st term d_11 of the denominator is delta = g_en^2 - g_ee*g_nn
    order = 60
    g_ee = g_ab_series(slope, Step.E, Step.E, order)
    g_en = g_ab_series(slope, Step.E, Step.N, order)
    g_nn = g_ab_series(slope, Step.N, Step.N, order)
    delta = marker_cells(slope, order)[1][2]
    assert delta == g_en * g_en - g_ee * g_nn


@pytest.mark.parametrize("slope", coprime_slopes(9), ids=str)
def test_bounce_free_and_no_left_bounce_match_the_closed_forms(slope):
    # the paper's quotients over the two-product determinant
    order = 60
    g = g_series(slope, order)
    g_ee = g_ab_series(slope, Step.E, Step.E, order)
    g_en = g_ab_series(slope, Step.E, Step.N, order)
    g_nn = g_ab_series(slope, Step.N, Step.N, order)
    den = (1 + g_en) * (1 + g_en) - g_ee * g_nn
    f_ee, f_nn = g_ee.div(den), g_nn.div(den)
    f_en = 1 - (1 + g_en).div(den)
    expected = {
        Restriction.EE: f_ee,
        Restriction.EN: f_en,
        Restriction.NE: f_en,
        Restriction.NN: f_nn,
    }
    for restriction, series in expected.items():
        assert bounce_free_ab(slope, restriction, order) == series
    delta = g_en * g_en - g_ee * g_nn
    assert bounce_free_total(slope, order) == (g + 2 * delta).div(den)
    assert bounce_free_prefix(slope, Step.E, order) == f_ee + f_en
    assert bounce_free_prefix(slope, Step.N, order) == f_nn + f_en
    assert no_left_bounce_total(slope, order) == (g + delta).div(1 + g_en)


# ----------------------------------------------------------- one-sided series


def test_one_sided_frozen_values():
    # NENE is the single path to (2,2) with one left and no right bounce, and
    # ENEN, its right-bounce mirror, the single one with one right bounce
    assert one_sided_bounce_series(bounce_free_classes(Slope(1, 1), 2), 1).coefficient(2) == 1


def test_one_sided_mirror_symmetry():
    # swapping the slope components swaps the bounce sides
    classes = bounce_free_classes(Slope(2, 3), 8)
    mirrored = bounce_free_classes(Slope(3, 2), 8)
    for m in (1, 2, 3):
        assert one_sided_bounce_series(classes, m) == one_sided_bounce_series(mirrored, m)


def test_one_sided_validation():
    with pytest.raises(ValueError):
        one_sided_bounce_series(bounce_free_classes(Slope(1, 1), 3), 0)


def test_no_left_bounce_total_frozen_values():
    assert coeffs(no_left_bounce_total(Slope(1, 1), 3)) == [2, 5, 15]
    assert coeffs(no_left_bounce_total(Slope(2, 1), 1)) == [3]


@pytest.mark.parametrize("slope", [Slope(1, 1), Slope(2, 1), Slope(2, 3)], ids=str)
def test_no_left_bounce_total_sums_one_sided(slope):
    order = 8
    classes = bounce_free_classes(slope, order)
    total = bounce_free_total(slope, order)
    for m in range(1, order + 1):
        total = total + one_sided_bounce_series(classes, m)
    assert total == no_left_bounce_total(slope, order)


# ------------------------------------------------------------ two-sided cells


def test_b_lr_frozen_values():
    classes = bounce_free_classes(Slope(1, 1), 4)
    series = b_lr_closed_form(classes, 1, 1)
    # no path to (2,2) or (3,3) carries a bounce on both sides; two at (4,4)
    assert [series.coefficient(k) for k in (2, 3, 4)] == [0, 0, 2]
    with pytest.raises(ValueError):
        b_lr_closed_form(classes, 0, 1)


DIAGONAL_CLASSES = bounce_free_classes(Slope(1, 1), 5)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5))
@settings(deadline=None)
def test_b_lr_vanishes_when_bounces_exceed_semilength(left, right, k):
    if left + right < k:
        return
    assert b_lr_closed_form(DIAGONAL_CLASSES, left, right).coefficient(k) == 0


# -------------------------------------------------------------------- table


def test_expand_marker_quotient_geometric():
    x, zero = Series.x(4), Series.zero(4)
    # 1 / ((1 - xs)(1 - xt)) = 1 / (1 - x(s+t) + x^2 st): x^(l+r) in cell (l, r)
    grid = expand_marker_quotient((Series.one(4), zero, zero), (Series.one(4), -x, x * x), 2, 2)
    assert grid == [[x ** (l + r) for r in range(3)] for l in range(3)]


def reference_expand_marker_quotient(numerator, denominator, max_left, max_right):
    """The plain cell-by-cell expansion of sparse grids, which map the marker
    degrees (i, j) to the series at s^i t^j: four products per cell, no
    skipping, no mirror."""
    lead = denominator[(0, 0)]
    inv = lead.reciprocal()
    zero = Series.zero(lead.order)
    rest = [(i, j, cell) for (i, j), cell in denominator.items() if (i, j) != (0, 0)]

    out = [[zero] * (max_right + 1) for _ in range(max_left + 1)]
    for l in range(max_left + 1):
        for r in range(max_right + 1):
            acc = numerator.get((l, r), zero)
            for i, j, cell in rest:
                if i <= l and j <= r:
                    acc = acc - cell * out[l - i][r - j]
            out[l][r] = acc * inv
    return out


def as_grids(numerator, denominator):
    """The reference's grids of (n + s*n_s + t*n_t) / (d_0 + (s+t)*d_1 + st*d_11)."""
    (n, n_s, n_t), (d_0, d_1, d_11) = numerator, denominator
    return (
        {(0, 0): n, (1, 0): n_s, (0, 1): n_t},
        {(0, 0): d_0, (1, 0): d_1, (0, 1): d_1, (1, 1): d_11},
    )


@st.composite
def marker_triples(draw):
    """Random numerator and denominator triples of one order.

    Any cell may be zero or have valuation 0, except d_0, whose constant term
    is +1 or -1, and the marker terms d_1 and d_11, which vanish at x^0 as in
    every bounce quotient.  About half the draws have n_s = n_t, the mirror-closed
    numerators of ALL, EE and NN, and some have d_1 = d_11.  The bounds are
    drawn independently, so mirrors of cells often fall outside them."""
    order = draw(st.integers(0, 12))

    def series(least=0):
        zeros = draw(st.integers(least, order + 1))
        tail = draw(st.lists(st.integers(-4, 4), min_size=order + 1, max_size=order + 1))
        return Series((0,) * zeros + tuple(tail[zeros:]))

    n, n_s = series(), series()
    n_t = n_s if draw(st.booleans()) else series()
    lead_tail = draw(st.lists(st.integers(-4, 4), min_size=order, max_size=order))
    d_0 = Series((draw(st.sampled_from([1, -1])),) + tuple(lead_tail))
    d_1 = series(least=1)
    d_11 = d_1 if draw(st.booleans()) else series(least=1)
    bounds = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (n, n_s, n_t), (d_0, d_1, d_11), *bounds


@settings(max_examples=150, deadline=None)
@given(marker_triples())
def test_expand_marker_quotient_matches_reference(triples):
    numerator, denominator, max_left, max_right = triples
    assert expand_marker_quotient(
        numerator, denominator, max_left, max_right
    ) == reference_expand_marker_quotient(*as_grids(numerator, denominator), max_left, max_right)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(coprime_slopes(7)), st.integers(1, 12))
def test_path_reversal_symmetry_of_the_reference_expansion(slope, order):
    # rotating a path by 180 degrees swaps left and right bounces and turns
    # an EN-path into an NE-path; the plain expansion does not assume it
    bound = order - 1
    numerators, denominator = marker_cells(slope, order)
    grids = {
        r: reference_expand_marker_quotient(*as_grids(numerators[r], denominator), bound, bound)
        for r in Restriction
    }
    for restriction in (Restriction.ALL, Restriction.EE, Restriction.NN):
        grid = grids[restriction]
        assert grid == [list(column) for column in zip(*grid)], restriction
    assert grids[Restriction.NE] == [list(column) for column in zip(*grids[Restriction.EN])]


def test_expand_marker_quotient_matches_reference_on_bounce_cells():
    for slope in (Slope(1, 1), Slope(3, 2)):
        numerators, denominator = marker_cells(slope, 9)
        for numerator in numerators.values():
            assert expand_marker_quotient(
                numerator, denominator, 9, 7
            ) == reference_expand_marker_quotient(*as_grids(numerator, denominator), 9, 7)


def series(*coeffs):
    return Series(coeffs)


# signed triples of order 5 whose d_1 and d_11 vanish at x^0, as in every
# bounce quotient
SIGNED_NUMERATOR = (
    series(0, -3, 5, -7, 2, 9),
    series(1, -2, 0, 4, -4, 3),
    series(0, 0, -1, 3, -5, 8),
)
SIGNED_DENOMINATOR = (
    series(-1, 2, -3, 1, 0, 5), series(0, 1, -2, 3, -1, 2), series(0, -2, 1, 0, 4, -3)
)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("max_left, max_right", [(4, 3), (0, 6), (6, 0), (2, 5), (5, 2), (0, 0)])
def test_expand_marker_quotient_signed_cells(mirrored, max_left, max_right):
    # the bounds drop slots at both ends of the anti-diagonals, and in the
    # mirrored quotient (n_s == n_t) keep a triangle wider than the grid
    n, n_s, n_t = SIGNED_NUMERATOR
    numerator = (n, n_s, n_s if mirrored else n_t)
    assert expand_marker_quotient(
        numerator, SIGNED_DENOMINATOR, max_left, max_right
    ) == reference_expand_marker_quotient(
        *as_grids(numerator, SIGNED_DENOMINATOR), max_left, max_right
    )


@pytest.mark.parametrize(
    "denominator",
    [
        # d_1(0) != 0, d_11(0) != 0, then each on its own, at orders 5 and 0
        (series(1, 2, -3, 1, 0, 5), series(2, 1, -1, 0, 3, 1), series(-1, 0, 2, -2, 1, 0)),
        (series(1, 2, -3, 1, 0, 5), series(2, 1, -1, 0, 3, 1), series(0, 0, 2, -2, 1, 0)),
        (series(1, 2, -3, 1, 0, 5), series(0, 1, -1, 0, 3, 1), series(-1, 0, 2, -2, 1, 0)),
        (series(-1), series(2), series(-3)),
        (series(-1), series(2), series(0)),
        (series(-1), series(0), series(-3)),
    ],
)
@pytest.mark.parametrize("max_left, max_right", [(4, 3), (0, 0)])
def test_expand_marker_quotient_requires_marker_terms_vanishing_at_x0(
    monkeypatch, denominator, max_left, max_right
):
    # refused before any work, the one-slot (0, 0) grid included
    monkeypatch.setattr(Series, "div", None)
    numerator = SIGNED_NUMERATOR if denominator[0].order else (series(3), series(-2), series(5))
    with pytest.raises(ValueError, match="must vanish at x\\^0"):
        expand_marker_quotient(numerator, denominator, max_left, max_right)


@pytest.mark.parametrize("max_left, max_right", [(-1, 0), (0, -1), (2, -1), (-3, -3)])
def test_negative_marker_bounds_are_refused(monkeypatch, max_left, max_right):
    with pytest.raises(ValueError, match="^marker bounds must be non-negative$"):
        expand_marker_quotient(SIGNED_NUMERATOR, SIGNED_DENOMINATOR, max_left, max_right)
    # the table refuses them before it builds the marker grids
    monkeypatch.setattr(bounce, "marker_cells", None)
    with pytest.raises(ValueError, match="^marker bounds must be non-negative$"):
        bounce_table(Slope(1, 1), Restriction.ALL, max_left, max_right, 10**5)


@pytest.mark.parametrize(
    "denominator", [(series(1), series(0), series(0)), (series(-1), series(0), series(0))]
)
def test_expand_marker_quotient_at_order_zero(denominator):
    for numerator in (series(3), series(-2), series(5)), (series(3), series(-2), series(-2)):
        assert expand_marker_quotient(
            numerator, denominator, 3, 4
        ) == reference_expand_marker_quotient(*as_grids(numerator, denominator), 3, 4)


@pytest.mark.parametrize("n_s", [series(7, -7, 1), series(-8, 8, -1)])
def test_expand_marker_quotient_width_is_tight(n_s):
    # with d_1 = d_11 = 0 the width bound is |n_s| itself: the cell q[1][0]
    # fills its slot, sign bit included
    zero = Series.zero(2)
    numerator, denominator = (zero, n_s, zero), (Series.one(2), zero, zero)
    grid = expand_marker_quotient(numerator, denominator, 1, 2)
    assert grid[1][0] == n_s
    assert grid == reference_expand_marker_quotient(*as_grids(numerator, denominator), 1, 2)


@pytest.mark.parametrize("mirrored", [True, False])
def test_expand_marker_quotient_binomial_cells(mirrored):
    # 1 / (1 - x(s+t)): q[l][r] = C(l+r, l) x^(l+r), each from two neighbours
    x, zero = Series.x(6), Series.zero(6)
    n_t = zero if mirrored else Series((0,) * 6 + (1,))
    numerator, denominator = (Series.one(6), zero, n_t), (Series.one(6), -x, zero)
    grid = expand_marker_quotient(numerator, denominator, 6, 6)
    assert grid == reference_expand_marker_quotient(*as_grids(numerator, denominator), 6, 6)
    assert [grid[l][4 - l].coefficient(4) for l in range(5)] == [1, 4, 6, 4, 1]


@pytest.mark.parametrize(
    "slope, restriction, order, count",
    [
        (Slope(1, 1), Restriction.ALL, 100, lambda k: math.comb(2 * k, k)),
        (Slope(3, 2), Restriction.ALL, 70, lambda k: math.comb(5 * k, 3 * k)),
        (Slope(3, 2), Restriction.EN, 60, lambda k: math.comb(5 * k - 2, 3 * k - 1)),
    ],
)
def test_widest_full_tables_sum_to_their_class(slope, restriction, order, count):
    # full grids at or near the CLI's size limit, whose packed slots are the widest;
    # each column k >= 1 sums to the paths of the class of semilength k
    table = bounce_table(slope, restriction, order - 1, order - 1, order)
    assert table.sum_all().coeffs == (0, *map(count, range(1, order + 1)))


def count_products(monkeypatch, slope, restriction, max_left, max_right, order):
    """Calls of the multiply-accumulate kernel the expansion multiplies with."""
    calls = []
    product = bounce._mul_add

    def counted(*args):
        calls.append(None)
        return product(*args)

    with monkeypatch.context() as patch:
        patch.setattr(bounce, "_mul_add", counted)
        bounce_table(slope, restriction, max_left, max_right, order)
    return len(calls)


def test_tables_expand_by_anti_diagonal(monkeypatch):
    # the set-up is long division, so the (0, 0) table makes no product and
    # a full one at most two per anti-diagonal l + r with a nonzero cell; a
    # mirrored quotient reads back one triangle, each mirrored pair of cells
    # as one Series
    read_back = {}
    for restriction in (Restriction.ALL, Restriction.EN):
        table = bounce_table(Slope(1, 1), restriction, 19, 19, 20)
        cells = {
            (l, r): cell
            for l, row in enumerate(table.entries)
            for r, cell in enumerate(row)
            if any(cell.coeffs)
        }
        products = count_products(monkeypatch, Slope(1, 1), restriction, 19, 19, 20)
        assert count_products(monkeypatch, Slope(1, 1), restriction, 0, 0, 20) == 0
        assert 0 < products <= 2 * len({l + r for l, r in cells})
        triangle = {(min(key), max(key)) for key in cells}
        read_back[restriction] = len({id(cell) for cell in cells.values()})
        mirrored = restriction is Restriction.ALL
        assert read_back[restriction] == len(triangle if mirrored else cells)
    assert read_back[Restriction.ALL] < read_back[Restriction.EN]


def test_bounce_table_frozen_values():
    table = bounce_table(Slope(1, 1), Restriction.ALL, 3, 3, 4)
    assert coeffs(table.entry(0, 0)) == [2, 4, 10, 28]
    row = [table.entry(0, 0), table.entry(1, 0), table.entry(0, 1), table.entry(1, 1)]
    assert [s.coefficient(2) for s in row] == [4, 1, 1, 0]


def test_bounce_table_sums_to_all_paths():
    order = 6
    table = bounce_table(Slope(1, 1), Restriction.ALL, order - 1, order - 1, order)
    assert table.sum_all() == g_series(Slope(1, 1), order)


@pytest.mark.parametrize("slope", [Slope(1, 1), Slope(2, 1), Slope(1, 3)], ids=str)
def test_bounce_table_matches_enumeration_per_restriction(slope):
    order = 12 // (slope.alpha + slope.beta)
    bound = max(order - 1, 1)
    for restriction in Restriction:
        table = bounce_table(slope, restriction, bound, bound, order)
        for k in range(1, order + 1):
            grid = count_table(enumerate_profiles(slope, k), restriction)
            for l in range(bound + 1):
                for r in range(bound + 1):
                    assert table.entry(l, r).coefficient(k) == grid.get((l, r), 0), (
                        restriction, k, l, r,
                    )


def test_bounce_table_restricted_entry_00_is_bounce_free():
    for restriction in (Restriction.EE, Restriction.EN, Restriction.NE, Restriction.NN):
        table = bounce_table(Slope(2, 1), restriction, 2, 2, 6)
        assert table.entry(0, 0) == bounce_free_ab(Slope(2, 1), restriction, 6)


def test_bounce_table_zero_bounds_reduce_to_bounce_free():
    table = bounce_table(Slope(2, 3), Restriction.ALL, 0, 0, 5)
    assert table.entry(0, 0) == bounce_free_total(Slope(2, 3), 5)


def test_dual_route_tables_agree():
    for slope in (Slope(1, 1), Slope(2, 1), Slope(2, 3)):
        expanded = bounce_table(slope, Restriction.ALL, 4, 4, 9)
        assembled = bounce_table_from_closed_forms(slope, 4, 4, 9)
        assert expanded.entries == tuple(map(tuple, assembled))


def test_bounce_table_validation():
    good = bounce_table(Slope(1, 1), Restriction.ALL, 1, 1, 3)
    with pytest.raises(ValueError):
        BounceTable(
            slope=good.slope,
            trunc_order=good.trunc_order,
            max_left=1,
            max_right=1,
            restriction=good.restriction,
            entries=((Series((0, -1, 0, 0)),) * 2,) * 2,
        )
    with pytest.raises(ValueError):
        BounceTable(
            slope=good.slope,
            trunc_order=3,
            max_left=2,
            max_right=1,
            restriction=good.restriction,
            entries=good.entries,
        )
    with pytest.raises(ValueError):
        bounce_table(Slope(1, 1), Restriction.ALL, -1, 0, 3)


# ------------------------------------------------------- table properties


TABLE_SLOPES = coprime_slopes(5)
TRANSPOSED = {
    Restriction.ALL: Restriction.ALL,
    Restriction.EE: Restriction.NN,
    Restriction.NN: Restriction.EE,
    Restriction.EN: Restriction.NE,
    Restriction.NE: Restriction.EN,
}


def class_total(slope, restriction, order):
    if restriction is Restriction.ALL:
        return g_series(slope, order)
    return g_ab_series(slope, restriction.first, restriction.last, order)


def full_table(slope, restriction, order):
    """Every cell that can be nonzero: l + r <= order - 1."""
    bound = max(order - 1, 0)
    return bounce_table(slope, restriction, bound, bound, order)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_SLOPES), st.sampled_from(list(Restriction)), st.integers(1, 12))
def test_bounce_table_has_no_negative_coefficients(slope, restriction, order):
    table = full_table(slope, restriction, order)
    assert all(c >= 0 for row in table.entries for cell in row for c in cell.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_SLOPES), st.sampled_from(list(Restriction)), st.integers(1, 12))
def test_bounce_table_sums_to_its_class(slope, restriction, order):
    table = full_table(slope, restriction, order)
    assert table.sum_all() == class_total(slope, restriction, order)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(TABLE_SLOPES),
    st.sampled_from(list(Restriction)),
    st.integers(1, 12),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_transposing_the_slope_swaps_left_and_right(
    slope, restriction, order, max_left, max_right
):
    table = bounce_table(slope, restriction, max_left, max_right, order)
    mirror = bounce_table(
        slope.transpose(), TRANSPOSED[restriction], max_right, max_left, order
    )
    for l in range(max_left + 1):
        for r in range(max_right + 1):
            assert table.entry(l, r) == mirror.entry(r, l), (l, r)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(TABLE_SLOPES),
    st.sampled_from(list(Restriction)),
    st.integers(1, 12),
    st.integers(0, 14),
    st.integers(0, 14),
)
def test_bounce_table_cell_valuation(slope, restriction, order, max_left, max_right):
    # a path with l + r bounces has at least l + r + 1 segments between them
    table = bounce_table(slope, restriction, max_left, max_right, order)
    for l in range(max_left + 1):
        for r in range(max_right + 1):
            valuation = table.entry(l, r).valuation()
            assert valuation is None or valuation >= l + r + 1, (l, r)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(TABLE_SLOPES),
    st.sampled_from(list(Restriction)),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 8),
    st.integers(0, 8),
)
def test_bounce_table_truncation_is_the_lower_order_table(
    slope, restriction, order, lower, max_left, max_right
):
    lower = min(lower, order)
    high = bounce_table(slope, restriction, max_left, max_right, order)
    low = bounce_table(slope, restriction, max_left, max_right, lower)
    for l in range(max_left + 1):
        for r in range(max_right + 1):
            assert high.entry(l, r).truncate(lower) == low.entry(l, r), (l, r)


# ----------------------------------------------------------- total bounces


def test_g_b_series_frozen_values():
    series = g_b_series(1, 4)
    assert [series.coefficient(j) for j in (2, 3, 4)] == [2, 8, 28]
    assert g_b_series(0, 8) == bounce_free_total(Slope(1, 1), 8)
    # exactly NENE and ENEN at semilength 2
    assert g_b_series(1, 2).coefficient(2) == 2
    with pytest.raises(ValueError):
        g_b_series(-1, 4)


def test_g_b_series_partitions_all_paths():
    order = 8
    total = Series.zero(order)
    for b in range(order):
        total = total + g_b_series(b, order)
    assert total == g_series(Slope(1, 1), order)


@pytest.mark.parametrize("b", range(7))
def test_g_b_series_matches_coefficient_formula(b):
    # the library steps the binomial from one coefficient to the next
    order = 150
    expected = [0] * (b + 1) + [
        2 * (b + 1) * math.comb(2 * j, j - b - 1) // j for j in range(b + 1, order + 1)
    ]
    assert list(g_b_series(b, order).coeffs) == expected
