"""Generating functions for paths classified by their bounce statistics.

A *left bounce* is an interior vertex with incoming E and outgoing N that
lies on a lattice point of the line y = (beta/alpha) x; a *right bounce* is
the mirror image (incoming N, outgoing E).  EE or NN touches of the line do
not count.  Naming scheme used throughout the package:

* ``g``   -- all paths (see :mod:`bouncepaths.closed_forms`),
* ``f``   -- bounce-free paths,
* ``nrb`` -- paths with no right bounces (equivalently, none on the left),
* :class:`BounceTable` -- paths with exactly ``l`` left and ``r`` right
  bounces, as the coefficient grid of the two-marker generating function
  over the series ring.  The closed-form cell sums ``b_lr`` that
  cross-check it live in :mod:`bouncepaths.identities`.
"""

from operator import add

# binomial is unused here, but the benchmark's self-tests call bounce.binomial
from .closed_forms import Restriction, Slope, Step, _exact, _g_parts, binomial
from .series import Series, _mul_add, _Record


def _delta(slope: Slope, g_en: Series) -> Series:
    """delta = g_en^2 - g_ee*g_nn from one square.

    With u_i the coefficients of g_en, g_ee has u_i (alpha*i - 1) / (beta*i)
    and g_nn has u_j (beta*j - 1) / (alpha*j), so a product term
    u_i u_j - g_ee_i g_nn_j is u_i u_j (alpha*i + beta*j - 1) / (alpha*beta*ij).
    Summing it together with its i <-> j mirror gives

        delta_k = ((alpha+beta)k - 2) * [x^k] W^2 / (2*alpha*beta),

    W with the coefficients w_i = u_i / i.  These are integers: w_i is
    beta*C(n-1, m-1) / (n-1) for n = (alpha+beta)i and m = alpha*i, and
    gcd(m-1, n-1) = gcd(alpha*i - 1, beta) divides beta.
    """
    w = Series((0,) + tuple(_exact(u, i, "W", i) for i, u in enumerate(g_en.coeffs) if i))
    a, b = slope.alpha, slope.beta
    return Series(
        tuple(
            _exact(((a + b) * k - 2) * c, 2 * a * b, "delta", k)
            for k, c in enumerate((w * w).coeffs)
        )
    )


MarkerCells = dict[tuple[int, int], Series]


def _marker_grids(slope: Slope, order: int) -> tuple[dict, MarkerCells]:
    """Numerator grids of every restriction, and the denominator grid, of the
    bounce generating function.

    With s marking left and t marking right bounces, the generating function
    for all paths is

        (g + (2-s-t) * d) / (1 + (2-s-t) * g_en + (1-s)(1-t) * d),

    where d = g_en^2 - g_ee*g_nn.  Restrictions replace the numerator by
    g_ee, g_nn, g_en + (1-s)*d or g_en + (1-t)*d for EE, NN, EN and NE.  A
    grid maps the marker degrees (i, j) to the series at s^i t^j.  At s = t = 0
    it counts bounce-free paths, and at s = 0, t = 1 paths with no left bounces.
    """
    g, g_ee, g_en, g_nn = _g_parts(slope, order)
    d = _delta(slope, g_en)
    minus_d, g_en_d = -d, g_en + d
    numerators = {
        Restriction.ALL: {(0, 0): g + 2 * d, (1, 0): minus_d, (0, 1): minus_d},
        Restriction.EE: {(0, 0): g_ee},
        Restriction.NN: {(0, 0): g_nn},
        Restriction.EN: {(0, 0): g_en_d, (1, 0): minus_d},
        Restriction.NE: {(0, 0): g_en_d, (0, 1): minus_d},
    }
    denominator = {(0, 0): 1 + 2 * g_en + d, (1, 0): -g_en_d, (0, 1): -g_en_d, (1, 1): d}
    return numerators, denominator


def _marker_value(grids: tuple[dict, MarkerCells], classes, s: int, t: int) -> Series:
    """The generating function of the given classes, summed, at the markers (s, t)."""
    numerators, denominator = grids

    def at(*parts: MarkerCells) -> Series:
        return sum(s**i * t**j * cell for part in parts for (i, j), cell in part.items())

    return at(*(numerators[c] for c in classes)).div(at(denominator))


def nrb_series(slope: Slope, restriction: Restriction, order: int) -> Series:
    """Paths of the given class with no right bounces: g_ab / (1 + g_en).

    This is the generating function of :func:`_marker_grids` at s = 1, t = 0,
    where d cancels for EE, EN and NN, so the direct quotient does not compute
    it.  For EE and NN the same series also counts the class with no left
    bounces, and the EN series counts the mirrored NE-paths with no left
    bounces.  NE-paths with no right bounces keep d at that point,
    (g_en + d) / (1 + g_en), hence only EE, EN and NN are accepted.
    """
    if restriction not in (Restriction.EE, Restriction.EN, Restriction.NN):
        raise ValueError("no-right-bounce series is defined for the EE, EN and NN classes")
    _, g_ee, g_en, g_nn = _g_parts(slope, order)
    numerator = {Restriction.EE: g_ee, Restriction.EN: g_en, Restriction.NN: g_nn}[restriction]
    return numerator.div(1 + g_en)


def bounce_free_ab(slope: Slope, restriction: Restriction, order: int) -> Series:
    """Bounce-free paths with prescribed first and last steps."""
    if restriction is Restriction.ALL:
        raise ValueError("this series is defined per first/last step restriction")
    return _marker_value(_marker_grids(slope, order), (restriction,), 0, 0)


def bounce_free_prefix(slope: Slope, first: Step, order: int) -> Series:
    """Bounce-free paths starting with the given step (ending anywhere); by
    symmetry the same series counts bounce-free paths *ending* with it."""
    e, n = (Restriction.EE, Restriction.EN), (Restriction.NN, Restriction.NE)
    return _marker_value(_marker_grids(slope, order), e if first is Step.E else n, 0, 0)


def bounce_free_total(slope: Slope, order: int) -> Series:
    """All bounce-free paths: the generating function at s = t = 0."""
    return _marker_value(_marker_grids(slope, order), (Restriction.ALL,), 0, 0)


def no_left_bounce_total(slope: Slope, order: int) -> Series:
    """Paths with no left bounces (equally: no right bounces); equals the sum
    of the one-sided series over all counts."""
    return _marker_value(_marker_grids(slope, order), (Restriction.ALL,), 0, 1)


def g_b_series(total_bounces: int, order: int) -> Series:
    """Paths to (n, n) with exactly ``total_bounces`` bounces of either kind.

    Only meaningful for the diagonal slope (1, 1).  Computed from the
    coefficient formula 2*(b+1)/j * C(2j, j-b-1) at x^j, with the binomial
    stepped from j-1 to j by (2j-1)(2j) / ((j-b-1)(j+b+1)); the
    ``total-bounces`` suite checks it against 2*(c(x) - 1)^(b+1) with c the
    Catalan series.
    """
    b = total_bounces
    if b < 0:
        raise ValueError("the bounce count must be non-negative")
    coeffs = [0] * (order + 1)
    binom = 1  # C(2j, j-b-1), which is C(2b+2, 0) at j = b+1
    for j in range(b + 1, order + 1):
        if j > b + 1:
            binom = binom * (2 * j - 1) * (2 * j) // ((j - b - 1) * (j + b + 1))
        coeffs[j] = _exact(2 * (b + 1) * binom, j, "g_b", j)
    return Series(tuple(coeffs))


# --------------------------------------------------------------------- table


def expand_marker_quotient(
    numerator: MarkerCells,
    denominator: MarkerCells,
    max_left: int,
    max_right: int,
) -> list[list[Series]]:
    """Expand numerator/denominator as a polynomial in two bounded markers.

    Both operands are sparse grids of series of one truncation order N,
    indexed by marker degrees (l, r).  The denominator's (0, 0) cell must
    have a unit constant term; with inv its reciprocal, the quotient is
    produced cell by cell up to (max_left, max_right) by solving
    numerator = denominator * quotient in increasing degree:

        q[l][r] = inv*n[l][r] - sum over (i, j) != (0, 0) of inv*d[i][j] * q[l-i][r-j].

    Every input cell is scaled by inv once, and equal denominator cells form
    one group, whose factor -inv*d and valuation are found once.  The same
    recurrence over valuations bounds each q[l][r] from below; a cell whose
    bound exceeds N is zero and is not computed.  Per cell, one pass over a
    group's offsets finds its live neighbours and their lowest bound.  The
    cell accumulates in place in one coefficient list, from inv*n[l][r] or
    zeros, one product per group by the series ring's multiply-accumulate
    kernel, the factor times the sum of the live neighbours, and becomes
    one Series when finished: mirrored cells share it, all zero cells one.

    When both grids are closed under the mirror (i, j) -> (j, i), so is the
    quotient, and a cell with r < l <= max_right is the (r, l) cell of an
    earlier row.  The bounce grids of ALL, EE and NN are: rotating a path by
    180 degrees about the midpoint of its segment keeps its line points and
    reverses its step word, so left and right bounces trade places and the
    first and last steps swap.
    """
    lead = denominator[(0, 0)]
    inv = lead.reciprocal()
    zero = Series.zero(lead.order)
    vanished = lead.order + 1  # valuation bound of a cell known to be zero

    def low(series: Series) -> int:
        v = series.valuation()
        return vanished if v is None else v

    scaled = {key: cell * inv for key, cell in numerator.items()}
    offsets: dict[Series, list[tuple[int, int]]] = {}
    for key, cell in denominator.items():
        if key != (0, 0) and not cell.is_zero():
            offsets.setdefault(cell, []).append(key)
    # (coefficients of -inv * d, valuation of d, offsets of the cells equal to d)
    groups = [((-(cell * inv)).coeffs, low(cell), keys) for cell, keys in offsets.items()]

    mirrored = all(
        grid.get((j, i)) == cell for grid in (numerator, denominator)
        for (i, j), cell in grid.items()
    )
    out = [[zero] * (max_right + 1) for _ in range(max_left + 1)]
    bound = [[vanished] * (max_right + 1) for _ in range(max_left + 1)]
    for l in range(max_left + 1):
        out_l, bound_l = out[l], bound[l]
        for r in range(max_right + 1):
            if mirrored and r < l <= max_right:
                out_l[r], bound_l[r] = out[r][l], bound[r][l]
                continue
            acc = scaled.get((l, r))
            low_lr = vanished if acc is None else low(acc)
            terms = []
            for factor, v, keys in groups:
                near, start = [], vanished
                for i, j in keys:
                    if i <= l and j <= r:
                        b = bound[l - i][r - j]
                        if b < vanished:
                            near.append(out[l - i][r - j].coeffs)
                            if b < start:
                                start = b
                if near:
                    if v + start < low_lr:
                        low_lr = v + start
                    terms.append((factor, v, start, near))
            if low_lr >= vanished:
                continue
            coeffs = [0] * vanished if acc is None else list(acc.coeffs)
            for factor, v, start, cells in terms:
                total = cells[0]
                for cell in cells[1:]:
                    total = list(map(add, total, cell))
                _mul_add(coeffs, total, factor, start, v)
            out_l[r] = Series(tuple(coeffs))
            bound_l[r] = low_lr
    return out


class BounceTable(_Record):
    """Grid of series: entry (l, r) counts paths with l left, r right bounces."""

    __slots__ = ("slope", "trunc_order", "max_left", "max_right", "restriction", "entries")

    def __init__(
        self,
        slope: Slope,
        trunc_order: int,
        max_left: int,
        max_right: int,
        restriction: Restriction,
        entries: tuple[tuple[Series, ...], ...],
    ):
        if len(entries) != max_left + 1 or any(len(row) != max_right + 1 for row in entries):
            raise ValueError("entry grid does not match the declared bounds")
        for l, row in enumerate(entries):
            for r, series in enumerate(row):
                if series.order != trunc_order:
                    raise ValueError(f"entry ({l}, {r}) has the wrong order")
                if min(series.coeffs) < 0:
                    raise ValueError(f"entry ({l}, {r}) has a negative coefficient")
        super().__init__(slope, trunc_order, max_left, max_right, restriction, entries)

    def entry(self, left: int, right: int) -> Series:
        return self.entries[left][right]

    def sum_all(self) -> Series:
        total = Series.zero(self.trunc_order)
        for row in self.entries:
            for series in row:
                total = total + series
        return total


def marker_cells(slope: Slope, restriction: Restriction, order: int) -> tuple[dict, dict]:
    """Numerator grid of the restriction and the denominator grid of the
    bounce generating function (see :func:`_marker_grids`)."""
    numerators, denominator = _marker_grids(slope, order)
    return numerators[restriction], denominator


def bounce_table(
    slope: Slope,
    restriction: Restriction,
    max_left: int,
    max_right: int,
    order: int,
) -> BounceTable:
    """Bounce statistics table from the rational two-marker expansion."""
    if max_left < 0 or max_right < 0:
        raise ValueError("marker bounds must be non-negative")
    numerator, denominator = marker_cells(slope, restriction, order)
    grid = expand_marker_quotient(numerator, denominator, max_left, max_right)
    return BounceTable(
        slope=slope,
        trunc_order=order,
        max_left=max_left,
        max_right=max_right,
        restriction=restriction,
        entries=tuple(tuple(row) for row in grid),
    )
