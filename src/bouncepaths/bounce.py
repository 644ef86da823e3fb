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
  over the series ring, a numerator triple over a denominator triple
  (:func:`marker_cells`).  The closed-form cell sums ``b_lr`` that
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


def _marker_grids(slope: Slope, order: int) -> tuple[dict, tuple]:
    """The numerator triple of each restriction and the denominator triple.

    With s marking left and t marking right bounces, the generating function
    for all paths is

        (g + (2-s-t) * d) / (1 + (2-s-t) * g_en + (1-s)(1-t) * d),

    where d = g_en^2 - g_ee*g_nn.  Restrictions replace the numerator by
    g_ee, g_nn, g_en + (1-s)*d or g_en + (1-t)*d for EE, NN, EN and NE.  Each
    is the triple (n, n_s, n_t) of n + s*n_s + t*n_t, the denominator the triple
    (d_0, d_1, d_11) of d_0 + (s+t)*d_1 + st*d_11.  At s = t = 0 it counts
    bounce-free paths, and at s = 0, t = 1 paths with no left bounces.
    """
    g, g_ee, g_en, g_nn = _g_parts(slope, order)
    d = _delta(slope, g_en)
    zero, minus_d, g_en_d = Series.zero(order), -d, g_en + d
    numerators = {
        Restriction.ALL: (g + 2 * d, minus_d, minus_d),
        Restriction.EE: (g_ee, zero, zero),
        Restriction.NN: (g_nn, zero, zero),
        Restriction.EN: (g_en_d, minus_d, zero),
        Restriction.NE: (g_en_d, zero, minus_d),
    }
    return numerators, (1 + 2 * g_en + d, -g_en_d, d)


def _marker_value(grids: tuple[dict, tuple], classes, s: int, t: int) -> Series:
    """The generating function of the given classes, summed, at the markers (s, t)."""
    numerators, (d_0, d_1, d_11) = grids
    numerator = sum(n + s * n_s + t * n_t for n, n_s, n_t in map(numerators.get, classes))
    return numerator.div(d_0 + (s + t) * d_1 + s * t * d_11)


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


# --------------------------------------------------------------------- table


def expand_marker_quotient(
    numerator: tuple[Series, Series, Series],
    denominator: tuple[Series, Series, Series],
    max_left: int,
    max_right: int,
) -> list[list[Series]]:
    """Expand (n + s*n_s + t*n_t) / (d_0 + (s+t)*d_1 + st*d_11) in the
    markers s and t, up to s^max_left t^max_right.

    ``numerator`` is (n, n_s, n_t) and ``denominator`` (d_0, d_1, d_11), series
    of one truncation order N, d_0 with a unit constant term.  With inv its
    reciprocal and c[l][r] the numerator's series at s^l t^r, the cells follow
    in increasing degree from

        q[l][r] = inv*c[l][r] - inv*d_1 * (q[l-1][r] + q[l][r-1]) - inv*d_11 * q[l-1][r-1].

    The factors -inv*d_1 and -inv*d_11 and their valuations are formed once.
    The same recurrence over valuations bounds each q[l][r] from below; a
    cell whose bound exceeds N is zero and is not computed.  A cell
    accumulates in place in one coefficient list, from inv*c[l][r] or zeros,
    by one multiply-accumulate per factor over the sum of its live
    neighbours, and becomes one Series: mirrored cells share it, all zero
    cells one.

    The denominator is symmetric in s and t, so the quotient is too when
    n_s == n_t: a cell with r < l <= max_right is then the (r, l) cell of an
    earlier row.  The bounce quotients of ALL, EE and NN are: a half turn
    about the midpoint of a path's segment keeps its line points and reverses
    its step word, so left and right bounces trade places and the end steps swap.
    """
    n, n_s, n_t = numerator
    d_0, d_1, d_11 = denominator
    inv = d_0.reciprocal()
    zero = Series.zero(d_0.order)
    vanished = d_0.order + 1  # valuation bound of a cell known to be zero

    def low(series: Series) -> int:
        v = series.valuation()
        return vanished if v is None else v

    scaled = {(0, 0): n * inv, (1, 0): n_s * inv, (0, 1): n_t * inv}
    # (coefficients of -inv * d, valuation of d, the neighbour offsets it multiplies)
    groups = [
        ((-(d * inv)).coeffs, low(d), keys)
        for d, keys in ((d_1, ((1, 0), (0, 1))), (d_11, ((1, 1),)))
        if not d.is_zero()
    ]

    mirrored = n_s == n_t
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


def marker_cells(slope: Slope, restriction: Restriction, order: int) -> tuple[tuple, tuple]:
    """Numerator triple of the restriction and the denominator triple of the
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
