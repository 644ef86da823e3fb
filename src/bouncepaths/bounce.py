"""Generating functions for paths classified by their bounce statistics.

A *left bounce* is an interior vertex with incoming E and outgoing N that
lies on a lattice point of the line y = (beta/alpha) x; a *right bounce* is
the mirror image (incoming N, outgoing E).  EE or NN touches of the line do
not count.  Naming scheme used throughout the package:

* ``g``   -- all paths (see :mod:`bouncepaths.closed_forms`),
* ``f``   -- bounce-free paths,
* ``nrb`` -- paths with no right bounces (equivalently, none on the left),
* ``b_lr`` / :class:`BounceTable` -- paths with exactly ``l`` left and ``r``
  right bounces; the table is the coefficient grid of the two-marker
  generating function over the series ring.
"""

from .closed_forms import Restriction, Slope, Step, _exact, _g_ab_from_g, binomial, g_series
from .series import Series, _Record


def _g_parts(slope: Slope, order: int) -> tuple[Series, Series, Series, Series]:
    """(g, g_ee, g_en, g_nn) at the requested truncation order."""
    g = g_series(slope, order)
    return (
        g,
        _g_ab_from_g(g, slope, Step.E, Step.E),
        _g_ab_from_g(g, slope, Step.E, Step.N),
        _g_ab_from_g(g, slope, Step.N, Step.N),
    )


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


def _bounce_free_classes(slope: Slope, order: int) -> tuple[Series, Series, Series]:
    """(f_ee, f_en, f_nn) from one pair of grids."""
    grids = _marker_grids(slope, order)
    return tuple(
        _marker_value(grids, (r,), 0, 0)
        for r in (Restriction.EE, Restriction.EN, Restriction.NN)
    )


def bounce_free_total(slope: Slope, order: int) -> Series:
    """All bounce-free paths: the generating function at s = t = 0."""
    return _marker_value(_marker_grids(slope, order), (Restriction.ALL,), 0, 0)


def one_sided_bounce_series(slope: Slope, side: str, count: int, order: int) -> Series:
    """Paths with exactly ``count`` bounces on one side and none on the other.

    For ``count = m >= 1`` this is the product of a bounce-free prefix, m - 1
    bounce-free EN/NE bridges, and a bounce-free suffix; the two sides give
    the same series because the bridge factor is shared.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if count < 1:
        raise ValueError("count must be at least 1; use bounce_free_total for 0")
    f_ee, f_en, f_nn = _bounce_free_classes(slope, order)
    start_e, start_n = f_ee + f_en, f_nn + f_en
    if side == "left":
        return start_e * f_en ** (count - 1) * start_n
    return start_n * f_en ** (count - 1) * start_e


def no_left_bounce_total(slope: Slope, order: int) -> Series:
    """Paths with no left bounces (equally: no right bounces); equals the sum
    of the one-sided series over all counts."""
    return _marker_value(_marker_grids(slope, order), (Restriction.ALL,), 0, 1)


def b_lr_closed_form(slope: Slope, left: int, right: int, order: int) -> Series:
    """Paths with exactly ``left`` and ``right`` bounces, both at least 1.

    Finite sum over the number i of maximal right-bounce runs, in four parts
    according to whether the first and last bounces are left or right ones.
    Terms whose binomial weight vanishes are skipped, which also keeps every
    exponent non-negative.
    """
    if left < 1 or right < 1:
        raise ValueError("both bounce counts must be at least 1")
    f_ee, f_en, f_nn = _bounce_free_classes(slope, order)
    start_e = f_ee + f_en
    start_n = f_nn + f_en
    ee_nn = f_ee * f_nn

    total = Series.zero(order)
    for i in range(1, left):
        w = binomial(left - 1, i) * binomial(right - 1, i - 1)
        if w:
            total = total + w * (
                start_e * start_n * ee_nn**i * f_en ** (left + right - 2 * i - 1)
            )
    for i in range(1, left + 1):
        w = binomial(left - 1, i - 1) * binomial(right - 1, i - 1)
        if w:
            shared = f_en ** (left + right - 2 * i)
            total = total + w * (
                start_e * start_e * f_ee ** (i - 1) * f_nn**i * shared
            )
            total = total + w * (
                start_n * start_n * f_ee**i * f_nn ** (i - 1) * shared
            )
    for i in range(2, left + 2):
        w = binomial(left - 1, i - 2) * binomial(right - 1, i - 1)
        if w:
            total = total + w * (
                start_n * start_e * ee_nn ** (i - 1) * f_en ** (left + right - 2 * i + 1)
            )
    return total


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

    Every input cell is scaled by inv once, and equal denominator cells
    share one product over the sum of their neighbours.  The same recurrence
    over valuations bounds each q[l][r] from below; a cell whose bound
    exceeds N is zero and is not computed.
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
    # (-inv * d, valuation of d, offsets of the cells equal to d)
    groups = [(-(cell * inv), low(cell), keys) for cell, keys in offsets.items()]

    out = [[zero] * (max_right + 1) for _ in range(max_left + 1)]
    bound = [[vanished] * (max_right + 1) for _ in range(max_left + 1)]
    for l in range(max_left + 1):
        for r in range(max_right + 1):
            acc = scaled.get((l, r), zero)
            low_lr = low(acc)
            terms = []
            for factor, v, keys in groups:
                near = [
                    (bound[l - i][r - j], out[l - i][r - j])
                    for i, j in keys
                    if i <= l and j <= r and bound[l - i][r - j] < vanished
                ]
                if near:
                    low_lr = min(low_lr, v + min(b for b, _ in near))
                    terms.append((factor, near))
            if low_lr >= vanished:
                continue
            for factor, near in terms:
                acc = acc + factor * sum((cell for _, cell in near[1:]), near[0][1])
            out[l][r] = acc
            bound[l][r] = low_lr
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


def bounce_table_from_closed_forms(
    slope: Slope, max_left: int, max_right: int, order: int
) -> BounceTable:
    """Unrestricted bounce table assembled entry by entry from closed forms.

    Entry (0, 0) is the bounce-free series, the axes come from the one-sided
    products, and the interior from :func:`b_lr_closed_form`.  Used to
    cross-check :func:`bounce_table`.
    """
    grid: list[list[Series]] = []
    for l in range(max_left + 1):
        row = []
        for r in range(max_right + 1):
            if l == 0 and r == 0:
                row.append(bounce_free_total(slope, order))
            elif r == 0:
                row.append(one_sided_bounce_series(slope, "left", l, order))
            elif l == 0:
                row.append(one_sided_bounce_series(slope, "right", r, order))
            else:
                row.append(b_lr_closed_form(slope, l, r, order))
        grid.append(row)
    return BounceTable(
        slope=slope,
        trunc_order=order,
        max_left=max_left,
        max_right=max_right,
        restriction=Restriction.ALL,
        entries=tuple(tuple(row) for row in grid),
    )
