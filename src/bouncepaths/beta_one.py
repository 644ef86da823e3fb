"""Specializations for slopes with a unit rise (beta = 1).

For the line y = x/alpha every horizontal crossing happens at a lattice
point, so crossings can be enumerated the same way as bounces: a
*horizontal cross* is an interior vertex on the line with incoming and
outgoing E-steps.  ``nhc`` abbreviates "no horizontal crosses".  This
module counts paths by their horizontal crosses, and the rational Dyck
paths among them, from the closed forms alone: ``nhc_series`` from the
split of g by first and last step, the rest from c_alpha.  The diagonal is
the unit-rise slope with alpha = 1, and ``g_b_series`` counts its paths by
total bounces with a Catalan-family closed form.
"""

from .closed_forms import Restriction, Slope, _exact, _g_parts, fuss_catalan, g_series
from .series import Series


def nhc_series(alpha: int, restriction: Restriction, order: int) -> Series:
    """Paths with no horizontal crosses: g_ee/(1+g_ee) for EE, g_en/(1+g_ee)
    for EN and NE."""
    if restriction not in (Restriction.EE, Restriction.EN, Restriction.NE):
        raise ValueError("horizontal crosses are tracked for EE, EN and NE paths")
    _, g_ee, g_en, _ = _g_parts(Slope(alpha, 1), order)
    numerator = g_ee if restriction is Restriction.EE else g_en
    return numerator.div(1 + g_ee)


def nhc_prefix_series(alpha: int, order: int) -> Series:
    """E-start paths that never cross the line horizontally, from the closed
    form with coefficient alpha*(alpha+2)/((alpha+1)k+1) * C((alpha+1)k+1, k-1).

    That is C((alpha+1)k, k), the coefficient of :func:`g_series` of slope
    (alpha, 1), times the exact ratio alpha(alpha+2)k / ((alpha*k+1)(alpha*k+2)),
    as :func:`fuss_catalan` steps from it.  The ``beta1`` suite checks it
    against (g_ee + g_en)/(1 + g_ee).
    """
    if alpha < 1:  # as fuss_catalan refuses for the other beta = 1 series
        raise ValueError("alpha must be a positive integer")
    g = g_series(Slope(alpha, 1), order).coeffs
    return Series(
        tuple(
            _exact(alpha * (alpha + 2) * k * g[k], (alpha * k + 1) * (alpha * k + 2), "h", k)
            for k in range(order + 1)
        )
    )


def nhc_nrb_series(alpha: int, order: int) -> Series:
    """E-start paths with no horizontal crosses and no right bounces:
    alpha*(c_alpha - 1).

    The ``crosses`` suite checks it against h/(1 + nhc_en) and
    g_estar/(1 + g_estar).
    """
    return alpha * (fuss_catalan(alpha, order) - 1)


def rational_dyck_series(alpha: int, order: int) -> Series:
    """N-start paths with no horizontal crosses; these stay weakly above
    y = x/alpha, end with an E-step, and are counted by c_alpha - 1."""
    return fuss_catalan(alpha, order) - 1


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
