"""Specializations for slopes with a unit rise (beta = 1).

For the line y = x/alpha every horizontal crossing happens at a lattice
point, so crossings can be enumerated the same way as bounces: a
*horizontal cross* is an interior vertex on the line with incoming and
outgoing E-steps.  ``nhc`` abbreviates "no horizontal crosses".  This
module counts paths by their horizontal crosses, and the rational Dyck
paths among them, from the closed forms alone: ``nhc_series`` from the
split of g by first and last step, the rest from c_alpha.
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
