"""Specializations for slopes with a unit rise (beta = 1).

For the line y = x/alpha every horizontal crossing happens at a lattice
point, so crossings can be enumerated the same way as bounces: a
*horizontal cross* is an interior vertex on the line with incoming and
outgoing E-steps.  ``nhc`` abbreviates "no horizontal crosses".  This
module also expresses the bounce-free series through the Fuss-Catalan
series and counts the standard Young tableaux attached to diagonal paths
with a fixed number of bounces.
"""

import math

from .bounce import BounceTable, _g_parts, expand_marker_quotient
from .closed_forms import NonIntegerCoefficient, Restriction, Slope, _exact, binomial, fuss_catalan
from .series import Series, _Record


class InvalidShape(ValueError):
    """Raised when the requested diagram rows are not weakly decreasing."""


class TwoRowShape(_Record):
    """Young diagram with two rows, the second possibly empty."""

    __slots__ = ("first_row", "second_row")

    def __init__(self, first_row: int, second_row: int):
        if not first_row >= second_row >= 0:
            raise InvalidShape(f"rows ({first_row}, {second_row}) must be weakly decreasing")
        super().__init__(first_row, second_row)

    @property
    def cells(self) -> int:
        return self.first_row + self.second_row

    def as_partition(self) -> tuple[int, ...]:
        if self.second_row == 0:
            return (self.first_row,)
        return (self.first_row, self.second_row)


def f_ab_via_fuss_catalan(alpha: int, restriction: Restriction, order: int) -> Series:
    """Bounce-free path classes written in the Fuss-Catalan series c = c_alpha:

        f_ee = (alpha*c - 1)(c - 1) / q,   f_nn = (c - 1)^2 / q,
        f_en = f_ne = c(c - 1) / q,        q = (1-alpha)c^2 + (alpha+1)c - 1.
    """
    if restriction is Restriction.ALL:
        raise ValueError("this series is defined per first/last step restriction")
    c = fuss_catalan(alpha, order)
    q = (1 - alpha) * c * c + (alpha + 1) * c - 1
    if restriction is Restriction.EE:
        numerator = (alpha * c - 1) * (c - 1)
    elif restriction is Restriction.NN:
        numerator = (c - 1) * (c - 1)
    else:
        numerator = c * (c - 1)
    return numerator.div(q)


def bounce_free_ab_beta1(alpha: int, restriction: Restriction, order: int) -> Series:
    """Simplified bounce-free forms valid for beta = 1:

        f_ee = g_ee / (1 + g - g_ee),   f_en = (g_nn + g_en) / (1 + g - g_ee),
        f_nn = g_nn / (1 + g - g_ee).
    """
    if restriction is Restriction.ALL:
        raise ValueError("this series is defined per first/last step restriction")
    g, g_ee, g_en, g_nn = _g_parts(Slope(alpha, 1), order)
    den = 1 + g - g_ee
    numerators = {
        Restriction.EE: g_ee,
        Restriction.EN: g_nn + g_en,
        Restriction.NE: g_nn + g_en,
        Restriction.NN: g_nn,
    }
    return numerators[restriction].div(den)


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

    The ``beta1`` suite checks it against (g_ee + g_en)/(1 + g_ee).
    """
    coeffs = [0] * (order + 1)
    for k in range(1, order + 1):
        num = alpha * (alpha + 2) * binomial((alpha + 1) * k + 1, k - 1)
        coeffs[k] = _exact(num, (alpha + 1) * k + 1, "h", k)
    return Series(tuple(coeffs))


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


def syt_two_row_count(n: int, b: int) -> int:
    """Standard Young tableaux of shape (n+b, n-b-1), for n > b >= 0.

    Uses hook lengths; a zero-length second row degenerates to a single row.
    Equals the number of E-start paths to (n, n) with exactly b bounces.
    """
    if b < 0 or n <= b:
        raise InvalidShape(f"need n > b >= 0, got n={n}, b={b}")
    shape = TwoRowShape(n + b, n - b - 1)
    return _hook_length_count(shape.as_partition())


def _hook_length_count(partition: tuple[int, ...]) -> int:
    hook_product = 1
    for i, row_len in enumerate(partition):
        for j in range(row_len):
            arm = row_len - j - 1
            leg = sum(1 for below in partition[i + 1 :] if below > j)
            hook_product *= arm + leg + 1
    total = math.factorial(sum(partition))
    if total % hook_product:
        raise NonIntegerCoefficient(f"hook product {hook_product} does not divide {total}")
    return total // hook_product


def bounce_table_beta1(
    alpha: int, max_left: int, max_right: int, order: int
) -> BounceTable:
    """Bounce table from the simplified beta = 1 two-marker form

        (g + (2-s-t) g_nn) / (1 + (2-s-t) g_en + (1-s)(1-t) g_nn).
    """
    slope = Slope(alpha, 1)
    g, _, g_en, g_nn = _g_parts(slope, order)
    numerator = {(0, 0): g + 2 * g_nn, (1, 0): -g_nn, (0, 1): -g_nn}
    denominator = {
        (0, 0): 1 + 2 * g_en + g_nn,
        (1, 0): -(g_en + g_nn),
        (0, 1): -(g_en + g_nn),
        (1, 1): g_nn,
    }
    grid = expand_marker_quotient(numerator, denominator, max_left, max_right)
    return BounceTable(
        slope=slope,
        trunc_order=order,
        max_left=max_left,
        max_right=max_right,
        restriction=Restriction.ALL,
        entries=tuple(tuple(row) for row in grid),
    )
