"""Binomial closed forms for lattice-path counting series.

Paths run from (0, 0) to (alpha*k, beta*k) with unit east (E) and north (N)
steps, for a coprime slope pair (alpha, beta).  The ``g`` family counts all
such paths, optionally restricted by their first and last step; everything
else in the package is built on top of these series.
"""

import math
from enum import Enum

from .series import Series, _Record, _require_order


class NonIntegerCoefficient(ArithmeticError):
    """An exact division in a closed-form coefficient failed; this signals a
    bug, not a user error."""


def _exact(num: int, den: int, name: str, k: int) -> int:
    """num / den for coefficient k of the named series, which must be exact."""
    count, rest = divmod(num, den)
    if rest:
        raise NonIntegerCoefficient(f"{name}: coefficient {k} is not an integer")
    return count


class Step(Enum):
    E = "E"
    N = "N"

    # members are singletons compared by identity; Enum.__hash__ runs in Python
    __hash__ = object.__hash__


class Restriction(Enum):
    """First/last step restriction of a path class."""

    ALL = "all"
    EE = "ee"
    EN = "en"
    NE = "ne"
    NN = "nn"

    @property
    def first(self) -> Step | None:
        if self is Restriction.ALL:
            return None
        return Step(self.value[0].upper())

    @property
    def last(self) -> Step | None:
        if self is Restriction.ALL:
            return None
        return Step(self.value[1].upper())


AB_RESTRICTIONS = (Restriction.EE, Restriction.EN, Restriction.NE, Restriction.NN)


class Slope(_Record):
    """Coprime pair (alpha, beta) defining the line y = (beta/alpha) x."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        if alpha < 1 or beta < 1:
            raise ValueError("slope components must be positive integers")
        if math.gcd(alpha, beta) != 1:
            raise ValueError(f"slope ({alpha}, {beta}) is not coprime")
        super().__init__(alpha, beta)

    def transpose(self) -> "Slope":
        return Slope(self.beta, self.alpha)


def binomial(m: int, n: int) -> int:
    """C(m, n) for m >= 0, with value 0 whenever n < 0 or n > m."""
    if m < 0:
        raise ValueError("binomial needs a non-negative upper argument")
    return math.comb(m, n) if 0 <= n <= m else 0


def _binomial_digits_at_least(m: int, n: int, q: int = 1) -> int:
    """A proven lower bound on the decimal digits of C(m, n) / q, 0 if C(m, n)
    is 0: with n the smaller side, at most 10^15 (C grows with n up to m/2),
    C(m, n) >= (m-n+1)^n / n!, less one digit and a relative float slack."""
    n = min(n, m - n, 10**15)
    if n < 0:
        return 0
    terms = n * math.log10(m - n + 1)
    log = terms - math.lgamma(n + 1) / math.log(10) - math.log10(q)
    return max(0, math.floor(log - 1 - 1e-12 * terms) + 1)


def g_series(slope: Slope, order: int) -> Series:
    """All paths to (alpha*k, beta*k): coefficient C(sk, alpha*k), s = alpha+beta.

    Past min(alpha, beta)*k = 2s each coefficient is the previous one times
    the exact ratio (s(k-1)+1)...(sk) / ((alpha(k-1)+1)...(alpha*k) *
    (beta(k-1)+1)...(beta*k)), in one division.  Up to there ``binomial``
    is the cheaper way: its cost grows with min(alpha, beta)*k, a step's
    with s.
    """
    _require_order(order)
    a, b = slope.alpha, slope.beta
    s = a + b
    coeffs = [0]
    for k in range(1, order + 1):
        if min(a, b) * k <= 2 * s:
            coeffs.append(binomial(s * k, a * k))
            continue
        up = coeffs[-1] * math.perm(s * k, s)
        coeffs.append(_exact(up, math.perm(a * k, a) * math.perm(b * k, b), "g", k))
    return Series(tuple(coeffs))


def g_ab_series(slope: Slope, first: Step, last: Step, order: int) -> Series:
    """Paths with prescribed first and last steps.

    Fixing the two boundary steps leaves (alpha+beta)k - 2 free steps, of
    which alpha*k - 2, alpha*k - 1 or alpha*k are east moves for EE, EN/NE
    and NN paths respectively; the counts come from g by an exact ratio.
    """
    return _g_ab_from_g(g_series(slope, order), slope, first, last)


def _g_ab_from_g(g: Series, slope: Slope, first: Step, last: Step) -> Series:
    """g_ab from g: of the C(n, m) paths with n = (alpha+beta)k steps, m of
    them east, the share m(m-1) / (n(n-1)) starts and ends with E, and
    likewise m(n-m) for EN and NE and (n-m)(n-m-1) for NN."""
    a, b = slope.alpha, slope.beta
    name = f"g_{first.value}{last.value}"
    coeffs = [0]
    for k in range(1, g.order + 1):
        n, east = (a + b) * k, a * k
        north = n - east
        if first is Step.E:
            ways, east = east, east - 1
        else:
            ways, north = north, north - 1
        ways *= east if last is Step.E else north
        coeffs.append(_exact(g.coeffs[k] * ways, n * (n - 1), name, k))
    return Series(tuple(coeffs))


def _g_parts(slope: Slope, order: int) -> tuple[Series, Series, Series, Series]:
    """(g, g_ee, g_en, g_nn) at the requested truncation order, from one g."""
    g = g_series(slope, order)
    pairs = ((Step.E, Step.E), (Step.E, Step.N), (Step.N, Step.N))
    return (g, *(_g_ab_from_g(g, slope, first, last) for first, last in pairs))


def g_prefix_series(slope: Slope, first: Step, order: int) -> Series:
    """Paths starting with the given step, regardless of the last one."""
    g = g_series(slope, order)
    return _g_ab_from_g(g, slope, first, Step.E) + _g_ab_from_g(g, slope, first, Step.N)


def fuss_catalan(alpha: int, order: int) -> Series:
    """The series with coefficient C((alpha+1)k, k) / (alpha*k + 1).

    Counts paths to (alpha*k, k) staying weakly above y = x/alpha; alpha = 1
    gives the Catalan numbers.  Constant term 1.  The binomial is the
    coefficient of :func:`g_series` of slope (alpha, 1), so past its first
    steps each one costs an exact ratio, not a ``math.comb``.
    """
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    g = g_series(Slope(alpha, 1), order).coeffs
    return Series(
        tuple(_exact(g[k], alpha * k + 1, f"c_{alpha}", k) if k else 1 for k in range(order + 1))
    )
