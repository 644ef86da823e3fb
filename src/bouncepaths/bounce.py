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
  over the series ring, a numerator triple over a denominator triple whose
  marker terms vanish at x^0 (:func:`marker_cells`).  Set up by long
  division, :func:`expand_marker_quotient` packs the cells of one
  anti-diagonal l + r as the balanced digits of one int per coefficient,
  wider than a proven bound on every cell, so that they read back exactly.
  The closed-form cell sums ``b_lr`` that cross-check it live in
  :mod:`bouncepaths.identities`.
"""

from itertools import compress, count, repeat
from operator import add, and_, lshift, mul, rshift, sub

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


def marker_cells(slope: Slope, order: int) -> tuple[dict, tuple]:
    """The numerator triple of each restriction and the denominator triple.

    With s marking left and t marking right bounces, the generating function
    for all paths is

        (g + (2-s-t) * d) / (1 + (2-s-t) * g_en + (1-s)(1-t) * d),

    where d = g_en^2 - g_ee*g_nn.  Restrictions replace the numerator by
    g_ee, g_nn, g_en + (1-s)*d or g_en + (1-t)*d for EE, NN, EN and NE.  Each
    is the triple (n, n_s, n_t) of n + s*n_s + t*n_t, the denominator the triple
    (d_0, d_1, d_11) of d_0 + (s+t)*d_1 + st*d_11, whose d_1 = -(g_en + d) and
    d_11 = d vanish at x^0.  At s = t = 0 it counts bounce-free paths, and at
    s = 0, t = 1 paths with no left bounces.
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

    This is the generating function of :func:`marker_cells` at s = 1, t = 0,
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
    return _marker_value(marker_cells(slope, order), (restriction,), 0, 0)


def bounce_free_prefix(slope: Slope, first: Step, order: int) -> Series:
    """Bounce-free paths starting with the given step (ending anywhere); by
    symmetry the same series counts bounce-free paths *ending* with it."""
    e, n = (Restriction.EE, Restriction.EN), (Restriction.NN, Restriction.NE)
    return _marker_value(marker_cells(slope, order), e if first is Step.E else n, 0, 0)


def bounce_free_total(slope: Slope, order: int) -> Series:
    """All bounce-free paths: the generating function at s = t = 0."""
    return _marker_value(marker_cells(slope, order), (Restriction.ALL,), 0, 0)


def no_left_bounce_total(slope: Slope, order: int) -> Series:
    """Paths with no left bounces (equally: no right bounces); equals the sum
    of the one-sided series over all counts."""
    return _marker_value(marker_cells(slope, order), (Restriction.ALL,), 0, 1)


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
    of one truncation order N: d_0 has a unit constant term, and d_1 and d_11
    vanish at x^0, as in every bounce quotient (else, or for a negative
    bound, ValueError).  The cells q[l][r] with l + r = m are the digits l in
    base u = 2^W (Kronecker substitution of u for s/t) of the packed series

        P_m = N_m/d_0 + f1 * (1 + u) * P_(m-1) + f2 * u * P_(m-2),

    f1 = -d_1/d_0, f2 = -d_11/d_0 and N_m the numerator's cells of degree m,
    each set up by long division: two multiply-accumulates per anti-diagonal,
    over the packed factors' slots that the grid keeps, from their
    valuations on.  One slot is its own cell.

    Width: coefficientwise, A = |n/d_0| + |n_s/d_0| + |n_t/d_0| bounds each
    c[l][r]/d_0, so by induction the cells of anti-diagonal m are bounded by
    A*(1 + F + ... + F^m) <= A/(1-F), F = 2|f1| + |f2| with F(0) = 0.  W is
    the bound's bit length plus a sign bit, so each digit has |d_l| < 2^(W-1).
    Packed arithmetic is exact, and balanced digits are unique: digit l of
    P + sum_l 2^(W-1) u^l is d_l + 2^(W-1), in [0, 2^W), so a mask and a
    shift of these nonnegative digits keep any run of slots.

    The denominator is symmetric in s and t, so the quotient is too when
    n_s == n_t: only slots l <= m - l are kept, q[m/2][m/2-1] is its mirror,
    and mirrored cells are one Series.  The bounce quotients of ALL, EE and
    NN are: a half turn about the midpoint of a path's segment keeps its
    line points and reverses its step word, so left and right bounces trade
    places and the end steps swap.
    """
    n, n_s, n_t = numerator
    d_0, d_1, d_11 = denominator
    if max_left < 0 or max_right < 0:
        raise ValueError("marker bounds must be non-negative")
    if d_1.coeffs[0] or d_11.coeffs[0]:
        raise ValueError("the marker terms d_1 and d_11 must vanish at x^0")
    order, zero, mirrored = d_0.order, Series.zero(d_0.order), n_s == n_t
    scaled = {(0, 0): n.div(d_0).coeffs, (1, 0): n_s.div(d_0).coeffs}
    scaled[0, 1] = scaled[1, 0] if mirrored else n_t.div(d_0).coeffs
    f1, f2 = (-d_1).div(d_0).coeffs, (-d_11).div(d_0).coeffs
    v1, v2 = (next(compress(count(), f), order + 1) for f in (f1, f2))  # N + 1 if zero
    # the slot bounds; a mirrored quotient keeps the triangle l <= r
    left, right = sorted((max_left, max_right)) if mirrored else (max_left, max_right)
    width = 0
    if left and right > mirrored:  # some anti-diagonal holds two slots
        a = [abs(x) + abs(y) + abs(z) for x, y, z in zip(*scaled.values())]
        f = [2 * abs(x) + abs(y) for x, y in zip(f1, f2)]
        for k in range(1, order + 1):  # A/(1-F), one coefficient at a time
            a[k] += sum(map(mul, f[k:0:-1], a))
        width = max(a).bit_length() + 1
    half, digit = 1 << width >> 1, (1 << width) - 1

    def window(state, base, slots):
        # the kept slots among base .. base+slots-1, first at digit 0, and its distance from base
        packed, _, lo_p, hi_p, _ = state
        first = base if base > lo_p else lo_p
        last = base + slots - 1 if base + slots <= hi_p else hi_p
        if first > last:
            return None, 0
        if first > lo_p or last < hi_p:  # digits made nonnegative, masked and shifted
            keep, drop = width * (last - lo_p + 1), width * (first - lo_p)
            h = half * ((1 << keep) - 1) // digit  # sum of 2^(W-1) u^l up to the last slot
            packed = map(and_, map(add, packed, repeat(h)), repeat((1 << keep) - 1))
            packed = map(sub, map(rshift, packed, repeat(drop)), repeat(h >> drop))
        return packed, first - base

    out = [[zero] * (max_right + 1) for _ in range(max_left + 1)]
    masks, halves = repeat(digit), repeat(half)
    # (packed coefficients, valuation, first slot, last slot, last cell) of P_(m-1), P_(m-2)
    prev = prev2 = (None, order + 1, 0, -1, None)
    for m in range(left + right + 1):
        lo, hi = m - right if m > right else 0, m // 2 if mirrored else m
        hi = hi if hi < left else left
        if lo > hi or m > 1 and prev[1] > order and prev2[1] + v2 > order:
            break  # past the grid, or P_(m-1) = 0 and every later P vanishes
        slots, acc = hi - lo + 1, [0] * (order + 1)
        if prev2[1] + v2 <= order:  # f2 * u * P_(m-2), at digit 0 and then moved
            packed, shift = window(prev2, lo - 1, slots)
            if packed:
                _mul_add(acc, list(packed), f2, prev2[1], v2)
                acc = list(map(lshift, acc, repeat(width * shift))) if shift else acc
        if m < 2:  # inv * N_m
            acc = list(scaled[lo, m - lo])
            if slots > 1:
                acc = list(map(add, acc, map(lshift, scaled[1, 0], repeat(width))))
        if prev[1] + v1 <= order:  # f1 * (1 + u) * P_(m-1)
            parts = [window(prev, lo, slots), window(prev, lo - 1, slots)]
            if mirrored and 2 * hi == m:  # q[hi][hi-1] is q[hi-1][hi]
                parts.append((prev[4], hi - lo))
            packed = None
            for part, shift in parts:
                if part:
                    part = map(lshift, part, repeat(width * shift)) if shift else part
                    packed = map(add, packed, part) if packed else part
            _mul_add(acc, list(packed), f1, prev[1], v1)
        v = next(compress(count(), acc), order + 1)
        cells = [acc] if v <= order else []
        if slots > 1 and cells:  # the balanced digits, from the packed valuation on
            h = half * ((1 << width * slots) - 1) // digit
            digits, prefix = list(map(add, acc[v:], repeat(h))), zero.coeffs[:v]
            shifted = (map(rshift, digits, repeat(width * i)) for i in range(slots))
            cells = [prefix + tuple(map(sub, map(and_, d, masks), halves)) for d in shifted]
        for l, cell in enumerate(map(Series, cells), lo):
            if m - l <= max_right:
                out[l][m - l] = cell
            if mirrored and m - l <= max_left:
                out[m - l][l] = cell
        prev2, prev = prev, (acc, v, lo, hi, cells[-1] if cells else None)
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


def bounce_table(
    slope: Slope,
    restriction: Restriction,
    max_left: int,
    max_right: int,
    order: int,
) -> BounceTable:
    """Bounce statistics table from the rational two-marker expansion."""
    if max_left < 0 or max_right < 0:  # refused before the grids are built
        raise ValueError("marker bounds must be non-negative")
    numerators, denominator = marker_cells(slope, order)
    grid = expand_marker_quotient(numerators[restriction], denominator, max_left, max_right)
    return BounceTable(
        slope=slope,
        trunc_order=order,
        max_left=max_left,
        max_right=max_right,
        restriction=restriction,
        entries=tuple(tuple(row) for row in grid),
    )
