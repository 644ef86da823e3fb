"""Named identity suites: every closed form against its independent check.

Each suite returns a list of :class:`CheckResult`; a failing check carries
the first mismatching coefficient (slope, k, and grid cell where relevant)
in its detail string.  The suites back both the command line ``verify``
command and the acceptance tests.

The library computes each series by one production formula.  The
alternative formulas the suites hold it against are defined here, beside
the suites that call them: the closed-form cell sums of the bounce table,
the beta = 1 and Fuss-Catalan forms of the bounce-free series, and the
hook-length count of two-row tableaux.
"""

import math
import random

from .beta_one import nhc_nrb_series, nhc_prefix_series, nhc_series, rational_dyck_series
from .bounce import (
    _g_parts,
    _marker_grids,
    _marker_value,
    bounce_free_ab,
    bounce_free_prefix,
    bounce_free_total,
    bounce_table,
    expand_marker_quotient,
    g_b_series,
    marker_cells,
    no_left_bounce_total,
    nrb_series,
)
from .closed_forms import (
    AB_RESTRICTIONS,
    NonIntegerCoefficient,
    Restriction,
    Slope,
    Step,
    binomial,
    fuss_catalan,
    g_ab_series,
    g_prefix_series,
    g_series,
)
from .enumeration import (
    InvalidShape,
    TwoRowShape,
    count_matching,
    count_table,
    enumerate_profiles,
    enumerate_syt,
)
from .series import Series, _Record


class CheckResult(_Record):
    """One check's outcome; unlike the other records it may be changed."""

    __slots__ = ("name", "passed", "detail")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # mutable, hence unhashable

    def __init__(self, name: str, passed: bool, detail: str = ""):
        super().__init__(name, passed, detail)

    def __str__(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.name}" + (f"  [{self.detail}]" if self.detail else "")


def coprime_slopes(max_sum: int) -> list[Slope]:
    """All slopes with alpha + beta <= max_sum, in a fixed order."""
    found = []
    for total in range(2, max_sum + 1):
        for alpha in range(1, total):
            beta = total - alpha
            if math.gcd(alpha, beta) == 1:
                found.append(Slope(alpha, beta))
    return found


def _slope_range(alpha, beta, max_slope_sum):
    if alpha is not None and beta is not None:
        return [Slope(alpha, beta)]
    return coprime_slopes(max_slope_sum)


def _series_equal(name: str, got: Series, expected: Series, context: str = "") -> CheckResult:
    n = min(got.order, expected.order)
    for k in range(n + 1):
        if got.coeffs[k] != expected.coeffs[k]:
            where = f"{context} " if context else ""
            return CheckResult(
                name,
                False,
                f"{where}k={k} expected={expected.coeffs[k]} actual={got.coeffs[k]}",
            )
    return CheckResult(name, True)


def _coeff_grid(rows) -> list[list[tuple[int, ...]]]:
    """Coefficient tuples of a grid of series, e.g. ``BounceTable.entries``."""
    return [[series.coeffs for series in row] for row in rows]


def _grid_equal(name: str, expected, actual, context: str = "") -> CheckResult:
    """Compare two grids of coefficient sequences indexed [l][r][k]; a failure
    names the first mismatching cell in l, then r, then k order."""
    if expected == actual:
        return CheckResult(name, True)
    where = f"{context} " if context else ""
    for l, (expected_row, actual_row) in enumerate(zip(expected, actual)):
        for r, (expected_cell, actual_cell) in enumerate(zip(expected_row, actual_row)):
            for k, (e, a) in enumerate(zip(expected_cell, actual_cell)):
                if e != a:
                    return CheckResult(
                        name, False, f"{where}l={l} r={r} k={k} expected={e} actual={a}"
                    )
    return CheckResult(name, False, f"{where}grid shapes differ")


# ----------------------------------------------------------- fixed sequences

REFERENCE_SEQUENCES = {
    # slope (2, 1), bounce-free EE- and EN-paths through x^8
    # (the OEIS pair A000259/A000305)
    "f_ee(2,1)": (1, 4, 18, 89, 466, 2537, 14209, 81316),
    "f_en(2,1)": (1, 3, 13, 63, 326, 1761, 9808, 55895),
    # alpha = 2: E-start, crossless, no right bounces through x^8 (OEIS A046646)
    "H(2)": (2, 6, 24, 110, 546, 2856, 15504, 86526),
}


def suite_reference_series() -> list[CheckResult]:
    """The published reference sequences reproduced exactly."""
    results = []
    slope = Slope(2, 1)
    results.append(
        _series_equal(
            "reference f_ee(2,1) through x^8",
            bounce_free_ab(slope, Restriction.EE, 8),
            Series((0,) + REFERENCE_SEQUENCES["f_ee(2,1)"]),
        )
    )
    results.append(
        _series_equal(
            "reference f_en(2,1) through x^8",
            bounce_free_ab(slope, Restriction.EN, 8),
            Series((0,) + REFERENCE_SEQUENCES["f_en(2,1)"]),
        )
    )
    results.append(
        _series_equal(
            "reference H(2) through x^8",
            nhc_nrb_series(2, 8),
            Series((0,) + REFERENCE_SEQUENCES["H(2)"]),
        )
    )
    return results


# -------------------------------------------------------------- series ring


def _random_series(rng: random.Random, order: int | None = None) -> Series:
    if order is None:
        order = rng.randint(0, 8)
    return Series(tuple(rng.randint(-9, 9) for _ in range(order + 1)))


def suite_ring(count: int = 1000, seed: int = 20260809) -> list[CheckResult]:
    """Ring axioms, inverse round trips and truncation consistency on
    randomized small-coefficient inputs."""
    rng = random.Random(seed)
    for i in range(count):
        order = rng.randint(0, 8)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        c = _random_series(rng, order)
        if (a + b) + c != a + (b + c):
            return [CheckResult("ring axioms", False, f"add assoc, input {i}")]
        if a * b != b * a:
            return [CheckResult("ring axioms", False, f"mul comm, input {i}")]
        if (a * b) * c != a * (b * c):
            return [CheckResult("ring axioms", False, f"mul assoc, input {i}")]
        if a * (b + c) != a * b + a * c:
            return [CheckResult("ring axioms", False, f"distributivity, input {i}")]
        if a * a != a * Series(a.coeffs):
            # a square takes its own path; an equal copy takes the general one
            return [CheckResult("ring axioms", False, f"square, input {i}")]

        unit = Series((rng.choice((1, -1)),) + a.coeffs[1:])
        if unit * unit.reciprocal() != Series.one(order):
            return [CheckResult("ring axioms", False, f"reciprocal, input {i}")]
        if (a * unit).div(unit) != a:
            return [CheckResult("ring axioms", False, f"div round trip, input {i}")]

        m = rng.randint(0, order)
        if (a * b).truncate(m) != a.truncate(m) * b.truncate(m):
            return [CheckResult("ring axioms", False, f"truncation, input {i}")]
    return [CheckResult(f"ring axioms on {count} randomized inputs", True)]


# -------------------------------------------------------------- closed forms


def suite_base_counts(
    alpha: int | None = None,
    beta: int | None = None,
    order: int = 12,
    max_slope_sum: int = 8,
) -> list[CheckResult]:
    """Identities of the binomial path counts themselves, each g_ab against
    its own binomial C((alpha+beta)k - 2, alpha*k + shift), and g against
    C((alpha+beta)k, alpha*k): the library derives g_ab from g, so the two
    identities hold by construction, and steps g by an exact ratio."""
    results = []
    for slope in _slope_range(alpha, beta, max_slope_sum):
        g = g_series(slope, order)
        g_ee = g_ab_series(slope, Step.E, Step.E, order)
        g_en = g_ab_series(slope, Step.E, Step.N, order)
        g_nn = g_ab_series(slope, Step.N, Step.N, order)
        results.append(
            _series_equal(
                f"beta*(E-start) = alpha*(N-start) for {slope.alpha}/{slope.beta}",
                slope.beta * (g_ee + g_en),
                slope.alpha * (g_nn + g_en),
                context=f"slope=({slope.alpha},{slope.beta})",
            )
        )
        results.append(
            _series_equal(
                f"g splits by first/last step for {slope.alpha}/{slope.beta}",
                g_ee + 2 * g_en + g_nn,
                g,
                context=f"slope=({slope.alpha},{slope.beta})",
            )
        )
        a, b = slope.alpha, slope.beta
        for r in AB_RESTRICTIONS:
            # each east boundary step leaves one east move fewer to place
            shift = -(r.first is Step.E) - (r.last is Step.E)
            direct = Series(
                tuple(
                    binomial((a + b) * k - 2, a * k + shift) if k else 0
                    for k in range(order + 1)
                )
            )
            check = _series_equal(
                f"g_ab matches its binomial for {a}/{b}",
                g_ab_series(slope, r.first, r.last, order),
                direct,
                context=f"slope=({a},{b}) {r.value}",
            )
            if not check.passed:
                break
        results.append(check)
        binomials = (binomial((a + b) * k, a * k) if k else 0 for k in range(order + 1))
        results.append(
            _series_equal(
                f"g matches its binomial for {a}/{b}",
                g,
                Series(tuple(binomials)),
                context=f"slope=({a},{b})",
            )
        )
    return results


def suite_fuss_catalan(alpha_max: int = 5, order: int = 12) -> list[CheckResult]:
    """c = 1 + x*c^(alpha+1) for every alpha."""
    results = []
    x = Series.x(order)
    for alpha in range(1, alpha_max + 1):
        c = fuss_catalan(alpha, order)
        results.append(
            _series_equal(
                f"functional equation for c_{alpha}",
                1 + x * c ** (alpha + 1),
                c,
                context=f"alpha={alpha}",
            )
        )
    return results


# ---------------------------------------------------- closed-form cell sums


def _bounce_free_classes(slope: Slope, order: int) -> tuple[Series, Series, Series]:
    """(f_ee, f_en, f_nn) from one pair of grids."""
    grids = _marker_grids(slope, order)
    return tuple(
        _marker_value(grids, (r,), 0, 0)
        for r in (Restriction.EE, Restriction.EN, Restriction.NN)
    )


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


def bounce_table_from_closed_forms(
    slope: Slope, max_left: int, max_right: int, order: int
) -> list[list[Series]]:
    """Unrestricted bounce grid assembled entry by entry from closed forms.

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
    return grid


# --------------------------------------------------------- bounce-free forms


def suite_bounce_free(
    alpha: int | None = None,
    beta: int | None = None,
    order: int = 12,
    max_slope_sum: int = 7,
) -> list[CheckResult]:
    """Internal consistency of the bounce-free machinery."""
    results = []
    for slope in _slope_range(alpha, beta, max_slope_sum):
        tag = f"({slope.alpha},{slope.beta})"
        g_ee = g_ab_series(slope, Step.E, Step.E, order)
        g_en = g_ab_series(slope, Step.E, Step.N, order)
        g_nn = g_ab_series(slope, Step.N, Step.N, order)
        f_ee = bounce_free_ab(slope, Restriction.EE, order)
        f_en = bounce_free_ab(slope, Restriction.EN, order)
        f_nn = bounce_free_ab(slope, Restriction.NN, order)

        results.append(
            _series_equal(
                f"bounce determinant matches g_en^2 - g_ee*g_nn {tag}",
                marker_cells(slope, Restriction.ALL, order)[1][(1, 1)],
                g_en * g_en - g_ee * g_nn,
                context=tag,
            )
        )
        results.append(
            _series_equal(
                f"no-right-bounce EN dual form {tag}",
                f_en + (f_ee * f_nn).div(1 - f_en),
                nrb_series(slope, Restriction.EN, order),
                context=tag,
            )
        )
        results.append(
            _series_equal(
                f"reciprocal of 1 - f_en {tag}",
                (1 - f_en).reciprocal(),
                ((1 + g_en) ** 2 - g_ee * g_nn).div(1 + g_en),
                context=tag,
            )
        )
        results.append(
            _series_equal(
                f"one-sided sum equals no-left-bounce total {tag}",
                _one_sided_total(slope, order),
                no_left_bounce_total(slope, order),
                context=tag,
            )
        )
        results.append(
            _series_equal(
                f"bounce-free splits by first/last step {tag}",
                f_ee + 2 * f_en + f_nn,
                bounce_free_total(slope, order),
                context=tag,
            )
        )

        # marker form over bounce-free series vs the one over raw counts
        delta_f = f_en * f_en - f_ee * f_nn
        numerator = {
            (0, 0): bounce_free_total(slope, order),
            (1, 0): -delta_f,
            (0, 1): -delta_f,
        }
        denominator = {
            (0, 0): Series.one(order),
            (1, 0): -f_en,
            (0, 1): -f_en,
            (1, 1): delta_f,
        }
        grid = expand_marker_quotient(numerator, denominator, 3, 3)
        table = bounce_table(slope, Restriction.ALL, 3, 3, order)
        results.append(
            _grid_equal(
                f"bounce-free marker form matches count marker form {tag}",
                _coeff_grid(table.entries),
                _coeff_grid(grid),
                context=tag,
            )
        )

        # swapping the slope components swaps the bounce sides
        mirrored = slope.transpose()
        for m in (1, 2, 3):
            results.append(
                _series_equal(
                    f"left series of {tag} mirrors right series, {m} bounces",
                    one_sided_bounce_series(slope, "left", m, order),
                    one_sided_bounce_series(mirrored, "right", m, order),
                    context=tag,
                )
            )
    return results


def _one_sided_total(slope: Slope, order: int) -> Series:
    total = bounce_free_total(slope, order)
    for m in range(1, order + 1):
        total = total + one_sided_bounce_series(slope, "left", m, order)
    return total


# --------------------------------------------------------- oracle comparison


def suite_oracle_vs_table(
    max_slope_sum: int = 7, max_steps: int = 40
) -> list[CheckResult]:
    """Every table entry, every restriction, against exhaustive enumeration."""
    results = []
    restrictions = [Restriction.ALL, *AB_RESTRICTIONS]
    for slope in coprime_slopes(max_slope_sum):
        semilengths = max_steps // (slope.alpha + slope.beta)
        if semilengths < 1:
            continue
        tag = f"({slope.alpha},{slope.beta})"
        name = f"table vs enumeration {tag}, {semilengths * (slope.alpha + slope.beta)} steps"
        bound = semilengths - 1
        # each restriction's count tables, one per k
        counts = {restriction: [] for restriction in restrictions}
        for k in range(1, semilengths + 1):
            profiles = enumerate_profiles(slope, k)
            for restriction, tables in counts.items():
                tables.append(count_table(profiles, restriction))
        for restriction, tables in counts.items():
            table = bounce_table(slope, restriction, bound, bound, semilengths)
            # no path has semilength 0, so the oracle's k = 0 coefficient is 0
            oracle = [
                [(0, *(t.get((l, r), 0) for t in tables)) for r in range(bound + 1)]
                for l in range(bound + 1)
            ]
            check = _grid_equal(
                name, oracle, _coeff_grid(table.entries), context=f"{tag} {restriction.value}"
            )
            if not check.passed:
                break
        results.append(check)
    return results


def suite_specializations(
    order: int = 12, max_slope_sum: int = 7
) -> list[CheckResult]:
    """Marker specializations: both markers 1 gives all paths, both 0 the
    bounce-free ones, one of each the one-sided-free total."""
    results = []
    for slope in coprime_slopes(max_slope_sum):
        tag = f"({slope.alpha},{slope.beta})"
        bound = order - 1
        table = bounce_table(slope, Restriction.ALL, bound, bound, order)
        results.append(
            _series_equal(
                f"markers (1,1) give all paths {tag}",
                table.sum_all(),
                g_series(slope, order),
                context=tag,
            )
        )
        results.append(
            _series_equal(
                f"markers (0,0) give the bounce-free paths {tag}",
                table.entry(0, 0),
                bounce_free_total(slope, order),
                context=tag,
            )
        )
        axis_sum = Series.zero(order)
        for r in range(bound + 1):
            axis_sum = axis_sum + table.entry(0, r)
        results.append(
            _series_equal(
                f"markers (0,1) give the no-left-bounce paths {tag}",
                axis_sum,
                no_left_bounce_total(slope, order),
                context=tag,
            )
        )
        for restriction in AB_RESTRICTIONS:
            restricted = bounce_table(slope, restriction, bound, bound, order)
            results.append(
                _series_equal(
                    f"markers (1,1) give all {restriction.value} paths {tag}",
                    restricted.sum_all(),
                    g_ab_series(slope, restriction.first, restriction.last, order),
                    context=f"{tag} {restriction.value}",
                )
            )
            results.append(
                _series_equal(
                    f"markers (0,0) give bounce-free {restriction.value} paths {tag}",
                    restricted.entry(0, 0),
                    bounce_free_ab(slope, restriction, order),
                    context=f"{tag} {restriction.value}",
                )
            )
    return results


def suite_table_dual(
    order: int = 12,
    max_slope_sum: int = 6,
    max_left: int = 4,
    max_right: int = 4,
) -> list[CheckResult]:
    """Closed-form cell sums against the rational marker expansion."""
    results = []
    for slope in coprime_slopes(max_slope_sum):
        tag = f"({slope.alpha},{slope.beta})"
        expanded = bounce_table(slope, Restriction.ALL, max_left, max_right, order)
        assembled = bounce_table_from_closed_forms(slope, max_left, max_right, order)
        results.append(
            _grid_equal(
                f"closed forms match expansion {tag}",
                _coeff_grid(expanded.entries),
                _coeff_grid(assembled),
                context=tag,
            )
        )
    return results


# ------------------------------------------------------ beta = 1 specializations


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


def bounce_table_beta1(
    alpha: int, max_left: int, max_right: int, order: int
) -> list[list[Series]]:
    """Bounce grid from the simplified beta = 1 two-marker form

        (g + (2-s-t) g_nn) / (1 + (2-s-t) g_en + (1-s)(1-t) g_nn).
    """
    g, _, g_en, g_nn = _g_parts(Slope(alpha, 1), order)
    numerator = {(0, 0): g + 2 * g_nn, (1, 0): -g_nn, (0, 1): -g_nn}
    denominator = {
        (0, 0): 1 + 2 * g_en + g_nn,
        (1, 0): -(g_en + g_nn),
        (0, 1): -(g_en + g_nn),
        (1, 1): g_nn,
    }
    return expand_marker_quotient(numerator, denominator, max_left, max_right)


def suite_beta1(alpha_max: int = 5, order: int = 10) -> list[CheckResult]:
    """The unit-rise identities and simplified forms."""
    results = []
    for alpha in range(1, alpha_max + 1):
        slope = Slope(alpha, 1)
        tag = f"alpha={alpha}"
        g_ee = g_ab_series(slope, Step.E, Step.E, order)
        g_en = g_ab_series(slope, Step.E, Step.N, order)
        g_nn = g_ab_series(slope, Step.N, Step.N, order)
        results.append(
            _series_equal(
                f"g_ee = alpha*g_nn + (alpha-1)*g_en ({tag})",
                g_ee,
                alpha * g_nn + (alpha - 1) * g_en,
                context=tag,
            )
        )
        results.append(
            _series_equal(
                f"g_en^2 - g_ee*g_nn = g_nn ({tag})",
                g_en * g_en - g_ee * g_nn,
                g_nn,
                context=tag,
            )
        )
        results.append(
            _series_equal(
                f"h closed form = (g_ee+g_en)/(1+g_ee) ({tag})",
                nhc_prefix_series(alpha, order),
                (g_ee + g_en).div(1 + g_ee),
                context=tag,
            )
        )
        f_ee = bounce_free_ab(slope, Restriction.EE, order)
        f_en = bounce_free_ab(slope, Restriction.EN, order)
        f_nn = bounce_free_ab(slope, Restriction.NN, order)
        results.append(
            _series_equal(
                f"f_ee = f_nn + (alpha-1)*f_en ({tag})",
                f_ee,
                f_nn + (alpha - 1) * f_en,
                context=tag,
            )
        )
        for restriction, general in (
            (Restriction.EE, f_ee),
            (Restriction.EN, f_en),
            (Restriction.NN, f_nn),
        ):
            results.append(
                _series_equal(
                    f"simplified f_{restriction.value} ({tag})",
                    bounce_free_ab_beta1(alpha, restriction, order),
                    general,
                    context=tag,
                )
            )
            results.append(
                _series_equal(
                    f"Fuss-Catalan f_{restriction.value} ({tag})",
                    f_ab_via_fuss_catalan(alpha, restriction, order),
                    general,
                    context=tag,
                )
            )
        bound = order - 1  # no path of semilength <= order has more bounces
        simplified = bounce_table_beta1(alpha, bound, bound, order)
        general_table = bounce_table(slope, Restriction.ALL, bound, bound, order)
        results.append(
            _grid_equal(
                f"simplified marker form matches general table ({tag})",
                _coeff_grid(general_table.entries),
                _coeff_grid(simplified),
                context=tag,
            )
        )
    return results


def suite_catalan_slope(order: int = 12) -> list[CheckResult]:
    """Diagonal-slope reductions through the Catalan series."""
    results = []
    slope = Slope(1, 1)
    c = fuss_catalan(1, order)
    x = Series.x(order)
    xc = x * c
    f_ee = bounce_free_ab(slope, Restriction.EE, order)
    f_en = bounce_free_ab(slope, Restriction.EN, order)
    f_nn = bounce_free_ab(slope, Restriction.NN, order)
    results.append(
        _series_equal("f_ee = f_nn on the diagonal", f_ee, f_nn)
    )
    results.append(
        _series_equal(
            "f_ee = (x*c^2 - x*c)/(1 + x*c)",
            f_ee,
            (xc * c - xc).div(1 + xc),
        )
    )
    results.append(
        _series_equal("f_en = x*c^2/(1 + x*c)", f_en, (xc * c).div(1 + xc))
    )
    results.append(
        _series_equal(
            "f = 2(c - 1)", bounce_free_total(slope, order), 2 * (c - 1)
        )
    )
    results.append(
        _series_equal(
            "E-start times N-start bounce-free product is (c - 1)^2",
            bounce_free_prefix(slope, Step.E, order)
            * bounce_free_prefix(slope, Step.N, order),
            (c - 1) * (c - 1),
        )
    )
    # two-marker form written directly in x*c(x)
    numerator = {(0, 0): 4 * xc - 2 * x, (1, 0): x - xc, (0, 1): x - xc}
    denominator = {
        (0, 0): 1 + x - xc,
        (1, 0): -xc,
        (0, 1): -xc,
        (1, 1): xc - x,
    }
    grid = expand_marker_quotient(numerator, denominator, 4, 4)
    table = bounce_table(slope, Restriction.ALL, 4, 4, order)
    results.append(
        _grid_equal(
            "Catalan marker form matches general table",
            _coeff_grid(table.entries),
            _coeff_grid(grid),
        )
    )
    return results


def suite_total_bounces(b_max: int = 6, n_max: int = 11) -> list[CheckResult]:
    """Diagonal paths by their total bounce count: the coefficient formula of
    ``g_b_series``, the power form 2(c - 1)^(b+1) and enumeration all agree."""
    results = []
    slope = Slope(1, 1)
    c = fuss_catalan(1, n_max)
    profiles = [enumerate_profiles(slope, n) for n in range(1, n_max + 1)]
    for b in range(b_max + 1):
        series = g_b_series(b, n_max)
        results.append(
            _series_equal(
                f"coefficient formula for {b} total bounces",
                series,
                2 * (c - 1) ** (b + 1),
                context=f"b={b}",
            )
        )
        # no path has semilength 0, so the enumerated k = 0 coefficient is 0
        enumerated = Series((0, *(count_matching(p, total_bounces=b) for p in profiles)))
        results.append(
            _series_equal(
                f"enumeration matches for {b} total bounces",
                series,
                enumerated,
                context=f"b={b}",
            )
        )
    return results


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


def suite_syt(n_max: int = 16) -> list[CheckResult]:
    """Hook-length counts, ballot counts and E-start path counts agree."""
    results = []
    slope = Slope(1, 1)
    mismatch = None
    for n in range(1, n_max + 1):
        profiles = enumerate_profiles(slope, n)
        for b in range(n):
            hook = syt_two_row_count(n, b)
            filled = enumerate_syt(TwoRowShape(n + b, n - b - 1))
            paths = count_matching(profiles, first=Step.E, total_bounces=b)
            both_starts = g_b_series(b, n).coefficient(n)
            if not (hook == filled == paths) or both_starts != 2 * hook:
                mismatch = (
                    f"n={n} b={b} hook={hook} ballot={filled} "
                    f"paths={paths} series={both_starts}"
                )
                break
        if mismatch:
            break
    results.append(
        CheckResult(
            f"two-row tableau counts match paths up to n={n_max}",
            mismatch is None,
            mismatch or "",
        )
    )
    return results


def suite_crosses(
    alpha_max: int = 3, max_steps: int = 40, order: int = 10
) -> list[CheckResult]:
    """Horizontal-cross series against enumeration, plus the three
    equivalent forms of the crossless no-right-bounce series: alpha*(c_alpha - 1)
    as ``nhc_nrb_series`` computes it, h/(1 + nhc_en) and g_estar/(1 + g_estar)."""
    results = []
    for alpha in range(1, alpha_max + 1):
        slope = Slope(alpha, 1)
        tag = f"alpha={alpha}"
        semilengths = max_steps // (alpha + 1)
        if semilengths < 1:
            continue
        series = {
            "crossless EE": (
                nhc_series(alpha, Restriction.EE, semilengths),
                dict(first=Step.E, last=Step.E, crosses=0),
            ),
            "crossless EN": (
                nhc_series(alpha, Restriction.EN, semilengths),
                dict(first=Step.E, last=Step.N, crosses=0),
            ),
            "crossless NE": (
                nhc_series(alpha, Restriction.NE, semilengths),
                dict(first=Step.N, last=Step.E, crosses=0),
            ),
            "crossless E-start": (
                nhc_prefix_series(alpha, semilengths),
                dict(first=Step.E, crosses=0),
            ),
            "crossless E-start no right bounces": (
                nhc_nrb_series(alpha, semilengths),
                dict(first=Step.E, crosses=0, right=0),
            ),
            "crossless N-start": (
                rational_dyck_series(alpha, semilengths),
                dict(first=Step.N, crosses=0),
            ),
        }
        # no path has semilength 0, so every enumerated k = 0 coefficient is 0
        counts = {label: [0] for label in series}
        for k in range(1, semilengths + 1):
            profiles = enumerate_profiles(slope, k, crosses=True)
            for label, (_, filters) in series.items():
                counts[label].append(count_matching(profiles, **filters))
        name = f"cross statistics match enumeration ({tag})"
        for label, (s, _) in series.items():
            check = _series_equal(name, s, Series(counts[label]), context=f"{tag} {label}")
            if not check.passed:
                break
        results.append(check)
    for alpha in range(1, 6):
        name = f"three crossless no-right-bounce forms agree (alpha={alpha})"
        production = nhc_nrb_series(alpha, order)
        h = nhc_prefix_series(alpha, order)
        g_estar = g_prefix_series(Slope(alpha, 1), Step.E, order)
        for label, form in (
            ("h/(1+nhc_en)", h.div(1 + nhc_series(alpha, Restriction.EN, order))),
            ("g_estar/(1+g_estar)", g_estar.div(1 + g_estar)),
        ):
            check = _series_equal(name, form, production, context=f"alpha={alpha} {label}")
            if not check.passed:
                break
        results.append(check)
    return results


SUITES = {
    "reference-series": suite_reference_series,
    "ring": suite_ring,
    "base-counts": suite_base_counts,
    "fuss-catalan": suite_fuss_catalan,
    "bounce-free": suite_bounce_free,
    "oracle-vs-table": suite_oracle_vs_table,
    "specializations": suite_specializations,
    "table-dual": suite_table_dual,
    "beta1": suite_beta1,
    "catalan-slope": suite_catalan_slope,
    "total-bounces": suite_total_bounces,
    "syt": suite_syt,
    "crosses": suite_crosses,
}
