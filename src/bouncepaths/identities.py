"""Identity suites: every closed form against its alternative formulas.

The library computes each series by one production formula.  The
alternative formulas the suites hold it against are defined here, beside
the suites that call them: the cell sums of the bounce table over the
bounce-free classes (f_ee, f_en, f_nn), which :func:`bounce_free_classes`
builds once per slope, and the beta = 1 and Fuss-Catalan forms of those
classes, :func:`bounce_free_ab_beta1` and :func:`f_ab_via_fuss_catalan`.
The bounce-free, beta = 1 and Catalan two-marker forms each pass their own
triples to :func:`~bouncepaths.bounce.expand_marker_quotient`, apart from
the production triples, so a slip in either shows.  The suites report
through the check record and comparison helpers of
:mod:`bouncepaths.verify`, every table check through its
:func:`~bouncepaths.verify._matches_table`.

``SUITES`` holds these nine suites; ``verify.SUITES`` holds the four that
compare against enumeration.  Only :func:`bouncepaths.verify.registry`
imports this module, and only when a run names an identity suite, runs
every suite, or names a suite neither registry holds.
"""

import random

from .beta_one import nhc_nrb_series, nhc_prefix_series
from .bounce import (
    bounce_free_ab,
    bounce_free_prefix,
    bounce_free_total,
    bounce_table,
    expand_marker_quotient,
    marker_cells,
    no_left_bounce_total,
    nrb_series,
)
from .closed_forms import (
    AB_RESTRICTIONS,
    Restriction,
    Slope,
    Step,
    _g_parts,
    binomial,
    fuss_catalan,
    g_ab_series,
    g_series,
)
from .series import Series
from .verify import (
    CheckResult, _checks_equal, _first_failure, _matches_table, _series_equal, coprime_slopes,
)


def _slope_range(alpha, beta, max_slope_sum):
    if alpha is not None and beta is not None:
        return [Slope(alpha, beta)]
    return coprime_slopes(max_slope_sum)


# ----------------------------------------------------------- fixed sequences

# name -> (production formula, its arguments before the order, coefficients
# of x^1..x^8)
REFERENCE_SEQUENCES = {
    # slope (2, 1), bounce-free EE- and EN-paths (the OEIS pair A000259/A000305)
    "f_ee(2,1)": (
        "bounce_free_ab", (Slope(2, 1), Restriction.EE),
        (1, 4, 18, 89, 466, 2537, 14209, 81316),
    ),
    "f_en(2,1)": (
        "bounce_free_ab", (Slope(2, 1), Restriction.EN),
        (1, 3, 13, 63, 326, 1761, 9808, 55895),
    ),
    # alpha = 2: E-start, crossless, no right bounces (OEIS A046646)
    "H(2)": ("nhc_nrb_series", (2,), (2, 6, 24, 110, 546, 2856, 15504, 86526)),
}


def suite_reference_series() -> list[CheckResult]:
    """The published reference sequences reproduced exactly."""
    # each formula is looked up by name as the suite runs, as a call would be
    return [
        _series_equal(
            f"reference {name} through x^{len(values)}",
            globals()[formula](*arguments, len(values)),
            Series((0, *values)),
        )
        for name, (formula, arguments, values) in REFERENCE_SEQUENCES.items()
    ]


# -------------------------------------------------------------- series ring


def _random_series(rng: random.Random, order: int) -> Series:
    return Series(tuple(rng.randint(-9, 9) for _ in range(order + 1)))


def suite_ring(count: int = 1000, seed: int = 20260809) -> list[CheckResult]:
    """Ring axioms, inverse round trips and truncation consistency on
    randomized small-coefficient inputs."""
    rng = random.Random(seed)
    name = f"ring axioms on {count} randomized inputs"

    def checks():
        for i in range(count):
            order = rng.randint(0, 8)
            a, b, c = (_random_series(rng, order) for _ in range(3))
            unit = Series((rng.choice((1, -1)),) + a.coeffs[1:])
            m = rng.randint(0, order)
            laws = (
                ("add assoc", (a + b) + c, a + (b + c)),
                ("mul comm", a * b, b * a),
                ("mul assoc", (a * b) * c, a * (b * c)),
                ("distributivity", a * (b + c), a * b + a * c),
                # a square takes its own path; an equal copy takes the general one
                ("square", a * a, a * Series(a.coeffs)),
                ("reciprocal", unit * unit.reciprocal(), Series.one(order)),
                ("div round trip", (a * unit).div(unit), a),
                ("truncation", (a * b).truncate(m), a.truncate(m) * b.truncate(m)),
            )
            for law, actual, expected in laws:
                yield _series_equal(name, actual, expected, context=f"{law}, input {i}")

    return [_first_failure(name, checks())]


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
        a, b = slope.alpha, slope.beta
        tag = f"slope=({a},{b})"
        g = g_series(slope, order)
        g_ee = g_ab_series(slope, Step.E, Step.E, order)
        g_en = g_ab_series(slope, Step.E, Step.N, order)
        g_nn = g_ab_series(slope, Step.N, Step.N, order)
        # (name, actual, expected)
        checks = [
            (f"beta*(E-start) = alpha*(N-start) for {a}/{b}", b * (g_ee + g_en), a * (g_nn + g_en)),
            (f"g splits by first/last step for {a}/{b}", g_ee + 2 * g_en + g_nn, g),
        ]
        results += _checks_equal(checks, context=tag)
        # (steps, east steps) of the paths of semilength k = 1..order
        sizes = [((a + b) * k, a * k) for k in range(1, order + 1)]
        name = f"g_ab matches its binomial for {a}/{b}"
        checks = (
            _series_equal(
                name,
                g_ab_series(slope, r.first, r.last, order),
                Series((0, *(binomial(n - 2, e - east) for n, e in sizes))),
                context=f"{tag} {r.value}",
            )
            for r in AB_RESTRICTIONS
            # each east boundary step leaves one east move fewer to place
            for east in [(r.first is Step.E) + (r.last is Step.E)]
        )
        results.append(_first_failure(name, checks))
        results.append(
            _series_equal(
                f"g matches its binomial for {a}/{b}",
                g,
                Series((0, *(binomial(n, e) for n, e in sizes))),
                context=tag,
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
                c,
                1 + x * c ** (alpha + 1),
                context=f"alpha={alpha}",
            )
        )
    return results


# ---------------------------------------------------- closed-form cell sums


def bounce_free_classes(slope: Slope, order: int) -> tuple[Series, Series, Series]:
    """The bounce-free classes (f_ee, f_en, f_nn) that every cell sum is built of."""
    return tuple(
        bounce_free_ab(slope, r, order)
        for r in (Restriction.EE, Restriction.EN, Restriction.NN)
    )


def one_sided_bounce_series(classes: tuple[Series, Series, Series], count: int) -> Series:
    """Paths with exactly ``count`` bounces on one side and none on the other,
    from the bounce-free ``classes`` (f_ee, f_en, f_nn).

    For ``count = m >= 1`` this is the product of a bounce-free prefix, m - 1
    bounce-free EN/NE bridges, and a bounce-free suffix; either side gives
    this series because the bridge factor is shared.
    """
    if count < 1:
        raise ValueError("count must be at least 1; use bounce_free_total for 0")
    f_ee, f_en, f_nn = classes
    return (f_ee + f_en) * f_en ** (count - 1) * (f_nn + f_en)


def b_lr_closed_form(classes: tuple[Series, Series, Series], left: int, right: int) -> Series:
    """Paths with exactly ``left`` and ``right`` bounces, both at least 1, from
    the bounce-free ``classes`` (f_ee, f_en, f_nn).

    Finite sum over the number i of maximal right-bounce runs, in four parts
    according to whether the first and last bounces are left or right ones.
    Terms whose binomial weight vanishes are skipped, which also keeps every
    exponent non-negative.
    """
    if left < 1 or right < 1:
        raise ValueError("both bounce counts must be at least 1")
    f_ee, f_en, f_nn = classes
    start_e = f_ee + f_en
    start_n = f_nn + f_en
    ee_nn = f_ee * f_nn

    total = Series.zero(f_en.order)
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
    classes = bounce_free_classes(slope, order)
    grid: list[list[Series]] = []
    for l in range(max_left + 1):
        row = []
        for r in range(max_right + 1):
            if l == 0 and r == 0:
                row.append(bounce_free_total(slope, order))
            elif l == 0 or r == 0:
                row.append(one_sided_bounce_series(classes, l + r))
            else:
                row.append(b_lr_closed_form(classes, l, r))
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
    slopes = _slope_range(alpha, beta, max_slope_sum)
    # each slope's classes, built once whether checked as itself or as a mirror
    needed = dict.fromkeys(s for slope in slopes for s in (slope, slope.transpose()))
    classes = {s: bounce_free_classes(s, order) for s in needed}
    for slope in slopes:
        tag = f"({slope.alpha},{slope.beta})"
        _, g_ee, g_en, g_nn = _g_parts(slope, order)
        f_ee, f_en, f_nn = own = classes[slope]
        f = bounce_free_total(slope, order)
        # (name, actual, expected)
        checks = [
            (
                f"bounce determinant matches g_en^2 - g_ee*g_nn {tag}",
                marker_cells(slope, order)[1][2],
                g_en * g_en - g_ee * g_nn,
            ),
            (
                f"no-right-bounce EN dual form {tag}",
                nrb_series(slope, Restriction.EN, order),
                f_en + (f_ee * f_nn).div(1 - f_en),
            ),
            (
                f"reciprocal of 1 - f_en {tag}",
                (1 - f_en).reciprocal(),
                ((1 + g_en) ** 2 - g_ee * g_nn).div(1 + g_en),
            ),
            (
                f"one-sided sum equals no-left-bounce total {tag}",
                no_left_bounce_total(slope, order),
                sum((one_sided_bounce_series(own, m) for m in range(1, order + 1)), f),
            ),
            (f"bounce-free splits by first/last step {tag}", f, f_ee + 2 * f_en + f_nn),
        ]
        results += _checks_equal(checks, context=tag)

        # marker form over bounce-free series vs the one over raw counts
        delta_f = f_en * f_en - f_ee * f_nn
        form = expand_marker_quotient(
            (f, -delta_f, -delta_f), (Series.one(order), -f_en, delta_f), 3, 3
        )
        name = f"bounce-free marker form matches count marker form {tag}"
        results.append(_matches_table(name, slope, Restriction.ALL, form, order, context=tag))

        # swapping the slope components swaps the bounce sides
        results += [
            _series_equal(
                f"left series of {tag} mirrors right series, {m} bounces",
                one_sided_bounce_series(own, m),
                one_sided_bounce_series(classes[slope.transpose()], m),
                context=tag,
            )
            for m in (1, 2, 3)
        ]
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
        # (name, actual, expected)
        checks = [
            (f"markers (1,1) give all paths {tag}", table.sum_all(), g_series(slope, order)),
            (
                f"markers (0,0) give the bounce-free paths {tag}",
                table.entry(0, 0),
                bounce_free_total(slope, order),
            ),
            (
                f"markers (0,1) give the no-left-bounce paths {tag}",
                sum(table.entries[0], Series.zero(order)),
                no_left_bounce_total(slope, order),
            ),
        ]
        results += _checks_equal(checks, context=tag)
        for restriction in AB_RESTRICTIONS:
            restricted = bounce_table(slope, restriction, bound, bound, order)
            label = restriction.value
            checks = [
                (
                    f"markers (1,1) give all {label} paths {tag}",
                    restricted.sum_all(),
                    g_ab_series(slope, restriction.first, restriction.last, order),
                ),
                (
                    f"markers (0,0) give bounce-free {label} paths {tag}",
                    restricted.entry(0, 0),
                    bounce_free_ab(slope, restriction, order),
                ),
            ]
            results += _checks_equal(checks, context=f"{tag} {label}")
    return results


def suite_table_dual(
    order: int = 12,
    max_slope_sum: int = 6,
    max_left: int = 4,
    max_right: int = 4,
) -> list[CheckResult]:
    """Closed-form cell sums against the rational marker expansion."""
    return [
        _matches_table(
            f"closed forms match expansion {tag}",
            slope,
            Restriction.ALL,
            bounce_table_from_closed_forms(slope, max_left, max_right, order),
            order,
            context=tag,
        )
        for slope in coprime_slopes(max_slope_sum)
        for tag in [f"({slope.alpha},{slope.beta})"]
    ]


# ------------------------------------------------------ beta = 1 specializations


def f_ab_via_fuss_catalan(alpha: int, order: int) -> tuple[Series, Series, Series]:
    """Bounce-free path classes (f_ee, f_en, f_nn) written in the
    Fuss-Catalan series c = c_alpha (f_ne = f_en):

        f_ee = (alpha*c - 1)(c - 1) / q,   f_nn = (c - 1)^2 / q,
        f_en = c(c - 1) / q,               q = (1-alpha)c^2 + (alpha+1)c - 1.
    """
    c = fuss_catalan(alpha, order)
    q = (1 - alpha) * c * c + (alpha + 1) * c - 1
    return tuple(
        numerator.div(q)
        for numerator in ((alpha * c - 1) * (c - 1), c * (c - 1), (c - 1) * (c - 1))
    )


def bounce_free_ab_beta1(alpha: int, order: int) -> tuple[Series, Series, Series]:
    """Simplified bounce-free forms (f_ee, f_en, f_nn), valid for beta = 1:

        f_ee = g_ee / (1 + g - g_ee),   f_en = (g_nn + g_en) / (1 + g - g_ee),
        f_nn = g_nn / (1 + g - g_ee).
    """
    g, g_ee, g_en, g_nn = _g_parts(Slope(alpha, 1), order)
    den = 1 + g - g_ee
    return g_ee.div(den), (g_nn + g_en).div(den), g_nn.div(den)


def bounce_table_beta1(
    alpha: int, max_left: int, max_right: int, order: int
) -> list[list[Series]]:
    """Bounce grid from the simplified beta = 1 two-marker form

        (g + (2-s-t) g_nn) / (1 + (2-s-t) g_en + (1-s)(1-t) g_nn).
    """
    g, _, g_en, g_nn = _g_parts(Slope(alpha, 1), order)
    numerator = (g + 2 * g_nn, -g_nn, -g_nn)
    denominator = (1 + 2 * g_en + g_nn, -(g_en + g_nn), g_nn)
    return expand_marker_quotient(numerator, denominator, max_left, max_right)


def suite_beta1(alpha_max: int = 5, order: int = 10) -> list[CheckResult]:
    """The unit-rise identities and simplified forms."""
    results = []
    for alpha in range(1, alpha_max + 1):
        slope = Slope(alpha, 1)
        tag = f"alpha={alpha}"
        _, g_ee, g_en, g_nn = _g_parts(slope, order)
        f_ee, f_en, f_nn = general = bounce_free_classes(slope, order)
        # (name, actual, expected)
        checks = [
            ("g_ee = alpha*g_nn + (alpha-1)*g_en", g_ee, alpha * g_nn + (alpha - 1) * g_en),
            ("g_en^2 - g_ee*g_nn = g_nn", g_en * g_en - g_ee * g_nn, g_nn),
            (
                "h closed form = (g_ee+g_en)/(1+g_ee)",
                nhc_prefix_series(alpha, order),
                (g_ee + g_en).div(1 + g_ee),
            ),
            ("f_ee = f_nn + (alpha-1)*f_en", f_ee, f_nn + (alpha - 1) * f_en),
        ]
        forms = zip(
            ("ee", "en", "nn"),
            general,
            bounce_free_ab_beta1(alpha, order),
            f_ab_via_fuss_catalan(alpha, order),
        )
        for label, f, simplified, fuss in forms:
            checks.append((f"simplified f_{label}", f, simplified))
            checks.append((f"Fuss-Catalan f_{label}", f, fuss))
        results += _checks_equal([(f"{name} ({tag})", a, e) for name, a, e in checks], tag)
        bound = order - 1  # no path of semilength <= order has more bounces
        form = bounce_table_beta1(alpha, bound, bound, order)
        name = f"simplified marker form matches general table ({tag})"
        results.append(_matches_table(name, slope, Restriction.ALL, form, order, context=tag))
    return results


def suite_catalan_slope(order: int = 12) -> list[CheckResult]:
    """Diagonal-slope reductions through the Catalan series."""
    slope = Slope(1, 1)
    c = fuss_catalan(1, order)
    x = Series.x(order)
    xc = x * c
    f_ee, f_en, f_nn = bounce_free_classes(slope, order)
    # (name, actual, expected)
    checks = [
        ("f_ee = f_nn on the diagonal", f_ee, f_nn),
        ("f_ee = (x*c^2 - x*c)/(1 + x*c)", f_ee, (xc * c - xc).div(1 + xc)),
        ("f_en = x*c^2/(1 + x*c)", f_en, (xc * c).div(1 + xc)),
        ("f = 2(c - 1)", bounce_free_total(slope, order), 2 * (c - 1)),
        (
            "E-start times N-start bounce-free product is (c - 1)^2",
            bounce_free_prefix(slope, Step.E, order) * bounce_free_prefix(slope, Step.N, order),
            (c - 1) * (c - 1),
        ),
    ]
    results = _checks_equal(checks)
    # two-marker form written directly in x*c(x)
    form = expand_marker_quotient((4 * xc - 2 * x, x - xc, x - xc), (1 + x - xc, -xc, xc - x), 4, 4)
    name = "Catalan marker form matches general table"
    results.append(_matches_table(name, slope, Restriction.ALL, form, order))
    return results


SUITES = {
    "reference-series": suite_reference_series,
    "ring": suite_ring,
    "base-counts": suite_base_counts,
    "fuss-catalan": suite_fuss_catalan,
    "bounce-free": suite_bounce_free,
    "specializations": suite_specializations,
    "table-dual": suite_table_dual,
    "beta1": suite_beta1,
    "catalan-slope": suite_catalan_slope,
}
