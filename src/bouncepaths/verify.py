"""The ``verify`` framework, and the suites that check against the oracle.

Each suite returns a list of :class:`CheckResult`; a failing check carries
the first mismatching coefficient (slope, grid cell where relevant, and k)
in its detail string, worded by :func:`_series_equal` as ``k=... expected=...
actual=...``, where ``actual`` is the library's value.  Every check of a
bounce table, against enumeration or against an alternative form, goes
through :func:`_matches_table`.  The suites back both the command line
``verify`` command and the acceptance tests.

This module holds the check record, the comparison helpers, ``SUITES``
(every suite, in plain ``verify``'s order) and the four suites that
compare the generating functions against exhaustive enumeration:
``oracle-vs-table``, ``total-bounces``, ``syt`` (with the hook-length count
of two-row tableaux) and ``crosses``.  The nine identity suites and the
alternative formulas they hold each series against live in
:mod:`bouncepaths.identities`.  :func:`run` is the ``verify`` command:
:func:`registry` finds the suites it names, and each option must lie in
``BOUNDS`` and be one that a named suite takes.
"""

import math
import sys

from .beta_one import (
    g_b_series, nhc_nrb_series, nhc_prefix_series, nhc_series, rational_dyck_series,
)
from .closed_forms import (
    AB_RESTRICTIONS,
    NonIntegerCoefficient,
    Restriction,
    Slope,
    Step,
    _binomial_digits_at_least,
    fuss_catalan,
    g_prefix_series,
)
from .enumeration import (
    MAX_STEPS,
    BudgetExceeded,
    InvalidShape,
    TwoRowShape,
    count_matching,
    count_table,
    enumerate_profiles,
    enumerate_syt,
)
from .series import Series, _Record


class CheckResult(_Record):
    """One check's outcome."""

    __slots__ = ("name", "passed", "detail")

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


def _series_equal(name: str, actual: Series, expected: Series, context: str = "") -> CheckResult:
    """``actual``, the library's value, against ``expected``: the first
    differing coefficient, else differing orders.  Every mismatch a suite
    reports is worded here."""
    if actual.coeffs == expected.coeffs:
        return CheckResult(name, True)
    where = f"{context} " if context else ""
    for k, (a, e) in enumerate(zip(actual.coeffs, expected.coeffs)):
        if a != e:
            return CheckResult(name, False, f"{where}k={k} expected={e} actual={a}")
    return CheckResult(
        name, False, f"{where}order expected={expected.order} actual={actual.order}"
    )


def _checks_equal(checks, context: str = "") -> list[CheckResult]:
    """One :func:`_series_equal` result per ``(name, actual, expected)`` of
    ``checks``, each with ``context``."""
    return [_series_equal(name, actual, expected, context) for name, actual, expected in checks]


def _enumerated(profiles, **filters) -> Series:
    """The paths of each profile multiset that pass ``filters``, those of
    :func:`count_matching`, by semilength 1, 2, ...: no path has semilength
    0, so the k = 0 coefficient is 0."""
    return Series((0, *(count_matching(p, **filters) for p in profiles)))


def _matches_table(
    name: str,
    slope: Slope,
    restriction: Restriction,
    grid,
    order: int,
    context: str = "",
    cells=None,
) -> CheckResult:
    """The library's bounce table of ``slope`` and ``restriction`` at the
    bounds of ``grid``, a grid of series, checked against it on coefficient
    tuples; a failure names the first mismatching cell in l, then r, then k
    order, and a grid whose rows differ in length has its shape reported.
    ``cells``, the slope's marker cells when the caller holds them, is
    passed on to the table."""
    from .bounce import bounce_table  # only the table checks load the bounce layer

    table = bounce_table(slope, restriction, len(grid) - 1, len(grid[0]) - 1, order, cells=cells)
    if [[s.coeffs for s in row] for row in table] == [[s.coeffs for s in row] for row in grid]:
        return CheckResult(name, True)
    where = f"{context} " if context else ""
    cells = (
        _series_equal(name, actual, expected, f"{where}l={l} r={r}")
        for l, (actual_row, expected_row) in enumerate(zip(table, grid))
        for r, (actual, expected) in enumerate(zip(actual_row, expected_row))
    )
    return next(
        (cell for cell in cells if not cell.passed),
        CheckResult(name, False, f"{where}grid shapes differ"),
    )


def _first_failure(name: str, checks) -> CheckResult:
    """The first failing check of ``checks``, else one pass named ``name``.
    ``checks`` is built lazily, so nothing after a failure is computed."""
    return next((check for check in checks if not check.passed), CheckResult(name, True))


# --------------------------------------------------------- oracle comparison


def suite_oracle_vs_table(
    max_slope_sum: int = 7, max_steps: int = 40
) -> list[CheckResult]:
    """Every table entry, every restriction, against exhaustive enumeration.
    A slope of more than ``max_steps`` steps has no path to compare.  Each
    slope's marker cells are built once and given to every restriction's
    table."""
    from . import bounce

    results = []
    restrictions = [Restriction.ALL, *AB_RESTRICTIONS]
    for slope in coprime_slopes(min(max_slope_sum, max_steps)):
        semilengths = max_steps // (slope.alpha + slope.beta)
        tag = f"({slope.alpha},{slope.beta})"
        name = f"table vs enumeration {tag}, {semilengths * (slope.alpha + slope.beta)} steps"
        bounds = range(semilengths)  # a path of semilength k has at most k - 1 bounces
        profiles = [enumerate_profiles(slope, k) for k in range(1, semilengths + 1)]
        zero = Series.zero(semilengths)
        cells = bounce.marker_cells(slope, semilengths)

        def grid(restriction):
            # each reached cell's counts by semilength, filled in one pass over
            # each semilength's table; one zero series for every cell no path reaches
            reached = {}
            for k, p in enumerate(profiles, 1):
                for key, n in count_table(p, restriction).items():
                    reached.setdefault(key, [0] * (semilengths + 1))[k] = n
            reached = {key: Series(tuple(counts)) for key, counts in reached.items()}
            return [[reached.get((l, r), zero) for r in bounds] for l in bounds]

        checks = (
            _matches_table(
                name, slope, r, grid(r), semilengths, context=f"{tag} {r.value}", cells=cells
            )
            for r in restrictions
        )
        results.append(_first_failure(name, checks))
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
        enumerated = _enumerated(profiles, total_bounces=b)
        results += _checks_equal(
            [
                (f"coefficient formula for {b} total bounces", series, 2 * (c - 1) ** (b + 1)),
                (f"enumeration matches for {b} total bounces", series, enumerated),
            ],
            context=f"b={b}",
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
    """Hook-length counts, ballot counts and E-start path counts agree, as
    series in the semilength n, one group per bounce count b."""
    name = f"two-row tableau counts match paths up to n={n_max}"
    profiles = [enumerate_profiles(Slope(1, 1), n) for n in range(1, n_max + 1)]

    def by_semilength(b, count) -> Series:
        # no tableau of semilength n <= b has b bounces
        return Series((0,) * (b + 1) + tuple(map(count, range(b + 1, n_max + 1))))

    def checks():
        for b in range(n_max):
            hook = by_semilength(b, lambda n: syt_two_row_count(n, b))
            ballot = by_semilength(b, lambda n: enumerate_syt(TwoRowShape(n + b, n - b - 1)))
            yield _series_equal(name, ballot, hook, context=f"b={b} ballot")
            paths = _enumerated(profiles, first=Step.E, total_bounces=b)
            yield _series_equal(name, paths, hook, context=f"b={b} paths")
            yield _series_equal(name, g_b_series(b, n_max), 2 * hook, context=f"b={b} series")

    return [_first_failure(name, checks())]


def suite_crosses(
    alpha_max: int = 3, max_steps: int = 40, order: int = 10
) -> list[CheckResult]:
    """Horizontal-cross series against enumeration for alpha = 1..alpha_max:
    the crossless classes of each ``Restriction`` EE, EN and NE, and the
    E-start, E-start no-right-bounce and N-start classes, all counted from
    one enumeration per (alpha, k).  And for alpha = 1..5 whatever
    ``alpha_max``, the three equivalent forms of the crossless
    no-right-bounce series to ``order``: alpha*(c_alpha - 1) as
    ``nhc_nrb_series`` computes it, h/(1 + nhc_en) and g_estar/(1 + g_estar)."""
    results = []
    # alpha + 1 steps is the shortest path of slope alpha/1
    for alpha in range(1, min(alpha_max, max_steps - 1) + 1):
        slope = Slope(alpha, 1)
        tag = f"alpha={alpha}"
        semilengths = max_steps // (alpha + 1)
        # (label, series, the filters of the paths it counts)
        classes = [
            (f"crossless {r.name}", nhc_series(alpha, r, semilengths),
             dict(first=r.first, last=r.last, crosses=0))
            for r in (Restriction.EE, Restriction.EN, Restriction.NE)
        ] + [
            ("crossless E-start", nhc_prefix_series(alpha, semilengths),
             dict(first=Step.E, crosses=0)),
            ("crossless E-start no right bounces", nhc_nrb_series(alpha, semilengths),
             dict(first=Step.E, crosses=0, right=0)),
            ("crossless N-start", rational_dyck_series(alpha, semilengths),
             dict(first=Step.N, crosses=0)),
        ]
        profiles = [enumerate_profiles(slope, k, crosses=True) for k in range(1, semilengths + 1)]
        name = f"cross statistics match enumeration ({tag})"
        checks = (
            _series_equal(name, series, _enumerated(profiles, **filters), context=f"{tag} {label}")
            for label, series, filters in classes
        )
        results.append(_first_failure(name, checks))
    for alpha in range(1, 6):
        name = f"three crossless no-right-bounce forms agree (alpha={alpha})"
        production = nhc_nrb_series(alpha, order)
        h = nhc_prefix_series(alpha, order)
        g_estar = g_prefix_series(Slope(alpha, 1), Step.E, order)
        checks = (
            _series_equal(name, production, form, context=f"alpha={alpha} {label}")
            for label, form in (
                ("h/(1+nhc_en)", h.div(1 + nhc_series(alpha, Restriction.EN, order))),
                ("g_estar/(1+g_estar)", g_estar.div(1 + g_estar)),
            )
        )
        results.append(_first_failure(name, checks))
    return results


# every suite in plain ``verify``'s order; an identity suite is None (see ``registry``)
SUITES = {
    "reference-series": None,
    "ring": None,
    "base-counts": None,
    "fuss-catalan": None,
    "bounce-free": None,
    "oracle-vs-table": suite_oracle_vs_table,
    "specializations": None,
    "table-dual": None,
    "beta1": None,
    "catalan-slope": None,
    "total-bounces": suite_total_bounces,
    "syt": suite_syt,
    "crosses": suite_crosses,
}

# (smallest, largest) value of each suite option: below the smallest a suite
# compares nothing, above the largest it would exceed the oracle's budget or
# run past about 2 s with its other options at their defaults; order has no
# one largest value.  syt and total-bounces, the suites that take n_max, walk
# diagonal paths of 2n steps, and no path of semilength n <= b has b bounces,
# so a larger b_max compares only zero series.  In-process on a shared 2-core
# host with CPython 3.11.7: at alpha_max 1000 beta1 took 1.4-2.4 s,
# fuss-catalan 0.3 s and crosses 0.2 s; at count 10,000 ring took 1.0-1.2 s;
# at max_left and max_right both 12 table-dual took 1.4 s; at max_slope_sum
# 20 table-dual took 1.0 s and specializations 0.6-0.7 s.
BOUNDS = {
    "count": (1, 10_000), "order": (1, None), "alpha_max": (1, 1000),
    "n_max": (1, MAX_STEPS // 2), "b_max": (0, MAX_STEPS // 2),
    "max_left": (0, 12), "max_right": (0, 12),
    "max_slope_sum": (2, 20), "max_steps": (2, MAX_STEPS),
}
# digits the path count C((alpha+beta)N, alpha*N) of a chosen slope may have
# at the order N its suites run at.  base-counts and bounce-free, the suites
# that take a slope, each took 0.2-0.8 s at the limit, in-process on a shared
# 2-core host with CPython 3.11.7, and grow about as the square of the digits
MAX_SLOPE_DIGITS = 10_000


def registry(names=()) -> dict:
    """Each suite of ``names`` (all of ``SUITES`` when empty) by name, each
    once; an identity suite, None in ``SUITES``, is ``suite_<name>`` of
    :mod:`bouncepaths.identities`, hyphens as underscores.  An unknown name
    is a ValueError that lists the suites, raised before any import."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {', '.join(unknown)}; available: {', '.join(SUITES)}")
    suites = {name: SUITES[name] for name in dict.fromkeys(names or SUITES)}
    if None in suites.values():
        from . import identities

        suites = {
            name: suite or getattr(identities, "suite_" + name.replace("-", "_"))
            for name, suite in suites.items()
        }
    return suites


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parameters(suite) -> dict:
    """Each parameter name of a suite with its default, or None, read from
    its code object after following ``__wrapped__`` (set by
    ``functools.wraps``) to the original function, as ``inspect.signature``
    does."""
    while hasattr(suite, "__wrapped__"):
        suite = suite.__wrapped__
    code, defaults = suite.__code__, suite.__defaults__ or ()
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    defaulted = zip(names[code.co_argcount - len(defaults) :], defaults)
    return {**dict.fromkeys(names), **dict(defaulted), **(suite.__kwdefaults__ or {})}


def run(names, options: dict, out) -> int:
    """The ``verify`` command: run the suites ``names`` (all when empty),
    each with the ``options`` its signature names, printing ``suite NAME:``,
    its checks and a summary to ``out``; returns 1 if a check failed, else 0.

    Every refusal is a ValueError raised before any suite runs, in this
    order: an unpaired or non-coprime alpha and beta, an unknown suite, an
    option outside ``BOUNDS``, options no named suite takes, a slope whose
    path count has more than ``MAX_SLOPE_DIGITS`` digits.  A suite past
    the oracle's budget is a ValueError and a MemoryError passes through;
    any other exception fails that suite with one check.  The suites run
    without the int-to-str digit limit, which slope suites pass, so every
    mismatch is worded with exact values; the caller's limit is restored."""
    if ("alpha" in options) != ("beta" in options):
        raise ValueError("--alpha and --beta select one slope; give both or neither")
    if "alpha" in options:
        Slope(options["alpha"], options["beta"])  # rejects a non-coprime pair
    suites = registry(names)
    names = list(names) or list(suites)
    for key, (minimum, maximum) in BOUNDS.items():
        value = options.get(key, minimum)  # an option not given passes
        if value < minimum:
            raise ValueError(f"{_flag(key)} must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValueError(f"{_flag(key)} must be at most {maximum}, got {value}")
    accepted = {name: _parameters(suites[name]) for name in names}
    unused = [key for key in options if not any(key in a for a in accepted.values())]
    if unused:
        raise ValueError(
            f"{', '.join(map(_flag, unused))} taken by none of the suites "
            f"{', '.join(names)}"
        )
    if "alpha" in options:  # the path count at the deepest order a slope suite runs
        a, b = options["alpha"], options["beta"]
        orders = [p.get("order") or 1 for p in accepted.values() if "alpha" in p]
        n = options.get("order") or max(orders)
        if _binomial_digits_at_least((a + b) * n, a * n) > MAX_SLOPE_DIGITS:
            raise ValueError(
                f"slope ({a}, {b}) at order {n}: its path count C({(a + b) * n}, {a * n}) has "
                f"more than {MAX_SLOPE_DIGITS} digits, the limit; lower --alpha, --beta or --order"
            )
    failures = 0
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for name in names:
            kwargs = {key: value for key, value in options.items() if key in accepted[name]}
            print(f"suite {name}:", file=out)
            try:
                results = suites[name](**kwargs)
            except BudgetExceeded as exc:  # the request's size, one error line
                raise ValueError(str(exc)) from None
            except MemoryError:  # reported by the caller
                raise
            except Exception as exc:  # a broken formula fails its suite, not the run
                detail = f"{type(exc).__name__}: {exc}"
                results = [CheckResult(f"suite {name} raised", False, detail)]
            for result in results:
                print(f"  {result}", file=out)
                if not result.passed:
                    failures += 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    summary = f"{failures} check(s) failed" if failures else "all suites passed"
    print(f"verify: {summary}", file=out)
    return 1 if failures else 0
