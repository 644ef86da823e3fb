import io
import re
import sys
import types

import pytest

from bouncepaths import bounce, cli, identities, verify
from bouncepaths.closed_forms import Slope, Step
from bouncepaths.enumeration import TwoRowShape, enumerate_profiles
from bouncepaths.identities import (
    suite_base_counts,
    suite_beta1,
    suite_bounce_free,
    suite_catalan_slope,
    suite_fuss_catalan,
    suite_reference_series,
    suite_ring,
)
from bouncepaths.series import Series
from bouncepaths.verify import (
    SUITES, CheckResult, _first_failure, _grid_equal, _series_equal, coprime_slopes,
)

# the suites of plain ``verify``, in the order it has always run them
PLAIN_VERIFY_ORDER = [
    "reference-series", "ring", "base-counts", "fuss-catalan", "bounce-free",
    "oracle-vs-table", "specializations", "table-dual", "beta1", "catalan-slope",
    "total-bounces", "syt", "crosses",
]
# the suites the benchmark's tracer wraps by name in verify.SUITES
ORACLE_SUITES = ("oracle-vs-table", "total-bounces", "syt", "crosses")


def test_coprime_slopes():
    slopes = coprime_slopes(4)
    assert Slope(1, 1) in slopes
    assert Slope(1, 3) in slopes and Slope(3, 1) in slopes
    assert len(slopes) == 5  # (1,1), (1,2), (2,1), (1,3), (3,1)
    assert slopes == coprime_slopes(4)  # fixed order


def test_series_equal_reports_first_mismatch():
    result = _series_equal("demo", Series((0, 1, 5)), Series((0, 1, 7)), context="s")
    assert not result.passed
    assert "k=2" in result.detail
    assert "expected=7" in result.detail and "actual=5" in result.detail
    assert "FAIL" in str(result)
    # equal as far as both go, but one series claims a coefficient more
    result = _series_equal("demo", Series((0, 1)), Series((0, 1, 7)), context="s")
    assert (result.passed, result.detail) == (False, "s order expected=2 actual=1")


def test_grid_equal_reports_first_mismatching_cell():
    expected = [[(0, 1), (0, 2)], [(0, 3), (0, 4)]]
    assert _grid_equal("demo", [row[:] for row in expected], expected).passed
    result = _grid_equal("demo", [[(0, 1), (0, 2)], [(0, 3), (0, 5)]], expected, "s")
    assert not result.passed
    assert result.detail == "s l=1 r=1 k=1 expected=4 actual=5"
    result = _grid_equal("demo", expected[:1], expected)
    assert (result.passed, result.detail) == (False, "grid shapes differ")


@pytest.mark.parametrize(
    "suite, production, kwargs, failing",
    [
        (verify.suite_crosses, "nhc_nrb_series",
         dict(alpha_max=1, max_steps=4, order=6),
         "three crossless no-right-bounce forms agree (alpha=1)"),
        (identities.suite_beta1, "nhc_prefix_series", dict(alpha_max=1, order=6),
         "h closed form = (g_ee+g_en)/(1+g_ee) (alpha=1)"),
        (verify.suite_total_bounces, "g_b_series", dict(b_max=1, n_max=6),
         "coefficient formula for 0 total bounces"),
        # 12 steps of slope 1/1 reach semilength 6
        (verify.suite_crosses, "nhc_series",
         dict(alpha_max=1, max_steps=12, order=6),
         "cross statistics match enumeration (alpha=1)"),
        (verify.suite_crosses, "nhc_prefix_series",
         dict(alpha_max=1, max_steps=12, order=6),
         "cross statistics match enumeration (alpha=1)"),
        (verify.suite_crosses, "rational_dyck_series",
         dict(alpha_max=1, max_steps=12, order=6),
         "cross statistics match enumeration (alpha=1)"),
        (verify.suite_total_bounces, "g_b_series", dict(b_max=1, n_max=6),
         "enumeration matches for 0 total bounces"),
        # x^6 of g for 3/2 lies past the switch from binomial to stepping
        (identities.suite_base_counts, "g_series", dict(alpha=3, beta=2, order=8),
         "g matches its binomial for 3/2"),
        (identities.suite_catalan_slope, "bounce_table", dict(order=8),
         "Catalan marker form matches general table"),
    ],
)
def test_cross_checks_catch_a_wrong_production_formula(
    monkeypatch, suite, production, kwargs, failing
):
    # the suite looks the production formula up in the module that defines it
    module = sys.modules[suite.__module__]
    original = getattr(module, production)

    def skewed(*args):
        # x^6 added to the series; of a bounce table, to its cell (1, 1)
        value = original(*args)
        if not isinstance(value, bounce.BounceTable):
            return value + Series.x(value.order) ** 6
        entries = [list(row) for row in value.entries]
        entries[1][1] = entries[1][1] + Series.x(value.trunc_order) ** 6
        return bounce.BounceTable(
            value.slope, value.trunc_order, value.max_left, value.max_right,
            value.restriction, tuple(map(tuple, entries)),
        )

    monkeypatch.setattr(module, production, skewed)
    failed = {r.name: r.detail for r in suite(**kwargs) if not r.passed}
    # the production value, one too large, is printed as the actual one
    expected, actual = re.search(r"k=6 expected=(\d+) actual=(\d+)$", failed[failing]).groups()
    assert int(actual) == int(expected) + 1


def test_first_failure_stops_at_the_first_failing_check():
    built = []

    def group(*checks):
        for check in checks:
            built.append(check)
            yield check

    passing = CheckResult("g", True)
    failing = CheckResult("g", False, "k=2 expected=1 actual=0")
    assert _first_failure("g", group(passing, failing, passing)) is failing
    assert len(built) == 2  # nothing after the failure was built
    assert str(_first_failure("g", group(passing, passing))) == "PASS  g"


@pytest.mark.parametrize(
    "suite, builds_per_slope",
    [(identities.suite_bounce_free, 1), (identities.suite_table_dual, 1)],
    ids=["bounce-free", "table-dual"],
)
def test_identity_suites_build_each_slopes_classes_once(monkeypatch, suite, builds_per_slope):
    # bounce-free builds a slope's classes once, whether checked as itself or
    # as the mirror of its transpose; table-dual once for its whole grid
    original = identities.bounce_free_classes
    builds = {}

    def counted(slope, order):
        builds[slope] = builds.get(slope, 0) + 1
        return original(slope, order)

    monkeypatch.setattr(identities, "bounce_free_classes", counted)
    assert all(result.passed for result in suite())
    assert builds and max(builds.values()) <= builds_per_slope, builds


def test_marker_form_checks_catch_a_wrong_expansion(monkeypatch):
    # the alternative marker forms expand through identities' binding of
    # expand_marker_quotient, the general table through bounce's
    original = identities.expand_marker_quotient

    def skewed(*args):
        grid = original(*args)
        grid[1][0] = grid[1][0] + Series.x(grid[1][0].order) ** 3
        return grid

    monkeypatch.setattr(identities, "expand_marker_quotient", skewed)
    results = (
        suite_bounce_free(alpha=2, beta=1, order=6)
        + suite_beta1(alpha_max=1, order=6)
        + suite_catalan_slope(order=6)
    )
    failed = {r.name: r.detail.split(" expected=")[0] for r in results if not r.passed}
    assert failed == {
        "bounce-free marker form matches count marker form (2,1)": "(2,1) l=1 r=0 k=3",
        "simplified marker form matches general table (alpha=1)": "alpha=1 l=1 r=0 k=3",
        "Catalan marker form matches general table": "l=1 r=0 k=3",
    }


def test_oracle_vs_table_walks_only_slopes_within_the_step_budget(monkeypatch):
    # a slope of more than max_steps steps has no path to compare
    asked = []

    def recording(max_sum):
        asked.append(max_sum)
        return coprime_slopes(max_sum)

    monkeypatch.setattr(verify, "coprime_slopes", recording)
    far = verify.suite_oracle_vs_table(max_slope_sum=1000, max_steps=4)
    assert asked == [4]
    assert far == verify.suite_oracle_vs_table(max_slope_sum=4, max_steps=4)
    assert len(far) == 5 and all(check.passed for check in far)


def test_crosses_walks_only_alphas_within_the_step_budget(monkeypatch):
    # a path of slope alpha/1 takes at least alpha + 1 steps
    alphas = []

    def recording(alpha, beta):
        alphas.append(alpha)
        return Slope(alpha, beta)

    monkeypatch.setattr(verify, "Slope", recording)
    far = verify.suite_crosses(alpha_max=10**4, max_steps=4, order=2)
    # the enumeration half walks alpha = 1..3, the three-forms half 1..5
    assert max(alphas) == 5
    assert far == verify.suite_crosses(alpha_max=3, max_steps=4, order=2)
    assert len(far) == 3 + 5 and all(check.passed for check in far)


def test_check_result_str():
    assert str(CheckResult("fine", True)) == "PASS  fine"


def test_reference_series_suite():
    assert all(r.passed for r in suite_reference_series())


def test_base_counts_single_slope():
    results = suite_base_counts(alpha=3, beta=4, order=8)
    assert len(results) == 4
    assert all(r.passed for r in results)


def test_base_counts_catch_a_g_ab_that_keeps_both_identities(monkeypatch):
    # +x^6 on EE and NN, -x^6 on EN: both identities still hold
    original = identities.g_ab_series
    shift = {(Step.E, Step.E): 1, (Step.N, Step.N): 1, (Step.E, Step.N): -1}

    def skewed(slope, first, last, order):
        return original(slope, first, last, order) + shift.get((first, last), 0) * (
            Series.x(order) ** 6
        )

    monkeypatch.setattr(identities, "g_ab_series", skewed)
    results = suite_base_counts(alpha=3, beta=2, order=8)
    assert [r.passed for r in results] == [True, True, False, True]
    assert results[2].name == "g_ab matches its binomial for 3/2"
    assert results[2].detail.startswith("slope=(3,2) ee k=6 ")


def test_bounce_free_catches_a_wrongly_scaled_delta(monkeypatch):
    # delta over 4*alpha*beta instead of 2*alpha*beta; doubling it instead
    # would make bounce_table reject a negative cell before any check ran
    original = bounce._delta

    def halved(slope, g_en):
        return Series(tuple(c // 2 for c in original(slope, g_en).coeffs))

    monkeypatch.setattr(bounce, "_delta", halved)
    results = suite_bounce_free(alpha=3, beta=2, order=8)
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed["bounce determinant matches g_en^2 - g_ee*g_nn (3,2)"].startswith(
        "(3,2) k=2 "
    )


def test_fuss_catalan_suite():
    assert all(r.passed for r in suite_fuss_catalan(alpha_max=3, order=8))


def test_bounce_free_suite_small():
    results = suite_bounce_free(order=8, max_slope_sum=4)
    assert results
    assert all(r.passed for r in results)


def test_catalan_slope_suite():
    assert all(r.passed for r in suite_catalan_slope(order=10))


def test_ring_suite_detects_count():
    results = suite_ring(count=10, seed=1)
    assert results[0].passed
    assert "10" in results[0].name


def test_ring_suite_reports_a_failing_law_with_its_coefficients(monkeypatch):
    original = Series.reciprocal
    monkeypatch.setattr(Series, "reciprocal", lambda self: original(self) + 1)
    [result] = suite_ring(count=5)
    # the unit's constant term is 1 or -1, so the product's is 2 or 0
    assert re.fullmatch(r"reciprocal, input 0 k=0 expected=1 actual=[02]", result.detail)


def test_syt_suite_reports_a_wrong_ballot_count_with_its_semilength(monkeypatch):
    original = verify.enumerate_syt
    wrong = TwoRowShape(5, 2)  # semilength n = 4 with b = 1 bounce
    monkeypatch.setattr(
        verify, "enumerate_syt", lambda shape: original(shape) + (1 if shape == wrong else 0)
    )
    [result] = verify.suite_syt(n_max=6)
    hook = verify.syt_two_row_count(4, 1)
    assert result.detail == f"b=1 ballot k=4 expected={hook} actual={hook + 1}"


def test_registry_is_complete():
    # the two registries together hold every suite, each once
    assert not SUITES.keys() & identities.SUITES.keys()
    assert set(SUITES) | set(identities.SUITES) == set(PLAIN_VERIFY_ORDER)
    assert list(verify.registry()) == PLAIN_VERIFY_ORDER


def test_the_benchmark_reads_public_oracle_suites_of_verify():
    assert set(SUITES) == set(ORACLE_SUITES)
    for name in ORACLE_SUITES:
        suite = SUITES[name]
        assert isinstance(suite, types.FunctionType), name
        assert suite.__module__ == "bouncepaths.verify", name
        assert not suite.__name__.startswith("_"), name
        assert getattr(verify, suite.__name__) is suite, name


def test_plain_verify_runs_every_suite_in_order(monkeypatch):
    ran = []

    def stub(name):
        def suite():
            ran.append(name)
            return [CheckResult(name, True)]

        return suite

    for registry in (SUITES, identities.SUITES):
        for name in registry:
            monkeypatch.setitem(registry, name, stub(name))
    out = io.StringIO()
    assert cli.main(["verify"], out=out) == 0
    headers = [line for line in out.getvalue().splitlines() if line.startswith("suite ")]
    assert headers == [f"suite {name}:" for name in PLAIN_VERIFY_ORDER]
    assert ran == PLAIN_VERIFY_ORDER


def test_repeated_suites_each_run_in_the_order_given(monkeypatch):
    # one oracle suite and one identity suite, each named twice
    ran = []

    def stub(name):
        def suite():
            ran.append(name)
            return [CheckResult(name, True)]

        return suite

    monkeypatch.setitem(SUITES, "syt", stub("syt"))
    monkeypatch.setitem(identities.SUITES, "ring", stub("ring"))
    order = ["ring", "syt", "syt", "ring"]
    out = io.StringIO()
    argv = ["verify", *(arg for name in order for arg in ("--suite", name))]
    assert cli.main(argv, out=out) == 0
    headers = [line for line in out.getvalue().splitlines() if line.startswith("suite ")]
    assert headers == [f"suite {name}:" for name in order]
    assert ran == order


def test_unknown_suite_error_lists_every_suite(capsys):
    out = io.StringIO()
    assert cli.main(["verify", "--suite", "syt", "--suite", "bogus", "--suite", "ring",
                     "--suite", "nope"], out=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "error: unknown suite(s) bogus, nope; available: reference-series, ring, "
        "base-counts, fuss-catalan, bounce-free, oracle-vs-table, specializations, "
        "table-dual, beta1, catalan-slope, total-bounces, syt, crosses\n"
    )


def test_only_the_crosses_suite_asks_for_crosses(monkeypatch):
    asked = []

    def recording(slope, k, **keywords):
        asked.append(keywords.get("crosses", False))
        return enumerate_profiles(slope, k, **keywords)

    monkeypatch.setattr(verify, "enumerate_profiles", recording)
    for suite, options, crosses in (
        ("oracle-vs-table", dict(max_slope_sum=4, max_steps=8), False),
        ("total-bounces", dict(b_max=2, n_max=4), False),
        ("syt", dict(n_max=4), False),
        ("crosses", dict(alpha_max=2, max_steps=8, order=4), True),
    ):
        asked.clear()
        assert all(check.passed for check in SUITES[suite](**options)), suite
        assert asked and set(asked) == {crosses}, suite


def test_run_prints_each_suite_its_checks_and_a_summary(monkeypatch):
    # the verify command's entry point, called without an argument parser
    def passing(order: int = 3):
        return [CheckResult(f"order {order}", True)]

    def failing():
        return [CheckResult("broken", False, "k=1")]

    monkeypatch.setitem(SUITES, "passing", passing)
    monkeypatch.setitem(SUITES, "failing", failing)
    out = io.StringIO()
    assert verify.run(["passing"], {"order": 5}, out) == 0
    assert out.getvalue() == "suite passing:\n  PASS  order 5\nverify: all suites passed\n"
    out = io.StringIO()
    assert verify.run(["passing", "failing"], {}, out) == 1
    assert out.getvalue() == (
        "suite passing:\n  PASS  order 3\nsuite failing:\n  FAIL  broken  [k=1]\n"
        "verify: 1 check(s) failed\n"
    )


def test_run_refuses_bad_options_before_any_suite_runs(monkeypatch):
    ran = []

    def passing(order: int = 3):
        ran.append(order)
        return [CheckResult("ok", True)]

    monkeypatch.setitem(SUITES, "passing", passing)
    out = io.StringIO()
    for options, error in (
        ({"n_max": 4}, "--n-max taken by none of the suites passing"),
        ({"alpha": 2}, "--alpha and --beta select one slope; give both or neither"),
        # bounds in BOUNDS order, then the options no suite takes
        ({"n_max": 99, "order": 0}, "--order must be at least 1, got 0"),
        ({"seed": 1, "n_max": 99}, "--n-max must be at most 20, got 99"),
    ):
        with pytest.raises(ValueError) as excinfo:
            verify.run(["passing"], options, out)
        assert str(excinfo.value) == error
    assert out.getvalue() == "" and ran == []


def test_run_refuses_a_slope_past_its_digits_at_the_order_suites_run(monkeypatch):
    # C(48012, 24012) at the default order 12 has about 14,400 digits, and
    # C(4001, 2001) at order 1 about 1,200
    ran = []

    def sloped(alpha=None, beta=None, order: int = 12):
        ran.append(order)
        return [CheckResult("ok", True)]

    monkeypatch.setitem(SUITES, "sloped", sloped)
    out = io.StringIO()
    for options, n, m in (({}, 12, 24012), ({"order": 13}, 13, 26013)):
        with pytest.raises(ValueError) as excinfo:
            verify.run(["sloped"], {"alpha": 2001, "beta": 2000, **options}, out)
        assert str(excinfo.value) == (
            f"slope (2001, 2000) at order {n}: its path count C({4001 * n}, {m}) has more "
            f"than {verify.MAX_SLOPE_DIGITS} digits, the limit; lower --alpha, --beta or --order"
        )
    assert out.getvalue() == "" and ran == []
    assert verify.run(["sloped"], {"alpha": 2001, "beta": 2000, "order": 1}, out) == 0
    assert ran == [1]
