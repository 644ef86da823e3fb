import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import bouncepaths
from bouncepaths import bounce, cli, closed_forms, verify
from bouncepaths.bounce import bounce_table
from bouncepaths.closed_forms import Restriction, Slope
from bouncepaths.enumeration import BudgetExceeded
from bouncepaths.series import Series
from bouncepaths.verify import CheckResult, coprime_slopes

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


# ------------------------------------------------------------------- coeffs


def test_coeffs_table_format():
    code, text = run("coeffs", "--series", "f_ee", "--alpha", "2", "--beta", "1",
                     "--order", "5")
    assert code == 0
    assert text == "1 4 18 89 466\n"


def test_coeffs_bfile_format():
    code, text = run("coeffs", "--series", "H", "--alpha", "2", "--order", "4",
                     "--format", "oeis-bfile")
    assert code == 0
    assert text == "1 2\n2 6\n3 24\n4 110\n"


def test_coeffs_single_value():
    code, text = run("coeffs", "--series", "g", "--alpha", "2", "--beta", "3",
                     "--order", "1")
    assert code == 0
    assert text == "10\n"


def test_coeffs_csv_format():
    code, text = run("coeffs", "--series", "c_alpha", "--alpha", "1", "--order", "3",
                     "--format", "csv")
    assert code == 0
    assert text == "k,value\n1,1\n2,2\n3,5\n"


def test_coeffs_json_format():
    code, text = run("coeffs", "--series", "g", "--alpha", "1", "--beta", "1",
                     "--order", "3", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload == {"slope": [1, 1], "order": 3, "series": {"g": ["2", "6", "20"]}}


def test_coeffs_include_k0():
    code, text = run("coeffs", "--series", "c_alpha", "--alpha", "2", "--order", "3",
                     "--include-k0", "--format", "oeis-bfile")
    assert code == 0
    assert text.splitlines()[0] == "0 1"


def test_coeffs_g_b():
    code, text = run("coeffs", "--series", "g_b", "--alpha", "1", "--beta", "1",
                     "--order", "4", "--bounces", "1")
    assert code == 0
    assert text == "0 2 8 28\n"


def test_every_series_is_reachable():
    diagonal_only = {"g_b"}
    beta1_only = {"c_alpha", "nhc_ee", "nhc_en", "nhc_ne", "h", "H", "H_ne"}
    names = [n.strip() for n in cli.SERIES_NAMES.split(",")]
    for name in names:
        alpha = "1" if name in diagonal_only else "2"
        code, text = run("coeffs", "--series", name, "--alpha", alpha, "--beta", "1",
                         "--order", "4")
        assert code == 0, name
        assert len(text.split()) == 4, name


def test_catalogue_names_exported_functions_by_their_first_argument():
    # an entry's requirement picks its function's first argument, which the
    # fixed arguments and the order follow
    first = {cli.ANY_SLOPE: "slope", cli.BETA1: "alpha", cli.DIAGONAL: "total_bounces"}
    for name, (requirement, function, *fixed) in cli.SERIES.items():
        assert function in bouncepaths.__all__, name
        code = getattr(bouncepaths, function).__code__
        assert code.co_varnames[0] == first[requirement], name
        assert code.co_argcount == 2 + len(fixed), name


def test_coeffs_calls_a_wrapper_bound_on_the_layer_after_first_read(monkeypatch):
    # a tracer or test double bound on the layer after the package first
    # handed the function out is the one that runs
    original = bouncepaths.g_series
    calls = []

    def wrapper(slope, order):
        calls.append((slope, order))
        return original(slope, order)

    monkeypatch.setattr(closed_forms, "g_series", wrapper)
    assert run("coeffs", "--series", "g", "--alpha", "1", "--order", "3") == (0, "2 6 20\n")
    assert calls == [(Slope(1, 1), 3)]


def test_golden_output():
    """Exact stdout of every series in every format, f_ab for beta = 1 and the
    bounce-table formats, as recorded before the series registry replaced
    the hand-written dispatch, and of four small oracle ``verify`` runs, as
    recorded before the transfer count replaced the depth-first walk.  A new
    series adds its cases here."""
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    covered = set()
    for key, expected in golden.items():
        argv = key.split(" ")
        code, text = run(*argv)
        assert (code, text) == (0, expected), key
        if argv[0] == "coeffs":
            covered.add((argv[argv.index("--series") + 1], argv[argv.index("--format") + 1]))
    assert covered == {(name, fmt) for name in cli.SERIES for fmt in cli.FORMATS}


def test_readme_lists_the_registered_series():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("Series names accepted by `coeffs`:")[1].split("\n\n")[1]
    names = [
        name
        for row in table.splitlines()[2:]
        for name in re.findall(r"`([^`]+)`", row.split("|")[1])
    ]
    assert sorted(names) == sorted(cli.SERIES)


def test_output_is_deterministic():
    first = run("bounce-table", "--alpha", "2", "--beta", "3", "--order", "4",
                "--format", "json")
    second = run("bounce-table", "--alpha", "2", "--beta", "3", "--order", "4",
                 "--format", "json")
    assert first == second


# ------------------------------------------------------------------- errors


def test_unknown_series_fails():
    code, _ = run("coeffs", "--series", "nope", "--alpha", "1", "--order", "3")
    assert code == 1


def test_non_coprime_slope_fails():
    code, _ = run("coeffs", "--series", "g", "--alpha", "2", "--beta", "4",
                  "--order", "3")
    assert code == 1


def test_beta1_series_requires_unit_rise():
    code, _ = run("coeffs", "--series", "h", "--alpha", "2", "--beta", "3",
                  "--order", "3")
    assert code == 1


def test_g_b_requires_diagonal():
    code, _ = run("coeffs", "--series", "g_b", "--alpha", "2", "--beta", "1",
                  "--order", "3")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--series", "g", "--alpha", "2", "--order", "0"),
        ("coeffs", "--series", "f_ee", "--alpha", "2", "--order", "-3"),
        ("bounce-table", "--alpha", "1", "--order", "0"),
        ("bounce-table", "--alpha", "1", "--order", "-1", "--format", "csv"),
        ("verify", "--suite", "base-counts", "--alpha", "2"),
        ("verify", "--suite", "base-counts", "--beta", "3"),
        ("verify", "--suite", "base-counts", "--alpha", "2", "--beta", "4"),
        ("verify", "--suite", "base-counts", "--alpha", "100001", "--beta", "100000",
         "--order", "2"),
        ("verify", "--suite", "ring", "--count", "-1"),
        ("verify", "--suite", "fuss-catalan", "--alpha-max", "0"),
        ("verify", "--suite", "total-bounces", "--b-max", "-1"),
        ("verify", "--suite", "crosses", "--max-steps", "1"),
        ("verify", "--suite", "syt", "--n-max", "0"),
        ("verify", "--suite", "beta1", "--alpha-max", "0"),
        ("verify", "--suite", "base-counts", "--order", "0"),
        ("verify", "--suite", "specializations", "--order", "-2"),
        ("verify", "--suite", "table-dual", "--max-left", "-1"),
        ("verify", "--suite", "table-dual", "--max-right", "-1"),
        ("verify", "--suite", "oracle-vs-table", "--max-slope-sum", "1"),
        ("verify", "--suite", "ring", "--count", "5", "--max-steps", "30", "--n-max", "99"),
        ("verify", "--suite", "syt", "--n-max", "21"),
        ("verify", "--suite", "total-bounces", "--n-max", "21"),
        ("verify", "--suite", "oracle-vs-table", "--max-steps", "41"),
        ("verify", "--suite", "crosses", "--max-steps", "41"),
        ("verify", "--suite", "syt", "--suite", "total-bounces", "--n-max", "21"),
        ("coeffs", "--series", "g", "--alpha", "2", "--order", "5", "--bounces", "3"),
    ],
)
def test_bad_input_gives_one_error_line(argv, capsys):
    code, text = run(*argv)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def digit_limit_640():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python 3.10.0 to 3.10.6 have no int-to-str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.fixture
def no_digit_limit():
    previous = getattr(sys, "get_int_max_str_digits", int)()
    if previous:
        sys.set_int_max_str_digits(0)
    yield
    if previous:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "listing",
    [
        # refused by its bound before it is computed
        ("c_alpha", "--alpha", "10000", "--order", "200"),
        # no bound: computed, then refused at its first conversion
        ("nlb", "--alpha", "7", "--beta", "6", "--order", "170"),
    ],
    ids=lambda listing: listing[0],
)
def test_unrenderable_listing_leaves_stdout_empty(digit_limit_640, listing, fmt, capsys):
    # the first coefficients fit in 640 digits, the last ones do not; none
    # of the lines may be written
    code, text = run("coeffs", "--series", *listing, "--format", fmt)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # both paths stay covered: c_alpha has a bound, nlb has none
    assert (listing[0] in cli.TOP_BINOMIALS) == (listing[0] == "c_alpha")


def _raise_if_computed(*args):
    raise AssertionError("a listing refused by its bound was computed")


def test_listing_past_the_limit_is_refused_before_it_is_computed(
    digit_limit_640, monkeypatch, capsys
):
    for function in ("g_series", "fuss_catalan"):
        monkeypatch.setattr(closed_forms, function, _raise_if_computed)
    for listing in (
        ("c_alpha", "--alpha", "10000", "--order", "200"),
        ("g", "--alpha", "1000001", "--beta", "1000000", "--order", "1"),
        ("g", "--alpha", "100000001", "--beta", "100000000", "--order", "1"),
        ("g", "--alpha", "1", "--order", "100000000"),
        # a bound whose n is capped to keep its floats finite
        ("g_nn", "--alpha", str(10**400 + 1), "--beta", str(10**400), "--order", "1"),
    ):
        code, text = run("coeffs", "--series", *listing)
        assert code == 1 and text == ""
        assert capsys.readouterr().err == f"error: {int_str_limit_error()}\n"
    # the benchmark's c_alpha jobs, under the default limit
    sys.set_int_max_str_digits(4300)
    for alpha in ("9500", "10000", "10500"):
        code, text = run("coeffs", "--series", "c_alpha", "--alpha", alpha, "--order", "1000")
        assert code == 1 and text == ""
        assert capsys.readouterr().err == f"error: {int_str_limit_error()}\n"


def test_listings_refused_up_front_are_past_the_limit(digit_limit_640, monkeypatch, capsys):
    # orders across the 640-digit crossing of c_10000's top coefficient: a
    # listing fails exactly when its top value is past the limit, and one
    # refused before it is computed is past it
    computed = []
    fuss_catalan = closed_forms.fuss_catalan

    def recording(alpha, order):
        computed.append(order)
        return fuss_catalan(alpha, order)

    monkeypatch.setattr(closed_forms, "fuss_catalan", recording)
    tops = fuss_catalan(10000, 160).coeffs
    refused = []
    for order in range(135, 161):
        code, _ = run("coeffs", "--series", "c_alpha", "--alpha", "10000", "--order", str(order))
        past = tops[order] >= 10**640
        assert code == past, order
        if order not in computed:
            assert past, order
            refused.append(order)
    capsys.readouterr()
    assert refused and refused[-1] == 160 and 135 in computed


def test_the_library_refuses_a_negative_bounce_count_before_any_bound(digit_limit_640, capsys):
    # at b = -1 the g_b bound would read C(4000, 2000) / 2000, past 640 digits
    code, text = run("coeffs", "--series", "g_b", "--alpha", "1", "--bounces", "-1",
                     "--order", "2000")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: the bounce count must be non-negative\n"


def test_a_bound_at_the_limit_leaves_the_conversion_to_decide(digit_limit_640, monkeypatch):
    # a bound of exactly 640 digits does not pass the limit; 641 does
    for bound, code, text in ((640, 0, "2 6 20 70 252\n"), (641, 1, "")):
        monkeypatch.setattr(cli, "_binomial_digits_at_least", lambda m, n, q: bound)
        assert run("coeffs", "--series", "g", "--alpha", "1", "--order", "5") == (code, text)


def test_lifted_limit_refuses_nothing(no_digit_limit):
    code, text = run("coeffs", "--series", "c_alpha", "--alpha", "10000", "--order", "200")
    assert code == 0
    assert text.split()[-1] == str(closed_forms.fuss_catalan(10000, 200).coeffs[200])


@pytest.mark.parametrize("name", sorted(cli.TOP_BINOMIALS))
def test_top_bound_never_overshoots(no_digit_limit, name):
    # the bound at order k against the digits of the k-th value of one long
    # listing: every slope with alpha + beta <= 12, beta = 1 up to alpha =
    # 10^4, and for c_alpha the benchmark's jobs
    requirement = cli.SERIES[name][0]
    if requirement == cli.DIAGONAL:
        cases = [(1, 1, 300, bounces) for bounces in range(8)]
    elif requirement == cli.BETA1:
        alphas = (*range(1, 12), 99, 100, 101, 999, 1000, 1001, 9999, 10000)
        cases = [(alpha, 1, 300 if alpha < 12 else 60, 0) for alpha in alphas]
        if name == "c_alpha":
            cases += [(alpha, 1, 1000, 0) for alpha in (9500, 10000, 10500)]
    else:
        cases = [(s.alpha, s.beta, 300, 0) for s in coprime_slopes(12)]
    for alpha, beta, order, bounces in cases:
        bounce = ("--bounces", str(bounces)) if requirement == cli.DIAGONAL else ()
        code, text = run("coeffs", "--series", name, "--alpha", str(alpha),
                         "--beta", str(beta), "--order", str(order), *bounce)
        assert code == 0
        for k, value in enumerate(text.split(), 1):
            m, n, q = cli.TOP_BINOMIALS[name](alpha, beta, k, bounces)
            assert closed_forms._binomial_digits_at_least(m, n, q) <= len(value), (
                alpha, beta, bounces, k
            )


class _Recorded(int):
    """An int that records each conversion of itself to text."""

    converted = []

    def __str__(self):
        _Recorded.converted.append(int(self))
        return int.__repr__(self)

    def __format__(self, spec):
        _Recorded.converted.append(int(self))
        return format(int(self), spec)


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_listing_converts_each_value_once_from_the_highest_power_down(monkeypatch, fmt):
    # the largest value comes last, so converting it first makes a value past
    # the int-to-str digit limit fail before any other is converted
    def listing(kind):
        double = lambda alpha, order: Series(tuple(kind(10**k) for k in range(order + 1)))
        monkeypatch.setattr(closed_forms, "fuss_catalan", double)
        return run("coeffs", "--series", "c_alpha", "--alpha", "2", "--order", "4",
                   "--include-k0", "--format", fmt)

    monkeypatch.setattr(_Recorded, "converted", [])
    assert listing(_Recorded) == listing(int)
    assert _Recorded.converted == [10**k for k in range(4, -1, -1)]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_unrenderable_table_leaves_stdout_empty(digit_limit_640, fmt, capsys):
    # the table is computed, but its last coefficients exceed 640 digits
    code, text = run("bounce-table", "--alpha", "40", "--beta", "39", "--order", "29",
                     "--max-left", "1", "--max-right", "1", "--format", fmt)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_importing_the_cli_leaves_verify_unloaded():
    # -S skips the site hooks, which may import random or typing on their
    # own; json is imported by the commands that print it
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bouncepaths.cli; "
        "print(sorted({'bouncepaths.verify', 'random', 'dataclasses', 'inspect', "
        "'json', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"


def test_running_verify_leaves_inspect_unloaded():
    # the suites' parameter names come from their code objects
    probe = (
        "import io, sys; sys.path.insert(0, sys.argv[1]); from bouncepaths import cli; "
        "code = cli.main(['verify', '--suite', 'syt', '--n-max', '2'], out=io.StringIO()); "
        "print(code, 'inspect' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "0 False\n"


LAYERS = {"cli", "closed_forms", "series"}  # what importing the cli loads
ORACLE = LAYERS | {"beta_one", "bounce", "enumeration", "verify"}


@pytest.mark.parametrize("statement, loaded", [
    ("import bouncepaths", set()),
    ("import bouncepaths.cli", LAYERS),
    ("main(['coeffs', '--series', 'g', '--alpha', '3', '--beta', '2', '--order', '6'])",
     LAYERS),
    ("main(['coeffs', '--series', 'c_alpha', '--alpha', '2', '--order', '6'])", LAYERS),
    ("main(['coeffs', '--series', 'H', '--alpha', '2', '--order', '6'])",
     LAYERS | {"beta_one"}),
    ("main(['coeffs', '--series', 'nhc_ee', '--alpha', '2', '--order', '6'])",
     LAYERS | {"beta_one"}),
    ("main(['bounce-table', '--alpha', '2', '--order', '4', '--format', 'csv'])",
     LAYERS | {"bounce"}),
    ("main(['verify', '--suite', 'syt', '--n-max', '3'])", ORACLE),
    ("main(['verify', '--suite', 'ring', '--count', '3'])", ORACLE | {"identities"}),
], ids=["package", "cli", "coeffs-g", "coeffs-c_alpha", "coeffs-H", "coeffs-nhc_ee",
        "bounce-table", "verify-syt", "verify-ring"])
def test_each_command_loads_only_the_modules_it_runs(statement, loaded):
    # a fresh interpreter that compiles from source, as each CLI job does
    if statement.startswith("main("):
        statement = (
            "from bouncepaths.cli import main; "
            f"assert {statement[:-1]}, out=io.StringIO()) == 0"
        )
    probe = (
        f"import io, sys; sys.path.insert(0, sys.argv[1]); {statement}; "
        "print(*sorted(m for m in sys.modules if m.startswith('bouncepaths.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert set(result.stdout.split()) == {f"bouncepaths.{name}" for name in loaded}


def test_verify_reads_the_options_of_a_wrapped_suite(monkeypatch, capsys):
    # a tracer wraps the suites with functools.wraps; the options are the
    # wrapped function's
    received = []

    def suite(order: int = 3, *, count: int = 1):
        received.append((order, count))
        return [CheckResult("wrapped", True)]

    @functools.wraps(suite)
    def wrapper(*args, **kwargs):
        return suite(*args, **kwargs)

    monkeypatch.setitem(verify.SUITES, "wrapped", wrapper)
    code, text = run("verify", "--suite", "wrapped", "--order", "7", "--count", "2")
    assert (code, received) == (0, [(7, 2)])
    assert text == "suite wrapped:\n  PASS  wrapped\nverify: all suites passed\n"
    assert run("verify", "--suite", "wrapped", "--n-max", "4") == (1, "")
    assert capsys.readouterr().err == (
        "error: --n-max taken by none of the suites wrapped\n"
    )


def test_package_exports_every_public_name_it_binds():
    # the package reads each export from its layer on each access
    layers = [importlib.import_module(f"bouncepaths.{name}") for name in
              ("beta_one", "bounce", "closed_forms", "enumeration", "series")]
    for name in bouncepaths.__all__:
        value = getattr(bouncepaths, name)
        # a class or function names its defining module; a constant does not
        home = getattr(value, "__module__", None)
        owners = [m for m in layers if m.__name__ == home] or [
            m for m in layers if name in vars(m)
        ]
        assert owners and all(vars(m)[name] is value for m in owners), name
    assert set(bouncepaths.__all__) <= set(dir(bouncepaths))
    assert "__version__" in dir(bouncepaths)
    with pytest.raises(AttributeError, match="'bouncepaths' has no attribute 'nope'"):
        bouncepaths.nope


def test_package_exports_every_public_class_and_function_of_its_layers():
    for name in ("beta_one", "bounce", "closed_forms", "enumeration", "series"):
        layer = importlib.import_module(f"bouncepaths.{name}")
        for attr, value in vars(layer).items():
            if (
                not attr.startswith("_")
                and (inspect.isclass(value) or inspect.isfunction(value))
                and value.__module__ == layer.__name__
            ):
                assert attr in bouncepaths.__all__, f"{name}.{attr}"


def test_verify_rejects_options_no_selected_suite_takes(capsys):
    code, text = run("verify", "--suite", "ring", "--suite", "syt", "--count", "5",
                     "--max-steps", "30", "--n-max", "9")
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (
        "error: --max-steps taken by none of the suites ring, syt\n"
    )


def test_verify_total_bounces_reaches_n_max_20():
    # total-bounces and syt walk diagonal paths of 2n <= MAX_STEPS steps, so
    # one --n-max cap of 20 serves both
    code, text = run("verify", "--suite", "total-bounces", "--n-max", "20")
    assert code == 0
    assert text.endswith("verify: all suites passed\n")
    assert "FAIL" not in text


def test_verify_threads_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("verify", "--threads", "2")
    assert excinfo.value.code == 2  # rejected by argparse
    capsys.readouterr()


def test_coeffs_route_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("coeffs", "--series", "f_ee", "--alpha", "3", "--order", "6",
            "--route", "beta1")
    assert excinfo.value.code == 2  # rejected by argparse
    capsys.readouterr()


def test_bounce_table_too_large_is_refused_before_any_work(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("the table was computed")

    monkeypatch.setattr(bounce, "bounce_table", refused)
    code, text = run("bounce-table", "--alpha", "1", "--order", "400", "--format", "csv")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == (
        "error: a table of 64000000 coefficients exceeds the limit of 244; "
        "lower --order, --max-left or --max-right\n"
    )


def test_bounce_table_limit_counts_cells_times_order(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_TABLE_COEFFICIENTS", 60)
    bounds = ("bounce-table", "--alpha", "2", "--order", "5", "--max-left", "1")
    # slope (2, 1) weighs each coefficient (2 + 1) / 2, so its limit is 40
    assert run(*bounds, "--max-right", "3")[0] == 0  # 2 * 4 * 5 = 40
    assert run(*bounds, "--max-right", "4")[0] == 1  # 50
    assert "a table of 50 coefficients exceeds the limit of 40;" in capsys.readouterr().err
    assert run("bounce-table", "--alpha", "1", *bounds[3:], "--max-right", "4")[0] == 0
    # a negative bound is refused as such, however large the product
    assert run(*bounds[:-1], "-9", "--max-right", "-9")[0] == 1
    assert capsys.readouterr().err == "error: marker bounds must be non-negative\n"


def test_bounce_table_limit_weighs_long_orders(monkeypatch, capsys):
    # a narrow table is cheap to list but not to compute: each cell's series
    # takes about order^2 products, so past the order where the full table
    # reaches the limit the limit falls with the order
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(bounce, "bounce_table", admitted)
    narrow = ("--max-left", "0", "--max-right", "0", "--format", "csv")
    for order, limit in (("2000", 0), ("1000", 1), ("373", 371)):
        assert run("bounce-table", "--alpha", "1", "--order", order, *narrow) == (1, "")
        assert capsys.readouterr().err == (
            f"error: a table of {order} coefficients exceeds the limit of {limit}; "
            "lower --order, --max-left or --max-right\n"
        )
    # admitted: the longest narrow (1,1) table, and the full tables at the
    # orders where the weight starts
    for alpha, beta, order, bounds in ((1, 1, 372, narrow), (1, 1, 100, ()),
                                        (3, 2, 73, ()), (40, 39, 29, ())):
        with pytest.raises(Admitted):
            run("bounce-table", "--alpha", str(alpha), "--beta", str(beta),
                "--order", str(order), *bounds)
    assert run("bounce-table", "--alpha", "1", "--order", "131", "--max-left", "38",
               "--max-right", "38")[0] == 1
    assert "exceeds the limit of 197866;" in capsys.readouterr().err


def test_verify_budget_exceeded_is_an_error(monkeypatch, capsys):
    from bouncepaths import verify as verification

    def too_big():
        raise BudgetExceeded("28 steps exceed the budget of 24")

    monkeypatch.setitem(verification.SUITES, "too-big", too_big)
    code, _ = run("verify", "--suite", "too-big")
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: 28 steps exceed the budget of 24\n"


def test_running_out_of_memory_is_an_error(monkeypatch, capsys):
    def exhausted(slope, order):
        raise MemoryError

    monkeypatch.setattr(closed_forms, "g_series", exhausted)
    code, text = run("coeffs", "--series", "g", "--alpha", "1", "--order", "5")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: out of memory\n"


def test_verify_running_out_of_memory_is_an_error(monkeypatch, capsys):
    from bouncepaths import verify as verification

    def exhausted():
        raise MemoryError

    monkeypatch.setitem(verification.SUITES, "exhausted", exhausted)
    code, text = run("verify", "--suite", "exhausted")
    assert (code, text) == (1, "suite exhausted:\n")
    assert capsys.readouterr().err == "error: out of memory\n"


def test_verify_reports_a_raising_suite_and_runs_the_next(monkeypatch, capsys):
    # a doubled delta gives a negative table cell, which BounceTable rejects
    from bouncepaths import bounce

    original = bounce._delta
    monkeypatch.setattr(bounce, "_delta", lambda slope, g_en: 2 * original(slope, g_en))
    code, text = run("verify", "--suite", "bounce-free", "--suite", "ring",
                     "--alpha", "3", "--beta", "2", "--order", "8", "--count", "3")
    assert code == 1 and capsys.readouterr().err == ""
    lines = text.splitlines()
    assert lines[:2] == [
        "suite bounce-free:",
        "  FAIL  suite bounce-free raised  "
        "[ValueError: entry (1, 1) has a negative coefficient]",
    ]
    assert lines[2] == "suite ring:"
    assert lines[3:-1] and all(line.startswith("  PASS  ") for line in lines[3:-1])
    assert lines[-1] == "verify: 1 check(s) failed"


def test_bfile_rejected_for_tables(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("bounce-table", "--alpha", "1", "--beta", "1", "--order", "3",
            "--format", "oeis-bfile")
    assert excinfo.value.code == 2  # rejected by argparse choices
    capsys.readouterr()


# argv drawn from the parser's own grammar: every subcommand, option and
# choice, a name outside each catalogue, a non-integer, and small integers,
# zero, -1, each verify bound's minimum, the value below it and the value past
# its maximum.  A verify draw names one or two suites and gives every bounded
# option they take, so no suite runs at its (costly) defaults; an option they
# do not take is rare.
SUBPARSERS = next(
    action for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
).choices
SUITES = verify.registry()
VERIFY_BOUNDS = verify.BOUNDS


def _option_values(action):
    if action.dest == "series":
        return st.sampled_from([*cli.SERIES, "nope"])
    if action.choices:
        return st.sampled_from([*action.choices, "nope"])
    minimum, maximum = VERIFY_BOUNDS.get(action.dest, (1, None))
    edges = {-1, 0, minimum - 1, minimum} | ({maximum + 1} if maximum is not None else set())
    return st.one_of(
        st.integers(minimum, minimum + 3).map(str),
        st.sampled_from([*map(str, sorted(edges)), "x"]),
    )


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    argv = [command]
    taken = set()
    if command == "verify":
        for name in draw(st.lists(st.sampled_from([*SUITES, "nope"]),
                                  min_size=1, max_size=2)):
            argv += ["--suite", name]
            if name in SUITES:
                taken.update(inspect.signature(SUITES[name]).parameters)
    for action in SUBPARSERS[command]._actions:
        if not action.option_strings or action.dest in ("help", "suite"):
            continue
        if command == "verify" and action.dest in VERIFY_BOUNDS:
            give = action.dest in taken or draw(st.integers(0, 29)) == 0
        elif action.required:
            give = draw(st.integers(0, 19)) > 0
        else:
            give = draw(st.booleans())
        if give:
            argv.append(action.option_strings[0])
            if action.nargs != 0:  # a flag such as --include-k0 takes no value
                argv.append(draw(_option_values(action)))
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_any_argv_gives_an_answer_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert "Traceback" not in err.getvalue()
    assert (code, len(errors)) in ((0, 0), (1, 1), (2, 1)), (argv, err.getvalue())


# ------------------------------------------------------------------- tables


def test_bounce_table_plain_grid():
    code, text = run("bounce-table", "--alpha", "1", "--beta", "1", "--order", "2",
                     "--max-left", "1", "--max-right", "1")
    assert code == 0
    assert text.splitlines() == [
        "0 0 : 2 4",
        "0 1 : 0 1",
        "1 0 : 0 1",
        "1 1 : 0 0",
    ]


def test_bounce_table_zero_bounds_match_bounce_free_series():
    _, table_text = run("bounce-table", "--alpha", "2", "--beta", "1", "--order", "5",
                        "--max-left", "0", "--max-right", "0")
    _, coeff_text = run("coeffs", "--series", "f", "--alpha", "2", "--beta", "1",
                        "--order", "5")
    assert table_text == "0 0 : " + coeff_text


def test_bounce_table_restriction_csv():
    code, text = run("bounce-table", "--alpha", "1", "--beta", "1", "--order", "2",
                     "--restriction", "en", "--max-left", "1", "--max-right", "1",
                     "--format", "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "l,r,k,count"
    table = {tuple(map(int, line.split(",")[:3])): int(line.split(",")[3])
             for line in lines[1:]}
    assert table[(0, 0, 2)] == 1  # EENN
    assert table[(0, 1, 2)] == 1  # ENEN
    assert table[(1, 0, 2)] == 0


def test_bounce_table_json_schema():
    code, text = run("bounce-table", "--alpha", "1", "--beta", "1", "--order", "3",
                     "--max-left", "1", "--max-right", "0", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["slope"] == [1, 1]
    assert payload["order"] == 3
    assert payload["table"][0][0] == ["2", "4", "10"]
    assert payload["table"][1][0] == ["0", "1", "4"]


def plain_table_rendering(fmt, alpha, beta, restriction, order, max_left, max_right):
    """The bounce-table output with str called on every coefficient k = 1..order."""
    table = bounce_table(Slope(alpha, beta), Restriction(restriction), max_left, max_right, order)
    values = [
        [[str(series.coefficient(k)) for k in range(1, order + 1)] for series in row]
        for row in table.entries
    ]
    cells = [(l, r, cell) for l, row in enumerate(values) for r, cell in enumerate(row)]
    if fmt == "table":
        return "".join(f"{l} {r} : {' '.join(cell)}\n" for l, r, cell in cells)
    if fmt == "csv":
        return "l,r,k,count\n" + "".join(
            f"{l},{r},{k},{value}\n" for l, r, cell in cells for k, value in enumerate(cell, 1)
        )
    payload = {"slope": [alpha, beta], "order": order, "restriction": restriction,
               "table": values}
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(coprime_slopes(7)),
    st.sampled_from([r.value for r in Restriction]),
    st.integers(1, 9),
    st.integers(0, 11),
    st.integers(0, 11),
)
# mirrored cells (all) and cells that vanish entirely (l + r >= order)
@example(slope=Slope(1, 1), restriction="all", order=4, max_left=5, max_right=3)
def test_bounce_table_formats_match_a_plain_rendering(
    slope, restriction, order, max_left, max_right
):
    # the bounds fall below, at and above the order
    args = (slope.alpha, slope.beta, restriction, order, max_left, max_right)
    for fmt in ("table", "csv", "json"):
        code, text = run(
            "bounce-table", "--alpha", str(slope.alpha), "--beta", str(slope.beta),
            "--restriction", restriction, "--order", str(order), "--max-left",
            str(max_left), "--max-right", str(max_right), "--format", fmt,
        )
        assert code == 0
        assert text == plain_table_rendering(fmt, *args), fmt


BENCHMARK_OUTCOMES = json.loads((ROOT / "perfbench" / "outcomes.json").read_text())


def int_str_limit_error():
    """This interpreter's error for an int past its int-to-str digit limit:
    "(4300 digits)" in CPython 3.11+, the wording the recorded failures
    quote, and "(4300)" in 3.10.7+; None before 3.10.7, which has no limit."""
    try:
        str(10**5000)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "key", sorted(BENCHMARK_OUTCOMES), ids=lambda key: key.removeprefix("bounce-table ")
)
def test_benchmark_table_jobs_reproduce_their_recorded_digests(key, capsys):
    # every benchmark pool job, in-process: argv is the key split on spaces; a
    # job recorded as failing fails with the same exit status and the same
    # reason, worded as perfbench/workloads.py's check_output words it
    code, text = run(*key.split(" "))
    record = BENCHMARK_OUTCOMES[key]
    errors = capsys.readouterr().err.strip().splitlines() or [""]
    limit_error = f"error: {int_str_limit_error()}"
    if record["failure"] is None:
        assert code == record["exit"]
        assert hashlib.sha256(text.encode()).hexdigest() == record["sha256"]
    elif "(4300 digits)" in record["failure"] and "(4300 digits)" not in limit_error:
        # the digit limit, which this interpreter words otherwise
        assert code == 1 and errors == [limit_error]
    else:
        assert f"exit {code}: {errors[0][:120]}" == record["failure"]


# ------------------------------------------------------------------- verify


def test_verify_single_suite():
    code, text = run("verify", "--suite", "base-counts", "--alpha", "2", "--beta", "3",
                     "--order", "10")
    assert code == 0
    assert "PASS" in text and "FAIL" not in text
    assert text.rstrip().endswith("all suites passed")


def test_verify_ring_suite_options():
    code, text = run("verify", "--suite", "ring", "--count", "50", "--seed", "7")
    assert code == 0
    assert "50 randomized inputs" in text


def test_plain_verify_output_is_unchanged():
    # every suite at its defaults, run as a CLI job: a fresh interpreter that
    # compiles from source (``-m`` puts the working directory first on the
    # path); the digest was recorded before the suite registry moved into verify
    result = subprocess.run(
        [sys.executable, "-m", "bouncepaths.cli", "verify"], capture_output=True,
        cwd=ROOT / "src", env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 559
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "526d93f3908d8b155bc5b57f83beaff2d0170ebcb1ff882ca1f1856f3b2d515e"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bounce-table", "--alpha", "1", "--beta", "1", "--order", "30"],
        ["verify", "--suite", "ring", "--count", "10"],
        ["coeffs", "--series", "g", "--alpha", "1", "--order", "5"],
    ],
    ids=["bounce-table", "verify", "coeffs"],
)
def test_a_closed_output_pipe_exits_without_a_traceback(argv):
    # the reader is gone before the first write, as after ``| head -n 0``;
    # a short output fails only at the flush
    proc = subprocess.Popen(
        [sys.executable, "-m", "bouncepaths.cli", *argv], cwd=ROOT / "src",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    err = err.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert len(err.splitlines()) <= 1


def test_verify_unknown_suite():
    code, _ = run("verify", "--suite", "bogus")
    assert code == 1


def test_verify_reports_failures(monkeypatch):
    from bouncepaths import verify as verification

    def broken():
        return [CheckResult("always broken", False, "k=1 expected=1 actual=0")]

    monkeypatch.setitem(verification.SUITES, "broken", broken)
    code, text = run("verify", "--suite", "broken")
    assert code == 1
    assert "FAIL" in text and "expected=1" in text


def test_entry_point_smoke(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["coeffs"])  # missing required flags
    capsys.readouterr()
