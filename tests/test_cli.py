import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bouncepaths import cli
from bouncepaths.enumeration import BudgetExceeded
from bouncepaths.verify import CheckResult

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
        pytest.skip("Python 3.10 has no int-to-str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("fmt", ["oeis-bfile", "csv"])
def test_unrenderable_listing_leaves_stdout_empty(digit_limit_640, fmt, capsys):
    # the first coefficients fit in 640 digits, the last ones do not; none
    # of the lines may be written
    code, text = run("coeffs", "--series", "c_alpha", "--alpha", "10000",
                     "--order", "200", "--format", fmt)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_importing_the_cli_leaves_verify_unloaded():
    # -S skips the site hooks, which may import random or typing on their
    # own; json and inspect are imported by the commands that use them
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

    monkeypatch.setattr(cli, "g_series", exhausted)
    code, text = run("coeffs", "--series", "g", "--alpha", "1", "--order", "5")
    assert (code, text) == (1, "")
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
