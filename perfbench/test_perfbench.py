"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import io
import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from bouncepaths import bounce, cli, closed_forms  # noqa: E402
from bouncepaths.series import Series  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_mul_counters_are_exact(tracer):
    Series.x(3) * Series.x(3)
    summary = tracer.summary()
    assert summary["spans"]["series.mul"]["calls"] == 1
    # (0, 1, 0, 0) has one nonzero coefficient, at index 1, meeting 3 of 4
    assert summary["counters"]["series.mul.coeff_products"] == 3
    assert summary["counters"]["series.mul.max_bits"] == 1


def test_calls_through_imported_names_are_traced(tracer):
    # bounce imports binomial with ``from .closed_forms import binomial``
    bounce.binomial(6, 3)
    closed_forms.g_series(closed_forms.Slope(1, 1), 3)
    spans = tracer.summary()["spans"]
    assert spans["closed_forms.binomial"]["calls"] == 1 + 3
    assert spans["closed_forms.g_series"]["calls"] == 1


def test_self_time_excludes_children(tracer):
    bounce.bounce_table(closed_forms.Slope(2, 1), closed_forms.Restriction.ALL, 3, 3, 8)
    spans = tracer.summary()["spans"]
    table = spans["bounce.bounce_table"]
    assert 0 <= table["self_s"] < table["incl_s"]
    assert spans["bounce.expand_marker_quotient"]["calls"] == 1
    assert tracer.counters["bounce.expand_marker_quotient.cells"] == 16


def test_suites_counted_through_cli(tracer, capsys):
    assert cli.main(["verify", "--suite", "syt", "--n-max", "4"]) == 0
    summary = tracer.summary()
    assert summary["spans"]["verify.syt"]["calls"] == 1
    assert summary["counters"]["verify.checks"] == 1
    assert summary["counters"]["verify.failed"] == 0
    # paths of semilength 1..4 on the diagonal, each enumerated once
    assert summary["counters"]["enumeration.paths_walked"] == 2 + 6 + 20 + 70
    assert summary["absent"] == []


def test_uninstall_restores_originals():
    original = bounce.binomial
    t = Tracer()
    t.install()
    assert bounce.binomial is not original
    t.uninstall()
    assert bounce.binomial is original


def test_missing_name_is_absent_not_raised(monkeypatch):
    monkeypatch.delattr(closed_forms, "g_prefix_series")
    t = Tracer()
    t.install()
    t.uninstall()
    assert "closed_forms.g_prefix_series" in t.absent()
    assert "closed_forms.g_series" not in t.absent()


def test_job_lists_are_a_pure_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.make_jobs(workload, 7)
        random.seed(12345)
        assert workloads.make_jobs(workload, 7) == first
        assert sorted(first) == sorted(workloads.make_jobs(workload, 7))
        assert len(first) == len(workloads.SLOTS[workload])
    assert any(
        workloads.make_jobs("sequence", 1) != workloads.make_jobs("sequence", s)
        for s in range(2, 6)
    )


def test_every_pool_job_has_a_recorded_outcome():
    outcomes = workloads.load_outcomes()
    assert sorted(outcomes) == sorted(map(workloads.job_key, workloads.all_jobs()))
    # only the digit-limit jobs fail at the seed commit, with a clean exit 1
    for key, record in outcomes.items():
        if record["failure"] is not None:
            assert key.startswith("coeffs --series c_alpha") and record["exit"] == 1


def bench_with(outcomes):
    bench = run.Run.__new__(run.Run)
    bench.verdicts, bench.failures = {}, {}
    bench.attempted = bench.failed = 0
    bench.correct, bench.outcomes = True, outcomes
    return bench


def test_corrupted_output_counts_as_failed():
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    job = workloads.SLOTS["sequence"][4][0]  # a g-family job
    good = workloads.expected_bfile(job)
    outcomes = workloads.load_outcomes()
    assert workloads.check_output(job, 0, good, b"", outcomes) == (None, False)

    corrupted = good.replace(b"\n3 ", b"\n3 1", 1)
    reason, wrong = workloads.check_output(job, 0, corrupted, b"", outcomes)
    assert reason and wrong

    bench = bench_with(outcomes)
    for stdout in (good, corrupted, good, good):
        bench.check(job, {"stdout": stdout, "stderr": b"", "returncode": 0})
    assert (bench.attempted, bench.failed, bench.correct) == (4, 1, False)
    assert list(bench.failures) == [job]


def test_a_job_that_dies_is_a_wrong_result():
    outcomes = workloads.load_outcomes()
    verify = workloads.SLOTS["oracle"][2][0]
    table = workloads.SLOTS["table"][1][0]
    died = (
        (verify, 1, b"syt: 1 check(s) failed\n", b""),
        (verify, 0, b"verify: 1 check(s) failed\n", b""),
        (table, 1, b"", b"error: order must be positive\n"),
        (table, 1, b"", b"Traceback (most recent call last):\nArithmeticError: bug\n"),
        (table, -9, b"", b""),
    )
    for job, returncode, stdout, stderr in died:
        reason, wrong = workloads.check_output(job, returncode, stdout, stderr, outcomes)
        assert reason and wrong, (job, returncode, stdout, stderr)


def test_known_failure_of_the_seed_commit():
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    outcomes = workloads.load_outcomes()
    job = workloads.SLOTS["sequence"][5][1]
    record = outcomes[workloads.job_key(job)]
    known = (record["failure"].split(": ", 1)[1] + "it\n").encode()
    assert workloads.check_output(job, 1, b"", known, outcomes) == (record["failure"], False)
    # passing now is not wrong; failing in any other way is
    good = workloads.expected_bfile(job)
    assert workloads.check_output(job, 0, good, b"", outcomes) == (None, False)
    for returncode, stdout, stderr in ((0, good[:-10], b""), (2, b"", known),
                                       (1, b"", b"Traceback (most recent call last):\n"
                                        b"ValueError: x\n")):
        reason, wrong = workloads.check_output(job, returncode, stdout, stderr, outcomes)
        assert reason and wrong

    bench = bench_with(outcomes)
    bench.check(job, {"stdout": b"", "stderr": known, "returncode": 1})
    assert (bench.attempted, bench.failed, bench.correct) == (1, 1, True)

    # the failed job's time counts in wall_s, its coefficients do not
    other = workloads.SLOTS["sequence"][4][0]
    bench.trace, bench.jobs = False, [job, other]
    bench.times = {"plain": {job: [(1.5, 1.5)], other: [(0.5, 0.5)]}}
    bench.setup, bench.maxrss_kb = [(0.1, 0.1)], 2048
    metrics = bench.metrics()
    assert metrics["wall_s"] == 2.0
    assert metrics["items_per_s"] == workloads.items(other) / 2.0


def test_malformed_output_is_a_failure_not_a_crash():
    outcomes = workloads.load_outcomes()
    table = workloads.SLOTS["table"][1][0]
    bfile = workloads.SLOTS["sequence"][0][0]
    for job, stdout in ((table, b"l,r,k,count\n" + b"0,0,99,1\n" * 125000),
                        (bfile, b"1 2 3\n" * 400), (bfile, b"\xff\n")):
        reason, wrong = workloads.check_output(job, 0, stdout, b"", outcomes)
        assert reason.startswith("malformed output") and wrong


def test_digit_limit_job_expects_math_comb_output():
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    job = workloads.SLOTS["sequence"][5][1]
    assert job[:4] == ("coeffs", "--series", "c_alpha", "--alpha")
    lines = workloads.expected_bfile(job).split(b"\n")
    assert max(len(line.split(b" ")[-1]) for line in lines) > 4300


def test_table_column_check():
    job = workloads.SLOTS["table"][3][0]
    buf = io.StringIO()
    assert cli.main(list(job), out=buf) == 0
    out = buf.getvalue().encode()
    assert workloads.independent_check(job, out) is None
    rows = out.split(b"\n")
    rows[5] = rows[5][:-1] + bytes([rows[5][-1] ^ 1])
    assert workloads.independent_check(job, b"\n".join(rows)) is not None


def test_oracle_path_counts():
    syt = ("verify", "--suite", "syt", "--n-max", "3")
    assert workloads.items(syt) == 2 + 6 + 20
    crosses = ("verify", "--suite", "crosses", "--alpha-max", "2", "--max-steps", "6")
    # alpha 1: k = 1..3 -> 2 + 6 + 20; alpha 2: k = 1, 2 -> 3 + 15
    assert workloads.items(crosses) == 28 + 18


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_job_times_the_import_apart_from_the_tracer():
    job = ("verify", "--suite", "syt", "--n-max", "4")
    result = run.run_process(job, 60, trace=True)
    assert result["returncode"] == 0
    summary = result["trace"]
    assert 0 < summary["import_s"] < result["wall_s"] and summary["tracer_s"] > 0
    m = run.layer_metrics([summary], [result])
    assert m["cli.startup_s"] == summary["import_s"]
    assert m["trace.hook_s"] >= summary["tracer_s"]
    assert m["cli.main.s"] + m["cli.startup_s"] + m["trace.hook_s"] < result["wall_s"]
