"""Benchmark of the bouncepaths CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload sequence --seed 1 --seconds 30 --trace 0

Each job runs ``python -m bouncepaths.cli`` in a fresh interpreter with the
repository's ``src`` first on PYTHONPATH, as a CLI user runs it; one client
runs the jobs one after another (a closed loop).  The job list is repeated
for ``--seconds`` seconds and every job's output is checked.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (one pass over the
job list, the sum of each job's median time), ``items_per_s`` (coefficients
emitted, or lattice paths certified for ``oracle``, by the jobs that never
failed, per second of ``wall_s``), ``setup_s`` (median time of
``import bouncepaths.cli`` in a fresh interpreter) and ``peak_rss_mb``
(largest max-RSS of any job).  The two times are host-normalised seconds
(see REFERENCE below).  A job fails on a nonzero exit, a traceback or output
that fails its check, and the human summary prints ``failed_frac``;
``correct`` is false as soon as a job fails other than the way it failed at
the seed commit (see ``workloads.check_output``).
``--trace 1`` alternates untraced passes with passes in which every job runs
under ``tracer.py`` and prints the per-layer metrics: medians over the traced
passes of raw seconds inside the jobs, and exact counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a results file with
the raw and normalised per-job times and the host (Python version, nproc,
seed, reference task time) is written under ``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_PASSES = 3
HARD_LIMIT_S = 160  # start no work after this, so a run ends well within 180 s
SETUP_PROBES_PER_PASS = 1

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "series.self_s": "s",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.mul.coeff_products": "count",
    "series.mul.max_bits": "bits",
    "series.reciprocal.calls": "count",
    "series.reciprocal.self_s": "s",
    "series.div.calls": "count",
    "series.pow.calls": "count",
    "closed_forms.self_s": "s",
    "closed_forms.binomial.calls": "count",
    "closed_forms.binomial.self_s": "s",
    "closed_forms.g.calls": "count",
    "closed_forms.g.self_s": "s",
    "bounce.self_s": "s",
    "bounce.bounce_free_ab.calls": "count",
    "bounce.bounce_free_ab.s": "s",
    "bounce.expand_marker_quotient.self_s": "s",
    "bounce.expand_marker_quotient.cells": "count",
    "bounce.bounce_table.s": "s",
    "beta_one.self_s": "s",
    "beta_one.nhc_nrb_series.s": "s",
    "beta_one.nhc_prefix_series.s": "s",
    "enumeration.self_s": "s",
    "enumeration.enumerate_profiles.calls": "count",
    "enumeration.enumerate_profiles.self_s": "s",
    "enumeration.paths_walked": "count",
    "enumeration.enumerate_syt.self_s": "s",
    "verify.self_s": "s",
    "verify.oracle-vs-table.s": "s",
    "verify.total-bounces.s": "s",
    "verify.syt.s": "s",
    "verify.crosses.s": "s",
    "verify.checks": "count",
    "verify.failed": "count",
    "cli.self_s": "s",
    "cli.render.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.main.s": "s",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.hook_s": "s",
    "trace.absent_names": "count",
}

G_BUILDERS = ("g_series", "g_ab_series", "g_prefix_series", "fuss_catalan")
RENDER = ("cmd_coeffs", "cmd_bounce_table", "cmd_verify")
ORACLE_SUITES = ("oracle-vs-table", "total-bounces", "syt", "crosses")

# The host's speed changes by tens of percent from one minute to the next.
# Every measured job is bracketed by runs of this fixed task, which imports
# nothing from the program, and its time is also reported in host-normalised
# seconds: seconds * REFERENCE_NOMINAL_S / the mean of the two reference
# times around it.  The task mixes the interpreter work of the three
# workloads: running products of big binomials, a recursive walk over
# lattice paths, and schoolbook products of 200-bit coefficient lists.  On a
# shared 2-core host, each part alone slowed between half and twice as much
# as some of the jobs; their sum slowed in proportion to the jobs of every
# workload.
REFERENCE = """\
import time
start = time.perf_counter()
for _ in range(5):
    v = 1
    for i in range(1, 4000):
        v = v * (8000 + i) // i
counts = {}
def walk(x, y, last, n):
    if x == y == 9:
        counts[last, n] = counts.get((last, n), 0) + 1
        return
    if x < 9:
        walk(x + 1, y, "E", n + (x == y and last == "N"))
    if y < 9:
        walk(x, y + 1, "N", n + (x == y and last == "E"))
walk(0, 0, "", 0)
a = [3 ** 120 + i for i in range(41)]
for _ in range(120):
    out = [0] * 41
    for i in range(41):
        for j in range(41 - i):
            out[i + j] += a[i] * a[j]
print(time.perf_counter() - start)
"""
REFERENCE_NOMINAL_S = 0.13

PROBE = (
    "import time; t = time.perf_counter(); import bouncepaths.cli as m; "
    "t = time.perf_counter() - t; print(t); print(m.__file__)"
)


class SetupError(Exception):
    """The program cannot be run from this directory."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(args, timeout_s, trace=False) -> dict:
    """Run the interpreter with ``args`` to completion, or, with ``trace``,
    the CLI with arguments ``args`` under the tracer; time it and collect
    its rusage."""
    with tempfile.TemporaryFile(dir=BENCH) as out, \
            tempfile.TemporaryFile(dir=BENCH) as err, \
            tempfile.TemporaryFile(dir=BENCH) as spans:
        if trace:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans.fileno()), *args]
        else:
            cmd = [sys.executable, *args]
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
            env=child_env(), pass_fds=(spans.fileno(),) if trace else (),
        )
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        spans.seek(0)
        summary = spans.read()
        return {
            "wall_s": wall,
            "returncode": proc.returncode,
            "stdout": out.read(),
            "stderr": err.read(),
            "maxrss_kb": usage.ru_maxrss,
            "trace": json.loads(summary) if trace and summary else None,
        }


def setup_probe(timeout_s) -> float:
    """Seconds a fresh interpreter spends in ``import bouncepaths.cli``."""
    run = run_process(["-c", PROBE], timeout_s)
    lines = run["stdout"].decode().split()
    if run["returncode"] != 0 or len(lines) != 2:
        raise SetupError(
            "import bouncepaths.cli failed: "
            + run["stderr"].decode(errors="replace").strip()[-300:]
        )
    if not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"bouncepaths was imported from {lines[1]}, not from {SRC}")
    return float(lines[0])


def reference(timeout_s) -> float:
    """Seconds of the fixed reference task: the host's speed right now."""
    run = run_process(["-c", REFERENCE], timeout_s)
    if run["returncode"] != 0:
        raise SetupError("the reference task failed: " + run["stderr"].decode()[-300:])
    return float(run["stdout"])


# ------------------------------------------------------------------ metrics


def layer_metrics(summaries: list[dict], runs: list[dict]) -> dict:
    """Per-layer metrics of one traced pass from its jobs' trace summaries."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    absent: set[str] = set()
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for field, value in entry.items():
                into[field] += value
        for name, value in summary["counters"].items():
            if name.endswith("max_bits"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        absent.update(summary["absent"])

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def layer_self(layer):
        return sum(v["self_s"] for n, v in spans.items() if n.startswith(layer + "."))

    m = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
    for name in ("series.mul", "series.reciprocal"):
        m[f"{name}.self_s"] = span(name, "self_s")
    for name in ("series.mul", "series.reciprocal", "series.div", "series.pow",
                 "closed_forms.binomial", "bounce.bounce_free_ab",
                 "enumeration.enumerate_profiles"):
        m[f"{name}.calls"] = span(name, "calls")
    for name in ("closed_forms.binomial", "bounce.expand_marker_quotient",
                 "enumeration.enumerate_profiles", "enumeration.enumerate_syt"):
        m[f"{name}.self_s"] = span(name, "self_s")
    for name in ("bounce.bounce_free_ab", "bounce.bounce_table", "beta_one.nhc_nrb_series",
                 "beta_one.nhc_prefix_series", "cli.main"):
        m[f"{name}.s"] = span(name, "incl_s")
    for suite in ORACLE_SUITES:
        m[f"verify.{suite}.s"] = span(f"verify.{suite}", "incl_s")
    m["closed_forms.g.calls"] = sum(span(f"closed_forms.{n}", "calls") for n in G_BUILDERS)
    m["closed_forms.g.self_s"] = sum(span(f"closed_forms.{n}", "self_s") for n in G_BUILDERS)
    m["cli.render.self_s"] = sum(span(f"cli.{n}", "self_s") for n in RENDER)
    for name in ("series.mul.coeff_products", "series.mul.max_bits",
                 "bounce.expand_marker_quotient.cells", "enumeration.paths_walked",
                 "verify.checks", "verify.failed"):
        m[name] = counters.get(name, 0)
    m["cli.output_bytes"] = sum(len(r["stdout"]) for r in runs)
    m["cli.startup_s"] = sum(s["import_s"] for s in summaries)
    m["trace.hook_s"] = span("trace.hook", "self_s") + sum(s["tracer_s"] for s in summaries)
    m["trace.absent_names"] = len(absent)
    m["_absent"] = sorted(absent)
    return m


# --------------------------------------------------------------------- run


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.jobs = workloads.make_jobs(workload, seed)
        self.outcomes = workloads.load_outcomes()
        self.start = perf_counter()
        self.passes = 0
        self.verdicts: dict = {}  # (job, stdout digest, returncode, stderr) -> verdict
        self.attempted = self.failed = 0
        self.correct = True
        self.failures: dict[tuple, str] = {}  # job -> last failure reason
        # mode -> job -> [(seconds, host-normalised seconds)] over passes
        self.times = {mode: {job: [] for job in self.jobs} for mode in ("plain", "traced")}
        self.setup: list[tuple[float, float]] = []
        self.references: list[float] = []
        self.maxrss_kb = 0
        self.traced_passes: list[dict] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.start)

    def check(self, job, run):
        key = (job, workloads.digest(run["stdout"]), run["returncode"], run["stderr"])
        if key not in self.verdicts:
            self.verdicts[key] = workloads.check_output(
                job, run["returncode"], run["stdout"], run["stderr"], self.outcomes
            )
        reason, wrong = self.verdicts[key]
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures[job] = reason
        if wrong:
            self.correct = False

    def one_pass(self, traced: bool) -> None:
        """Set-up probes, then every job, each between two reference runs."""
        items = [None] * (0 if self.trace else SETUP_PROBES_PER_PASS) + self.jobs
        refs = [reference(self.remaining())]
        measured, runs, summaries = [], [], []
        for job in items:
            if job is None:
                measured.append(setup_probe(self.remaining()))
            else:
                args = job if traced else ("-m", "bouncepaths.cli", *job)
                run = run_process(args, self.remaining(), traced)
                self.check(job, run)
                if not traced:
                    self.maxrss_kb = max(self.maxrss_kb, run["maxrss_kb"])
                if run["trace"] is not None:
                    summaries.append(run["trace"])
                runs.append(run)
                measured.append(run["wall_s"])
            refs.append(reference(self.remaining()))
        for i, (job, seconds) in enumerate(zip(items, measured)):
            pair = (seconds, seconds * 2 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1]))
            if job is None:
                self.setup.append(pair)
            else:
                self.times["traced" if traced else "plain"][job].append(pair)
        self.references += refs
        if traced:
            self.traced_passes.append(layer_metrics(summaries, runs))

    def execute(self) -> None:
        setup_probe(self.remaining())  # fills the bytecode cache, as a user's would be
        longest = 0.0
        while True:
            began = perf_counter()
            self.one_pass(traced=self.trace and self.passes % 2 == 1)
            self.passes += 1
            longest = max(longest, perf_counter() - began)
            need = 2 * MIN_PASSES if self.trace else MIN_PASSES
            if self.passes >= need and perf_counter() - self.start >= self.seconds:
                break
            if self.remaining() < 1.5 * longest:
                break

    def wall(self, mode: str, normalised: bool = True) -> float:
        """One pass over the job list: the sum of each job's median time."""
        return sum(
            statistics.median(pair[normalised] for pair in pairs)
            for pairs in self.times[mode].values()
        )

    def metrics(self) -> dict:
        if not self.trace:
            wall = self.wall("plain")
            passed = [job for job in self.jobs if job not in self.failures]
            return {
                "wall_s": wall,
                "items_per_s": sum(map(workloads.items, passed)) / wall,
                "setup_s": statistics.median(normalised for _, normalised in self.setup),
                "peak_rss_mb": self.maxrss_kb / 1024,
            }
        passes = self.traced_passes
        m = {}
        for name, unit in PER_LAYER.items():
            values = [p[name] for p in passes if name in p]
            if not values:
                continue
            if unit == "s":
                m[name] = statistics.median(values)
            else:
                m[name] = values[0]
                if any(v != values[0] for v in values):
                    print(f"warning: {name} differs between traced passes: {values}",
                          file=sys.stderr)
        m["trace.wall_s"] = self.wall("traced", normalised=False)
        m["trace.overhead_frac"] = self.wall("traced") / self.wall("plain") - 1
        return m


def host() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def report(run: Run, metrics: dict) -> dict:
    units = PER_LAYER if run.trace else END_TO_END
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    reference_s = statistics.median(run.references)
    details = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "passes": run.passes,
        "host": {**host(), "reference_s": reference_s,
                 "reference_nominal_s": REFERENCE_NOMINAL_S},
        "raw_wall_s": {mode: run.wall(mode, normalised=False)
                       for mode in run.times if any(run.times[mode].values())},
        "jobs": [
            {
                "argv": list(job),
                "items": workloads.items(job),
                "seconds_and_normalised": {mode: run.times[mode][job] for mode in run.times},
            }
            for job in run.jobs
        ],
        "setup_probes_s": run.setup,
        "references_s": run.references,
        "failures": {workloads.job_key(job): r for job, r in run.failures.items()},
        "absent": run.traced_passes[0]["_absent"] if run.traced_passes else [],
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{run.workload}_seed{run.seed}_trace{int(run.trace)}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")

    h = details["host"]
    print(f"workload {run.workload}  seed {run.seed}  passes {run.passes}  "
          f"jobs/pass {len(run.jobs)}  python {h['python']}  nproc {h['nproc']}  "
          f"reference task {reference_s:.4f} s (nominal {REFERENCE_NOMINAL_S} s)")
    if run.trace:
        for name, unit in units.items():
            print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
        if details["absent"]:
            print(f"  absent: {', '.join(details['absent'])}")
    else:
        rate = "paths_per_s" if run.workload == "oracle" else "coeffs_per_s"
        shown = {**metrics, rate: metrics["items_per_s"]}
        for name, unit in (("wall_s", "s"), (rate, "1/s"), ("setup_s", "s"),
                           ("peak_rss_mb", "MB")):
            print(f"  {name:<14} {shown[name]:>14.6g} {unit}")
        print(f"  {'failed_frac':<14} {run.failed / run.attempted:>14.6g} "
              f"({run.failed} of {run.attempted} jobs)")
        print(f"  {'raw wall_s':<14} {details['raw_wall_s']['plain']:>14.6g} s "
              "(times above are host-normalised)")
    for job, reason in run.failures.items():
        print(f"  failed: {workloads.job_key(job)}: {reason}")
    print(f"  results: {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bouncepaths" / "cli.py").is_file():
        print(f"error: no bouncepaths sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the checks handle ints past 4300 digits

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(run, run.metrics())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
