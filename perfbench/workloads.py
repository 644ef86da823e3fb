"""Job lists of the three benchmark workloads and the checks on their output.

A job is the argument vector of one ``bouncepaths`` CLI invocation.  Each
workload is a list of slots; a slot is a pool of jobs of one size class
(transposed slopes, mirrored restrictions, neighbouring parameters that do
the same amount of work).  The seed picks one job from every slot and the
order in which the jobs run, so the work per seed stays the same while the
program sees different inputs.

Why these workloads:

* ``sequence``: deep single series as OEIS b-files.  Few multiplications
  on coefficients of about 2,000 bits and no enumeration, so time goes to
  ``closed_forms`` and ``series.reciprocal``, and the CLI renders huge
  integers.  One ``c_alpha`` job has coefficients past CPython's 4300-digit
  int-to-str limit; its expected output comes from ``math.comb``.
* ``table``: full bounce grids as CSV.  Tens of thousands of
  multiplications on coefficients of at most about 200 bits with long zero
  prefixes, ``expand_marker_quotient``, and about 1 MB of CSV per job: the
  same ``series`` layer used the opposite way from ``sequence``.
* ``oracle``: ``verify`` suites that compare against exhaustive path
  enumeration, up to 22 steps.  Nearly all time goes to ``enumeration``.

Every parameter is spelled out in the argument vector, so a change of a
suite's default values does not change the workload.
"""

import hashlib
import json
import math
import random
from pathlib import Path

OUTCOMES_FILE = Path(__file__).resolve().parent / "outcomes.json"

WORKLOADS = ("sequence", "table", "oracle")


def _coeffs(series, alpha, beta, order, bounces=None):
    argv = ["coeffs", "--series", series, "--alpha", str(alpha), "--beta", str(beta)]
    if bounces is not None:
        argv += ["--bounces", str(bounces)]
    return tuple(argv + ["--order", str(order), "--format", "oeis-bfile"])


def _table(alpha, beta, restriction, order):
    return (
        "bounce-table", "--alpha", str(alpha), "--beta", str(beta),
        "--restriction", restriction, "--order", str(order), "--format", "csv",
    )


def _transposed(*slopes):
    return tuple(s for a, b in slopes for s in ((a, b), (b, a)))


SLOTS = {
    "sequence": (
        tuple(
            _coeffs(s, a, b, 400)
            for s in ("f_ee", "f_en", "f_ne", "f_nn")
            for a, b in _transposed((3, 2))
        ),
        tuple(_coeffs("nlb", a, b, 400) for a, b in _transposed((3, 2))),
        (_coeffs("H", 2, 1, 400),),
        tuple(_coeffs("g_b", 1, 1, 600, bounces=b) for b in (2, 3)),
        tuple(
            _coeffs(s, a, b, 600)
            for s in ("g", "g_ee", "g_en", "g_ne", "g_nn")
            for a, b in _transposed((3, 2))
        ),
        tuple(_coeffs("c_alpha", a, 1, 1000) for a in (9500, 10000, 10500)),
    ),
    "table": (
        tuple(_table(a, b, "all", 40) for a, b in _transposed((3, 2))),
        (_table(1, 1, "all", 50),),
        (_table(2, 1, "en", 40), _table(1, 2, "en", 40),
         _table(2, 1, "ne", 40), _table(1, 2, "ne", 40)),
        (_table(4, 3, "ee", 30), _table(3, 4, "ee", 30),
         _table(4, 3, "nn", 30), _table(3, 4, "nn", 30)),
    ),
    "oracle": (
        (("verify", "--suite", "oracle-vs-table", "--max-slope-sum", "7",
          "--max-steps", "22"),),
        tuple(
            ("verify", "--suite", "total-bounces", "--b-max", str(b), "--n-max", "11")
            for b in (5, 6, 7)
        ),
        (("verify", "--suite", "syt", "--n-max", "10"),),
        tuple(
            ("verify", "--suite", "crosses", "--alpha-max", "3", "--max-steps", "20",
             "--order", str(o))
            for o in (9, 10, 11)
        ),
    ),
}


def make_jobs(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's job list for this seed; a pure function of its inputs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [rng.choice(pool) for pool in SLOTS[workload]]
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> list[tuple[str, ...]]:
    return [job for slots in SLOTS.values() for pool in slots for job in pool]


def options(argv) -> dict[str, str]:
    """``--name value`` pairs of an argument vector, keyed without dashes."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


# ------------------------------------------------------------------ counts


def _comb(m: int, n: int) -> int:
    return math.comb(m, n) if 0 <= n <= m else 0


def _slope_paths(alpha: int, beta: int, max_steps: int) -> int:
    """Paths of every semilength k with (alpha + beta) k <= max_steps."""
    s = alpha + beta
    return sum(math.comb(s * k, alpha * k) for k in range(1, max_steps // s + 1))


def items(argv) -> int:
    """Work a job is asked for: coefficients emitted by ``coeffs`` and
    ``bounce-table``, lattice paths certified by ``verify``.

    The path count sums C((alpha+beta)k, alpha*k) over the (slope, k) pairs
    the suite checks against enumeration, so it depends on the workload
    definition only, not on how the oracle walks the paths.
    """
    opt = options(argv)
    if argv[0] == "coeffs":
        return int(opt["order"])
    if argv[0] == "bounce-table":
        return int(opt["order"]) ** 3  # (max_left + 1) * (max_right + 1) * order
    suite = opt["suite"]
    if suite == "oracle-vs-table":
        m = int(opt["max-slope-sum"])
        return sum(
            _slope_paths(a, s - a, int(opt["max-steps"]))
            for s in range(2, m + 1)
            for a in range(1, s)
            if math.gcd(a, s - a) == 1
        )
    if suite in ("total-bounces", "syt"):
        return _slope_paths(1, 1, 2 * int(opt["n-max"]))
    if suite == "crosses":
        return sum(
            _slope_paths(a, 1, int(opt["max-steps"]))
            for a in range(1, int(opt["alpha-max"]) + 1)
        )
    raise ValueError(f"no path count for suite {suite!r}")


# ------------------------------------------------------------------ checks


def expected_coefficients(argv) -> list[int] | None:
    """Coefficients k = 1..order from ``math.comb`` where a closed binomial
    form exists (the g family, g_b, c_alpha and H), else None."""
    opt = options(argv)
    name, order = opt["series"], int(opt["order"])
    a, b = int(opt["alpha"]), int(opt["beta"])
    s = a + b
    shift = {"g_ee": -2, "g_en": -1, "g_ne": -1, "g_nn": 0}
    if name == "g":
        term = lambda k: math.comb(s * k, a * k)
    elif name in shift:
        term = lambda k: _comb(s * k - 2, a * k + shift[name])
    elif name == "c_alpha" and b == 1:
        term = lambda k: math.comb((a + 1) * k, k) // (a * k + 1)
    elif name == "H" and b == 1:
        term = lambda k: a * (math.comb((a + 1) * k, k) // (a * k + 1))
    elif name == "g_b" and a == b == 1:
        bounces = int(opt["bounces"])
        # x^n: 2 (b + 1) / n * C(2n, n - b - 1)
        term = lambda n: 2 * (bounces + 1) * _comb(2 * n, n - bounces - 1) // n
    else:
        return None
    return [term(k) for k in range(1, order + 1)]


def expected_bfile(argv) -> bytes | None:
    values = expected_coefficients(argv)
    if values is None:
        return None
    return "".join(f"{k} {v}\n" for k, v in enumerate(values, 1)).encode()


def _check_bfile(argv, stdout: bytes) -> str | None:
    expected = expected_bfile(argv)
    if expected is not None:
        return None if stdout == expected else "b-file differs from math.comb"
    opt = options(argv)
    a, b, order = int(opt["alpha"]), int(opt["beta"]), int(opt["order"])
    lines = stdout.decode().splitlines()
    if len(lines) != order:
        return f"{len(lines)} b-file lines, expected {order}"
    for k, line in enumerate(lines, 1):
        index, value = line.split(" ")
        if int(index) != k or not 0 <= int(value) <= math.comb((a + b) * k, a * k):
            return f"b-file line {k} out of range: {line[:60]}"
    return None


def _check_table(argv, stdout: bytes) -> str | None:
    """Each column k of the grid sums over (l, r) to the class's path count."""
    opt = options(argv)
    a, b, order = int(opt["alpha"]), int(opt["beta"]), int(opt["order"])
    shift = {"all": None, "ee": -2, "en": -1, "ne": -1, "nn": 0}[opt["restriction"]]
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != "l,r,k,count":
        return "missing CSV header"
    if len(lines) - 1 != order**3:
        return f"{len(lines) - 1} CSV rows, expected {order ** 3}"
    sums = [0] * (order + 1)
    for line in lines[1:]:
        _, _, k, count = line.split(",")
        count = int(count)
        if count < 0:
            return f"negative count in row {line}"
        sums[int(k)] += count
    for k in range(1, order + 1):
        if shift is None:
            total = math.comb((a + b) * k, a * k)
        else:
            total = _comb((a + b) * k - 2, a * k + shift)
        if sums[k] != total:
            return f"column k={k} sums to {sums[k]}, expected {total}"
    return None


def independent_check(argv, stdout: bytes) -> str | None:
    """Reason the output is wrong by a check that shares no code with the
    program, or None when it passes."""
    if argv[0] == "coeffs":
        return _check_bfile(argv, stdout)
    if argv[0] == "bounce-table":
        return _check_table(argv, stdout)
    if not stdout.endswith(b"verify: all suites passed\n"):
        return "no 'verify: all suites passed' line"
    return None


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def job_key(argv) -> str:
    return " ".join(argv)


def load_outcomes() -> dict[str, dict]:
    """Every pool job's outcome at the seed commit: its exit status, its
    failure reason (None when it passed) and the sha256 of its expected
    stdout."""
    return json.loads(OUTCOMES_FILE.read_text())


def check_output(argv, returncode: int, stdout: bytes, stderr: bytes,
                 outcomes: dict[str, dict]) -> tuple[str | None, bool]:
    """(failure reason or None, whether the result is wrong).

    A job fails on a nonzero exit, a traceback, or output that does not pass
    its check or differs from the recorded digest.  Every failure is wrong
    except one the seed commit already had: the same exit status and the
    same reason.  A job that failed at the seed commit and now passes is not
    wrong.
    """
    record = outcomes.get(job_key(argv), {})
    if b"Traceback (most recent call last)" in stderr:
        reason = "traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1]
    elif returncode != 0:
        first = stderr.decode(errors="replace").strip().splitlines() or [""]
        reason = f"exit {returncode}: {first[0][:120]}"
    else:
        try:
            reason = independent_check(argv, stdout)
        except (ValueError, IndexError) as exc:  # output not in the expected format
            reason = f"malformed output: {exc}"
        if reason is None and digest(stdout) != record.get("sha256"):
            reason = "stdout differs from the recorded seed-commit digest"
    if reason is None:
        return None, False
    known = record.get("failure") == reason and record.get("exit") == returncode
    return reason, not known
