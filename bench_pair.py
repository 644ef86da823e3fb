"""Paired benchmark runs: a base commit against this working tree.

    python3 bench_pair.py --base HEAD~1 --workload table --seeds 101-110 \\
        --seconds 30 --out BENCH_next.json
    python3 bench_pair.py --base HEAD~1 --job "coeffs --series g --alpha 1 --order 1" \\
        --rounds 21 --out BENCH_next.json

The change side is the working tree as it is, untracked files included:
it is written as a commit on top of HEAD through a temporary index.  Both
sides are checked out into temporary ``git worktree``s under one directory,
removed afterwards, so neither runs from the checkout.  For each seed, each
tree runs its own, unchanged ``perfbench/run.py`` once, the two in
alternating order, and the last line of its standard output, one JSON
object, is kept; a run that is not ``correct`` stops the comparison.  The
output file records both commit ids and HEAD, the interpreter, ``nproc``,
every run's JSON line and, per end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles and the number of pairs in which the
change is better.

Each ``--job`` is a CLI command line, run ``--rounds`` times from each tree as
a fresh ``python -m bouncepaths.cli`` process that compiles from source; the
sides alternate which goes first.  The output file records every sample's
wall time, exit status, stdout digest and first stderr line, and per job the
same summary of ``wall_s``.  A round whose two sides print different output,
on either stream, stops the run.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True, env=env
    ).stdout.strip()


def working_tree_commit(index: Path) -> str:
    """A commit, child of HEAD, of every file of the working tree that git
    does not ignore, built in the index file ``index``; the real index and
    the branch are left alone."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    git("add", "-A", env=env)
    tree = git("write-tree", env=env)
    name = ["-c", "user.name=bench_pair", "-c", "user.email=bench_pair@localhost"]
    return git(*name, "commit-tree", tree, "-p", "HEAD", "-m", "bench_pair working tree")


def seeds(text: str) -> list[int]:
    """``101-110`` or ``1,5,9``."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the tree's own benchmark; its last output line as JSON.
    A run that exits non-zero or reports ``"correct": false`` raises."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{tree}: {workload} seed {seed} is not correct: "
                           f"{result.get('failed')} of {result.get('attempted')} jobs failed")
    return result


def run_job(tree: Path, job: str) -> dict:
    """One fresh ``python -m bouncepaths.cli`` process of ``job`` from the
    tree's ``src``, compiling from source: its wall time, exit status, the
    sha256 of its stdout and the first line of its stderr, where a refusal
    or a usage error says why."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bouncepaths.cli", *shlex.split(job)],
                          cwd=tree, env=env, capture_output=True)
    return {"wall_s": perf_counter() - start, "exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": proc.stderr.decode(errors="replace").partition("\n")[0]}


def check_round(job: str, sample: dict) -> None:
    """Raise unless both sides of one round of ``job`` exited alike and
    printed the same stdout and the same first stderr line; a sample
    recorded without its stderr line (``BENCH_37.json``, ``BENCH_38.json``)
    compares it as None."""
    base, change = ((sample[side]["exit"], sample[side]["sha256"], sample[side].get("stderr"))
                    for side in ("base", "change"))
    if base != change:
        raise RuntimeError(f"{job!r} round {sample['round']}: the sides differ, exit, "
                           f"stdout sha256 and stderr {base} (base) != {change} (change)")


def job_value(sample: dict, name: str) -> float:
    return sample[name]


def metric_value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def summarize(runs: list[dict], better: dict[str, str], value=metric_value) -> dict:
    """Per metric: each side's median and quartiles over the runs, and the
    pairs (runs of one seed, or rounds of one job) in which the change is
    strictly better; ``value(side's record, metric)`` reads a number."""
    summary = {}
    for name, direction in better.items():
        sides = {side: [value(run[side], name) for run in runs]
                 for side in ("base", "change")}
        won = sum(
            (c < b) if direction == "lower" else (c > b)
            for b, c in zip(sides["base"], sides["change"])
        )
        summary[name] = {
            "better": direction,
            **{side: {"median": statistics.median(values),
                      "quartiles": statistics.quantiles(values, n=4, method="inclusive")}
               for side, values in sides.items()},
            "pairs_won": won,
            "pairs": len(runs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="the base commit")
    parser.add_argument("--workload", nargs="+", default=[])
    parser.add_argument("--seeds", type=seeds)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--job", action="append", default=[],
                        help="a CLI command line, run as fresh processes; repeatable")
    parser.add_argument("--rounds", type=int, default=21, help="rounds per --job")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (args.workload or args.job):
        parser.error("give at least one --workload or --job")
    if args.workload and (args.seeds is None or args.seconds is None):
        parser.error("--workload needs --seeds and --seconds")
    if args.workload and len(args.seeds) < 2 or args.job and args.rounds < 2:
        parser.error("quartiles need at least two seeds or rounds")

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {
        "base": {"commit": git("rev-parse", args.base)},
        "change": {"head": git("rev-parse", "HEAD")},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "workloads": {},
        "jobs": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        change = working_tree_commit(Path(scratch) / "index")
        record["change"].update(
            commit=change, uncommitted_changes=bool(git("diff", "--name-only", "HEAD", change))
        )
        trees = {side: Path(scratch) / side for side in ("base", "change")}
        try:
            for side, tree in trees.items():
                git("worktree", "add", "--detach", str(tree), record[side]["commit"])
            for job in args.job:
                rounds = []
                for i in range(args.rounds):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    sample = {"round": i, "first": order[0]}
                    for side in order:
                        sample[side] = run_job(trees[side], job)
                    check_round(job, sample)
                    rounds.append(sample)
                summary = summarize(rounds, {"wall_s": "lower"}, job_value)
                record["jobs"][job] = {"rounds": rounds, "metrics": summary}
                print(f"{job}: {summary['wall_s']['base']['median']:.4f} -> "
                      f"{summary['wall_s']['change']['median']:.4f} s", flush=True)
            for workload in args.workload:
                runs = []
                for i, seed in enumerate(args.seeds):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = run_bench(trees[side], workload, seed, args.seconds)
                        print(f"{workload} seed {seed} {side}: "
                              f"{run[side]['metrics']['wall_s']['value']:.4f} s", flush=True)
                    runs.append(run)
                record["workloads"][workload] = {"runs": runs, "metrics": summarize(runs, better)}
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
