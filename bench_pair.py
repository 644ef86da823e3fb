"""Paired benchmark runs: a base commit against this working tree.

    python3 bench_pair.py --base HEAD~1 --workload table --seeds 101-110 \\
        --seconds 30 --out BENCH_next.json

The base commit is checked out into a temporary ``git worktree``, removed
afterwards.  For each seed, each tree runs its own, unchanged
``perfbench/run.py`` once, the two in alternating order, and the last line
of its standard output, one JSON object, is kept.  The output file records
both commit ids, the interpreter, ``nproc``, every run's JSON line and, per
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles
and the number of pairs in which the change is better.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def seeds(text: str) -> list[int]:
    """``101-110`` or ``1,5,9``."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the tree's own benchmark; its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles over the runs, and the
    pairs (runs of one seed) in which the change is strictly better."""
    summary = {}
    for name, direction in better.items():
        sides = {side: [run[side]["metrics"][name]["value"] for run in runs]
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
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {
        "base": {"commit": git("rev-parse", args.base)},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        base_dir = Path(scratch) / "base"
        git("worktree", "add", "--detach", str(base_dir), record["base"]["commit"])
        try:
            for workload in args.workload:
                runs = []
                for i, seed in enumerate(args.seeds):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        tree = base_dir if side == "base" else ROOT
                        run[side] = run_bench(tree, workload, seed, args.seconds)
                        print(f"{workload} seed {seed} {side}: "
                              f"{run[side]['metrics']['wall_s']['value']:.4f} s", flush=True)
                    runs.append(run)
                record["workloads"][workload] = {"runs": runs, "metrics": summarize(runs, better)}
        finally:
            git("worktree", "remove", "--force", str(base_dir))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
