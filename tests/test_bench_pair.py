"""The arithmetic of ``bench_pair.py``'s summary, on recorded samples of
benchmark runs and of CLI job rounds and on the committed ``BENCH_*.json``
files, its commit of a working tree, in a throwaway repository, and its
refusal of an incorrect run and of a job round whose sides differ, without
running the benchmark or a job."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def run(seed, base, change):
    """A pair of runs of one seed, as (wall_s, items_per_s) for each side."""
    def line(wall, items):
        return {"metrics": {"wall_s": {"value": wall}, "items_per_s": {"value": items}}}

    return {"seed": seed, "first": "base", "base": line(*base), "change": line(*change)}


def test_summary_of_a_recorded_sample():
    runs = [
        run(1, (0.50, 100.0), (0.40, 120.0)),
        run(2, (0.52, 98.0), (0.45, 97.0)),
        run(3, (0.48, 101.0), (0.48, 130.0)),  # a tie counts for neither side
        run(4, (0.55, 90.0), (0.41, 125.0)),
    ]
    summary = bench_pair.summarize(runs, {"wall_s": "lower", "items_per_s": "higher"})
    wall = summary["wall_s"]
    assert wall["base"]["median"] == pytest.approx(0.51)
    assert wall["change"]["median"] == pytest.approx(0.43)
    assert wall["base"]["quartiles"] == pytest.approx([0.495, 0.51, 0.5275])
    assert (wall["pairs_won"], wall["pairs"]) == (3, 4)
    items = summary["items_per_s"]
    assert items["change"]["median"] == pytest.approx(122.5)
    assert (items["pairs_won"], items["pairs"]) == (3, 4)


def job_round(i, base, change, digests=("a" * 64, "a" * 64)):
    """A round of one job: each side's wall time, exit status and stdout digest."""
    return {"round": i, "first": ("base", "change")[i % 2],
            "base": {"wall_s": base, "exit": 0, "sha256": digests[0]},
            "change": {"wall_s": change, "exit": 0, "sha256": digests[1]}}


def test_summary_of_recorded_job_rounds():
    rounds = [job_round(0, 0.060, 0.055), job_round(1, 0.058, 0.059),
              job_round(2, 0.062, 0.054), job_round(3, 0.057, 0.057)]
    for sample in rounds:
        bench_pair.check_round("verify --suite syt --n-max 1", sample)
    wall = bench_pair.summarize(rounds, {"wall_s": "lower"}, bench_pair.job_value)["wall_s"]
    assert wall["base"]["median"] == pytest.approx(0.059)
    assert wall["change"]["median"] == pytest.approx(0.056)
    assert wall["base"]["quartiles"] == pytest.approx([0.05775, 0.059, 0.0605])
    assert (wall["pairs_won"], wall["pairs"]) == (2, 4)


@pytest.mark.parametrize("differs", ["stdout", "exit", "stderr"])
def test_a_round_whose_sides_differ_stops_the_run(differs):
    sample = job_round(3, 0.060, 0.055, ("a" * 64, ("b" if differs == "stdout" else "a") * 64))
    if differs == "exit":
        sample["change"]["exit"] = 1
    if differs == "stderr":  # a refusal, empty on stdout, reworded
        for side, message in (("base", "error: --order: 'x'"), ("change", "error: --order x")):
            sample[side].update(exit=1, stderr=message)
    with pytest.raises(RuntimeError, match=r"^'coeffs --series g' round 3: the sides differ"):
        bench_pair.check_round("coeffs --series g", sample)


def test_working_tree_commit_holds_untracked_files(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return bench_pair.git("-c", "user.name=t", "-c", "user.email=t@localhost", *args)

    monkeypatch.setattr(bench_pair, "ROOT", repo)
    git("init", "-q")
    (repo / ".gitignore").write_text("results/\n")
    (repo / "kept.py").write_text("old\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    head = git("rev-parse", "HEAD")
    (repo / "kept.py").write_text("new\n")
    (repo / "untracked.py").write_text("added\n")
    (repo / "results").mkdir()
    (repo / "results" / "run.json").write_text("{}\n")
    status = git("status", "--porcelain")

    commit = bench_pair.working_tree_commit(tmp_path / "index")
    assert git("rev-parse", f"{commit}^") == head
    assert git("ls-tree", "-r", "--name-only", commit).split() == [
        ".gitignore", "kept.py", "untracked.py",
    ]
    assert git("show", f"{commit}:kept.py") == "new"
    # the checkout's branch and index are as they were
    assert (git("rev-parse", "HEAD"), git("status", "--porcelain")) == (head, status)


@pytest.mark.parametrize("correct", [True, False])
def test_an_incorrect_run_is_refused(correct, tmp_path, monkeypatch):
    line = {"correct": correct, "attempted": 18, "failed": 4, "metrics": {}}

    def finished(argv, **kwargs):
        assert argv[1:] == ["perfbench/run.py", "--workload", "oracle", "--seed", "7",
                            "--seconds", "30"]
        return subprocess.CompletedProcess(argv, 0, "progress\n" + json.dumps(line) + "\n", "")

    monkeypatch.setattr(bench_pair.subprocess, "run", finished)
    if correct:
        assert bench_pair.run_bench(tmp_path, "oracle", 7, 30) == line
    else:
        with pytest.raises(RuntimeError, match=r"oracle seed 7 is not correct: 4 of 18") as info:
            bench_pair.run_bench(tmp_path, "oracle", 7, 30)
        assert str(info.value).startswith(f"{tmp_path}: ")


def test_seed_lists():
    assert bench_pair.seeds("101-104") == [101, 102, 103, 104]
    assert bench_pair.seeds("1,5,9") == [1, 5, 9]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_match_their_runs(path):
    record = json.loads(path.read_text())
    assert len(record["base"]["commit"]) == len(record["change"]["commit"]) == 40
    assert record["python"] and record["nproc"] >= 1
    better = {
        metric["name"]: metric["better"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    for workload in record["workloads"].values():
        runs = workload["runs"]
        assert [run["first"] for run in runs[:2]] == ["base", "change"]
        assert workload["metrics"] == bench_pair.summarize(runs, better)
    for job, recorded in record.get("jobs", {}).items():
        rounds = recorded["rounds"]
        assert [sample["first"] for sample in rounds[:2]] == ["base", "change"]
        for sample in rounds:
            bench_pair.check_round(job, sample)
        assert recorded["metrics"] == bench_pair.summarize(
            rounds, {"wall_s": "lower"}, bench_pair.job_value
        )
