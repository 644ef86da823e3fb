"""The arithmetic of ``bench_pair.py``'s summary, on a recorded sample and on
the committed ``BENCH_*.json`` files, without running the benchmark."""

import importlib.util
import json
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
