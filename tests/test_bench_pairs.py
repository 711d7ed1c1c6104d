"""``tools/bench_pairs.py`` summarises every end-to-end metric that
``BENCHMARK.json`` declares, on a synthetic list of pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, parent, change):
    """One pair: every metric at 1.0, except those named in ``parent`` or
    ``change``."""
    def side(values):
        metrics = {m["name"]: {"value": values.get(m["name"], 1.0)} for m in END_TO_END}
        return {"result": {"correct": True, "metrics": metrics}}
    return {"seed": seed, "order": "parent first", "parent": side(parent), "change": side(change)}


def test_every_metric_is_summarised_and_only_the_worse_one_flagged(bench_pairs):
    runs = [
        # wall_s 30% worse in median, evals_per_s 30% better, evaluations
        # equal; solution_err 0 at the parent, 0.01 at the change
        _run(1, {"wall_s": 1.0, "solution_err": 0.0},
             {"wall_s": 1.2, "evals_per_s": 1.3, "solution_err": 0.01}),
        _run(2, {"wall_s": 1.0, "solution_err": 0.0},
             {"wall_s": 1.3, "evals_per_s": 1.3, "solution_err": 0.01}),
        _run(3, {"wall_s": 1.0, "solution_err": 0.0},
             {"wall_s": 1.4, "evals_per_s": 1.3, "solution_err": 0.01}),
    ]
    summary = bench_pairs.summarize("w", runs, False, 30, END_TO_END)
    medians = summary["medians"]
    assert list(medians) == [m["name"] for m in END_TO_END]
    assert medians["wall_s"]["parent"] == 1.0
    assert medians["wall_s"]["change"] == 1.3
    assert medians["wall_s"]["worse_by"] == pytest.approx(0.3)
    assert medians["evals_per_s"]["worse_by"] == pytest.approx(-0.3)
    assert medians["solution_err"]["worse_by"] == pytest.approx(0.01)
    assert medians["evaluations"]["worse_by"] == 0
    assert summary["over_bound"] == ["wall_s"]
    assert summary["change_wins"] == 0
    assert summary["pairs_run"] == 3
    assert summary["pairs"][0]["change_ok_ratio"] == 1.0


def test_a_higher_is_better_metric_flags_a_fall(bench_pairs):
    runs = [_run(seed, {}, {"ok_ratio": 0.9}) for seed in (1, 2)]
    summary = bench_pairs.summarize("w", runs, True, 30, END_TO_END)
    assert summary["over_bound"] == ["ok_ratio"]
    assert summary["medians"]["ok_ratio"]["worse_by"] == pytest.approx(0.1)
