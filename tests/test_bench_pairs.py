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


def _run(seed, parent, change, correct=(True, True)):
    """One pair: every metric at 1.0, except those named in ``parent`` or
    ``change``; each side's log reports a host-speed scale of 2."""
    def side(values, ok):
        metrics = {m["name"]: {"value": values.get(m["name"], 1.0)} for m in END_TO_END}
        log = ["iteration walls: raw 0.5; scaled 1.0; host-speed scale of the run 2.0000"]
        return {"log": log, "result": {"correct": ok, "metrics": metrics}}
    return {"seed": seed, "order": "parent first", "parent": side(parent, correct[0]),
            "change": side(change, correct[1])}


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


def test_pairs_with_an_incorrect_side_are_listed(bench_pairs):
    runs = [_run(1, {}, {}), _run(2, {}, {}, correct=(True, False)),
            _run(3, {}, {}, correct=(False, True))]
    summary = bench_pairs.summarize("w", runs, False, 30, END_TO_END)
    assert summary["incorrect_pairs"] == [2, 3]
    assert summary["unresolved"] == []


@pytest.mark.parametrize("change_wall_s,unresolved", [
    # the parent's wall_s quartiles, 1.625 and 2.375, lie 0.375 of its median
    # apart, wider than the 0.25 bound: a change median inside them tells nothing
    ((1.9, 2.0, 2.1, 2.0), ["wall_s"]),
    # every change run beats every parent run: resolved despite the spread
    ((0.5, 0.6, 0.7, 0.6), []),
])
def test_a_metric_is_unresolved_when_the_parent_spreads_wider_than_its_bound(
        bench_pairs, change_wall_s, unresolved):
    parent_wall_s = (1.5, 2.0, 2.5, 2.0)
    runs = [_run(i, {"wall_s": p}, {"wall_s": c})
            for i, (p, c) in enumerate(zip(parent_wall_s, change_wall_s))]
    summary = bench_pairs.summarize("w", runs, False, 30, END_TO_END)
    assert summary["unresolved"] == unresolved
    assert summary["medians"]["wall_s"]["parent_spread"] == pytest.approx(0.375)
    assert summary["over_bound"] == []


def test_outlier_runs_are_listed_with_their_host_speed_scale(bench_pairs):
    # BENCH_12's small-runs walls, seeds 41-46: one parent run read 1.906 s
    # against 2.93-3.50 s for the other eleven
    parent_wall_s = (1.9062, 3.3563, 3.4314, 3.1028, 2.9316, 3.5011)
    change_wall_s = (3.1965, 3.1653, 3.3002, 3.3153, 3.2146, 3.2999)
    runs = [_run(seed, {"wall_s": p}, {"wall_s": c})
            for seed, p, c in zip(range(41, 47), parent_wall_s, change_wall_s)]
    summary = bench_pairs.summarize("w", runs, False, 30, END_TO_END)
    assert summary["outlier_runs"] == [
        {"seed": 41, "side": "parent", "wall_s": 1.9062, "host_scale": 2.0}]
    # three runs a side are too few to have quartiles worth fencing
    assert bench_pairs.summarize("w", runs[:3], False, 30, END_TO_END)["outlier_runs"] == []
    assert bench_pairs.host_scale(["no scale here"]) is None
