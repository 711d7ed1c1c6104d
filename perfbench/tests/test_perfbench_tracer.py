"""Tests of the benchmark's tracer and its agreement with BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import signal
import statistics
import time

import pytest

import hostspeed
import run as bench
from hostspeed import HostClock
from tracer import BINDINGS, KERNEL_SPAN, Tracer, TracerError, _resolve
from workloads import WORKLOADS, DeBaseline, SmallRuns

from subgrid import core, functions, harness

NAMED_TARGETS = (
    ("subgrid.slmga", "mutate"),
    ("subgrid.slm", "_choose_cell"),
    ("subgrid.core", "position_of"),
    ("subgrid.functions.Objective", "evaluate"),
    ("subgrid.harness", "expr_evaluate"),
)


def all_targets():
    return [(owner, attr) for b in BINDINGS for owner, attr in b.targets]


def current(owner, attr):
    return vars(_resolve(owner))[attr]


def small_workload(cls, runs):
    w = cls(0)
    w.make_inputs()
    w.runs = runs(w.runs)
    w.prepare()
    return w


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(time, "perf_counter", clock)
    t = Tracer(bindings=())
    leaf = t.span("leaf", lambda: clock.advance(0.5))

    def inner_fn():
        clock.advance(3.0)
        leaf()

    inner = t.span("inner", inner_fn)

    def outer_fn():
        clock.advance(1.0)
        inner()
        clock.advance(2.0)
        inner()

    t.span("outer", outer_fn)()
    s = t.stats
    assert (s["outer"].calls, s["inner"].calls, s["leaf"].calls) == (1, 2, 2)
    assert s["outer"].total_s == pytest.approx(10.0)
    assert s["outer"].self_s == pytest.approx(3.0)
    assert s["inner"].total_s == pytest.approx(7.0)
    assert s["inner"].self_s == pytest.approx(6.0)
    assert s["leaf"].self_s == pytest.approx(1.0)
    # self times partition the outermost span
    assert sum(v.self_s for v in s.values()) == pytest.approx(s["outer"].total_s)


def test_probe_counts_and_kernel_calls_under_a_span():
    t = Tracer(bindings=())
    kernel = t.span(KERNEL_SPAN, lambda x: x)
    cache = {}

    def adapter(x):
        if x not in cache:
            cache[x] = kernel(x)
        return cache[x]

    probe = t.span("probe", lambda evaluate, xs: [evaluate(x) for x in xs], probe_arg=0)
    probe(adapter, [1, 2, 1, 1])
    assert t.stats["probe"].probes == 4
    assert t.stats["probe"].kernel_calls == 2


def test_named_attributes_are_rebound_only_while_traced():
    originals = {target: current(*target) for target in all_targets()}
    w = small_workload(SmallRuns, lambda runs: [runs[0], runs[4]])
    t = Tracer()
    with t.installed():
        for target in NAMED_TARGETS:
            assert current(*target) is not originals[target]
        w.prepare()
        w.iterate(time.perf_counter)
    for target, original in originals.items():
        assert current(*target) is original, target
    assert t.stats["core.position_of"].calls > 0
    assert t.stats["exprparse.evaluate"].calls > 0


def test_originals_restored_after_an_exception():
    originals = {target: current(*target) for target in all_targets()}
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            1 / 0
    for target, original in originals.items():
        assert current(*target) is original, target


def test_untraced_iteration_installs_no_wrapper(monkeypatch):
    originals = {target: current(*target) for target in all_targets()}
    seen = []
    obj = functions.get_objective("goldstein-price")
    eval_fn = obj.eval_fn

    def spy(x):
        seen.append(all(current(*t) is o for t, o in originals.items()))
        return eval_fn(x)

    monkeypatch.setattr(obj, "eval_fn", spy)
    w = small_workload(SmallRuns, lambda runs: [runs[0]])
    w.iterate(time.perf_counter)
    assert seen and all(seen)
    seen.clear()
    with Tracer().installed():
        w.iterate(time.perf_counter)
    assert seen and not any(seen)


def test_a_missed_rebinding_is_refused(monkeypatch):
    original = core.position_of
    monkeypatch.setattr(harness, "alias_of_position_of", original, raising=False)
    with pytest.raises(TracerError, match="alias_of_position_of"):
        Tracer().install()
    assert core.position_of is original


@pytest.mark.parametrize("cls, pick", [
    (SmallRuns, lambda runs: [runs[0], runs[4], runs[8]]),
    (DeBaseline, lambda runs: [runs[0], runs[-1]]),
])
def test_trace_self_consistency(cls, pick):
    w = small_workload(cls, pick)
    t = Tracer()
    with t.installed():
        w.iterate(time.perf_counter)
    assert bench.trace_problems(t, w) == []
    assert t.stats[KERNEL_SPAN].calls == sum(r.evaluations for r in t.reports) > 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_host_clock_excludes_probe_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        start, start_now = time.perf_counter(), clock.now()
        while time.perf_counter() - start < 2.5 * hostspeed.PROBE_EVERY_S:
            pass
        elapsed, elapsed_now = time.perf_counter() - start, clock.now() - start_now
    assert len(clock.probes) >= 3
    assert elapsed - elapsed_now == pytest.approx(clock.paused, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.scale() == pytest.approx(hostspeed.PROBE_REF_S / statistics.median(clock.probes))
