"""Benchmark of the subgrid package, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run sets the workload up, repeats its timed iteration untraced for
about ``--seconds`` seconds, makes one traced iteration when per-layer
metrics are asked for (and on ``paper-bench``, whose output carries no
evaluation count), and measures set-up time in fresh processes.  Times are
reported in reference seconds, scaled by a host-speed probe (see
``hostspeed.py``); the raw times are printed too.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it print both sets by name and unit, the environment and any failed check.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostClock, scale_of
from tracer import KERNEL_SPAN, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# (name, unit); BENCHMARK.json lists the same names with bound and direction.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("evaluations", "count"),
    ("run_ms_p50", "ms"),
    ("run_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("solution_err", "objective"),
    ("ok_ratio", "ratio"),
)

# (span, fields): the per-layer metrics are "<span>.<field>".
SPAN_FIELDS = (
    ("slmga.mutate", ("calls", "self_s", "probes", "kernel_calls", "cache_hit_ratio")),
    ("core.position_of", ("calls", "self_s")),
    ("core.lattice_points", ("calls", "self_s")),
    ("functions.evaluate", ("calls", "self_s", "us_per_call")),
    ("baselines.differential_evolution", ("calls", "self_s")),
    ("exprparse.evaluate", ("calls", "self_s")),
    ("exprparse.parse", ("calls", "self_s")),
    ("slm.slm_run", ("calls", "self_s")),
    ("slmga.ga_run", ("calls", "self_s")),
    ("slm.slm_neighbors", ("calls", "self_s", "probes")),
    ("slm.best_neighbor", ("calls", "self_s", "probes", "kernel_calls", "cache_hit_ratio")),
    ("labeling.find_complete_cells", ("calls", "self_s")),
    ("labeling.label_from_delta", ("calls", "self_s")),
    ("slm.choose_cell", ("calls", "self_s")),
    ("slm.region_cells", ("calls", "self_s")),
    ("harness.emit_table", ("calls", "self_s", "bytes")),
    ("harness.bench_table", ("calls", "self_s", "bytes")),
    ("harness.run_experiment", ("calls", "self_s")),
    ("harness.bench_suite", ("calls", "self_s")),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "probes": "count", "kernel_calls": "count",
               "cache_hit_ratio": "ratio", "us_per_call": "us", "bytes": "bytes"}
EXTRA_PER_LAYER = (
    ("labeling.complete_step_ratio", "ratio"),
    ("labeling.steps", "count"),
    ("tracing.wall_s", "s"),
    ("tracing.overhead_s", "s"),
)
PER_LAYER = tuple(("%s.%s" % (span, f), FIELD_UNITS[f])
                  for span, fields in SPAN_FIELDS for f in fields) + EXTRA_PER_LAYER


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only measure set-up in this process and print it")
    return p.parse_args(argv)


def setup(name: str, seed: int):
    """Import the package, generate inputs, resolve objectives; timed."""
    t0 = time.perf_counter()
    import subgrid  # noqa: F401  (the import is part of what is timed)
    w = WORKLOADS[name](seed)
    w.make_inputs()
    w.prepare()
    return time.perf_counter() - t0, w


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def load_golden(w) -> str | None:
    path = GOLDENS / ("%s.json" % w.name)
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(w.variant))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def complete_steps(reports) -> tuple[int, int]:
    """(steps whose chosen cell is completely labeled, steps) over grid-engine
    reports, recomputed from the recorded labels."""
    from subgrid.core import cell_vertices
    from subgrid.labeling import is_complete

    complete = total = 0
    for rep in reports:
        if rep.meta.get("algorithm") not in ("slm", "slmga"):
            continue
        for step in rep.steps:
            total += 1
            if step.chosen_cell is None:
                continue
            labels = {lv.candidate.point: lv.label for lv in step.labels}
            verts = cell_vertices(step.chosen_cell)
            if all(v in labels for v in verts) and is_complete(
                    (labels[v] for v in verts), step.chosen_cell.dim):
                complete += 1
    return complete, total


def layer_metrics(tracer: Tracer, scale: float, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics; span times are multiplied by ``scale``, the
    host-speed scale of the timed phase just before, and the walls are
    already scaled."""
    out = {}
    for span, fields in SPAN_FIELDS:
        s = tracer.stats[span]
        values = {
            "calls": s.calls,
            "self_s": s.self_s * scale,
            "probes": s.probes,
            "kernel_calls": s.kernel_calls,
            "cache_hit_ratio": 1.0 - s.kernel_calls / s.probes if s.probes else 0.0,
            "us_per_call": s.total_s * scale / s.calls * 1e6 if s.calls else 0.0,
            "bytes": s.bytes,
        }
        for f in fields:
            out["%s.%s" % (span, f)] = values[f]
    complete, steps = complete_steps(tracer.reports)
    out["labeling.complete_step_ratio"] = complete / steps if steps else 0.0
    out["labeling.steps"] = steps
    out["tracing.wall_s"] = traced_wall
    out["tracing.overhead_s"] = traced_wall - untraced_wall
    return out


def trace_problems(tracer: Tracer, w) -> list[str]:
    """Self-consistency of the traced iteration: a rebinding the tracer
    missed shows up as a count that does not add up."""
    problems = []
    evaluations = sum(r.evaluations for r in tracer.reports)
    kernel_calls = tracer.stats[KERNEL_SPAN].calls
    if kernel_calls != evaluations:
        problems.append("trace: %s.calls %d != sum of RunReport.evaluations %d"
                        % (KERNEL_SPAN, kernel_calls, evaluations))
    if tracer.engine_spans() != w.runs_per_iteration:
        problems.append("trace: %d engine spans for %d runs"
                        % (tracer.engine_spans(), w.runs_per_iteration))
    return problems


def environment() -> dict:
    import numpy
    import subgrid
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "backend": subgrid.BACKEND}


@dataclass
class Timed:
    walls: list[float]         # scaled wall time of each iteration
    run_ms: list[list[float]]  # scaled latency of each sample, per iteration
    checks: list
    raw_walls: list[float]
    scale: float               # host-speed scale of the whole timed phase


def timed_phase(w, seconds: float, golden) -> Timed:
    """Untraced iterations until the next one would end after ``seconds``.
    An iteration's wall time is the sum of its samples, and its times are
    scaled by the probes taken during it and the one just before."""
    out = Timed([], [], [], [], 0.0)
    start = time.perf_counter()
    with HostClock() as clock:
        while True:
            t0 = time.perf_counter()
            first_probe = len(clock.probes) - 1
            samples = w.iterate(clock.now)
            elapsed = time.perf_counter() - t0
            scale = scale_of(clock.probes[first_probe:])
            out.raw_walls.append(sum(s.ms for s in samples) / 1e3)
            out.walls.append(out.raw_walls[-1] * scale)
            out.run_ms.append([s.ms * scale for s in samples])
            out.checks.append(w.check(samples, golden))
            del samples
            if time.perf_counter() - start + elapsed > seconds:
                out.scale = clock.scale()
                return out


def traced_iteration(w, golden):
    """Set-up and one iteration under the tracer; outputs are checked after
    the tracer is removed, so the checks' own evaluations are not counted.
    No probe interrupts it, since a probe would land inside some span.
    Returns the tracer, the raw wall time and the check."""
    tracer = Tracer()
    with tracer.installed():
        w.prepare()
        samples = w.iterate(time.perf_counter)
    wall = sum(s.ms for s in samples) / 1e3
    return tracer, wall, w.check(samples, golden)


def run(args) -> int:
    first_setup_s, w = setup(args.workload, args.seed)
    golden = load_golden(w)
    problems = [] if golden is not None else ["no golden digest for input variant %d" % w.variant]

    timed = timed_phase(w, args.seconds, golden)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = timed.checks
    evaluations = checks[0].evaluations
    wall_s = statistics.median(timed.walls)
    # each run's latency is its median over the iterations, so that a burst
    # of host noise is not read as a tail of the package
    run_ms = [statistics.median(v) for v in zip(*timed.run_ms)]

    for c in checks:
        problems += c.problems
    if any(c.evaluations != evaluations for c in checks):
        problems.append("evaluation counts differ between iterations")

    # The traced iteration gives the per-layer metrics, and the evaluation
    # count where the workload's own output does not carry it.
    per_layer = None
    if args.trace or evaluations is None:
        tracer, raw_traced_wall, traced = traced_iteration(w, golden)
        problems += trace_problems(tracer, w)
        problems += ["traced iteration: %s" % p for p in traced.problems]
        if evaluations is None:
            evaluations = sum(r.evaluations for r in tracer.reports)
        per_layer = layer_metrics(tracer, timed.scale, raw_traced_wall * timed.scale, wall_s)

    setups = [probe_setup(w.name, args.seed) for _ in range(SETUP_PROBES)]
    attempted = sum(c.runs for c in checks)
    failed = sum(c.failed for c in checks)
    errors = checks[0].registry_errors
    end_to_end = {
        # a probe in a fresh process is itself too noisy to scale by, so
        # set-up is scaled by the host speed measured over the timed phase
        "setup_s": statistics.median(setups) * timed.scale,
        "wall_s": wall_s,
        "evals_per_s": evaluations / wall_s,
        "evaluations": evaluations,
        "run_ms_p50": percentile(run_ms, 50),
        "run_ms_p95": percentile(run_ms, 95),
        "peak_rss_mb": peak_rss_mb,
        "solution_err": sum(errors) / len(errors) if errors else 0.0,
        "ok_ratio": (attempted - failed) / attempted,
    }

    expr_errors = checks[0].expr_errors
    print("perfbench %s seed=%d input-variant=%d iterations=%d runs/iteration=%d "
          "latency samples=%d" % (w.name, args.seed, w.variant, len(timed.walls),
                                  w.runs_per_iteration, len(run_ms)))
    print("environment %s" % json.dumps(environment(), sort_keys=True))
    print("raw set-up: %.4f s in this process (includes first compilation); fresh "
          "processes %s" % (first_setup_s, " ".join("%.4f" % t for t in setups)))
    print("iteration walls: raw %s; scaled %s; host-speed scale of the run %.4f" % (
        " ".join("%.4f" % t for t in timed.raw_walls),
        " ".join("%.4f" % t for t in timed.walls), timed.scale))
    if expr_errors:
        print("expression runs: mean solution error %.6g over %d runs (not bounded: "
              "it moves with the seeded shifts)" % (sum(expr_errors) / len(expr_errors),
                                                   len(expr_errors)))
    for name, unit in END_TO_END:
        print("end-to-end %-28s %-16.6g %s" % (name, end_to_end[name], unit))
    for name, unit in PER_LAYER if per_layer else ():
        print("per-layer  %-44s %-16.6g %s" % (name, per_layer[name], unit))
    for p in problems:
        print("FAILED CHECK: %s" % p)

    table, values = (PER_LAYER, per_layer) if args.trace else (END_TO_END, end_to_end)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subgrid" / "__init__.py").is_file():
        print("perfbench: no package source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
