"""Record the benchmark's reference files from the current source tree.

    python3 perfbench/record.py goldens [WORKLOAD ...]
    python3 perfbench/record.py reference

``goldens`` runs one untraced iteration of each input variant and writes
the digest of its emitted bytes to ``perfbench/goldens/<workload>.json``;
the benchmark fails every run whose bytes differ.  Record goldens only
from a commit whose outputs are known to be right.

``reference`` makes one traced iteration per workload at seed 0 and writes
``perfbench/reference.json``: each workload's reason, run count per
iteration, the environment, and the per-layer self-time shares next to the
shares measured on a prototype of this benchmark, flagging any that differ
by more than a factor of 1.5.
"""

from __future__ import annotations

import json
import sys
import time

import run as bench
from workloads import INPUT_VARIANTS, WORKLOADS

# Self-time shares measured on a prototype (2 cores, Python 3.11.7, numpy
# 2.4.6, pure-Python kernels, outside-in wrappers).  A sanity reference,
# not a bound.  A "+" joins spans whose shares were reported together.
PROTOTYPE_SHARES = {
    "paper-bench": {"slmga.mutate": 0.57, "core.position_of": 0.31,
                    "functions.evaluate": 0.04},
    "small-runs": {"slm.slm_run": 0.39,
                   "labeling.find_complete_cells+slm.choose_cell+slm.region_cells": 0.27},
    "de-baseline": {"functions.evaluate": 0.35, "baselines.differential_evolution": 0.65},
}
SHARP = 1.5


def record_goldens(names) -> None:
    bench.GOLDENS.mkdir(exist_ok=True)
    for name in names:
        digests = {}
        for variant in range(INPUT_VARIANTS):
            _, w = bench.setup(name, variant)
            digests[str(variant)] = w.check(w.iterate(time.perf_counter), None).digest
            print("%s variant %d %s" % (name, variant, digests[str(variant)]), flush=True)
        path = bench.GOLDENS / ("%s.json" % name)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def record_reference() -> None:
    out = {"environment": bench.environment(), "workloads": {}}
    for name, cls in WORKLOADS.items():
        _, w = bench.setup(name, 0)
        tracer, wall, _ = bench.traced_iteration(w, None)
        shares = {span: s.self_s / wall for span, s in tracer.stats.items() if s.calls}
        flags = []
        for key, proto in PROTOTYPE_SHARES[name].items():
            seen = sum(shares.get(span, 0.0) for span in key.split("+"))
            if not proto / SHARP <= seen <= proto * SHARP:
                flags.append("%s: %.2f here, %.2f in the prototype" % (key, seen, proto))
        out["workloads"][name] = {
            "why": cls.why,
            "runs_per_iteration": w.runs_per_iteration,
            "traced_wall_s": round(wall, 3),
            "self_time_shares": {k: round(v, 4) for k, v in
                                 sorted(shares.items(), key=lambda kv: -kv[1])},
            "prototype_shares": PROTOTYPE_SHARES[name],
            "differs_sharply_from_prototype": flags,
        }
        print(name, json.dumps(out["workloads"][name], indent=1), flush=True)
    (bench.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


def main(argv) -> int:
    sys.path.insert(0, str(bench.SRC))
    if argv[:1] == ["goldens"]:
        record_goldens(argv[1:] or list(WORKLOADS))
    elif argv == ["reference"]:
        record_reference()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
