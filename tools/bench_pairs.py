"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --claim small-runs \\
        --title "..." small-runs:1 small-runs:2 paper-bench:6 de-baseline:7

Each ``WORKLOAD:SEED`` argument is one pair: ``perfbench/run.py`` runs once
from the parent tree and once from the change tree, one process at a time,
the parent first in a workload's first pair and the order alternating over
that workload's pairs.  Every run lasts the ``run_seconds`` that
``BENCHMARK.json`` sets.  The parent tree is ``git archive REV`` unpacked into
a temporary directory (removed at the end); the change tree is the checkout
this script lives in, as it stands on disk.  The file keeps, per run, the
first four lines of the benchmark's log and its result line, and per
workload the pairs' end-to-end figures, the quartiles of ``wall_s`` on
each side and the number of pairs in which the change was faster.  For
every end-to-end metric that ``BENCHMARK.json`` declares it gives the
median on each side and flags a change median worse than the parent's by
more than the metric's bound, as a fraction of the parent's median (as an
absolute difference where that median is 0).  A metric is unresolved when
the parent's own quartile spread, measured the same way, is wider than its
bound, unless every change run reads better than every parent run.  Pairs
in which either side's result is not ``correct`` are listed, and so are the
runs whose ``wall_s`` lies more than 1.5 interquartile ranges outside its
side's quartiles (on a side of at least 4 runs), each with the host-speed
scale its log reports.  A workload named by ``--claim`` is marked as the
claimed gain; the others are reported only.
The file is BENCH_<n>.json for the first ``n`` above every BENCH file
already in the checkout, unless ``--number`` names another.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
LOG_HEAD = 4


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", nargs="+", metavar="WORKLOAD:SEED")
    ap.add_argument("--number", type=int, default=next_number(),
                    help="writes BENCH_<number>.json (default: the next free number)")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    ap.add_argument("--title", required=True)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD",
                    help="a workload whose wall_s gain the change claims")
    args = ap.parse_args(argv)
    plan = []
    for item in args.pairs:
        workload, _, seed = item.partition(":")
        if not seed.isdigit():
            ap.error("a pair is WORKLOAD:SEED, not %r" % item)
        plan.append((workload, int(seed)))
    return args, plan


def next_number() -> int:
    numbers = [int(m.group(1)) for p in CHANGE.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return max(numbers, default=0) + 1


def git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=CHANGE, check=True,
                          capture_output=True).stdout


def unpack(rev: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(into, filter="data")


def bench(tree: Path, command: list[str]) -> dict:
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed in %s (exit %d):\n%s"
                         % (" ".join(command), tree, proc.returncode, proc.stderr))
    return {"log": lines[:LOG_HEAD], "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent`` for ``metric`` (an
    ``end_to_end`` entry of BENCHMARK.json), as a fraction of ``parent``, or
    as a difference where ``parent`` is 0; negative when it is better."""
    diff = change - parent if metric["better"] == "lower" else parent - change
    return diff / abs(parent) if parent else diff


def spread(values: list[float]) -> float:
    """The distance between the quartiles of ``values`` as a fraction of
    their median (as a distance where the median is 0); 0 for one value."""
    q = quartiles(values)
    if "q1" not in q:
        return 0.0
    width = q["q3"] - q["q1"]
    return width / abs(q["median"]) if q["median"] else width


def host_scale(log: list[str]):
    """The host-speed scale that a run's log head reports, or None."""
    for line in log:
        if m := re.search(r"host-speed scale of the run (\S+)$", line):
            return float(m.group(1))
    return None


def outlier_runs(runs: list[dict]) -> list[dict]:
    """The runs whose ``wall_s`` lies more than 1.5 interquartile ranges
    outside the quartiles of their side, for each side of at least 4 runs.
    The quartiles are the inclusive ones: the exclusive ones of a small
    sample reach out towards its extreme runs, so the fence would widen to
    hold the very run it should show."""
    out = []
    for side in ("parent", "change"):
        walls = [run[side]["result"]["metrics"]["wall_s"]["value"] for run in runs]
        if len(walls) < 4:
            continue
        q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        fence = 1.5 * (q3 - q1)
        out += [{"seed": run["seed"], "side": side, "wall_s": wall,
                 "host_scale": host_scale(run[side]["log"])}
                for run, wall in zip(runs, walls) if not q1 - fence <= wall <= q3 + fence]
    return out


def summarize(workload: str, runs: list[dict], claimed: bool, seconds: float,
              end_to_end: list[dict]) -> dict:
    pairs = []
    for run in runs:
        pair = {"seed": run["seed"], "order": run["order"]}
        for side in ("parent", "change"):
            metrics = run[side]["result"]["metrics"]
            for metric in end_to_end:
                pair["%s_%s" % (side, metric["name"])] = metrics[metric["name"]]["value"]
        pair["correct"] = [run[side]["result"]["correct"] for side in ("parent", "change")]
        pairs.append(pair)
    medians = {}
    for metric in end_to_end:
        runs_of = {side: [p["%s_%s" % (side, metric["name"])] for p in pairs]
                   for side in ("parent", "change")}
        parent, change = (statistics.median(runs_of[side]) for side in ("parent", "change"))
        sign = 1 if metric["better"] == "lower" else -1
        all_better = max(sign * v for v in runs_of["change"]) < min(
            sign * v for v in runs_of["parent"])
        parent_spread = spread(runs_of["parent"])
        medians[metric["name"]] = {"parent": parent, "change": change,
                                   "worse_by": worse_by(metric, parent, change),
                                   "bound": metric["bound"], "parent_spread": parent_spread,
                                   "unresolved": parent_spread > metric["bound"]
                                   and not all_better}
    return {
        "command": "python3 perfbench/run.py --workload %s --seed N --seconds %g --trace 0"
                   % (workload, seconds),
        "claimed": claimed,
        "pairs": pairs,
        "parent_wall_s": quartiles([p["parent_wall_s"] for p in pairs]),
        "change_wall_s": quartiles([p["change_wall_s"] for p in pairs]),
        "change_wins": sum(p["change_wall_s"] < p["parent_wall_s"] for p in pairs),
        "pairs_run": len(pairs),
        "medians": medians,
        "over_bound": [name for name, m in medians.items() if m["worse_by"] > m["bound"]],
        "unresolved": [name for name, m in medians.items() if m["unresolved"]],
        "incorrect_pairs": [p["seed"] for p in pairs if not all(p["correct"])],
        "outlier_runs": outlier_runs(runs),
    }


def main(argv=None) -> int:
    args, plan = parse_args(argv)
    benchmark = json.loads((CHANGE / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    parent_commit = git("rev-parse", "--short", args.parent).decode().strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": CHANGE}
        unpack(args.parent, trees["parent"])
        done = {}
        for workload, seed in plan:
            command = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", "%g" % seconds, "--trace", "0"]
            done[workload] = done.get(workload, 0) + 1
            order = ("parent", "change") if done[workload] % 2 else ("change", "parent")
            run = {"workload": workload, "seed": seed, "trace": 0,
                   "command": " ".join(["python3"] + command[1:]),
                   "order": "%s first" % order[0]}
            for side in order:
                run[side] = bench(trees[side], command)
                print("%s seed %d %s: wall_s %.4f" % (
                    workload, seed, side, run[side]["result"]["metrics"]["wall_s"]["value"]),
                    file=sys.stderr, flush=True)
            runs.append(run)
    env = next(line for line in runs[0]["change"]["log"] if line.startswith("environment "))
    host = json.loads(env[len("environment "):])
    out = {
        "title": args.title,
        "parent_commit": parent_commit,
        "host": host,
        "how": "written by tools/bench_pairs.py: each side ran from its own source tree "
               "(the parent unpacked by git archive), one run at a time, alternating "
               "which side ran first; log is the first %d lines of python3 "
               "perfbench/run.py, result its last line; times are perfbench reference "
               "seconds, scaled by its host-speed probe" % LOG_HEAD,
        "runs": runs,
        "summary": {
            workload: summarize(workload, [r for r in runs if r["workload"] == workload],
                                workload in args.claim, seconds, benchmark["end_to_end"])
            for workload in dict.fromkeys(w for w, _ in plan)
        },
    }
    path = CHANGE / ("BENCH_%d.json" % args.number)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote %s" % path, file=sys.stderr)
    for workload, summary in out["summary"].items():
        for name in summary["over_bound"]:
            m = summary["medians"][name]
            print("%s: %s median %r is worse than the parent's %r by more than %g"
                  % (workload, name, m["change"], m["parent"], m["bound"]), file=sys.stderr)
        for name in summary["unresolved"]:
            m = summary["medians"][name]
            print("%s: %s is unresolved: the parent's quartile spread %g is wider than %g"
                  % (workload, name, m["parent_spread"], m["bound"]), file=sys.stderr)
        if summary["incorrect_pairs"]:
            print("%s: a side is not correct in the pairs of seeds %s"
                  % (workload, summary["incorrect_pairs"]), file=sys.stderr)
        for run in summary["outlier_runs"]:
            print("%s: the %s run of seed %d is an outlier: wall_s %.4f, host-speed scale %s"
                  % (workload, run["side"], run["seed"], run["wall_s"], run["host_scale"]),
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
