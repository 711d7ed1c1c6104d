"""The benchmark workloads: inputs from a seed, set-up, one timed iteration,
and the output checks that turn a wrong answer into a failed run.

Every workload drives the package through ``subgrid.harness`` only, and
looks the harness functions up as module attributes at call time so that
the tracer's wrappers are seen.  Input generation uses only the standard
library; the package is imported by ``prepare``, which is part of set-up.

Inputs come in ``INPUT_VARIANTS`` variants; ``--seed`` selects one by its
remainder, so that the digest of every variant's emitted bytes can be kept
as a golden.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

INPUT_VARIANTS = 16

# Published SLMGA generation counts and PNG row for F1-F5; the checks accept
# +-1 on each (the PNG is DE generations over SLMGA generations, rounded).
PAPER_SCHEDULE = {"f1": 18, "f2": 8, "f3": 10, "f4": 16, "f5": 9}
PAPER_PNG = {"f1": 15, "f2": 84, "f3": 13, "f4": 144, "f5": 134}

SMALL_RUN_OBJECTIVES = ("goldstein-price", "easom", "f2", "f5")
SMALL_RUN_ROUNDS = 13  # each round: 4 registry + 4 expression objectives, both engines
DE_EXPRESSIONS = 8


@dataclass
class Run:
    """One engine run as the benchmark specifies it: ``objective`` or
    ``expr`` with its dimension, engine, trial seed and, for expressions,
    the optimum value known by construction."""

    algo: str
    seed: int
    objective: str | None = None
    expr: str | None = None
    dim: int | None = None
    f_star: float | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Sample:
    """What one timed unit produced: its latency, the reports of the runs
    inside it (None where only rows are returned) and the emitted text."""

    ms: float
    runs: int
    reports: list | None = None
    rows: list | None = None
    texts: list[str] = field(default_factory=list)
    error: str | None = None


@dataclass
class Checked:
    runs: int = 0
    failed: int = 0
    evaluations: int | None = 0
    registry_errors: list[float] = field(default_factory=list)
    expr_errors: list[float] = field(default_factory=list)
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def _shift(var: str, c: float) -> str:
    return "(%s-%r)" % (var, c) if c >= 0 else "(%s+%r)" % (var, -c)


def _shifts(rng: random.Random, n: int) -> list[float]:
    return [rng.randint(-600, 600) / 100 for _ in range(n)]


def small_expression(kind: int, rng: random.Random) -> str:
    """A 2-d objective with minimum value 0 at a seeded shift."""
    u, v = (_shift("x%d" % (i + 1), c) for i, c in enumerate(_shifts(rng, 2)))
    if kind == 0:
        return "%s^2 + %s^2" % (u, v)
    if kind == 1:
        return "abs(%s) + 2*abs(%s)" % (u, v)
    if kind == 2:
        return "1 - cos(%s)*cos(%s)*exp(-(%s^2 + %s^2)/8)" % (u, v, u, v)
    # shifted Rosenbrock: minimum 0 at (a + 1, b + 1), inside the box
    return "100*(%s - %s^2)^2 + (1 - %s)^2" % (v, u, u)


def de_expression(kind: int, rng: random.Random) -> str:
    """A 4-d objective with minimum value 0 at a seeded shift."""
    t = [_shift("x%d" % (i + 1), c) for i, c in enumerate(_shifts(rng, 4))]
    if kind == 0:
        return " + ".join("%s^2" % s for s in t)
    if kind == 1:
        return " + ".join("abs(%s)" % s for s in t)
    if kind == 2:
        return "1 - %s*exp(-(%s)/16)" % ("*".join("cos(%s)" % s for s in t),
                                          " + ".join("%s^2" % s for s in t))
    return " + ".join("%d*%s^2" % (10 ** i, s) for i, s in enumerate(t))


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.variant = seed % INPUT_VARIANTS

    def make_inputs(self) -> None:
        """Generate the inputs from the seed (standard library only)."""

    def prepare(self) -> None:
        """Import the package, resolve objectives and parse expressions."""

    def iterate(self, clock) -> list[Sample]:
        """Run the timed work once, timing each sample with ``clock()``."""
        raise NotImplementedError

    def check(self, samples: list[Sample], golden: str | None) -> Checked:
        raise NotImplementedError

    @property
    def runs_per_iteration(self) -> int:
        raise NotImplementedError


def _digest(samples: list[Sample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        for t in s.texts:
            h.update(t.encode())
    return h.hexdigest()


class PaperBench(Workload):
    name = "paper-bench"
    why = ("subgrid bench: SLMGA on F1-F5 at the paper settings; the grid "
           "lattice layers (mutate, position_of) do nearly all the work")

    def prepare(self):
        from subgrid import functions, harness
        self.harness = harness
        self.objectives = {n: functions.get_objective(n) for n in harness.BENCH_FUNCTIONS}

    @property
    def runs_per_iteration(self):
        return len(PAPER_SCHEDULE)

    def iterate(self, clock):
        harness = self.harness
        t0 = clock()
        try:
            rows = harness.bench_suite(self.variant)
            text = harness.bench_table(rows, "json")
        except Exception as exc:  # a failed iteration counts every run as failed
            return [Sample(ms=(clock() - t0) * 1e3, runs=self.runs_per_iteration,
                           error=repr(exc))]
        return [Sample(ms=(clock() - t0) * 1e3, runs=len(rows), rows=rows, texts=[text])]

    def check(self, samples, golden):
        out = Checked(evaluations=None)  # bench rows carry no evaluation count
        out.digest = _digest(samples)
        for s in samples:
            out.runs += s.runs
            if s.error is not None:
                out.failed += s.runs
                out.problems.append(s.error)
                continue
            if [r.function for r in s.rows] != list(PAPER_SCHEDULE):
                out.failed += s.runs
                out.problems.append("unexpected bench rows")
                continue
            for r in s.rows:
                obj = self.objectives[r.function]
                out.registry_errors.append(abs(obj.noiseless(r.best.x) - obj.known_optimum[1]))
                bad = []
                if abs(r.generations - PAPER_SCHEDULE[r.function]) > 1:
                    bad.append("generations %d" % r.generations)
                if abs(round(r.png) - PAPER_PNG[r.function]) > 1:
                    bad.append("png %d" % round(r.png))
                if bad:
                    out.failed += 1
                    out.problems.append("%s: %s" % (r.function, ", ".join(bad)))
        if golden is not None and out.digest != golden:
            out.failed = out.runs
            out.problems.append("emitted bytes differ from the golden digest")
        return out


class _ExperimentWorkload(Workload):
    """Workloads made of independent ``run_experiment`` calls; each call
    and its table emission is one latency sample."""

    formats: tuple[str, ...] = ()

    def prepare(self):
        from subgrid import harness
        self.harness = harness
        self.configs = []
        self.objectives = []
        for run in self.runs:
            cfg = harness.ExperimentConfig(
                objective=run.objective, expr=run.expr, dim=run.dim, algo=run.algo,
                algo_params=dict(run.params), seed=run.seed)
            self.configs.append(cfg)
            self.objectives.append(harness.resolve_objective(cfg))

    @property
    def runs_per_iteration(self):
        return len(self.runs)

    def iterate(self, clock):
        harness = self.harness
        samples = []
        for cfg in self.configs:
            t0 = clock()
            try:
                result = harness.run_experiment(cfg)
                texts = [harness.emit_table(result.reports, fmt) for fmt in self.formats]
            except Exception as exc:  # counted as a failed run
                samples.append(Sample(ms=(clock() - t0) * 1e3, runs=1, error=repr(exc)))
                continue
            samples.append(Sample(ms=(clock() - t0) * 1e3, runs=1,
                                  reports=result.reports, texts=texts))
        return samples

    def check(self, samples, golden):
        out = Checked()
        out.digest = _digest(samples)
        for run, obj, s in zip(self.runs, self.objectives, samples):
            out.runs += 1
            if s.error is not None:
                out.failed += 1
                out.problems.append("%s %s: %s" % (run.algo, obj.name, s.error))
                continue
            rep = s.reports[0]
            out.evaluations += rep.evaluations
            if run.f_star is None:
                out.registry_errors.append(
                    abs(obj.noiseless(rep.best.x) - obj.known_optimum[1]))
            else:
                out.expr_errors.append(abs(obj.noiseless(rep.best.x) - run.f_star))
            if not rep.converged:
                out.failed += 1
                out.problems.append("%s %s did not converge" % (run.algo, obj.name))
        if golden is not None and out.digest != golden:
            out.failed = out.runs
            out.problems.append("emitted bytes differ from the golden digest")
        return out


class SmallRuns(_ExperimentWorkload):
    name = "small-runs"
    why = ("subgrid run: 208 short SLM/SLMGA runs with table emission; per-run "
           "set-up, labeling and cell selection dominate, no 5-d lattice")
    formats = ("csv", "json")

    def make_inputs(self):
        rng = random.Random(self.variant)
        self.runs = []
        for r in range(SMALL_RUN_ROUNDS):
            exprs = [small_expression(kind, rng) for kind in range(4)]
            for algo in ("slm", "slmga"):
                self.runs += [Run(algo, r, objective=name) for name in SMALL_RUN_OBJECTIVES]
                self.runs += [Run(algo, r, expr=e, dim=2, f_star=0.0) for e in exprs]


class DeBaseline(_ExperimentWorkload):
    name = "de-baseline"
    why = ("DE at the paper's reference generation counts plus 4-d expressions: "
           "every probe is a fresh point, the grid engines are bypassed")
    formats = ("csv",)

    def make_inputs(self):
        rng = random.Random(self.variant)
        # The F1-F5 reference runs keep DE seed 0: their solution error swings
        # several-fold between DE seeds, which would drown the bounded
        # solution_err metric.  The seed moves the expression runs.
        self.runs = [Run("de", 0, objective=name) for name in PAPER_SCHEDULE]
        for i in range(DE_EXPRESSIONS):
            self.runs.append(Run("de", rng.randrange(2**31), expr=de_expression(i % 4, rng),
                                 dim=4, f_star=0.0))

    def prepare(self):
        from subgrid import baselines
        for run in self.runs:
            if run.objective is not None:
                run.params["generations"] = baselines.REPORTED_GENERATIONS["de"][run.objective]
        super().prepare()


WORKLOADS = {w.name: w for w in (PaperBench, SmallRuns, DeBaseline)}
