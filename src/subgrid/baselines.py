"""Comparison optimizers: random search, random-walk search, simulated
annealing and differential evolution.

All four are seeded, stay inside the box, and report the same RunReport
shape as the grid engines so the harness can tabulate them uniformly.
Hyperparameter defaults are conventional choices (the reference tables
give only budgets) and are echoed into each report's metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Candidate, RunReport, StepRecord, rank
from .errors import ConfigError
from .functions import Objective

# Generation counts reported for third-party GAs; stored for PNG ratios,
# deliberately not reproduced here.
REPORTED_GENERATIONS = {
    "pga-4": {"f1": 1170, "f2": 1235, "f3": 3481, "f4": 3194, "f5": 1256},
    "pga-8": {"f1": 1526, "f2": 1671, "f3": 3634, "f4": 5243, "f5": 2076},
    "grefensstette": {"f1": 2210, "f2": 14229, "f3": 2259, "f4": 3070, "f5": 4334},
    "eshelman": {"f1": 1538, "f2": 9477, "f3": 1740, "f4": 4137, "f5": 3004},
    "de": {"f1": 260, "f2": 670, "f3": 125, "f4": 2300, "f5": 1200},
}


def _report(algo: str, obj: Objective, steps, best, evaluations, meta=None) -> RunReport:
    base = {"algorithm": algo, "objective": obj.name}
    base.update(meta or {})
    return RunReport(steps=steps, best=best, evaluations=evaluations,
                     converged=True, meta=base)


def _track(steps, iteration, h, best):
    steps.append(StepRecord(level=iteration, h=h, population=[], labels=[],
                            chosen_cell=None, best=best))


def start_point(obj: Objective, initial: Optional[tuple[float, ...]]) -> tuple[float, ...]:
    """The start point of a local search: ``initial``, else the box centre."""
    if initial is None:
        return obj.box.center()
    if not obj.box.contains(initial):
        raise ConfigError("initial point %r is not in the %d-d box" % (initial, obj.dim))
    return tuple(initial)


@dataclass(frozen=True)
class RsConfig:
    budget: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")


def random_search(obj: Objective, cfg: RsConfig) -> RunReport:
    """Uniform in-box sampling, best kept."""
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray(obj.box.lower)
    hi = np.asarray(obj.box.upper)
    best: Optional[Candidate] = None
    steps = []
    for i in range(cfg.budget):
        x = tuple(rng.uniform(lo, hi).tolist())
        cand = Candidate(x, obj.evaluate(x, rng=rng))
        if best is None or rank(cand) < rank(best):
            best = cand
            _track(steps, i + 1, (), best)
    return _report("rs", obj, steps, best, cfg.budget, {"budget": cfg.budget, "seed": cfg.seed})


@dataclass(frozen=True)
class RswConfig:
    initial: Optional[tuple[float, ...]] = None  # None: box center
    budget: int = 500
    seed: int = 0
    step_scale: float = 2.0
    contraction: float = 0.95     # applied after `patience` straight rejections
    patience: int = 10

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if not 0.0 < self.contraction < 1.0:
            raise ConfigError("contraction must be in (0, 1)")
        if not 0.0 < self.step_scale < math.inf:
            raise ConfigError("step_scale must be finite and positive")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


def random_walk_search(obj: Objective, cfg: RswConfig) -> RunReport:
    """Local random steps from a start point, accepting strict improvements."""
    start = start_point(obj, cfg.initial)
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray(obj.box.lower)
    hi = np.asarray(obj.box.upper)
    n = obj.dim
    x = np.asarray(start, dtype=float)
    f = obj.evaluate(tuple(x.tolist()), rng=rng)
    best = Candidate(tuple(x.tolist()), f)
    steps = []
    _track(steps, 0, (cfg.step_scale,), best)
    scale = cfg.step_scale
    rejections = 0
    for i in range(cfg.budget):
        # uniform direction, uniform radius: a sample from the scale ball
        direction = rng.standard_normal(n)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        radius = scale * rng.uniform() ** (1.0 / n)
        trial = np.clip(x + direction * (radius / norm), lo, hi)
        ft = obj.evaluate(tuple(trial.tolist()), rng=rng)
        if ft < f:
            x, f = trial, ft
            rejections = 0
            if f < best.f:
                best = Candidate(tuple(x.tolist()), f)
                _track(steps, i + 1, (scale,), best)
        else:
            rejections += 1
            if rejections >= cfg.patience:
                scale *= cfg.contraction
                rejections = 0
    return _report("rsw", obj, steps, best, cfg.budget + 1,
                   {"budget": cfg.budget, "seed": cfg.seed,
                    "initial": start, "step_scale": cfg.step_scale,
                    "contraction": cfg.contraction, "patience": cfg.patience})


@dataclass(frozen=True)
class SaConfig:
    budget: int = 400
    seed: int = 0
    initial: Optional[tuple[float, ...]] = None  # None: box center
    t0: float = 1e-3
    cooling: float = 0.995
    step_scale: Optional[float] = None  # None: quarter of the narrowest width

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if not 0.0 < self.cooling < 1.0:
            raise ConfigError("cooling factor must be in (0, 1)")
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ConfigError("initial temperature must be finite and positive")
        if self.step_scale is not None and not 0.0 < self.step_scale < math.inf:
            raise ConfigError("step_scale must be finite and positive")


def simulated_annealing(obj: Objective, cfg: SaConfig) -> RunReport:
    """Metropolis acceptance with geometric cooling; Gaussian proposals whose
    spread shrinks with the temperature ratio, clamped to the box."""
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray(obj.box.lower)
    hi = np.asarray(obj.box.upper)
    start = start_point(obj, cfg.initial)
    sigma0 = cfg.step_scale if cfg.step_scale is not None else min(obj.box.width) / 4.0
    x = np.asarray(start, dtype=float)
    f = obj.evaluate(tuple(x.tolist()), rng=rng)
    best = Candidate(tuple(x.tolist()), f)
    steps = []
    _track(steps, 0, (sigma0,), best)
    t = cfg.t0
    for i in range(cfg.budget):
        sigma = sigma0 * (t / cfg.t0)
        trial = np.clip(x + rng.standard_normal(obj.dim) * sigma, lo, hi)
        ft = obj.evaluate(tuple(trial.tolist()), rng=rng)
        delta = ft - f
        if delta <= 0.0 or rng.uniform() < np.exp(-delta / t):
            x, f = trial, ft
            if f < best.f:
                best = Candidate(tuple(x.tolist()), f)
                _track(steps, i + 1, (sigma,), best)
        t *= cfg.cooling
    return _report("sa", obj, steps, best, cfg.budget + 1,
                   {"budget": cfg.budget, "seed": cfg.seed, "t0": cfg.t0,
                    "cooling": cfg.cooling, "step_scale": sigma0,
                    "initial": start})


@dataclass(frozen=True)
class DeConfig:
    generations: int = 260
    seed: int = 0
    pop_size: int = 20
    cr: float = 0.9
    f_weight: Optional[float] = None  # None: drawn uniformly in [0.4, 1] per generation

    def __post_init__(self):
        if self.pop_size < 4:
            raise ConfigError("DE needs population >= 4")
        if not 0.0 <= self.cr <= 1.0:
            raise ConfigError("crossover probability must be in [0, 1]")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if self.f_weight is not None and not math.isfinite(self.f_weight):
            raise ConfigError("f_weight must be finite")


def differential_evolution(obj: Objective, cfg: DeConfig) -> RunReport:
    """DE/rand/1/bin with per-generation random differential weight and
    uniform resampling of out-of-box genes."""
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray(obj.box.lower)
    hi = np.asarray(obj.box.upper)
    n = obj.dim
    np_ = cfg.pop_size
    pop = rng.uniform(lo, hi, size=(np_, n))
    fit = np.array([obj.evaluate(tuple(row), rng=rng) for row in pop.tolist()])
    evaluations = np_
    steps = []

    def current_best() -> Candidate:
        i = int(np.argmin(fit))
        return Candidate(tuple(pop[i].tolist()), float(fit[i]))

    best = current_best()
    _track(steps, 0, (), best)
    for gen in range(1, cfg.generations + 1):
        fw = cfg.f_weight if cfg.f_weight is not None else rng.uniform(0.4, 1.0)
        for i in range(np_):
            a, b, c = _distinct_indices(rng, np_, i)
            mutant = pop[a] + fw * (pop[b] - pop[c])
            outside = (mutant < lo) | (mutant > hi)
            if outside.any():
                mutant[outside] = rng.uniform(lo, hi)[outside]
            cross = rng.uniform(size=n) < cfg.cr
            cross[rng.integers(n)] = True  # at least one mutant gene
            trial = np.where(cross, mutant, pop[i])
            ft = obj.evaluate(tuple(trial.tolist()), rng=rng)
            evaluations += 1
            if ft <= fit[i]:
                pop[i] = trial
                fit[i] = ft
        gen_best = current_best()
        if gen_best.f < best.f:
            best = gen_best
        _track(steps, gen, (fw,), best)
    return _report("de", obj, steps, best, evaluations,
                   {"generations": cfg.generations, "seed": cfg.seed,
                    "pop_size": cfg.pop_size, "cr": cfg.cr,
                    "f_mode": "random" if cfg.f_weight is None else cfg.f_weight})


def _distinct_indices(rng, np_: int, exclude: int) -> tuple[int, int, int]:
    picked = []
    while len(picked) < 3:
        j = int(rng.integers(np_))
        if j != exclude and j not in picked:
            picked.append(j)
    return tuple(picked)
