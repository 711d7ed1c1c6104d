"""Comparison optimizers: random search, random-walk search, simulated
annealing and differential evolution.

All four are seeded, stay inside the box, and report the same RunReport
shape as the grid engines so the harness can tabulate them uniformly.
Hyperparameter defaults are conventional choices (the reference tables
give only budgets) and are echoed into each report's metadata.

Each point is in its box by construction, so each is evaluated with
``in_box=True``, unchecked:

- an in-box point, ``lower + width * u`` with ``0 <= u <= 1 - 2**-53``,
  stays in ``[lower, upper]`` (where ``lower + width`` rounds past
  ``upper``, too);
- a local search's start point is checked by ``start_point``, or is the
  box centre;
- rsw's and sa's trials clip ``v + d * s`` to the box per gene; where
  ``v``, ``d`` and ``s`` are finite the gene is never NaN, and the clip
  lands it inside.  sa's ``s`` is at most its first step scale; rsw's
  ``radius / norm`` overflows to an infinity when the scale is near the
  largest double, and only then is its trial checked;
- in a DE mutant gene ``va + fw * (vb - vc)``, ``vb - vc`` is at most the
  box's finite width and ``fw`` is finite, so the gene is finite or an
  infinity, never NaN; a gene outside the box is replaced by an in-box
  one, and a trial's other genes are its member's.

A local search does not evaluate a trial equal to its current point, every
gene clipped or rounded back to it: its value would be the point's own.
rsw counts it a rejection; sa takes it without a draw, as a move with
``delta`` 0, and ends its loop once its step scale has cooled to 0.0, where
every trial is its point and nothing more is evaluated or drawn.  So
``evaluations`` counts the evaluations made: rs's budget, DE's population
times its generations plus one, and for rsw and sa the start point and each
trial that moves.

A point is a tuple of Python floats.  The random numbers are numpy's stream
bit for bit: a double is ``rng.random``'s, ``(w >> 11) * 2**-53`` of PCG64's
next raw word ``w``; an in-box point is ``lower + width * u`` (as
``rng.uniform``); DE's integers are ``rng.integers``'s, Lemire's method on
the words' 32-bit halves (``_bounded_draw``).  Where the objective draws no
noise, rs and DE read the raw words ``BLOCK`` at a time and serve every
draw from Python lists (``_block_reader``): nothing else reads the
generator, so reading ahead changes no number.  A noisy objective (F4)
draws its noise from the same generator between trials, so there each draw
is a numpy call made when it is needed (``_sources``).

DE draws a generation's weight first, unless it is fixed: one double, as
``rng.uniform`` draws it (``_random_weight``).  Each trial then draws, in
this order: the indices a, b and c, each drawn again until it differs from
the member and the indices before it; a fresh in-box point, only if a
mutant gene lies outside the box; n crossover doubles; the index of the
gene always taken from the mutant (no draw in one dimension); and the
objective's noise, if it has any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import gt, lt
from typing import Optional

import numpy as np

from .core import Candidate, RunReport, StepRecord, rank
from .errors import ConfigError, clip
from .functions import Objective

BLOCK = 4096  # raw words per numpy call where a run reads ahead (_block_reader)

# Generation counts reported for third-party GAs; stored for PNG ratios,
# deliberately not reproduced here.
REPORTED_GENERATIONS = {
    "pga-4": {"f1": 1170, "f2": 1235, "f3": 3481, "f4": 3194, "f5": 1256},
    "pga-8": {"f1": 1526, "f2": 1671, "f3": 3634, "f4": 5243, "f5": 2076},
    "grefensstette": {"f1": 2210, "f2": 14229, "f3": 2259, "f4": 3070, "f5": 4334},
    "eshelman": {"f1": 1538, "f2": 9477, "f3": 1740, "f4": 4137, "f5": 3004},
    "de": {"f1": 260, "f2": 670, "f3": 125, "f4": 2300, "f5": 1200},
}


def _report(algo: str, obj: Objective, steps, best, evaluations, meta) -> RunReport:
    return RunReport(steps=steps, best=best, evaluations=evaluations, converged=True,
                     meta={"algorithm": algo, "objective": obj.name, **meta})


def _track(steps, iteration, h, best):
    steps.append(StepRecord(level=iteration, h=h, labels=[], chosen_cell=None, best=best))


def _clipped_step(x, direction, scale, box) -> tuple[float, ...]:
    """``x + direction * scale`` clipped to ``box`` per gene, as ``np.clip`` clips."""
    return tuple(min(max(v + d * scale, lo), hi)
                 for v, d, lo, hi in zip(x, direction, box.lower, box.upper))


def _uniform_point(doubles, box) -> tuple[float, ...]:
    """A uniform point in ``box`` from a ``doubles`` source (``_sources``):
    ``rng.uniform(box.lower, box.upper)``, bit for bit."""
    draws = doubles(box.dim)
    return tuple([lo + w * u for lo, w, u in zip(box.lower, box.width, draws)])


def _bounded_draw(word):
    """``draw(high)`` returns ``rng.integers(high)`` bit for bit, for
    ``1 <= high <= 2**32``, where ``word()`` returns PCG64's next raw word:
    numpy's method (Lemire, arXiv:1805.10941) on its 32-bit words, the low
    half of each raw word first.  ``draw`` keeps the spare half, so nothing
    may call ``rng.integers`` once it exists.  DE's population and dimension
    lie far below 2**32."""
    spare = None  # the high half of the last raw word, until it is used

    def draw(high: int) -> int:
        nonlocal spare
        threshold = (0x100000000 - high) % high
        while high > 1:  # one value draws nothing
            if spare is None:
                w = word()
                m, spare = (w & 0xFFFFFFFF) * high, w >> 32
            else:
                m, spare = spare * high, None
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
        return 0

    return draw


def _block_reader(rng):
    """``(draw, doubles)`` over ``rng``'s raw words, fetched ``BLOCK`` at a
    time: ``doubles(k)`` is ``rng.random(k).tolist()`` and ``draw`` is
    ``_bounded_draw``'s, bit for bit, in any interleaving.  A refill keeps
    the unread words.  A request longer than a block takes the unread words
    and then reads the rest from ``rng`` itself, whose state is just past
    them, so a wide point is not kept twice.  ``rng`` runs ahead of what
    was served, so nothing else may read it while these are in use."""
    raw = rng.bit_generator.random_raw
    words, units, pos = [], [], 0  # unread: words[pos:], with their doubles units[pos:]

    def refill() -> None:
        nonlocal words, units, pos
        block = raw(BLOCK)
        words = words[pos:] + block.tolist()
        units = units[pos:] + ((block >> 11) * 2.0**-53).tolist()
        pos = 0

    def word() -> int:
        nonlocal pos
        if pos == len(words):
            refill()
        pos += 1
        return words[pos - 1]

    def doubles(k: int) -> list[float]:
        nonlocal pos
        if pos + k > len(units):
            if k > BLOCK:
                rest = units[pos:]
                pos = len(units)
                return rest + rng.random(k - len(rest)).tolist()
            refill()
        pos += k
        return units[pos - k:pos]

    return _bounded_draw(word), doubles


def _sources(rng, obj: Objective):
    """A run's ``(draw, doubles)`` from ``rng``: ``_block_reader`` when
    ``obj`` draws no noise.  A noisy objective draws from ``rng`` between
    trials, so there each draw is a numpy call made when it is needed."""
    if obj.noise_fn is None:
        return _block_reader(rng)
    return _bounded_draw(rng.bit_generator.random_raw), lambda k: rng.random(k).tolist()


def _argmin(values: list[float]) -> int:
    """``int(np.argmin(values))`` for a list of floats: the first index of
    the minimum, or of the first NaN if there is one."""
    i = values.index(min(values))
    if math.isnan(sum(values)):  # a NaN, or infinities of both signs
        i = next((k for k, v in enumerate(values) if v != v), i)
    return i


def _random_weight(doubles) -> float:
    """DE's weight, ``rng.uniform(0.4, 1.0)`` bit for bit: numpy computes
    ``low + (high - low) * u`` from one double."""
    return 0.4 + (1.0 - 0.4) * doubles(1)[0]


def start_point(obj: Objective, initial: Optional[tuple[float, ...]]) -> tuple[float, ...]:
    """The start point of a local search: ``initial``, else the box centre."""
    if initial is None:
        return obj.box.center()
    if not obj.box.contains(initial):
        raise ConfigError("initial point %s is not in the %d-d box"
                          % (clip(repr(initial)), obj.dim))
    return tuple(float(v) for v in initial)


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
    _, doubles = _sources(rng, obj)
    best: Optional[Candidate] = None
    steps = []
    for i in range(cfg.budget):
        x = _uniform_point(doubles, obj.box)
        cand = Candidate(x, obj.evaluate(x, rng=rng, in_box=True))
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
    x = start = start_point(obj, cfg.initial)
    rng = np.random.default_rng(cfg.seed)
    n = obj.dim
    f = obj.evaluate(x, rng=rng, in_box=True)
    best = Candidate(x, f)
    steps = []
    _track(steps, 0, (cfg.step_scale,), best)
    scale = cfg.step_scale
    rejections = 0
    evaluations = 1
    for i in range(cfg.budget):
        # uniform direction, uniform radius: a sample from the scale ball
        direction = rng.standard_normal(n)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        radius = scale * rng.random() ** (1.0 / n)
        step = radius / norm
        trial = _clipped_step(x, direction.tolist(), step, obj.box)
        if trial == x:  # every gene clipped or rounded back: rejected unevaluated
            ft = f
        else:
            # a step that overflowed times a zero gene is NaN: that trial is checked
            ft = obj.evaluate(trial, rng=rng, in_box=step < math.inf)
            evaluations += 1
        if ft < f:
            x, f = trial, ft
            rejections = 0
            if f < best.f:
                best = Candidate(x, f)
                _track(steps, i + 1, (scale,), best)
        else:
            rejections += 1
            if rejections >= cfg.patience:
                scale *= cfg.contraction
                rejections = 0
    return _report("rsw", obj, steps, best, evaluations,
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
    x = start = start_point(obj, cfg.initial)
    sigma0 = cfg.step_scale if cfg.step_scale is not None else min(obj.box.width) / 4.0
    f = obj.evaluate(x, rng=rng, in_box=True)
    best = Candidate(x, f)
    steps = []
    _track(steps, 0, (sigma0,), best)
    t = cfg.t0
    evaluations = 1
    for i in range(cfg.budget):
        sigma = sigma0 * (t / cfg.t0)
        if sigma == 0.0:
            # cooled to a standstill: sigma stays 0.0 as t falls, so every
            # remaining trial would be the point, taken unevaluated
            break
        trial = _clipped_step(x, rng.standard_normal(obj.dim).tolist(), sigma, obj.box)
        if trial == x:
            # every gene clipped or rounded back: its value would be f, so the
            # move is taken unevaluated and without a draw (x takes the trial's
            # signed zeros, as it did when the trial was evaluated)
            x = trial
        else:
            # a trial that moves has sigma > 0, so t > 0
            ft = obj.evaluate(trial, rng=rng, in_box=True)
            evaluations += 1
            delta = ft - f
            if delta <= 0.0 or rng.random() < np.exp(-delta / t):
                x, f = trial, ft
                if f < best.f:
                    best = Candidate(x, f)
                    _track(steps, i + 1, (sigma,), best)
        t *= cfg.cooling
    return _report("sa", obj, steps, best, evaluations,
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
    """DE/rand/1/bin with per-generation random differential weight and uniform
    resampling of out-of-box genes; indices drawn as ``rng.integers`` draws them."""
    rng = np.random.default_rng(cfg.seed)
    draw, doubles = _sources(rng, obj)
    lo, hi = obj.box.lower, obj.box.upper
    n = obj.dim
    np_, cr = cfg.pop_size, cfg.cr
    pop = [_uniform_point(doubles, obj.box) for _ in range(np_)]
    fit = [obj.evaluate(x, rng=rng, in_box=True) for x in pop]
    steps = []

    def current_best() -> Candidate:
        i = _argmin(fit)
        return Candidate(pop[i], fit[i])

    best = current_best()
    _track(steps, 0, (), best)
    for gen in range(1, cfg.generations + 1):
        fw = cfg.f_weight if cfg.f_weight is not None else _random_weight(doubles)
        for i in range(np_):
            a = b = c = i
            while a == i:
                a = draw(np_)
            while b == i or b == a:
                b = draw(np_)
            while c == i or c == a or c == b:
                c = draw(np_)
            mutant = [va + fw * (vb - vc) for va, vb, vc in zip(pop[a], pop[b], pop[c])]
            if any(map(lt, mutant, lo)) or any(map(gt, mutant, hi)):
                fresh = _uniform_point(doubles, obj.box)
                mutant = [r if v < low or v > high else v
                          for v, low, high, r in zip(mutant, lo, hi, fresh)]
            cross = doubles(n)
            j = draw(n)  # at least one mutant gene
            genes = [m if u < cr else p for u, m, p in zip(cross, mutant, pop[i])]
            genes[j] = mutant[j]
            trial = tuple(genes)
            ft = obj.evaluate(trial, rng=rng, in_box=True)
            if ft <= fit[i]:
                pop[i] = trial
                fit[i] = ft
        gen_best = current_best()
        if gen_best.f < best.f:
            best = gen_best
        _track(steps, gen, (fw,), best)
    return _report("de", obj, steps, best, np_ * (cfg.generations + 1),
                   {"generations": cfg.generations, "seed": cfg.seed,
                    "pop_size": cfg.pop_size, "cr": cfg.cr,
                    "f_mode": "random" if cfg.f_weight is None else cfg.f_weight})
