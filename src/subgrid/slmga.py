"""Genetic-algorithm formulation of the subdivision-labeling search.

The population is the set of grid crossing points; mutation probes the
{0, +-h}^n neighborhood at the next (halved) step and keeps each member's
best offspring; selection pressure comes from integer labeling plus
subdivision of a completely labeled cell, whose finer lattice augments the
next generation.  Crossover is deliberately absent.

Stochastic objectives (F4) are evaluated under common random numbers: every
candidate inside one generation sees the same seeded noise draw, so
selection compares noiseless differences while reported values keep the
noise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .core import (
    MAX_LEVEL,
    BoxDomain,
    Candidate,
    GridPoint,
    GridSpec,
    LabeledVertex,
    RunReport,
    StepRecord,
    Vector,
    argmin_candidate,
    coordinate,
    lattice_points,
    levels,
    position_of,
    rank,
    refine,
)
from .errors import ConfigError, GradientUnavailableError, SubgridError
from .functions import Evaluator, Objective
from .labeling import (
    LabelRule,
    LabelVariant,
    delta_of,
    find_complete_cells,
    gradient_delta,
    label_from_delta,
)
from .slm import _choose_cell, _region_cells, init_population

# beyond this many offspring per member, fall back to coordinate-greedy probing
MAX_ENUMERATED_OFFSPRING = 768


@dataclass(frozen=True)
class GaConfig:
    h_tol: float = 1e-4
    max_generations: int = 64
    seed: int = 0
    label_rule: LabelRule = field(default_factory=LabelRule)
    mutation_rate: float = 1.0  # fraction of members mutated, fittest first

    def __post_init__(self):
        if not self.h_tol > 0:
            raise ConfigError("h_tol must be positive")
        # a generation places its offspring one level deeper
        if not 1 <= self.max_generations < MAX_LEVEL:
            raise ConfigError("max_generations must be in 1..%d" % (MAX_LEVEL - 1))
        if not 0.0 < self.mutation_rate <= 1.0:
            raise ConfigError("mutation_rate must be in (0, 1]")


def mutate(
    evaluate: Callable[[Vector], float],
    parent: Candidate,
    box: BoxDomain,
) -> Candidate:
    """The best in-box offspring of ``parent`` at the next refinement level.

    Enumerates {0, +-h}^n while that stays affordable, the parent's own
    point (the all-zero move) first; in high dimension it degenerates to a
    coordinate-greedy sweep.  Either way every probe is one ``evaluate``
    call, and the best is chosen over all probes: ties keep the parent
    (fixed points stay put); after a strict improvement a tie moves to the
    lexicographically smaller position.  Only the winner becomes a
    ``GridPoint``; positions follow ``coordinate``, the rule of
    ``position_of``, so the top index sits at ``upper`` exactly."""
    level = parent.point.level + 1
    top = 2 ** (level - 1)
    lower, upper = box.lower, box.upper
    if len(parent.point.k) != len(lower) or min(parent.point.k) < 0 \
            or 2 * max(parent.point.k) > top:
        raise SubgridError("parent %r is not a point of the %d-d grid at level %d"
                           % (parent.point.k, len(lower), level - 1))
    step = tuple(w / top for w in box.width)

    if 3 ** len(lower) <= MAX_ENUMERATED_OFFSPRING:
        # per axis, the in-box child indices in (0, +1, -1) move order and
        # their positions, computed once per axis value; the product of the
        # lists is the filtered product of the moves, in the same order
        ks = []
        xs = []
        for lo, hi, sd, kd in zip(lower, upper, step, parent.point.k):
            axis = [c for c in (2 * kd, 2 * kd + 1, 2 * kd - 1) if 0 <= c <= top]
            ks.append(axis)
            xs.append([coordinate(lo, hi, c, sd) for c in axis])
        probes = zip(itertools.product(*ks), itertools.product(*xs))
        best_k, best_x = next(probes)
        best_f = parent_f = evaluate(best_x)
        for k, x in probes:
            f = evaluate(x)
            if f < best_f or (f == best_f < parent_f and x < best_x):
                best_k, best_x, best_f = k, x, f
        return Candidate(best_x, best_f, point=GridPoint(best_k, level))

    # coordinate-greedy: accept strict single-axis improvements (by rank) in
    # order; the walker ends at the lowest-ranked probe, which is the rule
    # above once its value is below the parent's
    parent_k = cur_k = tuple(2 * kd for kd in parent.point.k)
    parent_x = cur_x = tuple(map(coordinate, lower, upper, cur_k, step))
    parent_f = cur_f = evaluate(cur_x)
    for d, (lo, hi, sd) in enumerate(zip(lower, upper, step)):
        for a in (1, -1):
            c = cur_k[d] + a
            if c < 0 or c > top:
                continue
            k = cur_k[:d] + (c,) + cur_k[d + 1:]
            x = cur_x[:d] + (coordinate(lo, hi, c, sd),) + cur_x[d + 1:]
            f = evaluate(x)
            if (f, x) < (cur_f, cur_x):
                cur_k, cur_x, cur_f = k, x, f
    if cur_f < parent_f:
        return Candidate(cur_x, cur_f, point=GridPoint(cur_k, level))
    return Candidate(parent_x, parent_f, point=GridPoint(parent_k, level))


def ga_run(obj: Objective, cfg: GaConfig) -> RunReport:
    box = obj.box
    n = box.dim
    rule = cfg.label_rule
    steps: list[StepRecord] = []
    evaluate = Evaluator(obj, seed=cfg.seed)
    pop = init_population(box, evaluate)
    best = argmin_candidate(pop)
    n_levels = levels(box, cfg.h_tol)

    for gen in range(1, min(n_levels, cfg.max_generations) + 1):
        grid = GridSpec(box, gen)
        evaluate.start_generation(gen)
        # re-evaluate under this generation's noise so comparisons are fair
        if obj.stochastic:
            pop = [Candidate(c.x, evaluate(c.x), point=c.point) for c in pop]
        members = sorted(pop, key=rank)
        n_mutate = max(1, int(round(cfg.mutation_rate * len(members))))

        labels: dict[GridPoint, int] = {}
        recorded: list[LabeledVertex] = []
        survivors: list[Candidate] = []
        for i, parent in enumerate(members):
            if i < n_mutate:
                child = mutate(evaluate, parent, box)
            else:
                rp = refine(parent.point)
                child = Candidate(parent.x, parent.f, point=rp)
            survivors.append(child)
            delta = _label_delta(obj, rule, parent, child)
            labels[parent.point] = label_from_delta(delta, rule)
            recorded.append(LabeledVertex(parent, labels[parent.point], delta))
            best = argmin_candidate((best, parent, child))

        if 3**n <= MAX_ENUMERATED_OFFSPRING:
            # pop is the lattice of the last chosen cell (the corners at
            # generation 1), in the order it was made
            cells = _region_cells(gen, {c.point.k: c.f for c in pop})
            chosen = _choose_cell(find_complete_cells(labels), grid, cells, best)
        else:
            # cell enumeration is unaffordable here; mutation alone refines
            chosen = None

        steps.append(StepRecord(
            level=gen, h=grid.step, population=list(members), labels=recorded,
            chosen_cell=chosen, best=best))

        # the next generation's crossing points are the finer lattice of the
        # subdivided cell; without a cell (high dimension) the mutated
        # survivors carry the search instead, the best copy of each point
        # where two parents share a child
        if chosen is not None:
            fine = GridSpec(box, gen + 1)
            pop = []
            for p in lattice_points(chosen):
                x = position_of(p, fine)
                pop.append(Candidate(x, evaluate(x), point=p))
        else:
            first: dict[tuple[int, ...], Candidate] = {}
            for c in sorted(survivors, key=rank):
                first.setdefault(c.point.k, c)
            pop = list(first.values())

    # the answer is the best member of the converged population; probes may
    # have seen a lower value elsewhere, which best_value keeps
    solution = argmin_candidate(pop)
    return RunReport(
        steps=steps,
        best=solution,
        best_value=best.f,
        evaluations=evaluate.count,
        converged=n_levels <= cfg.max_generations,
        meta={
            "algorithm": "slmga",
            "objective": obj.name,
            "h_tol": cfg.h_tol,
            "max_generations": cfg.max_generations,
            "seed": cfg.seed,
            "label_rule": cfg.label_rule.variant.value,
            "mutation_rate": cfg.mutation_rate,
            # the step-halving schedule: each generation's step is half the last
            "mutation_schedule_ratio": 0.5,
        },
    )


def _label_delta(obj: Objective, rule: LabelRule, parent: Candidate, child: Candidate) -> Vector:
    if rule.variant is LabelVariant.GRADIENT_FIXED_POINT:
        try:
            return gradient_delta(parent.x, obj.gradient(parent.x))
        except GradientUnavailableError:
            pass
    return delta_of(parent, child)
