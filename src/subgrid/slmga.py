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
    BoxDomain,
    Candidate,
    GridPoint,
    GridSpec,
    LabeledVertex,
    RunReport,
    StepRecord,
    Vector,
    argmin_candidate,
    lattice_points,
    position_of,
    rank,
    refine,
)
from .errors import GradientUnavailableError
from .functions import Evaluator, Objective
from .labeling import (
    LabelRule,
    LabelVariant,
    delta_of,
    find_complete_cells,
    gradient_delta,
    label_from_delta,
)
from .slm import MAX_CORNER_DIM, _choose_cell, _region_cells, initial_corners

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
        if self.h_tol <= 0:
            raise ValueError("h_tol must be positive")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if not 0.0 < self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in (0, 1]")


@dataclass
class Population:
    members: list[Candidate]
    generation: int

    def __post_init__(self):
        seen = set()
        unique = []
        for c in self.members:
            key = c.point.k if c.point is not None else c.x
            if key not in seen:
                seen.add(key)
                unique.append(c)
        self.members = unique


def init_population(box: BoxDomain, evaluate: Callable[[Vector], float]) -> Population:
    """Generation-0 population on the level-1 grid: all 2**n corners, or the
    two diagonal corners when 2**n is unaffordable."""
    if box.dim <= MAX_CORNER_DIM:
        points = initial_corners(box)
    else:
        points = [GridPoint((0,) * box.dim, 1), GridPoint((1,) * box.dim, 1)]
    grid = GridSpec(box, 1)
    members = []
    for p in points:
        x = position_of(p, grid)
        members.append(Candidate(x, evaluate(x), point=p))
    return Population(members, 0)


def mutate(
    evaluate: Callable[[Vector], float],
    parent: Candidate,
    box: BoxDomain,
) -> list[Candidate]:
    """All in-box offspring of ``parent`` at the next refinement level.

    Enumerates {0, +-h}^n (parent included as the all-zero move) while that
    stays affordable; in high dimension it degenerates to a coordinate-greedy
    sweep whose endpoint plays the role of the best offspring."""
    p = parent.point
    n = p.dim
    level = p.level + 1
    grid = GridSpec(box, level)
    top = grid.max_index
    base = tuple(2 * kd for kd in p.k)

    if 3**n <= MAX_ENUMERATED_OFFSPRING:
        out = []
        for alphas in itertools.product((0, 1, -1), repeat=n):
            k = tuple(b + a for b, a in zip(base, alphas))
            if any(kd < 0 or kd > top for kd in k):
                continue
            x = position_of(GridPoint(k, level), grid)
            out.append(Candidate(x, evaluate(x), point=GridPoint(k, level)))
        return out

    # coordinate-greedy: accept strict single-axis improvements in order
    start = GridPoint(base, level)
    x = position_of(start, grid)
    cur = Candidate(x, evaluate(x), point=start)
    out = [cur]
    for d in range(n):
        for a in (1, -1):
            kd = cur.point.k[d] + a
            if kd < 0 or kd > top:
                continue
            trial = GridPoint(cur.point.k[:d] + (kd,) + cur.point.k[d + 1:], level)
            x = position_of(trial, grid)
            cand = Candidate(x, evaluate(x), point=trial)
            out.append(cand)
            cur = argmin_candidate((cur, cand))
    return out


def _best_offspring(parent: Candidate, offspring: list[Candidate]) -> Candidate:
    """Argmin over the brood; ties keep the parent (fixed points stay put),
    then prefer the lexicographically smallest position."""
    best = next((c for c in offspring if c.x == parent.x), offspring[0])
    moved = False
    for c in offspring:
        if c.f < best.f or (moved and c.f == best.f and c.x < best.x):
            best = c
            moved = True
    return best


def ga_run(obj: Objective, cfg: GaConfig) -> RunReport:
    box = obj.box
    n = box.dim
    rule = cfg.label_rule
    steps: list[StepRecord] = []
    evaluate = Evaluator(obj, seed=cfg.seed)
    pop = init_population(box, evaluate)
    best = argmin_candidate(pop.members)

    gen = 0
    while True:
        gen += 1
        grid = GridSpec(box, gen)
        h = grid.step
        if gen > cfg.max_generations or all(hd < cfg.h_tol for hd in h):
            gen -= 1
            break
        evaluate.start_generation(gen)
        members = sorted(pop.members, key=rank)
        # re-evaluate under this generation's noise so comparisons are fair
        if obj.stochastic:
            members = [Candidate(c.x, evaluate(c.x), point=c.point) for c in members]
            members.sort(key=rank)
        n_mutate = max(1, int(round(cfg.mutation_rate * len(members))))

        labels: dict[GridPoint, int] = {}
        recorded: list[LabeledVertex] = []
        survivors: list[Candidate] = []
        for i, parent in enumerate(members):
            if i < n_mutate:
                offspring = mutate(evaluate, parent, box)
                child = _best_offspring(parent, offspring)
            else:
                rp = refine(parent.point)
                child = Candidate(parent.x, parent.f, point=rp)
            survivors.append(child)
            delta = _label_delta(obj, rule, parent, child)
            labels[parent.point] = label_from_delta(delta, rule)
            recorded.append(LabeledVertex(parent, labels[parent.point], delta))
            best = argmin_candidate((best, parent, child))

        vertex_values = {c.point: c.f for c in members}
        if 3**n <= MAX_ENUMERATED_OFFSPRING:
            # every vertex of a complete cell is labelled, so it is a region cell
            region = _region_cells([c.point for c in members])
            chosen = _choose_cell(find_complete_cells(labels), grid, vertex_values, best, region)
        else:
            # cell enumeration is unaffordable here; mutation alone refines
            chosen = None

        steps.append(StepRecord(
            level=gen, h=h, population=list(members), labels=recorded,
            chosen_cell=chosen, best=best))

        # the next generation's crossing points are the finer lattice of the
        # subdivided cell; without a cell (high dimension) the mutated
        # survivors carry the search instead
        if chosen is not None:
            fine = GridSpec(box, gen + 1)
            next_members = [Candidate(position_of(p, fine), evaluate(position_of(p, fine)), point=p)
                            for p in lattice_points(chosen)]
        else:
            next_members = list(survivors)
        pop = Population(sorted(next_members, key=rank), gen)

    final = GridSpec(box, gen + 1)
    converged = all(hd < cfg.h_tol for hd in final.step)
    # the answer is the best member of the converged population; probes may
    # have seen a lower value elsewhere, which best_value keeps
    solution = argmin_candidate(pop.members) if pop.members else best
    return RunReport(
        steps=steps,
        best=solution,
        best_value=best.f,
        evaluations=evaluate.count,
        converged=converged,
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
