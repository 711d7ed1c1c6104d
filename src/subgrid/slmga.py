"""Genetic-algorithm formulation of the subdivision-labeling search.

``ga_run`` is ``slm.subdivide`` with mutation as the offspring function:
the population is the set of grid crossing points, mutation probes the
{0, +-h}^n neighborhood at the next (halved) step and keeps each member's
best offspring, and selection pressure comes from the labels and the
subdivided cell, whose finer lattice is the next generation.  Crossover is
deliberately absent.

A generation is mutated at once: its members' offspring tile one window of
the finer grid, whose points are evaluated once each and whose values give
every member's best offspring (``mutate``).  A run that meets an undefined
value ends on the first one in the window's C order.  Off an
``slm.enumerated`` box (n >= 7) a run starts from two corners, and each
member's coordinate-greedy sweep re-seeds the next generation.

Stochastic objectives (F4) are evaluated under common random numbers: a
generation's candidates share one seeded noise draw, so selection compares
noiseless differences while reported values keep the noise.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    MAX_LEVEL,
    BoxDomain,
    Candidate,
    GridPoint,
    GridSpec,
    RunReport,
    Vector,
    argmin_candidate,
    coordinate,
    levels,
    rank,
    refine,
)
from .errors import ConfigError, SubgridError
from .functions import Evaluator, Objective
from .labeling import LabelRule
from .slm import _place_cell, enumerated, init_population, subdivide

# unused here, but perfbench/tracer.py rebinds each of these names in this module
from .core import lattice_points, position_of  # noqa: F401
from .labeling import find_complete_cells, label_from_delta  # noqa: F401
from .slm import _choose_cell, _region_cells  # noqa: F401


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
    parents: Sequence[Candidate],
    box: BoxDomain,
) -> list[Candidate]:
    """The best in-box offspring of each of ``parents`` at the next
    refinement level, in their order.

    A member's offspring are its {0, +-h}^n moves; the best is the lowest
    value, and ties keep the parent (fixed points stay put), while after a
    strict improvement a tie goes to the lexicographically smaller position.
    Where fine indices share a position (deep levels far from 0), a child
    keeps the parent's index on each axis where its position is the
    parent's, as a walk of the moves in ``product((0, 1, -1))`` order
    would.  The members, one product lattice or a part of one, tile one
    window of at most 7 fine indices per axis.  Each distinct point of it
    that some member probes is evaluated once, in C order, and each
    member's best is read off the values; NaN is never a best, so a NaN
    parent stays put.  ``SubgridError`` refuses a parent that is not a grid
    point, parents of mixed levels and parents spread over more than 3
    indices on an axis.  Where the box is not ``slm.enumerated`` (n >= 7),
    each member takes a coordinate-greedy sweep instead.  Positions follow
    ``coordinate``, the rule of ``position_of``, so the top index sits at
    ``upper`` exactly."""
    if not enumerated(box):
        return [_sweep(evaluate, p, box) for p in parents]
    if not parents:
        return []
    first, xs = _window(parents, box)
    n = box.dim
    level = parents[0].point.level + 1

    # the window padded by one index of +inf on each side, where a move
    # leaves the box; row i gathers member i's 3^n offspring in C order,
    # each fine index mapped onto the first index of its position
    padded = tuple(len(axis) + 2 for axis in xs)
    strides = np.array([math.prod(padded[d + 1:]) for d in range(n)])
    moves = _moves(n)
    # k passes 2^63 at deep levels: each member's fine indices in the window
    # are taken from Python ints, as objects
    local = (np.array([p.point.k for p in parents], dtype=object) * 2
             - np.array(first, dtype=object)).astype(np.intp)
    rows = ((local + 1) @ strides)[:, None] + moves @ strides
    shared = any(u == v for axis in xs for u, v in zip(axis, axis[1:]))
    if shared:
        shift = functools.reduce(np.add.outer, [
            np.array([0] + [axis.index(x) - i for i, x in enumerate(axis)] + [0]) * s
            for axis, s in zip(xs, strides.tolist())])
        rows += shift.ravel()[rows]
    probed = np.zeros(math.prod(padded), dtype=bool)
    probed[rows] = True
    inner = (slice(1, -1),) * n
    probed = probed.reshape(padded)[inner]
    values = list(map(evaluate, itertools.compress(itertools.product(*xs),
                                                   probed.ravel().tolist())))
    table = np.full(padded, np.inf)
    table[inner][probed] = values
    table = table.ravel()
    own = table[rows[:, len(moves) // 2]]  # the zero move
    table[np.isnan(table)] = np.inf
    gathered = table[rows]
    best = gathered.argmin(axis=1)
    best_f = gathered[np.arange(len(parents)), best]

    improved = best_f < own
    child = np.where(improved[:, None], local + moves[best], local)
    if shared:
        # the child keeps the parent's index where its position is the parent's
        for d, axis in enumerate(xs):
            at = np.array(axis)
            same = at[child[:, d]] == at[local[:, d]]
            child[same, d] = local[same, d]
    return [Candidate(tuple(map(operator.getitem, xs, c)), f,
                      point=GridPoint(tuple(map(operator.add, first, c)), level))
            for c, f in zip(child.tolist(), np.where(improved, best_f, own).tolist())]


def _window(parents: Sequence[Candidate],
            box: BoxDomain) -> tuple[list[int], list[list[float]]]:
    """The first fine index and the positions, per axis, of the window that
    ``parents``' offspring tile; refuses parents that are not one lattice."""
    n = box.dim
    ks = [p.point.k for p in parents]
    if any(len(k) != n for k in ks):
        _refuse_off_grid(parents, n)
    if len({p.point.level for p in parents}) > 1:
        raise SubgridError("parents of mixed levels are not one lattice")
    top = 2 ** parents[0].point.level
    lows = [min(axis) for axis in zip(*ks)]
    highs = [max(axis) for axis in zip(*ks)]
    if min(lows) < 0 or 2 * max(highs) > top:
        _refuse_off_grid(parents, n)
    if any(b - a > 2 for a, b in zip(lows, highs)):
        raise SubgridError("parents spread over more than 3 indices on an axis "
                           "are not one lattice")
    first = [max(0, 2 * a - 1) for a in lows]
    last = [min(top, 2 * b + 1) for b in highs]
    xs = [[coordinate(lo, hi, c, w / top) for c in range(a, b + 1)]
          for lo, hi, w, a, b in zip(box.lower, box.upper, box.width, first, last)]
    return first, xs


def _refuse_off_grid(parents: Sequence[Candidate], n: int) -> None:
    """Raise ``SubgridError`` for the first of ``parents`` that is not a
    point of the n-d grid at its level."""
    for p in parents:
        k, level = p.point.k, p.point.level
        if len(k) != n or min(k) < 0 or 2 * max(k) > 2 ** level:
            raise SubgridError("parent %r is not a point of the %d-d grid at level %d"
                               % (k, n, level))


@functools.cache
def _moves(n: int) -> np.ndarray:
    """The 3^n moves {-1, 0, 1}^n in C order, one per row."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=n)), dtype=np.intp).reshape(-1, n)


def _sweep(
    evaluate: Callable[[Vector], float],
    parent: Candidate,
    box: BoxDomain,
) -> Candidate:
    """``mutate`` for one member in high dimension: a coordinate-greedy
    sweep that accepts strict single-axis improvements (by rank) in order.
    The walker ends at the lowest-ranked probe, which is ``mutate``'s rule
    once its value is below the parent's."""
    first, xs = _window([parent], box)
    level = parent.point.level + 1
    parent_k = cur_k = tuple(2 * kd for kd in parent.point.k)
    parent_x = cur_x = tuple(axis[c - a] for axis, c, a in zip(xs, cur_k, first))
    parent_f = cur_f = evaluate(cur_x)
    for d, (axis, a) in enumerate(zip(xs, first)):
        for m in (1, -1):
            c = cur_k[d] + m
            if not 0 <= c - a < len(axis):
                continue
            x = cur_x[:d] + (axis[c - a],) + cur_x[d + 1:]
            f = evaluate(x)
            if (f, x) < (cur_f, cur_x):
                cur_k, cur_x, cur_f = cur_k[:d] + (c,) + cur_k[d + 1:], x, f
    if cur_f < parent_f:
        return Candidate(cur_x, cur_f, point=GridPoint(cur_k, level))
    return Candidate(parent_x, parent_f, point=GridPoint(parent_k, level))


def ga_run(obj: Objective, cfg: GaConfig) -> RunReport:
    box = obj.box
    ev = Evaluator(obj, seed=cfg.seed)
    evaluate = ev.value
    n_levels = levels(box, cfg.h_tol)

    def offspring(grid, pop, carried):
        ev.start_generation(grid.level)
        # re-evaluate under this generation's noise so comparisons are fair
        if obj.stochastic:
            pop = [Candidate(c.x, evaluate(c.x), point=c.point) for c in pop]
        members = sorted(pop, key=rank)
        n_mutate = max(1, int(round(cfg.mutation_rate * len(members))))
        # the members past the mutation rate survive unchanged
        return members, mutate(evaluate, members[:n_mutate], box) + [
            Candidate(p.x, p.f, point=refine(p.point)) for p in members[n_mutate:]]

    steps, best, pop = subdivide(obj, evaluate, init_population(box, evaluate),
                                 min(n_levels, cfg.max_generations), cfg.label_rule,
                                 offspring, carry=False)
    # the answer is the best of the population the next generation would
    # start from; best_value keeps any lower value a probe saw
    if steps and steps[-1].chosen_cell is not None:
        chosen = steps[-1].chosen_cell
        pop = _place_cell(chosen, GridSpec(box, chosen.level + 1), evaluate)
    solution = argmin_candidate(pop)
    return RunReport(
        steps=steps,
        best=solution,
        best_value=best.f,
        evaluations=ev.count,
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
