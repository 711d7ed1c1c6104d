"""Serial subdivision-labeling search.

Start from the 2**n box corners, probe each grid point's surroundings at
the next (halved) step, label points by the direction of their best
neighbor, then bisect a completely labeled cell and repeat on its finer
lattice until the step drops below tolerance.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .core import (
    BoxDomain,
    Candidate,
    Cell,
    GridPoint,
    GridSpec,
    LabeledVertex,
    RunReport,
    StepRecord,
    Vector,
    argmin_candidate,
    cell_vertices,
    coordinate,
    lattice_points,
    position_of,
    refine,
)
from .errors import DimensionTooLargeError
from .functions import Evaluator, Objective
from .labeling import LabelRule, LabelVariant, delta_of, find_complete_cells, label_from_delta

MAX_CORNER_DIM = 20


class NeighborScheme(enum.Enum):
    SIGN_UNIFORM = "sign-uniform"  # +h or -h applied to a coordinate subset
    FULL_BOX = "full-box"          # every combination in {0, +h, -h}^n


class Sense(enum.Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass(frozen=True)
class SlmConfig:
    h_tol: float = 1e-4
    max_levels: int = 40
    neighbor_scheme: NeighborScheme = NeighborScheme.SIGN_UNIFORM
    sense: Sense = Sense.MINIMIZE
    label_rule: LabelRule = field(default_factory=LabelRule)

    def __post_init__(self):
        if not self.h_tol > 0:
            raise ValueError("h_tol must be positive")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.label_rule.variant is not LabelVariant.BEST_NEIGHBOR:
            raise ValueError("slm labels by the best neighbor only")


def initial_corners(box: BoxDomain) -> list[GridPoint]:
    """All 2**n corners as level-1 grid points, lexicographic order."""
    if box.dim > MAX_CORNER_DIM:
        raise DimensionTooLargeError("corner seeding needs 2**%d points" % box.dim)
    return [GridPoint(k, 1) for k in itertools.product((0, 1), repeat=box.dim)]


def slm_neighbors(
    x: Sequence[float],
    h_next: Sequence[float],
    scheme: NeighborScheme,
    box: BoxDomain,
) -> list[Vector]:
    """Probe positions around ``x`` displaced by the halved step, in-box only.

    Sign-uniform: +h or -h applied uniformly on every nonempty coordinate
    subset (at most 2*(2^n - 1) candidates).  Full-box: all of
    {0, +h, -h}^n including ``x`` itself (3^n candidates).

    The displacement is added in floating point, so on a box of non-dyadic
    width a probe can differ in its last bits from the next level's lattice
    point ``lower + k * h``: 21,160 of the 27,736 probes of the six SLM runs
    in ``tests/test_golden_bytes.py`` do, all on F1, F2, F3 and F5."""
    n = len(x)
    out = []
    if scheme is NeighborScheme.SIGN_UNIFORM:
        for subset in itertools.product((0, 1), repeat=n):
            if not any(subset):
                continue
            for sign in (1.0, -1.0):
                cand = tuple(
                    xi + sign * hi if si else xi for xi, hi, si in zip(x, h_next, subset)
                )
                if box.contains(cand):
                    out.append(cand)
    else:
        for alphas in itertools.product((0.0, 1.0, -1.0), repeat=n):
            cand = tuple(xi + ai * hi for xi, hi, ai in zip(x, h_next, alphas))
            if box.contains(cand):
                out.append(cand)
    return out


def best_neighbor(
    evaluate: Callable[[Vector], float],
    p: Candidate,
    candidates: Sequence[Vector],
) -> Candidate:
    """Argmin of f over candidates plus p itself.  Ties prefer p (a strict
    improvement is required to move), then the lexicographically smallest
    position."""
    best = p
    moved = False
    for x in candidates:
        f = evaluate(x)
        if f < best.f or (moved and f == best.f and x < best.x):
            best = Candidate(x, f)
            moved = True
    return best


def _choose_cell(
    complete: list[Cell],
    grid: GridSpec,
    values: dict[GridPoint, float],
    best: Candidate,
    region_cells: list[Cell],
) -> Cell:
    """Complete cell with the fittest vertex; without a complete cell (or
    when the cell holding the overall best point has a strictly fitter
    vertex, as on plateaus where completeness only marks discontinuities),
    the region cell containing the overall best point.

    Every complete cell is a region cell; each region cell's vertex values
    are read once, as (min, sum), and its bounds are the ``coordinate`` of
    its anchor index and of the index one above."""
    by_k = {p.k: f for p, f in values.items()}
    offsets = list(itertools.product((0, 1), repeat=grid.box.dim))
    summary = {}
    for c in region_cells:
        fs = [by_k[tuple(map(operator.add, c.anchor.k, off))] for off in offsets]
        summary[c.anchor.k] = (min(fs), sum(fs))

    def cell_key(c):
        return (summary[c.anchor.k][0], c.anchor.k)

    box, step = grid.box, grid.step
    containing = [c for c in region_cells if all(
        coordinate(lo, hi, kd, sd) - 1e-12 <= v <= coordinate(lo, hi, kd + 1, sd) + 1e-12
        for lo, hi, kd, sd, v in zip(box.lower, box.upper, c.anchor.k, step, best.x))]
    if complete:
        comp = min(complete, key=cell_key)
        if containing:
            cont = min(containing, key=lambda c: (
                *summary[c.anchor.k], tuple(-kd for kd in c.anchor.k)))
            if summary[cont.anchor.k] < summary[comp.anchor.k]:
                return cont
        return comp
    if containing:
        # prefer the cell whose anchor sits at the best point, i.e. the one
        # extending toward larger coordinates (matches the published traces)
        return max(containing, key=lambda c: c.anchor.k)
    return min(region_cells, key=cell_key)


def slm_run(obj: Objective, cfg: SlmConfig) -> RunReport:
    """Run the serial algorithm until every step component is below
    ``cfg.h_tol`` or ``cfg.max_levels`` is exhausted."""
    box = obj.box
    negate = cfg.sense is Sense.MAXIMIZE
    ev = Evaluator(obj, negate=negate)
    rule = cfg.label_rule

    active: list[GridPoint] = initial_corners(box)
    # the labelled vertices of the last chosen cell, keyed by their refined
    # point: every other point of its lattice has an odd coordinate, so no
    # earlier level labelled it
    carried: dict[GridPoint, LabeledVertex] = {}
    steps: list[StepRecord] = []
    best: Optional[Candidate] = None
    level = 1

    while level <= cfg.max_levels:
        grid = GridSpec(box, level)
        h = grid.step
        if all(hd < cfg.h_tol for hd in h):
            break
        h_next = tuple(hd / 2.0 for hd in h)

        population: list[Candidate] = []
        labels: list[LabeledVertex] = []
        for p in sorted(active, key=lambda q: q.k):
            x = position_of(p, grid)
            cand = Candidate(x, ev(x), point=p)
            population.append(cand)
            best = cand if best is None else argmin_candidate((best, cand))
            old = carried.get(p)
            if old is not None:
                labels.append(LabeledVertex(cand, old.label, old.delta))
                continue
            neighbors = slm_neighbors(x, h_next, cfg.neighbor_scheme, box)
            winner = best_neighbor(ev, cand, neighbors)
            best = argmin_candidate((best, winner))
            delta = delta_of(cand, winner)
            labels.append(LabeledVertex(cand, label_from_delta(delta, rule), delta))

        labelled = {lv.candidate.point: lv for lv in labels}
        # every vertex of a complete cell is active, so it is a region cell
        complete = find_complete_cells({p: lv.label for p, lv in labelled.items()})
        values = {c.point: c.f for c in population}
        chosen = _choose_cell(complete, grid, values, best, _region_cells(active))

        steps.append(StepRecord(
            level=level, h=h, population=population, labels=labels,
            chosen_cell=chosen, best=best))

        carried = {refine(v): labelled[v] for v in cell_vertices(chosen)}
        active = lattice_points(chosen)
        level += 1

    if best is None:
        # no level to run: the answer is the best box corner, as in ga_run
        grid = GridSpec(box, 1)
        corners = [position_of(p, grid) for p in active]
        best = argmin_candidate([Candidate(x, ev(x), point=p) for p, x in zip(active, corners)])

    final_grid = GridSpec(box, level)
    converged = all(hd < cfg.h_tol for hd in final_grid.step)
    report = RunReport(
        steps=steps,
        best=best,
        evaluations=ev.count,
        converged=converged,
        meta={
            "algorithm": "slm",
            "objective": obj.name,
            "h_tol": cfg.h_tol,
            "max_levels": cfg.max_levels,
            "neighbor_scheme": cfg.neighbor_scheme.value,
            "sense": cfg.sense.value,
        },
    )
    if negate:
        _negate_report(report)
    return report


def _region_cells(active: Sequence[GridPoint]) -> list[Cell]:
    """Cells whose full vertex set lies in the active lattice."""
    present = {p.k for p in active}
    offsets = list(itertools.product((0, 1), repeat=active[0].dim))
    return [Cell(p) for p in sorted(active, key=lambda q: q.k)
            if all(tuple(map(operator.add, p.k, off)) in present for off in offsets)]


def _negate_report(report: RunReport) -> None:
    def neg(c: Candidate) -> Candidate:
        return Candidate(c.x, -c.f, c.point)

    report.best = neg(report.best)
    report.best_value = -report.best_value
    for s in report.steps:
        s.best = neg(s.best)
        s.population = [neg(c) for c in s.population]
        s.labels = [LabeledVertex(neg(lv.candidate), lv.label, lv.delta) for lv in s.labels]
