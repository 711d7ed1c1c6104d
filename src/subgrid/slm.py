"""Serial subdivision-labeling search.

Start from the 2**n box corners, probe each grid point's surroundings at
the next (halved) step, label points by the direction of their best
neighbor, then bisect a completely labeled cell and repeat on its finer
lattice until the step drops below tolerance.
"""

from __future__ import annotations

import enum
import itertools
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
    lattice_points,
    position_of,
    refine,
)
from .errors import DimensionTooLargeError
from .functions import Evaluator, Objective
from .labeling import LabelRule, delta_of, find_complete_cells, label_from_delta

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
        if self.h_tol <= 0:
            raise ValueError("h_tol must be positive")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")


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
) -> Optional[Cell]:
    """Complete cell with the fittest vertex; without a complete cell (or
    when the cell holding the overall best point has a strictly fitter
    vertex, as on plateaus where completeness only marks discontinuities),
    the region cell containing the overall best point."""
    def vertex_min(c):
        return min(values[v] for v in cell_vertices(c))

    def vertex_sum(c):
        return sum(values[v] for v in cell_vertices(c))

    def cell_key(c):
        return (vertex_min(c), c.anchor.k)

    containing = [c for c in region_cells if c.contains(best.x, grid, tol=1e-12)]
    if complete:
        comp = min(complete, key=cell_key)
        if containing:
            cont = min(containing, key=lambda c: (
                vertex_min(c), vertex_sum(c), tuple(-kd for kd in c.anchor.k)))
            if (vertex_min(cont), vertex_sum(cont)) < (vertex_min(comp), vertex_sum(comp)):
                return cont
        return comp
    if containing:
        # prefer the cell whose anchor sits at the best point, i.e. the one
        # extending toward larger coordinates (matches the published traces)
        return max(containing, key=lambda c: c.anchor.k)
    region_cells_by_vf = sorted(
        region_cells, key=lambda c: (min(values[v] for v in cell_vertices(c)), c.anchor.k)
    )
    return region_cells_by_vf[0] if region_cells_by_vf else None


def slm_run(obj: Objective, cfg: SlmConfig) -> RunReport:
    """Run the serial algorithm until every step component is below
    ``cfg.h_tol`` or ``cfg.max_levels`` is exhausted."""
    box = obj.box
    n = box.dim
    negate = cfg.sense is Sense.MAXIMIZE
    ev = Evaluator(obj, negate=negate)
    rule = cfg.label_rule

    active: list[GridPoint] = initial_corners(box)
    labels: dict[GridPoint, int] = {}
    deltas: dict[GridPoint, Vector] = {}
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
        vertex_values: dict[GridPoint, float] = {}
        for p in sorted(active, key=lambda q: q.k):
            x = position_of(p, grid)
            fx = ev(x)
            cand = Candidate(x, fx, point=p)
            population.append(cand)
            vertex_values[p] = fx
            best = cand if best is None else argmin_candidate((best, cand))
            if p in labels:
                continue
            neighbors = slm_neighbors(x, h_next, cfg.neighbor_scheme, box)
            winner = best_neighbor(ev, cand, neighbors)
            best = argmin_candidate((best, winner))
            delta = delta_of(cand, winner)
            labels[p] = label_from_delta(delta, rule)
            deltas[p] = delta

        # every vertex of a complete cell is active, so it is a region cell
        complete = find_complete_cells({p: labels[p] for p in active})
        chosen = _choose_cell(complete, grid, vertex_values, best, _region_cells(active))

        steps.append(StepRecord(
            level=level, h=h, population=population,
            labels=[LabeledVertex(Candidate(position_of(p, grid), vertex_values[p], p),
                                  labels[p], deltas[p])
                    for p in sorted(active, key=lambda q: q.k)],
            chosen_cell=chosen, best=best))

        if chosen is None:
            break
        active = lattice_points(chosen)
        labels = {refine(p): lab for p, lab in labels.items()}
        deltas = {refine(p): d for p, d in deltas.items()}
        level += 1

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
    level = active[0].level
    out = []
    for p in sorted(active, key=lambda q: q.k):
        if all(tuple(kd + dd for kd, dd in zip(p.k, delta)) in present
               for delta in itertools.product((0, 1), repeat=len(p.k))):
            out.append(Cell(GridPoint(p.k, level)))
    return out


def _negate_report(report: RunReport) -> None:
    def neg(c: Candidate) -> Candidate:
        return Candidate(c.x, -c.f, c.point)

    report.best = neg(report.best)
    for s in report.steps:
        s.best = neg(s.best)
        s.population = [neg(c) for c in s.population]
        s.labels = [LabeledVertex(neg(lv.candidate), lv.label, lv.delta) for lv in s.labels]
