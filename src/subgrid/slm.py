"""Serial subdivision-labeling search.

Start from the 2**n box corners, probe each grid point's surroundings at
the next (halved) step, label points by the direction of their best
neighbor, then bisect a completely labeled cell and repeat on its finer
lattice until the step drops below tolerance.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import (
    MAX_LEVEL,
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
    levels,
    position_of,
    refine,
)
from .errors import ConfigError, SubgridError
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
            raise ConfigError("h_tol must be positive")
        if not 1 <= self.max_levels <= MAX_LEVEL:
            raise ConfigError("max_levels must be in 1..%d" % MAX_LEVEL)
        if self.label_rule.variant is not LabelVariant.BEST_NEIGHBOR:
            raise ConfigError("slm labels by the best neighbor only")


def initial_corners(box: BoxDomain) -> list[GridPoint]:
    """All 2**n corners as level-1 grid points, lexicographic order."""
    if box.dim > MAX_CORNER_DIM:
        raise SubgridError("corner seeding needs 2**%d points" % box.dim)
    return [GridPoint(k, 1) for k in itertools.product((0, 1), repeat=box.dim)]


def init_population(box: BoxDomain, evaluate: Callable[[Vector], float]) -> list[Candidate]:
    """The evaluated level-1 lattice both engines start from: all 2**n
    corners, or the two diagonal corners when 2**n is unaffordable (which
    SLM refuses)."""
    if box.dim <= MAX_CORNER_DIM:
        points = initial_corners(box)
    else:
        points = [GridPoint((0,) * box.dim, 1), GridPoint((1,) * box.dim, 1)]
    grid = GridSpec(box, 1)
    members = []
    for p in points:
        x = position_of(p, grid)
        members.append(Candidate(x, evaluate(x), point=p))
    return members


@functools.cache
def _moves(n: int, scheme: NeighborScheme) -> list[tuple[int, ...]]:
    """The moves of ``scheme`` in ``product((0, 1, -1))`` order: all 3**n
    for full-box; for sign-uniform the nonzero moves whose nonzero entries
    share one sign."""
    return [m for m in itertools.product((0, 1, -1), repeat=n)
            if scheme is NeighborScheme.FULL_BOX or (1 in m) != (-1 in m)]


def slm_neighbors(
    x: Sequence[float],
    h_next: Sequence[float],
    scheme: NeighborScheme,
    box: BoxDomain,
) -> list[Vector]:
    """The in-box probes ``x + move * h_next``, one per move of ``scheme``
    (``_moves``); a coordinate that does not move is ``x``'s own, ``-0.0``
    included.

    The displacement is added in floating point, so on a box of non-dyadic
    width a probe can differ in its last bits from the next level's lattice
    point ``lower + k * h``: 21,160 of the 27,736 probes of the six SLM runs
    in ``tests/test_golden_bytes.py`` do, all on F1, F2, F3 and F5.  Within
    a run none is lost to rounding: a moved coordinate of a lattice point
    lands on an odd index one level down, never on the even top index."""
    out = []
    for move in _moves(len(x), scheme):
        cand = tuple(xi + a * hi if a else xi for xi, hi, a in zip(x, h_next, move))
        if box.contains(cand):
            out.append(cand)
    return out


def best_neighbor(
    evaluate: Callable[[Vector], float],
    p: Candidate,
    candidates: Sequence[Vector],
) -> Candidate:
    """The lowest ``(f, x)`` among the candidates whose f is strictly lower
    than ``p``'s, so the order of the candidates cannot change the answer;
    ``p`` itself when none is (a fixed point stays put)."""
    best = p
    for x in candidates:
        f = evaluate(x)
        if f < p.f and (f, x) < (best.f, best.x):
            best = Candidate(x, f)
    return best


def _region_cells(
    level: int, values_by_k: dict[tuple[int, ...], float],
) -> dict[tuple[int, ...], tuple[float, float]]:
    """The region cells of a step: each anchor ``k`` mapped to the (min,
    sum) of the cell's vertex values, in ``cell_vertices`` order.

    A step's lattice is the box's 2**n corners at level 1, one cell, and
    after that the last chosen cell refined, 3**n points holding its 2**n
    subcells.  ``values_by_k`` maps the lattice's ``k`` to its values in
    the order the lattice is made, ascending ``k``, so every cell is read
    off the first, lowest point without a search."""
    base = next(iter(values_by_k))
    unit = list(itertools.product((0, 1), repeat=len(base)))
    cells = {}
    for off in unit[:1] if level == 1 else unit:
        anchor = tuple(map(operator.add, base, off))
        fs = [values_by_k[tuple(map(operator.add, anchor, v))] for v in unit]
        cells[anchor] = (min(fs), sum(fs))
    return cells


def _choose_cell(
    complete: list[Cell],
    grid: GridSpec,
    cells: dict[tuple[int, ...], tuple[float, float]],
    best: Candidate,
) -> Cell:
    """Complete cell with the fittest vertex; without a complete cell (or
    when the cell holding the overall best point has a strictly fitter
    vertex, as on plateaus where completeness only marks discontinuities),
    the region cell containing the overall best point.

    ``cells`` maps each region cell's anchor ``k`` to the (min, sum) of its
    vertex values, as ``_region_cells`` gives them; every complete cell is
    a region cell.  A cell's bounds are the ``coordinate`` of its anchor
    index and of the index one above."""
    box, step = grid.box, grid.step
    containing = [k for k in cells if all(
        coordinate(lo, hi, kd, sd) - 1e-12 <= v <= coordinate(lo, hi, kd + 1, sd) + 1e-12
        for lo, hi, kd, sd, v in zip(box.lower, box.upper, k, step, best.x))]
    if complete:
        chosen = min((c.anchor.k for c in complete), key=lambda k: (cells[k][0], k))
        if containing:
            cont = min(containing, key=lambda k: (*cells[k], tuple(-kd for kd in k)))
            if cells[cont] < cells[chosen]:
                chosen = cont
    elif containing:
        # prefer the cell whose anchor sits at the best point, i.e. the one
        # extending toward larger coordinates (matches the published traces)
        chosen = max(containing)
    else:
        chosen = min(cells, key=lambda k: (cells[k][0], k))
    return Cell(GridPoint(chosen, grid.level))


def slm_run(obj: Objective, cfg: SlmConfig) -> RunReport:
    """Run the serial algorithm until every step component is below
    ``cfg.h_tol`` or ``cfg.max_levels`` is exhausted."""
    box = obj.box
    negate = cfg.sense is Sense.MAXIMIZE
    ev = Evaluator(obj, negate=negate)
    rule = cfg.label_rule
    n_levels = levels(box, cfg.h_tol)

    active: list[GridPoint] = initial_corners(box)
    # the corners first, as in ga_run; level 1 reads them back from the cache
    best = argmin_candidate(init_population(box, ev))
    # the labelled vertices of the last chosen cell, keyed by their refined
    # point: every other point of its lattice has an odd coordinate, so no
    # earlier level labelled it
    carried: dict[GridPoint, LabeledVertex] = {}
    steps: list[StepRecord] = []

    for level in range(1, min(n_levels, cfg.max_levels) + 1):
        grid = GridSpec(box, level)
        h = grid.step
        h_next = tuple(hd / 2.0 for hd in h)

        population: list[Candidate] = []
        labels: list[LabeledVertex] = []
        for p in active:
            x = position_of(p, grid)
            cand = Candidate(x, ev(x), point=p)
            population.append(cand)
            best = argmin_candidate((best, cand))
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
        complete = find_complete_cells({p: lv.label for p, lv in labelled.items()})
        cells = _region_cells(level, {c.point.k: c.f for c in population})
        chosen = _choose_cell(complete, grid, cells, best)

        steps.append(StepRecord(
            level=level, h=h, population=population, labels=labels,
            chosen_cell=chosen, best=best))

        carried = {refine(v): labelled[v] for v in cell_vertices(chosen)}
        active = lattice_points(chosen)

    report = RunReport(
        steps=steps,
        best=best,
        evaluations=ev.count,
        converged=n_levels <= cfg.max_levels,
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


def _negate_report(report: RunReport) -> None:
    def neg(c: Candidate) -> Candidate:
        return Candidate(c.x, -c.f, c.point)

    report.best = neg(report.best)
    report.best_value = -report.best_value
    for s in report.steps:
        s.best = neg(s.best)
        s.population = [neg(c) for c in s.population]
        s.labels = [LabeledVertex(neg(lv.candidate), lv.label, lv.delta) for lv in s.labels]
