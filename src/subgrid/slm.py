"""Subdivision-labeling search: the loop both grid engines run, and SLM.

``subdivide`` starts from the evaluated box corners.  Each step labels
every member of its lattice by the direction to an offspring at the next
(halved) step, reads the lattice's cells in one pass, chooses one,
preferring a completely labeled cell, and places its finer lattice for the
next step, until the step drops below tolerance.  The engines differ only
in what they pass to the loop.

SLM's offspring of a member is its best neighbour among the probes
``x + move * h/2``, and the chosen cell's vertices carry their labels into
the next level, where they probe nothing.  A level's lattice is evaluated
before its probes, so a run ends on the first undefined value in that order.
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
    levels,
    position_of,
    rank,
    refine,
)
from .errors import ConfigError, GradientUnavailableError, SubgridError
from .functions import Evaluator, Objective
from .labeling import (LabelRule, LabelVariant, delta_of, gradient_delta, is_complete,
                       label_from_delta)
# unused here, but perfbench/tracer.py rebinds these names in this module
from .core import lattice_points  # noqa: F401
from .labeling import find_complete_cells  # noqa: F401

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
    """SLMGA's evaluated level-1 lattice: all 2**n corners, or the two
    diagonal corners when 2**n is unaffordable (which SLM refuses)."""
    points = initial_corners(box) if box.dim <= MAX_CORNER_DIM else [
        GridPoint((0,) * box.dim, 1), GridPoint((1,) * box.dim, 1)]
    return _place(points, GridSpec(box, 1), evaluate)


def _place(points: Sequence[GridPoint], grid: GridSpec,
           evaluate: Callable[[Vector], float]) -> list[Candidate]:
    """``points`` placed on ``grid`` and evaluated, in their order."""
    return [Candidate(x, evaluate(x), point=p) for p in points for x in [position_of(p, grid)]]


def _place_cell(cell: Cell, grid: GridSpec,
                evaluate: Callable[[Vector], float]) -> list[Candidate]:
    """The 3**n points of ``cell`` refined onto ``grid``, one level deeper,
    placed and evaluated in ``lattice_points`` order.  Each axis holds three
    indices, so each axis's three ``coordinate`` values are computed once."""
    box, level = grid.box, grid.level
    ks = [(2 * kd, 2 * kd + 1, 2 * kd + 2) for kd in cell.anchor.k]
    xs = [[coordinate(lo, hi, c, sd) for c in axis]
          for lo, hi, axis, sd in zip(box.lower, box.upper, ks, grid.step)]
    return [Candidate(x, evaluate(x), point=GridPoint(k, level))
            for k, x in zip(itertools.product(*ks), itertools.product(*xs))]


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
    included.  This filter is the box check of SLM's floating-point probes.

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


def _region_cells(base: tuple[int, ...], vertices: dict[tuple[int, ...], LabeledVertex],
                  grid: GridSpec, best: Candidate) -> dict[tuple[int, ...], tuple]:
    """The region cells of a step, in one pass: each anchor ``k`` mapped to
    the (min, sum) of the cell's vertex values, in ``cell_vertices`` order,
    whether its vertex labels are complete, and whether it holds ``best``.

    A step's lattice is the box's 2**n corners at level 1, one cell, and
    after that the last chosen cell refined, 3**n points holding its 2**n
    subcells.  ``vertices`` maps the lattice's ``k`` to its members, so
    every cell is read off the lowest, ``base``, without a search.  A
    cell's bounds are the ``coordinate`` of its anchor index and the next,
    computed once per axis for the lattice's two or three indices."""
    box, n = grid.box, len(base)
    unit = list(itertools.product((0, 1), repeat=n))
    offsets, span = (unit[:1], 2) if grid.level == 1 else (unit, 3)
    xs = [[coordinate(lo, hi, kd + c, sd) for c in range(span)]
          for lo, hi, kd, sd in zip(box.lower, box.upper, base, grid.step)]
    cells = {}
    for off in offsets:
        anchor = tuple(map(operator.add, base, off))
        vs = [vertices[tuple(map(operator.add, anchor, v))] for v in unit]
        fs = [lv.candidate.f for lv in vs]
        holds = all(axis[o] - 1e-12 <= v <= axis[o + 1] + 1e-12
                    for axis, o, v in zip(xs, off, best.x))
        cells[anchor] = (min(fs), sum(fs), is_complete((lv.label for lv in vs), n), holds)
    return cells


def _choose_cell(cells: dict[tuple[int, ...], tuple], level: int) -> Cell:
    """Complete cell with the fittest vertex; without a complete cell (or
    when the cell holding the overall best point has a strictly fitter
    vertex, as on plateaus where completeness only marks discontinuities),
    the region cell containing the overall best point.

    ``cells`` are the step's region cells as ``_region_cells`` gives them."""
    complete = [k for k, (_, _, full, _) in cells.items() if full]
    containing = [k for k, (_, _, _, holds) in cells.items() if holds]
    if complete:
        chosen = min(complete, key=lambda k: (cells[k][0], k))
        if containing:
            cont = min(containing, key=lambda k: (*cells[k][:2], tuple(-kd for kd in k)))
            if cells[cont][:2] < cells[chosen][:2]:
                chosen = cont
    elif containing:
        # prefer the cell whose anchor sits at the best point, i.e. the one
        # extending toward larger coordinates (matches the published traces)
        chosen = max(containing)
    else:
        chosen = min(cells, key=lambda k: (cells[k][0], k))
    return Cell(GridPoint(chosen, level))


def subdivide(
    obj: Objective, evaluate: Callable[[Vector], float], pop: list[Candidate], n_levels: int,
    rule: LabelRule, offspring: Callable, carry: bool, choose: bool = True,
) -> tuple[list[StepRecord], Candidate, list[Candidate]]:
    """Run ``n_levels`` steps from the evaluated level-1 lattice ``pop``.

    ``offspring(grid, lattice, carried)`` gives a step's members, in the
    order the step records them, and each one's offspring.  With ``carry``
    the chosen cell's vertices keep their labels into the next step, where
    ``carried`` holds them by refined point.  Without ``choose`` no cell is
    chosen, and the distinct offspring, the best copy of each point, re-seed
    the next step.  Returns the steps, the lowest member or offspring by
    ``rank``, and the last lattice, or the last re-seeded offspring."""
    best = argmin_candidate(pop)
    carried: dict[GridPoint, LabeledVertex] = {}
    steps: list[StepRecord] = []
    for level in range(1, n_levels + 1):
        grid = GridSpec(obj.box, level)
        if steps and steps[-1].chosen_cell is not None:
            pop = _place_cell(steps[-1].chosen_cell, grid, evaluate)
        members, children = offspring(grid, pop, carried)

        labels: list[LabeledVertex] = []
        for parent, child in zip(members, children):
            old = carried.get(parent.point)
            if old is None:
                delta = _label_delta(obj, rule, parent, child)
                labels.append(LabeledVertex(parent, label_from_delta(delta, rule), delta))
            else:
                labels.append(LabeledVertex(parent, old.label, old.delta))
            best = argmin_candidate((best, parent, child))

        chosen = None
        if choose:
            # the members with their labels and values (SLMGA's re-evaluated)
            by_k = {lv.candidate.point.k: lv for lv in labels}
            chosen = _choose_cell(_region_cells(pop[0].point.k, by_k, grid, best), level)
            if carry:
                carried = {refine(v): by_k[v.k] for v in cell_vertices(chosen)}
        else:
            first: dict[tuple[int, ...], Candidate] = {}
            for c in sorted(children, key=rank):
                first.setdefault(c.point.k, c)
            pop = list(first.values())

        steps.append(StepRecord(level=level, h=grid.step, population=members, labels=labels,
                                chosen_cell=chosen, best=best))
    return steps, best, pop


def _label_delta(obj: Objective, rule: LabelRule, parent: Candidate, child: Candidate) -> Vector:
    """The direction ``parent`` is labelled by: its gradient step under the
    gradient rule where it has a usable gradient, else the step to ``child``."""
    if rule.variant is LabelVariant.GRADIENT_FIXED_POINT:
        try:
            return gradient_delta(parent.x, obj.gradient(parent.x))
        except GradientUnavailableError:
            pass
    return delta_of(parent, child)


def slm_run(obj: Objective, cfg: SlmConfig) -> RunReport:
    """Run the serial algorithm until every step component is below
    ``cfg.h_tol`` or ``cfg.max_levels`` is exhausted."""
    box = obj.box
    negate = cfg.sense is Sense.MAXIMIZE
    ev = Evaluator(obj, negate=negate)
    n_levels = levels(box, cfg.h_tol)

    def offspring(grid, lattice, carried):
        # a carried vertex keeps its label and probes nothing
        h_next = tuple(hd / 2.0 for hd in grid.step)
        return lattice, [
            p if p.point in carried
            else best_neighbor(ev, p, slm_neighbors(p.x, h_next, cfg.neighbor_scheme, box))
            for p in lattice]

    # initial_corners refuses a box that init_population seeds with two corners
    corners = _place(initial_corners(box), GridSpec(box, 1), ev)
    steps, best, _ = subdivide(obj, ev, corners, min(n_levels, cfg.max_levels),
                               cfg.label_rule, offspring, carry=True)
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
