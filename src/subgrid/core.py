"""Domain types for dyadic refinement grids.

A grid point's position is derived from its integer relative coordinates
``k`` by one rule, ``coordinate``: ``lower + k * step`` on each axis, with
the top index at ``upper`` exactly.  ``lower + width`` can round to either
side of ``upper`` (on [-1.3, 2.9] it gives 2.9000000000000004), so the top
index is placed at ``upper`` rather than computed; no other index can pass
it.  Every caller that places a lattice point goes through ``coordinate``:
``position_of`` (the level-1 corners, the brute-force oracle and the SVG
trace's cells), the refined cell lattices of ``slm._place_cell``, the
offspring windows of ``slmga.mutate`` and ``slmga._sweep``, and the cell
bounds of ``slm._region_cells``.  The lattice callers compute each axis's
few positions once and take their product.  Only SLM's neighbour probes
are placed in floating point (``slm.slm_neighbors``).

Refinement doubles ``k`` and halves the step, so ``k * step`` is the same
double at every level and a point keeps the same position through any
number of refinements.  That position is rounded unless the box width is
dyadic: Easom and Goldstein-Price have dyadic widths, but F1-F5 (10.24,
4.096, 2.56, 131.072) do not.

A run's depth is fixed before its loop: the smaller of ``levels``, the
count of levels whose step reaches the tolerance, and its level cap, which
may not pass ``MAX_LEVEL``.

Numbers become Python floats and ints where they are made: ``BoxDomain``,
int arithmetic on ``k``, ``functions.Objective.evaluate``, and the baselines,
which turn each numpy draw into a list of floats as it is drawn and keep
every point a tuple of floats.  The records here hold what their makers
pass, unconverted.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigError, SubgridError

Vector = tuple[float, ...]

# The deepest grid level: a level-L top index, 2**(L-1), is a float to L = 1024.
MAX_LEVEL = 1024


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned search box ``[lower_d, upper_d]`` per dimension."""

    lower: Vector
    upper: Vector

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper) or not lower:
            raise ConfigError("lower/upper must be non-empty and equal length")
        for lo, hi in zip(lower, upper):
            # also refuses NaN and infinite bounds
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ConfigError("need lower < upper and a finite width in every dimension")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @functools.cached_property
    def width(self) -> Vector:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def contains(self, x: Sequence[float]) -> bool:
        """True iff ``x`` has the box's dimension and ``lower <= x <= upper``
        in every coordinate; a NaN coordinate is never contained."""
        return (len(x) == len(self.lower) and all(map(operator.le, self.lower, x))
                and all(map(operator.le, x, self.upper)))

    def center(self) -> Vector:
        return tuple(lo + (hi - lo) / 2.0 for lo, hi in zip(self.lower, self.upper))

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "BoxDomain":
        return cls((lo,) * dim, (hi,) * dim)


@dataclass(frozen=True)
class GridSpec:
    """Refinement grid over a box; level 1 is the box itself, each level
    halves the step."""

    box: BoxDomain
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise SubgridError("level must be >= 1")

    @functools.cached_property
    def step(self) -> Vector:
        scale = 2 ** (self.level - 1)
        return tuple(w / scale for w in self.box.width)

    @property
    def max_index(self) -> int:
        return 2 ** (self.level - 1)


def levels(box: BoxDomain, h_tol: float) -> int:
    """The number of levels whose step is at least a positive ``h_tol`` on
    some axis, 0 when ``h_tol`` exceeds every width.  The level-L step, the width
    times ``2**(1 - L)`` as in ``GridSpec.step``, is scaled by
    ``math.ldexp``: the same double, with no overflow at any level."""
    w = max(box.width)
    return next(n for n in itertools.count() if math.ldexp(w, -n) < h_tol)


@dataclass(frozen=True)
class GridPoint:
    """A grid vertex as integer relative coordinates at a refinement level."""

    k: tuple[int, ...]
    level: int

    @property
    def dim(self) -> int:
        return len(self.k)


def coordinate(lo: float, hi: float, k: int, sd: float) -> float:
    """Position of lattice index ``k`` on the axis ``[lo, hi]`` with step
    ``sd``: ``lo + k * sd``, and ``hi`` exactly for the top index, whose
    offset ``k * sd`` is the width ``hi - lo``.  A smaller offset cannot
    round past ``hi``, so every index lies in ``[lo, hi]`` and the
    positions never decrease as ``k`` grows."""
    d = k * sd
    return lo + d if d < hi - lo else hi


def position_of(p: GridPoint, g: GridSpec) -> Vector:
    """Real position of ``p`` on grid ``g``: ``coordinate`` on each axis,
    so the all-``max_index`` point is ``upper`` exactly."""
    if p.level != g.level:
        raise SubgridError("point level %d != grid level %d" % (p.level, g.level))
    box = g.box
    if len(p.k) != len(box.lower):
        raise SubgridError("point dimension mismatch")
    if min(p.k) < 0 or max(p.k) > g.max_index:
        raise SubgridError("relative coordinates %r outside grid" % (p.k,))
    return tuple(map(coordinate, box.lower, box.upper, p.k, g.step))


def refine(p: GridPoint) -> GridPoint:
    """Same position one level deeper: k doubles, step halves."""
    return GridPoint(tuple(2 * kd for kd in p.k), p.level + 1)


@dataclass(frozen=True)
class Candidate:
    """An evaluated point; ``point`` is set when it lies on a known grid."""

    x: Vector
    f: float
    point: Optional[GridPoint] = None


@dataclass(frozen=True)
class LabeledVertex:
    candidate: Candidate
    label: int
    delta: Vector


@dataclass(frozen=True)
class Cell:
    """Axis-aligned hypercube with side equal to the grid step at ``level``;
    ``anchor`` is the lexicographically smallest vertex."""

    anchor: GridPoint

    @property
    def level(self) -> int:
        return self.anchor.level

    @property
    def dim(self) -> int:
        return self.anchor.dim


def cell_vertices(c: Cell) -> list[GridPoint]:
    """The 2**n vertices of ``c``, anchor first, lexicographic in the 0/1
    offset vector."""
    n = c.dim
    top = 2 ** (c.level - 1)
    if any(kd < 0 or kd + 1 > top for kd in c.anchor.k):
        raise SubgridError("cell %r has a vertex outside the grid" % (c.anchor.k,))
    out = []
    for delta in itertools.product((0, 1), repeat=n):
        out.append(GridPoint(tuple(kd + dd for kd, dd in zip(c.anchor.k, delta)), c.level))
    return out


def lattice_points(c: Cell) -> list[GridPoint]:
    """The 3**n points of ``c`` refined one level: its vertices plus all
    edge/face/center midpoints, expressed on the finer grid."""
    base = refine(c.anchor)
    out = []
    for delta in itertools.product((0, 1, 2), repeat=c.dim):
        out.append(GridPoint(tuple(kd + dd for kd, dd in zip(base.k, delta)), base.level))
    return out


@dataclass
class StepRecord:
    """One refinement level (SLM) or generation (SLMGA) of a run."""

    level: int
    h: Vector
    population: list[Candidate]
    labels: list[LabeledVertex]
    chosen_cell: Optional[Cell]
    best: Candidate


@dataclass
class RunReport:
    """``best`` is the solution the algorithm converged to; ``best_value``
    is the smallest objective value seen over every evaluation, which can
    be lower when a probe visited a better point outside the converged
    region."""

    steps: list[StepRecord]
    best: Candidate
    evaluations: int
    converged: bool
    meta: dict = field(default_factory=dict)
    best_value: Optional[float] = None

    def __post_init__(self):
        if self.best_value is None:
            self.best_value = self.best.f

    @property
    def generations(self) -> int:
        return len(self.steps)


def rank(c: Candidate) -> tuple[float, Vector]:
    """The tie-break rule as a sort key: smaller f first, then the
    lexicographically smaller position."""
    return (c.f, c.x)


def argmin_candidate(cands: Sequence[Candidate]) -> Candidate:
    """Deterministic argmin under ``rank``; the earliest of equal candidates."""
    return min(cands, key=rank)
