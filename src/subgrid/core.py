"""Domain types for dyadic refinement grids.

A grid point's position is derived from its integer relative coordinates
``k`` via ``lower + k * step``.  Refinement doubles ``k`` and halves the
step, so ``k * step`` is the same double at every level and a point keeps
the same position through any number of refinements.  That position is
rounded unless the box width is dyadic: Easom and Goldstein-Price have
dyadic widths, but F1-F5 (10.24, 4.096, 2.56, 131.072) do not.

SLM's neighbour probes are the exception to the integer rule:
``slm.slm_neighbors`` adds the half step to a position in floating point,
so on a non-dyadic box a probe can differ in its last bits from the
lattice point ``lower + k * step`` it stands for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    InvalidCellError,
    InvalidDomainError,
    InvalidGridPointError,
)

Vector = tuple[float, ...]


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
            raise InvalidDomainError("lower/upper must be non-empty and equal length")
        for lo, hi in zip(lower, upper):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidDomainError("need finite lower < upper in every dimension")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def width(self) -> Vector:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        if len(x) != self.dim:
            return False
        return all(lo - tol <= v <= hi + tol for v, lo, hi in zip(x, self.lower, self.upper))

    def clamp(self, x: Sequence[float]) -> Vector:
        return tuple(min(max(v, lo), hi) for v, lo, hi in zip(x, self.lower, self.upper))

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
            raise InvalidGridPointError("level must be >= 1")

    @property
    def step(self) -> Vector:
        scale = 2 ** (self.level - 1)
        return tuple(w / scale for w in self.box.width)

    @property
    def max_index(self) -> int:
        return 2 ** (self.level - 1)

    def refined(self) -> "GridSpec":
        return GridSpec(self.box, self.level + 1)


@dataclass(frozen=True)
class GridPoint:
    """A grid vertex as integer relative coordinates at a refinement level."""

    k: tuple[int, ...]
    level: int

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))

    @property
    def dim(self) -> int:
        return len(self.k)


def position_of(p: GridPoint, g: GridSpec) -> Vector:
    """Real position ``lower + k * step`` of ``p`` on grid ``g``."""
    if p.level != g.level:
        raise InvalidGridPointError("point level %d != grid level %d" % (p.level, g.level))
    if len(p.k) != g.box.dim:
        raise InvalidGridPointError("point dimension mismatch")
    if any(kd < 0 or kd > g.max_index for kd in p.k):
        raise InvalidGridPointError("relative coordinates %r outside grid" % (p.k,))
    return tuple(lo + kd * sd for lo, kd, sd in zip(g.box.lower, p.k, g.step))


def refine(p: GridPoint) -> GridPoint:
    """Same position one level deeper: k doubles, step halves."""
    return GridPoint(tuple(2 * kd for kd in p.k), p.level + 1)


@dataclass(frozen=True)
class Candidate:
    """An evaluated point; ``point`` is set when it lies on a known grid."""

    x: Vector
    f: float
    point: Optional[GridPoint] = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "f", float(self.f))


@dataclass(frozen=True)
class LabeledVertex:
    candidate: Candidate
    label: int
    delta: Vector

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(float(v) for v in self.delta))


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

    def refined(self) -> "Cell":
        return Cell(refine(self.anchor))

    def bounds(self, g: GridSpec) -> tuple[Vector, Vector]:
        lo = position_of(self.anchor, g)
        step = g.step
        return lo, tuple(v + s for v, s in zip(lo, step))

    def contains(self, x: Sequence[float], g: GridSpec, tol: float = 0.0) -> bool:
        lo, hi = self.bounds(g)
        return all(a - tol <= v <= b + tol for v, a, b in zip(x, lo, hi))


def cell_vertices(c: Cell) -> list[GridPoint]:
    """The 2**n vertices of ``c``, anchor first, lexicographic in the 0/1
    offset vector."""
    n = c.dim
    top = 2 ** (c.level - 1)
    if any(kd < 0 or kd + 1 > top for kd in c.anchor.k):
        raise InvalidCellError("cell %r has a vertex outside the grid" % (c.anchor.k,))
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
