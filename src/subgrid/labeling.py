"""Integer labels from improvement-direction vectors.

A point gets label 0 when every component of its improvement vector is
(tolerantly) nonnegative, otherwise the 1-based index of the last negative
component.  A hypercube cell whose vertex labels cover {0..n} is "complete"
and is the subdivision target of both engines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import Candidate, Cell, GridPoint, cell_vertices
from .errors import (
    DimensionMismatchError,
    InvalidCellError,
    InvalidDeltaError,
    NonFiniteGradientError,
)


class LabelVariant(enum.Enum):
    BEST_NEIGHBOR = "best-neighbor"
    GRADIENT_FIXED_POINT = "gradient-fixed-point"


@dataclass(frozen=True)
class LabelRule:
    variant: LabelVariant = LabelVariant.BEST_NEIGHBOR
    epsilon: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and >= 0")


def label_from_delta(d: Sequence[float], rule: LabelRule | None = None) -> int:
    """Label in {0..n}: 0 if all d_j >= -eps, else max{j : d_j < -eps}."""
    eps = rule.epsilon if rule is not None else 0.0
    if not d:
        raise InvalidDeltaError("empty delta")
    label = 0
    for j, dj in enumerate(d, start=1):
        if not math.isfinite(dj):
            raise InvalidDeltaError("non-finite delta component %r" % (dj,))
        if dj < -eps:
            label = j
    return label


def delta_of(p: Candidate, best: Candidate) -> tuple[float, ...]:
    """Componentwise ``best.x - p.x``."""
    if len(p.x) != len(best.x):
        raise DimensionMismatchError("delta_of: %d vs %d" % (len(p.x), len(best.x)))
    return tuple(b - a for a, b in zip(p.x, best.x))


def gradient_delta(x: Sequence[float], grad: Sequence[float]) -> tuple[float, ...]:
    """Improvement vector of the fixed-point map x -> x + grad f(x), which is
    just the gradient itself.  Non-finite entries raise, signalling callers
    to fall back to the best-neighbor rule."""
    if len(x) != len(grad):
        raise DimensionMismatchError("gradient_delta: %d vs %d" % (len(x), len(grad)))
    if any(not math.isfinite(g) for g in grad):
        raise NonFiniteGradientError("gradient has non-finite components")
    return tuple(float(g) for g in grad)


def is_complete(labels: Iterable[int], n: int) -> bool:
    """True iff the multiset covers every label 0..n."""
    return set(range(n + 1)) <= set(labels)


def find_complete_cells(labels: Mapping[GridPoint, int]) -> list[Cell]:
    """All cells whose 2**n vertices are labeled and cover {0..n}, in
    lexicographic anchor order.

    ``labels`` maps grid points of a single level to their integer labels.
    """
    if not labels:
        return []
    points = list(labels)
    n = points[0].dim
    level = points[0].level
    present = set(p.k for p in points)
    out = []
    for p in sorted(points, key=lambda q: q.k):
        cell = Cell(p)
        try:
            verts = cell_vertices(cell)
        except InvalidCellError:
            continue
        if not all(v.k in present for v in verts):
            continue
        if is_complete((labels[v] for v in verts), n):
            out.append(cell)
    return out
