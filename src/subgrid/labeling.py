"""Integer labels from improvement-direction vectors.

A point gets label 0 when every component of its improvement vector is
(tolerantly) nonnegative, otherwise the 1-based index of the last negative
component.  A hypercube cell whose vertex labels cover {0..n} is "complete"
and is the subdivision target of both engines (``slm._region_cells``).
``find_complete_cells`` is the standalone form, which the tests compare
against; it is not on the engines' path.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import Candidate, Cell, GridPoint
from .errors import ConfigError, GradientUnavailableError, SubgridError


class LabelVariant(enum.Enum):
    BEST_NEIGHBOR = "best-neighbor"
    GRADIENT_FIXED_POINT = "gradient-fixed-point"


@dataclass(frozen=True)
class LabelRule:
    variant: LabelVariant = LabelVariant.BEST_NEIGHBOR
    epsilon: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ConfigError("epsilon must be finite and >= 0")


def label_from_delta(d: Sequence[float], rule: LabelRule | None = None) -> int:
    """Label in {0..n}: 0 if all d_j >= -eps, else max{j : d_j < -eps}."""
    eps = rule.epsilon if rule is not None else 0.0
    if not d:
        raise SubgridError("empty delta")
    label = 0
    for j, dj in enumerate(d, start=1):
        if not math.isfinite(dj):
            raise SubgridError("non-finite delta component %r" % (dj,))
        if dj < -eps:
            label = j
    return label


def delta_of(p: Candidate, best: Candidate) -> tuple[float, ...]:
    """Componentwise ``best.x - p.x``."""
    if len(p.x) != len(best.x):
        raise SubgridError("delta_of: %d vs %d" % (len(p.x), len(best.x)))
    return tuple(b - a for a, b in zip(p.x, best.x))


def gradient_delta(x: Sequence[float], grad: Sequence[float]) -> tuple[float, ...]:
    """Improvement vector of the fixed-point map x -> x + grad f(x), which is
    just the gradient itself.  Non-finite entries raise, signalling callers
    to fall back to the best-neighbor rule."""
    if len(x) != len(grad):
        raise SubgridError("gradient_delta: %d vs %d" % (len(x), len(grad)))
    if any(not math.isfinite(g) for g in grad):
        raise GradientUnavailableError("gradient has non-finite components")
    return tuple(float(g) for g in grad)


def is_complete(labels: Iterable[int], n: int) -> bool:
    """True iff the multiset covers every label 0..n."""
    return set(range(n + 1)) <= set(labels)


def find_complete_cells(labels: Mapping[GridPoint, int]) -> list[Cell]:
    """All cells whose 2**n vertices are labeled and cover {0..n}, in
    lexicographic anchor order.

    ``labels`` maps grid points of a single level to their integer labels.
    A cell's vertices are its anchor's ``k`` plus each 0/1 offset vector, in
    the order of ``cell_vertices``; a cell with a vertex off the grid is
    skipped.
    """
    if not labels:
        return []
    points = sorted(labels, key=lambda q: q.k)
    n = points[0].dim
    top = 2 ** (points[0].level - 1)
    by_k = {p.k: label for p, label in labels.items()}
    offsets = list(itertools.product((0, 1), repeat=n))
    out = []
    for p in points:
        if min(p.k) < 0 or max(p.k) + 1 > top:
            continue
        verts = [tuple(map(operator.add, p.k, off)) for off in offsets]
        if all(v in by_k for v in verts) and is_complete((by_k[v] for v in verts), n):
            out.append(Cell(p))
    return out
