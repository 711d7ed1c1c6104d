"""Benchmark objective suite: De Jong F1-F5, Goldstein-Price, Easom.

All objectives are minimized over an axis-aligned box.  Out-of-box
evaluation raises ``DomainError`` unless the call asks for clamping; the
engines discard out-of-box candidates instead of clamping, so the default
stays strict.

F4 is stochastic: each of its 30 quartic terms gets one standard-normal
draw from the caller-supplied random source, so reproducibility is the
caller's choice of seed.  ``noiseless`` evaluates the quartic part alone.

The grid engines evaluate through ``Evaluator`` (cache, count, sense,
common random numbers); the baselines call ``Objective.evaluate`` directly
and pass their own random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import BoxDomain, Vector
from .errors import DomainError, GradientUnavailableError, SubgridError


@dataclass
class Objective:
    name: str
    dim: int
    box: BoxDomain
    eval_fn: Callable[..., float]
    gradient_fn: Optional[Callable[[Sequence[float]], Vector]] = None
    known_optimum: Optional[tuple[Vector, float]] = None
    stochastic: bool = False
    seedable: bool = False
    smooth: bool = True
    noiseless_fn: Optional[Callable[[Sequence[float]], float]] = None

    def __call__(self, x: Sequence[float], rng=None, clamp: bool = False) -> float:
        return self.evaluate(x, rng=rng, clamp=clamp)

    def evaluate(self, x: Sequence[float], rng=None, clamp: bool = False) -> float:
        if clamp:
            x = self.box.clamp(x)
        elif not self.box.contains(x):
            raise DomainError("%s: point %r outside box" % (self.name, tuple(x)))
        if self.stochastic:
            if rng is None:
                raise SubgridError("%s is stochastic; pass a random source" % self.name)
            return self.eval_fn(x, rng)
        return self.eval_fn(x)

    def noiseless(self, x: Sequence[float], clamp: bool = False) -> float:
        """Deterministic value: the objective itself, or F4 without noise."""
        if self.noiseless_fn is not None:
            if clamp:
                x = self.box.clamp(x)
            elif not self.box.contains(x):
                raise DomainError("%s: point %r outside box" % (self.name, tuple(x)))
            return self.noiseless_fn(x)
        return self.evaluate(x, clamp=clamp)

    def gradient(self, x: Sequence[float]) -> Vector:
        """Analytic gradient where defined, else central finite differences.

        Raises ``GradientUnavailableError`` for discontinuous (F3) and
        stochastic (F4) objectives."""
        if not self.smooth:
            raise GradientUnavailableError("%s has no usable gradient" % self.name)
        if self.gradient_fn is not None:
            return tuple(self.gradient_fn(x))
        return self.fd_gradient(x)

    def fd_gradient(self, x: Sequence[float]) -> Vector:
        """Central differences with per-coordinate step 1e-6*max(1, |x_d|)
        (at most half the box width); one-sided along a coordinate where a
        step would leave the box."""
        if not self.smooth:
            raise GradientUnavailableError("%s has no usable gradient" % self.name)
        x = tuple(float(v) for v in x)
        out = []
        for d in range(self.dim):
            h = min(1e-6 * max(1.0, abs(x[d])), self.box.width[d] / 2.0)
            up = x[d] + h <= self.box.upper[d]
            down = x[d] - h >= self.box.lower[d]
            hi = list(x)
            lo = list(x)
            if up:
                hi[d] += h
            if down:
                lo[d] -= h
            out.append((self.noiseless(hi, clamp=False) - self.noiseless(lo, clamp=False))
                       / ((up + down) * h))
        return tuple(out)


class Evaluator:
    """The grid engines' single path from a point to its objective value.

    Counts each evaluation, caches values by position, negates them when
    maximizing, and evaluates stochastic objectives under common random
    numbers: every point of one generation sees the same noise draw, seeded
    by ``(seed, generation)``.  ``start_generation`` clears the cache and
    moves the noise on, so a point evaluated again in a later generation
    counts again.  SLM stays in generation 0 for its whole run."""

    def __init__(self, obj: Objective, negate: bool = False, seed: int = 0):
        self.obj = obj
        self.negate = negate
        self.seed = seed
        self.generation = 0
        self.count = 0
        self.cache: dict[Vector, float] = {}

    def start_generation(self, generation: int) -> None:
        self.generation = generation
        self.cache = {}

    def __call__(self, x: Vector) -> float:
        got = self.cache.get(x)
        if got is not None:
            return got
        self.count += 1
        rng = np.random.default_rng([self.seed, self.generation]) if self.obj.stochastic else None
        f = self.obj.evaluate(x, rng=rng)
        if self.negate:
            f = -f
        self.cache[x] = f
        return f


def _gp(x):
    x1, x2 = x
    a = x1 + x2 + 1.0
    b = 2.0 * x1 - 3.0 * x2
    p = 19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 * x2
    q = 18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 * x2
    return (1.0 + a * a * p) * (30.0 + b * b * q)


def _gp_grad(x):
    x1, x2 = x
    a = x1 + x2 + 1.0
    b = 2.0 * x1 - 3.0 * x2
    p = 19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 * x2
    q = 18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 * x2
    dp = -14.0 + 6.0 * x1 + 6.0 * x2  # same in both coordinates
    A = 1.0 + a * a * p
    B = 30.0 + b * b * q
    dA = 2.0 * a * p + a * a * dp
    dB1 = 4.0 * b * q + b * b * (-32.0 + 24.0 * x1 - 36.0 * x2)
    dB2 = -6.0 * b * q + b * b * (48.0 - 36.0 * x1 + 54.0 * x2)
    return (dA * B + A * dB1, dA * B + A * dB2)


def _easom(x):
    x1, x2 = x
    u = x1 - math.pi
    v = x2 - math.pi
    return -math.cos(x1) * math.cos(x2) * math.exp(-(u * u + v * v))


def _easom_grad(x):
    x1, x2 = x
    u = x1 - math.pi
    v = x2 - math.pi
    e = math.exp(-(u * u + v * v))
    c1, c2 = math.cos(x1), math.cos(x2)
    s1, s2 = math.sin(x1), math.sin(x2)
    return (e * (s1 * c2 + 2.0 * u * c1 * c2), e * (c1 * s2 + 2.0 * v * c1 * c2))


def _f1(x):
    s = 0.0
    for v in x:
        s += v * v
    return s


def _f1_grad(x):
    return tuple(2.0 * v for v in x)


def _f2(x):
    x1, x2 = x
    u = x1 * x1 - x2
    v = 1.0 - x1
    return 100.0 * u * u + v * v


def _f2_grad(x):
    x1, x2 = x
    u = x1 * x1 - x2
    return (400.0 * x1 * u - 2.0 * (1.0 - x1), -200.0 * u)


def _f3(x):
    s = 30.0
    for v in x:
        s += math.floor(v)
    return s


def _f4_noiseless(x):
    s = 0.0
    for i, v in enumerate(x, start=1):
        v2 = v * v
        s += i * v2 * v2
    return s


def _f4(x, rng):
    noise = rng.standard_normal(len(x))
    return _f4_noiseless(x) + float(noise.sum())


_FOXHOLE = (-32.0, -16.0, 0.0, 16.0, 32.0)


def _f5(x):
    x1, x2 = x
    s = 0.002
    for i in range(25):
        u = x1 - _FOXHOLE[i % 5]
        v = x2 - _FOXHOLE[i // 5]
        u3 = u * u * u
        v3 = v * v * v
        s += 1.0 / ((i + 1) + u3 * u3 + v3 * v3)
    return 1.0 / s


def _f5_grad(x):
    x1, x2 = x
    denom = 0.002
    d1 = 0.0
    d2 = 0.0
    for i in range(25):
        u = x1 - _FOXHOLE[i % 5]
        v = x2 - _FOXHOLE[i // 5]
        c = (i + 1) + u**6 + v**6
        denom += 1.0 / c
        d1 += 6.0 * u**5 / (c * c)
        d2 += 6.0 * v**5 / (c * c)
    return (d1 / (denom * denom), d2 / (denom * denom))


def _build_registry() -> dict[str, Objective]:
    reg = {}

    def add(obj):
        reg[obj.name] = obj

    add(Objective(
        name="goldstein-price", dim=2, box=BoxDomain.cube(-2.0, 2.0, 2),
        eval_fn=_gp, gradient_fn=_gp_grad,
        known_optimum=((0.0, -1.0), 3.0)))
    add(Objective(
        name="easom", dim=2, box=BoxDomain.cube(-100.0, 100.0, 2),
        eval_fn=_easom, gradient_fn=_easom_grad,
        known_optimum=((math.pi, math.pi), -1.0)))
    add(Objective(
        name="f1", dim=3, box=BoxDomain.cube(-5.12, 5.12, 3),
        eval_fn=_f1, gradient_fn=_f1_grad,
        known_optimum=((0.0, 0.0, 0.0), 0.0)))
    add(Objective(
        name="f2", dim=2, box=BoxDomain.cube(-2.048, 2.048, 2),
        eval_fn=_f2, gradient_fn=_f2_grad,
        known_optimum=((1.0, 1.0), 0.0)))
    add(Objective(
        name="f3", dim=5, box=BoxDomain.cube(-5.12, 5.12, 5),
        eval_fn=_f3, smooth=False,
        known_optimum=((-5.12,) * 5, 0.0)))
    add(Objective(
        name="f4", dim=30, box=BoxDomain.cube(-1.28, 1.28, 30),
        eval_fn=_f4, stochastic=True, seedable=True, smooth=False,
        noiseless_fn=_f4_noiseless,
        known_optimum=((0.0,) * 30, 0.0)))
    add(Objective(
        name="f5", dim=2, box=BoxDomain.cube(-65.536, 65.536, 2),
        eval_fn=_f5, gradient_fn=_f5_grad,
        known_optimum=((-32.0, -32.0), 0.998003838818649)))
    return reg


REGISTRY = _build_registry()


def get_objective(name: str) -> Objective:
    try:
        return REGISTRY[name]
    except KeyError:
        raise SubgridError(
            "unknown objective %r (have: %s)" % (name, ", ".join(sorted(REGISTRY)))) from None


def objective_names() -> list[str]:
    return sorted(REGISTRY)
