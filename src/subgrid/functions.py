"""Benchmark objective suite: De Jong F1-F5, Goldstein-Price, Easom.

All objectives are minimized over an axis-aligned box.  Out-of-box
evaluation raises a ``SubgridError``, unless the caller passes ``in_box``:
the ``Evaluator`` path does, as it trusts where its points were placed.

``eval_fn`` takes the point alone and gives its value without noise, which
``noiseless`` returns inside the box.  ``evaluate`` adds ``noise_fn(rng, n)``
where there is one: F4's sums one standard-normal draw per quartic term from
the caller's random source, so reproducibility is the caller's choice of seed.

The grid engines evaluate through ``Evaluator`` (cache, count, sense,
common random numbers); the baselines call ``Objective.evaluate`` directly
and pass their own random stream.  Either way the point is a tuple of
Python floats, made so by its caller, and the value is a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import BoxDomain, Vector
from .errors import GradientUnavailableError, SubgridError, clip


@dataclass
class Objective:
    name: str
    box: BoxDomain
    eval_fn: Callable[[Sequence[float]], float]
    gradient_fn: Optional[Callable[[Sequence[float]], Vector]] = None
    known_optimum: Optional[tuple[Vector, float]] = None
    smooth: bool = True
    noise_fn: Optional[Callable[[np.random.Generator, int], float]] = None

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def stochastic(self) -> bool:
        return self.noise_fn is not None

    def noiseless(self, x: Sequence[float], *, in_box: bool = False) -> float:
        """Deterministic value: the objective itself, or F4 without noise."""
        if not in_box and not self.box.contains(x):
            raise SubgridError("%s: point %r outside box" % (self.name, tuple(x)))
        return float(self.eval_fn(x))

    def evaluate(self, x: Sequence[float], rng=None, *, in_box: bool = False) -> float:
        f = self.noiseless(x, in_box=in_box)
        if self.noise_fn is None:
            return f
        if rng is None:
            raise SubgridError("%s is stochastic; pass a random source" % self.name)
        return f + self.noise_fn(rng, len(x))

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
            out.append((self.noiseless(hi) - self.noiseless(lo)) / ((up + down) * h))
        return tuple(out)


class Evaluator:
    """The grid engines' single path from a point to its objective value.

    Counts each evaluation, caches values by position, negates them when
    maximizing, and evaluates stochastic objectives under common random
    numbers: every point of one generation sees the same noise draw, the
    first draws of ``default_rng([seed, generation])``.  The generator is
    made once per generation and its state put back before each draw.
    ``start_generation`` clears the cache and moves the noise on, so a
    point evaluated again in a later generation counts again.  SLM stays
    in generation 0 for its whole run.  The box is not checked: each point
    was placed by ``core.coordinate`` (``slm._place``, ``slm._place_cell``,
    ``slmga.mutate``'s window, ``slmga._sweep``) or kept by
    ``slm.slm_neighbors``' filter."""

    def __init__(self, obj: Objective, negate: bool = False, seed: int = 0):
        self.obj = obj
        self.negate = negate
        self.seed = seed
        self.count = 0
        self.start_generation(0)

    def start_generation(self, generation: int) -> None:
        self.generation = generation
        self.cache: dict[Vector, float] = {}
        self.rng = None
        if self.obj.stochastic:
            self.rng = np.random.default_rng([self.seed, generation])
            self.rng_state = self.rng.bit_generator.state

    def __call__(self, x: Vector) -> float:
        got = self.cache.get(x)
        if got is not None:
            return got
        self.count += 1
        if self.rng is not None:
            self.rng.bit_generator.state = self.rng_state
        f = self.obj.evaluate(x, rng=self.rng, in_box=True)
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


def _f4_noise(rng, n):
    return float(rng.standard_normal(n).sum())


_FOXHOLE = (-32.0, -16.0, 0.0, 16.0, 32.0)


def _f5(x):
    # hole i (1-25) sits at (_FOXHOLE[(i - 1) % 5], _FOXHOLE[(i - 1) // 5]);
    # each axis's five sixth powers, each the square of a cube, are made once
    x1, x2 = x
    u6 = []
    for a in _FOXHOLE:
        u = x1 - a
        u3 = u * u * u
        u6.append(u3 * u3)
    p1, p2, p3, p4, p5 = u6
    s = 0.002
    i = 0
    for b in _FOXHOLE:
        v = x2 - b
        v3 = v * v * v
        v6 = v3 * v3
        s += 1.0 / (i + 1 + p1 + v6)
        s += 1.0 / (i + 2 + p2 + v6)
        s += 1.0 / (i + 3 + p3 + v6)
        s += 1.0 / (i + 4 + p4 + v6)
        s += 1.0 / (i + 5 + p5 + v6)
        i += 5
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
        name="goldstein-price", box=BoxDomain.cube(-2.0, 2.0, 2),
        eval_fn=_gp, gradient_fn=_gp_grad,
        known_optimum=((0.0, -1.0), 3.0)))
    add(Objective(
        name="easom", box=BoxDomain.cube(-100.0, 100.0, 2),
        eval_fn=_easom, gradient_fn=_easom_grad,
        known_optimum=((math.pi, math.pi), -1.0)))
    add(Objective(
        name="f1", box=BoxDomain.cube(-5.12, 5.12, 3),
        eval_fn=_f1, gradient_fn=_f1_grad,
        known_optimum=((0.0, 0.0, 0.0), 0.0)))
    add(Objective(
        name="f2", box=BoxDomain.cube(-2.048, 2.048, 2),
        eval_fn=_f2, gradient_fn=_f2_grad,
        known_optimum=((1.0, 1.0), 0.0)))
    add(Objective(
        name="f3", box=BoxDomain.cube(-5.12, 5.12, 5),
        eval_fn=_f3, smooth=False,
        known_optimum=((-5.12,) * 5, 0.0)))
    add(Objective(
        name="f4", box=BoxDomain.cube(-1.28, 1.28, 30),
        eval_fn=_f4_noiseless, noise_fn=_f4_noise, smooth=False,
        known_optimum=((0.0,) * 30, 0.0)))
    add(Objective(
        name="f5", box=BoxDomain.cube(-65.536, 65.536, 2),
        eval_fn=_f5, gradient_fn=_f5_grad,
        known_optimum=((-32.0, -32.0), 0.998003838818649)))
    return reg


REGISTRY = _build_registry()


def get_objective(name: str) -> Objective:
    try:
        return REGISTRY[name]
    except KeyError:
        raise SubgridError(
            "unknown objective %r (have: %s)" % (clip(name), ", ".join(sorted(REGISTRY)))) from None


def objective_names() -> list[str]:
    return sorted(REGISTRY)
