import math

import numpy as np
import pytest

from subgrid.errors import DomainError, GradientUnavailableError, SubgridError
from subgrid.functions import REGISTRY, Evaluator, get_objective, objective_names

# Values frozen from an independent 40-digit computation.
KNOWN_VALUES = [
    ("goldstein-price", (0.0, -1.0), 3.0),
    ("goldstein-price", (0.5, -0.7), 50.80185264),
    ("goldstein-price", (-2.0, 2.0), 956600.0),
    ("goldstein-price", (1.0, 1.0), 1876.0),
    ("goldstein-price", (-1.0, 0.0), 278.0),
    ("easom", (math.pi, math.pi), -1.0),
    ("easom", (3.0, 3.0), -0.94156415753649462),
    ("easom", (3.125, 3.125), -0.99917437991842580),
    ("easom", (0.0, 0.0), -2.6752879910742477e-09),
    ("f2", (1.0, 1.0), 0.0),
    ("f2", (0.0, 0.0), 1.0),
    ("f2", (-2.048, 2.048), 469.9523900416),
    ("f2", (0.96, 0.928), 0.005696),
    ("f5", (-32.0, -32.0), 0.99800383881864891),
    ("f5", (0.0, 0.0), 12.670505812885985),
    ("f5", (16.0, 16.0), 18.304309538795726),
]


class TestRegistry:
    def test_names(self):
        assert objective_names() == [
            "easom", "f1", "f2", "f3", "f4", "f5", "goldstein-price"]

    def test_unknown_name(self):
        with pytest.raises(SubgridError):
            get_objective("f9")

    def test_dimensions_and_boxes(self):
        expect = {
            "f1": (3, 5.12), "f2": (2, 2.048), "f3": (5, 5.12),
            "f4": (30, 1.28), "f5": (2, 65.536),
            "goldstein-price": (2, 2.0), "easom": (2, 100.0),
        }
        for name, (dim, half) in expect.items():
            obj = get_objective(name)
            assert obj.dim == dim
            assert obj.box.lower == (-half,) * dim
            assert obj.box.upper == (half,) * dim


class TestValues:
    @pytest.mark.parametrize("name,x,want", KNOWN_VALUES)
    def test_known_values(self, name, x, want):
        got = get_objective(name).evaluate(x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_f1_sphere(self):
        f1 = get_objective("f1")
        assert f1.evaluate((0.0, 0.0, 0.0)) == 0.0
        assert f1.evaluate((1.0, -2.0, 3.0)) == 14.0

    def test_f3_floor_offset(self):
        f3 = get_objective("f3")
        # floor(-5.12) = -6 per coordinate, plus the +30 offset
        assert f3.evaluate((-5.12,) * 5) == 0.0
        assert f3.evaluate((0.0,) * 5) == 30.0
        assert f3.evaluate((5.12,) * 5) == 55.0
        assert f3.evaluate((-5.0,) * 5) == 5.0

    def test_f5_known_optimum_value(self):
        f5 = get_objective("f5")
        x_star, f_star = f5.known_optimum
        assert x_star == (-32.0, -32.0)
        assert abs(f5.evaluate(x_star) - 0.998004) < 1e-5
        assert f5.evaluate(x_star) == pytest.approx(f_star, abs=1e-12)

    def test_out_of_box_raises_unless_clamped(self):
        gp = get_objective("goldstein-price")
        with pytest.raises(DomainError):
            gp.evaluate((3.0, 0.0))
        assert gp.evaluate((3.0, 0.0), clamp=True) == gp.evaluate((2.0, 0.0))


class TestFormulas:
    """Spot values of each objective's formula; lower-dimensional points are
    padded with zeros to the objective's dimension."""

    def test_goldstein_price_optimum(self):
        assert get_objective("goldstein-price").evaluate((0.0, -1.0)) == 3.0

    def test_easom_optimum(self):
        got = get_objective("easom").evaluate((math.pi, math.pi))
        assert got == pytest.approx(-1.0, abs=1e-15)

    def test_easom_underflows_far_away(self):
        # the exponential dies long before the box edge
        assert get_objective("easom").evaluate((-100.0, -100.0)) == 0.0

    def test_sphere(self):
        assert get_objective("f1").evaluate((1.0, -2.0, 3.0)) == 14.0

    def test_rosenbrock(self):
        f2 = get_objective("f2")
        assert f2.evaluate((1.0, 1.0)) == 0.0
        assert f2.evaluate((0.0, 0.0)) == 1.0

    def test_step_floor(self):
        f3 = get_objective("f3")
        assert f3.evaluate((-5.12,) * 5) == 0.0
        assert f3.evaluate((0.9, -0.9, 0.0, 0.0, 0.0)) == 29.0

    def test_quartic(self):
        f4 = get_objective("f4")
        assert f4.noiseless((0.0,) * 30) == 0.0
        # term i is i * x_i^4: 1 * 1 + 2 * 0.5^4
        assert f4.noiseless((1.0, 0.5) + (0.0,) * 28) == 1.125

    def test_shekel_foxholes_basins(self):
        # each foxhole center (a, b) nearly attains its basin value
        f5 = get_objective("f5")
        fox = (-32.0, -16.0, 0.0, 16.0, 32.0)
        for i in range(25):
            a, b = fox[i % 5], fox[i // 5]
            v = f5.evaluate((a, b))
            assert abs(v - 1.0 / (0.002 + 1.0 / (i + 1))) < 1e-3, (i, a, b)


class TestEvaluator:
    def test_counts_cache_misses_only(self):
        ev = Evaluator(get_objective("f1"))
        assert ev((1.0, 2.0, 3.0)) == 14.0
        assert ev((1.0, 2.0, 3.0)) == 14.0
        ev((0.0, 0.0, 0.0))
        assert ev.count == 2

    def test_maximizing_negates(self):
        f2 = get_objective("f2")
        x = (0.5, -0.7)
        assert Evaluator(f2, negate=True)(x) == -f2.evaluate(x)

    def test_new_generation_counts_again(self):
        ev = Evaluator(get_objective("f1"))
        x = (1.0, 2.0, 3.0)
        ev.start_generation(1)
        first = ev(x)
        ev.start_generation(2)
        assert ev(x) == first
        assert ev.count == 2

    def test_common_noise_within_a_generation(self):
        f4 = get_objective("f4")
        ev = Evaluator(f4, seed=3)
        points = [(0.0,) * 30, (0.5,) * 30, (1.0,) + (-0.25,) * 29]

        def noise():
            return [ev(x) - f4.noiseless(x) for x in points]

        ev.start_generation(1)
        first = noise()
        assert first == pytest.approx([first[0]] * len(points), abs=1e-12)
        ev.start_generation(2)
        second = noise()
        assert second == pytest.approx([second[0]] * len(points), abs=1e-12)
        assert second[0] != pytest.approx(first[0], abs=1e-6)


class TestStochasticF4:
    def test_requires_rng(self):
        f4 = get_objective("f4")
        with pytest.raises(SubgridError):
            f4.evaluate((0.0,) * 30)

    def test_seeded_reproducibility(self):
        f4 = get_objective("f4")
        x = (0.1,) * 30
        a = f4.evaluate(x, rng=np.random.default_rng(5))
        b = f4.evaluate(x, rng=np.random.default_rng(5))
        c = f4.evaluate(x, rng=np.random.default_rng(6))
        assert a == b
        assert a != c

    def test_noiseless_companion(self):
        f4 = get_objective("f4")
        assert f4.noiseless((0.0,) * 30) == 0.0
        assert f4.noiseless((0.5,) * 30) == pytest.approx(29.0625, rel=1e-12)

    def test_noise_mean_zero(self):
        f4 = get_objective("f4")
        rng = np.random.default_rng(0)
        draws = [f4.evaluate((0.0,) * 30, rng=rng) for _ in range(10_000)]
        assert abs(float(np.mean(draws))) < 0.5


class TestGradients:
    SMOOTH = ["f1", "f2", "f5", "goldstein-price", "easom"]

    @pytest.mark.parametrize("name", SMOOTH)
    def test_analytic_matches_finite_difference(self, name):
        obj = get_objective(name)
        rng = np.random.default_rng(42)
        lo = np.asarray(obj.box.lower) * 0.95
        hi = np.asarray(obj.box.upper) * 0.95
        for _ in range(100):
            x = tuple(rng.uniform(lo, hi))
            ga = np.asarray(obj.gradient(x))
            gf = np.asarray(obj.fd_gradient(x))
            scale = max(1.0, float(np.max(np.abs(ga))))
            assert np.max(np.abs(ga - gf)) / scale < 1e-5, (name, x)

    def test_finite_difference_one_sided_at_corners(self):
        obj = get_objective("f1")
        for corner in ((obj.box.lower[0],) * 3, (obj.box.upper[0],) * 3):
            g = obj.fd_gradient(corner)
            for gd, xd in zip(g, corner):
                assert gd == pytest.approx(2.0 * xd, rel=1e-5)

    def test_stationary_at_known_optima(self):
        for name in ("f1", "f2", "goldstein-price", "easom"):
            obj = get_objective(name)
            g = obj.gradient(obj.known_optimum[0])
            assert max(abs(v) for v in g) < 1e-9, name

    def test_unavailable_for_rough_objectives(self):
        for name in ("f3", "f4"):
            with pytest.raises(GradientUnavailableError):
                get_objective(name).gradient(get_objective(name).box.center())
