import math

import numpy as np
import pytest

from subgrid.core import BoxDomain
from subgrid.errors import GradientUnavailableError, SubgridError
from subgrid.functions import REGISTRY, Evaluator, Objective, get_objective, objective_names
from subgrid.harness import expression_objective

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
        with pytest.raises(SubgridError, match=r"^goldstein-price: point \(3\.0, 0\.0\) outside box$"):
            gp.evaluate((3.0, 0.0))

    @pytest.mark.parametrize("method", ["evaluate", "noiseless"])
    def test_the_direct_entry_points_check_the_box(self, method):
        # only a caller that vouches for the point skips the check
        gp = get_objective("goldstein-price")
        with pytest.raises(SubgridError, match=r"^goldstein-price: point \(3\.0, 0\.0\) outside box$"):
            getattr(gp, method)((3.0, 0.0))
        assert getattr(gp, method)((3.0, 0.0), in_box=True) == 72150.0
        assert getattr(gp, method)((0.0, -1.0)) == getattr(gp, method)((0.0, -1.0), in_box=True)

    def test_the_evaluator_trusts_placement(self):
        # its callers place their points in the box (tests/test_harness.py::
        # TestEvaluatedPointsLieInTheBox), so it does not check again
        gp = get_objective("goldstein-price")
        assert Evaluator(gp)((3.0, 0.0)) == gp.noiseless((3.0, 0.0), in_box=True)

    @pytest.mark.parametrize("value", [np.float64(2.5), 3, np.int64(4)])
    def test_evaluate_returns_a_python_float(self, value):
        obj = Objective(name="c", box=BoxDomain.cube(0.0, 1.0, 1),
                        eval_fn=lambda x: value)
        got = obj.evaluate((0.5,))
        assert type(got) is float
        assert got == value


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


def reference_f5(x):
    """Shekel's foxholes as one loop over the 25 holes, each computing its
    own sixth powers: the kernel ``functions._f5`` must match bit for bit."""
    fox = (-32.0, -16.0, 0.0, 16.0, 32.0)
    x1, x2 = x
    s = 0.002
    for i in range(25):
        u = x1 - fox[i % 5]
        v = x2 - fox[i // 5]
        u3 = u * u * u
        v3 = v * v * v
        s += 1.0 / ((i + 1) + u3 * u3 + v3 * v3)
    return 1.0 / s


class TestF5MatchesTheReference:
    def test_same_bits_in_the_box_at_the_holes_and_corners(self):
        f5 = get_objective("f5")
        lo, hi = f5.box.lower[0], f5.box.upper[0]
        rng = np.random.default_rng(5)
        points = [tuple(p) for p in rng.uniform(lo, hi, size=(10_000, 2)).tolist()]
        fox = (-32.0, -16.0, 0.0, 16.0, 32.0)
        points += [(a, b) for b in fox for a in fox]
        points += [(a, b) for a in (lo, hi) for b in (lo, hi)]
        assert len(points) == 10_029
        for x in points:
            assert f5.evaluate(x).hex() == reference_f5(x).hex(), x


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

    @pytest.mark.parametrize("seed,generations", [(0, (0,)), (3, (1, 2, 7)), (2**40, (5,))])
    def test_noise_is_a_fresh_generator_per_call(self, seed, generations):
        # the generator is made once per generation; every evaluation still
        # draws what default_rng([seed, generation]) draws first
        f4 = get_objective("f4")
        ev = Evaluator(f4, seed=seed)
        points = [(0.0,) * 30, (0.5,) * 30, (1.0,) + (-0.25,) * 29, (0.5,) * 30]
        for gen in generations:
            if gen:
                ev.start_generation(gen)
            for x in points:
                fresh = f4.evaluate(x, rng=np.random.default_rng([seed, gen]))
                assert ev(x) == fresh


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


class TestEvaluationPins:
    """Values pinned bit for bit, so a change to how an objective is built
    cannot move them."""

    F4_POINTS = [(0.0,) * 30, (0.5,) * 30, tuple((-1) ** i * 0.04 * i for i in range(30))]
    # float.hex of f4.evaluate(point, rng=default_rng(seed)) for seeds 0 and 7
    F4_HEX = [
        ("-0x1.d28216b68886cp+1", "-0x1.8d81c48756661p+3"),
        ("0x1.96afbd292eef2p+4", "0x1.0a3f1dbc54cd0p+4"),
        ("0x1.209542cb4ad12p+8", "0x1.17ce38d47d2f0p+8"),
    ]

    @pytest.mark.parametrize("i", range(3))
    def test_f4_values_under_seeded_noise(self, i):
        f4 = get_objective("f4")
        got = [f4.evaluate(self.F4_POINTS[i], rng=np.random.default_rng(s)).hex()
               for s in (0, 7)]
        assert got == list(self.F4_HEX[i])

    @pytest.mark.parametrize("name", sorted(set(REGISTRY) - {"f4"}))
    def test_deterministic_evaluate_is_noiseless(self, name):
        obj = get_objective(name)
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = tuple(rng.uniform(obj.box.lower, obj.box.upper).tolist())
            assert obj.evaluate(x) == obj.noiseless(x)

    def test_only_f4_is_stochastic(self):
        assert [name for name in objective_names() if get_objective(name).stochastic] == ["f4"]

    def test_dim_is_the_boxes(self):
        objs = list(REGISTRY.values()) + [expression_objective("x1 + x3", 3, -1.0, 2.0)]
        for obj in objs:
            assert obj.dim == obj.box.dim, obj.name
        assert objs[-1].dim == 3


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
