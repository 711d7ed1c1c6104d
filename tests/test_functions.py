import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid.baselines import RsConfig, random_search
from subgrid.core import BoxDomain
from subgrid.errors import GradientUnavailableError, SubgridError
from subgrid.functions import (REGISTRY, Evaluator, Objective, _f3, _f4_noiseless, get_objective,
                               objective_names)
from subgrid.harness import emit_table, expression_objective
from subgrid.slm import NeighborScheme, Sense, SlmConfig, slm_run
from subgrid.slmga import GaConfig, ga_run
from test_golden_bytes import noisy_f2

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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
        # only a caller of evaluate that vouches for the point skips the check
        gp = get_objective("goldstein-price")
        with pytest.raises(SubgridError, match=r"^goldstein-price: point \(3\.0, 0\.0\) outside box$"):
            getattr(gp, method)((3.0, 0.0))
        assert getattr(gp, method)((0.0, -1.0)) == gp.eval_fn((0.0, -1.0))
        if method == "evaluate":
            assert gp.evaluate((3.0, 0.0), in_box=True) == 72150.0

    def test_the_evaluator_trusts_placement(self):
        # its callers place their points in the box (tests/test_harness.py::
        # TestEvaluatedPointsLieInTheBox), so it does not check again
        gp = get_objective("goldstein-price")
        assert Evaluator(gp).value((3.0, 0.0)) == gp.eval_fn((3.0, 0.0)) == 72150.0

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


def reference_f3(x):
    """The step function as a loop adding each floor to 30.0."""
    s = 30.0
    for v in x:
        s += math.floor(v)
    return s


def reference_f4_noiseless(x):
    """F4 without noise, weighted by ``enumerate``'s ints: the kernel
    ``functions._f4_noiseless`` must match bit for bit."""
    s = 0.0
    for i, v in enumerate(x, start=1):
        v2 = v * v
        s += i * v2 * v2
    return s


class TestF3AndF4MatchTheReferences:
    def test_same_bits_in_the_box_and_at_its_corners(self):
        f3, f4 = get_objective("f3"), get_objective("f4")
        rng = np.random.default_rng(4)
        for obj, reference, kernel in ((f3, reference_f3, _f3),
                                       (f4, reference_f4_noiseless, _f4_noiseless)):
            lo, hi, n = obj.box.lower[0], obj.box.upper[0], obj.dim
            points = [tuple(p) for p in rng.uniform(lo, hi, size=(2_000, n)).tolist()]
            points += [(lo,) * n, (hi,) * n, (0.0,) * n, (-0.0,) * n,
                       tuple(float(round(v)) for v in np.linspace(lo, hi, n))]
            for x in points:
                assert kernel(x).hex() == obj.noiseless(x).hex() == reference(x).hex(), x

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 100])
    def test_f4_same_bits_in_other_dimensions(self, n):
        rng = np.random.default_rng(n)
        points = [tuple(p) for p in rng.uniform(-1e3, 1e3, size=(500, n)).tolist()]
        points += [tuple(p) for p in rng.standard_normal((500, n)).tolist()]
        points += [(5e-324,) * n, (1e77,) * n]
        for x in points:
            assert _f4_noiseless(x).hex() == reference_f4_noiseless(x).hex(), x


class TestEvaluator:
    def test_counts_cache_misses_only(self):
        ev = Evaluator(get_objective("f1"))
        assert ev.value((1.0, 2.0, 3.0)) == 14.0
        assert ev.value((1.0, 2.0, 3.0)) == 14.0
        ev.value((0.0, 0.0, 0.0))
        assert ev.count == 2

    def test_values_are_the_objectives_own(self):
        # SLM applies the sign when maximizing; the Evaluator never does
        f2 = get_objective("f2")
        x = (0.5, -0.7)
        assert Evaluator(f2).value(x) == f2.evaluate(x) > 0.0

    def test_new_generation_counts_again(self):
        ev = Evaluator(get_objective("f1"))
        x = (1.0, 2.0, 3.0)
        ev.start_generation(1)
        first = ev.value(x)
        ev.start_generation(2)
        assert ev.value(x) == first
        assert ev.count == 2

    def test_common_noise_within_a_generation(self):
        f4 = get_objective("f4")
        ev = Evaluator(f4, seed=3)
        points = [(0.0,) * 30, (0.5,) * 30, (1.0,) + (-0.25,) * 29]

        def noise():
            return [ev.value(x) - f4.noiseless(x) for x in points]

        ev.start_generation(1)
        first = noise()
        assert first == pytest.approx([first[0]] * len(points), abs=1e-12)
        ev.start_generation(2)
        second = noise()
        assert second == pytest.approx([second[0]] * len(points), abs=1e-12)
        assert second[0] != pytest.approx(first[0], abs=1e-6)

    @pytest.mark.parametrize("seed,generations", [(0, (0,)), (3, (1, 2, 7)), (2**40, (5,))])
    def test_noise_is_a_fresh_generator_per_call(self, seed, generations):
        # the noise is drawn once per generation; every evaluation still
        # adds what default_rng([seed, generation]) draws first
        f4 = get_objective("f4")
        ev = Evaluator(f4, seed=seed)
        points = [(0.0,) * 30, (0.5,) * 30, (1.0,) + (-0.25,) * 29, (0.5,) * 30]
        for gen in generations:
            if gen:
                ev.start_generation(gen)
            for x in points:
                fresh = f4.evaluate(x, rng=np.random.default_rng([seed, gen]))
                assert ev.value(x) == fresh

    @pytest.mark.parametrize("run,cfg", [(ga_run, GaConfig(h_tol=0.02)),
                                         (slm_run, SlmConfig(h_tol=0.05))], ids=["slmga", "slm"])
    def test_noise_is_drawn_once_per_generation(self, run, cfg):
        # SLMGA's generation 0 seeds the corners and each generation after
        # draws anew; SLM stays in generation 0
        draws = []
        f4_noise = get_objective("f4").noise_fn

        def counting(rng, n):
            draws.append(n)
            return f4_noise(rng, n)

        report = run(noisy_f2(counting), cfg)
        assert report.evaluations > len(draws)
        assert len(draws) == (report.generations + 1 if run is ga_run else 1)

    @pytest.mark.parametrize("run,obj,cfg", [
        (ga_run, get_objective("f4"), GaConfig(h_tol=0.01)),
        (ga_run, noisy_f2(), GaConfig(h_tol=0.02)),
        (ga_run, get_objective("f2"), GaConfig(h_tol=1e-3, mutation_rate=0.5)),
        *[(slm_run, obj, SlmConfig(h_tol=1e-3, neighbor_scheme=scheme, sense=sense))
          for obj in (get_objective("f2"), noisy_f2())
          for scheme in NeighborScheme for sense in Sense],
    ], ids=["f4", "noisy-f2", "slmga-f2"] + [
        "slm-%s-%s-%s" % (name, scheme.value, sense.value)
        for name in ("f2", "noisy-f2") for scheme in NeighborScheme for sense in Sense])
    def test_traced_kernel_calls_are_the_evaluations(self, monkeypatch, run, obj, cfg):
        # the benchmark's contract: one Objective.evaluate per evaluation,
        # the noise included, and none for a value the cache holds; SLM's
        # cache spans its run, and a maximizing run reads it through its sign
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from tracer import KERNEL_SPAN, Tracer

        with Tracer().installed() as tracer:
            report = run(obj, cfg)
        assert tracer.stats[KERNEL_SPAN].calls == report.evaluations
        if run is slm_run:
            probes = tracer.stats["slm.best_neighbor"].probes
            assert probes > tracer.stats["slm.best_neighbor"].kernel_calls > 0

    def test_an_evaluator_is_freed_with_its_last_reference(self):
        # its cache does not refer back to it, so no cyclic collection is
        # needed to free the values it holds
        ev = Evaluator(get_objective("f1"))
        ev.value((1.0, 2.0, 3.0))
        gone = weakref.ref(ev)
        gc.disable()
        try:
            del ev
            assert gone() is None
        finally:
            gc.enable()

    def test_count_banks_the_misses_of_every_generation(self):
        calls = []

        def kernel(x):
            calls.append(x)
            if x[0] < 0.0:
                raise ZeroDivisionError("undefined")
            return math.nan if x[0] == 0.5 else x[0]

        ev = Evaluator(Objective("partial", BoxDomain.cube(-1.0, 1.0, 1), kernel))
        value = ev.value
        assert value((0.25,)) == value((0.25,)) == 0.25
        assert math.isnan(value((0.5,))) and math.isnan(value((0.5,)))  # NaN is cached
        for _ in range(2):  # an evaluation that raises is counted, and not cached
            with pytest.raises(ZeroDivisionError):
                value((-0.5,))
        assert (ev.count, value.cache_info().hits, len(calls)) == (4, 2, 4)
        ev.start_generation(1)
        assert (ev.count, value.cache_info().hits) == (4, 0)
        assert value((0.25,)) == value((0.25,)) == value((0.25,))
        ev.start_generation(2)
        ev.start_generation(3)
        assert value((0.5,)) != value((0.5,))
        assert (ev.count, value.cache_info().hits, len(calls)) == (6, 1, 6)

    def test_values_are_python_floats_whatever_the_noise_returns(self):
        obj = noisy_f2(lambda rng, n: rng.standard_normal(n).sum())
        x = (0.5, -0.7)
        assert type(obj.evaluate(x, rng=np.random.default_rng(0))) is float
        assert type(Evaluator(obj).value(x)) is float
        rep = slm_run(obj, SlmConfig(h_tol=0.5, sense=Sense.MAXIMIZE))
        assert {type(lv.candidate.f) for s in rep.steps for lv in s.labels} == {float}
        csv = emit_table([random_search(obj, RsConfig(budget=20))], "csv")
        assert "np.float64(" not in csv


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


# [1, 1 + 2**-52]^2: one ulp wide, so 1 + h rounds to 1 at the lower corner
MICRO = BoxDomain((1.0, 1.0), (1.0000000000000002,) * 2)


def _square_sum(x):
    return sum(v * v for v in x)


@st.composite
def _box_and_point(draw):
    """A box of 1-3 axes, each from one ulp or 5e-324 up to 1e3 wide, and a
    point in it: a corner coordinate or any between."""
    lower, upper, x = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
        hi = max(lo + draw(st.floats(5e-324, 1e3)), math.nextafter(lo, math.inf))
        lower.append(lo)
        upper.append(hi)
        x.append(draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))))
    return BoxDomain(tuple(lower), tuple(upper)), tuple(x)


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

    def test_eval_fn_sees_tuples(self):
        seen = []
        obj = Objective("t", BoxDomain.cube(-1.0, 1.0, 2), lambda x: seen.append(type(x)) or 0.0)
        assert obj.fd_gradient((0.1, 0.2)) == (0.0, 0.0)
        assert seen == [tuple] * 4

    def test_a_dict_lookup_eval_fn(self):
        table = {}
        obj = Objective("d", BoxDomain.cube(-1.0, 1.0, 2),
                        lambda x: table.setdefault(x, float(sum(x))))
        assert obj.fd_gradient((0.5, 0.5)) == pytest.approx((1.0, 1.0), rel=1e-9)
        assert len(table) == 4

    def test_no_step_fits_a_subnormal_width(self):
        obj = Objective("s", BoxDomain((0.0,), (5e-324,)), _square_sum)
        for x in ((0.0,), (5e-324,)):
            with pytest.raises(GradientUnavailableError, match=r"^s: no step fits on axis 1$"):
                obj.fd_gradient(x)

    def test_one_ulp_box(self):
        # the lower corner's step rounds away; the upper corner's one-sided
        # step spans the box, one ulp of 2.2e-16, and the slope is about 2
        obj = Objective("q", MICRO, _square_sum)
        with pytest.raises(GradientUnavailableError):
            obj.fd_gradient(MICRO.lower)
        g = obj.fd_gradient(MICRO.upper)
        assert max(abs(v - 2.0) for v in g) < 1e-9

    @given(box_x=_box_and_point())
    @settings(max_examples=200, deadline=None)
    def test_a_tuple_of_floats_or_no_step(self, box_x):
        box, x = box_x
        try:
            g = Objective("q", box, _square_sum).fd_gradient(x)
        except GradientUnavailableError:
            return
        assert type(g) is tuple and len(g) == box.dim
        assert all(type(v) is float for v in g)

    def test_stationary_at_known_optima(self):
        for name in ("f1", "f2", "goldstein-price", "easom"):
            obj = get_objective(name)
            g = obj.gradient(obj.known_optimum[0])
            assert max(abs(v) for v in g) < 1e-9, name

    def test_no_finite_differences_for_f3(self):
        obj = get_objective("f3")
        with pytest.raises(GradientUnavailableError, match=r"^f3 has no usable gradient$"):
            obj.fd_gradient(obj.box.center())

    def test_unavailable_for_rough_objectives(self):
        for name in ("f3", "f4"):
            with pytest.raises(GradientUnavailableError):
                get_objective(name).gradient(get_objective(name).box.center())
