import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_harness import _decimal_box

from subgrid.baselines import (
    BLOCK,
    REPORTED_GENERATIONS,
    DeConfig,
    RsConfig,
    RswConfig,
    SaConfig,
    differential_evolution,
    random_search,
    random_walk_search,
    simulated_annealing,
    start_point,
    _argmin,
    _block_reader,
    _bounded_draw,
    _clipped_step,
    _random_weight,
    _report,
    _track,
    _uniform_point,
)
from subgrid.core import BoxDomain, Candidate
from subgrid.errors import ConfigError
from subgrid.functions import Objective, _f4_noise, _f4_noiseless, get_objective
from subgrid.harness import expression_objective

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("run,cfg", [
    (random_search, RsConfig(budget=5)),
    (random_walk_search, RswConfig(budget=5)),
    (simulated_annealing, SaConfig(budget=5)),
    (differential_evolution, DeConfig(generations=2)),
])
def test_report_names_algorithm_then_objective(run, cfg):
    meta = run(get_objective("f2"), cfg).meta
    assert list(meta)[:2] == ["algorithm", "objective"]
    assert meta["objective"] == "f2"


@pytest.mark.parametrize("run,cfg", [
    (random_walk_search, RswConfig(initial=(1, -1), budget=5, step_scale=1e-9)),
    (simulated_annealing, SaConfig(initial=(1, -1), budget=5, step_scale=1e-9)),
])
def test_an_integer_initial_point_starts_as_floats(run, cfg):
    # called directly, not through harness.build_config, which parses floats
    rep = run(get_objective("f2"), cfg)
    assert [type(v) for s in rep.steps for v in s.best.x] == [float] * 2 * len(rep.steps)


class TestReferenceConstants:
    def test_de_row(self):
        assert REPORTED_GENERATIONS["de"] == {
            "f1": 260, "f2": 670, "f3": 125, "f4": 2300, "f5": 1200}

    def test_all_methods_cover_all_functions(self):
        for method, row in REPORTED_GENERATIONS.items():
            assert set(row) == {"f1", "f2", "f3", "f4", "f5"}, method


class TestRandomSearch:
    def test_deterministic_and_in_box(self):
        obj = get_objective("f2")
        a = random_search(obj, RsConfig(budget=300, seed=1))
        b = random_search(obj, RsConfig(budget=300, seed=1))
        assert a.best == b.best
        assert a.evaluations == 300
        assert obj.box.contains(a.best.x)

    def test_improves_with_budget(self):
        obj = get_objective("f2")
        small = random_search(obj, RsConfig(budget=50, seed=7))
        large = random_search(obj, RsConfig(budget=5000, seed=7))
        assert large.best.f <= small.best.f

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            RsConfig(budget=0)


class TestRandomWalkSearch:
    def test_descends_from_start(self):
        obj = get_objective("f2")
        start = (1.5, -1.5)
        rep = random_walk_search(obj, RswConfig(initial=start, budget=400, seed=2))
        assert rep.best.f <= obj.evaluate(start)
        assert obj.box.contains(rep.best.x)

    def test_initial_outside_box_rejected(self):
        obj = get_objective("f2")
        with pytest.raises(ConfigError):
            random_walk_search(obj, RswConfig(initial=(5.0, 5.0), budget=10, seed=0))

    @pytest.mark.parametrize("kwargs", [
        {"step_scale": 0.0}, {"step_scale": -1.0}, {"step_scale": math.nan},
        {"patience": 0}, {"patience": -3},
        {"budget": 0}, {"contraction": 0.0}, {"contraction": 1.0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RswConfig(**kwargs)

    def test_meta_echoes_hyperparameters(self):
        obj = get_objective("f2")
        rep = random_walk_search(obj, RswConfig(initial=(0.0, 0.0), budget=20, seed=0))
        assert rep.meta["algorithm"] == "rsw"
        for key in ("budget", "seed", "initial", "step_scale", "contraction", "patience"):
            assert key in rep.meta


class TestSimulatedAnnealing:
    def test_behaves_as_descent_in_cold_limit(self):
        obj = get_objective("f1")
        for seed in range(5):
            rep = simulated_annealing(obj, SaConfig(budget=300, seed=seed, t0=1e-9))
            start_f = obj.evaluate(obj.box.center())
            assert rep.best.f <= start_f

    def test_improvements_always_accepted(self):
        # with delta <= 0 the Metropolis rule is probability 1; the best
        # value can therefore never regress across a run
        obj = get_objective("f1")
        rep = simulated_annealing(obj, SaConfig(budget=500, seed=3))
        values = [s.best.f for s in rep.steps]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        obj = get_objective("goldstein-price")
        a = simulated_annealing(obj, SaConfig(budget=200, seed=11))
        b = simulated_annealing(obj, SaConfig(budget=200, seed=11))
        assert a.best == b.best

    def test_a_run_cooled_to_zero_finishes(self):
        # cooling 0.5 takes t0 = 1e-3 to 0.0 in 1,065 steps, and each gene
        # rounds back to the point long before: those trials are not evaluated
        obj, calls = _counting(get_objective("f4"))
        rep = simulated_annealing(obj, SaConfig(budget=2000, cooling=0.5))
        assert rep.evaluations == len(calls) < 100
        values = [s.best.f for s in rep.steps]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_every_uphill_move_draws_at_any_temperature(self, monkeypatch):
        # every value exceeds the last, so each evaluated trial is uphill and
        # draws its double; a trial that rounds back to the point is no move
        made, default_rng = [], np.random.default_rng

        def counting_rng(seed):
            made.append(_CountingGenerator(default_rng(seed)))
            return made[-1]

        calls = itertools.count()
        obj = Objective("uphill", BoxDomain.cube(-1.0, 1.0, 2), lambda x: float(next(calls)))
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        rep = simulated_annealing(obj, SaConfig(budget=1200, cooling=0.5))
        assert 1e-3 * 0.5**1200 == 0.0
        assert made[0].randoms == rep.evaluations - 1 > 0
        assert rep.best.x == obj.box.center()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SaConfig(cooling=1.5)
        with pytest.raises(ConfigError):
            SaConfig(t0=0.0)
        with pytest.raises(ConfigError):
            SaConfig(step_scale=-1.0)
        with pytest.raises(ConfigError, match=r"^budget must be >= 1$"):
            SaConfig(budget=0)


class _CountingGenerator:
    """A numpy Generator that counts its ``random`` and ``standard_normal``
    calls."""

    def __init__(self, rng):
        self.rng = rng
        self.randoms = 0
        self.normals = 0

    def random(self, *args):
        self.randoms += 1
        return self.rng.random(*args)

    def standard_normal(self, *args):
        self.normals += 1
        return self.rng.standard_normal(*args)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestDifferentialEvolution:
    def test_f1_convergence_single_seed(self):
        obj = get_objective("f1")
        rep = differential_evolution(obj, DeConfig(generations=260, seed=0))
        assert rep.best.f < 1e-6
        assert rep.meta["algorithm"] == "de"

    def test_population_stays_in_box(self):
        obj = get_objective("f2")
        rep = differential_evolution(obj, DeConfig(generations=30, seed=5))
        assert obj.box.contains(rep.best.x)

    def test_deterministic(self):
        obj = get_objective("f5")
        a = differential_evolution(obj, DeConfig(generations=40, seed=9))
        b = differential_evolution(obj, DeConfig(generations=40, seed=9))
        assert a.best == b.best
        assert a.evaluations == b.evaluations

    def test_evaluation_count(self):
        obj = get_objective("f2")
        cfg = DeConfig(generations=25, seed=0, pop_size=12)
        rep = differential_evolution(obj, cfg)
        assert rep.evaluations == 12 + 25 * 12

    def test_fixed_weight_accepted(self):
        obj = get_objective("f1")
        rep = differential_evolution(obj, DeConfig(generations=50, seed=0, f_weight=0.7))
        assert rep.meta["f_mode"] == 0.7

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DeConfig(pop_size=3)
        with pytest.raises(ConfigError):
            DeConfig(cr=1.5)
        with pytest.raises(ConfigError, match=r"^generations must be >= 1$"):
            DeConfig(generations=0)


# A script of draws: ("integers", high) or (method, n) for a method of
# numpy's Generator that draws doubles.  Lemire's method rejects a 32-bit
# word with chance ``(2**32 % high) / 2**32``: about 1/2 at ``2**31 + 1``
# and 1/4 at ``3 * 2**30``, next to nothing at DE's ranges.
_HIGHS = st.one_of(st.sampled_from([1, 2, 3, 4, 20, 30, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32]),
                   st.integers(1, 2**32))
_CALL = st.one_of(
    st.tuples(st.just("integers"), _HIGHS),
    st.tuples(st.sampled_from(["random", "uniform", "standard_normal"]), st.integers(1, 5)))


# A script for the block reader: ("draw", high) or ("doubles", k), with
# requests that end on, straddle or span whole blocks.
_READ = st.one_of(
    st.tuples(st.just("draw"), _HIGHS),
    st.tuples(st.just("doubles"), st.one_of(
        st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]),
        st.integers(0, 40), st.integers(2 * BLOCK + 1, 3 * BLOCK))))


def _doubles(rng, method, n):
    if method == "uniform":
        return rng.uniform(size=n).tolist()
    return getattr(rng, method)(n).tolist()


def _numpy_doubles(rng):
    """A ``doubles`` source that calls numpy, as a noisy run's does."""
    return lambda k: rng.random(k).tolist()


@st.composite
def _wide_box(draw, span=1e300):
    """A box of up to 3 axes, each at most ``span`` wide, with its lower
    bound at least ``-span`` and its upper bound finite."""
    lower, upper = [], []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.floats(-span, min(span, sys.float_info.max - span)))
        width = draw(st.floats(5e-324, span))
        if not lo < lo + width:
            width = abs(lo) * 2**-52 or 5e-324  # at least one ulp of lo
        lower.append(lo)
        upper.append(lo + width)
    return BoxDomain(tuple(lower), tuple(upper))


def _stub_doubles(draws):
    """A ``doubles`` source whose one request returns ``draws``."""
    def doubles(k):
        assert k == len(draws)
        return list(draws)

    return doubles


class TestNumpyStream:
    """The baselines' own draws against numpy's: the test that fails if numpy
    ever changes how ``Generator.integers`` or ``uniform`` draws."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(_CALL, max_size=40))
    def test_bounded_draw_is_integers(self, seed, script):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = _bounded_draw(ours.bit_generator.random_raw)
        for method, arg in script:
            if method == "integers":
                got, want = draw(arg), int(theirs.integers(arg))
                assert 0 <= got < arg
            else:
                got, want = _doubles(ours, method, arg), _doubles(theirs, method, arg)
            assert got == want
        assert ours.random() == theirs.random()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), _decimal_box(), st.integers(1, 4))
    def test_uniform_point_is_numpy_uniform(self, seed, box, repeats):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(repeats):
            point = _uniform_point(_numpy_doubles(ours), box)
            assert point == tuple(theirs.uniform(box.lower, box.upper).tolist())
            assert all(type(v) is float for v in point)
        assert ours.random() == theirs.random()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_decimal_box(max_dim=4), _wide_box()), st.data())
    def test_uniform_point_stays_in_the_box(self, box, data):
        u = st.sampled_from([0.0, 1.0 - 2**-53]) | st.floats(0.0, 1.0, exclude_max=True)
        draws = data.draw(st.lists(u, min_size=box.dim, max_size=box.dim))
        point = _uniform_point(_stub_doubles(draws), box)
        assert box.contains(point), (box, draws, point)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(_READ, max_size=30))
    # a draw leaves its word's high half pending; the request after it refills
    @example(0, [("draw", 2), ("doubles", BLOCK), ("draw", 2), ("draw", 3)])
    @example(1, [("doubles", BLOCK - 1), ("draw", 20), ("doubles", 2 * BLOCK + 3),
                 ("draw", 2**32), ("draw", 2**31 + 1), ("doubles", 0), ("draw", 1)])
    def test_block_reader_is_numpys_stream(self, seed, script):
        draw, doubles = _block_reader(np.random.default_rng(seed))
        theirs = np.random.default_rng(seed)
        for call, arg in script:
            if call == "draw":
                got, want = draw(arg), int(theirs.integers(arg))
            else:
                got, want = doubles(arg), theirs.random(arg).tolist()
            assert got == want, (call, arg)
        assert doubles(1) == [theirs.random()]

    def test_the_largest_draw_stays_below_an_overshooting_upper(self):
        # -1.3 + 4.2 rounds to 2.9000000000000004; the largest double below 1 does not
        box = BoxDomain((-1.3,), (2.9,))
        assert box.lower[0] + box.width[0] > box.upper[0]
        assert _uniform_point(_stub_doubles([1.0 - 2**-53]), box) == (2.8999999999999995,)


def reference_differential_evolution(obj, cfg):
    """``differential_evolution`` as it stood before its trial was built in
    two passes, drawing each number with its own numpy call: the oracle for
    its random stream and its reports."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = obj.box.lower, obj.box.upper
    n = obj.dim
    np_ = cfg.pop_size

    def draw(high):
        return int(rng.integers(high))

    def in_box_point():
        return tuple(rng.uniform(lo, hi).tolist())

    pop = [in_box_point() for _ in range(np_)]
    fit = [obj.evaluate(x, rng=rng) for x in pop]
    steps = []

    def current_best() -> Candidate:
        i = int(np.argmin(fit))  # first index of the minimum; a NaN wins
        return Candidate(pop[i], fit[i])

    best = current_best()
    _track(steps, 0, (), best)
    for gen in range(1, cfg.generations + 1):
        fw = cfg.f_weight if cfg.f_weight is not None else rng.uniform(0.4, 1.0)
        for i in range(np_):
            a = b = c = i
            while a == i:
                a = draw(np_)
            while b == i or b == a:
                b = draw(np_)
            while c == i or c == a or c == b:
                c = draw(np_)
            mutant = [va + fw * (vb - vc) for va, vb, vc in zip(pop[a], pop[b], pop[c])]
            outside = [v < low or v > high for v, low, high in zip(mutant, lo, hi)]  # NaN: inside
            if any(outside):
                fresh = in_box_point()
                mutant = [r if o else v for o, v, r in zip(outside, mutant, fresh)]
            cross = (rng.random(n) < cfg.cr).tolist()
            cross[draw(n)] = True  # at least one mutant gene
            trial = tuple(m if take else p for take, m, p in zip(cross, mutant, pop[i]))
            ft = obj.evaluate(trial, rng=rng)
            if ft <= fit[i]:
                pop[i] = trial
                fit[i] = ft
        gen_best = current_best()
        if gen_best.f < best.f:
            best = gen_best
        _track(steps, gen, (fw,), best)
    return _report("de", obj, steps, best, np_ * (cfg.generations + 1),
                   {"generations": cfg.generations, "seed": cfg.seed,
                    "pop_size": cfg.pop_size, "cr": cfg.cr,
                    "f_mode": "random" if cfg.f_weight is None else cfg.f_weight})


def _assert_same_de_report(got, want):
    assert [(s.level, s.h, s.best) for s in got.steps] == \
        [(s.level, s.h, s.best) for s in want.steps]
    assert (got.best, got.evaluations, got.meta) == (want.best, want.evaluations, want.meta)
    assert all(type(s.best.x) is tuple for s in got.steps)


def _shifted_squares(x):
    return sum((v - 0.3 * d) ** 2 for d, v in enumerate(x))


class TestDifferentialEvolutionStream:
    """``differential_evolution`` draws, keeps and reports exactly what
    ``reference_differential_evolution`` does."""

    @settings(max_examples=120, deadline=None)
    @given(_decimal_box(max_dim=6), st.integers(4, 9), st.sampled_from([0.0, 0.3, 0.9, 1.0]),
           st.sampled_from([None, 0.5, 2.0, 50.0]), st.booleans(), st.integers(1, 6),
           st.integers(0, 2**32))
    def test_matches_the_reference(self, box, pop_size, cr, f_weight, noisy, gens, seed):
        # weights of 2 and 50 throw most mutants out of the box, so genes are resampled
        if noisy:
            obj = Objective("f4-like", box, _f4_noiseless, noise_fn=_f4_noise, smooth=False)
        else:
            obj = Objective("squares", box, _shifted_squares)
        cfg = DeConfig(generations=gens, seed=seed, pop_size=pop_size, cr=cr, f_weight=f_weight)
        _assert_same_de_report(differential_evolution(obj, cfg),
                               reference_differential_evolution(obj, cfg))

    @pytest.mark.parametrize("f_weight", [None, 50.0])
    def test_matches_the_reference_over_many_blocks(self, f_weight):
        # a run reads 15 blocks; most trials redraw genes (at a weight of 50,
        # nearly all), and 7 of the 14 later refills fall inside those draws
        box = BoxDomain((-5.12,) * 30, (5.12,) * 30)
        cfg = DeConfig(generations=50, seed=3, f_weight=f_weight)
        obj = Objective("squares", box, _shifted_squares)
        _assert_same_de_report(differential_evolution(obj, cfg),
                               reference_differential_evolution(obj, cfg))

    def test_matches_the_reference_on_30d_f4(self):
        obj = get_objective("f4")
        cfg = DeConfig(generations=50, seed=0)
        _assert_same_de_report(differential_evolution(obj, cfg),
                               reference_differential_evolution(obj, cfg))


def reference_random_walk_search(obj, cfg):
    """``random_walk_search`` as it stood while it evaluated every trial,
    a trial equal to its point too, and reported ``budget + 1``."""
    x = start = start_point(obj, cfg.initial)
    rng = np.random.default_rng(cfg.seed)
    n = obj.dim
    f = obj.evaluate(x, rng=rng, in_box=True)
    best = Candidate(x, f)
    steps = []
    _track(steps, 0, (cfg.step_scale,), best)
    scale = cfg.step_scale
    rejections = 0
    for i in range(cfg.budget):
        direction = rng.standard_normal(n)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        radius = scale * rng.random() ** (1.0 / n)
        step = radius / norm
        trial = _clipped_step(x, direction.tolist(), step, obj.box)
        ft = obj.evaluate(trial, rng=rng, in_box=step < math.inf)
        if ft < f:
            x, f = trial, ft
            rejections = 0
            if f < best.f:
                best = Candidate(x, f)
                _track(steps, i + 1, (scale,), best)
        else:
            rejections += 1
            if rejections >= cfg.patience:
                scale *= cfg.contraction
                rejections = 0
    return _report("rsw", obj, steps, best, cfg.budget + 1,
                   {"budget": cfg.budget, "seed": cfg.seed,
                    "initial": start, "step_scale": cfg.step_scale,
                    "contraction": cfg.contraction, "patience": cfg.patience})


def reference_simulated_annealing(obj, cfg):
    """``simulated_annealing`` as it stood while it evaluated every trial,
    a trial equal to its point too, and reported ``budget + 1``."""
    rng = np.random.default_rng(cfg.seed)
    x = start = start_point(obj, cfg.initial)
    sigma0 = cfg.step_scale if cfg.step_scale is not None else min(obj.box.width) / 4.0
    f = obj.evaluate(x, rng=rng, in_box=True)
    best = Candidate(x, f)
    steps = []
    _track(steps, 0, (sigma0,), best)
    t = cfg.t0
    for i in range(cfg.budget):
        sigma = sigma0 * (t / cfg.t0)
        trial = _clipped_step(x, rng.standard_normal(obj.dim).tolist(), sigma, obj.box)
        ft = obj.evaluate(trial, rng=rng, in_box=True)
        delta = ft - f
        if delta <= 0.0 or rng.random() < (np.exp(-delta / t) if t > 0.0 else 0.0):
            x, f = trial, ft
            if f < best.f:
                best = Candidate(x, f)
                _track(steps, i + 1, (sigma,), best)
        t *= cfg.cooling
    return _report("sa", obj, steps, best, cfg.budget + 1,
                   {"budget": cfg.budget, "seed": cfg.seed, "t0": cfg.t0,
                    "cooling": cfg.cooling, "step_scale": sigma0,
                    "initial": start})


def _counting(obj):
    """``obj`` with a kernel that records each point it is given."""
    calls = []
    return replace(obj, eval_fn=lambda x: calls.append(x) or obj.eval_fn(x)), calls


class TestAFrozenTrialIsNotEvaluated:
    """rsw and sa skip a trial equal to their point and report what the
    reference reports, but for ``evaluations``, the kernel calls made."""

    @staticmethod
    def _run_both(run, reference, obj, cfg):
        counted, calls = _counting(obj)
        got, want = run(counted, cfg), reference(obj, cfg)
        assert [(s.level, s.h, s.best) for s in got.steps] == \
            [(s.level, s.h, s.best) for s in want.steps]
        assert (got.best, got.converged, got.meta) == (want.best, want.converged, want.meta)
        assert got.evaluations == len(calls) <= want.evaluations
        return got, want

    @staticmethod
    def _objective(box, kind):
        # squares are strict; the floored plateau makes sa take equal values
        if kind == "squares":
            return Objective("squares", box, _shifted_squares)
        return Objective("plateau", box, lambda x: float(math.floor(4.0 * x[0])))

    @settings(max_examples=150, deadline=None)
    @given(_decimal_box(max_dim=3), st.sampled_from(["squares", "plateau"]),
           st.sampled_from(["centre", "lower", "upper"]),
           st.integers(1, 60), st.integers(0, 2**32),
           st.sampled_from([1e-300, 1e-3, 1.0, 50.0, 1e300]),
           st.sampled_from([0.995, 0.5, 1e-300]))
    def test_matches_the_reference(self, box, kind, start, budget, seed, scale, cooling):
        obj = self._objective(box, kind)
        initial = {"centre": None, "lower": box.lower, "upper": box.upper}[start]
        self._run_both(random_walk_search, reference_random_walk_search, obj,
                       RswConfig(initial=initial, budget=budget, seed=seed, step_scale=scale))
        self._run_both(simulated_annealing, reference_simulated_annealing, obj,
                       SaConfig(initial=initial, budget=budget, seed=seed, step_scale=scale,
                                cooling=cooling))

    def test_a_clipped_corner_and_a_frozen_tail_are_skipped(self):
        box = BoxDomain((-1.0,), (1.0,))
        obj = Objective("squares", box, _shifted_squares)
        got, want = self._run_both(random_walk_search, reference_random_walk_search, obj,
                                   RswConfig(initial=(1.0,), budget=40, step_scale=1e300))
        assert got.evaluations < want.evaluations == 41
        got, want = self._run_both(simulated_annealing, reference_simulated_annealing, obj,
                                   SaConfig(budget=200, cooling=0.5))
        assert got.evaluations < want.evaluations == 201

    def test_a_run_cooled_to_a_standstill_ends(self, monkeypatch):
        # the f4/sa INI's cooling: sigma reaches 0.0 at step 1,065 of 2,000,
        # and from there sa draws no trial, as each would be its point
        made, default_rng = [], np.random.default_rng

        def counting_rng(seed):
            made.append(_CountingGenerator(default_rng(seed)))
            return made[-1]

        obj = Objective("squares", BoxDomain.cube(-1.0, 1.0, 2), _shifted_squares)
        cfg = SaConfig(budget=2000, cooling=0.5)
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        got, want = self._run_both(simulated_annealing, reference_simulated_annealing, obj, cfg)
        sigma0, t, moving = 0.5, cfg.t0, 0
        while sigma0 * (t / cfg.t0) > 0.0:
            moving, t = moving + 1, t * cfg.cooling
        assert [g.normals for g in made] == [moving, cfg.budget] == [1065, 2000]
        assert got.evaluations < 100 < want.evaluations


def _box_checking(box):
    """An objective whose kernel asserts that each point it is given is
    finite and lies in ``box``: the baselines evaluate with ``in_box=True``."""
    def eval_fn(x):
        assert all(map(math.isfinite, x)) and box.contains(x), (box, x)
        return x[0]

    return Objective("box-checking", box, eval_fn)


_BOXES = st.one_of(_decimal_box(max_dim=4), _wide_box(span=1e308))
_STEP_SCALES = st.one_of(st.sampled_from([1e-300, 1.0, 1e308]), st.floats(1e-9, 1e308))


class TestEveryPointIsInTheBox:
    """Each point a baseline evaluates is in its box by construction (the
    ``baselines`` docstring), with mutants and steps that overflow."""

    @settings(max_examples=150, deadline=None)
    @given(_BOXES, st.integers(4, 9), st.sampled_from([0.0, 1.0]),
           st.sampled_from([None, 0.0, 0.5, 50.0, 1e308, -1e308]), st.integers(1, 3),
           st.integers(0, 2**32))
    def test_differential_evolution(self, box, pop_size, cr, f_weight, gens, seed):
        cfg = DeConfig(generations=gens, seed=seed, pop_size=pop_size, cr=cr, f_weight=f_weight)
        assert differential_evolution(_box_checking(box), cfg).evaluations == pop_size * (gens + 1)

    @settings(max_examples=100, deadline=None)
    @given(_BOXES, st.integers(1, 20), st.integers(0, 2**32))
    def test_random_search(self, box, budget, seed):
        assert random_search(_box_checking(box), RsConfig(budget=budget, seed=seed)).evaluations \
            == budget

    @settings(max_examples=150, deadline=None)
    @given(_BOXES, st.integers(1, 20), st.integers(0, 2**32), _STEP_SCALES,
           st.sampled_from([0.995, 0.5, 1e-300]))
    def test_local_searches(self, box, budget, seed, scale, cooling):
        obj = _box_checking(box)
        random_walk_search(obj, RswConfig(budget=budget, seed=seed, step_scale=scale))
        simulated_annealing(obj, SaConfig(budget=budget, seed=seed, step_scale=scale,
                                          cooling=cooling))
        simulated_annealing(obj, SaConfig(budget=budget, seed=seed, cooling=cooling))


class TestTheNumpyCallsThatWent:
    """``_argmin`` and ``_random_weight`` against the numpy calls they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]),
                              st.floats()), min_size=1, max_size=25))
    def test_argmin_is_numpys(self, values):
        assert _argmin(values) == int(np.argmin(values))

    def test_random_weight_is_numpy_uniform(self):
        for seed in range(1000):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(3):
                got, want = _random_weight(_numpy_doubles(ours)), theirs.uniform(0.4, 1.0)
                assert (type(got), got.hex()) == (float, want.hex())
                assert ours.bit_generator.random_raw(k).tolist() == \
                    theirs.bit_generator.random_raw(k).tolist()


@pytest.mark.parametrize("run,obj,cfg", [
    (differential_evolution, get_objective("f4"), DeConfig(generations=5)),
    (differential_evolution, expression_objective("x1^2 + x2*x3 - sin(x4)", 4, -2.0, 2.0),
     DeConfig(generations=5, pop_size=6)),
    (random_search, get_objective("f2"), RsConfig(budget=50)),
    (random_walk_search, get_objective("f2"), RswConfig(budget=50)),
    (simulated_annealing, get_objective("f2"), SaConfig(budget=50)),
], ids=["de-f4", "de-expr", "rs", "rsw", "sa"])
def test_one_kernel_span_per_evaluation(monkeypatch, run, obj, cfg):
    # the benchmark's contract: one traced Objective.evaluate per evaluation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import KERNEL_SPAN, Tracer

    with Tracer().installed() as tracer:
        report = run(obj, cfg)
    assert tracer.stats[KERNEL_SPAN].calls == report.evaluations
