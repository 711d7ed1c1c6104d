import math

import pytest

from subgrid.baselines import (
    REPORTED_GENERATIONS,
    DeConfig,
    RsConfig,
    RswConfig,
    SaConfig,
    differential_evolution,
    random_search,
    random_walk_search,
    simulated_annealing,
)
from subgrid.errors import ConfigError
from subgrid.functions import get_objective


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

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SaConfig(cooling=1.5)
        with pytest.raises(ConfigError):
            SaConfig(t0=0.0)
        with pytest.raises(ConfigError):
            SaConfig(step_scale=-1.0)


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
