import json

import pytest

from subgrid.core import BoxDomain
from subgrid.errors import ConfigError, GridTooLargeError
from subgrid.functions import get_objective
from subgrid.harness import (
    ExperimentConfig,
    brute_force_grid_min,
    compute_metrics,
    emit_table,
    experiment_config,
    expression_objective,
    load_config_file,
    png_ratio,
    run_algorithm,
    run_experiment,
)


class TestExperimentConfig:
    def test_requires_an_objective(self):
        with pytest.raises(ConfigError):
            ExperimentConfig()

    def test_takes_only_one_objective(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(objective="f1", expr="x1", dim=1)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(objective="f1", seed=-1)

    def test_requires_positive_trials(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(objective="f1", trials=0)

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(objective="f1", fmt="xml")


class TestRunExperiment:
    def test_slmga_f1(self):
        cfg = ExperimentConfig(objective="f1", algo="slmga",
                               algo_params={"h_tol": 5e-5})
        result = run_experiment(cfg)
        assert result.metrics.generations == 18
        assert result.metrics.bv == 0.0
        assert result.metrics.sd_euclid == 0.0

    def test_trials_are_seeded_consecutively(self):
        cfg = ExperimentConfig(objective="f2", algo="rs",
                               algo_params={"budget": 100}, trials=3, seed=5)
        result = run_experiment(cfg)
        assert [r.meta["seed"] for r in result.reports] == [5, 6, 7]

    def test_aggregates_deterministic(self):
        cfg = ExperimentConfig(objective="f2", algo="rs",
                               algo_params={"budget": 200}, trials=3, seed=0)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.min_bv == b.min_bv
        assert a.median_bv == b.median_bv
        assert a.min_bv <= a.median_bv

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(objective="f1", algo="cma-es"))

    def test_expression_objective(self):
        cfg = ExperimentConfig(expr="x1^2 + x2^2", dim=2, lower=-4.0, upper=4.0,
                               algo="slm", algo_params={"h_tol": 1e-3})
        result = run_experiment(cfg)
        assert result.metrics.bv == 0.0

    def test_expression_requires_dim(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(expr="x1^2", algo="slm"))

    @pytest.mark.parametrize("algo,params,key,want", [
        ("rsw", {"initial": "0.5,0.5", "budget": 10}, "initial", (0.5, 0.5)),
        ("sa", {"initial": "0.5,0.5", "budget": 10}, "initial", (0.5, 0.5)),
        ("de", {"f_weight": "0.7", "generations": 2}, "f_mode", 0.7),
    ])
    def test_algorithm_parameters_parsed_by_field_type(self, algo, params, key, want):
        cfg = ExperimentConfig(objective="f2", algo=algo, algo_params=params)
        assert run_experiment(cfg).reports[0].meta[key] == want


# Each algorithm at small settings, on an expression objective and on F4
# (SLM, which rejects the 30-d F4, on F2 instead); SLMGA also labels by the
# finite-difference gradient of the expression.
BOUNDARY_PARAMS = {
    "slm": {"h_tol": 0.5},
    "slmga": {"h_tol": 0.5},
    "rs": {"budget": 30},
    "rsw": {"budget": 30},
    "sa": {"budget": 30},
    "de": {"generations": 3},
}
BOUNDARY_CASES = [(algo, params, objective) for algo, params in BOUNDARY_PARAMS.items()
                  for objective in ("expr", "f2" if algo == "slm" else "f4")]
BOUNDARY_CASES.append(("slmga", {"h_tol": 0.5, "label_rule": "gradient-fixed-point"}, "expr"))


class TestNumericBoundary:
    """Numbers become Python floats and ints where they are made, so every
    number a report holds is one, whichever algorithm made it."""

    @pytest.mark.parametrize("algo,params,objective", BOUNDARY_CASES)
    def test_report_numbers_are_python_floats_and_ints(self, algo, params, objective):
        if objective == "expr":
            obj = expression_objective("x1^2 + cos(3*x2) - floor(x1)", 2, -4.0, 4.0)
        else:
            obj = get_objective(objective)
        rep = run_algorithm(algo, obj, params, seed=3)
        candidates = [rep.best]
        floats = [rep.best_value]
        ints = []
        for s in rep.steps:
            candidates += [s.best, *s.population, *(lv.candidate for lv in s.labels)]
            floats += [*s.h, *(d for lv in s.labels for d in lv.delta)]
            if s.chosen_cell is not None:
                ints += s.chosen_cell.anchor.k
        for c in candidates:
            floats += [*c.x, c.f]
            if c.point is not None:
                ints += c.point.k
        assert len(floats) > 3
        assert [v for v in floats if type(v) is not float] == []
        assert [kd for kd in ints if type(kd) is not int] == []


class TestBruteForce:
    def test_f1_contains_true_optimum(self):
        obj = get_objective("f1")
        best = brute_force_grid_min(obj, obj.box, 4)
        assert best.x == (0.0, 0.0, 0.0)
        assert best.f == 0.0

    def test_matches_manual_scan(self):
        obj = get_objective("f2")
        best = brute_force_grid_min(obj, obj.box, 3)
        # level 3: 5 points per axis
        xs = [-2.048 + k * 1.024 for k in range(5)]
        manual = min(((obj.evaluate((a, b)), (a, b)) for a in xs for b in xs))
        assert (best.f, best.x) == manual

    def test_size_guard(self):
        obj = get_objective("f4")
        with pytest.raises(GridTooLargeError):
            brute_force_grid_min(obj, obj.box, 3)


class TestPngRatio:
    def test_reference_values(self):
        assert round(png_ratio(2300, 16)) == 144
        assert round(png_ratio(260, 18)) in (14, 15)
        assert png_ratio(7, 7) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            png_ratio(0, 5)


class TestMetrics:
    def test_sd_is_componentwise_absolute_error(self):
        obj = get_objective("f5")
        cfg = ExperimentConfig(objective="f5", algo="slmga",
                               algo_params={"h_tol": 0.3})
        rep = run_experiment(cfg).reports[0]
        m = compute_metrics(rep, obj)
        x_star = obj.known_optimum[0]
        assert m.sd_vec == tuple(abs(a - b) for a, b in zip(rep.best.x, x_star))
        assert m.bv == rep.best.f


class TestEmitTable:
    def _reports(self):
        cfg = ExperimentConfig(objective="f2", algo="slmga",
                               algo_params={"h_tol": 0.02})
        return run_experiment(cfg).reports

    def test_csv_round_trip(self):
        reports = self._reports()
        text = emit_table(reports, "csv")
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["trial", "step", "h"]
        assert "best_f" in header
        f_col = header.index("best_f")
        x1_col = header.index("best_x_1")
        rep = reports[0]
        for line, step in zip(lines[1:], rep.steps):
            cells = line.split(",")
            assert float(cells[f_col]) == step.best.f
            assert float(cells[x1_col]) == step.best.x[0]
            assert float(cells[2]) == step.h[0]

    def test_csv_byte_identical_across_runs(self):
        a = emit_table(self._reports(), "csv")
        b = emit_table(self._reports(), "csv")
        assert a == b

    def test_markdown_layout(self):
        text = emit_table(self._reports(), "markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| Step | Algorithm | Function | Mutation Size | Mutation Rate")
        assert "| Step1 |" in lines[2]
        assert "SLMGA" in lines[2]

    def test_json_serialization(self):
        reports = self._reports()
        data = json.loads(emit_table(reports, "json"))
        assert len(data) == 1
        rep = data[0]
        assert rep["best"]["f"] == reports[0].best.f
        assert len(rep["steps"]) == reports[0].generations
        assert rep["meta"]["algorithm"] == "slmga"

    def test_empty_reports_rejected(self):
        with pytest.raises(ConfigError):
            emit_table([], "csv")


class TestExperimentConfigKeys:
    def test_flag_values_and_ini_strings_run_alike(self):
        typed = experiment_config({"function": "f2", "algo": "rs", "budget": 30}, seed=4)
        text = experiment_config({"objective": "f2", "algo": "rs", "budget": "30"}, seed=4)
        assert typed.seed == text.seed == 4
        assert (emit_table(run_experiment(typed).reports, "csv")
                == emit_table(run_experiment(text).reports, "csv"))

    @pytest.mark.parametrize("keys", [
        {"function": "f2", "format": "csv", "fmt": "csv"},
        {"function": "f2", "lower": "-10"},  # the default value, still refused
        {"function": "f2", "dim": 2},
    ])
    def test_bad_keys_are_config_errors(self, keys):
        with pytest.raises(ConfigError):
            experiment_config(keys)


class TestConfigFile:
    def test_sections_become_experiments(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[rosenbrock]\n"
            "objective = f2\n"
            "algo = slmga\n"
            "h_tol = 0.02\n"
            "trials = 1\n"
            "seed = 0\n"
            "format = csv\n"
            "\n"
            "[custom]\n"
            "expr = x1^2 + x2^2\n"
            "dim = 2\n"
            "lower = -4\n"
            "upper = 4\n"
            "algo = slm\n"
            "h_tol = 0.001\n")
        configs = load_config_file(str(path))
        assert len(configs) == 2
        assert configs[0].objective == "f2"
        assert configs[0].algo_params["h_tol"] == "0.02"
        assert configs[1].expr == "x1^2 + x2^2"
        first = run_experiment(configs[0])
        assert first.metrics.generations == 8

    def test_same_config_yields_identical_csv(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[e]\nobjective = f5\nalgo = slmga\nh_tol = 0.3\nformat = csv\n")
        outputs = []
        for _ in range(2):
            cfgs = load_config_file(str(path))
            outputs.append(emit_table(run_experiment(cfgs[0]).reports, "csv"))
        assert outputs[0] == outputs[1]

    def test_gradient_labels_on_expression(self, tmp_path):
        # the finite-difference gradient is one-sided at the box corners
        path = tmp_path / "exp.ini"
        path.write_text("[e]\nexpr = x1^2 + x2^2\ndim = 2\nlower = -4\nupper = 4\n"
                        "algo = slmga\nlabel_rule = gradient-fixed-point\n")
        result = run_experiment(load_config_file(str(path))[0])
        assert result.reports[0].converged
        assert result.min_bv == 0.0

    def test_unset_fields_keep_their_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[e]\nobjective = f2\n")
        assert load_config_file(str(path)) == [ExperimentConfig(objective="f2")]

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/exp.ini")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config_file(str(path))


class TestExpressionObjective:
    def test_evaluates(self):
        obj = expression_objective("x1^2 + x2^2", 2, -1.0, 1.0)
        assert obj.evaluate((0.5, 0.5)) == 0.5
        assert obj.dim == 2

    def test_gradient_via_finite_differences(self):
        obj = expression_objective("x1^2 + x2^2", 2, -1.0, 1.0)
        g = obj.gradient((0.25, -0.5))
        assert g[0] == pytest.approx(0.5, rel=1e-5)
        assert g[1] == pytest.approx(-1.0, rel=1e-5)
