import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid.core import (
    BoxDomain,
    Candidate,
    Cell,
    GridPoint,
    GridSpec,
    LabeledVertex,
    RunReport,
    StepRecord,
    coordinate,
    position_of,
)
from subgrid import slmga
from subgrid.errors import ConfigError, SubgridError
from subgrid.functions import Objective, get_objective
from subgrid.harness import (
    BenchRow,
    ExperimentConfig,
    bench_table,
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
        assert a.metrics.bv == b.metrics.bv
        assert a.median_bv == b.median_bv
        assert a.metrics.bv <= a.median_bv

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
        with pytest.raises(SubgridError, match=r"^5\*\*30 grid points$"):
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
        sd_vec = [abs(a - b) for a, b in zip(rep.best.x, x_star)]
        assert m.sd_euclid == math.sqrt(sum(v * v for v in sd_vec))
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

    @pytest.mark.parametrize("algo,params,rate", [
        ("slmga", {"h_tol": 0.02}, "1"),
        ("slmga", {"h_tol": 0.02, "mutation_rate": 0.5}, "0.5"),
        ("slm", {"h_tol": 0.02}, "-"),
        ("de", {"generations": 3}, "-"),
    ])
    def test_markdown_mutation_rate_column(self, algo, params, rate):
        cfg = ExperimentConfig(objective="f2", algo=algo, algo_params=params)
        lines = emit_table(run_experiment(cfg).reports, "markdown").strip().split("\n")
        column = lines[0].split(" | ").index("Mutation Rate")
        assert {line.split(" | ")[column] for line in lines[2:]} == {rate}

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

    def test_an_unknown_format_is_refused_by_both_tables(self):
        row = BenchRow(function="f1", generations=1, final_h=0.5, best=Candidate((0.0,), 0.0),
                       bv=0.0, sd_euclid=None, de_generations=1, png=1.0)
        with pytest.raises(ConfigError, match="^unknown format 'html'$"):
            emit_table(self._reports(), "html")
        with pytest.raises(ConfigError, match="^unknown format 'html'$"):
            bench_table([row], "html")


def reference_jsonable(rep):
    """The report as ``json.dumps(..., indent=2)`` took it before the writer
    built the text directly: the oracle the writer is held to."""
    def cand(c):
        d = {"x": list(c.x), "f": c.f}
        if c.point is not None:
            d["k"] = list(c.point.k)
            d["level"] = c.point.level
        return d

    return {
        "meta": rep.meta,
        "evaluations": rep.evaluations,
        "converged": rep.converged,
        "best": cand(rep.best),
        "best_value": rep.best_value,
        "steps": [
            {
                "level": s.level,
                "h": list(s.h),
                "best": cand(s.best),
                "population": [cand(c) for c in s.population],
                "labels": [
                    {"candidate": cand(lv.candidate), "label": lv.label,
                     "delta": list(lv.delta)}
                    for lv in s.labels
                ],
                "chosen_cell": (None if s.chosen_cell is None
                                else {"anchor": list(s.chosen_cell.anchor.k),
                                      "level": s.chosen_cell.level}),
            }
            for s in rep.steps
        ],
    }


def _reference_json(reports):
    return json.dumps([reference_jsonable(r) for r in reports], indent=2) + "\n"


_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]),
    st.floats(allow_nan=False).map(np.float64),
)
_numbers = st.one_of(_floats, st.integers(), st.booleans())
# mostly floats, as the engines record them; sometimes ints and bools too
_vectors = (st.lists(_floats, max_size=3) | st.lists(_numbers, max_size=3)).map(tuple)
_points = st.builds(GridPoint, st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
                    st.integers(1, 64))
_candidates = st.builds(Candidate, _vectors, _floats, st.none() | _points)
_meta = st.dictionaries(
    st.text(),
    st.recursive(
        st.none() | st.booleans() | st.integers() | _floats
        | st.text() | st.sampled_from(["\u00e9\u4e2d", 'a "quoted" word', "back\\slash"]),
        lambda inner: (st.lists(inner, max_size=3).map(tuple)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=8),
    max_size=4)


@st.composite
def _steps(draw):
    population = draw(st.lists(_candidates, max_size=4))
    # a label's candidate is as a rule one of the population's own objects
    label_candidates = (st.sampled_from(population) | _candidates) if population else _candidates
    labels = draw(st.lists(st.builds(LabeledVertex, label_candidates, _numbers, _vectors),
                           max_size=4))
    return StepRecord(
        level=draw(st.integers(1, 64)), h=draw(_vectors), population=population,
        labels=labels, chosen_cell=draw(st.none() | st.builds(Cell, _points)),
        best=draw(_candidates))


_reports = st.builds(
    RunReport, steps=st.lists(_steps(), max_size=3), best=_candidates,
    evaluations=st.integers(0, 10**6), converged=st.booleans(), meta=_meta,
    best_value=_numbers)


class TestJsonWriter:
    """``emit_table(..., "json")`` writes the bytes ``json.dumps(...,
    indent=2)`` writes for ``reference_jsonable``."""

    @given(st.lists(_reports, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_matches_json_dumps(self, reports):
        assert emit_table(reports, "json") == _reference_json(reports)

    def test_memo_keeps_each_number_its_own_text(self):
        # equal keys of other texts: 0.0 == -0.0 and 1.0 == 1 == True == np.float64(1.0)
        values = (0.0, -0.0, 1.0, 1, True, 5e-324, np.float64(1.0), math.nan, math.inf,
                  -math.inf)
        orders = [values, values[::-1], values[1:] + values[:1]]
        point = GridPoint((0, 1), 2)
        population = [Candidate(x, f, point) for x in orders for f in values]
        labels = [LabeledVertex(c, 1, d) for c, d in zip(population, orders * 10)]
        labels.append(LabeledVertex(Candidate(values[::-1], -0.0), 0, values))
        step = StepRecord(level=2, h=values, population=population, labels=labels,
                          chosen_cell=None, best=population[1])
        reports = [RunReport(steps=[step], best=Candidate(values, 0.0), evaluations=1,
                             converged=True, best_value=-0.0)]
        assert emit_table(reports, "json") == _reference_json(reports)

    @pytest.mark.parametrize("objective", ["f2", "expr3", "expr3-decimal"])
    @pytest.mark.parametrize("algo,params", [
        ("slm", {"h_tol": 0.05}),
        ("slm", {"h_tol": 0.05, "neighbor_scheme": "full-box"}),
        ("slm", {"h_tol": 0.05, "sense": "max"}),
        ("slmga", {"h_tol": 0.05}),
        ("rs", {"budget": 50}),
        ("rsw", {"budget": 50}),
        ("sa", {"budget": 50}),
        ("de", {"generations": 5}),
    ], ids=["slm", "slm-full-box", "slm-max", "slmga", "rs", "rsw", "sa", "de"])
    def test_matches_json_dumps_on_real_reports(self, algo, params, objective):
        if objective.startswith("expr3"):
            # a dyadic box, and the golden expression's decimal box
            lower, upper = (-2.0, 3.0) if objective == "expr3" else (-1.3, 2.9)
            obj = expression_objective(
                "(x1-0.3)^2 + 2*(x2+0.7)^2 + abs(x3-1.1) + sin(3*x1*x3)", 3, lower, upper)
        else:
            obj = get_objective(objective)
        reports = [run_algorithm(algo, obj, params, seed) for seed in (0, 1)]
        assert emit_table(reports, "json") == _reference_json(reports)


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
        assert result.metrics.bv == 0.0

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


# The grid engines' settings on decimal boxes: SLM under both neighbour
# schemes, and SLMGA.
GRID_ENGINES = [
    ("slm", {}),
    ("slm", {"neighbor_scheme": "full-box"}),
    ("slmga", {}),
]
GRID_ENGINE_IDS = ["slm", "slm-full-box", "slmga"]


def _points_outside(rep, box):
    """The population members, step bests and report best of ``rep`` that
    lie outside ``box``."""
    points = [rep.best.x]
    for s in rep.steps:
        points += [s.best.x, *(c.x for c in s.population)]
    return [x for x in points if not box.contains(x)]


# Bounds with 1-3 decimals: on about one such axis in six ``lower + width``
# rounds past ``upper``, and on about as many it rounds below it.
@st.composite
def _decimal_box(draw):
    n = draw(st.integers(1, 3))
    scale = 10 ** draw(st.integers(1, 3))
    lower, upper = [], []
    for _ in range(n):
        a = draw(st.integers(-20 * scale, 20 * scale - 1))
        b = draw(st.integers(a + 1, 20 * scale))
        lower.append(a / scale)
        upper.append(b / scale)
    return BoxDomain(tuple(lower), tuple(upper))


class TestDecimalBoxes:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("algo,params", GRID_ENGINES, ids=GRID_ENGINE_IDS)
    def test_grid_engines_finish_on_the_golden_decimal_box(self, algo, params, dim):
        # -1.3 + 1 * 4.2 is 2.9000000000000004, past the upper bound 2.9
        obj = expression_objective(
            "(x1-0.3)^2 + 2*(x2+0.7)^2" + (" + abs(x3-1.1) + sin(3*x1*x3)" if dim == 3 else ""),
            dim, -1.3, 2.9)
        rep = run_algorithm(algo, obj, dict(params, h_tol=0.01), seed=0)
        assert rep.converged
        assert _points_outside(rep, obj.box) == []
        assert obj.box.upper in [c.x for c in rep.steps[0].population]

    @given(_decimal_box(), st.sampled_from(["sphere", "lower-corner", "upper-corner"]),
           st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_every_grid_point_lies_in_the_box(self, box, kind, at):
        if kind == "sphere":
            centre = tuple(lo + at * w for lo, w in zip(box.lower, box.width))
            fn = lambda x: sum((v - c) ** 2 for v, c in zip(x, centre))  # noqa: E731
        elif kind == "lower-corner":
            fn = sum
        else:
            fn = lambda x: -sum(x)  # noqa: E731
        obj = Objective(name=kind, box=box, eval_fn=fn)
        for algo, params in GRID_ENGINES:
            rep = run_algorithm(algo, obj, dict(params, h_tol=min(box.width) / 2**4), seed=0)
            assert _points_outside(rep, box) == []
            if kind == "upper-corner":
                assert rep.best.x == box.upper

    @given(_decimal_box(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_top_lattice_index_sits_at_upper(self, box, level):
        grid = GridSpec(box, level)
        assert position_of(GridPoint((0,) * box.dim, level), grid) == box.lower
        assert position_of(GridPoint((grid.max_index,) * box.dim, level), grid) == box.upper

    @given(_decimal_box(), st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_axis_positions_rise_from_lower_to_upper(self, box, level):
        grid = GridSpec(box, level)
        for lo, hi, sd in zip(box.lower, box.upper, grid.step):
            xs = [coordinate(lo, hi, k, sd) for k in range(grid.max_index + 1)]
            assert xs[0] == lo
            assert xs[-1] == hi
            assert xs == sorted(xs)


def _evaluated_points(algo, params, box, fn):
    """Every point a run of ``algo`` hands its objective, in order."""
    seen = []

    def record(x):
        seen.append(x)
        return fn(x)

    run_algorithm(algo, Objective(name="record", box=box, eval_fn=record), params, seed=0)
    return seen


class TestEvaluatedPointsLieInTheBox:
    """No grid engine hands its ``Evaluator`` a point outside the box: the
    evidence on which ``Evaluator`` skips ``BoxDomain.contains``."""

    ENGINES = GRID_ENGINES + [("slmga", {"mutation_rate": 0.5})]

    @given(_decimal_box(), st.sampled_from(["sphere", "lower-corner", "upper-corner"]),
           st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_grid_engines(self, box, kind, at):
        centre = tuple(lo + at * w for lo, w in zip(box.lower, box.width))
        fn = {"sphere": lambda x: sum((v - c) ** 2 for v, c in zip(x, centre)),
              "lower-corner": sum, "upper-corner": lambda x: -sum(x)}[kind]
        for algo, params in self.ENGINES:
            seen = _evaluated_points(algo, dict(params, h_tol=min(box.width) / 2**4), box, fn)
            assert seen
            assert [x for x in seen if not box.contains(x)] == []

    @pytest.mark.parametrize("rate", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["upper-corner", "lower-corner"])
    def test_the_7d_sweep(self, kind, rate):
        box = BoxDomain((-1.3, -0.7, 0.1, -2.9, -0.03, -5.5, 1.2),
                        (2.9, 0.3, 0.4, 1.1, 0.07, -1.2, 1.9))
        fn = sum if kind == "lower-corner" else (lambda x: -sum(x))
        params = {"h_tol": min(box.width) / 2**3, "mutation_rate": rate}
        with mock.patch.object(slmga, "_sweep", wraps=slmga._sweep) as sweep:
            seen = _evaluated_points("slmga", params, box, fn)
        assert sweep.call_count > 0
        assert box.upper in seen and box.lower in seen
        assert [x for x in seen if not box.contains(x)] == []
