import argparse
import dataclasses
import hashlib
import json
import os

import pytest

from subgrid.cli import ALGORITHM_FLAGS, build_parser, main
from subgrid.harness import INI_KEYS, ExperimentConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_objectives_and_algorithms(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("f1", "f5", "goldstein-price", "easom"):
            assert name in out
        for algo in ("slm", "slmga", "rs", "rsw", "sa", "de"):
            assert algo in out
        assert "kernel backend:" in out


class TestRun:
    def test_builtin_function_csv(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--function", "f5", "--algo", "slmga",
                               "--h-tol", "0.3", "--format", "csv")
        assert code == 0
        assert out.startswith("trial,step,h,best_x_1,best_x_2,best_f")

    def test_expression(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--expr", "x1^2+x2^2", "--dim", "2",
                               "--lower", "-4", "--upper", "4", "--algo", "slm",
                               "--h-tol", "0.001", "--format", "json")
        assert code == 0
        summary_at = out.rindex("# bv=")
        data = json.loads(out[:summary_at])
        assert data[0]["best"]["f"] == 0.0

    def test_both_function_and_expr_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--function", "f1", "--expr", "x1")
        assert code == 2
        assert "config error" in err

    def test_every_run_flag_is_an_experiment_key(self):
        # a new flag must reach harness.experiment_config, not a parser of its own
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["run"]._actions} - {"help"}
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)} | set(INI_KEYS)
        assert dests <= keys | set(ALGORITHM_FLAGS) | {"seed", "config", "out"}

    def test_expr_without_dim_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--expr", "x1^2")
        assert code == 2

    def test_unknown_function_is_objective_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--function", "f99")
        assert code == 3

    def test_bad_expression_is_objective_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--expr", "x1 +* 2", "--dim", "1")
        assert code == 3
        assert "expression error" in err

    def test_overflow_is_objective_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--expr", "exp(x1*1000)", "--dim", "1",
                               "--algo", "slm")
        assert code == 3
        assert err.startswith("expression error:")

    @pytest.mark.parametrize("h_tol", ["100", "inf"])
    def test_slm_with_no_level_to_run(self, capsys, h_tol):
        # h_tol above the level-1 step: the best box corner, as slmga reports
        code, out, _ = run_cli(capsys, "run", "--function", "f2", "--algo", "slm",
                               "--h-tol", h_tol, "--format", "json")
        assert code == 0
        data = json.loads(out[:out.rindex("# bv=")])
        assert data[0]["steps"] == []
        assert data[0]["evaluations"] == 4
        assert data[0]["converged"]
        assert data[0]["best"]["k"] == [1, 1]

    @pytest.mark.parametrize("flags", [
        ("--expr", "x1", "--dim", "0"),
        ("--expr", "x1", "--dim", "-1"),
        ("--expr", "x1", "--dim", "1", "--lower", "nan"),
        ("--expr", "x1", "--dim", "1", "--upper", "inf"),
        ("--expr", "x1", "--dim", "1", "--lower=-inf"),
        ("--expr", "x1", "--dim", "1", "--lower", "5", "--upper", "1"),
        # a named objective has its own box
        ("--function", "f2", "--dim", "5", "--lower", "3", "--upper", "1"),
        ("--function", "f2", "--lower", "3"),
        ("--function", "f2", "--upper", "10"),
        ("--function", "f2", "--dim", "2"),
    ])
    def test_bad_expression_box_is_config_error(self, capsys, flags):
        code, _, err = run_cli(capsys, "run", "--algo", "rs", "--budget", "5", *flags)
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("lines", [
        "dim = 0", "dim = 1\nlower = nan", "dim = 1\nupper = inf",
        "dim = 1\nlower = 5\nupper = 1",
    ])
    def test_bad_expression_box_in_config_is_config_error(self, capsys, tmp_path, lines):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nexpr = x1\nalgo = rs\nbudget = 5\n%s\n" % lines)
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")

    def test_not_converged_exit_code_still_writes(self, capsys, tmp_path):
        out_file = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "run", "--function", "f2", "--algo", "slmga",
                             "--h-tol", "1e-9", "--max-gens", "3",
                             "--format", "csv", "--out", str(out_file))
        assert code == 4
        assert out_file.read_text().startswith("trial,step,h")

    def test_config_file(self, capsys, tmp_path):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f5\nalgo = slmga\nh_tol = 0.3\nformat = csv\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(ini))
        assert code == 0
        assert "trial,step,h" in out

    @pytest.mark.parametrize("flags", [
        ("--algo", "de", "--h-tol", "0.9", "--format", "json"),
        ("--seed", "4"),
        ("--function", "f1"),
        ("--trials", "2"),
    ])
    def test_config_file_takes_no_other_run_flag(self, capsys, tmp_path, flags):
        ini = tmp_path / "f5.ini"
        ini.write_text("[a]\nobjective = f5\nalgo = slmga\nh_tol = 0.3\nformat = csv\n")
        code, out, err = run_cli(capsys, "run", "--config", str(ini), *flags)
        assert code == 2
        assert err.startswith("config error:")
        assert flags[0] in err
        assert out == ""

    def test_config_file_with_out(self, capsys, tmp_path):
        ini = tmp_path / "f5.ini"
        ini.write_text("[a]\nobjective = f5\nalgo = slmga\nh_tol = 0.3\nformat = csv\n")
        out_file = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "run", "--config", str(ini), "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("trial,step,h")

    @pytest.mark.parametrize("data", [
        b"expr = x1\n",                                       # no section header
        b"[a]\nobjective = f2\n[a]\nobjective = f1\n",        # duplicated section
        b"[a]\nobjective = f2\nobjective = f1\n",             # duplicated key
        b"[a]\nobjective = f2\nalgo = rs\n# \xff\xfe\n",      # not UTF-8
    ])
    def test_malformed_config_file_is_config_error(self, capsys, tmp_path, data):
        ini = tmp_path / "e.ini"
        ini.write_bytes(data)
        code, out, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")
        assert out == ""

    def test_percent_in_config_value_is_literal(self, capsys, tmp_path):
        # no interpolation: the value reaches the expression parser as written
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nexpr = x1 % 2\ndim = 1\nalgo = rs\n")
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 3
        assert err.startswith("expression error:")

    @pytest.mark.parametrize("second,want", [
        ("objective = f2\nalgo = rsw\ninitial = 5,5", 2),
        ("objective = f99\nalgo = rs", 3),
        ("expr = x1 +* 2\ndim = 1\nalgo = rs", 3),
        ("expr = x1^2\nalgo = slm", 2),
    ])
    def test_config_sections_checked_against_objective_before_any_runs(
            self, capsys, tmp_path, monkeypatch, second, want):
        from subgrid import harness

        def refuse(*args, **kwargs):
            raise AssertionError("a section ran before every section was checked")

        monkeypatch.setattr(harness, "run_algorithm", refuse)
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f3\nalgo = slmga\nh_tol = 0.1\n\n[b]\n%s\n" % second)
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == want
        assert "error" in err

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SUBGRID_SEED", "123")
        code, out, _ = run_cli(capsys, "run", "--function", "f2", "--algo", "rs",
                               "--budget", "50", "--format", "json")
        assert code == 0
        summary_at = out.rindex("# bv=")
        data = json.loads(out[:summary_at])
        assert data[0]["meta"]["seed"] == 123

    @pytest.mark.parametrize("algo,flag,value", [
        ("slm", "--h-tol", "0"),
        ("slmga", "--max-gens", "0"),
        ("slmga", "--budget", "5"),
        ("de", "--h-tol", "0.1"),
        ("rs", "--max-gens", "3"),
        ("slm", "--h-tol", "nan"),
        ("slmga", "--h-tol", "nan"),
    ])
    def test_bad_algorithm_flag_is_config_error(self, capsys, algo, flag, value):
        code, _, err = run_cli(capsys, "run", "--function", "f2", "--algo", algo,
                               flag, value)
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("algo,line", [
        ("slmga", "label_rule = bogus"),
        ("slmga", "h_tol = abc"),
        ("rs", "budget = abc"),
        ("slmga", "epsilon = -1"),
        ("slm", "neighbor_scheme = bogus"),
        ("slmga", "htol = 0.3"),
        ("slmga", "trace = t.svg"),
        ("slm", "label_rule = gradient-fixed-point"),
        ("rsw", "initial = 5,5"),
        ("sa", "initial = 1,2,3"),
        ("slmga", "function = f1"),
        ("slm", "h_tol = nan"),
        ("slmga", "h_tol = nan"),
        ("sa", "t0 = nan"),
        ("sa", "t0 = inf"),
        ("rsw", "step_scale = nan"),
        ("rsw", "step_scale = inf"),
        ("sa", "step_scale = nan"),
        ("de", "f_weight = nan"),
        ("de", "f_weight = -inf"),
        ("rsw", "step_scale = 0"),
        ("sa", "step_scale = 0"),
        ("rsw", "patience = 0"),
        ("rs", "seed = -1"),
        ("rs", "dim = 5\nlower = 3\nupper = 1"),
        ("rs", "lower = 3"),
        ("rs", "upper = 10"),
        ("rs", "dim = 2"),
        ("rs", "expr = x1^2\ndim = 1"),
    ])
    def test_bad_config_parameter_is_config_error(self, capsys, tmp_path, algo, line):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = %s\n%s\n" % (algo, line))
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("env,line,want", [
        ("7", "", 7),            # a section without seed runs at SUBGRID_SEED
        ("7", "seed = 3", 3),    # a section's own seed wins
        (None, "", 0),
    ])
    def test_seed_env_under_config(self, capsys, tmp_path, monkeypatch, env, line, want):
        if env is None:
            monkeypatch.delenv("SUBGRID_SEED", raising=False)
        else:
            monkeypatch.setenv("SUBGRID_SEED", env)
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = rs\nbudget = 20\nformat = json\n%s\n"
                       % line)
        code, out, _ = run_cli(capsys, "run", "--config", str(ini))
        assert code == 0
        data = json.loads(out[:out.rindex("# bv=")])
        assert data[0]["meta"]["seed"] == want

    def test_bad_seed_env_under_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBGRID_SEED", "x")
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = rs\nbudget = 20\nformat = json\n")
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("argv", [
        ("run", "--function", "f2", "--algo", "rs", "--budget", "5", "--seed", "-1"),
        ("run", "--function", "f4", "--algo", "slmga", "--seed", "-2"),
        ("bench", "--seed", "-1"),
        ("trace", "--function", "easom", "--seed", "-1", "--out", os.devnull),
    ])
    def test_negative_seed_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("config error:")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("run", "--function", "f2", "--algo", "rs", "--budget", "5"),
        ("bench",),
    ])
    def test_negative_seed_env_is_config_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("SUBGRID_SEED", "-1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("config error:")
        assert out == ""

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SUBGRID_SEED", "twelve")
        code, _, err = run_cli(capsys, "run", "--function", "f2", "--algo", "rs",
                               "--budget", "10")
        assert code == 2


class TestBench:
    def test_json_bench(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        by_fn = {r["function"]: r for r in rows}
        assert by_fn["f1"]["generations"] == 18
        assert by_fn["f4"]["png"] == 144
        # byte pin of the whole table at seed 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fae20df8914451699c249797451d50bb76d0f0da7b562cb695d31c8b040fd569")


class TestTrace:
    def test_svg_output(self, capsys, tmp_path):
        out_file = tmp_path / "t.svg"
        code, _, _ = run_cli(capsys, "trace", "--function", "easom",
                             "--algo", "slm", "--h-tol", "0.1",
                             "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert "<svg" in text and "cell-outline" in text

    @pytest.mark.parametrize("algo,want", [("slm", 0), ("slmga", 2)])
    def test_sense_max_is_slm_only(self, capsys, tmp_path, algo, want):
        code, _, err = run_cli(capsys, "trace", "--function", "easom", "--algo", algo,
                               "--h-tol", "0.1", "--sense", "max",
                               "--out", str(tmp_path / "t.svg"))
        assert code == want
        assert err.startswith("config error:") == (want == 2)


class TestEval:
    def test_evaluates_expression(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--expr", "x1^2 + x2^2",
                               "--at", "3,4")
        assert code == 0
        assert out.strip() == "25.0"

    def test_division_by_zero(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "1/x1", "--at", "0")
        assert code == 3

    @pytest.mark.parametrize("expr", ["exp(x1*1000)", "floor(x1*1e308*10)"])
    def test_overflow_is_expression_error(self, capsys, expr):
        code, _, err = run_cli(capsys, "eval", "--expr", expr, "--at", "1")
        assert code == 3
        assert err.startswith("expression error:")

    def test_non_ascii_digit_is_expression_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "x1\u00b2", "--at", "1")
        assert code == 3
        assert err.startswith("expression error:")

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "x1", "--at", "a,b")
        assert code == 2
