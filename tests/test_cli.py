import hashlib
import json

import pytest

from subgrid.cli import main


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
    ])
    def test_bad_config_parameter_is_config_error(self, capsys, tmp_path, algo, line):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = %s\n%s\n" % (algo, line))
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")

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


class TestEval:
    def test_evaluates_expression(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--expr", "x1^2 + x2^2",
                               "--at", "3,4")
        assert code == 0
        assert out.strip() == "25.0"

    def test_division_by_zero(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "1/x1", "--at", "0")
        assert code == 3

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "x1", "--at", "a,b")
        assert code == 2
