import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subgrid
from subgrid import harness, slmga
from subgrid.cli import build_parser, main
from subgrid.harness import ALGORITHMS, ALIASES, ExperimentConfig


SUBNORMAL_GRADIENT_KEYS = {
    "expr": "x1", "dim": "1", "lower": "0", "upper": "5e-324", "algo": "slmga",
    "label_rule": "gradient-fixed-point", "h_tol": "5e-324"}


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


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_every_command_of_the_readme_runs(capsys, tmp_path, monkeypatch):
    # each `subgrid ...` line of README's CLI block, in a directory that holds
    # the experiments.ini it names
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("subgrid ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiments.ini").write_text("[a]\nfunction = f2\nalgo = rs\nbudget = 5\n")
    for argv in commands:
        code, _, err = run_cli(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv


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
        keys = {f.name for cls in [ExperimentConfig] + [c for c, _, _ in ALGORITHMS.values()]
                for f in dataclasses.fields(cls)} | set(ALIASES)
        assert dests <= keys | {"config", "out"}

    @pytest.mark.parametrize("algo,flag,alias,field,value", [
        ("slmga", "--max-gens", "max_gens", "max_generations", "2"),
        ("de", "--budget", "budget", "generations", "3"),
    ])
    def test_an_ini_section_takes_the_flags_spellings(self, capsys, tmp_path,
                                                       algo, flag, alias, field, value):
        def by_file(key):
            ini = tmp_path / "e.ini"
            ini.write_text("[a]\nfunction = f2\nalgo = %s\n%s = %s\nformat = csv\n"
                           % (algo, key, value))
            return run_cli(capsys, "run", "--config", str(ini))

        by_flags = run_cli(capsys, "run", "--function", "f2", "--algo", algo, flag, value,
                           "--format", "csv")
        assert by_file(alias) == by_flags == by_file(field)
        assert by_flags != run_cli(capsys, "run", "--function", "f2", "--algo", algo,
                                   "--format", "csv")

    def test_a_field_under_two_spellings_is_config_error(self, capsys, tmp_path):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nfunction = f2\nalgo = slmga\nmax_gens = 2\nmax_generations = 3\n")
        code, out, err = run_cli(capsys, "run", "--config", str(ini))
        assert (code, out) == (2, "")
        assert err == "config error: section [a]: a field is set by two spellings\n"

    @pytest.mark.parametrize("argv,message", [
        (("run", "--function", "f2", "--algo", "rs", "--max-gens", "3"),
         "RsConfig has no field 'max_gens'"),
        (("run", "--function", "f2", "--algo", "de", "--h-tol", "0.1"),
         "DeConfig has no field 'h_tol'"),
        (("trace", "--function", "easom", "--algo", "slmga", "--sense", "max"),
         "GaConfig has no field 'sense'"),
    ], ids=["rs-max-gens", "de-h-tol", "trace-slmga-sense"])
    def test_a_flag_the_algorithm_lacks_is_config_error(self, capsys, tmp_path, argv, message):
        out_file = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--out", str(out_file))
        assert (code, err) == (2, "config error: %s\n" % message)
        assert not out_file.exists()

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

    def test_an_expression_is_parsed_and_compiled_once(self, capsys):
        # checking the flags and running them resolve the same expression,
        # and parsing it compiles its function
        harness._compiled_expression.cache_clear()
        with mock.patch.object(harness, "expr_parse", wraps=harness.expr_parse) as parse:
            code, _, _ = run_cli(capsys, "run", "--expr", "x1^2+x2^2", "--dim", "2",
                                 "--algo", "rs", "--budget", "3")
        assert code == 0
        assert parse.call_count == 1

    def test_a_bad_expression_fails_every_time(self, capsys):
        # an error is not cached: the second run parses again and fails alike
        harness._compiled_expression.cache_clear()
        with mock.patch.object(harness, "expr_parse", wraps=harness.expr_parse) as parse:
            for _ in range(2):
                code, _, err = run_cli(capsys, "run", "--expr", "x1 +* 2", "--dim", "1")
                assert code == 3
                assert err.startswith("expression error:")
        assert parse.call_count == 2

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

    def test_slm_with_no_level_to_run_csv(self, capsys):
        # a report with no steps writes one row for its best point
        code, out, _ = run_cli(capsys, "run", "--function", "f2", "--algo", "slm",
                               "--h-tol", "100", "--format", "csv")
        assert code == 0
        assert out == (
            "trial,step,h,best_x_1,best_x_2,best_f,label_multiset\n"
            "0,1,,2.048,2.048,461.7603900415999,\n"
            "# bv=461.7603900415999 median_bv=461.7603900415999 generations=0 "
            "sd=1.4820958133670037\n")

    @pytest.mark.parametrize("algo,key,cap,digest", [
        ("slm", "max_levels", 1024,
         "6a34951096615c591f444f6672090f559de15044e2b2a6a12f83f06b80943217"),
        ("slmga", "max_generations", 1023,
         "59c23f4ae276c4c2a0a735815809167ab579c09051a4870d6d4f2a8da56a0b0f"),
    ], ids=["slm-max_levels-1024", "slmga-max_generations-1023"])
    def test_level_cap_beyond_float_steps_is_config_error(self, capsys, tmp_path,
                                                          algo, key, cap, digest):
        # the top index of a level-L lattice, 2**(L-1), is a float only up to
        # L = 1024; SLMGA places its offspring one level below its generation
        code, _, err = run_cli(capsys, "run", "--function", "f2", "--algo", algo,
                               "--h-tol", "1e-320", "--max-gens", str(cap + 1))
        assert code == 2
        assert err.startswith("config error:")
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = %s\nh_tol = 1e-320\n%s = 2000\n"
                       % (algo, key))
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")
        # the deepest cap runs to its end without converging; far from 0,
        # neighbouring fine indices share one position there
        code, out, _ = run_cli(capsys, "run", "--function", "f2", "--algo", algo,
                               "--h-tol", "1e-320", "--max-gens", str(cap), "--format", "csv")
        assert code == 4
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deepest_slmga_run_json_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--function", "f2", "--algo", "slmga",
                               "--h-tol", "1e-320", "--max-gens", "1023", "--format", "json")
        assert code == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8ac4c056847d07c91075244bd89ef5781bf4472bc03c59be066cef01cbfe6d5c")

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
        # no box holds more than 10**6 dimensions
        ("--expr", "x1", "--dim", "1000001"),
        ("--expr", "x1", "--dim", "1" + "0" * 21),
    ])
    def test_bad_expression_box_is_config_error(self, capsys, flags):
        code, _, err = run_cli(capsys, "run", "--algo", "rs", "--budget", "5", *flags)
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("lines", [
        "dim = 0", "dim = 1\nlower = nan", "dim = 1\nupper = inf",
        "dim = 1\nlower = 5\nupper = 1", "dim = 1000001", "dim = 1" + "0" * 21,
    ])
    def test_bad_expression_box_in_config_is_config_error(self, capsys, tmp_path, lines):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nexpr = x1\nalgo = rs\nbudget = 5\n%s\n" % lines)
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("algo", ["slm", "slmga", "rs", "rsw", "sa", "de"])
    def test_overflowing_box_width_is_config_error(self, capsys, tmp_path, algo):
        # each bound is finite, the width is not
        code, _, err = run_cli(capsys, "run", "--expr", "x1^2+x2^2", "--dim", "2",
                               "--lower=-1e308", "--upper=1e308", "--algo", algo)
        assert code == 2
        assert err.startswith("config error:")
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nexpr = x1^2+x2^2\ndim = 2\nlower = -1e308\nupper = 1e308\n"
                       "algo = %s\n" % algo)
        code, _, err = run_cli(capsys, "run", "--config", str(ini))
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("argv,code,err", [
        (("--expr", "x1", "--dim", "1", "--lower", "2", "--upper", "1", "--algo", "rs"), 2,
         "config error: need lower < upper and a finite width in every dimension\n"),
        (("--expr", "x1", "--dim", "21", "--algo", "slm"), 3,
         "error: slm enumerates 3**21 points per cell, above the limit of 768\n"),
        (("--function", "f4", "--algo", "slm"), 3,
         "error: slm enumerates 3**30 points per cell, above the limit of 768\n"),
    ])
    def test_refusal_exit_code_and_message(self, capsys, argv, code, err):
        assert run_cli(capsys, "run", *argv) == (code, "", err)

    @pytest.mark.parametrize("section,dim", [
        ("expr = x1\ndim = 21\nalgo = slm\nh_tol = 10\n", 21),
        ("function = f4\nalgo = slm\n", 30),
        # the smallest refused box
        ("expr = x1\ndim = 7\nalgo = slm\nh_tol = 10\n", 7),
    ], ids=["expr", "f4", "expr-7d"])
    def test_corner_limit_is_checked_before_any_section_runs(self, capsys, tmp_path,
                                                             monkeypatch, section, dim):
        def refuse(*args, **kwargs):
            raise AssertionError("a section ran before every section was checked")

        monkeypatch.setattr(slmga, "ga_run", refuse)
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nfunction = f2\nalgo = slmga\nh_tol = 0.5\n\n[b]\n" + section)
        assert run_cli(capsys, "run", "--config", str(ini)) == (
            3, "", "error: slm enumerates 3**%d points per cell, above the limit of 768\n"
            % dim)

    @pytest.mark.parametrize("argv,err", [
        (("run", "--" + "a" * 3000), "unrecognized argument '--aaaaaaaaaaaaaaaaaa...'"),
        (("a" * 3000,), "bad value 'aaaaaaaaaaaaaaaaaaaa...' for command "
                        "(have: list, run, bench, trace, eval)"),
        (("run", "--f=" + "a" * 3000), "ambiguous option: --f=" + "a" * 78 + "..."),
        (("trace",), "the following arguments are required: --function, --out"),
    ])
    def test_command_line_refusal_is_config_error(self, capsys, argv, err):
        # argparse's own message would quote the argument whole, after its usage
        assert run_cli(capsys, *argv) == (2, "", "config error: %s\n" % err)

    @pytest.mark.parametrize("algo,line,err", [
        ("slm", "h_tol = 0", "h_tol must be positive"),
        ("slm", "max_levels = 0", "max_levels must be in 1..1024"),
        ("slm", "label_rule = gradient-fixed-point", "slm labels by the best neighbor only"),
        ("slmga", "h_tol = 0", "h_tol must be positive"),
        ("slmga", "max_generations = 0", "max_generations must be in 1..1023"),
        ("slmga", "mutation_rate = 0", "mutation_rate must be in (0, 1]"),
        ("slmga", "epsilon = -1", "epsilon must be finite and >= 0"),
        ("rs", "budget = 0", "budget must be >= 1"),
    ])
    def test_engine_config_refusal_reads_as_a_baseline_one(self, capsys, tmp_path,
                                                            algo, line, err):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = %s\n%s\n" % (algo, line))
        assert run_cli(capsys, "run", "--config", str(ini)) == (
            2, "", "config error: section [a]: %s\n" % err)

    @pytest.mark.parametrize("n", [20, 3000])
    @pytest.mark.parametrize("case,message", [
        ("algo", "section [a]: unknown algorithm %s (have: de, rs, rsw, sa, slm, slmga)"),
        ("h_tol", "section [a]: bad value %s for GaConfig.h_tol"),
        ("neighbor_scheme", "section [a]: bad value %s for SlmConfig.neighbor_scheme"),
        ("key", "section [a]: RsConfig has no field %s"),
        ("function", "dim, lower and upper apply to an expression, not to %s"),
        ("seed", "SUBGRID_SEED=%s is not an integer"),
    ])
    def test_an_outside_value_is_quoted_in_part(self, capsys, tmp_path, monkeypatch,
                                                case, message, n):
        value = "a" * n
        ini = tmp_path / "e.ini"
        argv = ("run", "--config", str(ini))
        if case == "function":
            argv = ("run", "--function", value, "--dim", "2")
        elif case == "seed":
            monkeypatch.setenv("SUBGRID_SEED", value)
            argv = ("run", "--function", "f2")
        else:
            ini.write_text("[a]\nobjective = f2\n" + {
                "algo": "algo = %s\n", "h_tol": "algo = slmga\nh_tol = %s\n",
                "neighbor_scheme": "algo = slm\nneighbor_scheme = %s\n",
                "key": "algo = rs\n%s = 1\n"}[case] % value)
        quoted = repr(value if n <= 20 else value[:20] + "...")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "config error: %s\n" % (message % quoted))
        assert len(err.encode()) < 200

    def test_an_initial_point_is_quoted_in_part(self, capsys, tmp_path):
        # 5,000 coordinates for f2's 2-d box
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = rsw\ninitial = %s\n" % ",".join(["5"] * 5000))
        assert run_cli(capsys, "run", "--config", str(ini)) == (
            2, "", "config error: section [a]: initial point (5.0, 5.0, 5.0, 5.0,... "
                   "is not in the 2-d box\n")

    @pytest.mark.parametrize("algo", ["slm", "slmga"])
    def test_grid_engines_run_on_a_decimal_box(self, capsys, algo):
        # the level-1 top vertex -1.3 + 1 * 4.2 rounds past the upper bound
        code, out, _ = run_cli(capsys, "run", "--expr", "x1^2+x2^2", "--dim", "2",
                               "--lower", "-1.3", "--upper", "2.9", "--algo", algo,
                               "--format", "json")
        assert code == 0
        data = json.loads(out[:out.rindex("# bv=")])
        assert [2.9, 2.9] in [c["x"] for c in data[0]["steps"][0]["population"]]

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

    @pytest.mark.parametrize("data", [
        "a" * 3000 + "\n",                                    # no section header
        "[a]\n%s = 1\n%s = 2\n" % ("k" * 3000, "k" * 3000),   # duplicated key
        "[%s]\n[%s]\n" % ("s" * 3000, "s" * 3000),            # duplicated section
    ], ids=["header", "key", "section"])
    def test_configparser_text_is_quoted_in_part(self, capsys, tmp_path, data):
        ini = tmp_path / "e.ini"
        ini.write_text(data)
        code, out, err = run_cli(capsys, "run", "--config", str(ini))
        assert (code, out) == (2, "")
        assert err.startswith("config error: cannot parse config file %r at line " % str(ini))
        assert len(err.encode()) - len(str(ini).encode()) < 200

    def test_unknown_keys_are_counted_past_a_few(self, capsys, tmp_path):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = rs\n"
                       + "".join("key%03d = 1\n" % i for i in range(500)))
        assert run_cli(capsys, "run", "--config", str(ini)) == (2, "", (
            "config error: section [a]: RsConfig has no field 'key000', 'key001', 'key002'"
            " and 497 more\n"))

    @pytest.mark.parametrize("lines", [
        "expr = x1\ndim = 1\npop_size = 100000000000",
        "expr = x1\ndim = 10000\npop_size = 1001",
        "function = f4\npop_size = 333334",
    ])
    def test_an_unaffordable_de_population_is_config_error(self, capsys, tmp_path, lines):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nalgo = de\ngenerations = 1\n%s\n" % lines)
        assert run_cli(capsys, "run", "--config", str(ini)) == (
            2, "", "config error: section [a]: a generation's points * dim must be <= 10000000\n")

    def test_an_unaffordable_de_population_exits_2_without_traceback(self, tmp_path):
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nexpr = x1\ndim = 1\nalgo = de\ngenerations = 1\n"
                       "pop_size = 100000000000\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subgrid.__file__)))
        proc = subprocess.run([sys.executable, "-m", "subgrid.cli", "run", "--config", str(ini)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr

    def test_an_slmga_generation_of_1581_dims_is_refused_before_any_runs(
            self, capsys, tmp_path, monkeypatch):
        # above 6-d two sweeps hold 2 * (2n + 1) points: 9,988,760 floats at
        # 1,580-d, 10,001,406 at 1,581-d
        def refuse(*args, **kwargs):
            raise AssertionError("a section ran before every section was checked")

        monkeypatch.setattr(harness, "run_algorithm", refuse)
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f2\nalgo = rs\n\n"
                       "[b]\nexpr = x1\ndim = 1581\nalgo = slmga\n")
        assert run_cli(capsys, "run", "--config", str(ini)) == (2, "", (
            "config error: section [b]: a generation's points * dim must be <= 10000000\n"))

    def test_an_slmga_generation_of_1580_dims_is_accepted(self):
        cfg = harness.experiment_config({"expr": "x1", "dim": "1580", "algo": "slmga"})
        assert (cfg.algo, cfg.dim) == ("slmga", 1580)

    def test_gradient_labels_on_a_subnormal_box_exit_0(self, capsys, tmp_path):
        # h = width / 2 rounds to 0: no difference step fits, so the label is
        # the best neighbour's step
        ini = tmp_path / "e.ini"
        ini.write_text(_ini_text([("a", SUBNORMAL_GRADIENT_KEYS)]))
        code, out, err = run_cli(capsys, "run", "--config", str(ini))
        assert (code, err) == (0, "")
        assert "| Step1 | SLMGA | expr:x1 |" in out
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subgrid.__file__)))
        proc = subprocess.run([sys.executable, "-m", "subgrid.cli", "run", "--config", str(ini)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_annealing_cooled_to_zero_exit_0(self, capsys, tmp_path):
        # cooling 0.5 rounds t down to 0.0 within the budget, and F4's noise
        # then makes uphill moves: accepted with probability 0, not divided by t
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nfunction = f4\nalgo = sa\nbudget = 2000\ncooling = 0.5\n")
        code, out, err = run_cli(capsys, "run", "--config", str(ini))
        assert (code, err) == (0, "")
        assert "| SA | f4 |" in out

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

    @pytest.mark.parametrize("algo,budget", [("slm", ()), ("slmga", ()), ("de", ("--budget", "2"))],
                             ids=["slm", "slmga", "de"])
    def test_a_948_term_sum_runs(self, algo, budget):
        # no fixed depth limit: a fresh interpreter, as the command line has,
        # runs a sum nested 947 deep, 36 terms short of the longest it parses
        src = os.path.dirname(os.path.dirname(os.path.abspath(subgrid.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from subgrid.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", "--expr", "+".join(["x1"] * 948),
             "--dim", "1", "--algo", algo, *budget, "--format", "csv"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "# bv=" in proc.stdout


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

    @pytest.mark.parametrize("flags,digest", [
        # markdown is the default format
        ((), "34e4ea7726f9b200ac064be24728eb423f23ee14f9b0966a44be04cb734dc752"),
        (("--format", "csv"),
         "a271ab8511b2874e2358818eb6d685a5644787758a3804130a5cb6adc497b190"),
    ], ids=["markdown", "csv"])
    def test_table_bytes(self, capsys, flags, digest):
        code, out, _ = run_cli(capsys, "bench", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("run", "--function", "f2", "--algo", "rs", "--budget", "5"),
    ("bench",),
    ("trace", "--function", "f2", "--h-tol", "0.5"),
], ids=["run", "bench", "trace"])
def test_out_into_a_missing_directory_is_config_error(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert err.startswith("config error: cannot write ")


OUT_ARGV = {
    "run": ("run", "--function", "f2", "--algo", "rs", "--budget", "5"),
    "run-config": ("run", "--config", "{ini}"),
    "bench": ("bench",),
    "trace": ("trace", "--function", "f2", "--h-tol", "0.5"),
}


@pytest.mark.parametrize("out,reason", [
    ("missing/x", "No such file or directory"),
    ("a-file/x", "Not a directory"),
    ("a-file/sub/x", "Not a directory"),
    ("a-dir", "Is a directory"),
], ids=["missing-directory", "parent-is-a-file", "grandparent-is-a-file",
        "out-is-a-directory"])
@pytest.mark.parametrize("command", sorted(OUT_ARGV))
def test_out_refused_before_any_run(capsys, tmp_path, monkeypatch, command, out, reason):
    from subgrid import harness

    def refuse(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    for name in ("run_experiment", "run_algorithm", "bench_suite"):
        monkeypatch.setattr(harness, name, refuse)
    (tmp_path / "a-file").write_text("kept")
    (tmp_path / "a-dir").mkdir()
    ini = tmp_path / "e.ini"
    ini.write_text("[a]\nobjective = f2\nalgo = rs\nbudget = 5\n")
    argv = [a.format(ini=ini) for a in OUT_ARGV[command]]
    path = str(tmp_path / out)
    code, out_text, err = run_cli(capsys, *argv, "--out", path)
    assert code == 2
    assert err == "config error: cannot write %s: %s\n" % (path, reason)
    assert out_text == ""
    assert (tmp_path / "a-file").read_text() == "kept"


def test_out_through_a_dangling_symlink_is_config_error(capsys, tmp_path):
    # the link's own directory exists, so only the write itself fails
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing" / "x")
    code, out, err = run_cli(capsys, "run", "--function", "f2", "--algo", "rs", "--budget", "5",
                             "--out", str(link))
    assert (code, out) == (2, "")
    assert err == "config error: cannot write %s: No such file or directory\n" % link


def test_out_kept_when_the_run_is_refused(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    out_file.write_text("kept")
    code, _, _ = run_cli(capsys, "run", "--function", "f2", "--algo", "rs",
                         "--h-tol", "0.1", "--out", str(out_file))
    assert code == 2
    assert out_file.read_text() == "kept"


class TestTrace:
    @pytest.mark.parametrize("name", ["f1", "f4"])
    def test_objective_not_2d_is_config_error(self, capsys, tmp_path, name):
        out_file = tmp_path / "t.svg"
        code, _, err = run_cli(capsys, "trace", "--function", name, "--h-tol", "0.5",
                               "--out", str(out_file))
        assert code == 2
        assert err.startswith("config error:") and "2-d" in err
        assert not out_file.exists()

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

    def test_at_of_another_length_than_dim_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--expr", "x1", "--at", "1,2", "--dim", "3")
        assert (code, out, err) == (2, "", "config error: --at has 2 coordinates, --dim is 3\n")

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

    @pytest.mark.parametrize("nest", [
        lambda d: "(" * d + "x1" + ")" * d,     # the parser recurses per parenthesis
        lambda d: "^".join(["1"] * 2 * d),      # and per right-associative power
        lambda d: "+".join(["x1"] * 3 * d),     # and per operator of a chain
    ], ids=["parentheses", "powers", "sum"])
    def test_deep_nesting_is_expression_error(self, capsys, nest):
        # nested past the recursion limit, whatever the frames per level
        expr = nest(sys.getrecursionlimit())
        code, _, err = run_cli(capsys, "eval", "--expr", expr, "--at", "1")
        assert code == 3
        assert err.startswith("expression error: expression nested too deeply")

    # the second section's cheap settings, per algorithm
    NEAR_LIMIT = {"slm": "h_tol = 1", "slmga": "h_tol = 1", "rs": "budget = 5",
                  "rsw": "budget = 5", "sa": "budget = 5", "de": "budget = 1\npop_size = 4"}

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("joiner,term", [("^", "1"), ("+", "x1")], ids=["powers", "sum"])
    def test_a_chain_near_the_limit_fails_before_any_section_runs_or_runs(
            self, capsys, tmp_path, monkeypatch, joiner, term, traced):
        # an engine evaluates deeper in the stack than the file is checked,
        # perfbench's tracer deeper still; the compiled function takes one
        # frame wherever it runs, so no file fails after its first section
        ran = []
        run_experiment = harness.run_experiment

        def recording(cfg):
            ran.append(cfg.algo)
            return run_experiment(cfg)

        monkeypatch.setattr(harness, "run_experiment", recording)
        monkeypatch.setattr(subgrid, "run_experiment", recording)
        ini = tmp_path / "e.ini"

        def run(length, algo):
            harness._compiled_expression.cache_clear()
            ran.clear()
            ini.write_text("[a]\nfunction = f2\nalgo = rs\nbudget = 5\n\n"
                           "[b]\nexpr = %s\ndim = 1\nalgo = %s\n%s\n"
                           % (joiner.join([term] * length), algo, self.NEAR_LIMIT[algo]))
            return run_cli(capsys, "run", "--config", str(ini))

        with contextlib.ExitStack() as stack:
            if traced:
                monkeypatch.syspath_prepend(PERFBENCH)
                from tracer import Tracer
                stack.enter_context(Tracer().installed())
            lo, hi = 1, 2 * sys.getrecursionlimit()  # the longest chain that runs
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if run(mid, "rs")[0] != 3 else (lo, mid)
            for algo in ALGORITHMS:
                for length in range(lo - 3, lo + 2):
                    code, out, err = run(length, algo)
                    if length > lo:
                        assert (code, ran, out) == (3, [], ""), (algo, length)
                        assert err.startswith("expression error: expression nested too "
                                              "deeply (at offset ")
                    else:
                        assert code in (0, 4) and ran == ["rs", algo], (algo, length, err)

    @pytest.mark.parametrize("way", ["eval", "run", "ini"])
    def test_a_3000_term_sum_is_too_deep(self, capsys, tmp_path, monkeypatch, way):
        # the parser spends a frame per operator, so the sum is refused while
        # its section is checked, before any section runs
        def refuse(*args, **kwargs):
            raise AssertionError("a section ran before every section was checked")

        monkeypatch.setattr(slmga, "ga_run", refuse)
        expr = "+".join(["x1"] * 3000)
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nobjective = f3\nalgo = slmga\nh_tol = 0.015\n\n"
                       "[b]\nexpr = %s\ndim = 1\nalgo = rs\n" % expr)
        argv = {"eval": ("eval", "--expr", expr, "--at", "1"),
                "run": ("run", "--expr", expr, "--dim", "1"),
                "ini": ("run", "--config", str(ini))}[way]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("expression error: expression nested too deeply (at offset ")
        assert out == ""

    @pytest.mark.parametrize("way", ["eval", "run", "ini"])
    def test_a_long_variable_index_is_expression_error(self, capsys, tmp_path, way):
        # more digits than int() converts (4,300): checked as text first
        expr = "x" + "1" * 5000
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nexpr = %s\ndim = 2\n" % expr)
        argv = {"eval": ("eval", "--expr", expr, "--dim", "2", "--at", "1,2"),
                "run": ("run", "--expr", expr, "--dim", "2"),
                "ini": ("run", "--config", str(ini))}[way]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("expression error: variable x111")
        assert "out of range 1..2 (at offset 0)" in err
        assert len(err.encode()) < 200  # the index is quoted in part
        assert out == ""

    @pytest.mark.parametrize("way", ["eval", "run", "ini"])
    def test_a_long_name_is_quoted_in_part(self, capsys, tmp_path, way):
        word = "q" * 5000
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nexpr = %s\ndim = 2\n" % word)
        argv = {"eval": ("eval", "--expr", word, "--dim", "2", "--at", "1,2"),
                "run": ("run", "--expr", word, "--dim", "2"),
                "ini": ("run", "--config", str(ini))}[way]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "unknown function or variable 'qqqqqqqqqqqqqqqqqqqq...' (at offset 0)" in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("way", ["run", "ini"])
    def test_a_long_objective_name_is_quoted_in_part(self, capsys, tmp_path, way):
        name = "f" * 3000
        ini = tmp_path / "e.ini"
        ini.write_text("[a]\nfunction = %s\n" % name)
        argv = {"run": ("run", "--function", name),
                "ini": ("run", "--config", str(ini))}[way]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "unknown objective 'ffffffffffffffffffff...' (have: easom," in err
        assert len(err.encode()) < 200

    def test_leading_zeros_of_any_length(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--expr", "x" + "0" * 5000 + "1",
                               "--dim", "2", "--at", "1,2")
        assert code == 0
        assert out == "1.0\n"

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "x1", "--at", "a,b")
        assert code == 2


# Every way in, fuzzed: INI sections, `run` flags and SUBGRID_SEED.
# Any character a file or an argv can hold; a section name holds no newline or "]".
_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
_WORDS = st.text(_CHARS, max_size=40)
_LONG = st.text(_CHARS, min_size=500, max_size=3000)
_HEADERS = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00\n\r]"), min_size=1, max_size=3000)
# A value as text: any int, floats and their edge spellings, or words and
# long text.
_VALUES = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e999", "1e-320",
                     "0", "-0", "-1", "1,2", "nan,nan", "1e308,-1e308", ""]),
    # values that some key takes
    st.sampled_from(["0.5", "1", "2", "10", "0.5,0.5", "csv", "json", "max",
                     "full-box", "gradient-fixed-point"]),
    _WORDS,
    _LONG,
)
_OBJECTIVES = ["f1", "f2", "f3", "f4", "f5", "easom", "goldstein-price"]
_EXPRS = ["x1", "x1^2 + x2^2", "log(x1)", "1/(x1 - 0.5)", "sqrt(x1)", "exp(x1*1000)",
          "x1 +* 2", "x9"]
# Keys that cost run time alone, and the small values they are drawn from:
# each names a number of levels, generations, probes or trials.  Every other
# key takes any value of _VALUES.
_RUN_TIME = {"trials": st.integers(1, 2), "budget": st.integers(1, 30),
             "generations": st.integers(1, 3), "max_generations": st.integers(1, 3),
             "max_levels": st.integers(1, 3)}
_CAP_OF = {"slm": "max_levels", "slmga": "max_generations", "rs": "budget",
           "rsw": "budget", "sa": "budget", "de": "generations"}
_KNOWN_KEYS = sorted(
    ({"function", "format", "label_rule", "epsilon"}
     | {f.name for f in dataclasses.fields(ExperimentConfig)}
     | {f.name for cls, _, _ in ALGORITHMS.values() for f in dataclasses.fields(cls)})
    - {"algo", "algo_params", "fmt", *_RUN_TIME})


def _mostly(valid, *others):
    """``valid`` three draws in four, else one of ``others``, so that a run
    with several drawn parts still reaches the engines often."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else st.one_of(*others))


_SEEDS = _mostly(st.one_of(st.none(), st.integers(0).map(str)), st.integers().map(str), _VALUES)


def _misspelt(key):
    return st.integers(0, len(key) - 1).flatmap(
        lambda i: st.sampled_from([key[:i] + key[i + 1:], key[:i] + "x" + key[i:],
                                   key[:i] + key[i].upper() + key[i + 1:]]))


@st.composite
def _experiment(draw):
    """One experiment's keys: an objective, an algorithm with its run-time
    cap drawn small, and a few other keys, known, misspelt or long."""
    algo = draw(_mostly(st.sampled_from(sorted(_CAP_OF)), _WORDS, _LONG))
    keys = {"algo": algo, "trials": str(draw(_RUN_TIME["trials"]))}
    if algo in _CAP_OF:
        keys[_CAP_OF[algo]] = str(draw(_RUN_TIME[_CAP_OF[algo]]))
    if draw(st.booleans()):
        keys[draw(st.sampled_from(["objective", "function"]))] = draw(
            _mostly(st.sampled_from(_OBJECTIVES), _WORDS, _LONG))
    else:
        keys["expr"] = draw(_mostly(st.sampled_from(_EXPRS), _WORDS, _LONG))
        keys["dim"] = str(draw(_mostly(st.integers(1, 3), st.integers())))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.one_of(st.sampled_from(_KNOWN_KEYS),
                             st.sampled_from(_KNOWN_KEYS).flatmap(_misspelt), _LONG))
        keys[key] = draw(_VALUES)
    return keys


_FLAGS = {"objective": "--function", "function": "--function", "expr": "--expr",
          "dim": "--dim", "lower": "--lower", "upper": "--upper", "algo": "--algo",
          "seed": "--seed", "trials": "--trials", "h_tol": "--h-tol",
          "max_levels": "--max-gens", "max_generations": "--max-gens", "budget": "--budget",
          "generations": "--budget", "format": "--format"}


_COMMANDS = ["list", "run", "bench", "trace", "eval"]
# Every flag of every command, and their prefixes: argparse takes a unique
# prefix for its flag and refuses an ambiguous one.
_KNOWN_FLAGS = sorted({f for parser in next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices.values() for a in parser._actions for f in a.option_strings})
_FLAG_NAMES = st.one_of(
    st.sampled_from(sorted({f[:i] for f in _KNOWN_FLAGS for i in range(1, len(f) + 1)})),
    st.sampled_from(_KNOWN_FLAGS).flatmap(_misspelt),
    _WORDS.map("--".__add__), _LONG.map("--".__add__), _WORDS, _LONG)
# a flag alone, or with a value after "="
_FLAG_ARGS = st.one_of(_FLAG_NAMES, st.tuples(_FLAG_NAMES, _VALUES).map("=".join))


def _ini_text(sections):
    return "".join("[%s]\n%s" % (name, "".join("%s = %s\n" % kv for kv in keys.items()))
                   for name, keys in sections)


class TestEveryWayIn:
    """``main`` on fuzzed INI files, ``run`` flags, unknown flags and
    commands, and ``SUBGRID_SEED`` ends in a documented exit code, lets no
    exception escape (``--help`` is argparse's ``SystemExit(0)``), and
    writes bounded stderr once the section names and the file path, which a
    message quotes whole, are taken out.

    Values are any int, any float, edge spellings and text up to 3,000
    characters, ``dim`` and ``pop_size`` included; only the keys that cost
    run time alone (``_RUN_TIME``) are drawn small.  ``harness.MAX_DIM`` and
    ``harness.MAX_GENERATION_FLOATS`` are lowered for the test, so that every
    draw they let through runs in milliseconds; the checks that apply them
    are the program's own."""

    # a refusal is one line; a value of _LONG quoted whole passes the bound
    MAX_STDERR = 800

    def _main(self, argv, seed, quoted_whole=()):
        env = {} if seed is None else {"SUBGRID_SEED": seed}
        err = io.StringIO()
        with mock.patch.object(harness, "MAX_DIM", 3), \
                mock.patch.object(harness, "MAX_GENERATION_FLOATS", 3000), \
                mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if seed is None:
                os.environ.pop("SUBGRID_SEED", None)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse printing --help
                code = exc.code
        assert code in (0, 2, 3, 4)
        text = err.getvalue()
        for whole in sorted(quoted_whole, key=len, reverse=True):
            text = text.replace(whole, "")
        assert len(text.encode()) <= self.MAX_STDERR, text[:300]
        return code

    @given(sections=st.lists(st.tuples(st.one_of(st.sampled_from(["a", "b"]), _HEADERS),
                                       _experiment()), max_size=3),
           seed=_SEEDS)
    @example(sections=[("a", SUBNORMAL_GRADIENT_KEYS)], seed=None)
    @settings(max_examples=100, deadline=None)
    def test_ini_files(self, sections, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "e.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_ini_text(sections))
            # the sections as configparser reads them: a key can open one
            read = configparser.ConfigParser(interpolation=None)
            try:
                read.read(path, encoding="utf-8")
            except configparser.Error:
                pass
            self._main(["run", "--config", path], seed, quoted_whole=[path, *read.sections()])

    @given(keys=_experiment(), seed=_SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_run_flags(self, keys, seed):
        argv = ["run"] + ["%s=%s" % (_FLAGS[k], v) for k, v in keys.items() if k in _FLAGS]
        self._main(argv, seed)

    @given(command=st.one_of(st.sampled_from(_COMMANDS), st.sampled_from(_COMMANDS).flatmap(
               _misspelt), _WORDS, _LONG),
           flags=st.lists(_FLAG_ARGS, max_size=3), unknown=_FLAG_ARGS.map("--x".__add__),
           at=st.integers(0, 4), seed=_SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_unknown_flags_and_commands(self, command, flags, unknown, at, seed):
        # no parser knows a flag that starts with --x, so no drawn command runs
        argv = [command, *flags]
        argv.insert(at, unknown)
        assert self._main(argv, seed) in (0, 2)
