"""Command-line front end.

Subcommands: list, run, bench, trace, eval.  Exit codes: 0 success,
2 configuration error, 3 objective or expression error, 4 convergence not
reached (the report is still written).  SUBGRID_SEED overrides the
default seed, also for a config-file section that sets no seed; a seed
below 0 is a configuration error.

``run`` checks its flags as one experiment section: each flag's dest is the
section key it sets, and ``harness.experiment_config`` parses the flags and
every section of a ``--config`` file alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import BACKEND, harness, svgtrace
from .errors import ConfigError, ExprError, ExprEvalError, SubgridError
from .exprparse import evaluate as expr_evaluate
from .exprparse import parse as expr_parse
from .functions import get_objective, objective_names
from .harness import ExperimentConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OBJECTIVE = 3
EXIT_NOT_CONVERGED = 4


def _seed(args) -> int:
    """``--seed``, else ``SUBGRID_SEED``, else 0; never negative."""
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get("SUBGRID_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError("SUBGRID_SEED=%r is not an integer" % raw) from None
    if seed < 0:
        raise ConfigError("seed must be >= 0, not %d" % seed)
    return seed


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="subgrid",
        description="Grid subdivision-labeling optimizers and baselines.")
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list objectives and algorithms")

    # each flag's dest is its key in an INI section (harness.experiment_config)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--function", help="built-in objective name")
    run.add_argument("--expr", help="objective expression in x1..xn "
                     "(note: -x1^2 means -(x1^2))")
    run.add_argument("--dim", type=int, help="dimension for --expr")
    run.add_argument("--lower", type=float, help="box lower bound for --expr "
                     "(default %g)" % ExperimentConfig.lower)
    run.add_argument("--upper", type=float, help="box upper bound for --expr "
                     "(default %g)" % ExperimentConfig.upper)
    run.add_argument("--algo", choices=sorted(harness.ALGORITHMS),
                     help="default %s" % ExperimentConfig.algo)
    run.add_argument("--seed", type=int)
    run.add_argument("--trials", type=int, help="default %d" % ExperimentConfig.trials)
    run.add_argument("--h-tol", type=float)
    run.add_argument("--max-gens", type=int)
    run.add_argument("--budget", type=int)
    run.add_argument("--format", choices=("csv", "markdown", "json"),
                     help="default %s" % ExperimentConfig.fmt)
    run.add_argument("--out", help="write the table here instead of stdout")
    run.add_argument("--config", help="INI config file; runs every section as "
                     "written, so no other flag but --out may be given with it")

    bench = sub.add_parser("bench", help="five-function comparison suite")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--format", default="markdown",
                       choices=("csv", "markdown", "json"))
    bench.add_argument("--out")

    trace = sub.add_parser("trace", help="render a 2-d run as SVG")
    trace.add_argument("--function", required=True)
    trace.add_argument("--algo", default="slm", choices=("slm", "slmga"))
    trace.add_argument("--seed", type=int)
    trace.add_argument("--h-tol", type=float)
    trace.add_argument("--max-gens", type=int)
    trace.add_argument("--sense", choices=("min", "max"), help="slm only")
    trace.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate an expression at a point")
    ev.add_argument("--expr", required=True)
    ev.add_argument("--dim", type=int, default=None)
    ev.add_argument("--at", required=True,
                    help="comma-separated coordinates, e.g. 1.0,2.5")
    return top


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_list(args) -> int:
    print("objectives:")
    for name in objective_names():
        obj = get_objective(name)
        print("  %-16s n=%-3d box=[%g, %g]" % (
            name, obj.dim, obj.box.lower[0], obj.box.upper[0]))
    print("algorithms:")
    for name in harness.algorithm_names():
        print("  %s" % name)
    print("kernel backend: %s" % BACKEND)
    return EXIT_OK


# Each flag that sets an algorithm parameter, and the fields it may set: the
# one that the chosen algorithm's config has.
ALGORITHM_FLAGS = {"h_tol": ("h_tol",), "max_gens": ("max_generations", "max_levels"),
                   "budget": ("budget", "generations"), "sense": ("sense",)}


def _algorithm_params(args, algo: str) -> dict:
    fields = {f.name for f in dataclasses.fields(harness.ALGORITHMS[algo][0])}
    params = {}
    for flag, names in ALGORITHM_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            field = fields.intersection(names)
            if not field:
                raise ConfigError("--%s does not apply to %s" % (flag.replace("_", "-"), algo))
            params[field.pop()] = value
    return params


def _cmd_run(args) -> int:
    given = {dest: value for dest, value in vars(args).items()
             if value is not None and dest not in ("command", "config", "out")}
    if args.config:
        if given:
            raise ConfigError("--config runs the file as written; %s cannot be given with it"
                              % ", ".join("--" + dest.replace("_", "-") for dest in given))
        configs = harness.load_config_file(args.config, _seed(args))
    else:
        keys = {dest: value for dest, value in given.items() if dest not in ALGORITHM_FLAGS}
        keys.update(_algorithm_params(args, args.algo or ExperimentConfig.algo))
        configs = [harness.experiment_config(keys, _seed(args))]
    code = EXIT_OK
    chunks = []
    for cfg in configs:
        result = harness.run_experiment(cfg)
        chunks.append(harness.emit_table(result.reports, cfg.fmt))
        if not all(r.converged for r in result.reports):
            code = EXIT_NOT_CONVERGED
        m = result.metrics
        summary = ("# bv=%r median_bv=%r generations=%d"
                   % (result.min_bv, result.median_bv, m.generations))
        if m.sd_euclid is not None:
            summary += " sd=%r" % m.sd_euclid
        chunks.append(summary + "\n")
    _write("".join(chunks), args.out)
    return code


def _cmd_bench(args) -> int:
    rows = harness.bench_suite(seed=_seed(args))
    _write(harness.bench_table(rows, args.format), args.out)
    return EXIT_OK


def _cmd_trace(args) -> int:
    obj = get_objective(args.function)
    report = harness.run_algorithm(args.algo, obj, _algorithm_params(args, args.algo),
                                   _seed(args))
    _write(svgtrace.emit_trace_svg(report, obj), args.out)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_eval(args) -> int:
    try:
        x = tuple(float(v) for v in args.at.split(","))
    except ValueError:
        raise ConfigError("--at must be comma-separated numbers") from None
    dim = args.dim if args.dim is not None else len(x)
    if len(x) != dim:
        raise ConfigError("--at has %d coordinates, --dim is %d" % (len(x), dim))
    ast = expr_parse(args.expr, dim)
    print(repr(expr_evaluate(ast, x)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "eval": _cmd_eval,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ExprError, ExprEvalError) as exc:
        print("expression error: %s" % exc, file=sys.stderr)
        return EXIT_OBJECTIVE
    except SubgridError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_OBJECTIVE


if __name__ == "__main__":
    sys.exit(main())
