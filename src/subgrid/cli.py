"""Command-line front end.

Subcommands: list, run, bench, trace, eval.  Exit codes: 0 success,
2 configuration error, 3 objective or expression error, 4 convergence not
reached (the report is still written).  SUBGRID_SEED overrides the
default seed.
"""

from __future__ import annotations

import argparse
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


def _default_seed() -> int:
    raw = os.environ.get("SUBGRID_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("SUBGRID_SEED=%r is not an integer" % raw) from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="subgrid",
        description="Grid subdivision-labeling optimizers and baselines.")
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list objectives and algorithms")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--function", help="built-in objective name")
    run.add_argument("--expr", help="objective expression in x1..xn "
                     "(note: -x1^2 means -(x1^2))")
    run.add_argument("--dim", type=int, help="dimension for --expr")
    run.add_argument("--lower", type=float, default=-10.0,
                     help="box lower bound for --expr (default -10)")
    run.add_argument("--upper", type=float, default=10.0,
                     help="box upper bound for --expr (default 10)")
    run.add_argument("--algo", default="slmga",
                     choices=sorted(harness.ALGORITHMS))
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--h-tol", type=float, default=None)
    run.add_argument("--max-gens", type=int, default=None)
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--format", default="markdown",
                     choices=("csv", "markdown", "json"))
    run.add_argument("--out", help="write the table here instead of stdout")
    run.add_argument("--config", help="INI config file; runs every section "
                     "and ignores the other flags")

    bench = sub.add_parser("bench", help="five-function comparison suite")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--format", default="markdown",
                       choices=("csv", "markdown", "json"))
    bench.add_argument("--out")

    trace = sub.add_parser("trace", help="render a 2-d run as SVG")
    trace.add_argument("--function", required=True)
    trace.add_argument("--algo", default="slm", choices=("slm", "slmga"))
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--h-tol", type=float, default=None)
    trace.add_argument("--max-gens", type=int, default=None)
    trace.add_argument("--sense", default="min", choices=("min", "max"))
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


def _experiment_from_args(args) -> ExperimentConfig:
    params = {}
    if args.h_tol is not None:
        params["h_tol"] = args.h_tol
    if args.max_gens is not None:
        params["max_generations"] = args.max_gens
        params["max_levels"] = args.max_gens
    if args.budget is not None:
        params["budget"] = args.budget
        params["generations"] = args.budget
    return ExperimentConfig(
        objective=args.function,
        expr=args.expr,
        dim=args.dim,
        lower=args.lower,
        upper=args.upper,
        algo=args.algo,
        algo_params=params,
        trials=args.trials,
        seed=args.seed if args.seed is not None else _default_seed(),
        fmt=args.format,
    )


def _cmd_run(args) -> int:
    if args.config:
        configs = harness.load_config_file(args.config)
    else:
        if args.function and args.expr:
            raise ConfigError("give either --function or --expr, not both")
        configs = [_experiment_from_args(args)]
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
    seed = args.seed if args.seed is not None else _default_seed()
    rows = harness.bench_suite(seed=seed)
    _write(harness.bench_table(rows, args.format), args.out)
    return EXIT_OK


def _cmd_trace(args) -> int:
    obj = get_objective(args.function)
    seed = args.seed if args.seed is not None else _default_seed()
    params = {"sense": args.sense}
    if args.h_tol is not None:
        params["h_tol"] = args.h_tol
    if args.max_gens is not None:
        params["max_generations"] = args.max_gens
        params["max_levels"] = args.max_gens
    report = harness.run_algorithm(args.algo, obj, params, seed)
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
