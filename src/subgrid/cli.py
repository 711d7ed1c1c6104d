"""Command-line front end.

Subcommands: list, run, bench, trace, eval.  Exit codes: 0 success,
2 configuration error (also an ``--out`` that cannot be written, refused
before any run when its directory is missing or it is a directory, and a
``trace`` of an objective that is not 2-d), 3 objective or expression error
(also an expression nested too deeply), 4 convergence not reached (the
report is still written).  SUBGRID_SEED overrides the default seed, also
for a config-file section that sets no seed; a seed below 0 is a
configuration error.

``run`` checks its flags as one experiment section: each flag's dest is the
section key it sets, and ``harness.experiment_config`` parses the flags and
every section of a ``--config`` file alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import stat
import sys

from . import BACKEND, harness, svgtrace
from .errors import ConfigError, ExprError, ExprEvalError, SubgridError, clip
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
            raise ConfigError("SUBGRID_SEED=%r is not an integer" % clip(raw)) from None
    if seed < 0:
        raise ConfigError("seed must be >= 0, not %d" % seed)
    return seed


def _typed(flag: str, convert):
    """An argparse ``type`` for ``flag``: ``convert``, refusing a value it
    cannot take as a ``ConfigError`` that quotes the value through ``clip``,
    as every other message quotes one."""
    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError("bad value %r for %s" % (clip(text), flag)) from None
    return parse


class _Parser(argparse.ArgumentParser):
    """Refuses a command line as a ``ConfigError``, without argparse's usage
    text.  A command or flag value outside its choices is quoted through
    ``clip``; argparse's other messages are cut after 100 characters, as one
    can hold an argument whole (``--help=x``, or an ambiguous ``--f=x``)."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise ConfigError("bad value %r for %s (have: %s)" % (
                clip(value), "/".join(action.option_strings) or action.dest,
                ", ".join(action.choices)))

    def error(self, message):
        raise ConfigError(clip(message, 100))


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="subgrid",
        description="Grid subdivision-labeling optimizers and baselines.")
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list objectives and algorithms")

    # each flag's dest is its key in an INI section (harness.experiment_config)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--function", help="built-in objective name")
    run.add_argument("--expr", help="objective expression in x1..xn "
                     "(note: -x1^2 means -(x1^2))")
    run.add_argument("--dim", type=_typed("--dim", int), help="dimension for --expr")
    run.add_argument("--lower", type=_typed("--lower", float), help="box lower bound for --expr "
                     "(default %g)" % ExperimentConfig.lower)
    run.add_argument("--upper", type=_typed("--upper", float), help="box upper bound for --expr "
                     "(default %g)" % ExperimentConfig.upper)
    run.add_argument("--algo", choices=sorted(harness.ALGORITHMS),
                     help="default %s" % ExperimentConfig.algo)
    run.add_argument("--seed", type=_typed("--seed", int))
    run.add_argument("--trials", type=_typed("--trials", int),
                     help="default %d" % ExperimentConfig.trials)
    run.add_argument("--h-tol", type=_typed("--h-tol", float))
    run.add_argument("--max-gens", type=_typed("--max-gens", int))
    run.add_argument("--budget", type=_typed("--budget", int))
    run.add_argument("--format", choices=("csv", "markdown", "json"),
                     help="default %s" % ExperimentConfig.fmt)
    run.add_argument("--out", help="write the table here instead of stdout")
    run.add_argument("--config", help="INI config file; runs every section as "
                     "written, so no other flag but --out may be given with it")

    bench = sub.add_parser("bench", help="five-function comparison suite")
    bench.add_argument("--seed", type=_typed("--seed", int), default=None)
    bench.add_argument("--format", default="markdown", choices=("csv", "markdown", "json"))
    bench.add_argument("--out")

    trace = sub.add_parser("trace", help="render a 2-d run as SVG")
    trace.add_argument("--function", required=True)
    trace.add_argument("--algo", default="slm", choices=("slm", "slmga"))
    trace.add_argument("--seed", type=_typed("--seed", int))
    trace.add_argument("--h-tol", type=_typed("--h-tol", float))
    trace.add_argument("--max-gens", type=_typed("--max-gens", int))
    trace.add_argument("--sense", choices=("min", "max"), help="slm only")
    trace.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate an expression at a point")
    ev.add_argument("--expr", required=True)
    ev.add_argument("--dim", type=_typed("--dim", int), default=None)
    ev.add_argument("--at", required=True,
                    help="comma-separated coordinates, e.g. 1.0,2.5")
    return top


def _check_out(out_path):
    """Refuse an ``--out`` that cannot be written before any work is done:
    its directory must exist and it must not be a directory itself.  The
    reason given is the one the OS gives.  The file is not opened here, so a
    run that fails leaves it as it was."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        reason = os.strerror(errno.EISDIR)
    else:
        try:
            mode = os.stat(os.path.dirname(out_path) or ".").st_mode
        except OSError as exc:
            reason = exc.strerror
        else:
            if stat.S_ISDIR(mode):
                return
            reason = os.strerror(errno.ENOTDIR)
    raise ConfigError("cannot write %s: %s" % (out_path, reason))


def _write(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (out_path, exc.strerror or exc)) from None


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
                   % (m.bv, result.median_bv, m.generations))
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
    if obj.dim != 2:
        raise ConfigError("trace renders a 2-d objective; %s is %d-d" % (obj.name, obj.dim))
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
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "eval": _cmd_eval,
    }
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ConfigError("unrecognized argument %r" % clip(unknown[0]))
        _check_out(getattr(args, "out", None))
        return handlers[args.command](args)
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
