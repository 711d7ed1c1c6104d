"""Experiment runner, metrics and table emitters.

``run_experiment`` drives any registered algorithm over seeded independent
trials and aggregates best values; ``bench_suite`` reruns the five-function
comparison table including the generation-ratio (PNG) row against the
stored DE reference counts.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import itertools
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import baselines, slm, slmga
from .baselines import DeConfig, RsConfig, RswConfig, SaConfig
from .core import BoxDomain, Candidate, GridPoint, GridSpec, RunReport, position_of
from .errors import ConfigError, GridTooLargeError, SubgridError
from .exprparse import evaluate as expr_evaluate
from .exprparse import parse as expr_parse
from .functions import Objective, get_objective
from .labeling import LabelRule, LabelVariant
from .slm import NeighborScheme, Sense, SlmConfig
from .slmga import GaConfig

MAX_BRUTE_FORCE_POINTS = 10**7

# Paper-parity SLMGA settings: step tolerances chosen so the halving
# schedule stops at the published generation counts.
SLMGA_BENCH_SETTINGS = {
    "f1": {"h_tol": 5e-5},    # 18 generations, final step 0.000078125
    "f2": {"h_tol": 0.02},    # 8 generations, final step 0.032
    "f3": {"h_tol": 0.015},   # 10 generations, final step 0.02
    "f4": {"h_tol": 5e-5},    # 16 generations
    "f5": {"h_tol": 0.3},     # 9 generations, final step 0.512
}

BENCH_FUNCTIONS = ("f1", "f2", "f3", "f4", "f5")


@dataclass
class Metrics:
    bv: float
    sd_vec: Optional[tuple[float, ...]]
    sd_euclid: Optional[float]
    generations: int
    png: Optional[float] = None


@dataclass
class ExperimentConfig:
    objective: Optional[str] = None       # registry name
    expr: Optional[str] = None            # alternative: expression text
    dim: Optional[int] = None
    lower: float = -10.0
    upper: float = 10.0
    algo: str = "slmga"
    algo_params: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    fmt: str = "markdown"
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.objective is None and self.expr is None:
            raise ConfigError("need an objective name or an expression")
        if self.fmt not in ("csv", "markdown", "json"):
            raise ConfigError("format must be csv, markdown or json")


@dataclass
class ExperimentResult:
    metrics: Metrics
    reports: list[RunReport]
    best_trial: int
    min_bv: float
    median_bv: float


def expression_objective(src: str, dim: int, lower: float, upper: float) -> Objective:
    """Wrap an expression string as a minimizable objective with
    finite-difference gradients."""
    ast = expr_parse(src, dim)
    box = BoxDomain.cube(lower, upper, dim)

    def eval_fn(x):
        return expr_evaluate(ast, x)

    return Objective(name="expr:%s" % src, dim=dim, box=box, eval_fn=eval_fn)


def resolve_objective(cfg: ExperimentConfig) -> Objective:
    if cfg.objective is not None:
        return get_objective(cfg.objective)
    if cfg.dim is None:
        raise ConfigError("--dim is required with an expression objective")
    if cfg.lower >= cfg.upper:
        raise ConfigError("lower bound must be below upper bound")
    return expression_objective(cfg.expr, cfg.dim, cfg.lower, cfg.upper)


@contextlib.contextmanager
def _params_checked():
    """Turn a bad algorithm parameter (unparsable, unknown enum value or out
    of range) into a configuration error while a runner builds its config."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError("bad algorithm parameter: %s" % exc) from None


def _run_slm(obj, params, seed):
    del seed  # deterministic
    with _params_checked():
        cfg = SlmConfig(
            h_tol=float(params.get("h_tol", 1e-4)),
            max_levels=int(params.get("max_levels", 40)),
            neighbor_scheme=NeighborScheme(params.get("neighbor_scheme", "sign-uniform")),
            sense=Sense(params.get("sense", "min")),
            label_rule=_label_rule(params),
        )
    return slm.slm_run(obj, cfg)


def _run_slmga(obj, params, seed):
    with _params_checked():
        cfg = GaConfig(
            h_tol=float(params.get("h_tol", 1e-4)),
            max_generations=int(params.get("max_generations", 64)),
            seed=seed,
            label_rule=_label_rule(params),
            mutation_rate=float(params.get("mutation_rate", 1.0)),
        )
    return slmga.ga_run(obj, cfg)


def _label_rule(params) -> LabelRule:
    return LabelRule(
        variant=LabelVariant(params.get("label_rule", "best-neighbor")),
        epsilon=float(params.get("epsilon", 0.0)),
    )


def _run_rs(obj, params, seed):
    with _params_checked():
        cfg = RsConfig(budget=int(params.get("budget", 1000)), seed=seed)
    return baselines.random_search(obj, cfg)


def _run_rsw(obj, params, seed):
    with _params_checked():
        initial = params.get("initial", obj.box.center())
        if isinstance(initial, str):
            initial = tuple(float(v) for v in initial.split(","))
        cfg = RswConfig(
            initial=tuple(initial),
            budget=int(params.get("budget", 500)),
            seed=seed,
            step_scale=float(params.get("step_scale", 2.0)),
            contraction=float(params.get("contraction", 0.95)),
            patience=int(params.get("patience", 10)))
    return baselines.random_walk_search(obj, cfg)


def _run_sa(obj, params, seed):
    with _params_checked():
        initial = params.get("initial")
        if isinstance(initial, str):
            initial = tuple(float(v) for v in initial.split(","))
        step_scale = params.get("step_scale")
        cfg = SaConfig(
            budget=int(params.get("budget", 400)),
            seed=seed,
            initial=initial,
            t0=float(params.get("t0", 1e-3)),
            cooling=float(params.get("cooling", 0.995)),
            step_scale=float(step_scale) if step_scale is not None else None)
    return baselines.simulated_annealing(obj, cfg)


def _run_de(obj, params, seed):
    with _params_checked():
        fw = params.get("f_weight")
        cfg = DeConfig(
            generations=int(params.get("generations", 260)),
            seed=seed,
            pop_size=int(params.get("pop_size", 20)),
            cr=float(params.get("cr", 0.9)),
            f_weight=float(fw) if fw is not None else None)
    return baselines.differential_evolution(obj, cfg)


ALGORITHMS: dict[str, Callable] = {
    "slm": _run_slm,
    "slmga": _run_slmga,
    "rs": _run_rs,
    "rsw": _run_rsw,
    "sa": _run_sa,
    "de": _run_de,
}


def algorithm_names() -> list[str]:
    return sorted(ALGORITHMS)


def compute_metrics(report: RunReport, obj: Objective) -> Metrics:
    sd_vec = sd_euclid = None
    if obj.known_optimum is not None:
        x_star = obj.known_optimum[0]
        sd_vec = tuple(abs(a - b) for a, b in zip(report.best.x, x_star))
        sd_euclid = math.sqrt(sum(v * v for v in sd_vec))
    return Metrics(bv=report.best_value, sd_vec=sd_vec, sd_euclid=sd_euclid,
                   generations=report.generations)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run `cfg.trials` independently seeded trials (seed, seed+1, ...)."""
    obj = resolve_objective(cfg)
    try:
        runner = ALGORITHMS[cfg.algo]
    except KeyError:
        raise ConfigError("unknown algorithm %r (have: %s)"
                          % (cfg.algo, ", ".join(algorithm_names()))) from None
    reports = [runner(obj, cfg.algo_params, cfg.seed + t) for t in range(cfg.trials)]
    bvs = [r.best_value for r in reports]
    best_trial = min(range(len(reports)), key=lambda i: (bvs[i], reports[i].best.x))
    metrics = compute_metrics(reports[best_trial], obj)
    return ExperimentResult(metrics=metrics, reports=reports, best_trial=best_trial,
                            min_bv=min(bvs), median_bv=statistics.median(bvs))


def brute_force_grid_min(obj: Objective, box: BoxDomain, level: int,
                         rng=None) -> Candidate:
    """Exhaustive minimum over the full level-`level` grid; the independent
    oracle the engines are verified against."""
    side = 2 ** (level - 1) + 1
    if side ** box.dim > MAX_BRUTE_FORCE_POINTS:
        raise GridTooLargeError("%d**%d grid points" % (side, box.dim))
    grid = GridSpec(box, level)
    best = None
    for k in itertools.product(range(side), repeat=box.dim):
        p = GridPoint(k, level)
        x = position_of(p, grid)
        f = obj.evaluate(x, rng=rng) if obj.stochastic else obj.evaluate(x)
        if best is None or f < best.f or (f == best.f and x < best.x):
            best = Candidate(x, f, point=p)
    return best


def png_ratio(baseline_gens: int, slmga_gens: int) -> float:
    """Proportion of generation counts; tables print it rounded to 0 dp."""
    if baseline_gens < 1 or slmga_gens < 1:
        raise ConfigError("generation counts must be >= 1")
    return baseline_gens / slmga_gens


def _fmt_h(h: Sequence[float]) -> str:
    if not h:
        return ""
    if len(set(h)) == 1:
        return repr(h[0])
    return "/".join(repr(v) for v in h)


def _fmt_point(x: Sequence[float]) -> str:
    return "(" + ", ".join("%g" % v for v in x) + ")"


def emit_table(reports: Sequence[RunReport], fmt: str) -> str:
    if not reports:
        raise ConfigError("no reports to emit")
    if fmt == "csv":
        return _emit_csv(reports)
    if fmt == "markdown":
        return _emit_markdown(reports)
    if fmt == "json":
        return json.dumps([report_to_jsonable(r) for r in reports], indent=2) + "\n"
    raise ConfigError("unknown format %r" % fmt)


def _emit_csv(reports) -> str:
    n = len(reports[0].best.x)
    out = io.StringIO()
    cols = ["trial", "step", "h"] + ["best_x_%d" % (d + 1) for d in range(n)]
    cols += ["best_f", "label_multiset"]
    out.write(",".join(cols) + "\n")
    for t, rep in enumerate(reports):
        rows = rep.steps or [None]
        for s in rows:
            if s is None:
                step, h, best, labels = 1, (), rep.best, []
            else:
                step, h, best, labels = s.level, s.h, s.best, s.labels
            multiset = "|".join(str(lv.label) for lv in labels)
            row = [str(t), str(step), _fmt_h(h)]
            row += [repr(v) for v in best.x]
            row += [repr(best.f), multiset]
            out.write(",".join(row) + "\n")
    return out.getvalue()


def _emit_markdown(reports) -> str:
    out = io.StringIO()
    out.write("| Step | Algorithm | Function | Mutation Size | Mutation Rate "
              "| Best Point | BV | SD |\n")
    out.write("|---|---|---|---|---|---|---|---|\n")
    for rep in reports:
        algo = rep.meta.get("algorithm", "?")
        fn = rep.meta.get("objective", "?")
        for s in rep.steps:
            out.write("| Step%d | %s | %s | %s | 0.5 | %s | %g | |\n" % (
                s.level, algo.upper(), fn, _fmt_h(s.h), _fmt_point(s.best.x), s.best.f))
    return out.getvalue()


def report_to_jsonable(rep: RunReport) -> dict:
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


@dataclass
class BenchRow:
    function: str
    generations: int
    final_h: float
    best: Candidate
    bv: float
    sd_euclid: Optional[float]
    de_generations: int
    png: float


def bench_suite(seed: int = 0) -> list[BenchRow]:
    """SLMGA over F1-F5 at paper-parity settings plus PNG ratios against the
    stored DE reference generation counts."""
    rows = []
    for name in BENCH_FUNCTIONS:
        obj = get_objective(name)
        cfg = GaConfig(h_tol=SLMGA_BENCH_SETTINGS[name]["h_tol"], seed=seed,
                       max_generations=64)
        rep = slmga.ga_run(obj, cfg)
        metrics = compute_metrics(rep, obj)
        de_gens = baselines.REPORTED_GENERATIONS["de"][name]
        rows.append(BenchRow(
            function=name,
            generations=rep.generations,
            final_h=rep.steps[-1].h[0] if rep.steps else float("nan"),
            best=rep.best,
            bv=rep.best_value,
            sd_euclid=metrics.sd_euclid,
            de_generations=de_gens,
            png=png_ratio(de_gens, rep.generations),
        ))
    return rows


def bench_table(rows: Sequence[BenchRow], fmt: str = "markdown") -> str:
    if fmt == "json":
        return json.dumps([{
            "function": r.function, "generations": r.generations,
            "final_h": r.final_h, "best_x": list(r.best.x), "bv": r.bv,
            "sd_euclid": r.sd_euclid, "de_generations": r.de_generations,
            "png": round(r.png),
        } for r in rows], indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        out.write("function,generations,final_h,best_x,bv,sd_euclid,de_generations,png\n")
        for r in rows:
            out.write("%s,%d,%r,%s,%r,%r,%d,%d\n" % (
                r.function, r.generations, r.final_h,
                ";".join(repr(v) for v in r.best.x), r.bv,
                r.sd_euclid if r.sd_euclid is not None else float("nan"),
                r.de_generations, round(r.png)))
        return out.getvalue()
    out.write("| Function | Generations | Final step | Best point | BV | SD | DE gens | PNG |\n")
    out.write("|---|---|---|---|---|---|---|---|\n")
    for r in rows:
        out.write("| %s | %d | %g | %s | %g | %s | %d | %d |\n" % (
            r.function.upper(), r.generations, r.final_h, _fmt_point(r.best.x),
            r.bv, "%g" % r.sd_euclid if r.sd_euclid is not None else "-",
            r.de_generations, round(r.png)))
    return out.getvalue()


def load_config_file(path: str) -> list[ExperimentConfig]:
    """INI-style config: one experiment per section."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("cannot read config file %r" % path)
    known = {"objective", "function", "expr", "dim", "lower", "upper", "algo",
             "trials", "seed", "format", "trace"}
    out = []
    for section in parser.sections():
        sec = parser[section]
        params = {k: v for k, v in sec.items() if k not in known}
        try:
            out.append(ExperimentConfig(
                objective=sec.get("objective", sec.get("function")),
                expr=sec.get("expr"),
                dim=sec.getint("dim") if sec.get("dim") else None,
                lower=sec.getfloat("lower", -10.0),
                upper=sec.getfloat("upper", 10.0),
                algo=sec.get("algo", "slmga"),
                algo_params=params,
                trials=sec.getint("trials", 1),
                seed=sec.getint("seed", 0),
                fmt=sec.get("format", "markdown"),
                trace_path=sec.get("trace"),
            ))
        except (ValueError, SubgridError) as exc:
            raise ConfigError("section [%s]: %s" % (section, exc)) from None
    if not out:
        raise ConfigError("config file %r has no experiment sections" % path)
    return out
