"""Experiment runner, metrics and table emitters.

``run_experiment`` drives any registered algorithm over seeded independent
trials and aggregates best values; ``bench_suite`` reruns the five-function
comparison table including the generation-ratio (PNG) row against the
stored DE reference counts.

``emit_table`` writes a list of reports as CSV, markdown or JSON.  The JSON
is written directly in the layout ``json.dumps(..., indent=2)`` gives: an
indent of 2, the keys of each report, step, candidate, label and cell in a
fixed order, each float as its ``repr`` and NaN and the infinities as
``json`` writes them (``NaN``, ``Infinity``, ``-Infinity``).  Each object
is filled into a pattern made once per indent.  A finite float's text is
made once per ``emit_table`` call and looked up after that, since a grid
run repeats each axis's few positions in every step.  Only exact floats are
looked up, as 1 == 1.0 == True, and never a zero, as 0.0 == -0.0 while
their texts differ; every other number is written afresh.  A report's
``meta`` is written by ``json`` itself.  ``tests/test_golden_bytes.py`` pins
the bytes by sha256 digests.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import io
import itertools
import json
import math
import statistics
import types
import typing
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import baselines, slm, slmga
from .baselines import DeConfig, RsConfig, RswConfig, SaConfig
from .core import (BoxDomain, Candidate, GridPoint, GridSpec, LabeledVertex, RunReport, StepRecord,
                   position_of)
from .errors import ConfigError, SubgridError, clip
from .exprparse import compile as expr_compile, evaluate as expr_evaluate, parse as expr_parse
from .functions import Objective, get_objective
from .slm import SlmConfig
from .slmga import GaConfig

MAX_BRUTE_FORCE_POINTS = 10**7
# The largest expression dimension: its box is two tuples of 8 MB.  F4's 30
# is the largest dimension of a built-in objective.
MAX_DIM = 10**6
# The most floats a DE population may hold, ``pop_size * dim``: the population
# and its trials are tuples of Python floats, about 320 MB at this bound.
MAX_POPULATION_FLOATS = 10**7
# The unknown keys a config error names before it gives the rest as a count.
MAX_KEYS_QUOTED = 3

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
    sd_euclid: Optional[float]
    generations: int


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

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if (self.objective is None) == (self.expr is None):
            raise ConfigError("give exactly one of an objective name and an expression")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.fmt not in ("csv", "markdown", "json"):
            raise ConfigError("format must be csv, markdown or json")


@dataclass
class ExperimentResult:
    metrics: Metrics
    reports: list[RunReport]
    median_bv: float


def expression_objective(src: str, dim: int, lower: float, upper: float) -> Objective:
    """Wrap an expression string as a minimizable objective with
    finite-difference gradients."""
    box = BoxDomain.cube(lower, upper, dim)
    compiled = _compiled_expression(src, dim)
    return Objective(name="expr:%s" % src, box=box,
                     eval_fn=lambda x: expr_evaluate(compiled, x))


@functools.cache
def _compiled_expression(src: str, dim: int):
    """``src`` parsed for ``dim`` variables and compiled, once per process:
    checking a config and running it resolve the same expression.  An error
    is raised each time, as nothing is cached for it."""
    return expr_compile(expr_parse(src, dim))


def resolve_objective(cfg: ExperimentConfig) -> Objective:
    if cfg.objective is not None:
        return get_objective(cfg.objective)
    if cfg.dim is None:
        raise ConfigError("--dim is required with an expression objective")
    if cfg.dim < 1:
        raise ConfigError("dim must be >= 1")
    if cfg.dim > MAX_DIM:
        raise ConfigError("dim must be <= %d" % MAX_DIM)
    return expression_objective(cfg.expr, cfg.dim, cfg.lower, cfg.upper)


# Each algorithm's config class and its engine, named by module and
# attribute: the engine is looked up when a run starts, so a rebinding of
# the module attribute (as a tracer does) is seen.
ALGORITHMS: dict[str, tuple[type, types.ModuleType, str]] = {
    "slm": (SlmConfig, slm, "slm_run"),
    "slmga": (GaConfig, slmga, "ga_run"),
    "rs": (RsConfig, baselines, "random_search"),
    "rsw": (RswConfig, baselines, "random_walk_search"),
    "sa": (SaConfig, baselines, "simulated_annealing"),
    "de": (DeConfig, baselines, "differential_evolution"),
}

# The keys that set the one nested config (`LabelRule`), by its field names.
NESTED_KEYS = {"label_rule": {"variant": "label_rule", "epsilon": "epsilon"}}


def _parse(tp, value):
    """``value`` (a string from an INI file or an already typed value) as
    type ``tp``: float, int, an enum, ``Optional[...]`` or a tuple of floats
    written ``"a,b"``."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None:
            return None
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) is tuple:
        parts = value.split(",") if isinstance(value, str) else value
        return tuple(float(v) for v in parts)
    return tp(value)


def build_config(cls, params: dict, **fixed):
    """An instance of the config dataclass ``cls``: each field named in
    ``params`` parsed by its type, ``fixed`` values taken as they are,
    every other field left at its default.  A key of ``params`` that names
    no field, or a value that does not parse, is a ``ConfigError``."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    accepted = set(names).union(*(NESTED_KEYS[n].values() for n in names if n in NESTED_KEYS))
    unknown = sorted(set(params) - accepted)
    if unknown:
        named = ", ".join(repr(clip(k)) for k in unknown[:MAX_KEYS_QUOTED])
        more = len(unknown) - MAX_KEYS_QUOTED
        raise ConfigError("%s has no field %s%s"
                          % (cls.__name__, named, " and %d more" % more if more > 0 else ""))
    kwargs = {}
    for name in names:
        if name in fixed:
            kwargs[name] = fixed[name]
        elif name in NESTED_KEYS:
            keys = NESTED_KEYS[name]
            kwargs[name] = build_config(hints[name], {
                sub: params[key] for sub, key in keys.items() if key in params})
        elif name in params:
            try:
                kwargs[name] = _parse(hints[name], params[name])
            except ValueError:
                raise ConfigError("bad value %r for %s.%s"
                                  % (clip(str(params[name])), cls.__name__, name)) from None
    return cls(**kwargs)


def algorithm_config(name: str, params: dict, seed: int = 0):
    """The config of algorithm ``name`` built from ``params``."""
    try:
        cls = ALGORITHMS[name][0]
    except KeyError:
        raise ConfigError("unknown algorithm %r (have: %s)"
                          % (clip(name), ", ".join(algorithm_names()))) from None
    return build_config(cls, params, seed=seed)


def run_algorithm(name: str, obj: Objective, params: dict, seed: int) -> RunReport:
    """One run of algorithm ``name`` with its config built from ``params``;
    ``seed`` is used by every algorithm but the deterministic SLM."""
    cfg = algorithm_config(name, params, seed)
    _, module, engine = ALGORITHMS[name]
    return getattr(module, engine)(obj, cfg)


def algorithm_names() -> list[str]:
    return sorted(ALGORITHMS)


def compute_metrics(report: RunReport, obj: Objective) -> Metrics:
    sd_euclid = None
    if obj.known_optimum is not None:
        x_star = obj.known_optimum[0]
        sd_euclid = math.sqrt(sum((a - b) * (a - b) for a, b in zip(report.best.x, x_star)))
    return Metrics(bv=report.best_value, sd_euclid=sd_euclid, generations=report.generations)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run `cfg.trials` independently seeded trials (seed, seed+1, ...)."""
    obj = resolve_objective(cfg)
    reports = [run_algorithm(cfg.algo, obj, cfg.algo_params, cfg.seed + t)
               for t in range(cfg.trials)]
    bvs = [r.best_value for r in reports]
    best_trial = min(range(len(reports)), key=lambda i: (bvs[i], reports[i].best.x))
    return ExperimentResult(metrics=compute_metrics(reports[best_trial], obj), reports=reports,
                            median_bv=statistics.median(bvs))


def brute_force_grid_min(obj: Objective, box: BoxDomain, level: int) -> Candidate:
    """Exhaustive minimum over the full level-`level` grid; the independent
    oracle the engines are verified against."""
    side = 2 ** (level - 1) + 1
    if side ** box.dim > MAX_BRUTE_FORCE_POINTS:
        raise SubgridError("%d**%d grid points" % (side, box.dim))
    grid = GridSpec(box, level)
    best = None
    for k in itertools.product(range(side), repeat=box.dim):
        p = GridPoint(k, level)
        x = position_of(p, grid)
        f = obj.evaluate(x)
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
        return _emit_json(reports)
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
        rate = rep.meta.get("mutation_rate")
        rate = "-" if rate is None else "%g" % rate
        for s in rep.steps:
            out.write("| Step%d | %s | %s | %s | %s | %s | %g | |\n" % (
                s.level, algo.upper(), fn, _fmt_h(s.h), rate, _fmt_point(s.best.x), s.best.f))
    return out.getvalue()


# The report JSON, in the layout ``json.dumps(..., indent=2)`` gives it.  An
# object's or an array's text starts on a line at some indent, its members
# sit two spaces deeper, and its closing bracket at that indent again.

def _json_number(v) -> str:
    """A JSON scalar as ``json`` writes it: a finite float or a plain int
    directly, anything else (NaN, the infinities, a bool, a float subclass
    such as ``np.float64``, None) through ``json.dumps``."""
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    if type(v) is int:
        return int.__repr__(v)
    return json.dumps(v)


def _json_pattern(pad: str, keys: Sequence[str], arrays: Sequence[str] = ()) -> str:
    """A ``%`` pattern of an object whose text starts on a line at indent
    ``pad``, with ``keys`` in order and one ``%s`` per value; the value of a
    key in ``arrays`` is what goes inside its brackets (``_json_items``)."""
    inner = "\n" + pad + "  "
    return "{" + inner + ("," + inner).join(
        '"%s": [%%s]' % k if k in arrays else '"%s": %%s' % k for k in keys) + "\n" + pad + "}"


def _json_items(pad: str) -> Callable[[list[str]], str]:
    """The writer of what goes inside the brackets of an array whose text
    starts on a line at indent ``pad``: each written item on a line of its
    own, two spaces deeper, and nothing for no items."""
    inner = "\n" + pad + "  "
    sep, tail = "," + inner, "\n" + pad
    return lambda items: inner + sep.join(items) + tail if items else ""


def _emit_json(reports: Sequence[RunReport]) -> str:
    """``reports`` as one JSON array; see the module docstring."""
    memo: dict[float, str] = {}
    memo_get = memo.get

    def number(v) -> str:
        # an exact float only, since 1 == 1.0 == True, and never a zero,
        # since 0.0 == -0.0; NaN and the infinities are not kept either
        if type(v) is float:
            text = memo_get(v)
            if text is None:
                text = _json_number(v)
                if v and math.isfinite(v):
                    memo[v] = text
            return text
        return _json_number(v)

    def candidate_of(pad: str):
        """A writer of a candidate whose text starts on a line at indent ``pad``."""
        on_grid = _json_pattern(pad, ("x", "f", "k", "level"), ("x", "k"))
        off_grid = _json_pattern(pad, ("x", "f"), ("x",))
        items = _json_items(pad + "  ")

        def candidate(c: Candidate) -> str:
            x, f, p = items(list(map(number, c.x))), number(c.f), c.point
            if p is None:
                return off_grid % (x, f)
            return on_grid % (x, f, items(list(map(_json_number, p.k))), _json_number(p.level))
        return candidate

    # the indents of a report's fields, a step's fields and a step's members
    field_pad = "    "
    step_pad = field_pad + "    "
    item_pad = step_pad + "  "
    report_pattern = _json_pattern("  ", ("meta", "evaluations", "converged", "best",
                                          "best_value", "steps"), ("steps",))
    step_pattern = _json_pattern(field_pad + "  ", ("level", "h", "best", "population",
                                                    "labels", "chosen_cell"),
                                 ("h", "population", "labels"))
    label_pattern = _json_pattern(item_pad, ("candidate", "label", "delta"), ("delta",))
    cell_pattern = _json_pattern(step_pad, ("anchor", "level"), ("anchor",))
    report_candidate = candidate_of(field_pad)
    step_candidate = candidate_of(step_pad)
    member_candidate = candidate_of(item_pad)
    label_candidate = candidate_of(item_pad + "  ")
    report_items = _json_items("")
    steps_items = _json_items(field_pad)
    step_items = _json_items(step_pad)
    label_items = _json_items(item_pad + "  ")
    cell_items = _json_items(step_pad + "  ")
    meta_indent = "\n" + field_pad

    def step(s: StepRecord) -> str:
        population = list(map(member_candidate, s.population))
        # A label's candidate is as a rule one of the population's, so its
        # text is reused, two spaces deeper, rather than written again.
        written = dict(zip(map(id, s.population), population))
        labels = [label_pattern % (
            label_candidate(lv.candidate) if text is None else text.replace("\n", "\n  "),
            _json_number(lv.label), label_items(list(map(number, lv.delta))))
            for lv in s.labels for text in [written.get(id(lv.candidate))]]
        cell = s.chosen_cell
        return step_pattern % (
            _json_number(s.level), step_items(list(map(number, s.h))), step_candidate(s.best),
            step_items(population), step_items(labels),
            "null" if cell is None else cell_pattern % (
                cell_items(list(map(_json_number, cell.anchor.k))), _json_number(cell.level)))

    def report(rep: RunReport) -> str:
        # meta is small and may hold any JSON value, so ``json`` writes it
        return report_pattern % (
            json.dumps(rep.meta, indent=2).replace("\n", meta_indent),
            _json_number(rep.evaluations), _json_number(rep.converged),
            report_candidate(rep.best), number(rep.best_value),
            steps_items(list(map(step, rep.steps))))

    return "[" + report_items(list(map(report, reports))) + "]\n"


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
        rep = run_algorithm("slmga", obj, SLMGA_BENCH_SETTINGS[name], seed)
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
    if fmt != "markdown":
        raise ConfigError("unknown format %r" % fmt)
    out.write("| Function | Generations | Final step | Best point | BV | SD | DE gens | PNG |\n")
    out.write("|---|---|---|---|---|---|---|---|\n")
    for r in rows:
        out.write("| %s | %d | %g | %s | %g | %s | %d | %d |\n" % (
            r.function.upper(), r.generations, r.final_h, _fmt_point(r.best.x),
            r.bv, "%g" % r.sd_euclid if r.sd_euclid is not None else "-",
            r.de_generations, round(r.png)))
    return out.getvalue()


# INI spellings of ExperimentConfig fields; the `run` flags take them as dests.
INI_KEYS = {"function": "objective", "format": "fmt"}
_EXPERIMENT_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"algo_params"}


def experiment_config(keys: dict, seed: int = 0) -> ExperimentConfig:
    """The checked experiment of an INI section or of the ``run`` flags: a key
    that names an ``ExperimentConfig`` field, or spells one as in ``INI_KEYS``,
    sets it; any other key is a parameter of the algorithm.  ``seed`` applies
    unless a key sets one.  The objective and an ``initial`` point are checked."""
    fields = {INI_KEYS.get(k, k): v for k, v in keys.items()}
    if len(fields) < len(keys):
        raise ConfigError("a field is set by two spellings")
    cfg = build_config(
        ExperimentConfig,
        {"seed": seed, **{k: v for k, v in fields.items() if k in _EXPERIMENT_KEYS}},
        algo_params={k: v for k, v in fields.items() if k not in _EXPERIMENT_KEYS})
    algo_cfg = algorithm_config(cfg.algo, cfg.algo_params)
    # a key, not the field: the dataclass defaults hide an unset lower and upper
    if cfg.objective is not None and fields.keys() & {"dim", "lower", "upper"}:
        raise ConfigError("dim, lower and upper apply to an expression, not to %r"
                          % clip(cfg.objective))
    # an unknown objective or a bad expression keeps its own error (exit 3)
    obj = resolve_objective(cfg)
    baselines.start_point(obj, getattr(algo_cfg, "initial", None))
    if getattr(algo_cfg, "pop_size", 0) * obj.dim > MAX_POPULATION_FLOATS:
        raise ConfigError("pop_size * dim must be <= %d" % MAX_POPULATION_FLOATS)
    return cfg


def load_config_file(path: str, seed: int = 0) -> list[ExperimentConfig]:
    """INI-style config: one ``experiment_config`` per section, at ``seed``
    unless the section sets its own.  Values are taken literally (no ``%``
    interpolation).  Every section is checked before any runs."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError("cannot parse config file %r%s: %s" % (
            path, "" if line is None else " at line %d" % line, clip(str(exc)))) from None
    if not read:
        raise ConfigError("cannot read config file %r" % path)
    out = []
    for section in parser.sections():
        try:
            out.append(experiment_config(dict(parser[section]), seed))
        except ConfigError as exc:
            raise ConfigError("section [%s]: %s" % (section, exc)) from None
    if not out:
        raise ConfigError("config file %r has no experiment sections" % path)
    return out
