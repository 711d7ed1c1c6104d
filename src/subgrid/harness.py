"""Experiment runner, metrics and table emitters.

``run_experiment`` drives any registered algorithm over seeded independent
trials and aggregates best values; ``bench_suite`` reruns the five-function
comparison table including the generation-ratio (PNG) row against the
stored DE reference counts.

``experiment_config`` and ``algorithm_config`` hold every rule about an
experiment's keys and values, for flags and INI sections alike, and
``ALIASES`` is the one table of other spellings of their fields.

``emit_table`` writes a list of reports as CSV, markdown or JSON.  The JSON
is written directly in the layout ``json.dumps(..., indent=2)`` gives: an
indent of 2, the keys of each report, step, candidate, label and cell in a
fixed order, each float as its ``repr`` and NaN and the infinities as
``json`` writes them (``NaN``, ``Infinity``, ``-Infinity``).  Each object
is filled into a ``%`` pattern and each array written by an item writer,
both made once per depth at import.  A step's population is its labels'
candidates, so each label's candidate reuses the text of the member at its
index.  A finite float's text is made once per ``emit_table`` call and
looked up after that, since a grid run repeats each axis's few positions in
every step.  Only exact floats are looked up, as 1 == 1.0 == True, and
never a zero, as 0.0 == -0.0 while their texts differ; every other number
is written afresh.  A report's ``meta`` is written by ``json`` itself.
``tests/test_golden_bytes.py`` pins the bytes by sha256 digests.
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
from .core import BoxDomain, Candidate, GridPoint, GridSpec, RunReport, StepRecord, position_of
from .errors import ConfigError, SubgridError, clip
from .exprparse import evaluate as expr_evaluate, parse as expr_parse
from .functions import Objective, get_objective
from .slm import SlmConfig
from .slmga import GaConfig

MAX_BRUTE_FORCE_POINTS = 10**7
# The largest expression dimension: its box is two tuples of 8 MB.  F4's 30
# is the largest dimension of a built-in objective.
MAX_DIM = 10**6
# The most floats one generation may hold, points * dim: DE's population and
# its trials, or above 6-d SLMGA's two sweeps of a parent and 2n probes each.
MAX_GENERATION_FLOATS = 10**7
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

FORMATS = ("csv", "markdown", "json")  # of emit_table and bench_table


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
        if self.fmt not in FORMATS:
            raise ConfigError("format must be one of %s" % ", ".join(FORMATS))


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


@functools.lru_cache()
def _compiled_expression(src: str, dim: int):
    """``src`` compiled for ``dim`` variables into one function, once while
    it is among the 128 latest: checking a config and running it resolve the
    same expression.  An error is raised each time, as nothing is cached for
    it."""
    return expr_parse(src, dim)


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

# Other spellings of config fields, as INI keys and flag dests alike: each sets
# the first of its fields that the config has, and is left as it is otherwise.
ALIASES = {"function": ("objective",), "format": ("fmt",),
           "max_gens": ("max_levels", "max_generations"), "budget": ("generations",)}


def _respell(cls, keys: dict) -> dict:
    """``keys`` with each alias replaced by the field of ``cls`` it sets; a
    field set under two spellings is a ``ConfigError``."""
    names = {f.name for f in dataclasses.fields(cls)}
    fields = {next((f for f in ALIASES.get(k, ()) if f in names), k): v for k, v in keys.items()}
    if len(fields) < len(keys):
        raise ConfigError("a field is set by two spellings")
    return fields


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


@functools.cache
def _field_types(cls) -> dict:
    """The field types of the config dataclass ``cls``, read once per class."""
    return typing.get_type_hints(cls)


def build_config(cls, params: dict, **fixed):
    """An instance of the config dataclass ``cls``: each field named in
    ``params`` parsed by its type, ``fixed`` values taken as they are,
    every other field left at its default.  A key of ``params`` that names
    no field, or a value that does not parse, is a ``ConfigError``."""
    hints = _field_types(cls)
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
    """The config of algorithm ``name`` from ``params``, keyed by field or alias."""
    try:
        cls = ALGORITHMS[name][0]
    except KeyError:
        raise ConfigError("unknown algorithm %r (have: %s)"
                          % (clip(name), ", ".join(sorted(ALGORITHMS)))) from None
    return build_config(cls, _respell(cls, params), seed=seed)


def run_algorithm(name: str, obj: Objective, params: dict, seed: int) -> RunReport:
    """One run of algorithm ``name`` with its config built from ``params``;
    ``seed`` is used by every algorithm but the deterministic SLM."""
    cfg = algorithm_config(name, params, seed)
    _, module, engine = ALGORITHMS[name]
    return getattr(module, engine)(obj, cfg)


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
    _check_format(fmt)
    if fmt == "csv":
        return _emit_csv(reports)
    if fmt == "markdown":
        return _emit_markdown(reports)
    return _emit_json(reports)


def _check_format(fmt: str):
    if fmt not in FORMATS:
        raise ConfigError("unknown format %r" % clip(fmt))


def _emit_csv(reports) -> str:
    n = len(reports[0].best.x)
    out = io.StringIO()
    cols = ["trial", "step", "h"] + ["best_x_%d" % (d + 1) for d in range(n)]
    cols += ["best_f", "label_multiset"]
    out.write(",".join(cols) + "\n")
    last = best_text = None  # a best held by consecutive rows is written once
    for t, rep in enumerate(reports):
        for s in rep.steps or [None]:
            if s is None:
                step, h, best, labels = 1, (), rep.best, []
            else:
                step, h, best, labels = s.level, s.h, s.best, s.labels
            if best is not last:
                last, best_text = best, ",".join([*map(repr, best.x), repr(best.f)])
            multiset = "|".join(str(lv.label) for lv in labels)
            out.write("%s,%s,%s,%s,%s\n" % (t, step, _fmt_h(h), best_text, multiset))
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


# The report JSON, in the layout ``json.dumps(..., indent=2)`` gives it.  A
# text at depth d starts on a line indented by 2*d spaces, its members sit a
# depth deeper, and its closing bracket at depth d again.  The depths of a
# report, a step, a population member or label, and a label's candidate and delta:
_REPORT, _STEP, _MEMBER, _LABEL_CANDIDATE = 1, 3, 5, 6


def _json_number(v) -> str:
    """A JSON scalar as ``json`` writes it: a finite float or a plain int
    directly, anything else (NaN, the infinities, a bool, a float subclass
    such as ``np.float64``, None) through ``json.dumps``."""
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    if type(v) is int:
        return int.__repr__(v)
    return json.dumps(v)


def _json_pattern(depth: int, keys: Sequence[str]) -> str:
    """A ``%`` pattern of an object at ``depth``, its ``keys`` in order, one ``%s`` each."""
    inner, tail = "\n" + "  " * (depth + 1), "\n" + "  " * depth + "}"
    return "{" + inner + ("," + inner).join('"%s": %%s' % k for k in keys) + tail


def _json_items(depth: int) -> Callable[[list[str]], str]:
    """The writer of an array at ``depth`` of written items: each on a line
    of its own, a depth deeper, and ``[]`` for no items."""
    inner = "\n" + "  " * (depth + 1)
    sep, tail = "," + inner, "\n" + "  " * depth + "]"
    return lambda items: "[" + inner + sep.join(items) + tail if items else "[]"


# An array's item writer by depth, and a candidate's on-grid and off-grid
# patterns with the item writer of its arrays at each depth one is written at:
# a report's best, a step's best and a population member.
_ITEMS = [_json_items(depth) for depth in range(_LABEL_CANDIDATE + 1)]
_CANDIDATES = {depth: (_json_pattern(depth, ("x", "f", "k", "level")),
                       _json_pattern(depth, ("x", "f")), _ITEMS[depth + 1])
               for depth in (_REPORT + 1, _STEP + 1, _MEMBER)}
_REPORT_PATTERN = _json_pattern(_REPORT, ("meta", "evaluations", "converged", "best",
                                          "best_value", "steps"))
_STEP_PATTERN = _json_pattern(_STEP, ("level", "h", "best", "population", "labels",
                                      "chosen_cell"))
_LABEL_PATTERN = _json_pattern(_MEMBER, ("candidate", "label", "delta"))
_CELL_PATTERN = _json_pattern(_STEP + 1, ("anchor", "level"))


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

    def candidate(c: Candidate, depth: int) -> str:
        on_grid, off_grid, items = _CANDIDATES[depth]
        x, f, p = items(list(map(number, c.x))), number(c.f), c.point
        if p is None:
            return off_grid % (x, f)
        return on_grid % (x, f, items(list(map(_json_number, p.k))), _json_number(p.level))

    last = best_text = None  # a step best held by consecutive steps is written once

    def step(s: StepRecord) -> str:
        nonlocal last, best_text
        items, deltas = _ITEMS[_STEP + 1], _ITEMS[_LABEL_CANDIDATE]
        if s.best is not last:
            last, best_text = s.best, candidate(s.best, _STEP + 1)
        population = [candidate(lv.candidate, _MEMBER) for lv in s.labels]
        # each label's candidate is the member at its index, a depth deeper
        labels = [_LABEL_PATTERN % (text.replace("\n", "\n  "), _json_number(lv.label),
                                    deltas(list(map(number, lv.delta))))
                  for lv, text in zip(s.labels, population)]
        cell = s.chosen_cell
        return _STEP_PATTERN % (
            _json_number(s.level), items(list(map(number, s.h))),
            best_text, items(population), items(labels),
            "null" if cell is None else _CELL_PATTERN % (
                _ITEMS[_STEP + 2](list(map(_json_number, cell.anchor.k))),
                _json_number(cell.level)))

    def report(rep: RunReport) -> str:
        # meta is small and may hold any JSON value, so ``json`` writes it
        return _REPORT_PATTERN % (
            json.dumps(rep.meta, indent=2).replace("\n", "\n" + "  " * (_REPORT + 1)),
            _json_number(rep.evaluations), _json_number(rep.converged),
            candidate(rep.best, _REPORT + 1), number(rep.best_value),
            _ITEMS[_REPORT + 1](list(map(step, rep.steps))))

    return _ITEMS[0](list(map(report, reports))) + "\n"


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
    _check_format(fmt)
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


_EXPERIMENT_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"algo_params"}


def experiment_config(keys: dict, seed: int = 0) -> ExperimentConfig:
    """The checked experiment of an INI section or of the ``run`` flags: a key
    that names an ``ExperimentConfig`` field, or spells one as in ``ALIASES``,
    sets it; any other key is a parameter of the algorithm.  ``seed`` applies
    unless a key sets one.  The objective and an ``initial`` point are checked."""
    fields = _respell(ExperimentConfig, keys)
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
    if cfg.algo == "slm":
        slm.check_enumerated(obj.box)
    baselines.start_point(obj, getattr(algo_cfg, "initial", None))
    sweeps = cfg.algo == "slmga" and not slm.enumerated(obj.box)
    points = 2 * (2 * obj.dim + 1) if sweeps else getattr(algo_cfg, "pop_size", 1)
    if points * obj.dim > MAX_GENERATION_FLOATS:
        raise ConfigError("a generation's points * dim must be <= %d" % MAX_GENERATION_FLOATS)
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
