"""Outside-in span tracer for the subgrid layers.

The tracer rebinds module-level names of the package to timing wrappers
and puts the original objects back afterwards; no file of the package is
edited.  The engines look these names up in module globals at call time,
so a name is rebound in every layer module that imported it, and
``install`` refuses to run if a layer module still holds an unwrapped
reference to a traced function.

Spans are aggregated per name as they close (calls, total and self time)
rather than stored one by one: the paper workload makes several hundred
thousand grid-arithmetic calls per iteration, and flat memory keeps the
traced run comparable with the untraced one.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

# The layer modules whose globals are rebound and checked for misses.
LAYER_MODULES = (
    "subgrid",
    "subgrid.core",
    "subgrid.labeling",
    "subgrid.slm",
    "subgrid.slmga",
    "subgrid.functions",
    "subgrid.exprparse",
    "subgrid.baselines",
    "subgrid.harness",
)

ENGINE_SPANS = ("slm.slm_run", "slmga.ga_run", "baselines.differential_evolution")
KERNEL_SPAN = "functions.evaluate"


@dataclass(frozen=True)
class Binding:
    """A span name and every ``(owner, attribute)`` that must point at the
    wrapper while tracing.  ``probe_arg`` names a positional argument that
    is an evaluation callable whose calls are counted as probes; ``measure``
    names what is recorded about the return value: the report of an engine
    run, the length of a probe list, or the size of an emitted table."""

    span: str
    targets: tuple[tuple[str, str], ...]
    probe_arg: int | None = None
    measure: str | None = None  # "report", "len" or "bytes"


BINDINGS = (
    Binding("core.position_of", (
        ("subgrid.core", "position_of"), ("subgrid.slm", "position_of"),
        ("subgrid.slmga", "position_of"), ("subgrid.harness", "position_of"))),
    Binding("core.lattice_points", (
        ("subgrid.core", "lattice_points"), ("subgrid.slm", "lattice_points"),
        ("subgrid.slmga", "lattice_points"))),
    Binding("labeling.find_complete_cells", (
        ("subgrid.labeling", "find_complete_cells"),
        ("subgrid.slm", "find_complete_cells"),
        ("subgrid.slmga", "find_complete_cells"))),
    Binding("labeling.label_from_delta", (
        ("subgrid.labeling", "label_from_delta"), ("subgrid.slm", "label_from_delta"),
        ("subgrid.slmga", "label_from_delta"))),
    Binding("slm.choose_cell", (
        ("subgrid.slm", "_choose_cell"), ("subgrid.slmga", "_choose_cell"))),
    Binding("slm.region_cells", (
        ("subgrid.slm", "_region_cells"), ("subgrid.slmga", "_region_cells"))),
    Binding("slm.slm_neighbors", (("subgrid.slm", "slm_neighbors"),), measure="len"),
    Binding("slm.best_neighbor", (("subgrid.slm", "best_neighbor"),), probe_arg=0),
    Binding("slm.slm_run", (
        ("subgrid.slm", "slm_run"), ("subgrid", "slm_run")), measure="report"),
    Binding("slmga.mutate", (("subgrid.slmga", "mutate"),), probe_arg=0),
    Binding("slmga.ga_run", (
        ("subgrid.slmga", "ga_run"), ("subgrid", "ga_run")), measure="report"),
    Binding(KERNEL_SPAN, (("subgrid.functions.Objective", "evaluate"),)),
    # exprparse.evaluate recurses through its own module global, so only the
    # harness entry point is wrapped: one span per expression evaluation,
    # not one per AST node.
    Binding("exprparse.evaluate", (("subgrid.harness", "expr_evaluate"),)),
    Binding("exprparse.parse", (
        ("subgrid.exprparse", "parse"), ("subgrid.harness", "expr_parse"))),
    Binding("baselines.differential_evolution", (
        ("subgrid.baselines", "differential_evolution"),), measure="report"),
    Binding("harness.run_experiment", (
        ("subgrid.harness", "run_experiment"), ("subgrid", "run_experiment"))),
    Binding("harness.bench_suite", (("subgrid.harness", "bench_suite"),)),
    Binding("harness.bench_table", (("subgrid.harness", "bench_table"),), measure="bytes"),
    Binding("harness.emit_table", (("subgrid.harness", "emit_table"),), measure="bytes"),
)

# Module globals deliberately left unwrapped (see exprparse.evaluate above).
UNWRAPPED = {("subgrid.exprparse", "evaluate")}


class TracerError(RuntimeError):
    """The tracer could not rebind every reference to a traced function."""


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "probes", "kernel_calls", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.probes = 0
        self.kernel_calls = 0
        self.bytes = 0


def _resolve(path: str):
    """Import ``a.b`` as a module, or ``a.b.Class`` as a module attribute."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Collects span statistics; use ``with tracer.installed(): ...``."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.stats: dict[str, SpanStats] = {b.span: SpanStats() for b in bindings}
        self.reports: list = []  # RunReports returned by engine spans
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def span(self, name: str, fn, probe_arg=None, measure=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stat = self.stats.setdefault(name, SpanStats())
        kernel = self.stats.setdefault(KERNEL_SPAN, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        reports = self.reports

        def count_probe(evaluate):
            def probe(*a, **kw):
                stat.probes += 1
                return evaluate(*a, **kw)
            return probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe_arg is not None:
                args = list(args)
                args[probe_arg] = count_probe(args[probe_arg])
                kernel_before = kernel.calls
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if probe_arg is not None:
                stat.kernel_calls += kernel.calls - kernel_before
            if measure == "report":
                reports.append(result)
            elif measure == "len":
                stat.probes += len(result)
            elif measure == "bytes":
                stat.bytes += len(result.encode())
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise TracerError("tracer already installed")
        originals = {}
        try:
            for b in self.bindings:
                for owner_path, attr in b.targets:
                    owner = _resolve(owner_path)
                    original = vars(owner)[attr]
                    if b.span not in originals:
                        originals[b.span] = original
                    elif originals[b.span] is not original:
                        raise TracerError("%s.%s is not the same object as the "
                                          "other targets of %s" % (owner_path, attr, b.span))
                    wrapper = self.span(b.span, original, b.probe_arg, b.measure)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            self._check_complete(set(map(id, originals.values())))
        except BaseException:
            self.uninstall()
            raise

    def _check_complete(self, original_ids: set[int]) -> None:
        for path in LAYER_MODULES:
            mod = importlib.import_module(path)
            for name, value in vars(mod).items():
                if id(value) in original_ids and (path, name) not in UNWRAPPED:
                    raise TracerError("%s.%s still refers to an unwrapped traced "
                                      "function; add it to BINDINGS" % (path, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def engine_spans(self) -> int:
        return sum(self.stats[name].calls for name in ENGINE_SPANS)

