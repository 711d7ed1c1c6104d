import itertools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subgrid.core import (
    BoxDomain,
    Candidate,
    GridPoint,
    GridSpec,
    argmin_candidate,
    position_of,
)
from subgrid.errors import ConfigError, ExprEvalError, SubgridError
from subgrid.functions import Evaluator, Objective, get_objective
from subgrid.harness import expression_objective
from subgrid.slm import MAX_ENUMERATED_OFFSPRING, init_population
from subgrid.slmga import GaConfig, ga_run, mutate


# The brood-building mutation that ``slmga.mutate`` replaced, kept as the
# reference it must agree with: every offspring becomes a Candidate, and the
# best is picked from the finished brood.
def reference_mutate(evaluate, parent, box):
    p = parent.point
    n = p.dim
    level = p.level + 1
    grid = GridSpec(box, level)
    top = grid.max_index
    base = tuple(2 * kd for kd in p.k)

    if 3**n <= MAX_ENUMERATED_OFFSPRING:
        out = []
        for alphas in itertools.product((0, 1, -1), repeat=n):
            k = tuple(b + a for b, a in zip(base, alphas))
            if any(kd < 0 or kd > top for kd in k):
                continue
            x = position_of(GridPoint(k, level), grid)
            out.append(Candidate(x, evaluate(x), point=GridPoint(k, level)))
        return out

    start = GridPoint(base, level)
    x = position_of(start, grid)
    cur = Candidate(x, evaluate(x), point=start)
    out = [cur]
    for d in range(n):
        for a in (1, -1):
            kd = cur.point.k[d] + a
            if kd < 0 or kd > top:
                continue
            trial = GridPoint(cur.point.k[:d] + (kd,) + cur.point.k[d + 1:], level)
            x = position_of(trial, grid)
            cand = Candidate(x, evaluate(x), point=trial)
            out.append(cand)
            cur = argmin_candidate((cur, cand))
    return out


def reference_best_offspring(parent, offspring):
    best = next((c for c in offspring if c.x == parent.x), offspring[0])
    moved = False
    for c in offspring:
        if c.f < best.f or (moved and c.f == best.f and c.x < best.x):
            best = c
            moved = True
    return best


def _recording(fn):
    """``fn`` that appends each point it is called with to ``.probes``."""
    def wrapped(x):
        wrapped.probes.append(x)
        return fn(x)

    wrapped.probes = []
    return wrapped


def _lattice_parent(box, k, level, fn):
    p = GridPoint(k, level)
    x = position_of(p, GridSpec(box, level))
    return Candidate(x, fn(x), point=p)


class TestInitPopulation:
    def test_corners(self):
        box = BoxDomain.cube(-2.048, 2.048, 2)
        pop = init_population(box, lambda x: sum(v * v for v in x))
        assert [c.x for c in pop] == [
            (-2.048, -2.048), (-2.048, 2.048), (2.048, -2.048), (2.048, 2.048)]
        assert [c.point for c in pop] == [
            GridPoint(k, 1) for k in ((0, 0), (0, 1), (1, 0), (1, 1))]
        assert all(c.f == 2 * 2.048 ** 2 for c in pop)

    def test_high_dimension_uses_diagonal(self):
        box = BoxDomain.cube(-1.28, 1.28, 30)
        pop = init_population(box, lambda x: sum(v * v for v in x))
        assert [c.x for c in pop] == [(-1.28,) * 30, (1.28,) * 30]
        assert [c.point for c in pop] == [GridPoint((0,) * 30, 1), GridPoint((1,) * 30, 1)]

    @pytest.mark.parametrize("n,evaluations", [(8, 46), (16, 86), (20, 106)])
    def test_high_dimension_expression_run_is_cheap(self, n, evaluations):
        # 3**n passes the enumeration limit from 7-d on: two diagonal
        # corners, two coordinate sweeps per generation and no cell chosen
        obj = expression_objective("x1", n, -5.0, 5.0)
        rep = ga_run(obj, GaConfig(h_tol=1e-3, max_generations=2, seed=0))
        assert [c.point for c in rep.steps[0].population] == [
            GridPoint((0,) * n, 1), GridPoint((1,) * n, 1)]
        assert [s.chosen_cell for s in rep.steps] == [None, None]
        assert rep.evaluations == evaluations
        assert rep.best.f == rep.best_value == -5.0


class TestSurvivorDedup:
    def test_shared_child_kept_once(self):
        # 3**7 offspring per member are too many, so the run starts from the
        # two diagonal corners, no cell is chosen and the mutated survivors
        # carry the search; on a symmetric box both corners' best offspring
        # is the centre, kept once
        box = BoxDomain.cube(-1.0, 1.0, 7)
        obj = Objective(name="sphere-7", box=box, eval_fn=_sphere)
        rep = ga_run(obj, GaConfig(h_tol=0.5, max_generations=2))
        assert len(rep.steps[0].population) == 2
        assert rep.steps[0].chosen_cell is None
        assert [(c.x, c.point) for c in rep.steps[1].population] == [
            ((0.0,) * 7, GridPoint((1,) * 7, 2))]


def _sphere(x):
    return sum(v * v for v in x)


class TestMutate:
    def test_full_box_offspring(self):
        box = BoxDomain.cube(-2.0, 2.0, 2)
        f = _recording(_sphere)
        [child] = mutate(f, [_lattice_parent(box, (0, 0), 1, _sphere)], box)
        # corner parent: only the inward quadrant of {0,+-h}^2 stays in box
        assert sorted(f.probes) == sorted([(-2.0, -2.0), (0.0, -2.0), (-2.0, 0.0), (0.0, 0.0)])
        assert child.x == (0.0, 0.0)
        assert child.point == GridPoint((1, 1), 2)

    def test_interior_parent_has_nine_offspring(self):
        box = BoxDomain.cube(-2.0, 2.0, 2)
        f = _recording(_sphere)
        mutate(f, [_lattice_parent(box, (1, 1), 2, _sphere)], box)
        assert len(set(f.probes)) == len(f.probes) == 9

    def test_high_dimension_coordinate_sweep(self):
        box = BoxDomain.cube(-1.28, 1.28, 30)
        f = _recording(_sphere)
        [child] = mutate(f, [_lattice_parent(box, (0,) * 30, 1, _sphere)], box)
        # far fewer probes than 3^30
        assert len(f.probes) <= 1 + 2 * 30
        assert child.point.level == 2

    def test_bad_parent_is_refused(self):
        box = BoxDomain.cube(-2.0, 2.0, 2)
        for k in ((0,), (0, 2), (-1, 0)):
            with pytest.raises(SubgridError, match="^parent %s is not a point of the 2-d grid "
                               "at level 1$" % re.escape(repr(k))):
                mutate(_sphere, [Candidate((0.0, 0.0), 0.0, point=GridPoint(k, 1))], box)

    def test_parents_of_mixed_levels_are_refused(self):
        box = BoxDomain.cube(-2.0, 2.0, 2)
        parents = [_lattice_parent(box, (1, 1), 2, _sphere),
                   _lattice_parent(box, (1, 1), 3, _sphere)]
        with pytest.raises(SubgridError, match="^parents of mixed levels are not one lattice$"):
            mutate(_sphere, parents, box)

    def test_parents_spread_over_more_than_three_indices_are_refused(self):
        box = BoxDomain.cube(-2.0, 2.0, 2)
        parents = [_lattice_parent(box, k, 3, _sphere) for k in ((0, 1), (3, 1))]
        with pytest.raises(SubgridError, match="^parents spread over more than 3 indices on an "
                           "axis are not one lattice$"):
            mutate(_sphere, parents, box)
        # three indices on each axis are one lattice: a chosen cell's 3^n points
        parents = [_lattice_parent(box, k, 3, _sphere) for k in ((0, 1), (2, 3))]
        assert len(mutate(_sphere, parents, box)) == 2

    def test_no_parents_no_children(self):
        assert mutate(_sphere, [], BoxDomain.cube(-2.0, 2.0, 2)) == []


class TestBestOffspring:
    """The choice among a 1-d brood: probes at -h, the parent at 0.0, +h."""

    box = BoxDomain.cube(-2.0, 2.0, 1)

    def _child(self, values):
        def fn(x):
            return values[x[0]]

        f = _recording(fn)
        [child] = mutate(f, [_lattice_parent(self.box, (1,), 2, fn)], self.box)
        assert f.probes == [(-1.0,), (0.0,), (1.0,)]
        return child

    def test_prefers_strict_improvement(self):
        child = self._child({0.0: 1.0, 1.0: 0.5, -1.0: 2.0})
        assert child.x == (1.0,)
        assert child.point == GridPoint((3,), 3)
        assert child.f == 0.5

    def test_tie_keeps_parent(self):
        child = self._child({0.0: 1.0, 1.0: 1.0, -1.0: 1.0})
        assert child.x == (0.0,)
        assert child.point == GridPoint((2,), 3)

    def test_tie_after_move_is_lexicographic(self):
        child = self._child({0.0: 1.0, 1.0: 0.5, -1.0: 0.5})
        assert child.x == (-1.0,)
        assert child.point == GridPoint((1,), 3)


# Boxes with decimal (non-dyadic) bounds, so positions are rounded.
_coord = st.integers(-20000, 20000).map(lambda i: i / 1000)
_width = st.integers(1, 300000).map(lambda i: i / 1000)
_objectives = st.sampled_from([
    _sphere,
    lambda x: math.floor(sum(x)),   # plateaus: many ties
    lambda x: math.floor(x[0] / 3.0) - math.floor(x[-1] / 7.0),
    lambda x: 0.0,                  # every probe ties
])


@st.composite
def _mutation_case(draw):
    n = draw(st.integers(1, 7))
    level = draw(st.integers(1, 70))
    lower = [draw(_coord) for _ in range(n)]
    box = BoxDomain(tuple(lower), tuple(lo + draw(_width) for lo in lower))
    top = 2 ** (level - 1)
    # per axis a low face, a high face or an interior index: corner, edge
    # and interior parents
    k = tuple(draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))
              for _ in range(n))
    return box, k, level, draw(_objectives)


class TestMutateMatchesReference:
    @given(_mutation_case())
    # the top index at level 65 passes 2**64: the window's first index does not fit int64
    @example((BoxDomain((0.0, 0.0), (0.001, 0.001)), (0, 2**63), 64, _sphere))
    @settings(max_examples=300, deadline=None)
    def test_same_probes_and_child(self, case):
        box, k, level, fn = case
        parent = _lattice_parent(box, k, level, fn)
        new = _recording(fn)
        ref = _recording(fn)
        [child] = mutate(new, [parent], box)
        want = reference_best_offspring(parent, reference_mutate(ref, parent, box))
        # the window probes each distinct point once, in C order; the
        # coordinate sweep probes as the reference does
        if 3**len(k) <= MAX_ENUMERATED_OFFSPRING:
            assert sorted(new.probes) == sorted(set(ref.probes))
        else:
            assert new.probes == ref.probes
        assert child == want
        assert child.point == want.point

    def test_six_dimensions_enumerate_and_seven_sweep(self):
        box = BoxDomain.cube(-2.0, 2.0, 6)
        f = _recording(_sphere)
        mutate(f, [_lattice_parent(box, (1,) * 6, 2, _sphere)], box)
        assert len(set(f.probes)) == len(f.probes) == 3**6
        box = BoxDomain.cube(-2.0, 2.0, 7)
        f = _recording(_sphere)
        mutate(f, [_lattice_parent(box, (1,) * 7, 2, _sphere)], box)
        assert len(f.probes) <= 1 + 2 * 7


# Values drawn from a few, so that many offspring tie as on F3's plateaus.
_values = st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.5, math.nan, math.inf, -math.inf]),
                   min_size=1, max_size=6)


@st.composite
def _generation_case(draw):
    """A generation as ``ga_run`` mutates it: the 3^n points of a refined
    cell or the 2^n corners of a cell, in some order, the first
    ``mutation_rate`` of them mutated, on a decimal box at a shallow or a
    deep level, with each fine position's value looked up in a table."""
    n = draw(st.integers(1, 5))
    span = draw(st.sampled_from([1, 2]))  # 2^n corners or 3^n lattice points
    level = draw(st.one_of(st.integers(span, 12), st.integers(40, 70)))
    lower = [draw(_coord) for _ in range(n)]
    box = BoxDomain(tuple(lower), tuple(lo + draw(_width) for lo in lower))
    top = 2 ** (level - 1)
    anchor = [draw(st.one_of(st.just(0), st.just(top - span), st.integers(0, top - span)))
              for _ in range(n)]
    points = [tuple(map(int.__add__, anchor, d))
              for d in itertools.product(range(span + 1), repeat=n)]
    points = draw(st.permutations(points))
    rate = draw(st.floats(0.0, 1.0, exclude_min=True))
    table = draw(_values)
    salt = draw(st.integers(0, 10))

    fine = GridSpec(box, level + 1)
    values = {}
    for k in itertools.product(*[range(max(0, 2 * a - 1), min(2 * top, 2 * (a + span) + 1) + 1)
                                 for a in anchor]):
        i = sum(c * p for c, p in zip(k, (1, 3, 7, 13, 29))) + salt
        values[position_of(GridPoint(k, level + 1), fine)] = table[i % len(table)]
    obj = Objective(name="table", box=box, eval_fn=values.__getitem__)
    members = [_lattice_parent(box, k, level, obj.noiseless) for k in points]
    return obj, members[:max(1, int(round(rate * len(members))))]


def _children(cands):
    assert all(type(c.f) is float and all(type(v) is int for v in c.point.k) for c in cands)
    return [(c.x, repr(c.f), c.point) for c in cands]


class TestGenerationMatchesReference:
    @given(_generation_case())
    @settings(max_examples=60, deadline=None)
    def test_same_children_and_evaluations(self, case):
        obj, members = case
        window = Evaluator(obj)
        ref = Evaluator(obj)
        children = mutate(window.value, members, obj.box)
        assert _children(children) == _children(
            [reference_best_offspring(m, reference_mutate(ref.value, m, obj.box))
             for m in members])
        assert window.count == ref.count

    def test_run_ends_on_the_first_undefined_point_in_c_order(self):
        # the best corner, (2, 2), moves to (2, 0) first, where the division
        # is undefined; the window meets (-2, 0) first, where the log is
        obj = expression_objective(
            "log(x1 + 2 + x2^2) + 1/(x1 + x2 - 2) - 10*x1 - 10*x2", 2, -2.0, 2.0)
        corners = sorted(init_population(obj.box, obj.noiseless), key=lambda c: c.f)
        assert corners[0].x == (2.0, 2.0)
        with pytest.raises(ExprEvalError, match="^log: math domain error$"):
            ga_run(obj, GaConfig(h_tol=0.1))


class TestRuns:
    def test_f1_reaches_origin(self):
        rep = ga_run(get_objective("f1"), GaConfig(h_tol=5e-5, seed=0))
        assert rep.converged
        assert rep.generations == 18
        assert rep.best.x == (0.0, 0.0, 0.0)
        assert rep.best.f == 0.0

    def test_f2_schedule(self):
        rep = ga_run(get_objective("f2"), GaConfig(h_tol=0.02, seed=0))
        assert rep.generations == 8
        assert rep.steps[-1].h == (0.032, 0.032)
        assert rep.best.f <= 0.01
        for coord in rep.best.x:
            assert abs(coord - 1.0) < 0.08

    def test_f5_basin(self):
        rep = ga_run(get_objective("f5"), GaConfig(h_tol=0.3, seed=0))
        assert rep.generations == 9
        assert abs(rep.best.f - 0.998004) < 0.01
        for coord in rep.best.x:
            assert abs(coord - (-32.0)) < 0.5

    def test_deterministic(self):
        a = ga_run(get_objective("f2"), GaConfig(h_tol=0.02, seed=3))
        b = ga_run(get_objective("f2"), GaConfig(h_tol=0.02, seed=3))
        assert a.best == b.best
        assert a.evaluations == b.evaluations
        assert [s.best.f for s in a.steps] == [s.best.f for s in b.steps]

    def test_mutation_rate_reduces_probing(self):
        full = ga_run(get_objective("f2"), GaConfig(h_tol=0.1, seed=0, mutation_rate=1.0))
        half = ga_run(get_objective("f2"), GaConfig(h_tol=0.1, seed=0, mutation_rate=0.5))
        assert half.evaluations <= full.evaluations

    def test_step_halves_each_generation(self):
        rep = ga_run(get_objective("f2"), GaConfig(h_tol=0.02, seed=0))
        assert rep.steps[0].h == (4.096, 4.096)
        for a, b in zip(rep.steps, rep.steps[1:]):
            assert b.h[0] == a.h[0] / 2.0
        assert rep.meta["mutation_schedule_ratio"] == 0.5

    def test_labels_consistent(self):
        from subgrid.labeling import LabelRule, label_from_delta

        rep = ga_run(get_objective("f2"), GaConfig(h_tol=0.1, seed=0))
        for step in rep.steps:
            for lv in step.labels:
                assert lv.label == label_from_delta(lv.delta, LabelRule())


class TestStochasticF4:
    def test_noiseless_origin_within_sixteen_generations(self):
        obj = get_objective("f4")
        rep = ga_run(obj, GaConfig(h_tol=5e-5, seed=0))
        assert rep.generations == 16
        assert rep.best.x == (0.0,) * 30
        assert obj.noiseless(rep.best.x) == 0.0

    def test_common_noise_within_generation(self):
        # two runs with the same seed see identical noise, different seeds differ
        obj = get_objective("f4")
        a = ga_run(obj, GaConfig(h_tol=0.1, seed=1))
        b = ga_run(obj, GaConfig(h_tol=0.1, seed=1))
        c = ga_run(obj, GaConfig(h_tol=0.1, seed=2))
        assert a.best.f == b.best.f
        assert a.best.f != c.best.f


class TestConfigValidation:
    def test_bad_h_tol(self):
        with pytest.raises(ConfigError, match=r"^h_tol must be positive$"):
            GaConfig(h_tol=0.0)

    def test_bad_mutation_rate(self):
        with pytest.raises(ConfigError, match=r"^mutation_rate must be in \(0, 1\]$"):
            GaConfig(mutation_rate=0.0)
        with pytest.raises(ConfigError, match=r"^mutation_rate must be in \(0, 1\]$"):
            GaConfig(mutation_rate=1.5)


class TestGradientFallback:
    def test_f3_gradient_labels_fall_back_to_best_neighbor(self):
        # f3 is a step function with no gradient: every label falls back to
        # the best-neighbor rule, so the run is the best-neighbor run
        from subgrid.labeling import LabelRule, LabelVariant

        obj = get_objective("f3")
        grad = ga_run(obj, GaConfig(h_tol=0.1, label_rule=LabelRule(
            LabelVariant.GRADIENT_FIXED_POINT)))
        plain = ga_run(obj, GaConfig(h_tol=0.1))
        assert grad.generations == plain.generations == 7
        assert grad.steps == plain.steps
        assert (grad.best, grad.best_value, grad.evaluations) == (
            plain.best, plain.best_value, plain.evaluations)

    @pytest.mark.parametrize("variant", ["best-neighbor", "gradient-fixed-point"])
    def test_every_kernel_call_is_counted(self, variant):
        # finite-difference points go through the Evaluator, which counts
        # them and caches repeats: 1,326 evaluations under gradient labels
        from subgrid.labeling import LabelRule, LabelVariant

        fn = _recording(lambda x: x[0] ** 2 + x[1] ** 2)
        obj = Objective("sphere", BoxDomain.cube(-4.0, 4.0, 2), fn)
        rep = ga_run(obj, GaConfig(label_rule=LabelRule(LabelVariant(variant))))
        assert rep.evaluations == len(fn.probes)
        assert all(obj.box.contains(x) and type(x) is tuple for x in fn.probes)
