import itertools
import math
import operator
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_harness import _decimal_box

from subgrid import slm, slmga

from subgrid.core import (
    BoxDomain,
    Candidate,
    Cell,
    GridPoint,
    GridSpec,
    LabeledVertex,
    RunReport,
    StepRecord,
    argmin_candidate,
    cell_vertices,
    coordinate,
    lattice_points,
    position_of,
    refine,
)
from subgrid.errors import SubgridError
from subgrid.functions import Evaluator, Objective, get_objective
from subgrid.harness import emit_table
from subgrid.labeling import delta_of, find_complete_cells, label_from_delta
from subgrid.slm import (
    NeighborScheme,
    Sense,
    SlmConfig,
    _moves,
    _negate_report,
    best_neighbor,
    initial_corners,
    slm_neighbors,
    slm_run,
)


# The loop that ``slm.slm_run`` replaced, kept as the reference it must
# agree with: it keeps the label and delta of every point labelled in the
# run and refines all of them at every level, positions each active point
# a second time for its labelled vertex, and selects the cell with
# closures that rebuild the cell's vertices on every key evaluation and a
# containment test that positions each region cell's anchor.
def reference_region_cells(active):
    present = {p.k for p in active}
    level = active[0].level
    out = []
    for p in sorted(active, key=lambda q: q.k):
        if all(tuple(kd + dd for kd, dd in zip(p.k, delta)) in present
               for delta in itertools.product((0, 1), repeat=len(p.k))):
            out.append(Cell(GridPoint(p.k, level)))
    return out


def reference_choose_cell(complete, grid, values, best, region_cells):
    def vertex_min(c):
        return min(values[v] for v in cell_vertices(c))

    def vertex_sum(c):
        return sum(values[v] for v in cell_vertices(c))

    def cell_key(c):
        return (vertex_min(c), c.anchor.k)

    def contains_best(c):
        lo = position_of(c.anchor, grid)
        hi = tuple(v + s for v, s in zip(lo, grid.step))
        return all(a - 1e-12 <= v <= b + 1e-12 for v, a, b in zip(best.x, lo, hi))

    containing = [c for c in region_cells if contains_best(c)]
    if complete:
        comp = min(complete, key=cell_key)
        if containing:
            cont = min(containing, key=lambda c: (
                vertex_min(c), vertex_sum(c), tuple(-kd for kd in c.anchor.k)))
            if (vertex_min(cont), vertex_sum(cont)) < (vertex_min(comp), vertex_sum(comp)):
                return cont
        return comp
    if containing:
        return max(containing, key=lambda c: c.anchor.k)
    return min(region_cells, key=cell_key)


def reference_slm_run(obj, cfg):
    box = obj.box
    negate = cfg.sense is Sense.MAXIMIZE
    ev = Evaluator(obj, negate=negate)
    rule = cfg.label_rule

    active = initial_corners(box)
    labels = {}
    deltas = {}
    steps = []
    best = None
    level = 1

    while level <= cfg.max_levels:
        grid = GridSpec(box, level)
        h = grid.step
        if all(hd < cfg.h_tol for hd in h):
            break
        h_next = tuple(hd / 2.0 for hd in h)

        population = []
        vertex_values = {}
        for p in sorted(active, key=lambda q: q.k):
            x = position_of(p, grid)
            fx = ev(x)
            cand = Candidate(x, fx, point=p)
            population.append(cand)
            vertex_values[p] = fx
            best = cand if best is None else argmin_candidate((best, cand))
            if p in labels:
                continue
            neighbors = slm_neighbors(x, h_next, cfg.neighbor_scheme, box)
            winner = best_neighbor(ev, cand, neighbors)
            best = argmin_candidate((best, winner))
            delta = delta_of(cand, winner)
            labels[p] = label_from_delta(delta, rule)
            deltas[p] = delta

        complete = find_complete_cells({p: labels[p] for p in active})
        chosen = reference_choose_cell(complete, grid, vertex_values, best,
                                       reference_region_cells(active))

        steps.append(StepRecord(
            level=level, h=h, population=population,
            labels=[LabeledVertex(Candidate(position_of(p, grid), vertex_values[p], p),
                                  labels[p], deltas[p])
                    for p in sorted(active, key=lambda q: q.k)],
            chosen_cell=chosen, best=best))

        active = lattice_points(chosen)
        labels = {refine(p): lab for p, lab in labels.items()}
        deltas = {refine(p): d for p, d in deltas.items()}
        level += 1

    final_grid = GridSpec(box, level)
    report = RunReport(
        steps=steps,
        best=best,
        evaluations=ev.count,
        converged=all(hd < cfg.h_tol for hd in final_grid.step),
        meta={
            "algorithm": "slm",
            "objective": obj.name,
            "h_tol": cfg.h_tol,
            "max_levels": cfg.max_levels,
            "neighbor_scheme": cfg.neighbor_scheme.value,
            "sense": cfg.sense.value,
        },
    )
    if negate:
        _negate_report(report)
    return report


# The three passes that ``slm._region_cells`` and ``slm._choose_cell``
# replaced, kept as the reference the one pass plus the policy must agree
# with: ``find_complete_cells`` sorted the labelled lattice and rebuilt
# every cell's vertices, ``chain_region_cells`` read (min, sum) off the
# lattice's lowest point, and the policy tested every cell's bounds
# against the best point.  ``chain_choose_cell`` also names its branch.
def chain_region_cells(level, values_by_k):
    base = next(iter(values_by_k))
    unit = list(itertools.product((0, 1), repeat=len(base)))
    cells = {}
    for off in unit[:1] if level == 1 else unit:
        anchor = tuple(map(operator.add, base, off))
        fs = [values_by_k[tuple(map(operator.add, anchor, v))] for v in unit]
        cells[anchor] = (min(fs), sum(fs))
    return cells


def chain_holds(k, grid, best):
    box, step = grid.box, grid.step
    return all(
        coordinate(lo, hi, kd, sd) - 1e-12 <= v <= coordinate(lo, hi, kd + 1, sd) + 1e-12
        for lo, hi, kd, sd, v in zip(box.lower, box.upper, k, step, best.x))


def chain_choose_cell(complete, grid, cells, best):
    containing = [k for k in cells if chain_holds(k, grid, best)]
    branch = "complete"
    if complete:
        chosen = min((c.anchor.k for c in complete), key=lambda k: (cells[k][0], k))
        if containing:
            cont = min(containing, key=lambda k: (*cells[k], tuple(-kd for kd in k)))
            if cells[cont] < cells[chosen]:
                chosen, branch = cont, "override-by-best-cell"
    elif containing:
        chosen, branch = max(containing), "containing-best"
    else:
        chosen, branch = min(cells, key=lambda k: (cells[k][0], k)), "lowest-vertex"
    return Cell(GridPoint(chosen, grid.level)), branch


def chain(vertices, grid, best):
    """The chosen cell and the branch that chose it, by the three passes,
    from the arguments of the one pass."""
    complete = find_complete_cells(
        {GridPoint(k, grid.level): lv.label for k, lv in vertices.items()})
    values = {k: vertices[k].candidate.f for k in sorted(vertices)}
    return chain_choose_cell(complete, grid, chain_region_cells(grid.level, values), best)


class TestInitialCorners:
    def test_two_dim(self):
        box = BoxDomain.cube(-2.0, 2.0, 2)
        grid = GridSpec(box, 1)
        pts = {position_of(p, grid) for p in initial_corners(box)}
        assert pts == {(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0), (2.0, -2.0)}

    def test_counts(self):
        assert len(initial_corners(BoxDomain.cube(0.0, 1.0, 3))) == 8
        assert len(initial_corners(BoxDomain.cube(0.0, 1.0, 5))) == 32

    def test_dimension_guard(self):
        with pytest.raises(SubgridError, match=r"^corner seeding needs 2\*\*21 points$"):
            initial_corners(BoxDomain.cube(0.0, 1.0, 21))

    def test_slm_run_refuses_before_any_evaluation(self):
        # slmga seeds such a box with two diagonal corners; slm takes all
        # 2**n or refuses
        def eval_fn(x):
            raise AssertionError("evaluated a point of the 21-d box")

        obj = Objective("raises", BoxDomain.cube(0.0, 1.0, 21), eval_fn)
        with pytest.raises(SubgridError, match=r"^corner seeding needs 2\*\*21 points$"):
            slm_run(obj, SlmConfig(h_tol=0.5, max_levels=1))


class TestNeighbors:
    def test_sign_uniform_count_interior(self):
        box = BoxDomain.cube(-10.0, 10.0, 2)
        out = slm_neighbors((0.0, 0.0), (1.0, 1.0), NeighborScheme.SIGN_UNIFORM, box)
        # 2*(2^2 - 1) = 6 distinct displacement patterns
        assert len(out) == 6
        assert (0.0, 0.0) not in out

    def test_sign_uniform_corner_discards_outside(self):
        box = BoxDomain.cube(-2.0, 2.0, 2)
        out = slm_neighbors((-2.0, -2.0), (2.0, 2.0), NeighborScheme.SIGN_UNIFORM, box)
        assert set(out) == {(0.0, -2.0), (-2.0, 0.0), (0.0, 0.0)}

    def test_full_box_includes_self(self):
        box = BoxDomain.cube(-10.0, 10.0, 2)
        out = slm_neighbors((0.0, 0.0), (1.0, 1.0), NeighborScheme.FULL_BOX, box)
        assert len(out) == 9
        assert (0.0, 0.0) in out

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_move_tables(self, n):
        # sign-uniform: +h or -h on every nonempty coordinate subset
        subsets = [s for s in itertools.product((0, 1), repeat=n) if any(s)]
        want = {tuple(sign * si for si in s) for s in subsets for sign in (1, -1)}
        su = _moves(n, NeighborScheme.SIGN_UNIFORM)
        assert len(su) == len(want) == 2 * (2**n - 1)
        assert set(su) == want
        assert _moves(n, NeighborScheme.FULL_BOX) == list(itertools.product((0, 1, -1), repeat=n))

    @pytest.mark.parametrize("scheme", list(NeighborScheme))
    def test_unmoved_coordinate_keeps_its_bits(self, scheme):
        box = BoxDomain.cube(-1.0, 1.0, 2)
        out = slm_neighbors((-0.0, 0.5), (0.25, 0.25), scheme, box)
        kept = [x for x in out if x[0] == 0.0]
        assert kept
        assert all(math.copysign(1.0, x[0]) == -1.0 for x in kept)

    # On decimal boxes a float probe can round past ``upper`` (on [-1.3, 2.9]
    # 0.8 + 2.1 does), but no probe that a run makes does: from a level-L
    # lattice point a moved coordinate lands on an odd index of level L+1.
    @given(_decimal_box(), st.integers(1, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_in_grid_probe_is_dropped_on_decimal_boxes(self, box, level, data):
        top = 2 ** (level - 1)
        grid = GridSpec(box, level)
        h_next = tuple(hd / 2.0 for hd in grid.step)
        index = st.one_of(st.sampled_from([0, 1, top - 1, top]), st.integers(0, top))
        for _ in range(8):
            k = tuple(data.draw(index) for _ in range(box.dim))
            x = position_of(GridPoint(k, level), grid)
            for scheme in NeighborScheme:
                in_grid = [m for m in _moves(box.dim, scheme)
                           if all(0 <= 2 * kd + md <= 2 * top for kd, md in zip(k, m))]
                assert len(slm_neighbors(x, h_next, scheme, box)) == len(in_grid)


class TestBestNeighbor:
    def test_strict_improvement_required(self):
        values = {(0.0,): 1.0, (1.0,): 1.0, (-1.0,): 1.0}
        p = Candidate((0.0,), 1.0)
        got = best_neighbor(lambda x: values[x], p, [(1.0,), (-1.0,)])
        assert got is p  # ties stay put

    def test_moves_to_minimum(self):
        values = {(0.0,): 1.0, (1.0,): 0.5, (-1.0,): 0.2}
        p = Candidate((0.0,), 1.0)
        got = best_neighbor(lambda x: values[x], p, [(1.0,), (-1.0,)])
        assert got.x == (-1.0,)

    def test_tie_between_movers_is_lexicographic(self):
        values = {(0.0,): 1.0, (1.0,): 0.5, (-1.0,): 0.5}
        p = Candidate((0.0,), 1.0)
        got = best_neighbor(lambda x: values[x], p, [(1.0,), (-1.0,)])
        assert got.x == (-1.0,)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([0.0, 1.0, 2.0, 3.0])),
                    max_size=8, unique_by=lambda c: c[0]),
           st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_probe_order_cannot_change_the_answer(self, probes, fp, rnd):
        # many ties: the answer is the lowest (f, x) of the strict improvements
        values = {(float(x),): f for x, f in probes}
        p = Candidate((0.5,), fp)
        xs = list(values)
        got = best_neighbor(values.__getitem__, p, xs)
        rnd.shuffle(xs)
        assert best_neighbor(values.__getitem__, p, xs) == got
        better = [(f, x) for x, f in values.items() if f < fp]
        assert got == (Candidate(min(better)[1], min(better)[0]) if better else p)


class TestGoldsteinPriceRun:
    def test_finds_optimum(self):
        rep = slm_run(get_objective("goldstein-price"), SlmConfig(h_tol=5e-5))
        assert rep.converged
        assert rep.best.x == (0.0, -1.0)
        assert abs(rep.best.f - 3.0) <= 1e-3

    def test_level_count(self):
        rep = slm_run(get_objective("goldstein-price"), SlmConfig(h_tol=5e-5))
        # widths 4 / 2^16 = 6.1e-5 >= 5e-5 > 4 / 2^17
        assert rep.generations == 17
        assert rep.steps[0].h == (4.0, 4.0)
        assert rep.steps[-1].h[0] == pytest.approx(4.0 / 2**16)

    def test_step_halving(self):
        rep = slm_run(get_objective("goldstein-price"), SlmConfig(h_tol=1e-2))
        for a, b in zip(rep.steps, rep.steps[1:]):
            assert b.h[0] == a.h[0] / 2.0
            assert b.level == a.level + 1


class TestEasomRun:
    def test_eleven_levels_near_pi(self):
        rep = slm_run(get_objective("easom"), SlmConfig(h_tol=0.1))
        assert rep.converged
        assert rep.generations == 11
        # final-level cell width 200 / 2^10
        cell_w = 200.0 / 2**10
        for coord in rep.best.x:
            assert abs(coord - 3.3203125) <= cell_w + 1e-12
        assert rep.best.f < -0.99

    def test_monotone_best(self):
        rep = slm_run(get_objective("easom"), SlmConfig(h_tol=0.1))
        values = [s.best.f for s in rep.steps]
        assert values == sorted(values, reverse=False) or all(
            b <= a for a, b in zip(values, values[1:]))

    def test_maximize_sense(self):
        # -easom has a maximum of +1 at the same point
        obj = get_objective("easom")
        from subgrid.functions import Objective

        neg = Objective(name="neg-easom", box=obj.box,
                        eval_fn=lambda x: -obj.evaluate(x))
        rep = slm_run(neg, SlmConfig(h_tol=0.1, sense=Sense.MAXIMIZE))
        assert rep.best.f > 0.99
        # the largest value seen, with its sign
        assert rep.best_value == rep.best.f
        for coord in rep.best.x:
            assert abs(coord - math.pi) < 0.5


class TestNoLevelToRun:
    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("h_tol", [100.0, math.inf])
    def test_best_box_corner(self, sense, h_tol):
        # h_tol above the level-1 step: no level runs, and the answer is the
        # best corner by rank, as in slmga.ga_run
        obj = get_objective("f2")
        rep = slm_run(obj, SlmConfig(h_tol=h_tol, sense=sense))
        sign = -1.0 if sense is Sense.MAXIMIZE else 1.0
        grid = GridSpec(obj.box, 1)
        corners = [position_of(p, grid) for p in initial_corners(obj.box)]
        want = min(corners, key=lambda x: (sign * obj.evaluate(x), x))
        assert rep.steps == []
        assert rep.best.x == want
        assert rep.best.point == GridPoint((0, 0) if sense is Sense.MAXIMIZE else (1, 1), 1)
        assert rep.best.f == rep.best_value == obj.evaluate(want)
        assert rep.evaluations == 4
        assert rep.converged

    def test_same_answer_as_ga_run(self):
        from subgrid.slmga import GaConfig, ga_run

        obj = get_objective("f5")
        got = slm_run(obj, SlmConfig(h_tol=1000.0))
        want = ga_run(obj, GaConfig(h_tol=1000.0))
        assert (got.steps, got.best, got.best_value, got.evaluations, got.converged) == (
            want.steps, want.best, want.best_value, want.evaluations, want.converged)


class TestReports:
    def test_labels_recorded_per_level(self):
        rep = slm_run(get_objective("goldstein-price"), SlmConfig(h_tol=0.5))
        from subgrid.labeling import LabelRule, label_from_delta

        first = rep.steps[0]
        assert len(first.labels) == 4
        for lv in first.labels:
            assert 0 <= lv.label <= 2
            assert len(lv.delta) == 2
            assert lv.label == label_from_delta(lv.delta, LabelRule())

    def test_chosen_cells_nest(self):
        obj = get_objective("easom")
        rep = slm_run(obj, SlmConfig(h_tol=0.1))
        prev = None
        for s in rep.steps:
            assert s.chosen_cell is not None
            grid = GridSpec(obj.box, s.level)
            lo = position_of(s.chosen_cell.anchor, grid)
            hi = tuple(v + sd for v, sd in zip(lo, grid.step))
            if prev is not None:
                plo, phi = prev
                assert all(a >= pa - 1e-9 and b <= pb + 1e-9
                           for a, b, pa, pb in zip(lo, hi, plo, phi))
            prev = (lo, hi)

    def test_evaluation_count_positive_and_cached(self):
        rep = slm_run(get_objective("goldstein-price"), SlmConfig(h_tol=0.5))
        assert 0 < rep.evaluations < 200

    def test_meta_echoes_config(self):
        rep = slm_run(get_objective("f2"), SlmConfig(h_tol=0.1))
        assert rep.meta["algorithm"] == "slm"
        assert rep.meta["objective"] == "f2"
        assert rep.meta["h_tol"] == 0.1


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", ["goldstein-price", "f2", "f5", "easom"])
    def test_engine_never_beats_brute_force_on_its_lineage(self, name):
        from subgrid.harness import brute_force_grid_min

        obj = get_objective(name)
        rep = slm_run(obj, SlmConfig(h_tol=obj.box.width[0] / 2**6))
        for level in range(1, min(rep.generations, 6) + 1):
            # probes at step `level` sit on the level+1 grid, so everything
            # the engine has seen so far is a subset of that grid
            oracle = brute_force_grid_min(obj, obj.box, level + 1)
            engine_best = min(s.best.f for s in rep.steps if s.level <= level)
            assert engine_best >= oracle.f - 1e-12


# Boxes with decimal (non-dyadic) bounds, so positions are rounded.
_coord = st.integers(-20000, 20000).map(lambda i: i / 1000)
_width = st.integers(1, 300000).map(lambda i: i / 1000)


@st.composite
def _slm_case(draw):
    n = draw(st.integers(1, 3))
    lower = [draw(_coord) for _ in range(n)]
    box = BoxDomain(tuple(lower), tuple(lo + draw(_width) for lo in lower))
    kind = draw(st.sampled_from(["sphere", "ripple", "floor", "floor-ratio", "constant"]))
    if kind == "sphere":
        # a shifted sphere, its centre anywhere in the box
        centre = tuple(lo + draw(st.floats(0.0, 1.0)) * w
                       for lo, w in zip(box.lower, box.width))
        fn = lambda x: sum((v - c) ** 2 for v, c in zip(x, centre))  # noqa: E731
    elif kind == "ripple":
        # many local minima: the best point often leaves the chosen region
        freq = draw(st.floats(0.5, 8.0))
        fn = lambda x: sum(math.cos(freq * v) for v in x)  # noqa: E731
    elif kind == "floor":
        # plateaus: many ties, labels decided by the tie rule
        scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
        fn = lambda x: math.floor(sum(x) / scale)  # noqa: E731
    elif kind == "floor-ratio":
        fn = lambda x: math.floor(x[0] / 3.0) - math.floor(x[-1] / 7.0)  # noqa: E731
    else:
        fn = lambda x: 0.0  # noqa: E731
    obj = Objective(name=kind, box=box, eval_fn=fn)
    cfg = SlmConfig(
        h_tol=min(box.width) * 1e-9,
        max_levels=draw(st.integers(1, 9)),
        neighbor_scheme=draw(st.sampled_from(list(NeighborScheme))),
        sense=draw(st.sampled_from(list(Sense))),
    )
    return obj, cfg


def _json(rep):
    return emit_table([rep], "json")


class TestRegionCells:
    @given(_slm_case(), st.floats(0.1, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_match_the_reference_at_every_step_of_both_engines(self, case, rate):
        obj, cfg = case
        seen = []
        real = slm._region_cells

        def recording(base, vertices, grid, best):
            cells = real(base, vertices, grid, best)
            seen.append((base, dict(vertices), grid, best, cells))
            return cells

        # both engines run slm.subdivide, which reads slm._region_cells
        with mock.patch.object(slm, "_region_cells", recording):
            slm_run(obj, cfg)
            slmga.ga_run(obj, slmga.GaConfig(h_tol=cfg.h_tol, max_generations=cfg.max_levels,
                                             mutation_rate=rate))
        assert len(seen) == 2 * cfg.max_levels
        for base, vertices, grid, best, cells in seen:
            assert base == min(vertices)
            level = grid.level
            complete = {c.anchor.k for c in find_complete_cells(
                {GridPoint(k, level): lv.label for k, lv in vertices.items()})}
            want = {}
            for c in reference_region_cells([GridPoint(k, level) for k in vertices]):
                k = c.anchor.k
                fs = [vertices[v.k].candidate.f for v in cell_vertices(c)]
                want[k] = (min(fs), sum(fs), k in complete, chain_holds(k, grid, best))
            assert cells == want


# Strategies made once: a strategy built inside a draw costs more than the
# cell pass it feeds.
_n = st.integers(1, 4)
_level = st.sampled_from([1, 2]) | st.integers(3, 40)
_at_top = st.booleans()
_spread = st.sampled_from([3, 3, 256])
_short = st.booleans()
_index = st.sampled_from([0, 1, 1, 2])
_where = st.sampled_from(["face", "face", "near", "near", "mid", "box"])
_off = st.sampled_from([-5e-13, 5e-13, -2e-12, 2e-12])
_unit = st.floats(0.0, 1.0)


@st.composite
def _cell_pass_case(draw):
    n = draw(_n)
    lower = [draw(_coord) for _ in range(n)]
    box = BoxDomain(tuple(lower), tuple(lo + draw(_width) for lo in lower))
    level = draw(_level)
    grid = GridSpec(box, level)
    if level == 1:
        points = initial_corners(box)
    else:
        # a lattice anywhere in the box, often at its top indices
        top = 2 ** (level - 2) - 1
        points = lattice_points(Cell(GridPoint(tuple(
            top if draw(_at_top) else min(top, int(draw(_unit) * (top + 1)))
            for _ in range(n)), level - 1)))
    # a byte per vertex for its value and one for its label; three values
    # make ties between cells common, and labels short of n leave no cell
    # complete
    m = len(points)
    raw = draw(st.binary(min_size=2 * m, max_size=2 * m))
    spread = draw(_spread)
    labels = n if draw(_short) else n + 1
    vertices = {p.k: LabeledVertex(Candidate(position_of(p, grid),
                                             float(raw[i] % spread - spread // 2), p),
                                   raw[m + i] % labels, ())
                for i, p in enumerate(points)}
    # the best point, axis by axis: on a lattice face (shared by two cells,
    # or the top index), just off one, inside a cell, or anywhere in the box
    base, span = points[0].k, 1 if level == 1 else 2
    x = []
    for lo, hi, kd, sd in zip(box.lower, box.upper, base, grid.step):
        where = draw(_where)
        face = coordinate(lo, hi, kd + min(draw(_index), span), sd)
        if where == "face":
            x.append(face)
        elif where == "near":
            x.append(face + draw(_off))
        elif where == "mid":
            x.append((coordinate(lo, hi, kd, sd) + coordinate(lo, hi, kd + 1, sd)) / 2)
        else:
            x.append(lo + draw(_unit) * (hi - lo))
    return base, vertices, grid, Candidate(tuple(x), 0.0)


def _tied_override_case():
    # every region cell holds the best point, the one complete cell (0, 0)
    # has the worst (min, sum) and the other three tie: only the tie key
    # among cells holding the best point decides
    grid = GridSpec(BoxDomain.cube(0.0, 4.0, 2), 2)
    values, labels = {(0, 0): 3.0, (1, 1): -1.0}, {(1, 0): 1, (0, 1): 2}
    vertices = {p.k: LabeledVertex(Candidate(position_of(p, grid), values.get(p.k, 0.0), p),
                                   labels.get(p.k, 0), ())
                for p in lattice_points(Cell(GridPoint((0, 0), 1)))}
    return (0, 0), vertices, grid, Candidate((2.0, 2.0), -1.0)


class TestOnePassChoosesAsTheChain:
    @given(_cell_pass_case())
    @example(_tied_override_case())
    @settings(max_examples=300, deadline=None)
    def test_same_cell_as_the_three_passes(self, case):
        base, vertices, grid, best = case
        got = slm._choose_cell(slm._region_cells(base, vertices, grid, best), grid.level)
        assert got == chain(vertices, grid, best)[0]


class TestPolicyBranches:
    # which policy branch chose each step's cell, as the three passes
    # classify it; between them the two runs reach all four branches
    @pytest.mark.parametrize("name,branches", [
        ("easom", ["containing-best", "containing-best", "complete", "complete", "complete",
                   "override-by-best-cell", "complete", "containing-best", "containing-best"]),
        ("f2", ["complete", "complete", "complete", "complete", "override-by-best-cell",
                "complete", "complete", "complete", "lowest-vertex"]),
    ])
    def test_branch_of_every_step(self, name, branches):
        obj = get_objective(name)
        seen = []
        real = slm._region_cells

        def recording(base, vertices, grid, best):
            seen.append(chain(vertices, grid, best))
            return real(base, vertices, grid, best)

        with mock.patch.object(slm, "_region_cells", recording):
            rep = slm_run(obj, SlmConfig(h_tol=min(obj.box.width) / 2**8))
        assert [cell for cell, _ in seen] == [s.chosen_cell for s in rep.steps]
        assert [branch for _, branch in seen] == branches


class TestEnginesChooseTheSameCells:
    # SLMGA is SLM recast as a GA: at mutation rate 1 it chooses the cell
    # that SLM chooses with full-box probes, at every step (f3, 5-d, agrees
    # too but takes seconds under full-box SLM)
    @pytest.mark.parametrize("name", ["easom", "goldstein-price", "f1", "f2", "f5"])
    def test_same_chosen_cell_at_every_step(self, name):
        obj = get_objective(name)
        h_tol = min(obj.box.width) / 2**8
        serial = slm_run(obj, SlmConfig(h_tol=h_tol, neighbor_scheme=NeighborScheme.FULL_BOX))
        ga = slmga.ga_run(obj, slmga.GaConfig(h_tol=h_tol, mutation_rate=1.0))
        assert len(serial.steps) == 9
        assert [s.chosen_cell for s in serial.steps] == [s.chosen_cell for s in ga.steps]


class TestMatchesReference:
    @given(_slm_case())
    @settings(max_examples=150, deadline=None)
    def test_same_report(self, case):
        obj, cfg = case
        assert _json(slm_run(obj, cfg)) == _json(reference_slm_run(obj, cfg))

    @pytest.mark.parametrize("name", ["goldstein-price", "easom", "f2", "f5"])
    def test_same_report_on_registry_objectives(self, name):
        obj = get_objective(name)
        cfg = SlmConfig(h_tol=min(obj.box.width) / 2**8)
        assert _json(slm_run(obj, cfg)) == _json(reference_slm_run(obj, cfg))


def _placed(cands):
    return [(tuple(map(float.hex, c.x)), c.f.hex(), c.point) for c in cands]


class TestPlaceCell:
    """``slm._place_cell`` places a cell's refined lattice as ``_place``
    places its ``lattice_points``: the same candidates, bit for bit and in
    the same order, from the same evaluations."""

    @staticmethod
    def check(cell, box):
        obj = Objective(name="ripple", box=box,
                        eval_fn=lambda x: sum(math.sin(3.0 * v) for v in x))
        grid = GridSpec(box, cell.level + 1)
        ev, ev_reference = Evaluator(obj), Evaluator(obj)
        got = slm._place_cell(cell, grid, ev)
        assert len(got) == 3**box.dim
        assert _placed(got) == _placed(slm._place(lattice_points(cell), grid, ev_reference))
        assert ev.count == ev_reference.count

    @given(_decimal_box(), st.integers(1, 70), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_candidates_on_decimal_boxes(self, box, level, data):
        top = 2 ** (level - 1) - 1  # the highest anchor index of an axis
        k = tuple(data.draw(st.sampled_from([0, top]) | st.integers(0, top))
                  for _ in range(box.dim))
        self.check(Cell(GridPoint(k, level)), box)

    def test_a_cell_on_the_top_face(self):
        # on [-1.3, 2.9] lower + width rounds past upper; the top index is upper
        box = BoxDomain((-1.3, 0.1, -2.0), (2.9, 0.7, 3.0))
        self.check(Cell(GridPoint((15, 3, 15), 5)), box)
        assert slm._place_cell(Cell(GridPoint((15, 3, 15), 5)), GridSpec(box, 6),
                               lambda x: 0.0)[-1].x[0] == 2.9

    def test_a_level_70_cell_past_2_to_the_63(self):
        box = BoxDomain((-1.3, 0.1, -20.0), (2.9, 0.7, 19.99))
        k = (2**69 - 1, 2**68 + 12345, 2**64 + 1)
        assert max(2 * kd + 2 for kd in k) > 2**63
        self.check(Cell(GridPoint(k, 70)), box)
