import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid.core import (
    MAX_LEVEL,
    BoxDomain,
    Candidate,
    Cell,
    GridPoint,
    GridSpec,
    argmin_candidate,
    cell_vertices,
    lattice_points,
    levels,
    position_of,
    rank,
    refine,
)
from subgrid.errors import ConfigError, SubgridError

BAD_BOX = "need lower < upper and a finite width in every dimension"
BAD_LENGTHS = "lower/upper must be non-empty and equal length"


class TestBoxDomain:
    def test_basic(self):
        box = BoxDomain((-2.0, -2.0), (2.0, 2.0))
        assert box.dim == 2
        assert box.width == (4.0, 4.0)
        assert box.center() == (0.0, 0.0)

    def test_cube(self):
        box = BoxDomain.cube(-5.12, 5.12, 3)
        assert box.lower == (-5.12,) * 3
        assert box.upper == (5.12,) * 3

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigError, match=BAD_BOX):
            BoxDomain((1.0,), (0.0,))
        with pytest.raises(ConfigError, match=BAD_BOX):
            BoxDomain((0.0,), (0.0,))

    @pytest.mark.parametrize("lo,hi", [
        (-1e308, 1e308),            # finite bounds, an infinite width
        (float("nan"), 1.0), (0.0, float("nan")),
        (float("-inf"), 1.0), (0.0, float("inf")),
    ])
    def test_rejects_a_width_that_is_not_finite(self, lo, hi):
        with pytest.raises(ConfigError, match=BAD_BOX):
            BoxDomain((0.0, lo), (1.0, hi))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigError, match=BAD_LENGTHS):
            BoxDomain((0.0, 0.0), (1.0,))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match=BAD_LENGTHS):
            BoxDomain((), ())

    def test_contains_and_clamp(self):
        box = BoxDomain.cube(-1.0, 1.0, 2)
        assert box.contains((0.0, 1.0))
        assert not box.contains((0.0, 1.0001))

    def test_contains_boundary_point(self):
        box = BoxDomain((-5.12, 0.0), (5.12, 2.56))
        assert box.contains((-5.12, 2.56))
        assert box.contains((5.12, 0.0))

    def test_nan_coordinate_not_contained(self):
        box = BoxDomain.cube(-1.0, 1.0, 2)
        assert not box.contains((float("nan"), 0.0))
        assert not box.contains((0.0, float("nan")))

    def test_wrong_length_not_contained(self):
        box = BoxDomain.cube(-1.0, 1.0, 2)
        assert not box.contains((0.0,))
        assert not box.contains((0.0, 0.0, 0.0))
        assert not box.contains(())


class TestGridSpec:
    def test_step_halves_per_level(self):
        box = BoxDomain.cube(-5.12, 5.12, 3)
        g1 = GridSpec(box, 1)
        assert g1.step == (10.24,) * 3
        g2 = GridSpec(box, 2)
        assert g2.level == 2
        assert g2.step == (5.12,) * 3
        for lvl in range(1, 12):
            g = GridSpec(box, lvl)
            assert g.step[0] == 10.24 / 2 ** (lvl - 1)

    def test_width_and_step_are_made_once_and_not_compared(self):
        box, fresh_box = BoxDomain.cube(-1.3, 2.9, 2), BoxDomain.cube(-1.3, 2.9, 2)
        grid, fresh_grid = GridSpec(box, 3), GridSpec(fresh_box, 3)
        assert grid.step is grid.step and box.width is box.width
        assert grid.step == fresh_grid.step == (1.05, 1.05)
        # a cached value is no field: equality, hash and repr are as before
        assert (grid, hash(grid), repr(grid)) == (fresh_grid, hash(fresh_grid), repr(fresh_grid))
        assert (box, hash(box), repr(box)) == (fresh_box, hash(fresh_box), repr(fresh_box))

    def test_max_index(self):
        box = BoxDomain.cube(0.0, 1.0, 1)
        assert GridSpec(box, 1).max_index == 1
        assert GridSpec(box, 4).max_index == 8

    def test_level_below_one_rejected(self):
        with pytest.raises(SubgridError, match=r"^level must be >= 1$"):
            GridSpec(BoxDomain.cube(0.0, 1.0, 1), 0)


# The loop both engines ran before ``levels``: one level after another
# until every step is below ``h_tol``.  ``GridSpec.step`` divides by the int
# ``2**(level - 1)``, which stops converting to a float past ``MAX_LEVEL``.
def reference_levels(box, h_tol):
    level = 1
    while not all(hd < h_tol for hd in GridSpec(box, level).step):
        level += 1
    return level - 1


@st.composite
def _box_and_tolerance(draw):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "powers-of-two", "subnormal"]))
    if kind == "random":
        lower = [draw(st.floats(-1e3, 1e3)) for _ in range(n)]
        upper = [lo + draw(st.floats(1e-3, 1e3)) for lo in lower]
        h_tol = draw(st.one_of(st.just(math.inf), st.floats(1e-9, 1e4),
                               st.integers(-40, 12).map(lambda e: math.ldexp(1.0, e))))
    elif kind == "powers-of-two":
        # a step equal to h_tol at some level: the boundary of the count
        lower = [0.0] * n
        upper = [math.ldexp(1.0, draw(st.integers(-20, 20))) for _ in range(n)]
        h_tol = math.ldexp(1.0, draw(st.integers(-40, 30)))
    else:
        # widths just above the subnormal range: the last steps round
        lower = [0.0] * n
        upper = [math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)),
                            draw(st.integers(-1060, -960))) for _ in range(n)]
        h_tol = draw(st.floats(5e-324, 2.2250738585072014e-308))
    return BoxDomain(tuple(lower), tuple(upper)), h_tol


class TestLevels:
    @given(_box_and_tolerance())
    @settings(max_examples=300, deadline=None)
    def test_counts_the_levels_the_old_loop_ran(self, case):
        box, h_tol = case
        assert levels(box, h_tol) == reference_levels(box, h_tol)

    def test_edges(self):
        box = BoxDomain.cube(0.0, 1.0, 2)
        assert levels(box, math.inf) == 0
        assert levels(box, 1.0) == 1
        assert levels(box, 0.5) == 2
        # every step down to the smallest subnormal, 2**-1074, counts
        assert levels(box, 5e-324) == 1075 > MAX_LEVEL
        assert levels(BoxDomain.cube(-1e308, 0.0, 1), 5e-324) > 2000


class TestGridPoint:
    def test_position_is_exact_dyadic(self):
        box = BoxDomain.cube(-100.0, 100.0, 2)
        grid = GridSpec(box, 3)
        # level 3: step 50, index range 0..4
        assert position_of(GridPoint((0, 4), 3), grid) == (-100.0, 100.0)
        assert position_of(GridPoint((2, 2), 3), grid) == (0.0, 0.0)

    def test_position_known_value(self):
        box = BoxDomain.cube(-100.0, 100.0, 2)
        grid = GridSpec(box, 12)
        # step at level 12 is 200/2048; index 1058 lands on 3.3203125
        x = position_of(GridPoint((1058, 1058), 12), grid)
        assert x == (3.3203125, 3.3203125)

    def test_refine_doubles_indices(self):
        p = GridPoint((3, 5), 4)
        q = refine(p)
        assert q == GridPoint((6, 10), 5)
        box = BoxDomain.cube(0.0, 1.0, 2)
        assert position_of(p, GridSpec(box, 4)) == position_of(q, GridSpec(box, 5))

    def test_out_of_range_index_rejected(self):
        box = BoxDomain.cube(0.0, 1.0, 2)
        grid = GridSpec(box, 2)
        with pytest.raises(SubgridError, match=r"^relative coordinates \(0, 3\) outside grid$"):
            position_of(GridPoint((0, 3), 2), grid)
        with pytest.raises(SubgridError, match=r"^relative coordinates \(-1, 0\) outside grid$"):
            position_of(GridPoint((-1, 0), 2), grid)

    def test_point_of_another_grid_rejected(self):
        grid = GridSpec(BoxDomain.cube(0.0, 1.0, 2), 2)
        with pytest.raises(SubgridError, match=r"^point level 3 != grid level 2$"):
            position_of(GridPoint((0, 0), 3), grid)
        with pytest.raises(SubgridError, match=r"^point dimension mismatch$"):
            position_of(GridPoint((0,), 2), grid)


class TestCell:
    def test_vertices_count_and_anchor_first(self):
        cell = Cell(GridPoint((0, 0, 0), 2))
        verts = cell_vertices(cell)
        assert len(verts) == 8
        assert verts[0] == cell.anchor
        assert len(set(verts)) == 8

    def test_lattice_points_are_next_level(self):
        cell = Cell(GridPoint((1, 1), 2))
        pts = lattice_points(cell)
        assert len(pts) == 9
        assert all(p.level == 3 for p in pts)
        ks = {p.k for p in pts}
        assert ks == {(i, j) for i in (2, 3, 4) for j in (2, 3, 4)}

    def test_vertex_overflow_rejected(self):
        cell = Cell(GridPoint((1,), 1))  # upper corner has no cell above it
        with pytest.raises(SubgridError, match=r"^cell \(1,\) has a vertex outside the grid$"):
            cell_vertices(cell)


class TestOrdering:
    def test_candidate_sort_by_value_then_position(self):
        a = Candidate((1.0, 0.0), 5.0)
        b = Candidate((0.0, 0.0), 5.0)
        c = Candidate((9.0, 9.0), 1.0)
        ordered = sorted([a, b, c], key=rank)
        assert ordered == [c, b, a]
        assert argmin_candidate([a, b]) is b
        # exact ties keep the earliest candidate
        assert argmin_candidate([b, Candidate((0.0, 0.0), 5.0)]) is b
