import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid.core import Candidate, Cell, GridPoint
from subgrid.errors import GradientUnavailableError, SubgridError
from subgrid.labeling import (
    LabelRule,
    LabelVariant,
    delta_of,
    find_complete_cells,
    gradient_delta,
    is_complete,
    label_from_delta,
)

RULE = LabelRule()

# Published traces on the two 2-d test problems: probed point, its best
# neighbor at the halved step, and the expected label.
TRACE_ROWS = [
    # first box on [-2,2]^2, probe step 2
    ((-2.0, -2.0), (0.0, -2.0), 0),
    ((2.0, 2.0), (0.0, 0.0), 2),
    ((-2.0, 2.0), (0.0, 0.0), 2),
    ((2.0, -2.0), (0.0, -2.0), 1),
    # first box on [-100,100]^2, probe step 100
    ((-100.0, -100.0), (0.0, 0.0), 0),
    ((100.0, 100.0), (0.0, 0.0), 2),
    ((-100.0, 100.0), (0.0, 0.0), 2),
    ((100.0, -100.0), (0.0, 0.0), 1),
    # second level, probe step 50
    ((-100.0, 0.0), (-50.0, 0.0), 0),
    ((0.0, -100.0), (0.0, -50.0), 0),
    ((100.0, 0.0), (50.0, 0.0), 1),
    ((0.0, 100.0), (0.0, 50.0), 2),
    ((0.0, 0.0), (0.0, 0.0), 0),
    # third level, probe step 25
    ((0.0, 50.0), (0.0, 25.0), 2),
    ((50.0, 0.0), (25.0, 0.0), 1),
    ((50.0, 50.0), (25.0, 25.0), 2),
    ((50.0, 100.0), (25.0, 75.0), 2),
    ((100.0, 50.0), (75.0, 25.0), 2),
]


class TestLabelFromDelta:
    @pytest.mark.parametrize("p,best,expected", TRACE_ROWS)
    def test_trace_rows(self, p, best, expected):
        d = delta_of(Candidate(p, 0.0), Candidate(best, 0.0))
        assert label_from_delta(d, RULE) == expected

    def test_all_nonnegative_is_zero(self):
        assert label_from_delta((100.0, 100.0), RULE) == 0
        assert label_from_delta((0.0, 0.0, 0.0), RULE) == 0

    def test_empty_delta_rejected(self):
        with pytest.raises(SubgridError, match=r"^empty delta$"):
            label_from_delta((), RULE)

    def test_last_negative_index(self):
        assert label_from_delta((-2.0, 0.0), RULE) == 1
        assert label_from_delta((-100.0, -100.0), RULE) == 2
        assert label_from_delta((5.0, -1.0, 3.0, 2.0), RULE) == 2

    def test_epsilon_tolerance(self):
        rule = LabelRule(epsilon=0.5)
        assert label_from_delta((-0.4, 1.0), rule) == 0
        assert label_from_delta((-0.6, 1.0), rule) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(SubgridError, match=r"^non-finite delta component nan$"):
            label_from_delta((float("nan"), 0.0), RULE)
        with pytest.raises(SubgridError, match=r"^non-finite delta component inf$"):
            label_from_delta((float("inf"), 0.0), RULE)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_sign_patterns(self, n):
        # closed form vs a literal transcription of the case rule
        for signs in itertools.product((-1.0, 0.0, 1.0), repeat=n):
            got = label_from_delta(signs, RULE)
            negatives = [j + 1 for j, v in enumerate(signs) if v < 0.0]
            want = max(negatives) if negatives else 0
            assert got == want

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    def test_range_and_zero_condition(self, d):
        label = label_from_delta(tuple(d), RULE)
        assert 0 <= label <= len(d)
        assert (label == 0) == (min(d) >= 0.0)


class TestDeltaOf:
    def test_componentwise_difference(self):
        d = delta_of(Candidate((-2.0, -2.0), 9.0), Candidate((0.0, -2.0), 1.0))
        assert d == (2.0, 0.0)

    def test_self_is_zero(self):
        c = Candidate((3.0, 4.0), 1.0)
        assert delta_of(c, c) == (0.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(SubgridError, match=r"^delta_of: 1 vs 2$"):
            delta_of(Candidate((0.0,), 0.0), Candidate((0.0, 0.0), 0.0))


class TestGradientDelta:
    def test_passthrough(self):
        assert gradient_delta((1.0, 1.0), (2.0, 2.0)) == (2.0, 2.0)

    def test_zero_gradient_labels_zero(self):
        assert label_from_delta(gradient_delta((0.0,), (0.0,)), RULE) == 0

    def test_sign_pattern(self):
        assert label_from_delta(gradient_delta((-1.0, 1.0, 1.0), (-2.0, 2.0, 2.0)), RULE) == 1

    def test_lengths_must_match(self):
        with pytest.raises(SubgridError, match=r"^gradient_delta: 2 vs 1$"):
            gradient_delta((0.0, 0.0), (1.0,))

    def test_nonfinite_gradient(self):
        with pytest.raises(GradientUnavailableError, match=r"^gradient has non-finite components$"):
            gradient_delta((0.0,), (float("nan"),))


class TestCompleteness:
    def test_is_complete(self):
        assert is_complete([0, 2, 2, 1], 2)
        assert is_complete([0, 1, 2], 2)
        assert not is_complete([0, 0, 2, 2], 2)
        assert not is_complete([], 2)

    def test_single_complete_cell(self):
        labels = {
            GridPoint((0, 0), 1): 0,
            GridPoint((1, 1), 1): 2,
            GridPoint((0, 1), 1): 2,
            GridPoint((1, 0), 1): 1,
        }
        cells = find_complete_cells(labels)
        assert cells == [Cell(GridPoint((0, 0), 1))]

    def test_no_labels_no_cells(self):
        assert find_complete_cells({}) == []

    def test_all_zero_labels_no_cells(self):
        labels = {GridPoint((i, j), 2): 0 for i in range(3) for j in range(3)}
        assert find_complete_cells(labels) == []

    def test_matches_exhaustive_scan(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            side = 4
            labels = {GridPoint((i, j), 3): rng.randint(0, 2)
                      for i in range(side) for j in range(side)}
            got = find_complete_cells(labels)
            want = []
            for i in range(side - 1):
                for j in range(side - 1):
                    multiset = [labels[GridPoint((i + a, j + b), 3)]
                                for a in (0, 1) for b in (0, 1)]
                    if is_complete(multiset, 2):
                        want.append(Cell(GridPoint((i, j), 3)))
            assert got == sorted(want, key=lambda c: c.anchor.k)


class TestMonotoneInvariance:
    def test_labels_depend_only_on_argmin(self):
        # relabeling through any strictly increasing transform of f keeps
        # the best neighbor, hence the delta, hence the label
        import random

        from subgrid.core import BoxDomain
        from subgrid.slm import NeighborScheme, best_neighbor, slm_neighbors

        rng = random.Random(3)
        box = BoxDomain.cube(-2.0, 2.0, 2)
        for _ in range(200):
            values = {}

            def f(x):
                if x not in values:
                    values[x] = rng.uniform(-5.0, 5.0)
                return values[x]

            def g(x):
                return math.atan(f(x)) * 3.0 + 7.0  # strictly increasing in f

            p = (rng.choice([-2.0, 0.0, 2.0]), rng.choice([-2.0, 0.0, 2.0]))
            neigh = slm_neighbors(p, (1.0, 1.0), NeighborScheme.SIGN_UNIFORM, box)
            bf = best_neighbor(f, Candidate(p, f(p)), neigh)
            bg = best_neighbor(g, Candidate(p, g(p)), neigh)
            df = delta_of(Candidate(p, 0.0), bf)
            dg = delta_of(Candidate(p, 0.0), bg)
            assert label_from_delta(df, RULE) == label_from_delta(dg, RULE)

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=5))
    @settings(max_examples=1000)
    def test_scaling_delta_preserves_label(self, d):
        # positive scaling never flips any sign (subnormals would underflow
        # to -0.0, so snap tiny magnitudes to zero first)
        d = tuple(0.0 if abs(v) < 1e-300 else v for v in d)
        scaled = tuple(0.25 * v for v in d)
        assert label_from_delta(d, RULE) == label_from_delta(scaled, RULE)
