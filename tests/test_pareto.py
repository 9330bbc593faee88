"""Tests for dominance, Pareto filtering, reference fronts, and ADRS."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dsekit.pareto import (
    DesignPoint,
    ObjectiveVector,
    Staircase,
    adrs,
    dominates,
    pareto_filter,
)

from oracles import (
    assert_staircase,
    brute_force_pareto_indices,
    coverage_distance,
    naive_adrs,
    reference_admit_to_front,
    reference_adrs,
)


def pt(area, latency, knobs=(0,)):
    return DesignPoint(tuple(knobs), ObjectiveVector(area=area, latency=latency))


objective_values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)

# zero coordinates (signed too), subnormals, and values whose shortfall over
# the 1e-9 zero-reference denominator overflows to inf, beside ordinary ones
edge_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, 3.0, 1e300, 1.7976931348623157e308]),
    objective_values,
)

# lists of (area, latency, knob) on a 0..4 grid, so that equal objectives,
# ties in one objective and zero coordinates are common
GRID_INPUTS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)), max_size=60)


class TestObjectiveVector:
    def test_stores_its_two_values(self):
        """A plain pair: `load` checks stored values, and the surrogate clamps its own."""
        v = ObjectiveVector(area=1.0, latency=2.5)
        assert v.as_tuple() == (1.0, 2.5)


class TestDominates:
    def test_strictly_better_in_both(self):
        assert dominates(ObjectiveVector(1, 2), ObjectiveVector(2, 3))

    def test_equal_vectors_do_not_dominate(self):
        """Equality in both objectives is not dominance."""
        assert not dominates(ObjectiveVector(1, 2), ObjectiveVector(1, 2))

    def test_tie_in_one_objective_with_strict_other(self):
        assert dominates(ObjectiveVector(1, 2), ObjectiveVector(1, 3))
        assert dominates(ObjectiveVector(1, 2), ObjectiveVector(2, 2))

    def test_trade_off_is_incomparable(self):
        a, b = ObjectiveVector(1, 3), ObjectiveVector(3, 1)
        assert not dominates(a, b) and not dominates(b, a)

    @given(
        a1=objective_values, l1=objective_values,
        a2=objective_values, l2=objective_values,
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, a1, l1, a2, l2):
        """Two vectors never dominate each other simultaneously."""
        p, q = ObjectiveVector(a1, l1), ObjectiveVector(a2, l2)
        assert not (dominates(p, q) and dominates(q, p))


class TestStaircase:
    """`add` and `dominators` against a scan of the whole front."""

    @staticmethod
    def growing(raw):
        """A staircase fed the grid points; yields it after each `add`, with
        the point and what `add` returned."""
        staircase = Staircase()
        for area, latency, knob in raw:
            point = pt(float(area), float(latency), (knob,))
            yield staircase, point, staircase.add(point)

    @settings(max_examples=300, deadline=None)
    @given(raw=GRID_INPUTS)
    @example(raw=[(1, 1, 2), (1, 1, 2), (1, 1, 0), (1, 1, 1)])
    @example(raw=[(0, 4, 0), (2, 2, 0), (4, 0, 0), (1, 1, 0), (0, 0, 1)])
    @example(raw=[(2, 2, 0), (2, 1, 0), (1, 2, 0), (2, 0, 0), (0, 2, 0)])
    def test_add_matches_the_full_scan(self, raw):
        """`add` returns None exactly when the front is unchanged, and otherwise
        the points that left it, in front order."""
        front: list = []
        for staircase, point, displaced in self.growing(raw):
            after = reference_admit_to_front(front, point)
            if after == front:
                assert displaced is None
            else:
                assert list(displaced) == [p for p in front if p not in after]
            front = after
            assert staircase.points == tuple(front)
            assert staircase.areas == [p.objectives.area for p in front]
            assert staircase.latencies == [p.objectives.latency for p in front]
            assert_staircase(front)

    @settings(max_examples=200, deadline=None)
    @given(
        raw=GRID_INPUTS,
        probes=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=10),
    )
    @example(raw=[(1, 1, 0), (2, 0, 0), (0, 2, 0)], probes=[(2, 2), (4, 4), (1, 0)])
    def test_dominators_match_the_pairwise_count(self, raw, probes):
        """Probes on and off the grid, among them the point just offered."""
        for staircase, point, _ in self.growing(raw):
            for obj in [point.objectives] + [ObjectiveVector(a / 2, l / 2) for a, l in probes]:
                expected = sum(1 for p in staircase.points if dominates(p.objectives, obj))
                assert staircase.dominators(obj) == expected


class TestParetoFilter:
    def test_worked_example(self):
        """Mixed dominated/non-dominated set keeps exactly the trade-off curve."""
        points = [pt(1, 4, (0,)), pt(2, 2, (1,)), pt(4, 1, (2,)), pt(3, 3, (3,)), pt(2, 5, (4,))]
        front = pareto_filter(points)
        assert [p.objectives.as_tuple() for p in front] == [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]

    def test_idempotent_on_worked_example(self):
        points = [pt(1, 4), pt(2, 2), pt(4, 1), pt(3, 3), pt(2, 5)]
        once = pareto_filter(points)
        twice = pareto_filter(list(once))
        assert [p.objectives.as_tuple() for p in once] == [p.objectives.as_tuple() for p in twice]

    def test_duplicate_objectives_keep_lowest_knobs(self):
        """Identical objectives collapse to the lexicographically smallest knob vector."""
        points = [pt(1, 1, (2, 0)), pt(1, 1, (0, 5)), pt(1, 1, (0, 4))]
        front = pareto_filter(points)
        assert len(front) == 1
        assert front[0].knobs == (0, 4)

    def test_single_point(self):
        front = pareto_filter([pt(3, 3, (7,))])
        assert len(front) == 1 and front[0].knobs == (7,)

    def test_empty_input_gives_empty_front(self):
        assert len(pareto_filter([])) == 0

    def test_unevaluated_point_is_an_error(self):
        with pytest.raises(TypeError, match="objectives"):
            DesignPoint((0,))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, raw):
        """The staircase filter equals the O(n^2) pairwise-dominance oracle."""
        points = [pt(float(a), float(l), (k,)) for a, l, k in raw]
        front = pareto_filter(points)
        assert_staircase(front)
        objs = np.array([[a, l] for a, l, _ in raw], dtype=float).reshape(len(raw), 2)
        expect = brute_force_pareto_indices(objs, [p.knobs for p in points])
        assert [p.knobs for p in front] == [points[i].knobs for i in expect]
        assert [p.objectives.as_tuple() for p in front] == [
            (objs[i, 0], objs[i, 1]) for i in expect
        ]

    @settings(max_examples=200, deadline=None)
    @given(raw=GRID_INPUTS, data=st.data())
    def test_input_order_does_not_matter(self, raw, data):
        """A shuffled input gives the unshuffled input's front, representatives included."""
        points = [pt(float(a), float(l), (k,)) for a, l, k in raw]
        shuffled = data.draw(st.permutations(points))
        assert pareto_filter(shuffled) == pareto_filter(points)

    @given(
        st.lists(
            st.tuples(objective_values, objective_values),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_filter_is_idempotent_and_mutually_nondominated(self, raw):
        points = [pt(a, l, (i,)) for i, (a, l) in enumerate(raw)]
        front = pareto_filter(points)
        assert_staircase(front)
        again = pareto_filter(list(front))
        assert [p.knobs for p in front] == [p.knobs for p in again]
        for p in front:
            for q in front:
                if p is not q:
                    assert not dominates(p.objectives, q.objectives)


class TestCoverageDistance:
    def test_zero_when_weakly_dominating(self):
        assert coverage_distance(ObjectiveVector(2, 2), ObjectiveVector(2, 1)) == 0.0
        assert coverage_distance(ObjectiveVector(2, 2), ObjectiveVector(2, 2)) == 0.0

    def test_relative_shortfall(self):
        assert coverage_distance(ObjectiveVector(1, 4), ObjectiveVector(2, 4)) == pytest.approx(1.0)

    def test_zero_reference_guard(self):
        d = coverage_distance(ObjectiveVector(0, 1), ObjectiveVector(1, 1))
        assert d == pytest.approx(1.0 / 1e-9)


class TestAdrs:
    def test_identical_fronts_is_zero(self):
        front = pareto_filter([pt(1, 4), pt(2, 2), pt(4, 1)])
        assert adrs(front, front) == 0.0

    def test_worked_example(self):
        """Frozen value computed by hand: (1 + 1/3 + 1) / 3 = 7/9."""
        reference = pareto_filter([pt(1, 4), pt(3, 2), pt(4, 1)])
        approx = pareto_filter([pt(2, 4), pt(4, 2)])
        assert adrs(reference, approx) == pytest.approx(7.0 / 9.0, abs=1e-12)

    def test_superset_of_reference_is_zero(self):
        reference = pareto_filter([pt(1, 4), pt(2, 2)])
        approx = pareto_filter([pt(1, 4), pt(2, 2), pt(4, 1)])
        assert adrs(reference, approx) == 0.0

    def test_empty_inputs_are_errors(self):
        front = pareto_filter([pt(1, 1)])
        empty = pareto_filter([])
        with pytest.raises(ValueError, match="degenerate ADRS input"):
            adrs(empty, front)
        with pytest.raises(ValueError, match="degenerate ADRS input"):
            adrs(front, empty)

    def test_matches_naive_reimplementation(self):
        """Vectorized ADRS equals a plain-loop oracle on random fronts."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            ref_pts = [pt(a, l, (i,)) for i, (a, l) in enumerate(rng.uniform(0.1, 10, size=(12, 2)))]
            app_pts = [pt(a, l, (i,)) for i, (a, l) in enumerate(rng.uniform(0.1, 10, size=(9, 2)))]
            reference, approx = pareto_filter(ref_pts), pareto_filter(app_pts)
            expect = naive_adrs(
                [p.objectives.as_tuple() for p in reference],
                [p.objectives.as_tuple() for p in approx],
            )
            assert adrs(reference, approx) == pytest.approx(expect, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        ref_raw=st.lists(st.tuples(edge_values, edge_values), min_size=1, max_size=12),
        app_raw=st.lists(st.tuples(edge_values, edge_values), min_size=1, max_size=12),
        shared=st.integers(0, 12),
    )
    @example(ref_raw=[(0.0, 1.0)], app_raw=[(1e300, 1.0)], shared=0)  # inf
    @example(ref_raw=[(2.0, 1.0)], app_raw=[(2.0, 1.0)], shared=1)  # 1-point fronts, one point
    @example(ref_raw=[(0.0, 0.0), (0.0, 0.0)], app_raw=[(-0.0, -0.0)], shared=0)  # -0.0 shortfalls
    @example(ref_raw=[(1.0, 4.0), (3.0, 2.0), (4.0, 1.0)], app_raw=[(2.0, 4.0), (4.0, 2.0)], shared=0)
    def test_bit_equal_to_the_broadcasting_oracle(self, ref_raw, app_raw, shared):
        """The (R, A) in-place computation gives the very bits of the (R, A, 2) one.

        The approximate front shares the first `shared` reference points.
        """
        reference = pareto_filter(pt(a, l, (i,)) for i, (a, l) in enumerate(ref_raw))
        approx = pareto_filter(
            pt(a, l, (i,)) for i, (a, l) in enumerate(app_raw + ref_raw[:shared])
        )
        got, expected = adrs(reference, approx), reference_adrs(reference, approx)
        assert struct.pack("<d", got) == struct.pack("<d", expected)

    @given(
        st.lists(st.tuples(objective_values, objective_values), min_size=1, max_size=20),
        st.lists(st.tuples(objective_values, objective_values), min_size=1, max_size=20),
        st.lists(st.tuples(objective_values, objective_values), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_extending_approx_never_increases(self, ref_raw, app_raw, extra_raw):
        """Adding points to the approximate front never increases ADRS."""
        reference = pareto_filter([pt(a, l, (i,)) for i, (a, l) in enumerate(ref_raw)])
        base = [pt(a, l, (i,)) for i, (a, l) in enumerate(app_raw)]
        extended = base + [pt(a, l, (100 + i,)) for i, (a, l) in enumerate(extra_raw)]
        approx_base = pareto_filter(base)
        approx_ext = pareto_filter(extended)
        if len(reference) and len(approx_base) and len(approx_ext):
            assert adrs(reference, approx_ext) <= adrs(reference, approx_base) + 1e-12


class TestReferenceFront:
    """The union reference is the filter of the runs' fronts, not of all they evaluated."""

    def test_union_of_disjoint_halves_equals_full_filter(self):
        """The fronts of two disjoint halves of a 16-point set filter to the full front."""
        rng = np.random.default_rng(3)
        objs = rng.uniform(0.5, 5.0, size=(16, 2))
        points = [pt(a, l, (i,)) for i, (a, l) in enumerate(objs)]
        combined = pareto_filter(points)
        halves = [pareto_filter(points[:8]), pareto_filter(points[8:])]
        split = pareto_filter(p for front in halves for p in front.points)
        assert [p.knobs for p in split] == [p.knobs for p in combined]

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3)), max_size=12
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_filter_of_part_fronts_equals_filter_of_union(self, parts):
        """Holds with repeated objectives too: each keeps its smallest knob vector."""
        points = [[pt(a, l, (k,)) for a, l, k in part] for part in parts]
        fronts = [pareto_filter(part) for part in points]
        union = pareto_filter(p for part in points for p in part)
        assert_staircase(union)
        assert pareto_filter(p for front in fronts for p in front.points) == union
