"""Vertex enumeration of the feasible mass polytope."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbel import Frame, IntervalBeliefStructure, IvbelError, contains, enumerate_vertices

from helpers import FRAME3, random_valid_ibs

FRAME2 = Frame(("A", "B"))


def ibs2(a_lo, a_hi, b_lo, b_hi):
    return IntervalBeliefStructure.from_mapping(
        FRAME2, {("A",): (a_lo, a_hi), ("B",): (b_lo, b_hi)}
    )


class TestTwoSets:
    """With two focal sets the polytope is a segment; vertices are its ends."""

    def test_segment_endpoints(self):
        vertices = enumerate_vertices(ibs2(0.2, 0.6, 0.3, 0.9))
        # m_A + m_B = 1 cut with the box: m_A in [0.2, 0.6] and 1-m_A in
        # [0.3, 0.9] gives m_A in [0.2, 0.6] intersect [0.1, 0.7].
        assert vertices == ((0.2, 0.8), (0.6, 0.4))

    def test_single_feasible_point(self):
        vertices = enumerate_vertices(ibs2(0.4, 0.4, 0.6, 0.6))
        assert vertices == ((0.4, 0.6),)

    def test_residual_within_tolerance_snaps_to_the_bound(self):
        # B's lower bound sits 5e-10 above A's complement: the polytope is a
        # segment with two vertices, not three that differ at 5e-10.
        vertices = enumerate_vertices(ibs2(0.3, 0.5, 0.5 + 5e-10, 0.7))
        assert vertices == ((0.3, 0.7), (0.5, 0.5 + 5e-10))

    def test_infeasible_structure(self):
        with pytest.raises(IvbelError, match="no feasible mass assignment"):
            enumerate_vertices(ibs2(0.0, 0.1, 0.0, 0.2))


class TestThreeSets:
    def test_known_triangle(self):
        # Wide box [0,1]^3 cut by the simplex plane: the standard simplex.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (0.0, 1.0), ("Y",): (0.0, 1.0), ("Z",): (0.0, 1.0)}
        )
        vertices = enumerate_vertices(ibs)
        assert vertices == (
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
        )

    def test_clipped_corner(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (0.0, 0.5), ("Y",): (0.0, 1.0), ("Z",): (0.0, 1.0)}
        )
        vertices = enumerate_vertices(ibs)
        assert vertices == (
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (0.5, 0.0, 0.5),
            (0.5, 0.5, 0.0),
        )

    def test_duplicates_removed(self):
        # Degenerate structure: only one feasible point, reachable through
        # many candidate patterns.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (0.2, 0.2), ("Y",): (0.3, 0.3), ("Z",): (0.5, 0.5)}
        )
        assert enumerate_vertices(ibs) == ((0.2, 0.3, 0.5),)


class TestLimitsAndContains:
    def test_dimension_cap(self):
        labels = tuple(f"E{i}" for i in range(16))
        frame = Frame(labels)
        sets = {}
        for i in range(16):
            sets[(labels[i],)] = (0.0, 1.0)
        for i in range(15):
            sets[(labels[i], labels[i + 1])] = (0.0, 1.0)
        assert len(sets) == 31
        ibs = IntervalBeliefStructure.from_mapping(frame, sets)
        with pytest.raises(IvbelError, match="vertex enumeration refused: 31"):
            enumerate_vertices(ibs)

    def test_contains(self):
        ibs = ibs2(0.2, 0.6, 0.3, 0.9)
        assert contains(ibs, (0.4, 0.6))
        assert not contains(ibs, (0.7, 0.3))  # above hi_A
        assert not contains(ibs, (0.3, 0.3))  # does not sum to one
        with pytest.raises(IvbelError, match="mass vector has 3 entries"):
            contains(ibs, (0.2, 0.3, 0.5))


class TestVertexProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_vertices_are_feasible(self, seed):
        ibs = random_valid_ibs(random.Random(seed))
        for vec in enumerate_vertices(ibs):
            assert contains(ibs, vec, tol=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_at_most_one_free_coordinate(self, seed):
        ibs = random_valid_ibs(random.Random(seed))
        lo, hi = ibs.lower_bounds, ibs.upper_bounds
        for vec in enumerate_vertices(ibs):
            free = sum(
                1
                for value, l, h in zip(vec, lo, hi)
                if min(abs(value - l), abs(value - h)) > 1e-9
            )
            assert free <= 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_vertex_sums_are_exactly_one(self, seed):
        ibs = random_valid_ibs(random.Random(seed))
        for vec in enumerate_vertices(ibs):
            assert math.fsum(vec) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_convex_combinations_feasible(self, seed):
        rng = random.Random(seed)
        ibs = random_valid_ibs(rng)
        vertices = enumerate_vertices(ibs)
        weights = [rng.expovariate(1.0) + 1e-9 for _ in vertices]
        total = sum(weights)
        point = tuple(
            math.fsum(w / total * v[i] for w, v in zip(weights, vertices))
            for i in range(len(ibs.entries))
        )
        assert contains(ibs, point, tol=1e-7)
