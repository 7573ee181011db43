"""Vertex enumeration of the feasible mass polytope."""

import gc
import math
import random

import pytest

from ivbel import (
    FocalSet,
    Frame,
    IntervalBeliefStructure,
    IvbelError,
    contains,
    enumerate_vertices,
    polytope,
)
from ivbel.core import MASS_SUM_TOL
from ivbel.entropy import entropy_from_profile, separable_profile
from ivbel.polytope import MIN_TIE_TOL

from helpers import (
    FRAME3,
    brute_force_ties,
    brute_force_vertices,
    equal_boxes,
    near_equal_boxes,
    random_aligned_ibs,
    random_box_ibs,
    random_normalized_ibs,
    random_valid_ibs,
)

FRAME2 = Frame(("A", "B"))
FRAME4 = Frame(("X", "Y", "Z", "W"))
FRAME5 = Frame(("A", "B", "C", "D", "E"))


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


def _outcome(scan, ibs):
    try:
        return scan(ibs)
    except IvbelError as exc:
        return str(exc)


def _over_cap():
    """31 focal sets: the 16 singletons and 15 adjacent pairs."""
    labels = tuple(f"E{i}" for i in range(16))
    sets = {}
    for i in range(16):
        sets[(labels[i],)] = (0.0, 1.0)
    for i in range(15):
        sets[(labels[i], labels[i + 1])] = (0.0, 1.0)
    assert len(sets) == 31
    return IntervalBeliefStructure.from_mapping(Frame(labels), sets)


def scored_vectors(monkeypatch, ibs, profile):
    """The vectors the search for a minimum scores exactly, in order."""
    scored = []

    def recording(vec, profile):
        scored.append(vec)
        return entropy_from_profile(vec, profile)

    with monkeypatch.context() as patch:
        patch.setattr(polytope, "entropy_from_profile", recording)
        enumerate_vertices(ibs, profile)
    return scored


class TestAgainstBruteForce:
    """The pruned search returns exactly the floats, order and errors of the
    scan over all n * 2**(n-1) bound patterns."""

    @pytest.mark.parametrize(
        "draw", [random_valid_ibs, random_normalized_ibs, random_aligned_ibs]
    )
    def test_random_small_bodies(self, draw):
        for seed in range(300):
            ibs = draw(random.Random(seed))
            assert enumerate_vertices(ibs) == brute_force_vertices(ibs)

    @pytest.mark.parametrize("width", [0.4, 0.7, 1.0])
    def test_wide_frame_bodies(self, width):
        rng = random.Random(f"box:{width}")
        for n in (8, 9, 10, 11, 12) * 2:
            ibs = random_box_ibs(rng, n, width)
            vertices = enumerate_vertices(ibs)
            assert len(vertices) > n
            assert vertices == brute_force_vertices(ibs)

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_equal_boxes(self, n):
        # Every vertex puts n/2 coordinates at 2/n and the rest at 0, so each
        # is reached from all n free coordinates and deduped.
        vertices = enumerate_vertices(equal_boxes(n))
        assert len(vertices) == math.comb(n, n // 2)
        assert vertices == brute_force_vertices(equal_boxes(n))

    def test_first_pattern_represents_a_vertex(self):
        # X and Y are 4e-14 wide, so all four patterns of Z's residual give
        # one vertex after the 12-decimal dedupe; lower bounds come first.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (0.2, 0.2 + 4e-14), ("Y",): (0.3, 0.3 + 4e-14), ("Z",): (0.0, 1.0)}
        )
        assert enumerate_vertices(ibs) == ((0.2, 0.3, 1.0 - math.fsum([0.2, 0.3])),)
        assert enumerate_vertices(ibs) == brute_force_vertices(ibs)
        # X and Y cost least under this objective, so the bounded search
        # visits their upper bounds first; it keeps the same copy.
        profile = ((-1.0, 0.0), (-1.0, 0.0), (0.0, 0.0))
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert enumerate_vertices(ibs, profile) == enumerate_vertices(ibs)

    def test_errors(self):
        for ibs in (ibs2(0.0, 0.1, 0.0, 0.2), ibs2(0.6, 0.7, 0.5, 0.6), _over_cap()):
            message = _outcome(brute_force_vertices, ibs)
            assert isinstance(message, str)
            assert _outcome(enumerate_vertices, ibs) == message


class TestPruningEdge:
    """Pruning must keep a pattern whose residual sits exactly on the edge of
    the acceptance window, ``lo - MASS_SUM_TOL`` or ``hi + MASS_SUM_TOL``.
    X and Y are point masses and Z absorbs the residual.  The values were
    chosen so that a search pruned at the bare window, or at the acceptance
    window without slack, returns no vertex at all."""

    @staticmethod
    def body(a, b, z_lo, z_hi):
        return IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (a, a), ("Y",): (b, b), ("Z",): (z_lo, z_hi)}
        )

    @pytest.mark.parametrize(
        "a, b, edge, bound",
        [(0.1138, 0.1105, "lo", 0.775700001), (0.11, 0.101, "hi", 0.788999999)],
        ids=["lo-edge", "hi-edge"],
    )
    def test_edge_residual_is_kept(self, a, b, edge, bound):
        residual = 1.0 - math.fsum([a, b])
        if edge == "lo":
            beyond = math.nextafter(bound, 1.0)
            assert residual == bound - MASS_SUM_TOL < beyond - MASS_SUM_TOL
            ibs, outside = self.body(a, b, bound, 1.0), self.body(a, b, beyond, 1.0)
        else:
            beyond = math.nextafter(bound, 0.0)
            assert residual == bound + MASS_SUM_TOL > beyond + MASS_SUM_TOL
            ibs, outside = self.body(a, b, 0.0, bound), self.body(a, b, 0.0, beyond)
        assert enumerate_vertices(ibs) == ((a, b, bound),)
        assert enumerate_vertices(ibs) == brute_force_vertices(ibs)
        # One float further out, the residual leaves the window.
        with pytest.raises(IvbelError, match="no feasible mass assignment"):
            enumerate_vertices(outside)
        assert _outcome(brute_force_vertices, outside) == _outcome(enumerate_vertices, outside)


class TestSnapEdge:
    """A residual accepted at the float edge of the window, where it is
    beyond the bound by a hair more than MASS_SUM_TOL, still snaps to the
    bound: the body has one feasible point, not two 1e-9 apart."""

    @pytest.mark.parametrize(
        "x, y, z, w_lo, w_hi, edge",
        [
            (0.2128982, 0.1, 0.2733292606394, 0.11377253836059997, 0.41377253836059996, "hi"),
            (0.2128982, 0.2471808, 0.0734648966936, 0.4664561043064, 0.7664561043064, "lo"),
        ],
        ids=["hi-edge", "lo-edge"],
    )
    def test_edge_residual_snaps(self, x, y, z, w_lo, w_hi, edge):
        residual = 1.0 - math.fsum([x, y, z])
        bound = w_hi if edge == "hi" else w_lo
        assert abs(residual - bound) > MASS_SUM_TOL
        assert w_lo - MASS_SUM_TOL <= residual <= w_hi + MASS_SUM_TOL
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME4, {("X",): (x, x), ("Y",): (y, y), ("Z",): (z, z), ("W",): (w_lo, w_hi)}
        )
        assert enumerate_vertices(ibs) == ((x, y, z, bound),)
        assert brute_force_vertices(ibs) == ((x, y, z, bound),)
        profile = separable_profile("pal", ibs.focal_sets, ibs.frame)
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert enumerate_vertices(ibs, profile) == ((x, y, z, bound),)


class TestObjectiveCut:
    """Bodies built so that a cut one step too eager loses a tied vertex.
    Linear terms (beta = 0) make every secant exact, so a branch's bound
    can equal the value of its best vertex."""

    def test_vertices_within_the_tie_tolerance_are_kept(self):
        # Z's weight puts the two vertices with Z = 0.5 at 5e-11 above the
        # minimum 0: tied, though their branches' bounds exceed the minimum.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (0.0, 1.0), ("Y",): (0.0, 1.0), ("Z",): (0.0, 0.5)}
        )
        profile = ((0.0, 0.0), (0.0, 0.0), (1e-10, 0.0))
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert len(enumerate_vertices(ibs, profile)) == 4

    def test_vertex_on_the_tie_edge_survives_rounding(self):
        # The vertex (0.25, 0.25, 0.25, 0.25) is worth exactly MIN_TIE_TOL
        # (math.fsum), but its bound, summed plainly, rounds one float above.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME4,
            {("X",): (0.0, 1.0), ("Y",): (0.0, 0.25), ("Z",): (0.0, 0.25), ("W",): (0.0, 0.25)},
        )
        profile = (
            (0.0, 0.0),
            (1.2983213559117614e-10, 0.0),
            (1.3934295914085833e-10, 0.0),
            (1.3082490526796555e-10, 0.0),
        )
        terms = [0.25 * k for k, _ in profile[1:]]
        assert math.fsum(terms) == MIN_TIE_TOL < (terms[0] + terms[1]) + terms[2]
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert enumerate_vertices(ibs, profile)[0] == (0.25, 0.25, 0.25, 0.25)

    def test_snapped_vertex_is_kept(self):
        # A is a point mass 5e-10 off the value that puts every vertex's
        # residual on a bound, so each vertex sums to 1 only within
        # MASS_SUM_TOL.  C and D tie under equal steep weights; a bound taken
        # on the plane sum = 1 rather than over the pruning window lies above
        # the tied vertex with C = 0.241709 and cuts it.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME5,
            {
                ("A",): (0.4199770005, 0.4199770005),
                ("B",): (0.065142, 0.165142),
                ("C",): (0.141709, 0.241709),
                ("D",): (0.171135, 0.271135),
                ("E",): (0.002037, 0.102037),
            },
        )
        profile = ((100.0, 0.0), (100.0, 0.0), (-50.0, 0.0), (-50.0, 0.0), (-100.0, 0.0))
        tied = brute_force_ties(ibs, profile)
        assert len(tied) == 2
        assert enumerate_vertices(ibs, profile) == tied

    # Each node's children are visited toward the vertex that minimizes the
    # secant sum (the LP vertex) first, so that vertex is the first leaf and
    # the first incumbent.  Whatever it is, the tie set must equal the one
    # filtered from the full list.

    @staticmethod
    def body(frame, bounds):
        return IntervalBeliefStructure.from_mapping(
            frame, {(label,): b for label, b in zip(frame.labels, bounds)}
        )

    def test_lp_vertex_is_the_unique_minimizer(self, monkeypatch):
        # Linear terms: the LP vertex fills Y, the cheapest, to its bound.
        ibs = self.body(FRAME3, [(0.0, 1.0), (0.0, 1.0), (0.0, 0.5)])
        profile = ((0.3, 0.0), (0.1, 0.0), (0.2, 0.0))
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert enumerate_vertices(ibs, profile) == ((0.0, 1.0, 0.0),)
        assert scored_vectors(monkeypatch, ibs, profile)[0] == (0.0, 1.0, 0.0)

    def test_ties_above_the_lp_vertex_are_kept(self):
        # The LP vertex (1, 0, 0) is worth 0; the vertices with Y or Z at 1,
        # reached later, are worth 5e-11 and tie.  Their branches' bounds
        # exceed the incumbent, so only the cut's margin keeps them.
        ibs = self.body(FRAME3, [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)])
        profile = ((0.0, 0.0), (5e-11, 0.0), (5e-11, 0.0))
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert len(enumerate_vertices(ibs, profile)) == 3

    def test_lp_vertex_ties_above_a_later_minimum(self, monkeypatch):
        # X is linear and Y concave, so the LP vertex (0.75, 0.125, 0.125)
        # has Y strictly inside its bounds, where the secant lies below the
        # term.  Its value is 5e-11 above the minimum at (0.125, 0.75,
        # 0.125), which the search reaches later; both tie.
        ibs = self.body(FRAME3, [(0.0, 0.75), (0.0, 0.75), (0.125, 0.125)])
        profile = ((-0.101955000785, 0.0), (0.0, 1.0), (0.0, 0.0))
        lp, later = (0.75, 0.125, 0.125), (0.125, 0.75, 0.125)
        gap = entropy_from_profile(lp, profile) - entropy_from_profile(later, profile)
        assert 4e-11 < gap < 6e-11
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert enumerate_vertices(ibs, profile) == (later, lp)
        assert scored_vectors(monkeypatch, ibs, profile)[0] == lp

    @pytest.mark.parametrize(
        "bounds, profile, ties",
        [
            # Tied slopes: X and Y share the least slope, and the LP fills X
            # to its bound first, so X leads at hi and Y free.
            ([(0.0, 0.6), (0.0, 0.6), (0.0, 1.0)], ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)), 2),
            # No coordinate partly filled: X and Y fill to their upper
            # bounds, so the LP vertex is reached with Z, the last, free.
            ([(0.0, 0.5), (0.0, 0.5), (0.0, 1.0)], ((-1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)), 1),
            # Lower bounds sum 5e-10 above 1: nothing to fill.
            ([(0.5 + 5e-10, 0.6), (0.2, 0.3), (0.3, 0.5)], ((0.0, 1.0),) * 3, 1),
        ],
        ids=["tied-slopes", "no-partial-fill", "overfull-lower-bounds"],
    )
    def test_degenerate_lp_fills(self, bounds, profile, ties):
        ibs = self.body(FRAME3, bounds)
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)
        assert len(enumerate_vertices(ibs, profile)) == ties

    def test_tied_slopes_lead_to_one_lp_vertex(self, monkeypatch):
        # The fill in slope order puts X at its bound and leaves Y free, so
        # the first leaf is the LP vertex (0.6, 0.4, 0), which ties with
        # (0.4, 0.6, 0); every vertex with mass on Z is cut unscored.
        ibs = self.body(FRAME3, [(0.0, 0.6), (0.0, 0.6), (0.0, 1.0)])
        profile = ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))
        assert scored_vectors(monkeypatch, ibs, profile) == [(0.6, 0.4, 0.0), (0.4, 0.6, 0.0)]


class TestSlopeOrder:
    """With an objective the tree branches in secant-slope order and skips a
    leaf whose plainly summed value is above the cut; neither may change the
    tie set or the copy kept.  The bodies are those where the order or the
    cut is delicate: near-equal values, tied slopes, zero widths, and
    objectives large enough that float copies of one vertex differ in value
    by more than MIN_TIE_TOL."""

    @staticmethod
    def draw_body(rng, kind, n):
        if kind == "near-equal":
            return near_equal_boxes(rng, n, rng.choice((1e-3, 1e-2)))
        if kind == "generator":
            return random_box_ibs(rng, n, rng.choice((0.4, 0.7)))
        labels = tuple(f"E{i}" for i in range(n))
        if kind == "zero-width":
            # Point masses beside wide boxes; the last box takes any slack.
            lows = [rng.uniform(0.0, 1.0 / n) for _ in labels]
            his = [l if rng.random() < 0.4 else l + rng.uniform(0.0, 2.0 / n) for l in lows]
            his[-1] = max(his[-1], 1.0 - math.fsum(lows[:-1]))
        else:
            # Tied slopes: every box is one of three, so equal profile terms
            # give equal slopes.
            lows, his = zip(*(rng.choice([(0.0, 0.25), (0.05, 0.3), (0.1, 0.1)]) for _ in labels))
            lows, his = (0.0, *lows[1:]), (1.0, *his[1:])
        return IntervalBeliefStructure.from_mapping(
            Frame(labels), {(label,): b for label, b in zip(labels, zip(lows, his))}
        )

    @staticmethod
    def profiles(rng, ibs):
        n = len(ibs.entries)
        for m in ("dubois-prade", "nguyen", "deng", "pal", "qin"):
            yield separable_profile(m, ibs.focal_sets, ibs.frame)
        for beta in (0.5, 3.0):
            yield tuple((rng.uniform(0.0, 2.0), beta) for _ in range(n))
        yield tuple((rng.uniform(-3.0, 3.0), rng.choice((0.0, 1.0))) for _ in range(n))
        scale = 10 ** rng.uniform(3.0, 12.0)
        yield tuple((scale * rng.uniform(-1.0, 1.0), rng.choice((0.0, 1.0))) for _ in range(n))

    @pytest.mark.parametrize("kind", ["near-equal", "generator", "zero-width", "tied-slopes"])
    def test_ties_equal_the_filtered_full_list(self, kind):
        rng = random.Random(f"slope-order:{kind}")
        for _ in range(25):
            ibs = self.draw_body(rng, kind, rng.randint(4, 9))
            for profile in self.profiles(rng, ibs):
                assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)

    @pytest.mark.parametrize("scale, beta", [(1e9, 0.0), (1e12, 1.0)])
    def test_cut_margin_scales_with_the_objective(self, scale, beta):
        # A and D are 5.6e-17 wide, so their bound patterns give copies of
        # one vertex that differ in value by 6e-8 at scale 1e9: more than an
        # absolute margin, so the preferred copy would be cut.
        frame = Frame(("A", "B", "C", "D", "E"))
        ibs = IntervalBeliefStructure(
            frame,
            tuple(
                (FocalSet(bits), lo, hi)
                for bits, lo, hi in [
                    (11, 0.19999999999999996, 0.2),
                    (16, 0.15000000000000002, 0.15000000000000002),
                    (18, 0.25, 0.25),
                    (25, 0.19999999999999996, 0.2),
                    (26, 0.19999999999999996, 0.2),
                    (31, 0.0, 0.0),
                ]
            ),
        )
        profile = tuple((scale * k, beta) for k in (-1.0, -1.0, 2.0, 0.5, 0.5, -1.0))
        assert enumerate_vertices(ibs, profile) == brute_force_ties(ibs, profile)

    def test_leaves_above_the_cut_are_not_scored(self, monkeypatch):
        # Near-equal boxes: the full list holds 252 vertices, of which 6 tie;
        # a search that scores every leaf it reaches makes 1 260 exact scores.
        ibs = near_equal_boxes(random.Random(3), 10, 1e-2)
        profile = separable_profile("nguyen", ibs.focal_sets, ibs.frame)
        assert len(enumerate_vertices(ibs, profile)) == 6
        assert len(scored_vectors(monkeypatch, ibs, profile)) <= 20


class TestLimitsAndContains:
    def test_dimension_cap(self):
        with pytest.raises(IvbelError, match="vertex enumeration refused: 31"):
            enumerate_vertices(_over_cap())

    @pytest.mark.parametrize(
        "profile, message",
        [
            (((0.0, 1.0),) * 2, "profile has 2 entries, structure has 3"),
            (((0.0, 1.0),) * 4, "profile has 4 entries, structure has 3"),
            (((0.0, 1.0), (math.nan, 1.0), (0.0, 1.0)), r"entry for \{Y\} .* got k=nan, beta=1.0"),
            (((0.0, 1.0), (0.0, 1.0), (-math.inf, 1.0)), r"entry for \{Z\} .* got k=-inf"),
            (((0.0, -1.0), (0.0, -1.0), (0.0, -1.0)), r"entry for \{X\} .* got k=0.0, beta=-1.0"),
            (((0.0, 1.0), (0.0, math.nan), (0.0, 1.0)), r"entry for \{Y\} .* beta=nan"),
            (((0.0, 1.0), (0.0, 1.0), (0.0, math.inf)), r"entry for \{Z\} .* beta=inf"),
        ],
        ids=["short", "long", "nan-k", "infinite-k", "convex", "nan-beta", "infinite-beta"],
    )
    def test_malformed_profile(self, profile, message):
        # A short profile used to raise IndexError, a long one was cut to
        # length, a NaN weight emptied the tie set and a negative beta (a
        # convex term) voided the secant bound.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (0.1, 0.5), ("Y",): (0.2, 0.6), ("Z",): (0.1, 0.4)}
        )
        with pytest.raises(IvbelError, match=message):
            enumerate_vertices(ibs, profile)

    def test_contains(self):
        ibs = ibs2(0.2, 0.6, 0.3, 0.9)
        assert contains(ibs, (0.4, 0.6))
        assert not contains(ibs, (0.7, 0.3))  # above hi_A
        assert not contains(ibs, (0.3, 0.3))  # does not sum to one
        with pytest.raises(IvbelError, match="mass vector has 3 entries"):
            contains(ibs, (0.2, 0.3, 0.5))


class TestVertexProperties:
    @pytest.mark.parametrize("seed", range(60))
    def test_vertices_are_feasible(self, seed):
        ibs = random_valid_ibs(random.Random(seed))
        for vec in enumerate_vertices(ibs):
            assert contains(ibs, vec)

    @pytest.mark.parametrize("seed", range(60))
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

    @pytest.mark.parametrize("seed", range(60))
    def test_vertex_sums_are_exactly_one(self, seed):
        ibs = random_valid_ibs(random.Random(seed))
        for vec in enumerate_vertices(ibs):
            assert math.fsum(vec) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
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
        assert contains(ibs, point)


def test_enumeration_leaves_no_reference_cycles():
    # A search that kept its vertex dict or its best value in a cycle (a
    # recursive closure, say) would hold every call's vertices until the
    # cyclic collector ran.  Checked with and without an objective.
    ibs = random_box_ibs(random.Random("cycles"), 10, 0.7)
    for profile in (None, separable_profile("pal", ibs.focal_sets, ibs.frame)):
        gc.collect()
        gc.disable()
        try:
            enumerate_vertices(ibs, profile)
            assert gc.collect() == 0
        finally:
            gc.enable()
