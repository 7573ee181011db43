"""Exact entropy-bound optimization: optimality certificates and oracles."""

import math
import random
from fractions import Fraction

import pytest

from ivbel import (
    SEPARABLE_MEASURE_IDS,
    Bpa,
    EntropyMeasure,
    FocalSet,
    Frame,
    IntervalBeliefStructure,
    IvbelError,
    entropy,
    entropy_bounds,
    is_normalized,
    max_entropy_bpa,
    normalize,
)
from ivbel.entropy import entropy_from_profile, separable_profile
from ivbel.optimize import water_fill
from ivbel import polytope
from ivbel.polytope import enumerate_vertices
from ivbel.reproduce import load_bundled

from helpers import (
    FRAME3,
    FRAME_ABC,
    assert_oracle_bounds,
    brute_force_ties,
    equal_boxes,
    max_certificate,
    near_conflict_body,
    random_aligned_ibs,
    random_box_ibs,
    random_normalized_ibs,
    random_point_in,
    random_valid_ibs,
    vertex_min,
    water_fill_oracle,
)

CONCAVE_IDS = tuple(m for m in SEPARABLE_MEASURE_IDS if m != "dubois-prade")


# Custom separable measures with beta other than 0 and 1: k_A = |A|.
CUSTOM_BETA = tuple(
    EntropyMeasure(f"card-beta-{beta}", beta=beta, weight=lambda a, f: float(a.cardinality))
    for beta in (0.5, 2.0)
)


def normalized(mapping):
    return normalize(IntervalBeliefStructure.from_mapping(FRAME3, mapping))


class TestWaterFill:
    def test_unconstrained_uniform(self):
        masses, c = water_fill((0.0,) * 3, (1.0,) * 3, (1.0,) * 3)
        assert masses == pytest.approx((1 / 3,) * 3, abs=1e-9)
        assert c == pytest.approx(1 / 3, abs=1e-9)

    def test_weighted_split(self):
        # w = (1, 3): the free solution is (c, 3c) with sum 1, so c = 0.25.
        masses, c = water_fill((0.0, 0.0), (1.0, 1.0), (1.0, 3.0))
        assert masses == pytest.approx((0.25, 0.75), abs=1e-9)

    def test_clamped_coordinate(self):
        # Cap the heavy coordinate; the rest goes to the other one.
        masses, _ = water_fill((0.0, 0.0), (1.0, 0.5), (1.0, 3.0))
        assert masses == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_exact_on_bundled_example5(self):
        # Shannon weights are all 1, so the free masses share one exact level.
        exact = {
            "m1": (Fraction(7, 30), Fraction(3, 10), Fraction(7, 30), Fraction(7, 30)),
            "m2": (Fraction(3, 10), Fraction(1, 5), Fraction(1, 4), Fraction(1, 4)),
        }
        for name, body in load_bundled("example5").bodies:
            masses = max_entropy_bpa(normalize(body), "nguyen")
            for (_, m), want in zip(masses.entries, exact[name]):
                assert abs(Fraction(m) - want) <= 1e-15

    def test_infeasible_rejected(self):
        with pytest.raises(IvbelError, match="water filling requires"):
            water_fill((0.6, 0.6), (0.7, 0.7), (1.0, 1.0))

    @pytest.mark.parametrize(
        "lower, upper, weights",
        [
            pytest.param((0.0,), (1.0,), (1.0,), id="one-set"),
            pytest.param((0.0,) * 3, (1.0,) * 3, (1.0, 2.0, 4.0), id="all-free"),
            pytest.param((0.6, 0.0), (0.7, 0.4), (1.0, 1.0), id="all-clamped"),
            pytest.param(
                (0.1, 0.1, 0.1, 0.0), (0.4, 0.4, 0.4, 0.4), (1.0,) * 4, id="repeated-breakpoints"
            ),
            pytest.param((0.2, 0.3, 0.0), (0.2, 0.3, 1.0), (1.0, 2.0, 1.0), id="zero-width"),
            pytest.param((0.5, 0.5), (0.8, 0.9), (1.0, 2.0), id="crossing-at-first"),
            pytest.param((0.0, 0.1), (0.3, 0.7), (1.0, 3.0), id="crossing-at-last"),
            # The breakpoint sweep's running sum reaches one at a point
            # where math.fsum of the clamped masses does not (fuzzed).
            pytest.param((0.2,), (1.0,), (3.0000000000000004,), id="sweep-overshoots-one-set"),
            pytest.param(
                (0.2105263157894737, 0.0, 0.0),
                (0.4210526315789474, 0.3157894736842105, 0.2631578947368421),
                (1.0, 0.3333333333333333, 1.0),
                id="sweep-overshoots-three-sets",
            ),
        ],
    )
    def test_bit_identical_to_bisection(self, lower, upper, weights):
        got = water_fill(lower, upper, weights)
        assert got == water_fill_oracle(lower, upper, weights)
        assert repr(got) == repr(water_fill_oracle(lower, upper, weights))

    @pytest.mark.parametrize("seed", range(60))
    def test_bit_identical_to_bisection_on_wide_bodies(self, seed):
        rng = random.Random(seed)
        ibs = random_box_ibs(rng, rng.randint(1, 31), rng.choice((0.0, 0.05, 0.4, 1.0)))
        lower, upper = ibs.lower_bounds, ibs.upper_bounds
        for mid in CONCAVE_IDS:
            keys = [k for k, _ in separable_profile(mid, ibs.focal_sets, ibs.frame)]
            weights = tuple(2.0**k for k in keys)
            assert water_fill(lower, upper, weights) == water_fill_oracle(lower, upper, weights)

    @pytest.mark.parametrize("seed", range(60))
    def test_kkt_certificate(self, seed):
        """Interior coordinates sit exactly at w*c; clamped ones would leave
        their bound if released."""
        rng = random.Random(seed)
        ibs = random_normalized_ibs(rng)
        weights = tuple(2.0 ** rng.uniform(0.0, 2.0) for _ in ibs.entries)
        masses, c = water_fill(ibs.lower_bounds, ibs.upper_bounds, weights)
        assert (masses, c) == water_fill_oracle(ibs.lower_bounds, ibs.upper_bounds, weights)
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-9)
        for m, lo, hi, w in zip(masses, ibs.lower_bounds, ibs.upper_bounds, weights):
            free = w * c
            if m > lo + 1e-9 and m < hi - 1e-9:
                assert m == pytest.approx(free, abs=1e-7)
            elif abs(m - hi) <= 1e-9:
                assert free >= hi - 1e-7
            else:
                assert free <= lo + 1e-7

    def test_clamp_equals_min_max(self):
        """The masses are min(max(w*c, lo), hi) at the returned level, signed
        zeros included, where c lands on a breakpoint, a box has zero width
        or a lower bound is 0.0 or -0.0."""
        rng = random.Random("clamp")
        seen = {"breakpoint": 0, "zero-width": 0, "zero-lo": 0}
        for _ in range(400):
            n = rng.randint(1, 8)
            grid = rng.random() < 0.5  # eighths and powers of two: exact crossings
            if grid:
                lower = [rng.choice((0.0, -0.0, 0.125, 0.25)) for _ in range(n)]
                upper = [lo + rng.choice((0.0, 0.125, 0.5)) for lo in lower]
                weights = [2.0 ** rng.randint(-2, 2) for _ in range(n)]
            else:
                lower = [rng.choice((0.0, -0.0, rng.uniform(0.0, 1.0 / n))) for _ in range(n)]
                widths = [rng.choice((0.0, rng.uniform(0.0, 2.0 / n))) for _ in range(n)]
                upper = [min(1.0, lo + width) for lo, width in zip(lower, widths)]
                weights = [2.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
            if math.fsum(lower) > 1.0:
                lower = [0.0] * n
            if math.fsum(upper) < 1.0:
                upper[-1] = 1.0
            masses, c = water_fill(tuple(lower), tuple(upper), tuple(weights))
            want = tuple(min(max(w * c, lo), hi) for lo, hi, w in zip(lower, upper, weights))
            assert repr(masses) == repr(want)
            points = {x / w for lo, hi, w in zip(lower, upper, weights) for x in (lo, hi)}
            seen["breakpoint"] += c in points
            seen["zero-width"] += any(lo == hi for lo, hi in zip(lower, upper))
            seen["zero-lo"] += 0.0 in lower
        assert min(seen.values()) >= 50, seen


class TestLinearGreedy:
    """dubois-prade has beta=0: extrema come from greedy residual filling."""

    IBS = normalized(
        {
            ("X",): (0.2, 0.4),
            ("Y",): (0.3, 0.5),
            ("Z",): (0.1, 0.3),
            ("X", "Y", "Z"): (0.0, 0.4),
        }
    )

    def test_max_fills_widest_set_first(self):
        b = max_entropy_bpa(self.IBS, "dubois-prade")
        assert b.mass(FRAME3.full_set) == pytest.approx(0.4, abs=1e-12)
        assert entropy("dubois-prade", b) == pytest.approx(0.4 * math.log2(3), abs=1e-12)

    def test_min_splits_residual_equally_among_tied_singletons(self):
        # All three singletons share weight log2(1) = 0, so the 0.4 residual
        # is split three ways; nobody hits an upper bound.
        b = entropy_bounds(self.IBS, "dubois-prade").m_min
        masses = tuple(b.mass(fs) for fs in self.IBS.focal_sets)
        assert masses == pytest.approx((1 / 3, 13 / 30, 7 / 30, 0.0), abs=1e-12)
        assert entropy("dubois-prade", b) == pytest.approx(0.0, abs=1e-12)

    def test_min_is_not_a_vertex_here(self):
        # The equal split leaves three coordinates strictly inside their
        # bounds, which no vertex does; linear objectives still allow it.
        b = entropy_bounds(self.IBS, "dubois-prade").m_min
        masses = tuple(b.mass(fs) for fs in self.IBS.focal_sets)
        assert all(
            sum(abs(a - c) for a, c in zip(masses, v)) > 1e-9
            for v in enumerate_vertices(self.IBS)
        )

    def test_greedy_overflow_cascades_to_next_group(self):
        ibs = normalized(
            {("X",): (0.0, 0.1), ("Y",): (0.0, 0.2), ("X", "Y"): (0.0, 1.0)}
        )
        b = entropy_bounds(ibs, "dubois-prade").m_min
        # Singletons saturate at 0.1 + 0.2; the doubleton takes the rest.
        assert tuple(m for _, m in b.entries) == pytest.approx((0.1, 0.2, 0.7))


class TestBounds:
    def test_requires_normalized(self):
        loose = IntervalBeliefStructure.from_mapping(
            FRAME3, {("X",): (0.1, 0.9), ("Y",): (0.1, 0.9), ("Z",): (0.1, 0.9)}
        )
        with pytest.raises(IvbelError, match="call normalize\\(\\) first"):
            entropy_bounds(loose, "deng")

    def test_solution_fields(self):
        ibs = normalized(
            {("X",): (0.2, 0.5), ("Y",): (0.2, 0.5), ("X", "Y", "Z"): (0.1, 0.5)}
        )
        sol = entropy_bounds(ibs, "deng")
        assert sol.h_min <= sol.h_max
        assert sol.h_max == pytest.approx(entropy("deng", sol.m_max), abs=1e-12)
        assert sol.h_min == pytest.approx(entropy("deng", sol.m_min), abs=1e-12)
        assert sol.min_tie_count >= 1

    def test_degenerate_structure_has_zero_width(self):
        ibs = normalized({("X",): (0.6, 0.6), ("Y", "Z"): (0.4, 0.4)})
        for mid in SEPARABLE_MEASURE_IDS:
            sol = entropy_bounds(ibs, mid)
            assert sol.h_min == pytest.approx(sol.h_max, abs=1e-12)

    def test_min_tie_count_on_symmetric_structure(self):
        # Fully symmetric singleton structure: every extreme vertex gives the
        # same entropy, so all vertices tie for the minimum.
        ibs = normalized(
            {("X",): (0.2, 0.6), ("Y",): (0.2, 0.6), ("Z",): (0.2, 0.6)}
        )
        sol = entropy_bounds(ibs, "nguyen")
        assert sol.min_tie_count == len(enumerate_vertices(ibs))
        # Lexicographic tie-break keeps the first vertex.
        assert tuple(m for _, m in sol.m_min.entries) == enumerate_vertices(ibs)[0]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_feasible_points_lie_inside_bounds(self, seed):
        rng = random.Random(seed)
        ibs = random_normalized_ibs(rng)
        sets = ibs.focal_sets
        for mid in SEPARABLE_MEASURE_IDS:
            sol = entropy_bounds(ibs, mid)
            profile = separable_profile(mid, sets, ibs.frame)
            for _ in range(5):
                h = entropy_from_profile(random_point_in(rng, ibs), profile)
                assert sol.h_min - 1e-9 <= h <= sol.h_max + 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_oracle_agreement(self, seed):
        ibs = normalize(random_aligned_ibs(random.Random(seed), step=0.01))
        assert_oracle_bounds(ibs, SEPARABLE_MEASURE_IDS + CUSTOM_BETA)

    @pytest.mark.parametrize(
        "beta, m_max",
        [(0.5, (16 / 17, 1 / 17)), (2.0, (2 / 3, 1 / 3))],
        ids=["beta-0.5", "beta-2"],
    )
    def test_custom_beta_maximum(self, beta, m_max):
        # With k = (2, 0) on [0, 1] boxes the maximum sits where the masses
        # are in ratio 2**(2/beta) : 1.
        ibs = IntervalBeliefStructure.from_mapping(
            Frame(("a", "b")), {("a",): (0.0, 1.0), ("b",): (0.0, 1.0)}
        )
        meas = EntropyMeasure("b", beta=beta, weight=lambda a, f: 2.0 if a.bits == 1 else 0.0)
        sol = entropy_bounds(ibs, meas)
        assert tuple(m for _, m in sol.m_max.entries) == pytest.approx(m_max, abs=1e-15)
        assert_oracle_bounds(ibs, (meas,))

    @pytest.mark.parametrize(
        "k, beta, match",
        [
            (2.0, 1e-3, r"measure 'k' with beta = 0\.001: a water-fill weight"),
            (-2.0, 1e-3, r"measure 'k' with beta = 0\.001: a water-fill weight"),
            (1e308, 1.0, r"measure 'k' with beta = 1\.0: a water-fill weight"),
            (math.nan, 1.0, r"measure 'k' gives the non-finite weight nan to \{a\}"),
            (math.inf, 1.0, r"measure 'k' gives the non-finite weight inf to \{a\}"),
            (math.nan, 0.0, r"measure 'k' gives the non-finite weight nan to \{a\}"),
        ],
        ids=["overflow", "underflow", "huge-k", "nan-k", "inf-k", "nan-k-linear"],
    )
    def test_custom_weight_out_of_float_range(self, k, beta, match):
        # The weight k on {a} is not finite, or 2**(k/beta) overflows or
        # underflows to 0, so neither water-fill nor the vertex search applies.
        ibs = IntervalBeliefStructure.from_mapping(
            Frame(("a", "b")), {("a",): (0.0, 1.0), ("b",): (0.0, 1.0)}
        )
        meas = EntropyMeasure("k", beta=beta, weight=lambda a, f: k if a.bits == 1 else 0.0)
        with pytest.raises(IvbelError, match=match):
            entropy_bounds(ibs, meas)


# Body m1 of the CLI corpus's near-conflict.json: {B} and {C} may hold at
# most 8.1e-13 each.
NEAR_CONFLICT_M1 = {
    ("A",): (0.9999999999986339, 1.0),
    ("B",): (0.0, 8.066875882656179e-13),
    ("C",): (0.0, 8.066875882656179e-13),
}


class TestWitnessesAttainBounds:
    """Each bound is the entropy of its witness BPA, bit for bit: building
    the witness drops no mass.  h_min is clamped to h_max only on an
    inversion within _INVERSION_TOL, which none of these bodies reaches
    (nor any of seeds 0..1999), so none is excluded."""

    @staticmethod
    def _assert_attained(ibs):
        for mid in SEPARABLE_MEASURE_IDS:
            sol = entropy_bounds(ibs, mid)
            assert entropy(mid, sol.m_max) == sol.h_max, (mid, "max")
            assert entropy(mid, sol.m_min) == sol.h_min, (mid, "min")

    def test_near_conflict_corpus_body(self):
        self._assert_attained(
            normalize(IntervalBeliefStructure.from_mapping(FRAME_ABC, NEAR_CONFLICT_M1))
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_bodies(self, seed):
        rng = random.Random(seed)
        self._assert_attained(near_conflict_body(rng, "ABC"[seed % 3]))
        self._assert_attained(random_normalized_ibs(rng))


def test_oracles_on_a_hand_valued_segment():
    # Shannon entropy on {0.25 <= m_A, m_B <= 0.75}: highest at (0.5, 0.5),
    # lowest at the ends.
    ibs = IntervalBeliefStructure.from_mapping(
        Frame(("A", "B")), {("A",): (0.25, 0.75), ("B",): (0.25, 0.75)}
    )
    assert max_certificate(ibs, "nguyen") == pytest.approx(1.0, abs=1e-12)
    assert vertex_min(ibs, "nguyen") == pytest.approx(
        -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), abs=1e-12
    )


def _unit_boxes(n):
    """``n`` focal sets on a 5-element frame, each bounded by [0, 1]."""
    frame = Frame(("a", "b", "c", "d", "e"))
    return IntervalBeliefStructure(
        frame, tuple((FocalSet(bits), 0.0, 1.0) for bits in range(1, n + 1))
    )


class TestBoundedMinimum:
    """The bounded search gives the order-free tie rule applied to the
    brute-force vertex list: h* is the least entropy_from_profile value, the
    witness is the lexicographically first vertex with h <= h* + MIN_TIE_TOL
    and min_tie_count counts those vertices."""

    @staticmethod
    def check(ibs):
        for mid in CONCAVE_IDS:
            profile = separable_profile(mid, ibs.focal_sets, ibs.frame)
            tied = brute_force_ties(ibs, profile)
            assert enumerate_vertices(ibs, profile) == tied
            if is_normalized(ibs):
                sol = entropy_bounds(ibs, mid)
                assert sol.m_min == Bpa(ibs.frame, tuple(zip(ibs.focal_sets, tied[0])))
                assert sol.h_min == entropy_from_profile(tied[0], profile)
                assert sol.min_tie_count == len(tied)

    @pytest.mark.parametrize(
        "draw", [random_valid_ibs, random_normalized_ibs, random_aligned_ibs]
    )
    def test_random_small_bodies(self, draw):
        for seed in range(200):
            self.check(draw(random.Random(seed)))

    @pytest.mark.parametrize("width", [0.4, 0.7, 1.0])
    def test_wide_frame_bodies(self, width):
        rng = random.Random(f"bounded:{width}")
        for n in (8, 9, 10, 11, 12):
            self.check(random_box_ibs(rng, n, width))

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_equal_boxes_all_tie(self, n):
        # Every vertex has the same entropy, so no branch can be cut.
        ibs = equal_boxes(n)
        self.check(ibs)
        assert entropy_bounds(ibs, "pal").min_tie_count == math.comb(n, n // 2)

    def test_bundled_bodies(self):
        for name in ("example31", "example32", "example33", "example4", "example5", "example6"):
            for _, body in load_bundled(name).bodies:
                self.check(normalize(body))

    def test_search_scores_few_vertices(self, monkeypatch):
        # The cut is what makes the minimum cheap: on a body with 588
        # vertices each measure scores a few dozen of them at most.
        ibs = random_box_ibs(random.Random("cuts"), 12, 0.7)
        vertices = enumerate_vertices(ibs)
        scored = []

        def counting(vec, profile):
            scored.append(vec)
            return entropy_from_profile(vec, profile)

        monkeypatch.setattr(polytope, "entropy_from_profile", counting)
        for mid in CONCAVE_IDS:
            scored.clear()
            enumerate_vertices(ibs, separable_profile(mid, ibs.focal_sets, ibs.frame))
            assert 0 < len(scored) <= len(vertices) // 10

    def test_vertex_cap_still_refuses(self):
        with pytest.raises(IvbelError, match="vertex enumeration refused: 25 focal sets"):
            entropy_bounds(_unit_boxes(25), "pal")

    def test_linear_measure_enumerates_nothing(self):
        # dubois-prade is linear: greedy fills, no vertex list, so n = 31
        # passes the cap that stops the concave measures.
        sol = entropy_bounds(_unit_boxes(31), "dubois-prade")
        assert sol.h_min == 0.0
        assert sol.h_max == pytest.approx(math.log2(5))
