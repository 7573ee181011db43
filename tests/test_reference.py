"""Comparison combination rules: interval arithmetic, exact product bounds,
ratio bounds over vertices, and the intuitionistic pignistic route."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ivbel import (
    Bpa,
    FocalSet,
    Frame,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    NormalizationError,
    TotalConflictError,
    combine,
    dempster_combine,
    denoeux_combine,
    denoeux_normalize,
    is_normalized,
    leezhu_combine,
    normalize,
    proposed_combine_report,
    song_combine,
    song_combine_detail,
    wang_combine,
)
from ivbel.core import MASS_SUM_TOL
from ivbel.polytope import enumerate_vertices
from ivbel.reference import _ifs_fold
from ivbel.reproduce import load_bundled

from helpers import (
    exact_box,
    exact_ratio_bounds,
    exact_raw_product_bounds,
    leezhu_oracle,
    near_conflict_body,
    near_conflict_pair,
    point_body,
    random_box_ibs,
    random_bpa,
    random_normalized_ibs,
    random_point_in,
    random_wide_bpa,
    unit_float,
)

FRAME = Frame(("A", "B", "C"))


def point_pair():
    b1 = Bpa.from_mapping(FRAME, {("A",): 0.6, ("A", "B"): 0.4})
    b2 = Bpa.from_mapping(FRAME, {("B",): 0.5, ("A", "B", "C"): 0.5})
    return b1, b2


@pytest.mark.parametrize(
    "engine",
    [
        lambda a, b: wang_combine((a, b)),
        lambda a, b: denoeux_combine(a, b),
        lambda a, b: proposed_combine_report((a, b)).result,
    ],
    ids=["wang", "denoeux", "proposed"],
)
def test_engines_share_the_normalized_input_contract(engine):
    loose = IntervalBeliefStructure.from_mapping(
        FRAME, {("A",): (0.1, 0.9), ("B",): (0.1, 0.9), ("C",): (0.1, 0.9)}
    )
    ok = point_body(point_pair()[0])
    with pytest.raises(
        IvbelError,
        match=r"^body 2 is not normalized; normalize inputs before combining$",
    ):
        engine(ok, loose)


class TestLeeZhu:
    @pytest.mark.parametrize("w", [0.5, math.nan])
    def test_order_below_one_rejected(self, w):
        # Only ``not w >= 1`` rejects NaN.
        ev = load_bundled("example31")
        with pytest.raises(IvbelError, match="w >= 1"):
            leezhu_combine(ev.bodies[0][1], ev.bodies[1][1], w)

    def test_hand_worked_lukasiewicz_row(self):
        # At w=1 the pair is (bounded sum, bounded difference), so every
        # contribution is max(0, x + y - 1) and sets accumulate by capped
        # addition; worked through all nine focal-set pairs on paper.
        ev = load_bundled("example31")
        frame = ev.frame
        result = leezhu_combine(ev.bodies[0][1], ev.bodies[1][1], 1.0)
        expected = {
            ("P",): (0.0, 0.6),
            ("L",): (0.0, 0.0),
            ("P", "L"): (0.0, 0.1),
            ("L", "K"): (0.0, 0.0),
            ("P", "L", "K"): (0.0, 0.0),
        }
        assert len(result.entries) == len(expected)
        for labels, (lo, hi) in expected.items():
            got = result.interval(frame.subset(labels))
            assert got == pytest.approx((lo, hi), abs=1e-12)
        assert not result.normalized

    def test_large_order_approaches_max_min_composition(self):
        ev = load_bundled("example31")
        frame = ev.frame
        ibs1, ibs2 = ev.bodies[0][1], ev.bodies[1][1]
        result = leezhu_combine(ibs1, ibs2, 256.0)
        # As w grows the t-conorm tends to max and the t-norm to min.
        maxmin: dict[int, tuple[float, float]] = {}
        for f1, lo1, hi1 in ibs1.entries:
            for f2, lo2, hi2 in ibs2.entries:
                inter = f1.bits & f2.bits
                if inter == 0:
                    continue
                prev = maxmin.get(inter, (0.0, 0.0))
                maxmin[inter] = (
                    max(prev[0], min(lo1, lo2)),
                    max(prev[1], min(hi1, hi2)),
                )
        for fs, lo, hi in result.entries:
            exp_lo, exp_hi = maxmin[fs.bits]
            assert lo == pytest.approx(exp_lo, abs=5e-3)
            assert hi == pytest.approx(exp_hi, abs=5e-3)
            assert 0.0 <= lo <= hi <= 1.0

    def test_raw_inputs_are_used_as_given(self):
        # The rule reads the bounds directly; normalizing first changes the
        # answer, so the two calls must differ on this structure.
        ev = load_bundled("example31")
        ibs1, ibs2 = ev.bodies[0][1], ev.bodies[1][1]
        raw = leezhu_combine(ibs1, ibs2, 2.0)
        cooked = leezhu_combine(
            normalize(ibs1), normalize(ibs2), 2.0
        )
        assert any(
            raw.interval(fs) != pytest.approx(cooked.interval(fs), abs=1e-9)
            for fs, _, _ in raw.entries
        )

    def test_total_conflict(self):
        ibs1 = IntervalBeliefStructure.from_mapping(FRAME, {("A",): (1.0, 1.0)})
        ibs2 = IntervalBeliefStructure.from_mapping(FRAME, {("B",): (1.0, 1.0)})
        with pytest.raises(TotalConflictError, match="every focal-set pair conflicts"):
            leezhu_combine(ibs1, ibs2)

    @pytest.mark.parametrize("seed", range(60))
    def test_bit_identical_to_pnorm_oracle(self, seed):
        """Raw, invalid, point-valued and edge bodies of 1..31 sets on a
        5-element frame give the same result, repr included, as the earlier
        form, for orders up to ``w = inf``.  Edge bounds are drawn by
        ``unit_float`` (exact 0 and 1, and values within 1e-16 of either), so
        they reach the kernel's zero-bound shortcuts."""
        rng = random.Random(seed)
        frame = Frame(("a", "b", "c", "d", "e"))

        def body(kind):
            bits = rng.sample(range(1, 32), rng.randint(1, 31))
            if kind == "edge":
                entries = [sorted((unit_float(rng), unit_float(rng))) for _ in bits]
            elif kind == "point":
                masses = [rng.expovariate(1.0) for _ in bits]
                total = sum(masses)
                entries = [(m / total, m / total) for m in masses]
            else:
                scale = 1.0 / len(bits) if kind == "raw" else rng.choice((0.01, 2.0))
                entries = sorted((rng.uniform(0, scale), rng.uniform(0, 2 * scale)) for _ in bits)
                entries = [(min(lo, 1.0), min(max(lo, hi), 1.0)) for lo, hi in entries]
            return IntervalBeliefStructure(
                frame, tuple((FocalSet(b), lo, hi) for b, (lo, hi) in zip(bits, entries))
            )

        kinds = ("raw", "invalid", "point", "edge")
        ibs1, ibs2 = body(rng.choice(kinds)), body(rng.choice(kinds))
        for w in (1.0, 1.5, 2.0, 3.0, 10.0, 256.0, math.inf):
            try:
                want = leezhu_oracle(ibs1, ibs2, w)
            except TotalConflictError:
                with pytest.raises(TotalConflictError):
                    leezhu_combine(ibs1, ibs2, w)
                continue
            got = leezhu_combine(ibs1, ibs2, w)
            assert got == want and repr(got) == repr(want)


class TestDenoeux:
    def test_point_masses_reproduce_raw_products(self):
        b1, b2 = point_pair()
        raw = denoeux_combine(point_body(b1), point_body(b2))
        assert raw.includes_empty == pytest.approx((0.3, 0.3), abs=1e-12)
        assert raw.interval(FRAME.singleton("A")) == pytest.approx((0.3, 0.3))
        assert raw.interval(FRAME.singleton("B")) == pytest.approx((0.2, 0.2))
        assert raw.interval(FRAME.subset(("A", "B"))) == pytest.approx((0.2, 0.2))
        assert not raw.normalized

    def test_raw_result_withholds_the_flag(self):
        # No conflict: the raw bounds are tight, but they are still raw.
        b = point_body(Bpa.from_mapping(FRAME, {("A", "B"): 0.5, ("A", "B", "C"): 0.5}))
        raw = denoeux_combine(b, b)
        assert raw.includes_empty == (0.0, 0.0) and is_normalized(raw)
        assert raw.normalized is False

    def test_point_masses_normalize_to_dempster(self):
        b1, b2 = point_pair()
        expected, _ = dempster_combine(b1, b2)
        out = denoeux_normalize(denoeux_combine(point_body(b1), point_body(b2)))
        for fs, lo, hi in out.entries:
            assert lo == pytest.approx(expected.mass(fs), abs=1e-12)
            assert hi == pytest.approx(expected.mass(fs), abs=1e-12)

    def test_normalize_hand_values(self):
        # Raw bounds A[0.2,0.5], B[0.3,0.6], empty [0.1,0.3]: each side
        # divides by one minus the empty mass consistent with the remaining
        # targets, clamped to the raw empty bounds.
        raw = IntervalMassResult(
            FRAME,
            ((FRAME.singleton("A"), 0.2, 0.5), (FRAME.singleton("B"), 0.3, 0.6)),
            includes_empty=(0.1, 0.3),
            normalized=False,
        )
        out = denoeux_normalize(raw)
        assert out.interval(FRAME.singleton("A")) == pytest.approx((0.25, 0.625))
        assert out.interval(FRAME.singleton("B")) == pytest.approx((0.375, 0.75))

    def test_normalize_refuses_an_empty_interval(self):
        # Raw bounds whose masses sum above one: A's lower bound divides by
        # 1 and its upper bound by 1.2, which leaves no interval.
        raw = IntervalMassResult(
            FRAME,
            ((FRAME.singleton("A"), 0.6, 0.6), (FRAME.singleton("B"), 0.6, 0.6)),
            includes_empty=(0.0, 0.0),
            normalized=False,
        )
        with pytest.raises(
            NormalizationError,
            match=r"^cannot normalize interval for \{A\}: \[0\.6, 0\.5\] is empty$",
        ):
            denoeux_normalize(raw)

    def test_requires_normalized_inputs(self):
        loose = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.1, 0.9), ("B",): (0.1, 0.9), ("C",): (0.1, 0.9)}
        )
        with pytest.raises(IvbelError, match="body 1 is not normalized"):
            denoeux_combine(loose, loose)

    def test_total_conflict(self):
        b1 = point_body(Bpa.from_mapping(FRAME, {("A",): 1.0}))
        b2 = point_body(Bpa.from_mapping(FRAME, {("B",): 1.0}))
        raw = denoeux_combine(b1, b2)
        assert raw.entries == () and raw.includes_empty == (1.0, 1.0)
        with pytest.raises(TotalConflictError, match="not combinable: total conflict"):
            denoeux_normalize(raw)

    def test_total_conflict_with_a_zero_target(self):
        # {B} meets {B}, but only with zero mass: every unit of mass conflicts.
        b1 = IntervalBeliefStructure.from_mapping(FRAME, {("A",): (1.0, 1.0), ("B",): (0.0, 0.0)})
        b2 = IntervalBeliefStructure.from_mapping(FRAME, {("B",): (1.0, 1.0)})
        raw = denoeux_combine(b1, b2)
        assert raw.entries == ((FRAME.singleton("B"), 0.0, 0.0),)
        assert raw.includes_empty == (1.0, 1.0)
        with pytest.raises(TotalConflictError, match="not combinable: total conflict"):
            denoeux_normalize(raw)
        with pytest.raises(TotalConflictError, match="not combinable: all vertex tuples"):
            wang_combine([b1, b2])

    def test_total_conflict_on_the_empty_lower_bound(self):
        # More than MASS_DROP_EPS of upper bounds, but every assignment that
        # respects the raw bounds gives the empty set at least 1 - 5e-13.
        raw = IntervalMassResult(
            FRAME,
            tuple((FRAME.singleton(label), 0.0, 4e-13) for label in "ABC"),
            includes_empty=(1.0 - 5e-13, 1.0),
        )
        with pytest.raises(TotalConflictError, match="not combinable: total conflict"):
            denoeux_normalize(raw)

    def test_raw_bounds_stay_within_one(self):
        # The vertices sum to 1 only within MASS_SUM_TOL, so the empty set's
        # product sum exceeds 1 by 8e-13 here.
        e1, e2 = 8.066875882656179e-13, 1.2486632893694472e-05
        b1 = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.9999999999986339, 1.0), ("B",): (0.0, e1), ("C",): (0.0, e1)}
        )
        b2 = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.0, e2), ("B",): (0.9999869904227207, 1.0), ("C",): (0.0, e2)}
        )
        raw = denoeux_combine(b1, b2)
        assert raw.includes_empty[1] == 1.0
        out = denoeux_normalize(raw)
        wanted = wang_combine([b1, b2])
        for fs, lo, hi in out.entries:
            assert lo <= wanted.interval(fs)[0] and hi >= wanted.interval(fs)[1]

    def test_near_conflict_agrees_with_wang(self):
        # Both engines must decide total conflict by the same closed test.
        rng = random.Random(11)
        outcomes = set()
        for _ in range(500):
            bodies = (near_conflict_body(rng, "A"), near_conflict_body(rng, "B"))
            try:
                denoeux_normalize(denoeux_combine(*bodies))
                denoeux = "combined"
            except TotalConflictError:
                denoeux = "conflict"
            try:
                wang_combine(bodies)
                wang = "combined"
            except TotalConflictError:
                wang = "conflict"
            assert denoeux == wang
            outcomes.add(wang)
        assert outcomes == {"combined", "conflict"}

    @pytest.mark.parametrize("seed", range(30))
    def test_bounds_contain_sampled_products(self, seed):
        rng = random.Random(seed)
        ibs1 = random_normalized_ibs(rng)
        ibs2 = random_normalized_ibs(rng)
        raw = denoeux_combine(ibs1, ibs2)
        bounds = {fs.bits: (lo, hi) for fs, lo, hi in raw.entries}
        bounds[0] = raw.includes_empty
        for _ in range(5):
            v1 = random_point_in(rng, ibs1)
            v2 = random_point_in(rng, ibs2)
            sums: dict[int, float] = {}
            for (f1, _, _), m1 in zip(ibs1.entries, v1):
                for (f2, _, _), m2 in zip(ibs2.entries, v2):
                    bits = f1.bits & f2.bits
                    sums[bits] = sums.get(bits, 0.0) + m1 * m2
            for bits, value in sums.items():
                lo, hi = bounds[bits]
                assert lo - 1e-7 <= value <= hi + 1e-7

    @pytest.mark.parametrize("seed", range(20))
    def test_bounds_attained_at_vertex_pairs(self, seed):
        rng = random.Random(seed)
        ibs1 = random_normalized_ibs(rng, max_sets=3)
        ibs2 = random_normalized_ibs(rng, max_sets=3)
        raw = denoeux_combine(ibs1, ibs2)
        bounds = {fs.bits: (lo, hi) for fs, lo, hi in raw.entries}
        seen: dict[int, list[float]] = {bits: [] for bits in bounds}
        for v1, v2 in itertools.product(
            enumerate_vertices(ibs1), enumerate_vertices(ibs2)
        ):
            sums = {bits: 0.0 for bits in bounds}
            for (f1, _, _), m1 in zip(ibs1.entries, v1):
                for (f2, _, _), m2 in zip(ibs2.entries, v2):
                    bits = f1.bits & f2.bits
                    if bits in sums:
                        sums[bits] += m1 * m2
            for bits, value in sums.items():
                seen[bits].append(value)
        for bits, (lo, hi) in bounds.items():
            assert min(seen[bits]) == pytest.approx(lo, abs=1e-9)
            assert max(seen[bits]) == pytest.approx(hi, abs=1e-9)


class TestWang:
    def test_point_masses_reduce_to_dempster(self):
        b1, b2 = point_pair()
        expected, _ = dempster_combine(b1, b2)
        out = wang_combine((point_body(b1), point_body(b2)))
        assert out.normalized
        for fs, lo, hi in out.entries:
            assert lo == pytest.approx(expected.mass(fs), abs=1e-12)
            assert hi == pytest.approx(expected.mass(fs), abs=1e-12)

    def test_needs_two_bodies(self):
        with pytest.raises(IvbelError, match="at least two bodies"):
            wang_combine((point_body(point_pair()[0]),))

    def test_requires_normalized_inputs(self):
        loose = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.1, 0.9), ("B",): (0.1, 0.9), ("C",): (0.1, 0.9)}
        )
        ok = point_body(point_pair()[0])
        with pytest.raises(IvbelError, match="body 2 is not normalized"):
            wang_combine((ok, loose))

    def test_total_conflict(self):
        ibs1 = IntervalBeliefStructure.from_mapping(FRAME, {("A",): (1.0, 1.0)})
        ibs2 = IntervalBeliefStructure.from_mapping(FRAME, {("B",): (1.0, 1.0)})
        with pytest.raises(TotalConflictError, match="every focal-set tuple conflicts"):
            wang_combine((ibs1, ibs2))

    def test_skips_tuples_without_surviving_mass(self):
        # The vertex A = 1 meets B = 1 - 5e-10 with K = 1 - 5e-10 and no
        # surviving mass: a total-conflict tuple, so B's ratio is not 0.
        ibs1 = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.0, 1.0), ("B",): (0.0, 1.0)}
        )
        ibs2 = IntervalBeliefStructure.from_mapping(
            FRAME, {("B",): (1.0 - 5e-10, 1.0 - 5e-10)}
        )
        out = wang_combine((ibs1, ibs2))
        ((fs, lo, hi),) = out.entries
        assert fs == FRAME.singleton("B")
        assert lo == hi == pytest.approx(1.0, abs=MASS_SUM_TOL)

    def test_near_total_conflict_stays_normalized(self):
        # Surviving mass x * y is 1e-12..4e-12, where 1 - K is off by about
        # 1e-4 relative: the ratio must be scaled by the surviving mass, as
        # dempster_combine does.
        rng = random.Random("near-total-conflict")
        for _ in range(5):
            x, y = rng.uniform(1e-6, 2e-6), rng.uniform(1e-6, 2e-6)
            ibs1 = IntervalBeliefStructure.from_mapping(
                FRAME, {("A",): (1.0 - x, 1.0 - x), ("C",): (x, x)}
            )
            ibs2 = IntervalBeliefStructure.from_mapping(
                FRAME, {("B",): (1.0 - y, 1.0 - y), ("C",): (y, y)}
            )
            out = wang_combine((ibs1, ibs2))
            assert out.normalized
            ((fs, lo, hi),) = out.entries
            assert fs == FRAME.singleton("C")
            assert lo == hi == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_bounds_contain_sampled_dempster_ratios(self, seed):
        rng = random.Random(seed)
        ibs1 = random_normalized_ibs(rng)
        ibs2 = random_normalized_ibs(rng)
        try:
            out = wang_combine((ibs1, ibs2))
        except TotalConflictError:
            return
        for _ in range(5):
            m1 = Bpa(ibs1.frame, tuple(zip(ibs1.focal_sets, random_point_in(rng, ibs1))))
            m2 = Bpa(ibs2.frame, tuple(zip(ibs2.focal_sets, random_point_in(rng, ibs2))))
            try:
                combined, _ = dempster_combine(m1, m2)
            except TotalConflictError:
                continue
            for fs, lo, hi in out.entries:
                assert lo - 1e-7 <= combined.mass(fs) <= hi + 1e-7

    def test_ratio_rounding_above_one_is_clamped(self):
        # {a,b} can take all the mass in both bodies; the Dempster ratio for
        # it once rounded to 1 + 1 ulp and failed the interval check.
        frame = Frame(("a", "b", "c"))
        body = IntervalBeliefStructure.from_mapping(
            frame, {("a", "b"): (0.32, 1.0), ("c",): (0.0, 0.68), ("a", "b", "c"): (0.0, 0.56)}
        )
        out = wang_combine((body, body))
        assert out.interval(frame.subset(("a", "b")))[1] == 1.0

    def test_three_body_join_is_not_a_fold(self):
        # Joint bounds over vertex triples can be strictly tighter than
        # folding two-body joins, which loses the coupling; just check the
        # three-body result is contained in the fold of hulls.
        ev = load_bundled("example5")
        b1 = normalize(ev.bodies[0][1])
        b2 = normalize(ev.bodies[1][1])
        joint = wang_combine((b1, b2, b2))
        assert joint.normalized
        total_lo = math.fsum(lo for _, lo, _ in joint.entries)
        total_hi = math.fsum(hi for _, _, hi in joint.entries)
        assert total_lo <= 1.0 + 1e-9 <= total_hi + 2e-9


# denoeux_combine's raw bounds and wang_combine against their extrema over
# exact vertices in exact rationals.  Over seeds 0..1999 of the draws in
# test_engines_match_exact_extrema the largest gap was 3.0e-16 for denoeux
# and 2.7e-16 for wang; 4e-16 is just under two ulps of 1.0.
ENGINE_EXACT_TOL = 4e-16


@pytest.mark.parametrize("seed", range(60))
def test_engines_match_exact_extrema(seed):
    # Bodies of 2..5 focal sets: denoeux on the first two, wang on two or
    # three.  The exact vertices come from the bound patterns, not from the
    # search, so this checks the search through both engines.
    rng = random.Random(f"exact-engines:{seed}")
    max_sets, k = 2 + seed % 4, 2 + seed // 4 % 2
    bodies = [random_normalized_ibs(rng, max_sets=max_sets) for _ in range(k)]
    boxes = [exact_box(body) for body in bodies]

    def assert_close(got, exact):
        assert got.keys() == exact.keys()
        for t, bounds in got.items():
            for value, extremum in zip(bounds, exact[t]):
                assert abs(Fraction(value) - extremum) <= ENGINE_EXACT_TOL, t

    raw = denoeux_combine(*bodies[:2])
    exact = exact_raw_product_bounds(*boxes[:2])
    exact.setdefault(0, (0, 0))  # denoeux reports [0, 0] when no pair is disjoint
    got = {fs.bits: (lo, hi) for fs, lo, hi in raw.entries}
    assert_close({0: raw.includes_empty} | got, exact)
    out = wang_combine(bodies)
    assert_close({fs.bits: (lo, hi) for fs, lo, hi in out.entries}, exact_ratio_bounds(boxes))


# (n, k, cases) past the reach of the vertex-tuple oracle.  Wang's scan sets
# the cost: a case at (4, 4) costs about 25 at (5, 2), and one at (8, 2) about
# 8 at (4, 4), so the first gets few cases and the second none.
CHAIN_SIZES = [(5, 2, 19), (6, 2, 12), (4, 3, 14), (3, 4, 12), (4, 4, 3)]


def test_containment_chain_on_generated_bodies():
    """For every target, proposed's interval lies inside Wang's, whose bounds
    are the exact range of the Dempster fold over all feasible points; for
    two bodies Wang's lies inside Denoeux's, which normalizes over the raw
    box, a relaxation of the products' image."""
    rng = random.Random("containment-chain")
    tol = 1e-15
    folds = 0
    for n, k, cases in CHAIN_SIZES:
        for _ in range(cases):
            bodies = [random_box_ibs(rng, n, rng.choice((0.4, 0.7))) for _ in range(k)]
            wang = combine("wang", bodies).result
            for mid in ("pal", "nguyen"):
                try:
                    prop = combine("proposed", bodies, measure=mid).result
                except TotalConflictError:
                    continue  # the witnesses of one extreme conflict totally
                folds += 1
                assert prop.focal_sets == wang.focal_sets
                for (fs, lo, hi), (_, w_lo, w_hi) in zip(prop.entries, wang.entries):
                    assert w_lo - tol <= lo and hi <= w_hi + tol, (n, k, mid, fs)
            if k == 2:
                den = combine("denoeux", bodies).result
                for fs, w_lo, w_hi in wang.entries:
                    d_lo, d_hi = den.interval(fs)
                    assert d_lo - tol <= w_lo and w_hi <= d_hi + tol, (n, k, fs)
    assert folds >= 100


# random_wide_bpa's frame in the point-valued chain, where its bodies take up
# to MAX_VERTEX_DIM = 24 of the 31 non-empty subsets: wang and proposed
# enumerate each body's vertices, and the search reaches a point-valued
# body's one vertex in n leaves.
WIDE_FRAME = Frame(("a", "b", "c", "d", "e"))


def test_containment_chain_on_point_valued_bodies():
    """On point-valued bodies the chain collapses onto Dempster's rule:
    proposed (its extremes are the bodies themselves) and Wang (each body
    has one feasible point) equal the Dempster fold, and so does Denoeux for
    two bodies (the raw box is the products' one point)."""
    rng = random.Random("point-valued-chain")
    folds = 0
    for _ in range(60):
        k = rng.randint(2, 4)
        if rng.random() < 0.5:
            bodies = [point_body(random_bpa(rng)) for _ in range(k)]
        else:
            bodies = [point_body(random_wide_bpa(rng, WIDE_FRAME, max_sets=24)) for _ in range(k)]
        try:
            dempster = combine("dempster", bodies).result
        except TotalConflictError:
            continue
        folds += 1
        outs = [
            (combine("proposed", bodies, measure=mid).result, 0.0)
            for mid in ("pal", "nguyen", "dubois-prade")
        ]
        # Wang's one tuple is Dempster's rule run by the same kernel, so at
        # k = 2 it is the fold bit for bit; at k >= 3 dempster_combine_n
        # normalizes after each fold and Wang once per tuple.
        outs.append((combine("wang", bodies).result, 0.0 if k == 2 else 1e-15))
        if k == 2:
            # Denoeux's normalization divides by plain float sums, min(1 -
            # e_lo, lo + sum(hi)), where Dempster's rule divides by the fsum
            # of the surviving mass: a few ulps of the larger masses apart.
            outs.append((combine("denoeux", bodies).result, 1e-14))
        for out, tol in outs:
            # proposed also lists the bodies' focal sets that get no mass.
            for fs in {*out.focal_sets, *dempster.focal_sets}:
                m = dempster.interval(fs)[0]
                lo, hi = out.interval(fs)
                assert abs(lo - m) <= tol and abs(hi - m) <= tol, (k, tol, fs)
    assert folds >= 40


def _unit_floats(seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(unit_float(rng) for _ in range(4))


IFS_CASES = [
    # Near total conflict, where 1 - K is about 2e-9, 4e-8 and 2e-10.
    (1 - 1e-9, 0.0, 0.0, 1 - 1e-9),
    (0.9999999978640232, 3.638619391700094e-10, 3.286771571606754e-08, 0.999999966532433),
    (1 - 1e-10, 0.0, 0.0, 1 - 1e-10),
    # A mass in (0, 1e-12] on one side.  Two hand-picked draws, then every
    # unit_float draw of seeds 80..1599 that has one (of seeds 0..79, seed 0
    # does).
    (1.0, 1e-10, 1e-16, 1.0),
    (1.0, 1e-12, 1e-14, 1.0),
    (1.0, 1e-16, 0.0, 0.99999999999),  # seed 245
    (1.0, 1e-12, 0.0, 1.0),  # seed 426
    (1.0, 1e-10, 1e-11, 0.9999999999),  # seed 505
    (0.999999999999, 0.0, 1e-15, 0.9999),  # seed 577
    (0.99999999999999, 1e-10, 1e-11, 1.0),  # seed 610
    (0.9999999, 1e-05, 0.0, 0.9999999999999),  # seed 637
    (0.9999999999, 1e-12, 0.0001, 1.0),  # seed 853
    (0.9999999999999999, 0.0, 1e-12, 1.0),  # seed 1046
    (1.0, 1e-16, 1e-11, 1.0),  # seed 1083
    (1.0, 1e-13, 1e-08, 1.0),  # seed 1143
    (1.0, 1e-06, 1e-12, 0.99999999999999),  # seed 1203
    (1e-15, 1.0, 1.0, 1e-10),  # seed 1299
    (0.999999999999999, 1e-16, 1e-11, 0.9999999),  # seed 1376
]


class TestIfs:
    """Song's fold of two assessments ``(mu, gamma)`` of one singleton."""

    def test_hesitancy_clamps_at_zero(self):
        # gamma overshoots 1 - mu by 1e-10, so the hesitancy 1 - mu - gamma
        # clamps to 0 rather than adding a negative "either" mass.
        mu, gamma = 0.7, 0.3 + 1e-10
        surviving = math.fsum((mu, gamma))
        assert _ifs_fold((mu, gamma), (0.0, 0.0)) == (mu / surviving, gamma / surviving)

    def test_total_conflict(self):
        with pytest.raises(TotalConflictError, match="IFS total conflict"):
            _ifs_fold((1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize(
        "a1,g1,a2,g2",
        [*IFS_CASES, *(pytest.param(*_unit_floats(seed), id=str(seed)) for seed in range(80))],
    )
    def test_equivalent_to_two_frame_dempster(self, a1, g1, a2, g2):
        """(mu, gamma, pi) behaves as masses on (yes, no, either) under
        Dempster's rule: it equals dempster_combine where both triples sum
        to exactly 1, and matches the rule in exact rationals to 1e-15."""
        frame = Frame(("yes", "no"))
        scale1 = max(1.0, a1 + g1)
        scale2 = max(1.0, a2 + g2)
        e1 = (a1 / scale1, g1 / scale1)
        e2 = (a2 / scale2, g2 / scale2)

        def masses(e):
            mu, gamma = e
            return mu, gamma, max(0.0, 1.0 - mu - gamma)

        def as_pairs(e):
            mu, gamma, pi = masses(e)
            total = mu + gamma + pi
            return {("yes",): mu / total, ("no",): gamma / total, ("yes", "no"): pi / total}

        bpas = [Bpa.from_mapping(frame, as_pairs(e)) for e in (e1, e2)]
        try:
            mu, gamma = _ifs_fold(e1, e2)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                dempster_combine(*bpas)
            return
        combined, _ = dempster_combine(*bpas)
        # Where both triples sum to exactly 1, as_pairs keeps them as they
        # are, and both rules divide the same products in the same kernel.
        tol = 0.0 if all(sum(masses(e)) == 1.0 for e in (e1, e2)) else 1e-9
        assert abs(combined.mass(frame.singleton("yes")) - mu) <= tol
        assert abs(combined.mass(frame.singleton("no")) - gamma) <= tol
        (m1, n1, p1), (m2, n2, p2) = (tuple(map(Fraction, masses(e))) for e in (e1, e2))
        yes = m1 * (m2 + p2) + p1 * m2
        no = n1 * (n2 + p2) + p1 * n2
        surviving = yes + no + p1 * p2
        assert abs(mu - yes / surviving) <= 1e-15
        assert abs(gamma - no / surviving) <= 1e-15

    def test_commutative(self):
        left = _ifs_fold((0.6, 0.2), (0.3, 0.5))
        right = _ifs_fold((0.3, 0.5), (0.6, 0.2))
        assert left == pytest.approx(right, abs=1e-12)


class TestSong:
    def test_interval_pignistic_hand_values(self):
        ev = load_bundled("example5")
        frame = ev.frame
        rep = song_combine_detail([ibs for _, ibs in ev.bodies])
        pig = dict(rep.stages)["body1.pignistic"]
        # Bounds spread each interval uniformly: e.g. hi(A1) = 0.4 + 0.4/3.
        assert pig.interval(frame.singleton("A1")) == pytest.approx(
            (0.2, 0.4 + 0.4 / 3), abs=1e-12
        )
        assert pig.interval(frame.singleton("A2")) == pytest.approx(
            (0.3, 0.5 + 0.4 / 3), abs=1e-12
        )
        assert pig.interval(frame.singleton("A3")) == pytest.approx(
            (0.1, 0.3 + 0.4 / 3), abs=1e-12
        )

    def test_bayesian_body_is_its_own_pignistic(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.2, 0.5), ("B",): (0.2, 0.5), ("C",): (0.2, 0.4)}
        )
        pig = dict(song_combine_detail([ibs, ibs]).stages)["body1.pignistic"]
        norm = normalize(ibs)
        for fs, lo, hi in norm.entries:
            assert pig.interval(fs) == pytest.approx((lo, hi), abs=1e-12)

    def test_bundled_singleton_example_regression(self):
        ev = load_bundled("example33")
        frame = ev.frame
        result = song_combine([ibs for _, ibs in ev.bodies])
        assert result.normalized
        expected = {"A": 0.6143, "B": 0.2380, "C": 0.1485}
        for label, value in expected.items():
            lo, hi = result.interval(frame.singleton(label))
            assert lo == pytest.approx(hi, abs=1e-9)
            assert lo == pytest.approx(value, abs=1e-3)

    def test_stage_trail_shapes(self):
        ev = load_bundled("example5")
        rep = song_combine_detail([ibs for _, ibs in ev.bodies])
        labels = [label for label, _ in rep.stages]
        assert labels == ["body1.pignistic", "body2.pignistic", "fold"]
        stage = dict(rep.stages)
        pig1, pig2 = stage["body1.pignistic"], stage["body2.pignistic"]
        assert len(pig1.entries) == len(pig2.entries) == 3
        # mu = lower pignistic bound, gamma = one minus upper; the fold maps
        # the combined assessment back to [mu, 1 - gamma].
        fold = stage["fold"]
        assert fold.focal_sets == pig1.focal_sets
        for (s, a1, b1), (_, a2, b2) in zip(pig1.entries, pig2.entries):
            mu, gamma = _ifs_fold((a1, 1.0 - b1), (a2, 1.0 - b2))
            lo, hi = fold.interval(s)
            assert lo == pytest.approx(mu, abs=1e-12)
            assert hi == pytest.approx(1.0 - gamma, abs=1e-12)
        assert rep.result.normalized

    def test_two_bodies_required(self):
        ev = load_bundled("example5")
        with pytest.raises(IvbelError, match="at least two bodies"):
            song_combine([ev.bodies[0][1]])

    def test_opposed_point_bodies_conflict(self):
        ibs1 = IntervalBeliefStructure.from_mapping(FRAME, {("A",): (1.0, 1.0)})
        ibs2 = IntervalBeliefStructure.from_mapping(FRAME, {("B",): (1.0, 1.0)})
        with pytest.raises(TotalConflictError, match="IFS total conflict"):
            song_combine((ibs1, ibs2))

    def test_near_conflict_combines_or_conflicts(self):
        # 1 - K is within rounding error of zero on many of these pairs.
        rng = random.Random(5)
        conflicts = 0
        for _ in range(2000):
            try:
                result = song_combine(near_conflict_pair(rng))
            except TotalConflictError:
                conflicts += 1
                continue
            assert result.normalized and is_normalized(result.as_ibs())
        assert 0 < conflicts < 2000
