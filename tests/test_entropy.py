"""Uncertainty measures: hand-computed values and structural identities."""

import math
import random

import pytest

from ivbel import (
    MEASURE_IDS,
    SEPARABLE_MEASURE_IDS,
    Bpa,
    EntropyMeasure,
    FocalSet,
    Frame,
    IvbelError,
    entropy,
    measure,
)
from ivbel.entropy import entropy_from_profile, separable_profile

from helpers import KERNEL_FRAMES, MEASURE_ORACLES, random_bpa, random_wide_bpa

FRAME = Frame(("A", "B", "C"))
# Focal sets {A}, {A,B}, {A,B,C} with masses 0.5 / 0.3 / 0.2.
NESTED = Bpa.from_mapping(FRAME, {("A",): 0.5, ("A", "B"): 0.3, ("A", "B", "C"): 0.2})

SHANNON_NESTED = -(0.5 * math.log2(0.5) + 0.3 * math.log2(0.3) + 0.2 * math.log2(0.2))


class TestHandValues:
    """Every measure against a value worked out independently on paper."""

    def test_dubois_prade(self):
        assert entropy("dubois-prade", NESTED) == pytest.approx(
            0.3 + 0.2 * math.log2(3), abs=1e-12
        )

    def test_nguyen_is_shannon_of_masses(self):
        assert entropy("nguyen", NESTED) == pytest.approx(SHANNON_NESTED, abs=1e-12)

    def test_pal(self):
        assert entropy("pal", NESTED) == pytest.approx(
            SHANNON_NESTED + 0.3 + 0.2 * math.log2(3), abs=1e-12
        )

    def test_deng(self):
        expected = SHANNON_NESTED + 0.3 * math.log2(3) + 0.2 * math.log2(7)
        assert entropy("deng", NESTED) == pytest.approx(expected, abs=1e-12)
        assert entropy("deng", NESTED) == pytest.approx(2.52244, abs=1e-5)

    def test_qin(self):
        expected = SHANNON_NESTED + 0.3 * (2 / 3) + 0.2 * math.log2(3)
        assert entropy("qin", NESTED) == pytest.approx(expected, abs=1e-12)

    def test_yager_zero_when_all_plausibilities_one(self):
        assert entropy("yager", NESTED) == pytest.approx(0.0, abs=1e-12)

    def test_hohle(self):
        expected = -(0.5 * math.log2(0.5) + 0.3 * math.log2(0.8))
        assert entropy("hohle", NESTED) == pytest.approx(expected, abs=1e-12)
        assert entropy("hohle", NESTED) == pytest.approx(0.59658, abs=1e-5)

    def test_klir_ramer(self):
        expected = -(
            0.5 * math.log2(0.5 + 0.3 / 2 + 0.2 / 3)
            + 0.3 * math.log2(0.5 + 0.3 + 0.2 * 2 / 3)
        )
        assert entropy("klir-ramer", NESTED) == pytest.approx(expected, abs=1e-12)

    def test_klir_parviz(self):
        assert entropy("klir-parviz", NESTED) == pytest.approx(0.28840, abs=1e-5)

    def test_jirousek_shenoy(self):
        assert entropy("jirousek-shenoy", NESTED) == pytest.approx(1.94981, abs=1e-5)


class TestStructuralIdentities:
    def test_vacuous_bpa(self):
        vacuous = Bpa.from_mapping(FRAME, {("A", "B", "C"): 1.0})
        log3 = math.log2(3)
        assert entropy("dubois-prade", vacuous) == pytest.approx(log3)
        assert entropy("nguyen", vacuous) == pytest.approx(0.0)
        assert entropy("deng", vacuous) == pytest.approx(math.log2(7))
        assert entropy("pal", vacuous) == pytest.approx(log3)
        assert entropy("qin", vacuous) == pytest.approx(log3)
        assert entropy("yager", vacuous) == pytest.approx(0.0)
        assert entropy("hohle", vacuous) == pytest.approx(0.0)
        assert entropy("klir-ramer", vacuous) == pytest.approx(0.0)
        assert entropy("klir-parviz", vacuous) == pytest.approx(0.0)
        # Plausibility transform of the vacuous BPA is uniform.
        assert entropy("jirousek-shenoy", vacuous) == pytest.approx(2 * log3)

    @pytest.mark.parametrize("seed", range(50))
    def test_all_but_dubois_prade_collapse_to_shannon_on_bayesian(self, seed):
        rng = random.Random(seed)
        weights = [rng.expovariate(1.0) + 1e-3 for _ in range(3)]
        total = sum(weights)
        probs = [w / total for w in weights]
        b = Bpa.from_mapping(
            FRAME, {("A",): probs[0], ("B",): probs[1], ("C",): probs[2]}
        )
        shannon = -math.fsum(p * math.log2(p) for p in probs)
        for mid in MEASURE_IDS:
            if mid == "dubois-prade":
                assert entropy(mid, b) == pytest.approx(0.0, abs=1e-9)
            else:
                assert entropy(mid, b) == pytest.approx(shannon, abs=1e-9)

    def test_qin_equals_pal_on_singletons_plus_full_set(self):
        # The cardinality ratio is 1 on the full set and log2|A| is 0 on
        # singletons, so the two weight profiles coincide.
        b = Bpa.from_mapping(FRAME, {("A",): 0.4, ("B",): 0.1, ("A", "B", "C"): 0.5})
        assert entropy("qin", b) == pytest.approx(entropy("pal", b), abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_yager_never_exceeds_hohle(self, seed):
        b = random_bpa(random.Random(seed))
        assert entropy("yager", b) <= entropy("hohle", b) + 1e-12

    @pytest.mark.parametrize("seed", range(50))
    def test_profile_evaluation_matches_direct(self, seed):
        b = random_bpa(random.Random(seed))
        sets = tuple(fs for fs, _ in b.entries)
        masses = tuple(m for _, m in b.entries)
        for mid in SEPARABLE_MEASURE_IDS:
            profile = separable_profile(mid, sets, FRAME)
            assert entropy_from_profile(masses, profile) == pytest.approx(
                entropy(mid, b), abs=1e-12
            )


# The Klir kernels sum BetP({x}) or pl({x}) over the x in A, which equals
# the pair sum of the definition in exact arithmetic.  Each form rounds its
# inner sum within a few units of roundoff, and log2 scales that by 1/ln 2;
# the largest deviation seen over 3 000 random BPAs was 6.7e-16.
KLIR_IDENTITY_TOL = 4e-15
KLIR_IDS = ("klir-ramer", "klir-parviz")


def dyadic_bpa(rng: random.Random) -> Bpa:
    """A BPA on 1..8 focal sets of 1, 2 or 4 of 5 labels with masses that are
    multiples of 1/1024, so every sum, product and quotient by a cardinality
    in either Klir form is exact."""
    frame = KERNEL_FRAMES[1]
    sets = [bits for bits in range(1, 32) if bits.bit_count() in (1, 2, 4)]
    chosen = rng.sample(sets, rng.randint(1, 8))
    cuts = sorted(rng.sample(range(1, 1024), len(chosen) - 1))
    units = [b - a for a, b in zip([0, *cuts], [*cuts, 1024])]
    return Bpa(frame, tuple((FocalSet(bits), u / 1024) for bits, u in zip(chosen, units)))


class TestKernelsMatchOracles:
    """Every measure equals its FocalSet-level form exactly (``==``), on
    random BPAs of up to 31 focal sets over 1, 5 and 16 labels; the Klir
    measures, which take a different order of operations, within
    ``KLIR_IDENTITY_TOL``."""

    @pytest.mark.parametrize("frame", KERNEL_FRAMES, ids=lambda f: f"{f.size}-labels")
    def test_measures_are_bit_identical(self, frame):
        rng = random.Random(frame.size)
        for _ in range(30):
            b = random_wide_bpa(rng, frame)
            for mid, oracle in MEASURE_ORACLES.items():
                if mid in KLIR_IDS:
                    assert abs(entropy(mid, b) - oracle(b)) <= KLIR_IDENTITY_TOL, mid
                else:
                    assert entropy(mid, b) == oracle(b), mid
            masses = tuple(m for _, m in b.entries)
            for mid in SEPARABLE_MEASURE_IDS:
                profile = separable_profile(mid, b.focal_sets, frame)
                assert entropy(mid, b) == entropy_from_profile(masses, profile), mid

    @pytest.mark.parametrize("seed", range(20))
    def test_klir_identity_is_exact_on_dyadic_masses(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            b = dyadic_bpa(rng)
            for mid in KLIR_IDS:
                assert entropy(mid, b) == MEASURE_ORACLES[mid](b), (mid, b)

    @pytest.mark.parametrize("mid", KLIR_IDS)
    def test_klir_vacuous_is_positive_zero(self, mid):
        # The sum starts at 0.0 and subtracts 1.0 * log2(1.0): +0.0, which
        # prints as 0.0, not -0.0.
        vacuous = Bpa.from_mapping(FRAME, {("A", "B", "C"): 1.0})
        assert math.copysign(1.0, entropy(mid, vacuous)) == 1.0


class TestApi:
    def test_measure_ids(self):
        assert len(MEASURE_IDS) == 10
        assert set(SEPARABLE_MEASURE_IDS) == {
            "dubois-prade",
            "nguyen",
            "deng",
            "pal",
            "qin",
        }

    def test_measure_resolution_and_call(self):
        m = measure("deng")
        assert m.id == "deng" and m.separable and m.beta == 1.0
        assert measure(m) is m
        assert entropy(m, NESTED) == entropy("deng", NESTED)

    def test_unknown_measure(self):
        with pytest.raises(IvbelError, match="unknown measure id 'shannon'"):
            entropy("shannon", NESTED)

    def test_measure_needs_weight_or_evaluator(self):
        with pytest.raises(IvbelError, match="needs a weight or an evaluator"):
            EntropyMeasure("x")

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    def test_separable_beta_must_be_finite_and_non_negative(self, beta):
        # A negative beta makes the measure convex, and the water-fill
        # weights 2**(k/beta) need a finite beta.
        with pytest.raises(IvbelError, match="measure 'x' needs a finite beta >= 0"):
            EntropyMeasure("x", beta=beta, weight=lambda a, f: 0.0)

    @pytest.mark.parametrize(
        "k, beta, match",
        [
            (math.nan, 1.0, r"measure 'k' gives the non-finite weight nan to \{a\}"),
            (math.inf, 1.0, r"measure 'k' gives the non-finite weight inf to \{a\}"),
            (math.nan, 0.0, r"measure 'k' gives the non-finite weight nan to \{a\}"),
            (1e308, 1.0, None),
            (2.0, 1e-3, None),
        ],
        ids=["nan-k", "inf-k", "nan-k-linear", "huge-k", "overflow"],
    )
    def test_custom_weight_pointwise(self, k, beta, match):
        # entropy reads weights through separable_profile, so it refuses the
        # weights that entropy_bounds refuses, with the same message; weights
        # that only the water-fill cannot use still evaluate pointwise.
        bpa = Bpa.from_mapping(Frame(("a", "b")), {("a",): 0.5, ("b",): 0.5})
        meas = EntropyMeasure("k", beta=beta, weight=lambda a, f: k if a.bits == 1 else 0.0)
        if match is None:
            assert entropy(meas, bpa) == pytest.approx(0.5 * k + beta, rel=1e-12)
        else:
            with pytest.raises(IvbelError, match=match):
                entropy(meas, bpa)

    def test_profile_rejects_non_separable(self):
        with pytest.raises(IvbelError, match="is not separable"):
            separable_profile("yager", (FRAME.full_set,), FRAME)

    def test_profile_values(self):
        sets = (FRAME.singleton("A"), FRAME.subset(("A", "B")), FRAME.full_set)
        assert separable_profile("dubois-prade", sets, FRAME) == (
            (0.0, 0.0),
            (1.0, 0.0),
            (math.log2(3), 0.0),
        )
        assert separable_profile("deng", sets, FRAME)[2] == (math.log2(7), 1.0)

    def test_zero_mass_contributes_nothing(self):
        profile = ((1.5, 1.0), (0.5, 1.0))
        assert entropy_from_profile((0.0, 1.0), profile) == pytest.approx(0.5)
