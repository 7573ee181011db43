"""Dempster's rule and the entropy-bound interval combination."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbel import (
    SEPARABLE_MEASURE_IDS,
    Bpa,
    Frame,
    IvbelError,
    TotalConflictError,
    dempster_combine,
    dempster_combine_n,
    normalize,
    proposed_combine,
    proposed_combine_report,
)
from ivbel.core import MASS_DROP_EPS
from ivbel.reproduce import load_bundled

from helpers import FRAME3, random_bpa, random_normalized_ibs, random_valid_ibs

FRAME = Frame(("A", "B", "C"))


def bpa(mapping):
    return Bpa.from_mapping(FRAME, mapping)


class TestDempster:
    def test_hand_worked_pair(self):
        b1 = bpa({("A",): 0.6, ("A", "B"): 0.4})
        b2 = bpa({("B",): 0.5, ("A", "B", "C"): 0.5})
        combined, conflict = dempster_combine(b1, b2)
        # Conflict: only A x B (0.6 * 0.5).
        assert conflict == pytest.approx(0.3, abs=1e-12)
        assert combined.mass(FRAME.singleton("A")) == pytest.approx(0.3 / 0.7)
        assert combined.mass(FRAME.singleton("B")) == pytest.approx(0.2 / 0.7)
        assert combined.mass(FRAME.subset(("A", "B"))) == pytest.approx(0.2 / 0.7)

    def test_total_conflict(self):
        b1 = bpa({("A",): 1.0})
        # K = 1 - 5e-10 is total conflict too: BPAs only sum to 1 within
        # MASS_SUM_TOL, and no mass survives on a non-empty set.
        for b_mass in (1.0, 1.0 - 5e-10):
            b2 = bpa({("B",): b_mass})
            with pytest.raises(TotalConflictError, match="not combinable: total conflict"):
                dempster_combine(b1, b2)

    @pytest.mark.parametrize(
        "x, y, excess, combinable",
        [
            (2.0**-20, 2.0**-20, 0.0, False),
            (2.0**-20, 2.0**-19, 0.0, True),
            (2.0**-20, MASS_DROP_EPS * 2.0**20, -(2.0**-30), False),
            (2.0**-20, math.nextafter(MASS_DROP_EPS, 1.0) * 2.0**20, -(2.0**-30), True),
            (2.0**-10, 2.0**-20, 2.0**-30, False),
            (2.0**-11, 2.0**-20, 2.0**-30, False),
        ],
        ids=["2^-40", "2^-39", "eps", "just-above-eps", "K=1", "K>1"],
    )
    def test_total_conflict_boundary_is_closed(self, x, y, excess, combinable):
        # Only C meets C, so the surviving mass is exactly x * y.  The second
        # BPA sums to 1 + excess (within MASS_SUM_TOL).  A short sum keeps K
        # near 1 - 2^-30, so the surviving-mass test alone decides the "eps"
        # rows; a long one drives K to 1.0 or above with 2^-30 or 2^-31
        # surviving, which the K test rejects.
        b1 = bpa({("A",): 1.0 - x, ("C",): x})
        b2 = bpa({("B",): 1.0 - y + excess, ("C",): y})
        if combinable:
            combined, _ = dempster_combine(b1, b2)
            assert combined.mass(FRAME.singleton("C")) == pytest.approx(1.0, abs=1e-15)
        else:
            with pytest.raises(TotalConflictError, match="not combinable: total conflict"):
                dempster_combine(b1, b2)

    def test_near_total_conflict_sums_to_one(self):
        # Surviving mass x * y is 1e-12..4e-12, so 1 - K carries a relative
        # rounding error near 1e-4; scaling by the exact surviving mass keeps
        # the combined BPA summing to one.
        rng = random.Random("near-total-conflict")
        for _ in range(5):
            x, y = rng.uniform(1e-6, 2e-6), rng.uniform(1e-6, 2e-6)
            b1 = bpa({("A",): 1.0 - x, ("C",): x})
            b2 = bpa({("B",): 1.0 - y, ("C",): y})
            combined, _ = dempster_combine(b1, b2)
            assert combined.mass(FRAME.singleton("C")) == pytest.approx(1.0, abs=1e-15)

    def test_vacuous_is_neutral(self):
        b = bpa({("A",): 0.6, ("B", "C"): 0.4})
        vacuous = bpa({("A", "B", "C"): 1.0})
        combined, conflict = dempster_combine(b, vacuous)
        assert combined.entries == b.entries
        assert conflict == 0.0

    def test_frames_must_match(self):
        other = Bpa.from_mapping(FRAME3, {("X",): 1.0})
        with pytest.raises(IvbelError, match="share one frame"):
            dempster_combine(bpa({("A",): 1.0}), other)

    def test_fold_requires_input(self):
        with pytest.raises(IvbelError, match="at least one body"):
            dempster_combine_n(())

    def test_fold_single_body_is_identity(self):
        b = bpa({("A",): 0.6, ("B", "C"): 0.4})
        folded, conflict = dempster_combine_n((b,))
        assert folded.entries == b.entries
        assert conflict == 0.0

    def test_fold_cumulative_conflict(self):
        b1 = bpa({("A",): 0.6, ("A", "B"): 0.4})
        b2 = bpa({("B",): 0.5, ("A", "B", "C"): 0.5})
        _, k12 = dempster_combine(b1, b2)
        step1, _ = dempster_combine(b1, b2)
        _, k3 = dempster_combine(step1, b1)
        _, k_total = dempster_combine_n((b1, b2, b1))
        expected = 1.0 - (1.0 - k12) * (1.0 - k3)
        assert k_total == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_commutative(self, seed):
        rng = random.Random(seed)
        b1, b2 = random_bpa(rng), random_bpa(rng)
        try:
            left, kl = dempster_combine(b1, b2)
            right, kr = dempster_combine(b2, b1)
        except TotalConflictError:
            return
        assert kl == pytest.approx(kr, abs=1e-12)
        for fs, m in left.entries:
            assert right.mass(fs) == pytest.approx(m, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_associative(self, seed):
        rng = random.Random(seed)
        b1, b2, b3 = (random_bpa(rng) for _ in range(3))
        try:
            left = dempster_combine(dempster_combine(b1, b2)[0], b3)[0]
            right = dempster_combine(b1, dempster_combine(b2, b3)[0])[0]
        except TotalConflictError:
            return
        for fs, m in left.entries:
            assert right.mass(fs) == pytest.approx(m, abs=1e-10)


class TestProposedCombine:
    def test_bundled_two_body_example_exact(self):
        ev = load_bundled("example4")
        frame = ev.frame
        bodies = [normalize(ibs) for _, ibs in ev.bodies]
        result = proposed_combine(bodies, "pal")
        expected = {
            ("A1",): (0.49, 0.91),
            ("A1", "A2"): (0.05, 0.21),
            ("A1", "A3"): (0.04, 0.21),
            ("A1", "A2", "A3"): (0.0, 0.09),
        }
        assert len(result.entries) == len(expected)
        for labels, (lo, hi) in expected.items():
            got = result.interval(frame.subset(labels))
            assert got[0] == pytest.approx(lo, abs=1e-12)
            assert got[1] == pytest.approx(hi, abs=1e-12)
        assert result.normalized

    def test_report_audit_trail(self):
        ev = load_bundled("example4")
        bodies = [normalize(ibs) for _, ibs in ev.bodies]
        rep = proposed_combine_report(bodies, "pal")
        labels = [name for name, _ in rep.intermediate_bpas]
        assert labels == [
            "body1.max",
            "body1.min",
            "body2.max",
            "body2.min",
            "fold.max",
            "fold.min",
        ]
        # Every focal set here contains A1, so neither fold sees conflict.
        assert rep.conflicts == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_rejects_single_body(self):
        ev = load_bundled("example4")
        body = normalize(ev.bodies[0][1])
        with pytest.raises(IvbelError, match="at least two bodies"):
            proposed_combine((body,))

    def test_rejects_unnormalized_body(self):
        loose = random_valid_ibs(random.Random(7))
        ok = random_normalized_ibs(random.Random(8))
        from ivbel import is_normalized

        assert not is_normalized(loose)
        with pytest.raises(IvbelError, match="body 1 is not normalized"):
            proposed_combine((loose, ok))

    @pytest.mark.parametrize("m", SEPARABLE_MEASURE_IDS)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_output_hull_is_already_tight(self, m, seed):
        """The folded max/min BPAs share a support, and the interval hull of
        two BPAs on a shared support is always tight, under every separable
        measure; so the result needs no renormalization."""
        rng = random.Random(seed)
        bodies = [random_normalized_ibs(rng) for _ in range(rng.randint(2, 3))]
        try:
            rep = proposed_combine_report(bodies, m)
        except TotalConflictError:
            return
        assert rep.result.normalized

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_permutation_invariant(self, seed):
        rng = random.Random(seed)
        bodies = [random_normalized_ibs(rng) for _ in range(3)]
        try:
            forward = proposed_combine(bodies, "pal")
        except TotalConflictError:
            return
        shuffled = list(bodies)
        rng.shuffle(shuffled)
        back = proposed_combine(shuffled, "pal")
        assert len(forward.entries) == len(back.entries)
        for fs, lo, hi in forward.entries:
            lo2, hi2 = back.interval(fs)
            assert lo2 == pytest.approx(lo, abs=1e-10)
            assert hi2 == pytest.approx(hi, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_interval_spans_both_folds(self, seed):
        rng = random.Random(seed)
        bodies = [random_normalized_ibs(rng) for _ in range(2)]
        try:
            rep = proposed_combine_report(bodies, "pal")
        except TotalConflictError:
            return
        stage = dict(rep.intermediate_bpas)
        for fs, lo, hi in rep.result.entries:
            a = stage["fold.max"].mass(fs)
            b = stage["fold.min"].mass(fs)
            assert lo == pytest.approx(min(a, b), abs=1e-12)
            assert hi == pytest.approx(max(a, b), abs=1e-12)
