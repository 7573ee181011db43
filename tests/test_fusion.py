"""Dempster's rule and the entropy-bound interval combination."""

import math
import random

import pytest

from ivbel import (
    SEPARABLE_MEASURE_IDS,
    Bpa,
    Frame,
    IntervalMassResult,
    IvbelError,
    TotalConflictError,
    combine,
    degenerate_bpa,
    dempster_combine,
    dempster_combine_n,
    denoeux_combine,
    denoeux_normalize,
    leezhu_combine,
    normalize,
    proposed_combine_report,
    song_combine,
    wang_combine,
)
from ivbel.core import MASS_DROP_EPS
from ivbel.formats import METHODS
from ivbel.reproduce import load_bundled

from helpers import FRAME3, point_body, random_bpa, random_normalized_ibs, random_valid_ibs

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

    @pytest.mark.parametrize("seed", range(80))
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

    @pytest.mark.parametrize("seed", range(80))
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
        result = proposed_combine_report(bodies, "pal").result
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
        labels = [name for name, _ in rep.stages]
        assert labels == [
            "body1.max",
            "body1.min",
            "body2.max",
            "body2.min",
            "fold.max",
            "fold.min",
        ]
        # Every focal set here contains A1, so neither fold sees conflict.
        assert [label for label, _, _ in rep.conflicts] == ["fold.max", "fold.min"]
        for _, lo, hi in rep.conflicts:
            assert lo == hi == pytest.approx(0.0, abs=1e-12)

    def test_rejects_single_body(self):
        ev = load_bundled("example4")
        body = normalize(ev.bodies[0][1])
        with pytest.raises(IvbelError, match="at least two bodies"):
            proposed_combine_report((body,)).result

    def test_rejects_unnormalized_body(self):
        loose = random_valid_ibs(random.Random(7))
        ok = random_normalized_ibs(random.Random(8))
        from ivbel import is_normalized

        assert not is_normalized(loose)
        with pytest.raises(IvbelError, match="body 1 is not normalized"):
            proposed_combine_report((loose, ok)).result

    @pytest.mark.parametrize("m", SEPARABLE_MEASURE_IDS)
    @pytest.mark.parametrize("seed", range(60))
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

    @pytest.mark.parametrize("seed", range(30))
    def test_permutation_invariant(self, seed):
        rng = random.Random(seed)
        bodies = [random_normalized_ibs(rng) for _ in range(3)]
        try:
            forward = proposed_combine_report(bodies, "pal").result
        except TotalConflictError:
            return
        shuffled = list(bodies)
        rng.shuffle(shuffled)
        back = proposed_combine_report(shuffled, "pal").result
        assert len(forward.entries) == len(back.entries)
        for fs, lo, hi in forward.entries:
            lo2, hi2 = back.interval(fs)
            assert lo2 == pytest.approx(lo, abs=1e-10)
            assert hi2 == pytest.approx(hi, abs=1e-10)

    @pytest.mark.parametrize("seed", range(40))
    def test_interval_spans_both_folds(self, seed):
        rng = random.Random(seed)
        bodies = [random_normalized_ibs(rng) for _ in range(2)]
        try:
            rep = proposed_combine_report(bodies, "pal")
        except TotalConflictError:
            return
        stage = dict(rep.stages)
        # Each fold's conflict is a point: the K of its Dempster fold.
        conflicts = {label: (lo, hi) for label, lo, hi in rep.conflicts}
        for kind in ("max", "min"):
            k = dempster_combine_n([stage[f"body1.{kind}"], stage[f"body2.{kind}"]])[1]
            assert conflicts[f"fold.{kind}"] == (k, k)
        for fs, lo, hi in rep.result.entries:
            a = stage["fold.max"].mass(fs)
            b = stage["fold.min"].mass(fs)
            assert lo == pytest.approx(min(a, b), abs=1e-12)
            assert hi == pytest.approx(max(a, b), abs=1e-12)


def _dempster_kernel(bodies):
    combined, _ = dempster_combine_n([degenerate_bpa(b) for b in bodies])
    return IntervalMassResult(combined.frame, tuple((fs, m, m) for fs, m in combined.entries))


# Each method's kernel call, on the bodies the command line hands to combine.
KERNELS = {
    "proposed": lambda bodies: proposed_combine_report(bodies, "pal").result,
    "wang": wang_combine,
    "denoeux": lambda bodies: denoeux_normalize(denoeux_combine(*bodies)),
    "leezhu": lambda bodies: leezhu_combine(*bodies, 2.0),
    "song": song_combine,
    "dempster": _dempster_kernel,
}
BUNDLED = ("example31", "example32", "example33", "example4", "example5", "example6")


class TestCombine:
    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("method", METHODS)
    def test_result_is_the_kernels(self, method, name):
        raw = [body for _, body in load_bundled(name).bodies]
        # As on the command line: leezhu combines the bodies as given.
        bodies = raw if method == "leezhu" else [normalize(b) for b in raw]
        if method == "dempster" and not all(b.is_degenerate() for b in bodies):
            with pytest.raises(IvbelError, match="needs point-valued evidence"):
                combine(method, bodies)
            return
        assert combine(method, bodies).result == KERNELS[method](bodies)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_engine_refuses_one_body(self, method):
        # Point-valued, so dempster's own refusal of interval bodies is moot.
        body = point_body(bpa({("A",): 0.6, ("B", "C"): 0.4}))
        with pytest.raises(IvbelError, match="^no evidence: need at least two bodies to combine$"):
            combine(method, [body])

    @pytest.mark.parametrize("method", ["denoeux", "leezhu"])
    def test_two_body_engines_refuse_three(self, method):
        bodies = [normalize(b) for _, b in load_bundled("example5").bodies]
        with pytest.raises(IvbelError, match=f"^{method} combines exactly two bodies$"):
            combine(method, bodies + bodies[:1])

    def test_dempster_names_the_interval_body(self):
        bodies = [normalize(b) for _, b in load_bundled("example4").bodies]
        with pytest.raises(IvbelError, match="point-valued evidence .*; body 1 has interval bounds"):
            combine("dempster", bodies)

    def test_unknown_method_names_the_valid_ones(self):
        bodies = [normalize(b) for _, b in load_bundled("example5").bodies]
        with pytest.raises(IvbelError, match="unknown method 'yager'; expected one of proposed, "):
            combine("yager", bodies)
