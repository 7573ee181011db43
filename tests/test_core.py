"""Frames, focal sets, BPAs, interval structures, and normalization."""

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ivbel
from ivbel import (
    EMPTY_SET,
    Bpa,
    FocalSet,
    Frame,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    NormalizationError,
    bel,
    contains,
    degenerate_bpa,
    is_normalized,
    normalize,
    pignistic,
    pl,
    plausibility_transform,
    validate_ibs,
)
from ivbel.core import (
    MASS_SUM_TOL,
    _rescale_proportionally,
    _tighten_bounds,
    normalization_steps,
)

from helpers import (
    KERNEL_FRAMES,
    bel_oracle,
    pignistic_oracle,
    pl_oracle,
    point_body,
    random_bpa,
    random_valid_ibs,
    random_wide_bpa,
)

FRAME = Frame(("A", "B", "C"))


class TestFocalSet:
    def test_bit_operations(self):
        a = FocalSet(0b011)
        b = FocalSet(0b110)
        assert (a & b).bits == 0b010
        assert (a | b).bits == 0b111
        assert a.cardinality == 2
        assert not a.issubset(b)
        assert FocalSet(0b010).issubset(a)
        assert 0 in a and 2 not in a

    def test_empty_set(self):
        assert EMPTY_SET.is_empty
        assert EMPTY_SET.cardinality == 0
        assert EMPTY_SET.issubset(FocalSet(0b1))

    def test_negative_bits_rejected(self):
        with pytest.raises(IvbelError):
            FocalSet(-1)


class TestFrame:
    def test_labels_and_subsets(self):
        assert FRAME.size == 3
        assert FRAME.full_set.bits == 0b111
        assert FRAME.singleton("B").bits == 0b010
        assert FRAME.subset(("A", "C")).bits == 0b101
        assert FRAME.members(FocalSet(0b101)) == ("A", "C")
        assert FRAME.format_set(FocalSet(0b101)) == "{A,C}"
        assert FRAME.format_set(EMPTY_SET) == "{}"
        assert FRAME.complement(FocalSet(0b001)).bits == 0b110

    def test_duplicate_label_in_set(self):
        with pytest.raises(IvbelError, match="duplicate label"):
            FRAME.subset(("A", "A"))

    def test_unknown_label(self):
        with pytest.raises(IvbelError, match="unknown label"):
            FRAME.singleton("D")

    def test_duplicate_frame_label(self):
        with pytest.raises(IvbelError, match="duplicate label"):
            Frame(("A", "A"))

    def test_frame_size_limits(self):
        with pytest.raises(IvbelError):
            Frame(())
        with pytest.raises(IvbelError):
            Frame(tuple(f"E{i}" for i in range(17)))
        assert Frame(tuple(f"E{i}" for i in range(16))).size == 16

    def test_labels_from_a_list(self):
        frame = Frame(["A", "B"])
        assert frame.labels == ("A", "B") and frame == Frame(("A", "B"))

    def test_empty_label_rejected(self):
        with pytest.raises(IvbelError, match="non-empty strings, got ''"):
            Frame(("A", ""))

    def test_foreign_set_rejected(self):
        small = Frame(("A",))
        with pytest.raises(IvbelError, match="not a subset"):
            small.members(FocalSet(0b10))


class TestBpa:
    def test_mass_lookup_and_order(self):
        b = Bpa.from_mapping(FRAME, {("B",): 0.3, ("A",): 0.5, ("A", "B", "C"): 0.2})
        assert [fs.bits for fs, _ in b.entries] == [0b001, 0b010, 0b111]
        assert b.mass(FRAME.singleton("A")) == 0.5
        assert b.mass(FRAME.subset(("A", "B"))) == 0.0

    def test_duplicates_merge(self):
        b = Bpa(FRAME, ((FocalSet(0b1), 0.25), (FocalSet(0b1), 0.25), (FocalSet(0b110), 0.5)))
        assert b.mass(FocalSet(0b1)) == 0.5
        # Duplicates add from 0.0 in input order, under the first one's set.
        sets = (FocalSet(0b1), FocalSet(0b1), FocalSet(0b1), FocalSet(0b110))
        b = Bpa(FRAME, tuple(zip(sets, (0.1, 0.2, 0.3, 0.4))))
        assert b.entries[0][0] is sets[0]
        assert b.mass(sets[0]) == 0.0 + 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1

    def test_keeps_the_callers_focal_sets(self):
        sets = (FocalSet(0b110), FocalSet(0b1), FocalSet(0b10))
        b = Bpa(FRAME, tuple(zip(sets, (0.5, 0.3, 0.2))))
        assert [fs.bits for fs in b.focal_sets] == [0b1, 0b10, 0b110]
        assert all(kept is given for kept, given in zip(b.focal_sets, sets[1:] + sets[:1]))

    def test_sum_enforced(self):
        with pytest.raises(IvbelError, match="sum to 1"):
            Bpa.from_mapping(FRAME, {("A",): 0.5, ("B",): 0.4})

    def test_negative_mass_rejected(self):
        with pytest.raises(IvbelError, match="negative or NaN mass -0.1 for focal set 0x2"):
            Bpa.from_mapping(FRAME, {("A",): 1.1, ("B",): -0.1})
        with pytest.raises(IvbelError, match="negative or NaN mass nan for focal set 0x1"):
            Bpa(FRAME, ((FocalSet(1), math.nan), (FocalSet(2), 1.0)))

    def test_empty_set_rejected(self):
        with pytest.raises(IvbelError, match="empty set"):
            Bpa(FRAME, ((EMPTY_SET, 0.5), (FocalSet(0b1), 0.5)))

    def test_tiny_masses_dropped(self):
        b = Bpa.from_mapping(FRAME, {("A",): 1.0, ("B",): 1e-13})
        assert len(b.entries) == 1

    def test_all_zero_masses_rejected(self):
        with pytest.raises(IvbelError, match="at least one focal set with positive mass"):
            Bpa.from_mapping(FRAME, {("A",): 0.0, ("B",): 0.0})

    def test_from_mapping_key_forms(self):
        b = Bpa.from_mapping(FRAME, {FocalSet(0b110): 0.4, "A": 0.6})
        assert b.entries == ((FocalSet(0b001), 0.6), (FocalSet(0b110), 0.4))

    def test_bel_pl_duality(self):
        b = Bpa.from_mapping(FRAME, {("A",): 0.5, ("A", "B"): 0.3, ("A", "B", "C"): 0.2})
        for labels in (("A",), ("B",), ("A", "C")):
            a = FRAME.subset(labels)
            assert bel(b, a) + pl(b, FRAME.complement(a)) == pytest.approx(1.0)
        assert bel(b, FRAME.subset(("A",))) == pytest.approx(0.5)
        assert pl(b, FRAME.subset(("B",))) == pytest.approx(0.5)

    def test_pignistic(self):
        b = Bpa.from_mapping(FRAME, {("A",): 0.5, ("A", "B"): 0.3, ("A", "B", "C"): 0.2})
        p = pignistic(b)
        assert all(fs.cardinality == 1 for fs in p.focal_sets)
        assert p.mass(FRAME.singleton("A")) == pytest.approx(0.5 + 0.15 + 0.2 / 3)
        assert p.mass(FRAME.singleton("B")) == pytest.approx(0.15 + 0.2 / 3)
        assert p.mass(FRAME.singleton("C")) == pytest.approx(0.2 / 3)

    def test_plausibility_transform(self):
        b = Bpa.from_mapping(FRAME, {("A",): 0.5, ("A", "B"): 0.3, ("A", "B", "C"): 0.2})
        p = plausibility_transform(b)
        total = 1.0 + 0.5 + 0.2
        assert p.mass(FRAME.singleton("A")) == pytest.approx(1.0 / total)
        assert p.mass(FRAME.singleton("C")) == pytest.approx(0.2 / total)


class TestBitKernels:
    """bel, pl and pignistic equal their FocalSet-level forms exactly, and
    the subset check refuses every set with a bit outside the frame."""

    @pytest.mark.parametrize("frame", KERNEL_FRAMES, ids=lambda f: f"{f.size}-labels")
    def test_bel_pl_pignistic_are_bit_identical(self, frame):
        rng = random.Random(frame.size)
        full = frame.full_set
        for _ in range(30):
            b = random_wide_bpa(rng, frame)
            queries = [*b.focal_sets, EMPTY_SET, full, FocalSet(1 << (frame.size - 1))]
            queries += [FocalSet(rng.randint(1, full.bits)) for _ in range(10)]
            for a in queries:
                assert bel(b, a) == bel_oracle(b, a)
                assert pl(b, a) == pl_oracle(b, a)
            assert pignistic(b) == pignistic_oracle(b)

    @pytest.mark.parametrize("frame", KERNEL_FRAMES, ids=lambda f: f"{f.size}-labels")
    def test_out_of_frame_set_refused(self, frame):
        b = Bpa(frame, ((frame.full_set, 1.0),))
        top = 1 << frame.size
        for bad in (FocalSet(top), FocalSet(top | 1), FocalSet(top << 20 | top - 1)):
            # With several entries, in any input order, the message names the
            # out-of-frame set with the highest bits: the last in canonical order.
            sets = [bad, frame.full_set, *(FocalSet(x) for x in (top, top | 1) if x < bad.bits)]
            share = 1.0 / len(sets)
            calls = (
                lambda: Bpa(frame, ((bad, 1.0),)),
                lambda: Bpa(frame, tuple((s, share) for s in sets)),
                lambda: IntervalBeliefStructure(frame, ((bad, 0.0, 1.0),)),
                lambda: IntervalBeliefStructure(frame, tuple((s, 0.0, 1.0) for s in sets)),
                lambda: IntervalMassResult(frame, ((bad, 0.0, 1.0),)),
                lambda: IntervalMassResult(frame, tuple((s, 0.0, share) for s in sets[::-1])),
                lambda: bel(b, bad),
                lambda: pl(b, bad),
                lambda: frame.members(bad),
            )
            for call in calls:
                with pytest.raises(IvbelError) as exc:
                    call()
                assert str(exc.value) == (
                    f"set {bad.bits:#x} is not a subset of a {frame.size}-element frame"
                )


class TestIntervalStructure:
    def test_interval_lookup(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.2, 0.5), ("B", "C"): (0.3, 0.8)}
        )
        assert ibs.interval(FRAME.singleton("A")) == (0.2, 0.5)
        assert ibs.interval(FRAME.singleton("B")) == (0.0, 0.0)
        assert ibs.lower_bounds == (0.2, 0.3)
        assert ibs.upper_bounds == (0.5, 0.8)

    def test_derived_tuples_leave_identity_alone(self):
        # focal_sets, lower_bounds and upper_bounds are cached on first read;
        # equality, hashing and repr still read the fields only.
        entries = ((FRAME.singleton("A"), 0.2, 0.5), (FRAME.subset(("B", "C")), 0.3, 0.8))
        read, fresh = IntervalBeliefStructure(FRAME, entries), IntervalBeliefStructure(FRAME, entries)
        assert (read.focal_sets, read.lower_bounds, read.upper_bounds) == (
            (FRAME.singleton("A"), FRAME.subset(("B", "C"))),
            (0.2, 0.3),
            (0.5, 0.8),
        )
        assert read.lower_bounds is read.lower_bounds and read.focal_sets is read.focal_sets
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        bpa = Bpa.from_mapping(FRAME, {("A",): 0.6, ("B", "C"): 0.4})
        assert bpa.focal_sets == (FRAME.singleton("A"), FRAME.subset(("B", "C")))
        fresh_bpa = Bpa.from_mapping(FRAME, {("A",): 0.6, ("B", "C"): 0.4})
        assert bpa == fresh_bpa and hash(bpa) == hash(fresh_bpa) and repr(bpa) == repr(fresh_bpa)

    @pytest.mark.parametrize(
        "cls, other, values",
        [
            (Bpa, type("BpaTwin", (Bpa,), {}), ((0.6,), (0.4,))),
            (IntervalBeliefStructure, IntervalMassResult, ((0.6, 0.6), (0.4, 0.4))),
            (IntervalMassResult, IntervalBeliefStructure, ((0.6, 0.6), (0.4, 0.4))),
        ],
        ids=["bpa", "body", "result"],
    )
    def test_containers_keep_the_generated_methods(self, cls, other, values):
        # Bpa and IntervalBeliefStructure inherit _Entries' methods;
        # IntervalMassResult adds fields.
        sets = (FRAME.singleton("A"), FRAME.subset(("B", "C")))
        entries = tuple((fs, *v) for fs, v in zip(sets, values))
        a, b = cls(FRAME, entries), cls(FRAME, entries)
        assert a == b and hash(a) == hash(b)
        assert a != other(FRAME, entries)
        extra = ("includes_empty", "normalized") if cls is IntervalMassResult else ()
        fields = ("frame", "entries", *extra)
        assert a._fields == fields and hash(a) == hash(tuple(getattr(a, f) for f in fields))
        shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
        assert repr(a) == f"{cls.__name__}({shown})"
        copy = cls(Frame(FRAME.labels), *(getattr(a, f) for f in fields[1:]))
        assert type(copy) is cls and copy == a
        with pytest.raises(AttributeError, match="frozen"):
            a.entries = ()
        # Not a field either: no attribute may be added or removed.
        with pytest.raises(AttributeError, match="frozen"):
            a.note = 1
        with pytest.raises(AttributeError, match="frozen"):
            del a.frame
        assert a == b and not hasattr(a, "note")

    def test_bound_order_enforced(self):
        with pytest.raises(IvbelError, match="violates"):
            IntervalBeliefStructure.from_mapping(FRAME, {("A",): (0.6, 0.5), ("B",): (0, 1)})

    def test_duplicate_focal_set_rejected(self):
        with pytest.raises(IvbelError, match="duplicate focal set"):
            IntervalBeliefStructure(
                FRAME, ((FocalSet(0b1), 0.1, 0.2), (FocalSet(0b1), 0.3, 0.4))
            )

    def test_empty_focal_set_rejected(self):
        with pytest.raises(IvbelError, match="empty set"):
            IntervalBeliefStructure(FRAME, ((EMPTY_SET, 0.1, 0.2),))

    def test_no_entries_rejected(self):
        with pytest.raises(IvbelError, match="at least one focal set"):
            IntervalBeliefStructure(FRAME, ())

    @pytest.mark.parametrize("bounds", [(-0.1, 0.2), (0.5, 0.2), (0.2, 1.5)])
    def test_result_empty_interval_out_of_range(self, bounds):
        with pytest.raises(IvbelError, match="empty-set interval .* out of range"):
            IntervalMassResult(FRAME, ((FRAME.full_set, 0.2, 0.7),), includes_empty=bounds)

    def test_tight_result_reads_normalized_without_the_keyword(self):
        tight = ((FRAME.singleton("A"), 0.2, 0.5), (FRAME.subset(("B", "C")), 0.5, 0.8))
        assert is_normalized(IntervalBeliefStructure(FRAME, tight))
        assert IntervalMassResult(FRAME, tight).normalized is True
        assert IntervalMassResult(FRAME, tight, normalized=False).normalized is False

    def test_normalized_claim_on_loose_entries_reads_false(self):
        loose = ((FRAME.singleton("A"), 0.2, 0.9), (FRAME.subset(("B", "C")), 0.3, 0.8))
        assert not is_normalized(IntervalBeliefStructure(FRAME, loose))
        assert IntervalMassResult(FRAME, loose, normalized=True).normalized is False
        assert IntervalMassResult(FRAME, (), normalized=True).normalized is False

    def test_result_reads_like_a_body(self):
        entries = ((FRAME.singleton("A"), 0.6, 0.8), (FRAME.subset(("B", "C")), 0.2, 0.4))
        result = IntervalMassResult(FRAME, entries, includes_empty=(0.0, 0.2))
        assert (result.lower_bounds, result.upper_bounds) == ((0.6, 0.2), (0.8, 0.4))
        assert not result.is_degenerate() and result.is_degenerate(tol=0.25)
        assert validate_ibs(result) and result.normalized

    def test_degenerate_round_trip(self):
        b = Bpa.from_mapping(FRAME, {("A",): 0.6, ("B", "C"): 0.4})
        ibs = point_body(b)
        assert ibs.is_degenerate()
        back = degenerate_bpa(ibs)
        assert back.entries == b.entries
        with pytest.raises(IvbelError, match="non-degenerate"):
            degenerate_bpa(
                IntervalBeliefStructure.from_mapping(
                    FRAME, {("A",): (0.2, 0.9), ("B",): (0.1, 0.8)}
                )
            )
        with pytest.raises(IvbelError, match="must sum to 1"):
            degenerate_bpa(
                IntervalBeliefStructure.from_mapping(FRAME, {("A",): (0.3, 0.3), ("B",): (0.3, 0.3)})
            )

    @pytest.mark.parametrize(
        "bounds",
        [[(0.1 - 9e-10, 0.1)] * 10, [(1.0 - 1e-9, 1.0)] + [(0.0, 1e-9)] * 15],
        ids=["ten-short-singletons", "one-major-fifteen-slivers"],
    )
    def test_degenerate_bpa_sums_to_one_when_the_midpoints_miss(self, bounds):
        # Widths within MASS_SUM_TOL, but the midpoints miss a unit total by
        # more than it; the BPA is then the point of the box that sums to one.
        frame = Frame(tuple(f"E{i}" for i in range(len(bounds))))
        body = IntervalBeliefStructure(
            frame, tuple((frame.singleton(f"E{i}"), lo, hi) for i, (lo, hi) in enumerate(bounds))
        )
        assert body.is_degenerate() and validate_ibs(body) and is_normalized(body)
        assert abs(math.fsum((lo + hi) / 2.0 for lo, hi in bounds) - 1.0) > MASS_SUM_TOL
        masses = [degenerate_bpa(body).mass(fs) for fs in body.focal_sets]
        assert abs(math.fsum(masses) - 1.0) <= MASS_SUM_TOL
        assert contains(body, masses)


class TestValidity:
    def test_valid_structure(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.5, 0.8), ("B", "C"): (0.3, 0.4)}
        )
        assert validate_ibs(ibs).ok

    def test_lower_sum_too_large(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.7, 0.8), ("B",): (0.6, 0.7)}
        )
        verdict = validate_ibs(ibs)
        assert not verdict
        assert "lower bounds" in verdict.reason

    def test_upper_sum_too_small(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.1, 0.3), ("B",): (0.1, 0.4)}
        )
        verdict = validate_ibs(ibs)
        assert not verdict
        assert "upper bounds" in verdict.reason

    @pytest.mark.parametrize(
        "total, accepted",
        [
            (1.0 + MASS_SUM_TOL, True),
            (math.nextafter(1.0 + MASS_SUM_TOL, 2.0), False),
            (1.0 - MASS_SUM_TOL, True),
            (math.nextafter(1.0 - MASS_SUM_TOL, 0.0), False),
        ],
        ids=["sum-1+tol", "just-above", "sum-1-tol", "just-below"],
    )
    def test_sum_tolerance_is_closed(self, total, accepted):
        # total - 0.5 is exact (Sterbenz), so the bounds sum to total exactly.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.5, 0.5), ("B",): (total - 0.5, total - 0.5)}
        )
        assert math.fsum(ibs.lower_bounds) == total
        assert validate_ibs(ibs).ok is accepted
        assert is_normalized(ibs) is accepted


class TestNormalization:
    def test_tighten_collapses_when_lower_sum_is_one(self):
        # Lower bounds already sum to one, so each interval collapses to it.
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.5, 0.8), ("B", "C"): (0.3, 0.4), ("A", "B", "C"): (0.2, 0.5)}
        )
        out = normalize(ibs)
        assert out.is_degenerate()
        assert out.lower_bounds == pytest.approx((0.5, 0.3, 0.2))

    def test_tighten_is_exact_coordinate_extrema(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.1, 0.9), ("B",): (0.05, 0.5), ("C",): (0.0, 0.3)}
        )
        out = _tighten_bounds(ibs)
        # lo_A: max(0.1, 1 - 0.5 - 0.3); hi_A: min(0.9, 1 - 0.05 - 0.0)
        assert out.interval(FRAME.singleton("A")) == pytest.approx((0.2, 0.9))
        assert out.interval(FRAME.singleton("B")) == pytest.approx((0.05, 0.5))
        assert out.interval(FRAME.singleton("C")) == pytest.approx((0.0, 0.3))

    def test_rescale_restores_straddle(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.7, 0.8), ("B",): (0.6, 0.7)}
        )
        out = _rescale_proportionally(ibs)
        assert math.fsum(out.lower_bounds) <= 1.0 <= math.fsum(out.upper_bounds)
        # lo_A / (lo_A + hi_B), hi_A / (hi_A + lo_B)
        assert out.interval(FRAME.singleton("A")) == pytest.approx(
            (0.7 / 1.4, 0.8 / 1.4)
        )

    def test_normalize_on_invalid_then_tightens(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.7, 0.8), ("B",): (0.6, 0.7)}
        )
        out = normalize(ibs)
        assert validate_ibs(out).ok
        assert is_normalized(out)

    @pytest.mark.parametrize(
        "bounds, steps",
        [
            ({("A",): (0.2, 0.4), ("B",): (0.6, 0.8)}, ()),
            ({("A",): (0.1, 0.9), ("B",): (0.05, 0.5), ("C",): (0.0, 0.3)}, ("tightened bounds",)),
            ({("A",): (0.7, 0.8), ("B",): (0.6, 0.7), ("C",): (0.1, 0.2)}, ("rescaled proportionally",)),
            (
                {("A",): (0.0, 0.3), ("B",): (0.0, 0.0)},
                ("rescaled proportionally", "tightened bounds"),
            ),
            # Rescaling leaves lo_A one ulp below 0.5, inside MASS_SUM_TOL.
            ({("A",): (0.6, 1.0), ("B",): (0.5, 0.6)}, ("rescaled proportionally",)),
        ],
    )
    def test_normalization_steps_report_normalize(self, bounds, steps):
        ibs = IntervalBeliefStructure.from_mapping(FRAME, bounds)
        out, taken = normalization_steps(ibs)
        assert taken == steps
        assert out == normalize(ibs)

    def test_normalize_rejects_empty_intervals(self):
        bad = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.0, 0.0), ("B",): (0.0, 0.0)}
        )
        with pytest.raises(NormalizationError):
            normalize(bad)

    def test_normalized_passthrough_is_identical(self):
        ibs = IntervalBeliefStructure.from_mapping(
            FRAME, {("A",): (0.2, 0.4), ("B",): (0.3, 0.5), ("C",): (0.1, 0.3), ("A", "B", "C"): (0.0, 0.4)}
        )
        assert is_normalized(ibs)
        assert normalize(ibs) is ibs

    @pytest.mark.parametrize("seed", range(60))
    def test_normalize_idempotent_and_tight(self, seed):
        rng = random.Random(seed)
        ibs = random_valid_ibs(rng)
        once = normalize(ibs)
        assert validate_ibs(once).ok
        assert is_normalized(once)
        twice = normalize(once)
        for (_, lo1, hi1), (_, lo2, hi2) in zip(once.entries, twice.entries):
            assert lo1 == pytest.approx(lo2, abs=1e-12)
            assert hi1 == pytest.approx(hi2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(60))
    def test_normalize_never_widens_valid_input(self, seed):
        rng = random.Random(seed)
        ibs = random_valid_ibs(rng)
        out = normalize(ibs)
        for (fs, lo, hi), (fs2, lo2, hi2) in zip(ibs.entries, out.entries):
            assert fs == fs2
            assert lo2 >= lo - 1e-12
            assert hi2 <= hi + 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_degenerate_bpa_of_random_point(self, seed):
        rng = random.Random(seed)
        b = random_bpa(rng)
        assert degenerate_bpa(point_body(b)).entries == b.entries


# Run in a fresh interpreter, on one evidence file: each step names the
# modules it must leave unloaded.
_IMPORT_BOUNDARIES = """
import contextlib, io, sys


def unloaded(*names):
    loaded = [name for name in names if name in sys.modules]
    assert not loaded, loaded


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ivbel.cli.main([*argv, sys.argv[1]]) == 0


import ivbel
import ivbel.cli

unloaded("numpy", "dataclasses", "inspect")
run("validate")
run("normalize")
unloaded(*(f"ivbel.{m}" for m in ("fusion", "optimize", "polytope", "reference", "reproduce")))
from ivbel import polytope  # not a public name: the submodule

assert polytope is sys.modules["ivbel.polytope"]
run("entropy")
unloaded("ivbel.fusion", "ivbel.reference", "ivbel.reproduce")
assert ivbel.entropy is sys.modules["ivbel.entropy"].entropy
"""


def test_imports_load_only_what_runs():
    """The package loads neither numpy (no module in it or in the tests
    imports numpy), ``dataclasses`` nor an engine module that a command
    does not run."""
    src = Path(ivbel.__file__).resolve().parents[1]
    data = src / "ivbel" / "data" / "example4.json"
    subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARIES, str(data)],
        check=True,
        env={"PYTHONPATH": str(src)},
    )
