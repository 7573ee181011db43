"""Core types for evidence over finite frames.

A frame of discernment is an ordered set of at most 16 labels.  Subsets of
the frame are represented as bit patterns: bit ``i`` set means the ``i``-th
frame element is in the subset.  A basic probability assignment (BPA) maps
non-empty subsets to masses summing to one.  An interval-valued belief
structure assigns a ``[lo, hi]`` bound pair to each focal set instead of a
point mass.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import lt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "MASS_SUM_TOL",
    "MASS_DROP_EPS",
    "IvbelError",
    "NormalizationError",
    "TotalConflictError",
    "SchemaError",
    "Frame",
    "FocalSet",
    "EMPTY_SET",
    "Bpa",
    "IntervalBeliefStructure",
    "IntervalMassResult",
    "ValidityVerdict",
    "validate_ibs",
    "is_normalized",
    "normalize",
    "normalization_steps",
    "degenerate_bpa",
    "bel",
    "pl",
    "pignistic",
    "plausibility_transform",
]

# Masses must sum to 1 within this tolerance.
MASS_SUM_TOL = 1e-9
# The mass that counts as none: a body or fold whose surviving mass is at most
# this has nothing left to divide by, and a mass below its negative is refused.
MASS_DROP_EPS = 1e-12


class IvbelError(ValueError):
    """Base error for invalid evidence structures or operations."""


class NormalizationError(IvbelError):
    """Raised when a structure cannot be normalized."""


class TotalConflictError(IvbelError):
    """Raised when evidence bodies are totally conflicting."""


class SchemaError(IvbelError):
    """Raised when an evidence file violates the input schema."""


class _Frozen:
    """A value whose fields, named in ``_fields``, are set once in
    ``__init__`` through ``object.__setattr__``.

    It equals only an instance of its own class with equal fields, hashes as
    the tuple of its fields, and refuses to have any attribute assigned or
    deleted.  ``cached_property`` writes the instance ``__dict__`` directly,
    so it still works; pickle and copy restore that ``__dict__`` the same way.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


class FocalSet(_Frozen):
    """A subset of a frame, as a bit pattern over the frame's elements.

    ``bits == 0`` denotes the empty set.  Containers (:class:`Bpa`,
    :class:`IntervalBeliefStructure`) reject empty focal sets; the value
    itself allows them so queries and conflict bookkeeping can use them.
    """

    _fields = ("bits",)

    def __init__(self, bits: int) -> None:
        if bits < 0:
            raise IvbelError(f"focal set bits must be non-negative, got {bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def __and__(self, other: "FocalSet") -> "FocalSet":
        return FocalSet(self.bits & other.bits)

    def __or__(self, other: "FocalSet") -> "FocalSet":
        return FocalSet(self.bits | other.bits)

    def issubset(self, other: "FocalSet") -> bool:
        return self.bits & ~other.bits == 0

    def __contains__(self, element_index: int) -> bool:
        return bool(self.bits >> element_index & 1)


EMPTY_SET = FocalSet(0)


class Frame(_Frozen):
    """An ordered frame of discernment with up to 16 distinct labels.

    The label order is canonical and fixed at construction; bit ``i`` of any
    :class:`FocalSet` over this frame refers to ``labels[i]``.
    """

    _fields = ("labels",)

    def __init__(self, labels: Iterable[str]) -> None:
        labels = tuple(labels)
        if not 1 <= len(labels) <= 16:
            raise IvbelError(f"frame must have 1..16 elements, got {len(labels)}")
        seen: set[str] = set()
        for label in labels:
            if not isinstance(label, str) or not label:
                raise IvbelError(f"frame labels must be non-empty strings, got {label!r}")
            if label in seen:
                raise IvbelError(f"duplicate label {label!r} in frame")
            seen.add(label)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def full_set(self) -> FocalSet:
        return FocalSet((1 << self.size) - 1)

    def singleton(self, label: str) -> FocalSet:
        return FocalSet(1 << self._index(label))

    def subset(self, labels: Iterable[str]) -> FocalSet:
        bits = 0
        for label in labels:
            bit = 1 << self._index(label)
            if bits & bit:
                raise IvbelError(f"duplicate label {label!r} in set")
            bits |= bit
        return FocalSet(bits)

    def complement(self, a: FocalSet) -> FocalSet:
        self._check_subset(a)
        return FocalSet(self.full_set.bits & ~a.bits)

    def members(self, a: FocalSet) -> tuple[str, ...]:
        self._check_subset(a)
        return tuple(label for i, label in enumerate(self.labels) if a.bits >> i & 1)

    def singletons(self) -> tuple[FocalSet, ...]:
        return self._singletons

    _singletons = cached_property(lambda self: tuple(FocalSet(1 << i) for i in range(self.size)))

    def format_set(self, a: FocalSet) -> str:
        if a.is_empty:
            return "{}"
        return "{" + ",".join(self.members(a)) + "}"

    def _index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IvbelError(f"unknown label {label!r} for frame {list(self.labels)}") from None

    def _check_subset(self, a: FocalSet) -> None:
        if a.bits >> len(self.labels):
            raise IvbelError(f"set {a.bits:#x} is not a subset of a {self.size}-element frame")


def _coerce_set(frame: Frame, key: FocalSet | str | Iterable[str]) -> FocalSet:
    """Accept a FocalSet, a single label, or an iterable of labels."""
    if isinstance(key, FocalSet):
        return key
    if isinstance(key, str):
        return frame.singleton(key)
    return frame.subset(key)


def _canonical_mass_entries(
    entries: Iterable[tuple[FocalSet, float]],
) -> tuple[tuple[FocalSet, float], ...]:
    """Sort by bit value, merge duplicates (keeping the first one's
    :class:`FocalSet`), keep every positive mass and drop the rest (a
    negative one only down to ``-MASS_DROP_EPS``, as rounding).  Entries
    already strictly ascending in bits skip the merge."""
    entries = tuple(entries)
    bits = [fs.bits for fs, _ in entries]
    if not all(map(lt, bits, bits[1:])):
        merged: dict[int, float] = {}
        sets: dict[int, FocalSet] = {}
        for fs, mass in entries:
            merged[fs.bits] = merged.get(fs.bits, 0.0) + float(mass)
            sets.setdefault(fs.bits, fs)
        entries = [(sets[b], merged[b]) for b in sorted(merged)]
    out = []
    for fs, mass in entries:
        mass = float(mass)
        if not mass >= -MASS_DROP_EPS:
            raise IvbelError(f"negative or NaN mass {mass} for focal set {fs.bits:#x}")
        if mass > 0.0:
            out.append((fs, mass))
    # Sorted by bits, so a kept empty set comes first.
    if out and out[0][0].is_empty:
        raise IvbelError("BPA cannot assign mass to the empty set")
    return tuple(out)


def _canonical_interval_entries(
    entries: Iterable[tuple[FocalSet, float, float]],
) -> tuple[tuple[FocalSet, float, float], ...]:
    seen: set[int] = set()
    out: list[tuple[FocalSet, float, float]] = []
    for fs, lo, hi in entries:
        lo, hi = float(lo), float(hi)
        if fs.is_empty:
            raise IvbelError("interval structure cannot carry the empty set")
        if fs.bits in seen:
            raise IvbelError(f"duplicate focal set {fs.bits:#x}")
        seen.add(fs.bits)
        if not 0.0 <= lo <= hi <= 1.0:
            raise IvbelError(f"interval [{lo}, {hi}] violates 0 <= lo <= hi <= 1")
        out.append((fs, lo, hi))
    bits = [fs.bits for fs, _, _ in out]
    if not all(map(lt, bits, bits[1:])):
        out.sort(key=lambda e: e[0].bits)
    return tuple(out)


class _Entries(_Frozen):
    """Distinct non-empty focal sets of one frame, each followed by its
    values (a mass, or ``lo, hi`` bounds), in canonical order (ascending bit
    value).  A subclass sets ``_canonical`` to the function that checks,
    merges and sorts its raw entries."""

    _fields = ("frame", "entries")

    def __init__(self, frame: Frame, entries: Iterable[tuple]) -> None:
        entries = self._canonical(entries)
        if entries:  # sorted by bits: if any set leaves the frame, the last does
            frame._check_subset(entries[-1][0])
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "entries", entries)

    @cached_property
    def _lookup(self) -> dict[int, tuple]:
        return {entry[0].bits: entry[1:] for entry in self.entries}

    @cached_property
    def focal_sets(self) -> tuple[FocalSet, ...]:
        return tuple(entry[0] for entry in self.entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)


class Bpa(_Entries):
    """A basic probability assignment: positive masses on non-empty focal
    sets, summing to one within :data:`MASS_SUM_TOL`.

    Entries ``(FocalSet, mass)`` are kept in canonical order (ascending bit
    value).  Instances are immutable and safe to share across threads.
    """

    _canonical = staticmethod(_canonical_mass_entries)

    def __init__(self, frame: Frame, entries: Iterable[tuple[FocalSet, float]]) -> None:
        super().__init__(frame, entries)
        if not self.entries:
            raise IvbelError("BPA must have at least one focal set with positive mass")
        total = math.fsum(mass for _, mass in self.entries)
        if not abs(total - 1.0) <= MASS_SUM_TOL:
            raise IvbelError(f"BPA masses must sum to 1 within {MASS_SUM_TOL}, got {total!r}")

    @classmethod
    def from_mapping(
        cls, frame: Frame, masses: Mapping[FocalSet | str | Iterable[str], float]
    ) -> "Bpa":
        return cls(frame, tuple((_coerce_set(frame, key), m) for key, m in masses.items()))

    def mass(self, a: FocalSet) -> float:
        return self._lookup.get(a.bits, (0.0,))[0]


class _IntervalEntries(_Entries):
    """Entries ``(FocalSet, lo, hi)`` with ``0 <= lo <= hi <= 1``."""

    _canonical = staticmethod(_canonical_interval_entries)

    def interval(self, a: FocalSet) -> tuple[float, float]:
        return self._lookup.get(a.bits, (0.0, 0.0))

    @cached_property
    def lower_bounds(self) -> tuple[float, ...]:
        return tuple(lo for _, lo, _ in self.entries)

    @cached_property
    def upper_bounds(self) -> tuple[float, ...]:
        return tuple(hi for _, _, hi in self.entries)

    def is_degenerate(self, tol: float = MASS_SUM_TOL) -> bool:
        """True when every width is ``<= tol``, i.e. the structure is a BPA."""
        return all(hi - lo <= tol for _, lo, hi in self.entries)


class IntervalBeliefStructure(_IntervalEntries):
    """Focal sets with interval bounds ``[lo, hi]`` on their masses.

    Construction checks only per-entry structure (distinct non-empty sets,
    ``0 <= lo <= hi <= 1``).  Whether a structure is valid as a whole, i.e.
    admits at least one BPA within the bounds, is a separate question
    answered by :func:`validate_ibs`.
    """

    def __init__(self, frame: Frame, entries: Iterable[tuple[FocalSet, float, float]]) -> None:
        super().__init__(frame, entries)
        if not self.entries:
            raise IvbelError("interval structure must have at least one focal set")

    @classmethod
    def from_mapping(
        cls,
        frame: Frame,
        bounds: Mapping[FocalSet | str | Iterable[str], tuple[float, float]],
    ) -> "IntervalBeliefStructure":
        return cls(
            frame,
            tuple((_coerce_set(frame, key), lo, hi) for key, (lo, hi) in bounds.items()),
        )


class IntervalMassResult(_IntervalEntries):
    """Combined evidence as per-focal-set intervals.

    ``includes_empty`` carries the bounds attributed to the empty set when a
    method tracks conflict explicitly (pre-normalization); it is ``None``
    otherwise.  ``normalized`` is derived: it reads ``True`` exactly when
    there is at least one entry and the entries pass :func:`is_normalized`.
    Passing ``normalized=False`` withholds the flag, as for raw bounds that
    still await a normalization step.
    """

    _fields = ("frame", "entries", "includes_empty", "normalized")

    def __init__(
        self,
        frame: Frame,
        entries: Iterable[tuple[FocalSet, float, float]],
        includes_empty: tuple[float, float] | None = None,
        normalized: bool = True,
    ) -> None:
        super().__init__(frame, entries)
        if includes_empty is not None:
            lo, hi = includes_empty
            if not 0.0 <= lo <= hi <= 1.0:
                raise IvbelError(f"empty-set interval [{lo}, {hi}] out of range")
            includes_empty = (float(lo), float(hi))
        object.__setattr__(self, "includes_empty", includes_empty)
        flag = normalized and bool(self.entries) and is_normalized(self)
        object.__setattr__(self, "normalized", flag)

    def as_ibs(self) -> IntervalBeliefStructure:
        """Reinterpret the non-empty entries as an interval belief structure."""
        return IntervalBeliefStructure(self.frame, self.entries)


def _check_same_frame(bodies: Iterable[_Entries]) -> None:
    if len({b.frame for b in bodies}) > 1:
        raise IvbelError("bodies must share one frame")


class ValidityVerdict(NamedTuple):
    """Why a structure admits no BPA, or ``None`` when it admits one; true
    exactly when it admits one."""

    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None

    def __bool__(self) -> bool:
        return self.ok


def validate_ibs(ibs: _IntervalEntries) -> ValidityVerdict:
    """Check that at least one BPA fits within the bounds.

    A structure is valid iff every interval satisfies ``0 <= lo <= hi <= 1``
    (guaranteed by construction) and the bounds straddle the unit total:
    ``sum(lo) <= 1 <= sum(hi)``, both closed within :data:`MASS_SUM_TOL`.
    """
    sum_lo = math.fsum(ibs.lower_bounds)
    sum_hi = math.fsum(ibs.upper_bounds)
    if sum_lo > 1.0 + MASS_SUM_TOL:
        return ValidityVerdict(f"lower bounds sum to {sum_lo:.12g} > 1")
    if sum_hi < 1.0 - MASS_SUM_TOL:
        return ValidityVerdict(f"upper bounds sum to {sum_hi:.12g} < 1")
    return ValidityVerdict()


def is_normalized(ibs: _IntervalEntries) -> bool:
    """Check that every bound is attainable by some BPA within the bounds.

    For each entry ``k`` the two tightness conditions must hold:
    ``sum(hi) - (hi_k - lo_k) >= 1`` and ``sum(lo) + (hi_k - lo_k) <= 1``.
    Equivalently, fixing entry ``k`` at either of its bounds leaves the
    remaining entries able to absorb the rest of the unit mass.  Both tests
    are closed within :data:`MASS_SUM_TOL`.
    """
    sum_lo = math.fsum(ibs.lower_bounds)
    sum_hi = math.fsum(ibs.upper_bounds)
    for _, lo, hi in ibs.entries:
        width = hi - lo
        if sum_hi - width < 1.0 - MASS_SUM_TOL:
            return False
        if sum_lo + width > 1.0 + MASS_SUM_TOL:
            return False
    return True


def _check_bodies(bodies: Sequence[IntervalBeliefStructure], *, normalized: bool) -> None:
    """The precondition every combination engine shares: two or more bodies
    on one frame, each normalized when the engine requires it."""
    if len(bodies) < 2:
        raise IvbelError("no evidence: need at least two bodies to combine")
    _check_same_frame(bodies)
    if normalized:
        for idx, body in enumerate(bodies, start=1):
            if not is_normalized(body):
                raise IvbelError(
                    f"body {idx} is not normalized; normalize inputs before combining"
                )


def _rescale_proportionally(ibs: IntervalBeliefStructure) -> IntervalBeliefStructure:
    """Repair a structure whose bounds do not straddle the unit total.

    Each bound is divided by the total it would form together with the
    opposite bounds of the other entries:

        lo'_i = lo_i / (lo_i + sum_{j != i} hi_j)
        hi'_i = hi_i / (hi_i + sum_{j != i} lo_j)

    The output always satisfies ``sum(lo') <= 1 <= sum(hi')``.
    """
    sum_lo = math.fsum(ibs.lower_bounds)
    sum_hi = math.fsum(ibs.upper_bounds)
    if sum_hi <= MASS_DROP_EPS:
        raise NormalizationError("cannot normalize: no mass available in any interval")
    entries = []
    for fs, lo, hi in ibs.entries:
        denom_lo = lo + (sum_hi - hi)
        denom_hi = hi + (sum_lo - lo)
        new_lo = lo / denom_lo if denom_lo > 0.0 else 0.0
        new_hi = hi / denom_hi if denom_hi > 0.0 else 0.0
        entries.append((fs, new_lo, min(1.0, new_hi)))
    return IntervalBeliefStructure(ibs.frame, tuple(entries))


def _tighten_bounds(ibs: IntervalBeliefStructure) -> IntervalBeliefStructure:
    """Clip each bound to the range reachable when the rest stay in bounds.

        lo'_i = max(lo_i, 1 - sum_{j != i} hi_j)
        hi'_i = min(hi_i, 1 - sum_{j != i} lo_j)

    Bounds are tightened simultaneously from the original values.  One pass
    suffices: each clipped bound is the exact extremum of the corresponding
    coordinate over the polytope of BPAs within the bounds.
    """
    sum_lo = math.fsum(ibs.lower_bounds)
    sum_hi = math.fsum(ibs.upper_bounds)
    entries = []
    for fs, lo, hi in ibs.entries:
        new_lo = max(lo, 1.0 - (sum_hi - hi))
        new_hi = min(hi, 1.0 - (sum_lo - lo))
        if new_lo > new_hi + MASS_SUM_TOL:
            raise NormalizationError(
                f"cannot tighten interval for {ibs.frame.format_set(fs)}: "
                f"[{new_lo:.12g}, {new_hi:.12g}] is empty"
            )
        entries.append((fs, new_lo, max(new_lo, new_hi)))
    return IntervalBeliefStructure(ibs.frame, tuple(entries))


def normalization_steps(
    ibs: IntervalBeliefStructure,
) -> tuple[IntervalBeliefStructure, tuple[str, ...]]:
    """:func:`normalize`, also returning the steps it took, in order:
    ``"rescaled proportionally"`` and/or ``"tightened bounds"`` (none for
    normalized input)."""
    steps = []
    if not validate_ibs(ibs):
        ibs = _rescale_proportionally(ibs)
        steps.append("rescaled proportionally")
    if not is_normalized(ibs):
        ibs = _tighten_bounds(ibs)
        steps.append("tightened bounds")
    return ibs, tuple(steps)


def normalize(ibs: IntervalBeliefStructure) -> IntervalBeliefStructure:
    """Return an equivalent structure whose bounds are all attainable.

    If the bounds do not straddle the unit total, they are first rescaled
    proportionally; any remaining slack is then removed by clipping each
    bound to its attainable extremum.  Normalized input is returned as is,
    so the operation is idempotent.
    """
    return normalization_steps(ibs)[0]


def degenerate_bpa(ibs: IntervalBeliefStructure) -> Bpa:
    """Collapse a zero-width structure to the BPA it denotes: the interval
    midpoints, or, when those miss a unit total on a valid structure, the
    point ``lo + t * (hi - lo)`` in the box that sums to one."""
    if not ibs.is_degenerate():
        raise IvbelError("structure has non-degenerate intervals")
    masses = [(lo + hi) / 2.0 for _, lo, hi in ibs.entries]
    if abs(math.fsum(masses) - 1.0) > MASS_SUM_TOL and validate_ibs(ibs):
        sum_lo = math.fsum(ibs.lower_bounds)
        t = min(max((1.0 - sum_lo) / (math.fsum(ibs.upper_bounds) - sum_lo), 0.0), 1.0)
        masses = [lo + t * (hi - lo) for _, lo, hi in ibs.entries]
    return Bpa(ibs.frame, tuple(zip(ibs.focal_sets, masses)))


def bel(b: Bpa, a: FocalSet) -> float:
    """Total mass committed to subsets of ``a``."""
    b.frame._check_subset(a)
    bits = a.bits
    return math.fsum(mass for fs, mass in b.entries if not fs.bits & ~bits)


def pl(b: Bpa, a: FocalSet) -> float:
    """Total mass not excluded by ``a``: sum over focal sets meeting ``a``."""
    b.frame._check_subset(a)
    bits = a.bits
    return math.fsum(mass for fs, mass in b.entries if fs.bits & bits)


def _pignistic_sums(frame: Frame, values: Iterable[tuple[FocalSet, float]]) -> dict[int, float]:
    """Each value spread evenly over its set, summed per singleton bit (all kept)."""
    sums = {1 << i: 0.0 for i in range(frame.size)}
    for fs, value in values:
        bits = fs.bits
        share = value / bits.bit_count()
        while bits:
            sums[bits & -bits] += share
            bits &= bits - 1
    return sums


def pignistic(b: Bpa) -> Bpa:
    """Spread each focal set's mass uniformly over its elements.

    Returns a Bayesian BPA over the singletons.
    """
    sums = _pignistic_sums(b.frame, b.entries)
    return Bpa(b.frame, tuple((FocalSet(bit), p) for bit, p in sums.items()))


def plausibility_transform(b: Bpa) -> Bpa:
    """Normalize singleton plausibilities into a Bayesian BPA."""
    values = [(s, pl(b, s)) for s in b.frame.singletons()]
    total = math.fsum(v for _, v in values)
    return Bpa(b.frame, tuple((s, v / total) for s, v in values))
