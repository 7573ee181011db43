"""Uncertainty measures for basic probability assignments.

Ten measures are provided, identified by short string ids.  Five of them are
*separable*: they can be written as ``sum_A m(A) * (k_A - beta*log2 m(A))``
where the weight ``k_A`` depends only on the focal set (and the frame) and
``beta`` is 0 or 1; a custom separable measure may take any finite
``beta >= 0``.  Separable measures admit exact bound optimization over
interval-valued structures; the others can only be evaluated pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import Bpa, FocalSet, Frame, IvbelError, bel, pl, plausibility_transform

__all__ = [
    "EntropyMeasure",
    "MEASURE_IDS",
    "SEPARABLE_MEASURE_IDS",
    "measure",
    "entropy",
    "separable_profile",
    "entropy_from_profile",
]


def _xlog2(x: float) -> float:
    # 0*log2(0) is taken as 0.
    return x * math.log2(x) if x > 0.0 else 0.0


@dataclass(frozen=True)
class EntropyMeasure:
    """A named uncertainty measure.

    A separable measure has a ``weight(a, frame)`` giving ``k_A``, and
    ``beta`` the coefficient of the ``-m log2 m`` term, finite and
    ``>= 0`` so that the measure is concave.  Non-separable measures carry
    a direct evaluator instead.
    """

    id: str
    beta: float = 0.0
    weight: Callable[[FocalSet, Frame], float] | None = None
    evaluate: Callable[[Bpa], float] | None = None

    def __post_init__(self) -> None:
        if self.weight is None and self.evaluate is None:
            raise IvbelError(f"measure {self.id!r} needs a weight or an evaluator")
        if self.weight is not None and not 0.0 <= self.beta < math.inf:
            raise IvbelError(f"measure {self.id!r} needs a finite beta >= 0, got {self.beta}")

    @property
    def separable(self) -> bool:
        return self.weight is not None

    def __call__(self, b: Bpa) -> float:
        return entropy(self, b)


def _card_log(a: FocalSet, frame: Frame) -> float:
    return math.log2(a.cardinality)


def _zero_weight(a: FocalSet, frame: Frame) -> float:
    return 0.0


def _deng_weight(a: FocalSet, frame: Frame) -> float:
    return math.log2(2.0 ** a.cardinality - 1.0)


def _qin_weight(a: FocalSet, frame: Frame) -> float:
    return (a.cardinality / frame.size) * math.log2(a.cardinality)


def _bit_entries(b: Bpa) -> list[tuple[int, int, float]]:
    """``(bits, |A|, mass)`` per entry, so the pair loops below run on
    integers instead of building a :class:`FocalSet` per pair."""
    return [(fs.bits, fs.bits.bit_count(), m) for fs, m in b.entries]


def _klir_ramer(b: Bpa) -> float:
    sets = _bit_entries(b)
    total = 0.0
    for a, _, ma in sets:
        inner = math.fsum(mb * (a & fb).bit_count() / cb for fb, cb, mb in sets)
        total -= ma * math.log2(inner)
    return total


def _klir_parviz(b: Bpa) -> float:
    sets = _bit_entries(b)
    total = 0.0
    for a, ca, ma in sets:
        inner = math.fsum(mb * (a & fb).bit_count() / ca for fb, _, mb in sets)
        total -= ma * math.log2(inner)
    return total


def _jirousek_shenoy(b: Bpa) -> float:
    prior = plausibility_transform(b)
    shannon = -math.fsum(_xlog2(p) for _, p in prior.entries)
    width = math.fsum(m * math.log2(fs.cardinality) for fs, m in b.entries)
    return shannon + width


def _yager(b: Bpa) -> float:
    return -math.fsum(m * math.log2(pl(b, fs)) for fs, m in b.entries)


def _hohle(b: Bpa) -> float:
    return -math.fsum(m * math.log2(bel(b, fs)) for fs, m in b.entries)


_MEASURES: dict[str, EntropyMeasure] = {
    m.id: m
    for m in (
        EntropyMeasure("dubois-prade", beta=0.0, weight=_card_log),
        EntropyMeasure("nguyen", beta=1.0, weight=_zero_weight),
        EntropyMeasure("deng", beta=1.0, weight=_deng_weight),
        EntropyMeasure("pal", beta=1.0, weight=_card_log),
        EntropyMeasure("qin", beta=1.0, weight=_qin_weight),
        EntropyMeasure("klir-ramer", evaluate=_klir_ramer),
        EntropyMeasure("klir-parviz", evaluate=_klir_parviz),
        EntropyMeasure("jirousek-shenoy", evaluate=_jirousek_shenoy),
        EntropyMeasure("yager", evaluate=_yager),
        EntropyMeasure("hohle", evaluate=_hohle),
    )
}

MEASURE_IDS: tuple[str, ...] = tuple(_MEASURES)
SEPARABLE_MEASURE_IDS: tuple[str, ...] = tuple(
    m.id for m in _MEASURES.values() if m.separable
)


def measure(id_or_measure: str | EntropyMeasure) -> EntropyMeasure:
    """Resolve a measure id to its :class:`EntropyMeasure`."""
    if isinstance(id_or_measure, EntropyMeasure):
        return id_or_measure
    try:
        return _MEASURES[id_or_measure]
    except KeyError:
        raise IvbelError(
            f"unknown measure id {id_or_measure!r}; known: {', '.join(MEASURE_IDS)}"
        ) from None


def entropy(m: str | EntropyMeasure, b: Bpa) -> float:
    """Evaluate an uncertainty measure on a BPA."""
    m = measure(m)
    if m.separable:
        return entropy_from_profile(
            (mass for _, mass in b.entries),
            ((m.weight(fs, b.frame), m.beta) for fs, _ in b.entries),
        )
    return m.evaluate(b)


def separable_profile(
    m: str | EntropyMeasure, focal_sets: Sequence[FocalSet], frame: Frame
) -> tuple[tuple[float, float], ...]:
    """Per-focal-set ``(k_A, beta)`` pairs for a separable measure.

    Raises for non-separable measures: their value at a point depends on the
    whole assignment, so no per-set profile exists.  Raises as well when a
    weight ``k_A`` is not finite.
    """
    m = measure(m)
    if not m.separable:
        raise IvbelError(f"unsupported objective: measure {m.id!r} is not separable")
    profile = tuple((m.weight(fs, frame), m.beta) for fs in focal_sets)
    for fs, (k, _) in zip(focal_sets, profile):
        if not math.isfinite(k):
            raise IvbelError(
                f"measure {m.id!r} gives the non-finite weight {k!r} to {frame.format_set(fs)}"
            )
    return profile


def entropy_from_profile(
    masses: Iterable[float], profile: Iterable[tuple[float, float]]
) -> float:
    """Evaluate ``sum_i m_i*k_i - beta_i*m_i*log2(m_i)`` on a raw mass vector.

    Zero masses contribute nothing, so the bound optimizer can pass vectors
    with exact zeros.  :func:`entropy` evaluates separable measures here too.
    """
    return math.fsum(
        m * k - beta * _xlog2(m) for m, (k, beta) in zip(masses, profile)
    )
