"""Evidence combination: Dempster's rule and the entropy-bound method.

The interval-valued combination works body by body: for each input structure
the entropy-maximizing and entropy-minimizing BPAs are extracted (under a
chosen separable measure), the maximizers are folded together with
Dempster's rule, the minimizers likewise, and each focal set receives the
interval spanned by its two folded masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    MASS_DROP_EPS,
    Bpa,
    FocalSet,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    TotalConflictError,
    _check_bodies,
    _check_same_frame,
)
from .entropy import EntropyMeasure, measure
from .optimize import entropy_bounds

__all__ = [
    "CombinationReport",
    "dempster_combine",
    "dempster_combine_n",
    "proposed_combine",
    "proposed_combine_report",
]

@dataclass(frozen=True)
class CombinationReport:
    """A combination result together with its audit trail; ``conflicts``
    holds the cumulative conflict K of the max fold and of the min fold."""

    result: IntervalMassResult
    conflicts: tuple[float, float]
    intermediate_bpas: tuple[tuple[str, Bpa], ...] = ()
    notes: tuple[str, ...] = ()


def _products(
    xs: Iterable[tuple[int, float]], ys: Sequence[tuple[int, float]]
) -> dict[int, float]:
    """Sums of mass products per intersection of two ``(bits, mass)``
    sequences; key 0 holds the conflict mass.  Zero masses are skipped."""
    out: dict[int, float] = {}
    for b1, m1 in xs:
        if m1 == 0.0:
            continue
        for b2, m2 in ys:
            if m2 == 0.0:
                continue
            inter = b1 & b2
            out[inter] = out.get(inter, 0.0) + m1 * m2
    return out


def _total_conflict(surviving: float, conflict: float) -> bool:
    """The closed total-conflict test of every engine: the surviving mass is
    ``<= MASS_DROP_EPS`` or the conflict K is ``>= 1 - MASS_DROP_EPS``.
    BPAs sum to 1 only within ``MASS_SUM_TOL``, so neither implies the other."""
    return surviving <= MASS_DROP_EPS or conflict >= 1.0 - MASS_DROP_EPS


def _surviving_mass(products: dict[int, float]) -> float:
    """The surviving mass, ``math.fsum`` of the non-empty products, or 0.0 on
    total conflict (:func:`_total_conflict`, K at key 0)."""
    surviving = math.fsum(m for bits, m in products.items() if bits)
    return 0.0 if _total_conflict(surviving, products.get(0, 0.0)) else surviving


def dempster_combine(b1: Bpa, b2: Bpa) -> tuple[Bpa, float]:
    """Dempster's rule for two BPAs on one frame: the combined BPA and the
    conflict K, the mass the products assign to the empty set.  Raises
    :class:`TotalConflictError` on total conflict (:func:`_surviving_mass`).

    The products are divided by the exact surviving mass rather than by
    ``1 - K``: near total conflict, K is known only to an absolute rounding
    error that is large relative to ``1 - K``.
    """
    _check_same_frame((b1, b2))
    raw = _products(
        [(fs.bits, m) for fs, m in b1.entries], [(fs.bits, m) for fs, m in b2.entries]
    )
    surviving = _surviving_mass(raw)
    conflict = raw.pop(0, 0.0)
    if not surviving:
        raise TotalConflictError(f"not combinable: total conflict (K={conflict:.12g})")
    scale = 1.0 / surviving
    combined = Bpa(
        b1.frame, tuple((FocalSet(bits), mass * scale) for bits, mass in raw.items())
    )
    return combined, conflict


def dempster_combine_n(bodies: Sequence[Bpa]) -> tuple[Bpa, float]:
    """Left fold of Dempster's rule over one or more BPAs: the combined BPA
    and the cumulative conflict ``1 - prod(1 - K_step)``.

    The rule is associative and commutative, so the fold order does not
    affect the result.
    """
    if not bodies:
        raise IvbelError("no evidence: need at least one body")
    _check_same_frame(bodies)
    acc = bodies[0]
    surviving = 1.0
    for b in bodies[1:]:
        acc, conflict = dempster_combine(acc, b)
        surviving *= 1.0 - conflict
    return acc, 1.0 - surviving


def proposed_combine(
    bodies: Sequence[IntervalBeliefStructure],
    m: str | EntropyMeasure = "pal",
) -> IntervalMassResult:
    """Combine interval-valued bodies through their entropy-bound BPAs."""
    return proposed_combine_report(bodies, m).result


def proposed_combine_report(
    bodies: Sequence[IntervalBeliefStructure],
    m: str | EntropyMeasure = "pal",
) -> CombinationReport:
    """Like :func:`proposed_combine`, returning the full audit trail:
    per-body extremal BPAs, fold conflicts and minimum ties.  The hull of
    two folded BPAs is normalized by construction, so it needs no repair."""
    _check_bodies(bodies, normalized=True)
    meas = measure(m)
    notes: list[str] = []
    intermediates: list[tuple[str, Bpa]] = []
    maxes: list[Bpa] = []
    mins: list[Bpa] = []
    for idx, body in enumerate(bodies, start=1):
        sol = entropy_bounds(body, meas)
        maxes.append(sol.m_max)
        mins.append(sol.m_min)
        intermediates.append((f"body{idx}.max", sol.m_max))
        intermediates.append((f"body{idx}.min", sol.m_min))
        if sol.min_tie_count > 1:
            notes.append(
                f"body {idx}: {sol.min_tie_count} vertices tie for the entropy "
                "minimum; kept the first in canonical order"
            )

    folded_max, k_max = dempster_combine_n(maxes)
    folded_min, k_min = dempster_combine_n(mins)
    intermediates.append(("fold.max", folded_max))
    intermediates.append(("fold.min", folded_min))

    support: set[int] = set()
    for body in bodies:
        support.update(fs.bits for fs in body.focal_sets)
    support.update(fs.bits for fs in folded_max.focal_sets)
    support.update(fs.bits for fs in folded_min.focal_sets)

    entries = []
    for bits in support:
        fs = FocalSet(bits)
        v1 = folded_max.mass(fs)
        v2 = folded_min.mass(fs)
        entries.append((fs, min(v1, v2), max(v1, v2)))

    return CombinationReport(
        result=IntervalMassResult(bodies[0].frame, tuple(entries)),
        conflicts=(k_max, k_min),
        intermediate_bpas=tuple(intermediates),
        notes=tuple(notes),
    )
