"""Evidence combination: Dempster's rule, the entropy-bound method, and
:func:`combine`, the one entry point to every engine.

The interval-valued combination works body by body: for each input structure
the entropy-maximizing and entropy-minimizing BPAs are extracted (under a
chosen separable measure), the maximizers are folded together with
Dempster's rule, the minimizers likewise, and each focal set receives the
interval spanned by its two folded masses.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

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
    degenerate_bpa,
)
from .entropy import EntropyMeasure, measure
from .formats import METHODS
from .optimize import entropy_bounds

__all__ = [
    "CombinationReport",
    "combine",
    "dempster_combine",
    "dempster_combine_n",
    "proposed_combine_report",
]

class CombinationReport(NamedTuple):
    """A combination result together with its audit trail, the same for
    every engine.  ``stages`` holds labelled intermediate BPAs or bodies in
    the order the engine computed them; ``conflicts`` holds ``(label, lo,
    hi)``, the conflict mass K of each fold, with ``lo == hi`` for a point."""

    result: IntervalMassResult
    stages: tuple[tuple[str, Bpa | IntervalBeliefStructure], ...] = ()
    conflicts: tuple[tuple[str, float, float], ...] = ()
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


def proposed_combine_report(
    bodies: Sequence[IntervalBeliefStructure],
    m: str | EntropyMeasure = "pal",
) -> CombinationReport:
    """Combine interval-valued bodies through their entropy-bound BPAs.

    The report's ``result`` is the combined structure; the rest is the audit
    trail: per-body extremal BPAs, fold conflicts and minimum ties.  The hull
    of two folded BPAs is normalized by construction, so it needs no repair."""
    _check_bodies(bodies, normalized=True)
    meas = measure(m)
    notes: list[str] = []
    stages: list[tuple[str, Bpa]] = []
    maxes: list[Bpa] = []
    mins: list[Bpa] = []
    for idx, body in enumerate(bodies, start=1):
        sol = entropy_bounds(body, meas)
        maxes.append(sol.m_max)
        mins.append(sol.m_min)
        stages.append((f"body{idx}.max", sol.m_max))
        stages.append((f"body{idx}.min", sol.m_min))
        if sol.min_tie_count > 1:
            notes.append(
                f"body {idx}: {sol.min_tie_count} vertices tie for the entropy "
                "minimum; kept the first in canonical order"
            )

    folded_max, k_max = dempster_combine_n(maxes)
    folded_min, k_min = dempster_combine_n(mins)
    stages.append(("fold.max", folded_max))
    stages.append(("fold.min", folded_min))

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
        stages=tuple(stages),
        conflicts=(("fold.max", k_max, k_max), ("fold.min", k_min, k_min)),
        notes=tuple(notes),
    )


def combine(
    method: str,
    bodies: Sequence[IntervalBeliefStructure],
    *,
    measure: str | EntropyMeasure = "pal",
    w: float = 2.0,
) -> CombinationReport:
    """Run the engine ``method``, one of :data:`METHODS`, on the bodies as
    given; normalizing them is the caller's choice.

    ``measure`` is the objective of ``proposed`` and ``w`` the order of
    ``leezhu``; the other engines ignore both.  Every engine takes two or
    more bodies, ``denoeux`` and ``leezhu`` exactly two, and ``dempster``
    only point-valued ones.
    """
    from . import reference  # imported here because reference imports this module

    if method not in METHODS:
        raise IvbelError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    _check_bodies(bodies, normalized=False)
    if method in ("denoeux", "leezhu") and len(bodies) != 2:
        raise IvbelError(f"{method} combines exactly two bodies")
    if method == "proposed":
        return proposed_combine_report(bodies, measure)
    if method == "song":
        return reference.song_combine_detail(bodies)
    if method == "wang":
        return CombinationReport(reference.wang_combine(bodies))
    if method == "leezhu":
        return CombinationReport(reference.leezhu_combine(bodies[0], bodies[1], w))
    if method == "denoeux":
        raw = reference.denoeux_combine(bodies[0], bodies[1])
        return CombinationReport(
            reference.denoeux_normalize(raw), conflicts=(("fold", *raw.includes_empty),)
        )
    # method == "dempster", the last of METHODS
    for idx, body in enumerate(bodies, start=1):
        if not body.is_degenerate():
            raise IvbelError(
                f"method dempster needs point-valued evidence (lo = hi);"
                f" body {idx} has interval bounds"
            )
    combined, conflict = dempster_combine_n([degenerate_bpa(b) for b in bodies])
    result = IntervalMassResult(combined.frame, tuple((fs, m, m) for fs, m in combined.entries))
    return CombinationReport(result, conflicts=(("fold", conflict, conflict),))
