"""Earlier interval-evidence combination rules, for comparison.

Four families are implemented:

* Lee–Zhu: interval arithmetic with a parametric t-norm/t-conorm pair; the
  output is generally not normalized and discards conflicting mass.
* Denoeux: exact bounds of the unnormalized intersection products over
  vertex pairs of the two feasible polytopes, followed by an interval
  normalization that divides out the empty-set mass.
* Wang: exact bounds of the normalized Dempster ratio over tuples of
  polytope vertices, one per body.
* Song: projects each body to an interval-valued pignistic distribution,
  reads it as intuitionistic assessments per singleton, combines those with
  a Dempster-style operator, and transforms back.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

from .core import (
    MASS_SUM_TOL,
    FocalSet,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    NormalizationError,
    TotalConflictError,
    _check_bodies,
    _pignistic_sums,
    normalize,
)
from .fusion import CombinationReport, _dempster, _products, _total_conflict
from .polytope import enumerate_vertices

__all__ = [
    "leezhu_combine",
    "denoeux_combine",
    "denoeux_normalize",
    "wang_combine",
    "song_combine",
    "song_combine_detail",
]


# ---------------------------------------------------------------------------
# Lee-Zhu


def leezhu_combine(
    ibs1: IntervalBeliefStructure,
    ibs2: IntervalBeliefStructure,
    w: float = 2.0,
) -> IntervalMassResult:
    """Lee-Zhu combination of two interval bodies, with the t-conorm/t-norm
    pair of order ``w >= 1``.

    Each pair of focal sets contributes the soft product of its bound pair
    to the pair's intersection; contributions to one focal set accumulate
    through the t-conorm.  Pairs with empty intersection are discarded, so
    mass is lost under conflict and the output is generally not normalized.
    Inputs need not be normalized.
    """
    if not w >= 1.0:
        raise IvbelError(f"Lee-Zhu order must satisfy w >= 1, got {w}")
    _check_bodies((ibs1, ibs2), normalized=False)
    # The t-conorm is min(1, (x**w + y**w)**(1/w)), evaluated in the stable
    # form hi*exp(log1p((lo/hi)**w)/w), which is hi itself when lo is 0; the
    # t-norm is 1 - conorm(1-x, 1-y), which is 0 when 1-x or 1-y is 1, as at x = 0.
    exp, log1p = math.exp, math.log1p
    rows2 = [(f.bits, 1.0 - lo, 1.0 - hi) for f, lo, hi in ibs2.entries]
    lows: dict[int, float] = {}
    highs: dict[int, float] = {}
    for f1, lo1, hi1 in ibs1.entries:
        bits1, x_lo, x_hi = f1.bits, 1.0 - lo1, 1.0 - hi1
        for bits2, y_lo, y_hi in rows2:
            inter = bits1 & bits2
            if inter == 0:
                continue
            if x_lo == 1.0 or y_lo == 1.0:
                # A zero contribution leaves the accumulated bound as it is.
                lows.setdefault(inter, 0.0)
            else:
                a, b = (x_lo, y_lo) if x_lo >= y_lo else (y_lo, x_lo)
                v = a * exp(log1p((b / a) ** w) / w) if b > 0.0 else a
                c_lo = 1.0 - (v if v < 1.0 else 1.0)
                a = lows.get(inter, 0.0)
                a, b = (a, c_lo) if a >= c_lo else (c_lo, a)
                v = a * exp(log1p((b / a) ** w) / w) if b > 0.0 else a
                lows[inter] = v if v < 1.0 else 1.0
            a, b = (x_hi, y_hi) if x_hi >= y_hi else (y_hi, x_hi)
            v = a * exp(log1p((b / a) ** w) / w) if b > 0.0 else a
            c_hi = 1.0 - (v if v < 1.0 else 1.0)
            a = highs.get(inter, 0.0)
            a, b = (a, c_hi) if a >= c_hi else (c_hi, a)
            v = a * exp(log1p((b / a) ** w) / w) if b > 0.0 else a
            highs[inter] = v if v < 1.0 else 1.0
    if not lows:
        raise TotalConflictError("not combinable: every focal-set pair conflicts")
    return IntervalMassResult(
        ibs1.frame,
        tuple((FocalSet(bits), min(lows[bits], highs[bits]), highs[bits]) for bits in lows),
    )


# ---------------------------------------------------------------------------
# Vertex-tuple scan shared by Denoeux and Wang


def _targets(bodies: Sequence[IntervalBeliefStructure]) -> set[int]:
    """Intersections of one focal set per body; 0 is the empty set."""
    targets = {bodies[0].frame.full_set.bits}
    for body in bodies:
        targets = {t & fs.bits for t in targets for fs in body.focal_sets}
    return targets


def _vertex_products(bodies: Sequence[IntervalBeliefStructure]) -> Iterator[dict]:
    """Intersection products of each tuple of polytope vertices, one vertex
    per body; key 0 holds the conflict mass."""
    full = bodies[0].frame.full_set.bits
    vertex_pairs = [
        [list(zip([fs.bits for fs in b.focal_sets], v)) for v in enumerate_vertices(b)]
        for b in bodies
    ]
    for tuple_pairs in itertools.product(*vertex_pairs):
        masses = {full: 1.0}
        for pairs in tuple_pairs:
            masses = _products(masses.items(), pairs)
        yield masses


def _extrema(targets: set[int], points: Iterable[dict[int, float]]) -> tuple[dict, dict]:
    """Per-target minimum and maximum over ``points``, reading an absent key
    as 0; both stay infinite when there are no points."""
    lows = dict.fromkeys(targets, math.inf)
    highs = dict.fromkeys(targets, -math.inf)
    for point in points:
        for t in targets:
            value = point.get(t, 0.0)
            if value < lows[t]:
                lows[t] = value
            if value > highs[t]:
                highs[t] = value
    return lows, highs


# ---------------------------------------------------------------------------
# Denoeux


def denoeux_combine(
    ibs1: IntervalBeliefStructure, ibs2: IntervalBeliefStructure
) -> IntervalMassResult:
    """Exact bounds of the unnormalized intersection products.

    For every target set the product sum is bilinear in the two mass
    vectors, so its extrema over the product of the two polytopes are
    attained at vertex pairs; all pairs are enumerated.  The empty set is a
    target like any other and its bounds are returned in
    ``includes_empty``.  Inputs must be normalized.
    """
    bodies = (ibs1, ibs2)
    _check_bodies(bodies, normalized=True)
    lows, highs = _extrema(_targets(bodies), _vertex_products(bodies))
    # Clamped at 1: vertices sum to 1 only within MASS_SUM_TOL, so a product
    # sum can exceed 1 by as much.
    bounds = {t: (min(lows[t], 1.0), min(highs[t], 1.0)) for t in lows}
    empty = bounds.pop(0, (0.0, 0.0))
    entries = tuple((FocalSet(bits), *bounds[bits]) for bits in bounds)
    return IntervalMassResult(ibs1.frame, entries, includes_empty=empty, normalized=False)


def denoeux_normalize(raw: IntervalMassResult) -> IntervalMassResult:
    """Divide out the empty-set mass from raw interval bounds.

    For each non-empty target the normalized bounds are the extrema of
    ``m(A) / (1 - m(0))`` over assignments that respect the raw bounds and
    sum to one over all targets including the empty set:

        lo'(A) = lo(A) / (1 - max(e_lo, 1 - lo(A) - sum_{B != A} hi(B)))
        hi'(A) = hi(A) / (1 - min(e_hi, 1 - hi(A) - sum_{B != A} lo(B)))

    where ``[e_lo, e_hi]`` are the raw empty-set bounds.  With
    ``e == [0, 0]`` and point masses summing to one this is the identity.
    The denominators are computed without cancellation, as ``min(1 - e_lo,
    lo(A) + sum_{B != A} hi(B))`` and ``max(1 - e_hi, hi(A) + sum_{B != A}
    lo(B))``; a zero bound maps to 0.  Raises :class:`TotalConflictError` on
    Dempster's closed test (``fusion._total_conflict``): the non-empty upper
    bounds sum to at most ``MASS_DROP_EPS``, or ``e_lo >= 1 - MASS_DROP_EPS``.
    Otherwise both denominators are positive wherever the bound is.
    """
    e_lo, e_hi = raw.includes_empty if raw.includes_empty is not None else (0.0, 0.0)
    sum_lo = math.fsum(raw.lower_bounds)
    sum_hi = math.fsum(raw.upper_bounds)
    if _total_conflict(sum_hi, e_lo):
        raise TotalConflictError(
            "not combinable: total conflict (no mass on any non-empty intersection)"
        )
    entries = []
    for fs, lo, hi in raw.entries:
        new_lo = lo / min(1.0 - e_lo, lo + (sum_hi - hi)) if lo > 0.0 else 0.0
        new_hi = hi / max(1.0 - e_hi, hi + (sum_lo - lo)) if hi > 0.0 else 0.0
        if new_lo > new_hi + MASS_SUM_TOL:
            raise NormalizationError(
                f"cannot normalize interval for {raw.frame.format_set(fs)}: "
                f"[{new_lo:.12g}, {new_hi:.12g}] is empty"
            )
        # Point-valued raw bounds can leave lo above hi by rounding.
        entries.append((fs, min(new_lo, new_hi), new_hi))
    return IntervalMassResult(raw.frame, tuple(entries))


# ---------------------------------------------------------------------------
# Wang


def wang_combine(bodies: Sequence[IntervalBeliefStructure]) -> IntervalMassResult:
    """Exact bounds of the Dempster ratio over per-body polytope vertices.

    For every tuple of vertices (one per body) the bodies are combined with
    Dempster's rule (``fusion._dempster``); each target's combined mass is a
    ratio of multilinear forms, so its extrema over the product polytope are
    attained at vertex tuples.  Tuples in total conflict are skipped as infeasible; if every
    tuple conflicts totally the bodies are not combinable.  Inputs must be
    normalized.
    """
    _check_bodies(bodies, normalized=True)
    targets = _targets(bodies) - {0}
    if not targets:
        raise TotalConflictError("not combinable: every focal-set tuple conflicts")

    ratios = (r for r in map(_dempster, _vertex_products(bodies)) if r is not None)
    lows, highs = _extrema(targets, ratios)
    if math.inf in lows.values():
        raise TotalConflictError("not combinable: all vertex tuples are in total conflict")
    return IntervalMassResult(
        bodies[0].frame, tuple((FocalSet(bits), lows[bits], highs[bits]) for bits in targets)
    )


# ---------------------------------------------------------------------------
# Song (intuitionistic route)


def _ifs_fold(e1: tuple[float, float], e2: tuple[float, float]) -> tuple[float, float]:
    """Combine two intuitionistic assessments ``(mu, gamma)`` of one singleton.

    This is Dempster's rule, run by ``fusion._dempster``, on a two-element
    frame with masses ``(mu, gamma, pi)`` on (yes, no, either), where the
    hesitancy ``pi = 1 - mu - gamma`` is clamped at 0; it is therefore
    commutative and associative.  Where both triples sum to exactly 1 it
    equals :func:`~ivbel.fusion.dempster_combine` on them, bit for bit.
    """
    (mu1, gamma1), (mu2, gamma2) = e1, e2
    # Bits 1, 2, 3 are yes, no, either; key 0 holds the conflict.
    masses = _products(
        ((1, mu1), (2, gamma1), (3, max(0.0, 1.0 - mu1 - gamma1))),
        ((1, mu2), (2, gamma2), (3, max(0.0, 1.0 - mu2 - gamma2))),
    )
    combined = _dempster(masses)
    if combined is None:
        raise TotalConflictError("IFS total conflict")
    return combined.get(1, 0.0), combined.get(2, 0.0)


def song_combine_detail(bodies: Sequence[IntervalBeliefStructure]) -> CombinationReport:
    """Song's pipeline with its audit trail.

    normalize each body -> interval pignistic per body -> read each
    singleton interval ``[a, b]`` as the assessment ``mu = a``,
    ``gamma = 1 - b`` -> fold assessments across bodies -> back to
    intervals ``[mu, 1 - gamma]`` -> final normalization.

    Each pignistic bound spreads the corresponding mass bound uniformly
    over the focal set's elements, and the per-singleton intervals are
    normalized so every bound is attainable.  The report's stages are each
    ``body<i>.pignistic`` and ``fold``, the back-transformed intervals before
    the final normalization; its ``result`` is the normalized output.
    """
    _check_bodies(bodies, normalized=False)
    frame = bodies[0].frame
    stages = []
    for idx, body in enumerate(map(normalize, bodies), start=1):
        lows = _pignistic_sums(frame, ((fs, lo) for fs, lo, _ in body.entries))
        highs = _pignistic_sums(frame, ((fs, hi) for fs, _, hi in body.entries))
        pig = tuple((FocalSet(bits), lows[bits], min(1.0, highs[bits])) for bits in lows)
        stages.append((f"body{idx}.pignistic", normalize(IntervalBeliefStructure(frame, pig))))
    entries = []
    # Each pignistic body holds every singleton, in frame order.
    for column in zip(*(body.entries for _, body in stages)):
        mu, gamma = functools.reduce(_ifs_fold, ((a, 1.0 - b) for _, a, b in column))
        # 1 - gamma can undershoot mu by a few ulps when the hesitancy is zero.
        entries.append((column[0][0], min(mu, 1.0 - gamma), 1.0 - gamma))
    fold = IntervalBeliefStructure(frame, entries)
    stages.append(("fold", fold))
    return CombinationReport(IntervalMassResult(frame, normalize(fold).entries), tuple(stages))


def song_combine(bodies: Sequence[IntervalBeliefStructure]) -> IntervalMassResult:
    """Song's combination: pignistic projection, intuitionistic fold,
    back-transform, final normalization.  Output is Bayesian (singleton
    focal sets only) and normalized."""
    # Looked up as a module global, so a tracer that rebinds it times this call too.
    return song_combine_detail(bodies).result
