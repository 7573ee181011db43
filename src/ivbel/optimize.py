"""Exact entropy bounds over the feasible set of an interval structure.

For a separable measure ``H(m) = sum_A m(A)*(k_A - beta*log2 m(A))`` the
bounds over the feasible polytope are computed exactly:

* ``beta > 0``: H is strictly concave, so the maximum is interior and found
  by water-filling (each mass is ``clamp(w_A * c, lo_A, hi_A)`` with
  ``w_A = 2**(k_A/beta)`` and a common level ``c`` solved exactly on the
  linear segment between breakpoints where the clamped sum reaches one),
  while the minimum is attained at a vertex and found by a bounded vertex
  search (:func:`~ivbel.polytope.enumerate_vertices` with the measure's
  profile).  The built-in measures have ``beta = 1``.
* ``beta = 0``: H is linear; both extrema are reached by greedily assigning
  the residual mass above the lower bounds in weight order, splitting the
  residual equally within groups of equal weight.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .core import MASS_SUM_TOL, Bpa, IntervalBeliefStructure, IvbelError, is_normalized
from .entropy import EntropyMeasure, entropy_from_profile, measure, separable_profile
from .polytope import _greedy_linear, enumerate_vertices

__all__ = [
    "EntropyBoundsSolution",
    "water_fill",
    "max_entropy_bpa",
    "entropy_bounds",
]

# A minimum above the maximum by more than this is a solver defect.
_INVERSION_TOL = 1e-9


class EntropyBoundsSolution(NamedTuple):
    """Entropy bounds with the witnessing assignments.

    ``m_min`` is the lexicographically first polytope vertex whose entropy
    is at most the least vertex entropy plus
    :data:`~ivbel.polytope.MIN_TIE_TOL`, and ``min_tie_count`` the number of
    such vertices (1 when the minimizer is unique or the measure is linear).
    The rule reads only the least value, not the visiting order.
    """

    m_max: Bpa
    m_min: Bpa
    h_max: float
    h_min: float
    min_tie_count: int = 1


def water_fill(
    lower: tuple[float, ...], upper: tuple[float, ...], weights: tuple[float, ...]
) -> tuple[tuple[float, ...], float]:
    """Solve ``m_i = clamp(w_i * c, lo_i, hi_i)`` with ``sum(m) = 1``.

    Returns the mass vector and the level ``c``.  Requires positive weights
    and ``sum(lo) <= 1 <= sum(hi)``.  The clamped sum is piecewise linear and
    nondecreasing in ``c`` with breakpoints ``lo_i/w_i`` and ``hi_i/w_i``, so
    ``c`` is solved exactly on the segment that ends at the first breakpoint
    where the sum reaches one.
    """
    sum_lo = math.fsum(lower)
    if sum_lo > 1.0 + MASS_SUM_TOL or math.fsum(upper) < 1.0 - MASS_SUM_TOL:
        raise IvbelError("water filling requires sum(lo) <= 1 <= sum(hi)")

    def clamped(c: float) -> list[float]:
        # min(max(w * c, lo), hi) for lo <= hi, signed zeros included.
        return [
            lo if (x := w * c) < lo else hi if x > hi else x
            for lo, hi, w in zip(lower, upper, weights)
        ]

    # Past lo/w an entry is free and past hi/w clamped, so one sweep over the
    # stably sorted breakpoints (each point the first of its equal values, as
    # a set keeps) tracks the sum as base + slope * c to estimate the crossing.
    bounds = zip(lower, upper, weights)
    events = [e for lo, hi, w in bounds for e in ((lo / w, -lo, w), (hi / w, hi, -w))]
    events.sort(key=itemgetter(0))
    points: list[float] = []
    k, base, slope = -1, sum_lo, 0.0
    for p, d_base, d_slope in events:
        if not points or p != points[-1]:
            if k < 0 and points and base + slope * points[-1] >= 1.0:
                k = len(points) - 1
            points.append(p)
        base += d_base
        slope += d_slope
    if k < 0:
        k = len(points) - (base + slope * points[-1] >= 1.0)
    # The estimate rounds differently from math.fsum, so step it to the first
    # point whose exact clamped sum reaches one; the test is monotone in c.
    sums: dict[int, float] = {}

    def total(i: int) -> float:
        if i not in sums:
            sums[i] = math.fsum(clamped(points[i]))
        return sums[i]

    while k < len(points) and total(k) < 1.0:
        k += 1
    while k > 0 and total(k - 1) >= 1.0:
        k -= 1
    if k == 0 or k == len(points):
        c = points[min(k, len(points) - 1)]
    else:
        # The sum is linear between the two breakpoints around the crossing.
        a, b = points[k - 1], points[k]
        sa, sb = total(k - 1), total(k)
        c = a + (b - a) * (1.0 - sa) / (sb - sa)
    return tuple(clamped(c)), c


def _prepare(
    ibs: IntervalBeliefStructure, m: str | EntropyMeasure
) -> tuple[EntropyMeasure, tuple[tuple[float, float], ...]]:
    """The measure and its separable profile over a normalized structure."""
    if not is_normalized(ibs):
        raise IvbelError(
            "entropy bounds require a normalized structure; call normalize() first"
        )
    meas = measure(m)
    return meas, separable_profile(meas, ibs.focal_sets, ibs.frame)


def _max_vec(
    ibs: IntervalBeliefStructure,
    meas: EntropyMeasure,
    profile: tuple[tuple[float, float], ...],
) -> tuple[float, ...]:
    keys = [k for k, _ in profile]
    beta = meas.beta
    if beta == 0.0:
        return _greedy_linear(ibs.lower_bounds, ibs.upper_bounds, keys, descending=True)
    try:
        weights = [2.0 ** (k / beta) for k in keys]
    except OverflowError:  # float ** raises where * and / give inf
        weights = (math.inf,)
    if not all(0.0 < w < math.inf for w in weights):
        raise IvbelError(
            f"measure {meas.id!r} with beta = {beta!r}: a water-fill weight"
            " 2**(k/beta) is not a positive finite float"
        )
    return water_fill(ibs.lower_bounds, ibs.upper_bounds, weights)[0]


def max_entropy_bpa(ibs: IntervalBeliefStructure, m: str | EntropyMeasure) -> Bpa:
    """The feasible BPA maximizing a separable measure.  Requires a
    normalized structure.  It is ``entropy_bounds(ibs, m).m_max`` without
    the vertex search for the minimum."""
    meas, profile = _prepare(ibs, m)
    return Bpa(ibs.frame, tuple(zip(ibs.focal_sets, _max_vec(ibs, meas, profile))))


def entropy_bounds(
    ibs: IntervalBeliefStructure, m: str | EntropyMeasure
) -> EntropyBoundsSolution:
    """Exact entropy bounds with witnesses for a separable measure."""
    meas, profile = _prepare(ibs, m)
    max_vec = _max_vec(ibs, meas, profile)
    if meas.beta == 0.0:
        keys = tuple(k for k, _ in profile)
        min_vec = _greedy_linear(ibs.lower_bounds, ibs.upper_bounds, keys, descending=False)
        ties = 1
    else:
        tied = enumerate_vertices(ibs, profile)
        min_vec, ties = tied[0], len(tied)
    h_max = entropy_from_profile(max_vec, profile)
    h_min = entropy_from_profile(min_vec, profile)
    if h_min > h_max + _INVERSION_TOL:
        raise AssertionError(f"entropy bounds inverted: {h_min} > {h_max}")
    return EntropyBoundsSolution(
        m_max=Bpa(ibs.frame, tuple(zip(ibs.focal_sets, max_vec))),
        m_min=Bpa(ibs.frame, tuple(zip(ibs.focal_sets, min_vec))),
        h_max=h_max,
        h_min=min(h_min, h_max),
        min_tie_count=ties,
    )
