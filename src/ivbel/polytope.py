"""Geometry of the feasible set of an interval belief structure.

The BPAs compatible with a structure form a polytope: the box given by the
per-entry bounds cut by the plane where masses sum to one.  Every vertex of
that polytope has at most one coordinate strictly between its bounds, so the
vertices are the bound patterns of the other coordinates whose sums leave the
free one a residual within its bounds.  A depth-first search over those
patterns prunes every branch whose partial sum can no longer reach that
window, so its cost grows with the vertices returned rather than with the
n * 2**(n-1) patterns.

Given a separable concave objective, the same search cuts every branch that
cannot tie the minimum (Falk and Soland's branch and bound, Management
Science 1969): each open coordinate's term is bounded below by its secant
over its bounds, and the least value of that linear sum over the branch's
part of the polytope is a greedy fill in slope order.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import MASS_SUM_TOL, IntervalBeliefStructure, IvbelError
from .entropy import _xlog2, entropy_from_profile

__all__ = ["MAX_VERTEX_DIM", "MIN_TIE_TOL", "enumerate_vertices", "contains"]

# Refuse enumeration above this many focal sets.  The pruned search costs time
# per vertex, so this caps n rather than a candidate count; the vertex count
# itself can still grow as C(n, n/2), and a budget on the work actually done
# is meant to replace this cap.
MAX_VERTEX_DIM = 24
_DEDUPE_DECIMALS = 12
# The search prunes against the acceptance window (MASS_SUM_TOL beyond each
# bound) widened by this much more on each side: partial sums are plain float
# sums while the leaf test uses math.fsum, so pruning at the acceptance window
# itself could cut a pattern the leaf test accepts.
_PRUNE_SLACK = 1e-7
# Vertices whose objective value is at most the least one plus this tie, and
# the lexicographically first is the witness.  The rule reads only the least
# value, not the visiting order, so a search that skips vertices keeps it.
MIN_TIE_TOL = 1e-10
# A branch is cut when its bound exceeds the best value found plus
# MIN_TIE_TOL plus this, which covers the rounding of a plainly summed bound
# (about 1e-14) and the spread in value between float copies of one vertex
# that the dedupe merges (up to about 1e-9 where coordinates are near zero).
_BOUND_MARGIN = 1e-8


def _secant_bound(base, extra, fill, rank, depth) -> float:
    """``base`` plus the least secant increment of the coordinates with
    ``rank >= depth`` sharing ``extra`` mass above their lower bounds, give
    or take the pruning window: fill in slope order all the mass the window
    allows while slopes are negative, then only what it requires."""
    window = MASS_SUM_TOL + _PRUNE_SLACK
    target = extra + window
    filled = 0.0
    for slope, width, j in fill:
        if rank[j] < depth:
            continue
        if slope >= 0.0:
            target = extra - window
        room = target - filled
        if room <= 0.0:
            break
        take = width if width < room else room
        base += slope * take
        filled += take
    return base


def enumerate_vertices(
    ibs: IntervalBeliefStructure,
    profile: Sequence[tuple[float, float]] | None = None,
) -> tuple[tuple[float, ...], ...]:
    """All vertices of the feasible polytope, as mass vectors.

    Vectors are aligned with ``ibs.entries`` (canonical focal-set order) and
    returned sorted lexicographically, with duplicates equal after rounding to
    12 decimals removed.  Raises when the structure has no feasible point or
    has more than :data:`MAX_VERTEX_DIM` entries.

    Given ``profile``, the ``(k, beta)`` pairs of a separable measure with
    ``beta >= 0`` (:func:`ivbel.entropy.separable_profile`), returns only the
    vertices whose :func:`ivbel.entropy.entropy_from_profile` value is at
    most the least one plus :data:`MIN_TIE_TOL`, as filtering the full list
    would, and skips every branch that cannot hold one.
    """
    n = len(ibs.entries)
    if n > MAX_VERTEX_DIM:
        raise IvbelError(
            f"vertex enumeration refused: {n} focal sets (max {MAX_VERTEX_DIM})"
        )
    lo = ibs.lower_bounds
    hi = ibs.upper_bounds
    found: dict[tuple[float, ...], tuple[float, ...]] = {}
    bounded = profile is not None
    if bounded:
        # Each term m*k - beta*m*log2(m) is concave, so its secant over
        # [lo, hi] lies below it there; lift is its rise over the interval.
        phi_lo = [m * k - beta * _xlog2(m) for m, (k, beta) in zip(lo, profile)]
        lift = [m * k - beta * _xlog2(m) - a for m, (k, beta), a in zip(hi, profile, phi_lo)]
        width = [h - l for l, h in zip(lo, hi)]
        slope = [b / w if w > 0.0 else 0.0 for b, w in zip(lift, width)]
        fill = sorted(zip(slope, width, range(n)))
        floor_phi = math.fsum(phi_lo)
        scores: dict[tuple[float, ...], float] = {}
        best = math.inf
        cut = MIN_TIE_TOL + _BOUND_MARGIN

    # Each vertex has at most one coordinate strictly between its bounds: fix
    # the others at bounds and let the free one absorb the residual.  Patterns
    # are walked depth first, lower bound before upper and first coordinate
    # slowest (the order of itertools.product((0, 1), repeat=n - 1)), so the
    # first pattern to reach a vertex is the one a scan of all patterns keeps;
    # a branch the objective cuts holds no first copy of a tied vertex.
    depth = n - 1
    for free in range(n):
        others = [i for i in range(n) if i != free]
        # rest_lo[d] and rest_hi[d] sum the bounds of others[d:].
        rest_lo = [0.0] * n
        rest_hi = [0.0] * n
        for d in range(depth - 1, -1, -1):
            rest_lo[d] = rest_lo[d + 1] + lo[others[d]]
            rest_hi[d] = rest_hi[d + 1] + hi[others[d]]
        # A partial sum s can still lead to an accepted residual only if
        # s + rest_lo <= most and s + rest_hi >= least.
        most = 1.0 - lo[free] + MASS_SUM_TOL + _PRUNE_SLACK
        least = 1.0 - hi[free] - MASS_SUM_TOL - _PRUNE_SLACK
        fixed = [0.0] * depth
        partial = [0.0] * n  # partial[d] sums fixed[:d]
        tried = [0] * depth  # bounds tried at position d: 0, 1 (lower) or 2
        if bounded:
            # At depth d the coordinates of rank >= d are open, and lifted[d]
            # sums every term at its lower bound plus the lifts of fixed[:d].
            rank = [depth] * n
            for d, i in enumerate(others):
                rank[i] = d
            lifted = [floor_phi] * n
        d = 0
        while d >= 0:
            if d < depth:
                if tried[d] == 2:
                    tried[d] = 0
                    d -= 1
                    continue
                i = others[d]
                value = hi[i] if tried[d] else lo[i]
                tried[d] += 1
                t = partial[d] + value
                if t + rest_lo[d + 1] <= most and t + rest_hi[d + 1] >= least:
                    if bounded:
                        lifted[d + 1] = lifted[d] + (lift[i] if tried[d] == 2 else 0.0)
                        extra = 1.0 - t - rest_lo[d + 1] - lo[free]
                        if _secant_bound(lifted[d + 1], extra, fill, rank, d + 1) > best + cut:
                            continue
                    fixed[d] = value
                    partial[d + 1] = t
                    d += 1
                continue
            # A residual within MASS_SUM_TOL of a bound snaps to it, so a
            # vertex with every coordinate at a bound has the same floats
            # whichever one is free.  The snap compares rounded sums as the
            # acceptance test does, so every accepted residual ends in the box.
            residual = 1.0 - math.fsum(fixed)
            if lo[free] - MASS_SUM_TOL <= residual <= hi[free] + MASS_SUM_TOL:
                if residual <= lo[free] + MASS_SUM_TOL:
                    residual = lo[free]
                elif residual >= hi[free] - MASS_SUM_TOL:
                    residual = hi[free]
                vec = tuple(fixed[:free] + [residual] + fixed[free:])
                key = tuple(round(v, _DEDUPE_DECIMALS) for v in vec)
                if found.setdefault(key, vec) is vec and bounded:
                    scores[vec] = entropy_from_profile(vec, profile)
                    best = min(best, scores[vec])
            d -= 1

    if not found:
        raise IvbelError("structure has no feasible mass assignment")
    vertices = sorted(found.values())
    if bounded:
        vertices = [vec for vec in vertices if scores[vec] <= best + MIN_TIE_TOL]
    return tuple(vertices)


def contains(ibs: IntervalBeliefStructure, masses: Sequence[float]) -> bool:
    """Whether a mass vector (aligned with ``ibs.entries``) is feasible, each
    bound and the sum closed within ``MASS_SUM_TOL``."""
    if len(masses) != len(ibs.entries):
        raise IvbelError(
            f"mass vector has {len(masses)} entries, structure has {len(ibs.entries)}"
        )
    for m, lo, hi in zip(masses, ibs.lower_bounds, ibs.upper_bounds):
        if not lo - MASS_SUM_TOL <= m <= hi + MASS_SUM_TOL:
            return False
    return abs(math.fsum(masses) - 1.0) <= MASS_SUM_TOL
