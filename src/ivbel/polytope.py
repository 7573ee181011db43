"""Geometry of the feasible set of an interval belief structure.

The BPAs compatible with a structure form a polytope: the box given by the
per-entry bounds cut by the plane where masses sum to one.  Every vertex of
that polytope has at most one coordinate strictly between its bounds, so the
vertices are the bound patterns of the other coordinates whose sums leave the
free one a residual within its bounds.  A depth-first search over those
patterns prunes every branch whose partial sum can no longer reach that
window, so its cost grows with the vertices returned rather than with the
n * 2**(n-1) patterns.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import MASS_SUM_TOL, IntervalBeliefStructure, IvbelError

__all__ = ["MAX_VERTEX_DIM", "enumerate_vertices", "contains"]

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


def enumerate_vertices(ibs: IntervalBeliefStructure) -> tuple[tuple[float, ...], ...]:
    """All vertices of the feasible polytope, as mass vectors.

    Vectors are aligned with ``ibs.entries`` (canonical focal-set order) and
    returned sorted lexicographically, with duplicates equal after rounding to
    12 decimals removed.  Raises when the structure has no feasible point or
    has more than :data:`MAX_VERTEX_DIM` entries.
    """
    n = len(ibs.entries)
    if n > MAX_VERTEX_DIM:
        raise IvbelError(
            f"vertex enumeration refused: {n} focal sets (max {MAX_VERTEX_DIM})"
        )
    lo = ibs.lower_bounds
    hi = ibs.upper_bounds
    found: dict[tuple[float, ...], tuple[float, ...]] = {}

    # Each vertex has at most one coordinate strictly between its bounds: fix
    # the others at bounds and let the free one absorb the residual.  Patterns
    # are walked depth first, lower bound before upper and first coordinate
    # slowest (the order of itertools.product((0, 1), repeat=n - 1)), so
    # setdefault keeps the representative of each vertex that a scan of all
    # patterns would keep.
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
                    fixed[d] = value
                    partial[d + 1] = t
                    d += 1
                continue
            # A residual within MASS_SUM_TOL of a bound snaps to it, so a
            # vertex with every coordinate at a bound has the same floats
            # whichever one is free.
            residual = 1.0 - math.fsum(fixed)
            if lo[free] - MASS_SUM_TOL <= residual <= hi[free] + MASS_SUM_TOL:
                if abs(residual - lo[free]) <= MASS_SUM_TOL:
                    residual = lo[free]
                elif abs(residual - hi[free]) <= MASS_SUM_TOL:
                    residual = hi[free]
                vec = tuple(fixed[:free] + [residual] + fixed[free:])
                found.setdefault(tuple(round(v, _DEDUPE_DECIMALS) for v in vec), vec)
            d -= 1

    if not found:
        raise IvbelError("structure has no feasible mass assignment")
    return tuple(sorted(found.values()))


def contains(
    ibs: IntervalBeliefStructure,
    masses: Sequence[float],
    tol: float = MASS_SUM_TOL,
) -> bool:
    """Whether a mass vector (aligned with ``ibs.entries``) is feasible."""
    if len(masses) != len(ibs.entries):
        raise IvbelError(
            f"mass vector has {len(masses)} entries, structure has {len(ibs.entries)}"
        )
    for m, lo, hi in zip(masses, ibs.lower_bounds, ibs.upper_bounds):
        if not lo - tol <= m <= hi + tol:
            return False
    return abs(math.fsum(masses) - 1.0) <= tol
