"""Geometry of the feasible set of an interval belief structure.

The BPAs compatible with a structure form a polytope: the box given by the
per-entry bounds cut by the plane where masses sum to one.  Every vertex of
that polytope has at most one coordinate strictly between its bounds, which
makes exhaustive vertex enumeration practical for the small focal counts
this library targets.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .core import MASS_SUM_TOL, IntervalBeliefStructure, IvbelError

__all__ = ["MAX_VERTEX_DIM", "enumerate_vertices", "contains"]

# Refuse enumeration above this many focal sets; the candidate count grows as
# n * 2**(n-1).
MAX_VERTEX_DIM = 24
_DEDUPE_DECIMALS = 12


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
    # the others at bounds and let the free one absorb the residual.  A
    # residual within MASS_SUM_TOL of a bound snaps to it, so a vertex with
    # every coordinate at a bound has the same floats whichever one is free.
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for pattern in itertools.product((0, 1), repeat=n - 1):
            fixed = [hi[i] if up else lo[i] for i, up in zip(others, pattern)]
            residual = 1.0 - math.fsum(fixed)
            if lo[free] - MASS_SUM_TOL <= residual <= hi[free] + MASS_SUM_TOL:
                if abs(residual - lo[free]) <= MASS_SUM_TOL:
                    residual = lo[free]
                elif abs(residual - hi[free]) <= MASS_SUM_TOL:
                    residual = hi[free]
                vec = tuple(fixed[:free] + [residual] + fixed[free:])
                found.setdefault(tuple(round(v, _DEDUPE_DECIMALS) for v in vec), vec)

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
