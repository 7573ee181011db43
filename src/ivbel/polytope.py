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
# n * 2**(n-1) + 2**n.
MAX_VERTEX_DIM = 24
_DEDUPE_DECIMALS = 12


def enumerate_vertices(ibs: IntervalBeliefStructure) -> tuple[tuple[float, ...], ...]:
    """All vertices of the feasible polytope, as mass vectors.

    Vectors are aligned with ``ibs.entries`` (canonical focal-set order) and
    returned sorted lexicographically, with duplicates closer than 1e-12 in
    max-norm removed.  Raises when the structure has no feasible point or has
    more than :data:`MAX_VERTEX_DIM` entries.
    """
    n = len(ibs.entries)
    if n > MAX_VERTEX_DIM:
        raise IvbelError(
            f"vertex enumeration refused: {n} focal sets (max {MAX_VERTEX_DIM})"
        )
    lo = ibs.lower_bounds
    hi = ibs.upper_bounds
    found: dict[tuple[float, ...], tuple[float, ...]] = {}

    def keep(vec: tuple[float, ...]) -> None:
        key = tuple(round(v, _DEDUPE_DECIMALS) for v in vec)
        found.setdefault(key, vec)

    # Every coordinate at a bound.
    for pattern in itertools.product((0, 1), repeat=n):
        vec = tuple(hi[i] if pattern[i] else lo[i] for i in range(n))
        if abs(math.fsum(vec) - 1.0) <= MASS_SUM_TOL:
            keep(vec)

    # One free coordinate absorbing the residual.
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for pattern in itertools.product((0, 1), repeat=n - 1):
            fixed = [hi[others[j]] if pattern[j] else lo[others[j]] for j in range(n - 1)]
            residual = 1.0 - math.fsum(fixed)
            if lo[free] - MASS_SUM_TOL <= residual <= hi[free] + MASS_SUM_TOL:
                value = min(max(residual, lo[free]), hi[free])
                vec = list(ibs.lower_bounds)
                for j, i in enumerate(others):
                    vec[i] = fixed[j]
                vec[free] = value
                keep(tuple(vec))

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
