"""Geometry of the feasible set of an interval belief structure.

The BPAs compatible with a structure form a polytope: the box given by the
per-entry bounds cut by the plane where masses sum to one.  Every vertex of
that polytope has at most one coordinate strictly between its bounds, so the
vertices are found by one depth-first tree over the coordinates: each is set
to its lower bound, its upper bound or, once per path, left free to absorb
the residual.  Branches whose partial sum can no longer leave an accepted
residual are pruned, so the cost grows with the vertices returned rather
than with the n * 2**(n-1) bound patterns.

Given a separable concave objective, the same tree cuts every branch that
cannot tie the minimum (Falk and Soland's branch and bound, Management
Science 1969): each open coordinate's term is bounded below by its secant
over its bounds, and the least value of that linear sum over the branch's
part of the polytope is a greedy fill in slope order.  The tree then
branches on the coordinates in that order, as Horowitz and Sahni's
depth-first knapsack search takes items by ratio (J. ACM 1974), so a
branch's open coordinates are its free one, whose slope is least, and the
ones after it in the order: the fill walks that suffix and stops when the
mass runs out.  Each node's children are visited toward the vertex that
minimizes the secant sum over the whole polytope first, which that fill
from the root gives: the widths that fit the mass above the lower bounds at
their upper bounds, the next coordinate free if any mass is left, the rest
at their lower bounds.  So the first leaf is a good incumbent, and cuts
start near the root.  A leaf whose value, summed plainly from its path, is
above the cut is skipped before the dedupe and the exact score.  With no
objective given the objective is zero: every vertex ties, no branch is cut,
and the search returns the full list.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

from .core import MASS_SUM_TOL, IntervalBeliefStructure, IvbelError
from .entropy import _xlog2, entropy_from_profile

__all__ = ["MAX_VERTEX_DIM", "MIN_TIE_TOL", "enumerate_vertices", "contains"]

# Refuse enumeration above this many focal sets.  The search costs time per
# node it cannot cut, and the full list, where every vertex ties, cuts none.
# This caps n rather than a count of nodes, which grows as C(n, n/2) on equal
# and near-equal boxes; a budget on the work actually done is meant to
# replace this cap.
MAX_VERTEX_DIM = 24
_DEDUPE_DECIMALS = 12
# The search prunes against the acceptance window (MASS_SUM_TOL beyond each
# bound) widened by this much more on each side: partial sums are plain float
# sums while the acceptance test uses math.fsum, so pruning at the acceptance window
# itself could cut a pattern the leaf test accepts.
_PRUNE_SLACK = 1e-7
# Vertices whose objective value is at most the least one plus this tie, and
# the lexicographically first is the witness.  The rule reads only the least
# value, not the visiting order, so a search that skips vertices keeps it.
MIN_TIE_TOL = 1e-10
# A branch or a leaf is cut when its bound exceeds the best value found plus
# MIN_TIE_TOL plus this times the objective's scale, max(1, sum |term at lo| +
# sum |rise over the box|).  Two errors grow with |k| and beta, and the scale
# covers both: the rounding of a plainly summed bound or leaf value (about
# 1e-16 of the scale per term) and the spread in value between float copies
# of one vertex that the dedupe merges (up to about 1e-9 of it where
# coordinates are near zero).  Unscaled, |k| = 1e9 spreads copies by 6e-8.
_BOUND_MARGIN = 1e-8

# _greedy_linear groups keys within _KEY_TIE_TOL; it and the search's lead
# take a residual or headroom below _FILL_EPS as spent.  Neither is
# MASS_DROP_EPS: the first compares objective keys, not masses, and the second
# must stay near machine precision so linear-measure witnesses are exact to about 1e-16.
_KEY_TIE_TOL = 1e-12
_FILL_EPS = 1e-15


def _greedy_linear(
    lower: Sequence[float], upper: Sequence[float], keys: Sequence[float], *, descending: bool
) -> tuple[float, ...]:
    """Extremize a linear objective: fill the residual above the lower bounds
    group by group in key order, splitting equally within tied groups."""
    n = len(lower)
    m = list(lower)
    residual = 1.0 - math.fsum(lower)
    order = sorted(range(n), key=lambda i: keys[i], reverse=descending)
    groups: list[list[int]] = []
    for i in order:
        if groups and abs(keys[groups[-1][0]] - keys[i]) <= _KEY_TIE_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    for group in groups:
        while residual > _FILL_EPS:
            active = [i for i in group if m[i] < upper[i] - _FILL_EPS]
            if not active:
                break
            share = residual / len(active)
            for i in active:
                add = min(share, upper[i] - m[i])
                m[i] += add
                residual -= add
    return tuple(m)


def enumerate_vertices(
    ibs: IntervalBeliefStructure,
    profile: Sequence[tuple[float, float]] | None = None,
) -> tuple[tuple[float, ...], ...]:
    """The vertices of the feasible polytope that minimize a separable
    objective, as mass vectors; with no objective, all of them.

    Vectors are aligned with ``ibs.entries`` (canonical focal-set order) and
    returned sorted lexicographically, with duplicates equal after rounding to
    12 decimals removed.  Raises when the structure has no feasible point or
    has more than :data:`MAX_VERTEX_DIM` entries.

    ``profile`` holds the ``(k, beta)`` pairs of a separable measure with
    ``beta >= 0`` (:func:`ivbel.entropy.separable_profile`); none is the
    zero objective, under which every vertex ties.  Returns the vertices whose
    :func:`ivbel.entropy.entropy_from_profile` value is at most the least one
    plus :data:`MIN_TIE_TOL`, as filtering the full list would, and skips
    every branch that cannot hold one.  Raises when the profile has another
    length than ``ibs.entries``, a ``k`` that is not finite, or a ``beta``
    that is negative or not finite.
    """
    n = len(ibs.entries)
    if n > MAX_VERTEX_DIM:
        raise IvbelError(
            f"vertex enumeration refused: {n} focal sets (max {MAX_VERTEX_DIM})"
        )
    if profile is None:
        profile = ((0.0, 0.0),) * n
    if len(profile) != n:
        raise IvbelError(f"profile has {len(profile)} entries, structure has {n}")
    for (fs, _, _), (k, beta) in zip(ibs.entries, profile):
        if not (math.isfinite(k) and math.isfinite(beta) and beta >= 0.0):
            raise IvbelError(
                f"profile entry for {ibs.frame.format_set(fs)} needs a finite k and a "
                f"finite beta >= 0, got k={k}, beta={beta}"
            )
    lo, hi = ibs.lower_bounds, ibs.upper_bounds
    found: dict[tuple[float, ...], tuple[int, tuple[float, ...]]] = {}
    # Each term m*k - beta*m*log2(m) is concave, so its secant over
    # [lo, hi] lies below it there; lift is its rise over the interval.
    phi_lo = [m * k - beta * _xlog2(m) for m, (k, beta) in zip(lo, profile)]
    lift = [m * k - beta * _xlog2(m) - a for m, (k, beta), a in zip(hi, profile, phi_lo)]
    width = [h - l for l, h in zip(lo, hi)]
    slope = [b / w if w > 0.0 else 0.0 for b, w in zip(lift, width)]
    # order[d]: the coordinate branched on at depth d, in slope order, ties by
    # width, then index.
    order = sorted(range(n), key=lambda i: (slope[i], width[i], i))
    lo, hi, lift, slope, width = ([x[i] for i in order] for x in (lo, hi, lift, slope, width))
    fill = list(zip(slope, width))
    # Lead to the vertex minimizing the secant sum: widths that fit the mass
    # above the lower bounds at hi, the next one free if mass is left, then lo.
    lead, rest = [], 1.0 - math.fsum(lo)
    for w in width:
        lead.append(1 if w <= rest + _FILL_EPS else 2 if rest > _FILL_EPS else 0)
        rest -= w
    # lifted[d]: every term at lo plus the lifts of the path's bounds at hi.
    lifted = [math.fsum(phi_lo)] * (n + 1)
    scores: dict[tuple[float, ...], float] = {}
    cut = MIN_TIE_TOL + _BOUND_MARGIN * max(
        1.0, math.fsum(map(abs, phi_lo)) + math.fsum(map(abs, lift))
    )
    limit = math.inf  # the least score found plus cut
    window = MASS_SUM_TOL + _PRUNE_SLACK
    # From here on, bounds and flags are indexed by depth; values by coordinate.
    # rest_lo[d] and rest_hi[d] sum the bounds after d, from the last one back.
    rest_lo = list(accumulate(lo[:0:-1], initial=0.0))[::-1]
    rest_hi = list(accumulate(hi[:0:-1], initial=0.0))[::-1]
    # With free depth f, or f = n (bounds 0) while none is free yet, a sum s
    # of the values up to d can still lead to an accepted residual only if
    # s + rest_lo[d] <= most[f] and s + rest_hi[d] >= least[f].
    lo_f = (*lo, 0.0)
    most = [1.0 - l + MASS_SUM_TOL + _PRUNE_SLACK for l in lo_f]
    least = [1.0 - h - MASS_SUM_TOL - _PRUNE_SLACK for h in (*hi, 0.0)]
    # Depth d tries (code, value, rise): its lower bound (0), its upper bound
    # (1, rising by lift[d]) and, while none is free, being free (2), which the
    # last one must be then; choices[d][1] holds all, lead[d] first, [0] the bounds.
    # A zero-width depth tries its bound once: at hi it gives the same floats.
    choices, loose = [], (2, 0.0, 0.0)
    for d, c in enumerate(lead):
        low, high = (0, lo[d], 0.0), (1, hi[d], lift[d])
        tries = (low,) if lo[d] == hi[d] else (high, low) if c == 1 else (low, high)
        choices.append((tries, (loose, *tries) if c == 2 else (*tries, loose)))
    choices[-1] = (choices[-1][0], (loose,))
    values = [0.0] * n  # the path's bounds, 0.0 at the free coordinate
    partial = [0.0] * n  # partial[d] sums the values of depths before d
    options = [iter(choices[0][1])] * n  # options[d]: what d has left to try
    d, free = 0, n  # free: the free depth before d, or n
    while d >= 0:
        choice, value, rise = next(options[d], (-1, 0.0, 0.0))
        if choice < 0:
            d -= 1
            if free == d:
                free = n
            continue
        f = d if choice == 2 else free
        t = partial[d] + value
        if t + rest_lo[d] > most[f] or t + rest_hi[d] < least[f]:
            continue
        up = lifted[d] + rise
        # The secant fill of the open depths in slope order: the free
        # one, whose slope is least, then those after d.  While slopes
        # are negative it fills all the window allows, then what it needs.
        extra = 1.0 - t - rest_lo[d] - lo_f[f]
        bound, filled, p = up, 0.0, f if f < n else d + 1
        while p < n:
            s, w = fill[p]
            room = (extra + window if s < 0.0 else extra - window) - filled
            if room <= 0.0:
                break
            take = w if w < room else room
            bound += s * take
            filled += take
            p = p + 1 if p > d else d + 1
        if bound > limit:
            continue
        lifted[d + 1] = up
        values[order[d]] = value
        if d < n - 1:
            d += 1
            partial[d] = t
            free = f
            options[d] = iter(choices[d][f == n])
            continue
        # A residual within MASS_SUM_TOL of a bound snaps to it, so a vertex
        # with every coordinate at a bound has the same floats whichever one
        # is free.  The snap compares rounded sums as the acceptance test
        # does, so every accepted residual ends in the box.
        residual = 1.0 - math.fsum(values)
        if lo[f] - MASS_SUM_TOL <= residual <= hi[f] + MASS_SUM_TOL:
            if residual <= lo[f] + MASS_SUM_TOL:
                residual = lo[f]
            elif residual >= hi[f] - MASS_SUM_TOL:
                residual = hi[f]
            f = order[f]
            # The leaf's value, summed plainly: a leaf above the cut
            # cannot tie, so it skips the dedupe and the exact score.
            k, beta = profile[f]
            if up + residual * k - beta * _xlog2(residual) - phi_lo[f] > limit:
                continue
            values[f] = residual
            vec = tuple(values)
            values[f] = 0.0
            key = tuple(round(v, _DEDUPE_DECIMALS) for v in vec)
            # Copies of a vertex that differ below the key's decimals resolve,
            # whatever the visit order, to the one a scan of each free index's
            # bound patterns in turn meets first (least index, then values).
            g, old = found.setdefault(key, (f, vec))
            if old is not vec:
                if f > g or f == g and vec[:f] + vec[f + 1 :] >= old[:f] + old[f + 1 :]:
                    continue
                found[key] = (f, vec)
            scores[vec] = entropy_from_profile(vec, profile)
            limit = min(limit, scores[vec] + cut)

    if not found:
        raise IvbelError("structure has no feasible mass assignment")
    vertices = sorted(vec for _, vec in found.values())
    floor = min(scores[vec] for vec in vertices) + MIN_TIE_TOL
    return tuple(vec for vec in vertices if scores[vec] <= floor)


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
