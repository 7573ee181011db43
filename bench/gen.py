"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over ``random.Random``: the same seed gives
the same bodies, independent of the ``ivbel`` version under test.  A body is
a list of ``(bits, lo, hi)`` triples over the 5-element frame :data:`FRAME`;
bit ``i`` of ``bits`` selects ``FRAME[i]``.
"""

from __future__ import annotations

import math
import random

FRAME = ("a", "b", "c", "d", "e")
FULL = (1 << len(FRAME)) - 1
MAX_SETS = FULL  # every non-empty subset of the frame

# Share of the centre mass function reserved for the full frame.
FULL_SHARE = 0.1

# Interval width classes, cycled body by body so each rung mixes narrower
# and wider bodies in fixed proportions whatever the seed.  Every entry of a
# body gets the same width before clipping to [0, 1] and tightening; random
# per-entry widths made the vertex counts, and with them the cost of the
# exact solvers, vary by several times between seeds.
WIDTHS = (0.4, 0.7, 1.0)

Body = list[tuple[int, float, float]]


def _focal_sets(rng: random.Random, n: int) -> list[int]:
    """``n`` distinct non-empty subsets, always including the full frame so
    that no two bodies can be in total conflict."""
    if not 1 <= n <= MAX_SETS:
        raise ValueError(f"focal set count must be 1..{MAX_SETS}, got {n}")
    return sorted([FULL, *rng.sample(range(1, FULL), n - 1)])


def _centre(rng: random.Random, n: int) -> list[float]:
    """A random mass function with full support (flat Dirichlet), with at
    least :data:`FULL_SHARE` on the last entry, the full frame."""
    draws = [rng.expovariate(1.0) for _ in range(n)]
    total = math.fsum(draws)
    centre = [(1.0 - FULL_SHARE) * d / total for d in draws]
    centre[-1] += FULL_SHARE
    return centre


def _bounds(rng: random.Random, n: int, width: float) -> list[tuple[float, float]]:
    """Intervals of ``width`` around a random centre.  The full frame (last
    entry) keeps a lower bound of half its centre mass, so every feasible
    assignment puts mass on it and total conflict between bodies cannot
    occur."""
    centre = _centre(rng, n)
    bounds = [(max(0.0, c - width / 2.0), min(1.0, c + width / 2.0)) for c in centre]
    lo, hi = bounds[-1]
    bounds[-1] = (max(lo, centre[-1] / 2.0), hi)
    return bounds


def tighten(bounds: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Clip each bound to what the other entries leave reachable.

    Requires ``sum(lo) <= 1 <= sum(hi)``; the output is normalized (every
    bound attained by some mass function inside the bounds).
    """
    sum_lo = math.fsum(lo for lo, _ in bounds)
    sum_hi = math.fsum(hi for _, hi in bounds)
    out = []
    for lo, hi in bounds:
        new_lo = max(lo, 1.0 - (sum_hi - hi))
        new_hi = min(hi, 1.0 - (sum_lo - lo))
        out.append((new_lo, max(new_lo, new_hi)))
    return out


def normalized_body(rng: random.Random, n: int, width: float) -> Body:
    """A normalized body with ``n`` focal sets around a random mass function."""
    sets = _focal_sets(rng, n)
    bounds = tighten(_bounds(rng, n, width))
    return [(bits, lo, hi) for bits, (lo, hi) in zip(sets, bounds)]


def raw_body(rng: random.Random, n: int, width: float, kind: str) -> Body:
    """A body as a user might write it, before normalization.

    ``kind`` is ``"slack"`` (bounds straddle 1 but are not tight),
    ``"over"`` (lower bounds sum above 1) or ``"under"`` (upper bounds sum
    below 1); the last two need a proportional rescale.
    """
    sets = _focal_sets(rng, n)
    bounds = _bounds(rng, n, width)
    # One vague entry that allows up to all the mass: its upper bound is not
    # attainable, so the body needs tightening.
    vague = rng.randrange(n - 1)
    bounds[vague] = (bounds[vague][0], 1.0)
    if kind == "over":
        # Raise every bound by one shift so the lower bounds sum to 1.1-1.4.
        shift = (1.1 + 0.3 * rng.random() - math.fsum(lo for lo, _ in bounds)) / n
        bounds = [(lo + shift, hi + shift) for lo, hi in bounds]
    elif kind == "under":
        scale = (0.6 + 0.3 * rng.random()) / math.fsum(hi for _, hi in bounds)
        bounds = [(lo * scale, hi * scale) for lo, hi in bounds]
    elif kind != "slack":
        raise ValueError(f"unknown raw body kind {kind!r}")
    return [(bits, min(1.0, lo), min(1.0, hi)) for bits, (lo, hi) in zip(sets, bounds)]


def ladder(seed: int, rungs: tuple[int, ...], per_rung: int) -> list[tuple[int, Body]]:
    """``per_rung`` normalized bodies for each focal-set count in ``rungs``,
    interleaved rung by rung, as ``(n, body)`` pairs."""
    rng = random.Random(f"ladder:{seed}")
    out = []
    for j in range(per_rung):
        for n in rungs:
            out.append((n, normalized_body(rng, n, WIDTHS[j % len(WIDTHS)])))
    return out


def combine_groups(
    seed: int, groups: tuple[tuple[int, int, tuple[str, ...]], ...], rounds: int
) -> list[tuple[str, int, int, list[Body]]]:
    """Fresh normalized bodies for every engine call.

    ``groups`` holds ``(n, k, engines)``; each round yields one
    ``(engine, n, k, bodies)`` call per engine and group, each with its own
    ``k`` bodies of ``n`` focal sets.
    """
    rng = random.Random(f"combine:{seed}")
    calls = []
    j = 0
    for _ in range(rounds):
        for n, k, engines in groups:
            for engine in engines:
                bodies = [
                    normalized_body(rng, n, WIDTHS[(j + i) % len(WIDTHS)]) for i in range(k)
                ]
                j += 1
                calls.append((engine, n, k, bodies))
    return calls


RAW_KINDS = ("slack", "slack", "over", "slack", "under", "tight")


def raw_ladder(seed: int, rungs: tuple[int, ...], per_rung: int) -> list[tuple[int, str, Body]]:
    """Raw bodies for each focal-set count in ``rungs``, as ``(n, kind, body)``.

    Kinds cycle through :data:`RAW_KINDS`: half the bodies only need
    tightening, a third need a proportional rescale first, and the rest
    (``"tight"``) are normalized already.
    """
    rng = random.Random(f"raw:{seed}")
    out = []
    j = 0
    for _ in range(per_rung):
        for n in rungs:
            kind = RAW_KINDS[j % len(RAW_KINDS)]
            # Shift the width cycle each kind cycle so every kind meets every width.
            width = WIDTHS[(j + j // len(RAW_KINDS)) % len(WIDTHS)]
            j += 1
            if kind == "tight":
                body = normalized_body(rng, n, width)
            else:
                body = raw_body(rng, n, width, kind)
            out.append((n, kind, body))
    return out
