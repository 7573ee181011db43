"""Seeded random generators (bodies, boundary-biased unit floats and fuzzed
input files among them), the brute-force vertex oracle, exact oracles for
the entropy bounds (a weak-duality certificate for the maximum, the least
vertex value for the minimum), and earlier forms of rewritten kernels,
shared by the unit and acceptance suites.  Pure Python: no numpy."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from bisect import bisect_left
from collections.abc import Iterable

from ivbel import (
    Bpa,
    EntropyMeasure,
    FocalSet,
    Frame,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    TotalConflictError,
    entropy_bounds,
    enumerate_vertices,
    normalize,
)
from ivbel.core import MASS_SUM_TOL, _check_bodies
from ivbel.entropy import _xlog2, entropy_from_profile, separable_profile
from ivbel.polytope import _DEDUPE_DECIMALS, MAX_VERTEX_DIM, MIN_TIE_TOL

FRAME3 = Frame(("X", "Y", "Z"))
FRAME_AB = Frame(("A", "B"))
FRAME_ABC = Frame(("A", "B", "C"))
# Frames of 1, 5 and 16 labels: the narrowest, a typical and the widest.
KERNEL_FRAMES = tuple(Frame(tuple(f"E{i}" for i in range(n))) for n in (1, 5, 16))

# Every non-empty subset of a 3-element frame, as label tuples.
ALL_SUBSETS3 = (
    ("X",),
    ("Y",),
    ("Z",),
    ("X", "Y"),
    ("X", "Z"),
    ("Y", "Z"),
    ("X", "Y", "Z"),
)


def random_bpa(rng: random.Random, frame: Frame = FRAME3, max_sets: int = 4) -> Bpa:
    """A BPA over 1..max_sets random focal sets with Dirichlet-like masses."""
    subsets = [frame.subset(s) for s in ALL_SUBSETS3 if set(s) <= set(frame.labels)]
    k = rng.randint(1, min(max_sets, len(subsets)))
    chosen = rng.sample(subsets, k)
    weights = [rng.expovariate(1.0) + 1e-12 for _ in chosen]
    total = sum(weights)
    return Bpa(frame, tuple((fs, w / total) for fs, w in zip(chosen, weights)))


def point_body(b: Bpa) -> IntervalBeliefStructure:
    """A BPA as a zero-width interval structure."""
    return IntervalBeliefStructure(b.frame, tuple((fs, m, m) for fs, m in b.entries))


def random_wide_bpa(rng: random.Random, frame: Frame, max_sets: int = 31) -> Bpa:
    """A BPA on 1..max_sets random non-empty subsets of ``frame``, any subset
    allowed; the first always holds the frame's highest bit (bit 15 on a
    16-label frame).  A repeated set merges, so the masses still sum to one."""
    full = (1 << frame.size) - 1
    chosen = rng.sample(range(1, full + 1), rng.randint(1, min(max_sets, full)))
    chosen[0] |= 1 << (frame.size - 1)
    weights = [rng.expovariate(1.0) + 1e-12 for _ in chosen]
    total = sum(weights)
    return Bpa(frame, tuple((FocalSet(bits), w / total) for bits, w in zip(chosen, weights)))


def random_valid_ibs(
    rng: random.Random, frame: Frame = FRAME3, max_sets: int = 4
) -> IntervalBeliefStructure:
    """A structure that admits at least one BPA (lower sum <= 1 <= upper sum).

    Drawn by rejection so the bounds stay generic; includes the full set so
    random pairs are rarely in total conflict.
    """
    subsets = [frame.subset(s) for s in ALL_SUBSETS3 if set(s) <= set(frame.labels)]
    while True:
        k = rng.randint(2, min(max_sets, len(subsets)))
        chosen = rng.sample(subsets, k - 1) + [frame.full_set]
        chosen = list(dict.fromkeys(chosen))
        entries = []
        for fs in chosen:
            lo = rng.uniform(0.0, 0.45)
            hi = min(1.0, lo + rng.uniform(0.0, 0.5))
            entries.append((fs, lo, hi))
        if sum(e[1] for e in entries) <= 1.0 <= sum(e[2] for e in entries):
            return IntervalBeliefStructure(frame, tuple(entries))


def random_normalized_ibs(
    rng: random.Random, frame: Frame = FRAME3, max_sets: int = 4
) -> IntervalBeliefStructure:
    return normalize(random_valid_ibs(rng, frame, max_sets))


def random_aligned_ibs(
    rng: random.Random, step: float = 0.005
) -> IntervalBeliefStructure:
    """Valid structure over singletons + full set with step-aligned bounds.

    Bounds on a coarse lattice often coincide across focal sets and after
    tightening, so vertices repeat and entropy values tie; widths run from
    0.05 to 0.2.
    """
    units = round(1.0 / step)
    sets = [FRAME3.subset(s) for s in (("X",), ("Y",), ("Z",))] + [FRAME3.full_set]
    while True:
        lows = [rng.randrange(0, units // 4 + 1) * step for _ in sets]
        his = [
            min(1.0, lo + rng.randrange(units // 20, units // 5 + 1) * step)
            for lo in lows
        ]
        if sum(lows) <= 1.0 <= sum(his):
            return IntervalBeliefStructure(
                FRAME3, tuple((fs, lo, hi) for fs, lo, hi in zip(sets, lows, his))
            )


def random_box_ibs(rng: random.Random, n: int, width: float) -> IntervalBeliefStructure:
    """A normalized structure with ``n`` focal sets on a 5-element frame.

    Each bound is a random mass function (the full frame always included)
    widened by ``width`` and clipped to [0, 1], as the benchmark ladders draw
    their bodies, so vertex counts reach the hundreds at n = 10..12.
    """
    frame = Frame(("a", "b", "c", "d", "e"))
    full = (1 << frame.size) - 1
    subsets = rng.sample(range(1, full), n - 1) + [full]
    weights = [rng.expovariate(1.0) for _ in subsets]
    total = sum(weights)
    return normalize(
        IntervalBeliefStructure(
            frame,
            tuple(
                (FocalSet(bits), max(0.0, w / total - width / 2), min(1.0, w / total + width / 2))
                for bits, w in zip(subsets, weights)
            ),
        )
    )


def equal_boxes(n: int) -> IntervalBeliefStructure:
    """``n`` singletons bounded by [0, 2/n]: C(n, n/2) vertices, each with
    every coordinate at a bound and all of equal entropy."""
    labels = tuple(f"E{i}" for i in range(n))
    return IntervalBeliefStructure.from_mapping(
        Frame(labels), {(label,): (0.0, 2.0 / n) for label in labels}
    )


def near_equal_boxes(rng: random.Random, n: int, eps: float) -> IntervalBeliefStructure:
    """``n`` singletons bounded by [0, 2/n + u_i], u_i uniform on [0, eps]:
    :func:`equal_boxes` pulled apart, so the vertices no longer tie but
    their values stay close and a bounded search cuts little."""
    labels = tuple(f"E{i}" for i in range(n))
    return IntervalBeliefStructure.from_mapping(
        Frame(labels), {(label,): (0.0, 2.0 / n + rng.uniform(0.0, eps)) for label in labels}
    )


def near_conflict_pair(
    rng: random.Random,
) -> tuple[IntervalBeliefStructure, IntervalBeliefStructure]:
    """Two bodies on {A, B} in near total conflict: ``{A: [1 - e1, 1 - e1 +
    w1], B: [max(0, e1 - w1), e1]}`` against ``{A: [0, e2], B: [1 - e2, 1]}``
    with ``e = 10**U(-13, -4)`` and ``w1 = e1 * U(0, 1)``."""
    e1 = 10 ** rng.uniform(-13, -4)
    w1 = e1 * rng.uniform(0.0, 1.0)
    e2 = 10 ** rng.uniform(-13, -4)
    return (
        IntervalBeliefStructure.from_mapping(
            FRAME_AB, {("A",): (1 - e1, 1 - e1 + w1), ("B",): (max(0.0, e1 - w1), e1)}
        ),
        IntervalBeliefStructure.from_mapping(FRAME_AB, {("A",): (0.0, e2), ("B",): (1 - e2, 1.0)}),
    )


def near_conflict_body(rng: random.Random, major: str) -> IntervalBeliefStructure:
    """A normalized body on {A, B, C} with ``[1 - e - w, 1]`` on ``major`` and
    ``[0, e]`` on each other singleton, ``e = 10**U(-13, -3)`` and ``w = e *
    U(0, 1)``; two bodies with different majors nearly conflict totally."""
    e = 10 ** rng.uniform(-13, -3)
    w = e * rng.uniform(0.0, 1.0)
    return normalize(
        IntervalBeliefStructure.from_mapping(
            FRAME_ABC,
            {(label,): (1 - e - w, 1.0) if label == major else (0.0, e) for label in "ABC"},
        )
    )


def random_aligned_general_ibs(
    rng: random.Random, step: float = 0.005
) -> IntervalBeliefStructure:
    """Valid structure over arbitrary focal sets with step-aligned bounds.

    Bounds and their residuals stay multiples of ``step`` through
    tightening, so bounds often coincide, and vertices and entropy values
    tie, as they do on hand-written bodies.
    """
    subsets = [FRAME3.subset(s) for s in ALL_SUBSETS3]
    units = round(1.0 / step)
    while True:
        k = rng.randint(2, 4)
        chosen = rng.sample(subsets, k - 1) + [FRAME3.full_set]
        chosen = list(dict.fromkeys(chosen))
        entries = []
        for fs in chosen:
            lo = rng.randrange(0, int(0.45 * units) + 1) * step
            hi = min(1.0, lo + rng.randrange(0, units // 2 + 1) * step)
            entries.append((fs, lo, hi))
        if sum(e[1] for e in entries) <= 1.0 <= sum(e[2] for e in entries):
            return IntervalBeliefStructure(FRAME3, tuple(entries))


def random_point_in(
    rng: random.Random, ibs: IntervalBeliefStructure
) -> tuple[float, ...]:
    """A random feasible mass vector: a convex combination of the vertices."""
    vertices = enumerate_vertices(ibs)
    weights = [rng.expovariate(1.0) + 1e-12 for _ in vertices]
    total = sum(weights)
    return tuple(
        sum(w * v[i] for w, v in zip(weights, vertices)) / total
        for i in range(len(ibs.entries))
    )


def unit_float(rng: random.Random) -> float:
    """A float in [0, 1] drawn toward the ends: 0, 1, ``1e-k``, ``1 - 1e-k``
    (k = 1..16) or uniform, each a fifth of the time."""
    kind = rng.randrange(5)
    if kind < 2:
        return float(kind)
    if kind == 4:
        return rng.random()
    tiny = 10.0 ** -rng.randint(1, 16)
    return tiny if kind == 2 else 1.0 - tiny


# Characters of fuzzed text: ASCII, JSON's quote and escapes, control
# characters, and letters and symbols from Latin-1 to the astral planes.
_FUZZ_CHARS = "aZ09 _-.,:{}[]\"\\\n\t\x00\x7f\xe9λ☃中\U0001f600"


def _fuzz_text(rng: random.Random) -> str:
    return "".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randint(0, 8)))


def _random_json_value(rng: random.Random, depth: int = 0):
    """None, a bool, an int of up to 400 digits, a float (NaN, +-inf and -0.0
    among them), text, or a list or dict of such values nested at most three
    deep."""
    kind = rng.randrange(7 if depth < 3 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 400))
    if kind == 3:
        return rng.choice((math.nan, math.inf, -math.inf, -0.0, 1.0, 5e-324, rng.random()))
    if kind == 4:
        return _fuzz_text(rng)
    if kind == 5:
        return [_random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {_fuzz_text(rng): _random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def _json_paths(value, path=()):
    """The path of ``value`` and of every value nested in it, as key tuples."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_paths(child, (*path, key))


def random_input_file(rng: random.Random, documents: tuple[str, ...]) -> bytes:
    """The bytes of a fuzzed input file, one of three kinds alike: random
    bytes, a :func:`_random_json_value`, or one of the JSON ``documents``
    with one nested value replaced by a :func:`_random_json_value`."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randbytes(rng.randint(0, 64))
    if kind == 1:
        value = _random_json_value(rng)
    else:
        value = json.loads(rng.choice(documents))
        *parents, last = rng.choice(list(_json_paths(value))[1:])
        container = value
        for key in parents:
            container = container[key]
        container[last] = _random_json_value(rng)
    return json.dumps(value, ensure_ascii=rng.random() < 0.5).encode()


def bound_patterns(lo, hi):
    """Every way to put all coordinates but one at a bound, as ``(free,
    fixed)`` pairs with ``fixed`` the other coordinates' values in index
    order: free index by free index, each in ``itertools.product`` order of
    the others (lower bound first, first coordinate slowest).  The
    n * 2**(n-1) patterns hold every vertex of {lo <= m <= hi, sum(m) = 1};
    works on floats and on Fractions alike."""
    n = len(lo)
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for pattern in itertools.product((0, 1), repeat=n - 1):
            yield free, [hi[i] if up else lo[i] for i, up in zip(others, pattern)]


def brute_force_vertices(ibs: IntervalBeliefStructure) -> tuple[tuple[float, ...], ...]:
    """:func:`ivbel.enumerate_vertices` by testing every :func:`bound_patterns`
    pattern in order, with the same leaf test, snap, dedupe key, sorted output
    and errors; the first pattern to reach a vertex represents it.  Test
    oracle for the pruned search.
    """
    n = len(ibs.entries)
    if n > MAX_VERTEX_DIM:
        raise IvbelError(
            f"vertex enumeration refused: {n} focal sets (max {MAX_VERTEX_DIM})"
        )
    lo = ibs.lower_bounds
    hi = ibs.upper_bounds
    found: dict[tuple[float, ...], tuple[float, ...]] = {}

    for free, fixed in bound_patterns(lo, hi):
        residual = 1.0 - math.fsum(fixed)
        if lo[free] - MASS_SUM_TOL <= residual <= hi[free] + MASS_SUM_TOL:
            if residual <= lo[free] + MASS_SUM_TOL:
                residual = lo[free]
            elif residual >= hi[free] - MASS_SUM_TOL:
                residual = hi[free]
            vec = tuple(fixed[:free] + [residual] + fixed[free:])
            found.setdefault(tuple(round(v, _DEDUPE_DECIMALS) for v in vec), vec)

    if not found:
        raise IvbelError("structure has no feasible mass assignment")
    return tuple(sorted(found.values()))


def brute_force_ties(
    ibs: IntervalBeliefStructure, profile: tuple[tuple[float, float], ...]
) -> tuple[tuple[float, ...], ...]:
    """:func:`ivbel.enumerate_vertices` with an objective, by the order-free
    tie rule over :func:`brute_force_vertices`: every vertex whose
    ``entropy_from_profile`` value is at most the least one plus
    ``MIN_TIE_TOL``, in lexicographic order."""
    vertices = brute_force_vertices(ibs)
    values = [entropy_from_profile(v, profile) for v in vertices]
    floor = min(values) + MIN_TIE_TOL
    return tuple(v for v, h in zip(vertices, values) if h <= floor)


def _best_response(lo: float, hi: float, k: float, beta: float, lam: float) -> float:
    """The m in [lo, hi] that maximizes the concave ``m*(k - lam) - beta*m*log2(m)``:
    the better endpoint when ``beta = 0``, else the stationary point
    ``2**((k - lam)/beta - 1/ln 2)`` clamped to the box.  The exponent is
    compared with ``log2`` of the bounds first, so ``2.0**e`` cannot overflow."""
    if beta == 0.0:
        return hi if k > lam else lo
    e = (k - lam) / beta - 1.0 / math.log(2.0)
    if hi <= 0.0 or e >= math.log2(hi):
        return hi
    if lo > 0.0 and e <= math.log2(lo):
        return lo
    return 2.0**e


def max_certificate(ibs: IntervalBeliefStructure, m: str | EntropyMeasure) -> float:
    """The least weak-duality bound on the maximum of a separable measure.

    For every price ``lam``, ``lam + sum_i max_{m_i in [lo_i, hi_i]} (m_i*k_i
    - beta_i*m_i*log2(m_i) - lam*m_i)`` bounds the maximum over the polytope
    from above (Boyd & Vandenberghe 2004, section 5), and the least such
    bound equals it.  The bound is convex in ``lam``; a golden-section search
    minimizes it on a bracket that holds every price of a mass above
    ``2**-80``.  Independent of the water-fill and greedy solvers.
    """
    profile = separable_profile(m, ibs.focal_sets, ibs.frame)
    boxes = tuple(zip(ibs.lower_bounds, ibs.upper_bounds, profile))

    def dual(lam: float) -> float:
        terms = [lam]
        for lo, hi, (k, beta) in boxes:
            x = _best_response(lo, hi, k, beta, lam)
            terms.append(x * k - beta * _xlog2(x) - lam * x)
        return math.fsum(terms)

    reach = 80.0 * (max(beta for _, beta in profile) + 1.0)
    a = min(k for k, _ in profile) - reach
    b = max(k for k, _ in profile) + reach
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    gc, gd = dual(c), dual(d)
    # 100 steps shrink the bracket below the float spacing of the prices.
    for _ in range(100):
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - shrink * (b - a)
            gc = dual(c)
        else:
            a, c, gc = c, d, gd
            d = a + shrink * (b - a)
            gd = dual(d)
    return min(gc, gd)


# Every measure scans the same vertices of a body: enumerate them once.
_body_vertices = functools.lru_cache(maxsize=16)(brute_force_vertices)


def vertex_min(ibs: IntervalBeliefStructure, m: str | EntropyMeasure) -> float:
    """The minimum of a separable (so concave) measure: its least value over
    :func:`brute_force_vertices`."""
    profile = separable_profile(m, ibs.focal_sets, ibs.frame)
    return min(entropy_from_profile(v, profile) for v in _body_vertices(ibs))


def assert_oracle_bounds(
    ibs: IntervalBeliefStructure, measures: Iterable[str | EntropyMeasure]
) -> None:
    """:func:`ivbel.entropy_bounds` equals both oracles within 1e-12 for each
    measure.  Two-sided: the witnesses sum to one only within rounding, so
    the certificate may read a few ulps below ``h_max``."""
    for m in measures:
        sol = entropy_bounds(ibs, m)
        assert abs(max_certificate(ibs, m) - sol.h_max) <= 1e-12, (ibs, m, sol.h_max)
        assert abs(vertex_min(ibs, m) - sol.h_min) <= 1e-12, (ibs, m, sol.h_min)


# The FocalSet-level forms of the bit-pattern kernels in ``ivbel.core`` and
# ``ivbel.entropy``, written with ``&``, ``cardinality``, ``issubset`` and
# ``in``.  The kernels must equal them bit for bit: same operands, same order.


def bel_oracle(b: Bpa, a: FocalSet) -> float:
    return math.fsum(mass for fs, mass in b.entries if fs.issubset(a))


def pl_oracle(b: Bpa, a: FocalSet) -> float:
    return math.fsum(mass for fs, mass in b.entries if fs.bits & a.bits)


def pignistic_oracle(b: Bpa) -> Bpa:
    sums = {1 << i: 0.0 for i in range(b.frame.size)}
    for fs, mass in b.entries:
        share = mass / fs.cardinality
        for i in range(b.frame.size):
            if i in fs:
                sums[1 << i] += share
    return Bpa(b.frame, tuple((FocalSet(bit), p) for bit, p in sums.items()))


def _klir_oracle(b: Bpa, ramer: bool) -> float:
    total = 0.0
    for a, ma in b.entries:
        inner = math.fsum(
            mb * (a & fb).cardinality / (fb if ramer else a).cardinality
            for fb, mb in b.entries
        )
        total -= ma * math.log2(inner)
    return total


def _jirousek_shenoy_oracle(b: Bpa) -> float:
    values = [(s, pl_oracle(b, s)) for s in b.frame.singletons()]
    total = math.fsum(v for _, v in values)
    prior = Bpa(b.frame, tuple((s, v / total) for s, v in values if v > 0.0))
    shannon = -math.fsum(_xlog2(p) for _, p in prior.entries)
    return shannon + math.fsum(m * math.log2(fs.cardinality) for fs, m in b.entries)


# Non-separable measure id -> its oracle.
MEASURE_ORACLES = {
    "klir-ramer": lambda b: _klir_oracle(b, ramer=True),
    "klir-parviz": lambda b: _klir_oracle(b, ramer=False),
    "jirousek-shenoy": _jirousek_shenoy_oracle,
    "yager": lambda b: -math.fsum(m * math.log2(pl_oracle(b, fs)) for fs, m in b.entries),
    "hohle": lambda b: -math.fsum(m * math.log2(bel_oracle(b, fs)) for fs, m in b.entries),
}


# Earlier forms of two rewritten kernels, kept verbatim: the water-fill that
# bisects over the breakpoints with an ``fsum`` per probe, and the Lee-Zhu
# rule that calls a p-norm helper per bound.  The kernels in ``ivbel`` must
# equal them bit for bit.


def water_fill_oracle(
    lower: tuple[float, ...], upper: tuple[float, ...], weights: tuple[float, ...]
) -> tuple[tuple[float, ...], float]:
    if math.fsum(lower) > 1.0 + MASS_SUM_TOL or math.fsum(upper) < 1.0 - MASS_SUM_TOL:
        raise IvbelError("water filling requires sum(lo) <= 1 <= sum(hi)")

    def clamped(c: float) -> list[float]:
        return [min(max(w * c, lo), hi) for lo, hi, w in zip(lower, upper, weights)]

    points = sorted({x / w for lo, hi, w in zip(lower, upper, weights) for x in (lo, hi)})
    k = bisect_left(points, True, key=lambda c: math.fsum(clamped(c)) >= 1.0)
    if k == 0 or k == len(points):
        c = points[min(k, len(points) - 1)]
    else:
        # The sum is linear between the two breakpoints around the crossing.
        a, b = points[k - 1], points[k]
        sa, sb = math.fsum(clamped(a)), math.fsum(clamped(b))
        c = a + (b - a) * (1.0 - sa) / (sb - sa)
    return tuple(clamped(c)), c


def _pnorm2(x: float, y: float, w: float) -> float:
    """``(x**w + y**w)**(1/w)`` for x, y in [0, 1], stable for large w."""
    hi, lo = (x, y) if x >= y else (y, x)
    if hi <= 0.0:
        return 0.0
    ratio = lo / hi
    return hi * math.exp(math.log1p(ratio**w) / w)


def _lz_union(x: float, y: float, w: float) -> float:
    return min(1.0, _pnorm2(x, y, w))


def _lz_intersection(x: float, y: float, w: float) -> float:
    return 1.0 - min(1.0, _pnorm2(1.0 - x, 1.0 - y, w))


def leezhu_oracle(
    ibs1: IntervalBeliefStructure,
    ibs2: IntervalBeliefStructure,
    w: float = 2.0,
) -> IntervalMassResult:
    if not w >= 1.0:
        raise IvbelError(f"Lee-Zhu order must satisfy w >= 1, got {w}")
    _check_bodies((ibs1, ibs2), normalized=False)
    lows: dict[int, float] = {}
    highs: dict[int, float] = {}
    for f1, lo1, hi1 in ibs1.entries:
        for f2, lo2, hi2 in ibs2.entries:
            inter = f1.bits & f2.bits
            if inter == 0:
                continue
            c_lo = _lz_intersection(lo1, lo2, w)
            c_hi = _lz_intersection(hi1, hi2, w)
            lows[inter] = _lz_union(lows.get(inter, 0.0), c_lo, w)
            highs[inter] = _lz_union(highs.get(inter, 0.0), c_hi, w)
    if not lows:
        raise TotalConflictError("not combinable: every focal-set pair conflicts")
    return IntervalMassResult(
        ibs1.frame,
        tuple((FocalSet(bits), min(lows[bits], highs[bits]), highs[bits]) for bits in lows),
    )
