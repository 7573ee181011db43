"""The three in-process workloads: generated inputs, op lists and checks.

Each builder takes the seed, sets the workload up and returns a function
that makes the op list of one pass.  Work that prepares expected outputs
(oracles, witnesses, normalized bounds) runs in set-up, on copies of its
own, never inside a timed call.  Every pass builds its inputs afresh from
plain ``(bits, lo, hi)`` data, and the checks read only the set-up copies,
so state cached on an input object cannot carry from set-up, from a check
or from an earlier pass into a timed call.
"""

from __future__ import annotations

import math

import ivbel
from ivbel.core import FocalSet, Frame

import gen
from ops import TOL, Op, close, inside, require

FRAME = Frame(gen.FRAME)
CONCAVE = tuple(m for m in ivbel.SEPARABLE_MEASURE_IDS if ivbel.measure(m).beta != 0.0)
NON_SEPARABLE = tuple(m for m in ivbel.MEASURE_IDS if not ivbel.measure(m).separable)

# entropy-ladder: the vertex-scan minimum.  One op is one entropy_bounds call
# (all five separable measures per body, as `ivbel entropy --measure all`).
ENTROPY_RUNGS = (8, 9, 10)
ENTROPY_PER_RUNG = 7
ORACLE_N = 8

# combine-ladder: (focal sets n, bodies k, engines).  wang at k >= 5 would
# take minutes per call, so those groups run the polynomial engines only.
_ALL2 = ("proposed", "wang", "song", "denoeux", "leezhu")
_EXACT = ("proposed", "wang", "song")
COMBINE_GROUPS = (
    (5, 2, _ALL2),
    (6, 2, _ALL2),
    (8, 2, _ALL2),
    (4, 3, _EXACT),
    (5, 3, _EXACT),
    (4, 4, _EXACT),
    (6, 5, ("proposed", "song")),
    (6, 6, ("proposed", "song")),
)
COMBINE_ROUNDS = 4

# wide-poly: the polynomial paths on wide raw bodies.
WIDE_RUNGS = (16, 24, 31)
WIDE_PER_RUNG = 24


def structure(body: gen.Body, frame: Frame = FRAME) -> ivbel.IntervalBeliefStructure:
    return ivbel.IntervalBeliefStructure(
        frame, tuple((FocalSet(bits), lo, hi) for bits, lo, hi in body)
    )


def _body(ibs: ivbel.IntervalBeliefStructure) -> gen.Body:
    """A structure's bounds as plain data, to rebuild fresh copies from."""
    return [(fs.bits, lo, hi) for fs, lo, hi in ibs.entries]


def _masses(bpa: ivbel.Bpa, ibs: ivbel.IntervalBeliefStructure) -> list[float]:
    """A witness BPA as a mass vector aligned with the structure's entries."""
    return [bpa.mass(fs) for fs in ibs.focal_sets]


def _check_feasible(ibs: ivbel.IntervalBeliefStructure, bpa: ivbel.Bpa, what: str) -> None:
    support = set(ibs.focal_sets)
    require(
        bpa.frame == ibs.frame and all(fs in support for fs in bpa.focal_sets),
        f"{what}: mass outside the structure's focal sets",
    )
    require(ivbel.contains(ibs, _masses(bpa, ibs)), f"{what}: witness outside the polytope")


def _check_bounds(ibs, measure_id, oracle, sol) -> None:
    """Witnesses feasible, h values attained by them, bounds ordered, and
    (on the oracle rung) equal to the vertex scan's extrema."""
    _check_feasible(ibs, sol.m_max, "m_max")
    _check_feasible(ibs, sol.m_min, "m_min")
    require(sol.h_min <= sol.h_max + TOL, f"h_min {sol.h_min} > h_max {sol.h_max}")
    close(ivbel.entropy(measure_id, sol.m_max), sol.h_max, "h_max vs entropy(m_max)")
    close(ivbel.entropy(measure_id, sol.m_min), sol.h_min, "h_min vs entropy(m_min)")
    if oracle is not None:
        lo, hi = oracle[measure_id]
        close(sol.h_min, lo, "h_min vs vertex scan")
        if ivbel.measure(measure_id).beta == 0.0:
            close(sol.h_max, hi, "linear h_max vs vertex scan")
        else:
            require(sol.h_max >= hi - TOL, f"h_max {sol.h_max} below a vertex value {hi}")


def _vertex_oracle(ibs) -> dict[str, tuple[float, float]]:
    """Entropy extrema over the enumerated vertices, per separable measure."""
    points = [
        ivbel.Bpa(ibs.frame, tuple(zip(ibs.focal_sets, v)))
        for v in ivbel.enumerate_vertices(ibs)
    ]
    out = {}
    for m in ivbel.SEPARABLE_MEASURE_IDS:
        values = [ivbel.entropy(m, p) for p in points]
        out[m] = (min(values), max(values))
    return out


def entropy_ladder(seed: int):
    bodies = []
    for n, raw in gen.ladder(seed, ENTROPY_RUNGS, ENTROPY_PER_RUNG):
        ref = structure(raw)
        if not ivbel.is_normalized(ref):
            raise RuntimeError(f"generator produced an unnormalized body (n={n})")
        oracle = _vertex_oracle(ref) if n == ORACLE_N else None
        bodies.append((n, raw, ref, oracle))

    def make_pass() -> list[Op]:
        frame = Frame(gen.FRAME)
        ops = []
        for n, raw, ref, oracle in bodies:
            ibs = structure(raw, frame)
            for m in ivbel.SEPARABLE_MEASURE_IDS:
                ops.append(
                    Op(
                        f"entropy_bounds n={n} {m}",
                        lambda ibs=ibs, m=m: ivbel.entropy_bounds(ibs, m),
                        lambda sol, ref=ref, m=m, o=oracle: _check_bounds(ref, m, o, sol),
                    )
                )
        return ops

    return make_pass


def _fold(bpas: list[ivbel.Bpa]) -> ivbel.Bpa:
    return ivbel.dempster_combine_n(bpas)[0]


def _check_point_inside(point: ivbel.Bpa, result: ivbel.IntervalMassResult, what: str) -> None:
    """Every mass of ``point`` (zero off its support) lies in the result's bounds."""
    targets = {fs.bits for fs in result.focal_sets} | {fs.bits for fs in point.focal_sets}
    for bits in targets:
        fs = FocalSet(bits)
        lo, hi = result.interval(fs)
        inside(point.mass(fs), lo, hi, f"{what} on {FRAME.format_set(fs)}")


def _raw_products(a: ivbel.Bpa, b: ivbel.Bpa) -> dict[int, float]:
    """Unnormalized intersection products, the empty set under key 0."""
    out: dict[int, float] = {}
    for fa, ma in a.entries:
        for fb, mb in b.entries:
            key = fa.bits & fb.bits
            out[key] = out.get(key, 0.0) + ma * mb
    return out


def _check_denoeux(witnesses, outputs) -> None:
    raw, normalized = outputs
    require(raw.includes_empty is not None, "denoeux raw result lacks empty-set bounds")
    bounds = {fs.bits: (lo, hi) for fs, lo, hi in raw.entries}
    bounds[0] = raw.includes_empty
    (max1, min1), (max2, min2) = witnesses
    for a, b in ((max1, max2), (min1, min2), (max1, min2), (min1, max2)):
        for bits, value in _raw_products(a, b).items():
            lo, hi = bounds.get(bits, (0.0, 0.0))
            inside(value, lo, hi, f"raw product on {bits:#x}")
    require(bool(normalized.entries), "denoeux normalized result is empty")


def _check_folds_inside(witnesses, result, what: str) -> None:
    _check_point_inside(_fold([w[0] for w in witnesses]), result, f"{what} max fold")
    _check_point_inside(_fold([w[1] for w in witnesses]), result, f"{what} min fold")


def _check_normalized_singletons(result) -> None:
    require(ivbel.is_normalized(result.as_ibs()), "song result not normalized")
    require(all(fs.cardinality == 1 for fs in result.focal_sets), "song result not Bayesian")


def _check_leezhu(bodies, result) -> None:
    meets = {a.bits & b.bits for a in bodies[0].focal_sets for b in bodies[1].focal_sets}
    require(bool(result.entries), "leezhu result is empty")
    require(all(fs.bits in meets for fs in result.focal_sets), "leezhu target not an intersection")


def _combine_op(engine: str, label: str, bodies, refs, witnesses) -> Op:
    """One engine call on ``bodies``; the check reads the set-up copies
    ``refs`` and their witnesses only."""
    if engine == "proposed":
        return Op(
            label,
            lambda: ivbel.proposed_combine_report(bodies, "pal"),
            lambda rep: _check_folds_inside(witnesses, rep.result, "proposed"),
        )
    if engine == "wang":
        return Op(
            label,
            lambda: ivbel.wang_combine(bodies),
            lambda res: _check_folds_inside(witnesses, res, "wang"),
        )
    if engine == "denoeux":
        def call():
            raw = ivbel.denoeux_combine(bodies[0], bodies[1])
            return raw, ivbel.denoeux_normalize(raw)

        return Op(label, call, lambda out: _check_denoeux(witnesses, out))
    if engine == "song":
        return Op(
            label,
            lambda: ivbel.song_combine_detail(bodies),
            lambda det: _check_normalized_singletons(det.result),
        )
    if engine == "leezhu":
        return Op(
            label,
            lambda: ivbel.leezhu_combine(bodies[0], bodies[1]),
            lambda res: _check_leezhu(refs, res),
        )
    raise ValueError(f"unknown engine {engine!r}")


def combine_ladder(seed: int):
    calls = []
    for engine, n, k, raws in gen.combine_groups(seed, COMBINE_GROUPS, COMBINE_ROUNDS):
        refs = [structure(r) for r in raws]
        if not all(ivbel.is_normalized(b) for b in refs):
            raise RuntimeError(f"generator produced an unnormalized body (n={n})")
        witnesses = None
        if engine in ("proposed", "wang", "denoeux"):
            witnesses = [
                (sol.m_max, sol.m_min)
                for sol in (ivbel.entropy_bounds(b, "pal") for b in refs)
            ]
        calls.append((engine, f"{engine} n={n} k={k}", raws, refs, witnesses))

    def make_pass() -> list[Op]:
        frame = Frame(gen.FRAME)
        return [
            _combine_op(engine, label, [structure(r, frame) for r in raws], refs, witnesses)
            for engine, label, raws, refs, witnesses in calls
        ]

    return make_pass


def _straddles(ibs) -> bool:
    return (
        math.fsum(ibs.lower_bounds) <= 1.0 + TOL
        and math.fsum(ibs.upper_bounds) >= 1.0 - TOL
    )


def _check_max_entropy(ibs, measure_id, others, bpa) -> None:
    _check_feasible(ibs, bpa, f"max {measure_id}")
    h = ivbel.entropy(measure_id, bpa)
    for other in others:
        require(h >= ivbel.entropy(measure_id, other) - TOL, f"max {measure_id} beaten")


def _check_point_value(value: float) -> None:
    require(math.isfinite(value) and value >= -1e-12, f"entropy value {value!r}")


def wide_poly(seed: int):
    bodies = []
    for n, kind, body in gen.raw_ladder(seed, WIDE_RUNGS, WIDE_PER_RUNG):
        raw = structure(body)
        norm = ivbel.normalize(raw)
        dp = ivbel.entropy_bounds(norm, "dubois-prade")
        witness = ivbel.max_entropy_bpa(norm, "pal")
        point = [(fs.bits, mass) for fs, mass in witness.entries]
        feasible = (dp.m_max, dp.m_min)
        bodies.append(
            (f"n={n} {kind}", body, raw, _straddles(raw), _body(norm), norm, feasible, point)
        )

    def make_pass() -> list[Op]:
        frame = Frame(gen.FRAME)
        ops = []
        pairs = []
        for tag, body, raw_ref, straddles, norm_body, norm_ref, feasible, point in bodies:
            raw = structure(body, frame)
            norm = structure(norm_body, frame)
            witness = ivbel.Bpa(frame, tuple((FocalSet(bits), mass) for bits, mass in point))
            pairs.append((raw, raw_ref))
            ops.append(
                Op(
                    f"validate_ibs {tag}",
                    lambda raw=raw: ivbel.validate_ibs(raw),
                    lambda v, s=straddles: require(v.ok == s, f"verdict {v} for straddle={s}"),
                )
            )
            ops.append(
                Op(
                    f"normalize {tag}",
                    lambda raw=raw: ivbel.normalize(raw),
                    lambda out: require(ivbel.is_normalized(out), "normalize output not normalized"),
                )
            )
            for m in CONCAVE:
                ops.append(
                    Op(
                        f"max_entropy_bpa {tag} {m}",
                        lambda norm=norm, m=m: ivbel.max_entropy_bpa(norm, m),
                        lambda b, ref=norm_ref, m=m, f=feasible: _check_max_entropy(ref, m, f, b),
                    )
                )
            ops.append(
                Op(
                    f"entropy_bounds {tag} dubois-prade",
                    lambda norm=norm: ivbel.entropy_bounds(norm, "dubois-prade"),
                    lambda sol, ref=norm_ref: _check_bounds(ref, "dubois-prade", None, sol),
                )
            )
            for m in NON_SEPARABLE:
                ops.append(
                    Op(
                        f"entropy {tag} {m}",
                        lambda w=witness, m=m: ivbel.entropy(m, w),
                        _check_point_value,
                    )
                )
        for (a, a_ref), (b, b_ref) in zip(pairs[::2], pairs[1::2]):
            ops.append(
                Op(
                    "song_combine pair",
                    lambda a=a, b=b: ivbel.song_combine([a, b]),
                    _check_normalized_singletons,
                )
            )
            ops.append(
                Op(
                    "leezhu_combine pair",
                    lambda a=a, b=b: ivbel.leezhu_combine(a, b),
                    lambda res, refs=(a_ref, b_ref): _check_leezhu(refs, res),
                )
            )
        return ops

    return make_pass


WORKLOADS = {
    "entropy-ladder": entropy_ladder,
    "combine-ladder": combine_ladder,
    "wide-poly": wide_poly,
}
