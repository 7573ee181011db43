"""Acceptance gate: one test per published reference check, grouped by
criterion number.  The conftest hook folds these into per-criterion
PASS/FAIL lines at the end of the run.

Seven printed reference cells cannot be produced by the method as defined
(``ERRATA``).  ``reproduce`` keeps reporting them against the printed
values; the tests here certify each one against an exact value derived from
the bundled file's bounds without calling the engine under test, and every
other required cell must match its printed value at the stated tolerance.
"""

import itertools
import math
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest

from ivbel import (
    SEPARABLE_MEASURE_IDS,
    FocalSet,
    TotalConflictError,
    dempster_combine,
    denoeux_combine,
    denoeux_normalize,
    entropy_bounds,
    is_normalized,
    normalize,
    proposed_combine_report,
    validate_ibs,
    wang_combine,
)
from ivbel.entropy import separable_profile
from ivbel.optimize import water_fill
from ivbel.reproduce import TARGETS, load_bundled, reproduce

from helpers import (
    assert_oracle_bounds,
    bound_patterns,
    exact_dempster,
    exact_products,
    random_aligned_general_ibs,
    random_box_ibs,
    random_bpa,
    random_normalized_ibs,
    random_valid_ibs,
)

# Reports are deterministic; compute each once for all tests below.
_REPORTS = {name: reproduce(name) for name in TARGETS}


# -- reference-table errata ---------------------------------------------------
#
# Exact values are derived from the bundled files' bounds, read as exact
# decimals, in rational arithmetic (Lee-Zhu in floats: its p-norms are
# irrational).  None of the derivations calls the engine whose cell it
# certifies.

ERRATUM_TOL = 1e-12


@dataclass(frozen=True)
class Erratum:
    """A printed reference cell that the method, as defined, cannot produce."""

    printed: float
    exact: float
    derivation: str


def _round2(x) -> float:
    """Round half-up to two decimals, the printed tables' convention."""
    return float(Decimal(float(x)).quantize(Decimal("0.01"), ROUND_HALF_UP))


def _exact_box(ibs) -> list[tuple[int, Fraction, Fraction]]:
    return [(f.bits, Fraction(str(lo)), Fraction(str(hi))) for f, lo, hi in ibs.entries]


def _vertices(box) -> list[tuple[Fraction, ...]]:
    """Exact vertices of {m : lo <= m <= hi, sum(m) = 1}: every mass but one
    sits at a bound and the free one takes the residual."""
    lo = [b[1] for b in box]
    hi = [b[2] for b in box]
    found = set()
    for free, fixed in bound_patterns(lo, hi):
        residual = 1 - sum(fixed)
        if lo[free] <= residual <= hi[free]:
            found.add(tuple(fixed[:free] + [residual] + fixed[free:]))
    return sorted(found)


def _masses(box, vec) -> list[tuple[int, Fraction]]:
    return [(bits, m) for (bits, _, _), m in zip(box, vec)]


def _shannon(vec) -> float:
    return -math.fsum(float(m) * math.log2(m) for m in vec if m > 0)


def _min_shannon_vertices(box) -> list[tuple[Fraction, ...]]:
    """Vertices tied at the minimum of the nguyen measure (k_A = 0, so plain
    Shannon entropy of the focal masses), in lexicographic order."""
    scored = [(_shannon(v), v) for v in _vertices(box)]
    h_min = min(h for h, _ in scored)
    return [v for h, v in scored if h <= h_min + 1e-12]


def _level_fill(box) -> tuple[Fraction, ...]:
    """Maximum Shannon-entropy point of the box: by KKT every mass is
    clamp(c, lo, hi) at the one level c where they sum to one.  The clamped
    sum is piecewise linear in c, so c is solved exactly on the segment
    between breakpoints where the sum crosses one."""

    def clamped(c):
        return [min(max(c, lo), hi) for _, lo, hi in box]

    points = sorted({v for _, lo, hi in box for v in (lo, hi)})
    for a, b in zip(points, points[1:]):
        sa, sb = sum(clamped(a)), sum(clamped(b))
        if sa <= 1 <= sb:
            return tuple(clamped(a + (b - a) * (1 - sa) / (sb - sa)))
    raise AssertionError("no level makes the clamped masses sum to one")


# table 2: Lee-Zhu aggregation of example31.
_T2 = load_bundled("example31")


def _leezhu_pairs(row: str) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """((lo1, hi1), (lo2, hi2)) for each focal pair meeting in ``row``."""
    target = _T2.frame.subset(row.strip("{}").split(",")).bits
    (_, b1), (_, b2) = _T2.bodies
    return [
        ((lo1, hi1), (lo2, hi2))
        for f1, lo1, hi1 in b1.entries
        for f2, lo2, hi2 in b2.entries
        if f1.bits & f2.bits == target
    ]


def _leezhu_cell(w: int, row: str, bound: str) -> float:
    """Each pair's t-norm 1 - min(1, ||(1-x, 1-y)||_w) of its bounds, folded
    by the t-conorm min(1, ||.||_w); the fold is associative, so it is one
    clipped p-norm over all pairs."""
    side = 0 if bound == "lo" else 1

    def norm(xs):
        return min(1.0, math.fsum(x**w for x in xs) ** (1 / w))

    return norm([1 - norm((1 - p[side], 1 - q[side])) for p, q in _leezhu_pairs(row)])


# tables 3 and 4: the shared example5, whose bodies are already normalized.
_T34 = load_bundled("example5")
_T34_BOXES = [_exact_box(ibs) for _, ibs in _T34.bodies]


def _label(bits: int) -> str:
    return _T34.frame.format_set(FocalSet(bits))


def _raw_product_bounds(box1, box2) -> dict[str, tuple[Fraction, Fraction]]:
    """Exact bounds of each target's unnormalized product mass, the empty
    set ("{}") included: the mass is bilinear, so its extremes sit at vertex
    pairs."""
    bounds: dict[str, tuple[Fraction, Fraction]] = {}
    for v1, v2 in itertools.product(_vertices(box1), _vertices(box2)):
        for t, s in exact_products(_masses(box1, v1), _masses(box2, v2)).items():
            lo, hi = bounds.get(_label(t), (s, s))
            bounds[_label(t)] = (min(lo, s), max(hi, s))
    return bounds


def _denoeux_hi(raw, row: str, *, constrained: bool = True) -> Fraction:
    """denoeux_normalize's documented upper bound
    hi / (1 - min(e_hi, 1 - hi - sum of the other targets' lower bounds)),
    or hi / (1 - e_hi) when the sum-to-one constraint is dropped."""
    e_hi = raw["{}"][1]
    hi = raw[row][1]
    rest_lo = sum(lo for t, (lo, _) in raw.items() if t not in ("{}", row))
    empty = min(e_hi, 1 - hi - rest_lo) if constrained else e_hi
    return hi / (1 - empty)


def _nguyen_hull(min2) -> dict[str, tuple[Fraction, Fraction]]:
    """Table 4's nguyen hull with body 2's minimum-entropy mass set to
    ``min2``: per target, the interval spanned by the fold of the two
    maximum-entropy masses and the fold of the two minimum-entropy ones."""
    box1, box2 = _T34_BOXES
    (min1,) = _min_shannon_vertices(box1)
    folds = (
        exact_dempster(_masses(box1, _level_fill(box1)), _masses(box2, _level_fill(box2))),
        exact_dempster(_masses(box1, min1), _masses(box2, min2)),
    )
    hull = {}
    for t in folds[0].keys() | folds[1].keys():
        values = [fold.get(t, 0) for fold in folds]
        hull[_label(t)] = (min(values), max(values))
    return hull


_T3_RAW = _raw_product_bounds(*_T34_BOXES)
# entropy_bounds(...).m_min resolves ties to the lexicographically first vertex.
_T4_NGUYEN = _nguyen_hull(_min_shannon_vertices(_T34_BOXES[1])[0])

ERRATA: dict[tuple[str, str, str, str], Erratum] = {
    ("table2", "w=2", "{P,L}", "hi"): Erratum(
        0.40,
        _leezhu_cell(2, "{P,L}", "hi"),
        "one pair meets in {P,L}: 1 - hypot(1 - 0.5, 1 - 0.6) = 0.3597;"
        " 0.40 copies the adjacent {L,K} cell",
    ),
    ("table2", "w=4", "{L,K}", "hi"): Erratum(
        0.46,
        _leezhu_cell(4, "{L,K}", "hi"),
        "t-conorm of T(0.4,0.5), T(0.4,0.4), T(0.5,0.5) at w=4 is 0.465094,"
        " which rounds to 0.47",
    ),
    ("table3", "denoeux", "{A1,A2,A3}", "hi"): Erratum(
        0.43,
        float(_denoeux_hi(_T3_RAW, "{A1,A2,A3}")),
        "0.16 / (1 - min(0.63, 1 - 0.16 - 0.23)) = 16/39; the printed"
        " 0.16 / (1 - 0.63) needs more mass than the raw bounds allow",
    ),
    ("table4", "nguyen", "{A1}", "hi"): Erratum(
        0.5301,
        float(_T4_NGUYEN["{A1}"][1]),
        "28/59 from the minimum-entropy fold with the tie-break vertex",
    ),
    ("table4", "nguyen", "{A2}", "hi"): Erratum(
        0.3614,
        float(_T4_NGUYEN["{A2}"][1]),
        "25/59 from the minimum-entropy fold with the tie-break vertex",
    ),
    ("table4", "nguyen", "{A3}", "lo"): Erratum(
        0.1084,
        float(_T4_NGUYEN["{A3}"][0]),
        "6/59 from the minimum-entropy fold with the tie-break vertex",
    ),
}

# The one printed claim the reference's own data refutes (see the table-2
# monotonicity test).
REFUTED_ASSERTION = ("table2", "monotone hi {P} over w=2..5")


def _cells(target: str, column: str) -> dict[tuple[str, str, str, str], object]:
    return {
        (c.target, c.column, c.row, c.bound): c
        for c in _REPORTS[target].cells
        if c.column == column and c.required
    }


def _assert_column(target: str, column: str) -> None:
    """Every required cell of the column matches its printed value at the
    stated tolerance, except the column's errata, which must still store the
    printed value and match their exact value to ERRATUM_TOL."""
    cells = _cells(target, column)
    assert cells, f"no required cells for column {column!r}"
    errata = {k: e for k, e in ERRATA.items() if k[:2] == (target, column)}
    stray = sorted(set(errata) - set(cells))
    assert not stray, f"errata naming no required cell: {stray}"
    for key, erratum in errata.items():
        cell = cells[key]
        assert cell.expected == erratum.printed, (key, cell.expected, erratum.printed)
        assert abs(cell.actual - erratum.exact) <= ERRATUM_TOL, (
            f"{key}: got {cell.actual!r}, exact {erratum.exact!r} ({erratum.derivation})"
        )
    bad = [c for k, c in cells.items() if k not in errata and not c.passed]
    assert not bad, "reference mismatches:\n" + "\n".join(c.line() for c in bad)


def _assert_report_ok(target: str) -> None:
    report = _REPORTS[target]
    lines = [c.line() for c in report.failed_required]
    lines += [a.line() for a in report.failed_assertions]
    assert report.ok, f"{target} failed:\n" + "\n".join(lines)


# -- criterion 1: nested two-body example end to end ------------------------


def test_c1_example4_end_to_end():
    _assert_report_ok("example4")


# -- criterion 2: five-objective combination grid (1e-3) --------------------


def test_c2_table4_dubois_prade():
    _assert_column("table4", "dubois-prade")


def test_c2_table4_nguyen():
    """The printed row is unreachable.  Body 1's minimum is unique; body 2's
    is a four-way tie, each tied vertex gives its own hull, and none gives
    any of the printed {A1} hi, {A2} hi or {A3} lo.  The tie-break vertex
    folds to 28/59, 25/59 and 6/59."""
    _assert_column("table4", "nguyen")

    box1, box2 = _T34_BOXES
    assert _min_shannon_vertices(box1) == [tuple(map(Fraction, ("0.4", "0.5", "0.1", "0")))]
    ties = _min_shannon_vertices(box2)
    assert len(ties) == 4
    assert _shannon(ties[0]) == pytest.approx(1.8464, abs=1e-4)
    assert entropy_bounds(normalize(_T34.bodies[1][1]), "nguyen").min_tie_count == 4
    assert ties[0] == tuple(map(Fraction, ("0.3", "0.1", "0.2", "0.4")))

    printed = {k: e.printed for k, e in ERRATA.items() if k[:2] == ("table4", "nguyen")}
    hulls = [_nguyen_hull(v) for v in ties]
    assert len({tuple(sorted(h.items())) for h in hulls}) == 4
    for hull in hulls:
        for (_, _, row, bound), value in printed.items():
            got = hull[row][0 if bound == "lo" else 1]
            assert abs(got - Fraction(str(value))) > 1e-3, (row, bound, got)

    assert _T4_NGUYEN["{A1}"][1] == Fraction(28, 59)
    assert _T4_NGUYEN["{A2}"][1] == Fraction(25, 59)
    assert _T4_NGUYEN["{A3}"][0] == Fraction(6, 59)


def test_c2_table4_deng():
    _assert_column("table4", "deng")


def test_c2_table4_pal():
    _assert_column("table4", "pal")


def test_c2_table4_qin():
    _assert_column("table4", "qin")


def test_c2_table4_tie_break_certificate():
    """The linear objective splits the residual equally across the three
    tied singletons; the certified upper bounds follow from that witness."""
    ev = load_bundled("example5")
    bodies = [normalize(ibs) for _, ibs in ev.bodies]
    sol = entropy_bounds(bodies[0], "dubois-prade")
    witness = tuple(sol.m_min.mass(fs) for fs in bodies[0].focal_sets)
    assert witness == pytest.approx((1 / 3, 13 / 30, 7 / 30, 0.0), abs=1e-9)

    result = proposed_combine_report(bodies, "dubois-prade").result
    frame = ev.frame
    for label, hi in (("A1", 0.4274), ("A2", 0.3333), ("A3", 0.2393)):
        assert result.interval(frame.singleton(label))[1] == pytest.approx(
            hi, abs=1e-3
        )


# -- criterion 3: p-norm aggregation w=1..5 (5e-3) + monotonicity ------------


def test_c3_table2_w1():
    _assert_column("table2", "w=1")


def test_c3_table2_w2():
    """{P,L} hi is a transcription slip: exactly one focal pair meets in
    {P,L}, so the bound is that pair's t-norm; the printed 0.40 copies the
    adjacent {L,K} cell, and no w in 1..5 gives it."""
    _assert_column("table2", "w=2")

    assert [(p[1], q[1]) for p, q in _leezhu_pairs("{P,L}")] == [(0.5, 0.6)]
    assert ERRATA[("table2", "w=2", "{P,L}", "hi")].exact == pytest.approx(
        1 - math.hypot(0.5, 0.4), abs=1e-15
    )
    printed = {(k[2], k[3]): c.expected for k, c in _cells("table2", "w=2").items()}
    assert printed[("{P,L}", "hi")] == printed[("{L,K}", "hi")]
    assert all(abs(_leezhu_cell(w, "{P,L}", "hi") - 0.40) > 5e-3 for w in range(1, 6))


def test_c3_table2_w3():
    _assert_column("table2", "w=3")


def test_c3_table2_w4():
    """{L,K} hi is a rounding slip: the exact 0.465094 rounds to 0.47, and
    every other two-decimal cell of the table is its exact value rounded
    half-up, so the tolerance stays as stated."""
    _assert_column("table2", "w=4")

    key = ("table2", "w=4", "{L,K}", "hi")
    assert len(_leezhu_pairs("{L,K}")) == 3
    assert _round2(ERRATA[key].exact) == 0.47 != ERRATA[key].printed
    for w in range(1, 6):
        for k, cell in _cells("table2", f"w={w}").items():
            if k not in ERRATA:
                assert _round2(_leezhu_cell(w, cell.row, cell.bound)) == cell.expected, k


def test_c3_table2_w5():
    _assert_column("table2", "w=5")


def test_c3_table2_bound_monotonicity():
    """The t-norm 1 - min(1, ||(1-x, 1-y)||_w) is nondecreasing in w, but the
    t-conorm that folds several pairs is nonincreasing in w, so only targets
    reached by a single focal pair have both bounds guaranteed nondecreasing.
    Those series must be; the one failing report assertion is on {P}, a
    two-pair target whose upper bound falls in the printed table too."""
    report = _REPORTS["table2"]
    rows = {c.row for c in report.cells}
    single = {row for row in rows if len(_leezhu_pairs(row)) == 1}
    assert single == {"{L}", "{P,L}", "{P,L,K}"}
    actual = {(c.column, c.row, c.bound): c.actual for c in report.cells}
    printed = {(c.column, c.row, c.bound): c.expected for c in report.cells}
    for row in single:
        for bound in ("lo", "hi"):
            series = [actual[(f"w={w}", row, bound)] for w in (2, 3, 4, 5)]
            assert all(a <= b for a, b in zip(series, series[1:])), (row, bound, series)

    failing = [("table2", a.label) for a in report.failed_assertions]
    assert failing == [REFUTED_ASSERTION]
    assert len(_leezhu_pairs("{P}")) == 2
    for series in (
        [printed[(f"w={w}", "{P}", "hi")] for w in (2, 3, 4, 5)],
        [_leezhu_cell(w, "{P}", "hi") for w in (2, 3, 4, 5)],
    ):
        assert all(a > b for a, b in zip(series, series[1:])), series


# -- criterion 4: alternative engines on the shared example (5e-3) -----------


def test_c4_table3_denoeux():
    """The full-set upper bound applies denoeux_normalize's constrained
    denominator: 0.16 / (1 - min(0.63, 1 - 0.16 - 0.23)) = 16/39.  The
    printed 0.43 is 0.16 / (1 - 0.63), which needs m(empty) = 0.63 and
    m(full) = 0.16 at once, leaving less than the singletons' raw lower
    bounds.  The printed singleton rows follow the constrained formula."""
    _assert_column("table3", "denoeux")

    raw, full = _T3_RAW, "{A1,A2,A3}"
    singletons = ("{A1}", "{A2}", "{A3}")
    assert raw[full][1] == Fraction("0.16")
    assert raw["{}"][1] == Fraction("0.63")
    assert [raw[s][0] for s in singletons] == list(map(Fraction, ("0.10", "0.09", "0.04")))
    assert _denoeux_hi(raw, full) == Fraction(16, 39)

    printed = {k[2]: c.expected for k, c in _cells("table3", "denoeux").items() if k[3] == "hi"}
    assert _round2(_denoeux_hi(raw, full, constrained=False)) == printed[full] == 0.43
    assert raw["{}"][1] + raw[full][1] + sum(raw[s][0] for s in singletons) > 1
    for s in singletons:
        assert _round2(_denoeux_hi(raw, s)) == printed[s], s
        assert _round2(_denoeux_hi(raw, s, constrained=False)) != printed[s], s


def test_c4_table3_wang():
    _assert_column("table3", "wang")


def test_c4_table3_song_reported_not_failed():
    # The song column is informational: its cells must be computed and
    # reported but never gate the target.
    report = _REPORTS["table3"]
    song_cells = [c for c in report.cells if c.column == "song"]
    assert song_cells
    assert all(not c.required for c in song_cells)
    assert all(math.isfinite(c.actual) for c in song_cells)


def test_c4_table3_yager_not_reproduced():
    report = _REPORTS["table3"]
    assert any("yager" in note for note in report.notes)
    assert all(c.column != "yager" for c in report.cells)


# -- errata guard ------------------------------------------------------------


def test_reference_failures_are_exactly_the_certified_errata():
    """``reproduce`` reports exactly the certified errata and the refuted
    monotonicity claim, so a new mismatch cannot hide behind them."""
    tables = ("table2", "table3", "table4")
    failing_cells = {
        (c.target, c.column, c.row, c.bound)
        for t in tables
        for c in _REPORTS[t].failed_required
    }
    assert failing_cells == set(ERRATA)
    failing_claims = {(t, a.label) for t in tables for a in _REPORTS[t].failed_assertions}
    assert failing_claims == {REFUTED_ASSERTION}


# -- criterion 5: pignistic collapse example ---------------------------------


def test_c5_example32_pignistic_collapse():
    _assert_report_ok("example32")


# -- criterion 6: fuzzy route vs plain rule disagreement ---------------------


def test_c6_example33_disagreement():
    _assert_report_ok("example33")


# -- criterion 7: property suites --------------------------------------------


def test_c7_exact_oracle_agreement():
    """Exact bounds vs a weak-duality certificate for the maximum and the
    least vertex value for the minimum, every separable measure within
    1e-12: 200 random normalized structures of 2 to 4 focal sets, and six
    wide boxes of 8 and 12 focal sets."""
    rng = random.Random("c7")
    bodies = [
        normalize(random_aligned_general_ibs(random.Random(seed), step=0.005))
        for seed in range(200)
    ] + [random_box_ibs(rng, n, width) for n in (8, 12) for width in (0.05, 0.4, 1.0)]
    for ibs in bodies:
        assert_oracle_bounds(ibs, SEPARABLE_MEASURE_IDS)


def test_c7_water_fill_kkt_certificates():
    """Every water-filling output sums to one within 1e-9 and satisfies the
    clamp structure: interior coordinates sit at w*c, clamped coordinates
    would cross their bound if released."""
    concave = [m for m in SEPARABLE_MEASURE_IDS if m != "dubois-prade"]
    for seed in range(200):
        rng = random.Random(seed)
        ibs = random_normalized_ibs(rng)
        for mid in concave:
            profile = separable_profile(mid, ibs.focal_sets, ibs.frame)
            weights = tuple(2.0 ** k for k, _ in profile)
            masses, c = water_fill(ibs.lower_bounds, ibs.upper_bounds, weights)
            assert abs(math.fsum(masses) - 1.0) <= 1e-9
            for m, lo, hi, w in zip(
                masses, ibs.lower_bounds, ibs.upper_bounds, weights
            ):
                free = w * c
                if lo + 1e-9 < m < hi - 1e-9:
                    assert abs(m - free) <= 1e-7
                elif abs(m - hi) <= 1e-9:
                    assert free >= hi - 1e-7
                else:
                    assert abs(m - lo) <= 1e-9
                    assert free <= lo + 1e-7


def test_c7_dempster_commutative_associative():
    """Order independence on 500 random combinable triples, within 1e-10."""
    checked = 0
    seed = 0
    while checked < 500:
        rng = random.Random(seed)
        seed += 1
        b1, b2, b3 = (random_bpa(rng) for _ in range(3))
        try:
            ab = dempster_combine(b1, b2)[0]
            ba = dempster_combine(b2, b1)[0]
            left = dempster_combine(ab, b3)[0]
            right = dempster_combine(b1, dempster_combine(b2, b3)[0])[0]
        except TotalConflictError:
            continue
        checked += 1
        for fs, m in ab.entries:
            assert abs(ba.mass(fs) - m) <= 1e-10
        for fs, m in left.entries:
            assert abs(right.mass(fs) - m) <= 1e-10
        for fs, m in right.entries:
            assert abs(left.mass(fs) - m) <= 1e-10
    assert checked == 500


def test_c7_proposed_permutation_invariance():
    """Body order cannot matter: 100 random triples, every ordering pair."""
    checked = 0
    seed = 0
    while checked < 100:
        rng = random.Random(seed)
        seed += 1
        bodies = [random_normalized_ibs(rng) for _ in range(3)]
        try:
            forward = proposed_combine_report(bodies, "pal").result
        except TotalConflictError:
            continue
        checked += 1
        shuffled = list(bodies)
        rng.shuffle(shuffled)
        back = proposed_combine_report(shuffled, "pal").result
        assert len(forward.entries) == len(back.entries)
        for fs, lo, hi in forward.entries:
            lo2, hi2 = back.interval(fs)
            assert abs(lo2 - lo) <= 1e-10
            assert abs(hi2 - hi) <= 1e-10
    assert checked == 100


def test_c7_normalize_idempotent_and_tight():
    """500 random valid structures: normalize lands on a valid, tight
    structure and a second pass is the identity."""
    for seed in range(500):
        rng = random.Random(seed)
        ibs = random_valid_ibs(rng)
        once = normalize(ibs)
        assert validate_ibs(once).ok
        assert is_normalized(once)
        twice = normalize(once)
        for (f1, lo1, hi1), (f2, lo2, hi2) in zip(once.entries, twice.entries):
            assert f1 == f2
            assert abs(lo1 - lo2) <= 1e-12
            assert abs(hi1 - hi2) <= 1e-12


def test_c7_containment_chain():
    """Per focal set: the entropy-bound interval sits inside the exact
    ratio-bound interval, which sits inside the normalized product-bound
    interval; checked for every separable objective."""
    ev = load_bundled("example5")
    bodies = [normalize(ibs) for _, ibs in ev.bodies]
    den = denoeux_normalize(denoeux_combine(bodies[0], bodies[1]))
    wang = wang_combine(bodies)
    tol = 1e-9
    for mid in SEPARABLE_MEASURE_IDS:
        prop = proposed_combine_report(bodies, mid).result
        for fs, lo, hi in prop.entries:
            w_lo, w_hi = wang.interval(fs)
            d_lo, d_hi = den.interval(fs)
            assert w_lo - tol <= lo and hi <= w_hi + tol, (mid, fs)
            assert d_lo - tol <= w_lo and w_hi <= d_hi + tol, (mid, fs)


# -- criterion 8: no full-scale claims beyond the desk examples --------------


def test_c8_no_full_scale_claims():
    """Everything the references claim is desk-scale: every bundled example
    fits a 3-element frame with at most 4 focal sets per body, and every
    reproduction target draws on those examples alone."""
    assert set(TARGETS) == {
        "table2",
        "table3",
        "table4",
        "example4",
        "example32",
        "example33",
    }
    for name in ("example31", "example32", "example33", "example4", "example5", "example6"):
        ev = load_bundled(name)
        assert ev.frame.size <= 3
        for _, body in ev.bodies:
            assert len(body.entries) <= 4
