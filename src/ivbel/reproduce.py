"""Regression targets: recompute bundled reference values and report deltas.

Each target loads a bundled evidence file, runs the relevant engines, and
compares every computed cell against the expected value embedded below.
Required cells gate the target's overall verdict; informational cells are
reported either way.  Failures are reported, never raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .core import Bpa, normalize
from .entropy import SEPARABLE_MEASURE_IDS
from .formats import EvidenceFile, parse_evidence
from .fusion import dempster_combine, proposed_combine_report
from .reference import (
    denoeux_combine,
    denoeux_normalize,
    leezhu_combine,
    song_combine_detail,
    wang_combine,
)

__all__ = [
    "CellCheck",
    "AssertionCheck",
    "TargetReport",
    "TARGETS",
    "reproduce",
    "load_bundled",
]

_MONOTONE_SLACK = 1e-9  # bound monotonicity in w (table2)
_REDERIVE_TOL = 1e-9  # combined intervals against the stage folds (example4)
_PIGNISTIC_POINT_TOL = 1e-12  # pignistic bodies point-valued (example32)


@dataclass(frozen=True)
class CellCheck:
    """One expected-vs-computed comparison at a stated tolerance."""

    target: str
    column: str
    row: str
    bound: str
    expected: float
    actual: float
    tol: float
    required: bool = True

    @property
    def delta(self) -> float:
        return abs(self.actual - self.expected)

    @property
    def passed(self) -> bool:
        return self.delta <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        kind = "" if self.required else " (informational)"
        return (
            f"  [{status}] {self.column} {self.row} {self.bound}: "
            f"expected {self.expected:.4f} got {self.actual:.4f} "
            f"delta {self.delta:.2e} tol {self.tol:g}{kind}"
        )


@dataclass(frozen=True)
class AssertionCheck:
    """A non-numeric structural check attached to a target."""

    label: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"  [{status}] {self.label}{tail}"


@dataclass(frozen=True)
class TargetReport:
    target: str
    cells: tuple[CellCheck, ...]
    assertions: tuple[AssertionCheck, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def failed_required(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.cells if c.required and not c.passed)

    @property
    def failed_assertions(self) -> tuple[AssertionCheck, ...]:
        return tuple(a for a in self.assertions if not a.passed)

    @property
    def ok(self) -> bool:
        return not self.failed_required and not self.failed_assertions

    def counts(self) -> tuple[int, int]:
        """(passed, total) over required cells and assertions."""
        checks = [c.passed for c in self.cells if c.required]
        checks += [a.passed for a in self.assertions]
        return sum(checks), len(checks)

    def summary_line(self) -> str:
        passed, total = self.counts()
        status = "PASS" if self.ok else "FAIL"
        return f"{self.target}: {status} ({passed}/{total} required checks)"

    def lines(self) -> list[str]:
        out = [self.summary_line()]
        out.extend(c.line() for c in self.cells)
        out.extend(a.line() for a in self.assertions)
        out.extend(f"  note: {n}" for n in self.notes)
        return out


def load_bundled(name: str) -> EvidenceFile:
    """Load one of the evidence files shipped with the package."""
    path = resources.files("ivbel").joinpath("data", f"{name}.json")
    return parse_evidence(json.loads(path.read_text(encoding="utf-8")))


# Expected values, as printed in the bundled reference material.  Two-decimal
# entries are compared at 5e-3, four-decimal entries at 1e-3 unless a target
# states otherwise.

_TABLE2_EXPECTED: dict[int, dict[str, tuple[float, float]]] = {
    1: {
        "{P}": (0.0, 0.6),
        "{L}": (0.0, 0.0),
        "{P,L}": (0.0, 0.1),
        "{L,K}": (0.0, 0.0),
        "{P,L,K}": (0.0, 0.0),
    },
    2: {
        "{P}": (0.26, 0.66),
        "{L}": (0.08, 0.28),
        "{P,L}": (0.0, 0.40),
        "{L,K}": (0.01, 0.40),
        "{P,L,K}": (0.0, 0.22),
    },
    3: {
        "{P}": (0.34, 0.64),
        "{L}": (0.18, 0.35),
        "{P,L}": (0.10, 0.43),
        "{L,K}": (0.15, 0.45),
        "{P,L,K}": (0.05, 0.30),
    },
    4: {
        "{P}": (0.36, 0.62),
        "{L}": (0.22, 0.37),
        "{P,L}": (0.14, 0.46),
        "{L,K}": (0.20, 0.46),
        "{P,L,K}": (0.10, 0.34),
    },
    5: {
        "{P}": (0.38, 0.61),
        "{L}": (0.24, 0.38),
        "{P,L}": (0.17, 0.47),
        "{L,K}": (0.23, 0.47),
        "{P,L,K}": (0.13, 0.36),
    },
}

_TABLE3_DENOEUX = {
    "{A1}": (0.13, 0.73),
    "{A2}": (0.12, 0.67),
    "{A3}": (0.05, 0.56),
    "{A1,A2,A3}": (0.0, 0.43),
}
_TABLE3_WANG = {
    "{A1}": (0.22, 0.55),
    "{A2}": (0.19, 0.48),
    "{A3}": (0.08, 0.39),
    "{A1,A2,A3}": (0.0, 0.21),
}
_TABLE3_SONG = {
    "{A1}": (0.36, 0.52),
    "{A2}": (0.24, 0.39),
    "{A3}": (0.18, 0.32),
}
_TABLE3_LEEZHU = {
    "{A1}": (0.05, 0.35),
    "{A2}": (0.0, 0.31),
    "{A3}": (0.0, 0.23),
    "{A1,A2,A3}": (0.0, 0.24),
}

_TABLE4_EXPECTED: dict[str, dict[str, tuple[float, float]]] = {
    "dubois-prade": {
        "{A1}": (0.3467, 0.4274),
        "{A2}": (0.2533, 0.3333),
        "{A3}": (0.1867, 0.2393),
        "{A1,A2,A3}": (0.0, 0.2133),
    },
    "nguyen": {
        "{A1}": (0.3234, 0.5301),
        "{A2}": (0.2962, 0.3614),
        "{A3}": (0.1084, 0.2854),
        "{A1,A2,A3}": (0.0, 0.0951),
    },
    "deng": {
        "{A1}": (0.3467, 0.5128),
        "{A2}": (0.2533, 0.3846),
        "{A3}": (0.1026, 0.1867),
        "{A1,A2,A3}": (0.0, 0.2133),
    },
    "pal": {
        "{A1}": (0.3382, 0.5128),
        "{A2}": (0.2690, 0.3846),
        "{A3}": (0.1026, 0.2006),
        "{A1,A2,A3}": (0.0, 0.1922),
    },
    "qin": {
        "{A1}": (0.3382, 0.5128),
        "{A2}": (0.2690, 0.3846),
        "{A3}": (0.1026, 0.2006),
        "{A1,A2,A3}": (0.0, 0.1922),
    },
}

_EXAMPLE4_INTERMEDIATE: dict[str, dict[str, float]] = {
    "body1.max": {"{A1}": 0.2, "{A1,A2}": 0.3, "{A1,A3}": 0.2, "{A1,A2,A3}": 0.3},
    "body1.min": {"{A1}": 0.5, "{A1,A2}": 0.4, "{A1,A3}": 0.0, "{A1,A2,A3}": 0.1},
    "body2.max": {"{A1}": 0.2, "{A1,A2}": 0.2, "{A1,A3}": 0.3, "{A1,A2,A3}": 0.3},
    "body2.min": {"{A1}": 0.5, "{A1,A2}": 0.1, "{A1,A3}": 0.4, "{A1,A2,A3}": 0.0},
}
_EXAMPLE4_FINAL = {
    "{A1}": (0.49, 0.91),
    "{A1,A2}": (0.05, 0.21),
    "{A1,A3}": (0.04, 0.21),
    "{A1,A2,A3}": (0.0, 0.09),
}

_EXAMPLE32_PIGNISTIC = {
    "m1": {"{A}": 0.5667, "{B}": 0.2167, "{C}": 0.2167},
    "m2": {"{A}": 0.5, "{B}": 0.25, "{C}": 0.25},
}

_EXAMPLE33_SONG = {"{A}": 0.6143, "{B}": 0.2380, "{C}": 0.1485}
_EXAMPLE33_DEMPSTER = {"{A}": 0.5714, "{B}": 0.2571, "{C}": 0.1714}


def _interval_cells(
    target: str,
    column: str,
    expected: dict[str, tuple[float, float]],
    actual: dict[str, tuple[float, float]],
    tol: float,
    required: bool = True,
) -> list[CellCheck]:
    cells = []
    for row, (elo, ehi) in expected.items():
        alo, ahi = actual.get(row, (math.nan, math.nan))
        cells.append(CellCheck(target, column, row, "lo", elo, alo, tol, required))
        cells.append(CellCheck(target, column, row, "hi", ehi, ahi, tol, required))
    return cells


def _result_intervals(result) -> dict[str, tuple[float, float]]:
    frame = result.frame
    return {frame.format_set(fs): (lo, hi) for fs, lo, hi in result.entries}


def reproduce_table2() -> TargetReport:
    """p-norm aggregation of the first two-body example for w = 1..5."""
    ev = load_bundled("example31")
    b1, b2 = (ibs for _, ibs in ev.bodies)
    cells: list[CellCheck] = []
    computed: dict[int, dict[str, tuple[float, float]]] = {}
    for w, expected in _TABLE2_EXPECTED.items():
        out = leezhu_combine(b1, b2, float(w))
        actual = _result_intervals(out)
        computed[w] = actual
        cells.extend(_interval_cells("table2", f"w={w}", expected, actual, 5e-3))

    # Bound monotonicity in w, checked on the exact computed values for
    # w = 2..5 (the w = 1 row is degenerate by construction).
    assertions = []
    for row in _TABLE2_EXPECTED[2]:
        for bound, idx in (("lo", 0), ("hi", 1)):
            series = [computed[w][row][idx] for w in (2, 3, 4, 5)]
            ok = all(b >= a - _MONOTONE_SLACK for a, b in zip(series, series[1:]))
            detail = " -> ".join(f"{v:.4f}" for v in series)
            assertions.append(
                AssertionCheck(f"monotone {bound} {row} over w=2..5", ok, detail)
            )
    return TargetReport("table2", tuple(cells), tuple(assertions))


def reproduce_table3() -> TargetReport:
    """Alternative combination engines on the shared four-set example."""
    ev = load_bundled("example5")
    bodies = [normalize(ibs) for _, ibs in ev.bodies]
    cells: list[CellCheck] = []

    den = denoeux_normalize(denoeux_combine(bodies[0], bodies[1]))
    cells.extend(
        _interval_cells("table3", "denoeux", _TABLE3_DENOEUX, _result_intervals(den), 5e-3)
    )
    wang = wang_combine(bodies)
    cells.extend(
        _interval_cells("table3", "wang", _TABLE3_WANG, _result_intervals(wang), 5e-3)
    )
    song = song_combine_detail(bodies).result
    cells.extend(
        _interval_cells(
            "table3", "song", _TABLE3_SONG, _result_intervals(song), 5e-3, required=False
        )
    )
    lz = leezhu_combine(bodies[0], bodies[1], 3.0)
    cells.extend(
        _interval_cells(
            "table3", "leezhu[w=3]", _TABLE3_LEEZHU, _result_intervals(lz), 5e-3, required=False
        )
    )
    notes = (
        "song and leezhu columns are informational: song depends on the"
        " documented interval pignistic convention, leezhu output is not"
        " normalized by design",
        "yager column is not reproduced: that engine is out of scope",
    )
    return TargetReport("table3", tuple(cells), (), notes)


def reproduce_table4() -> TargetReport:
    """Entropy-bound combination of the shared example, all five objectives."""
    ev = load_bundled("example5")
    bodies = [normalize(ibs) for _, ibs in ev.bodies]
    cells: list[CellCheck] = []
    for mid in SEPARABLE_MEASURE_IDS:
        rep = proposed_combine_report(bodies, mid)
        cells.extend(
            _interval_cells(
                "table4", mid, _TABLE4_EXPECTED[mid], _result_intervals(rep.result), 1e-3
            )
        )
    return TargetReport("table4", tuple(cells))


def reproduce_example4() -> TargetReport:
    """End-to-end entropy-bound combination of the nested two-body example."""
    ev = load_bundled("example4")
    frame = ev.frame
    bodies = [normalize(ibs) for _, ibs in ev.bodies]
    rep = proposed_combine_report(bodies, "pal")

    cells: list[CellCheck] = []
    stage = dict(rep.intermediate_bpas)
    for label, expected in _EXAMPLE4_INTERMEDIATE.items():
        bpa = stage[label]
        for row, value in expected.items():
            actual = bpa.mass(frame.subset(row.strip("{}").split(",")))
            cells.append(CellCheck("example4", label, row, "mass", value, actual, 1e-2))
    cells.extend(
        _interval_cells(
            "example4", "combined", _EXAMPLE4_FINAL, _result_intervals(rep.result), 1e-2
        )
    )

    # The final intervals must re-derive from the two stage folds exactly.
    fold_max, _ = dempster_combine(stage["body1.max"], stage["body2.max"])
    fold_min, _ = dempster_combine(stage["body1.min"], stage["body2.min"])
    consistent = True
    for fs, lo, hi in rep.result.entries:
        a, b = fold_max.mass(fs), fold_min.mass(fs)
        if abs(min(a, b) - lo) > _REDERIVE_TOL or abs(max(a, b) - hi) > _REDERIVE_TOL:
            consistent = False
    assertions = (
        AssertionCheck(
            "combined intervals re-derive from the stage folds within 1e-9", consistent
        ),
    )
    return TargetReport("example4", tuple(cells), assertions)


def reproduce_example32() -> TargetReport:
    """Pignistic collapse example: combination cannot move the first body."""
    ev = load_bundled("example32")
    frame = ev.frame
    det = song_combine_detail([ibs for _, ibs in ev.bodies])

    cells: list[CellCheck] = []
    for (name, _), body, expected in zip(
        ev.bodies, det.pignistic_bodies, _EXAMPLE32_PIGNISTIC.values()
    ):
        actual = _result_intervals(body)
        for row, value in expected.items():
            lo, hi = actual[row]
            cells.append(
                CellCheck("example32", f"pignistic[{name}]", row, "value", value, lo, 1e-3)
            )

    mu_a = det.combined_ifs[0].mu
    m1_star = det.pignistic_bodies[0].interval(frame.singleton("A"))[0]
    assertions = (
        AssertionCheck(
            "combined membership for {A} equals body 1's pignistic value",
            abs(mu_a - m1_star) <= 1e-3,
            f"mu={mu_a:.4f} vs {m1_star:.4f}",
        ),
        AssertionCheck(
            "both pignistic bodies are point-valued",
            all(
                abs(hi - lo) <= _PIGNISTIC_POINT_TOL
                for body in det.pignistic_bodies
                for _, lo, hi in body.entries
            ),
        ),
    )
    return TargetReport("example32", tuple(cells), assertions)


def reproduce_example33() -> TargetReport:
    """Bayesian example where the fuzzy route and the plain rule disagree."""
    ev = load_bundled("example33")
    frame = ev.frame
    bodies = [ibs for _, ibs in ev.bodies]

    det = song_combine_detail(bodies)
    song = {frame.format_set(fs): 0.5 * (lo + hi) for fs, lo, hi in det.result.entries}

    normalized = [normalize(b) for b in bodies]
    bpas = [Bpa(b.frame, tuple((fs, lo) for fs, lo, _ in b.entries)) for b in normalized]
    demp, conflict = dempster_combine(bpas[0], bpas[1])
    demp_map = {frame.format_set(fs): m for fs, m in demp}

    cells: list[CellCheck] = []
    for row, value in _EXAMPLE33_SONG.items():
        cells.append(
            CellCheck("example33", "song", row, "value", value, song.get(row, math.nan), 1e-3)
        )
    for row, value in _EXAMPLE33_DEMPSTER.items():
        cells.append(
            CellCheck(
                "example33", "dempster", row, "value", value, demp_map.get(row, math.nan), 1e-3
            )
        )

    gap = max(abs(song[row] - demp_map[row]) for row in _EXAMPLE33_SONG)
    assertions = (
        AssertionCheck(
            "the two routes disagree by more than 1e-2",
            gap > 1e-2,
            f"max |difference| = {gap:.4f}",
        ),
        AssertionCheck(
            "song output is point-valued on singletons",
            det.result.is_degenerate(),
        ),
    )
    notes = (f"conflict mass K = {conflict:.4f} for the plain rule",)
    return TargetReport("example33", tuple(cells), assertions, notes)


_DISPATCH = {
    "table2": reproduce_table2,
    "table3": reproduce_table3,
    "table4": reproduce_table4,
    "example4": reproduce_example4,
    "example32": reproduce_example32,
    "example33": reproduce_example33,
}
TARGETS = tuple(_DISPATCH)


def reproduce(target: str) -> TargetReport:
    try:
        fn = _DISPATCH[target]
    except KeyError:
        raise ValueError(
            f"unknown reproduce target {target!r}; expected one of {', '.join(TARGETS)}"
        ) from None
    return fn()
