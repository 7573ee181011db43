"""Spans around the public functions of each ``ivbel`` module.

The package calls its own functions through module globals (``from .core
import normalize`` binds ``normalize`` in every importing module), so a
function is wrapped in every ``ivbel`` namespace that binds it; a binding the
wrappers miss would lose its spans, and :meth:`Tracer.missing` reports it.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from pathlib import Path
from time import perf_counter

# Span name -> (module, function) it wraps.  ``formats.render`` covers the
# three text renderers.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("cli", "main"),),
    "formats.load_evidence": (("formats", "load_evidence"),),
    "formats.render": (
        ("formats", "render_table"),
        ("formats", "render_intervals_table"),
        ("formats", "render_csv"),
    ),
    "core.normalize": (("core", "normalize"),),
    "core.validate_ibs": (("core", "validate_ibs"),),
    "core.is_normalized": (("core", "is_normalized"),),
    "polytope.enumerate_vertices": (("polytope", "enumerate_vertices"),),
    "entropy.entropy_from_profile": (("entropy", "entropy_from_profile"),),
    "entropy.entropy": (("entropy", "entropy"),),
    "optimize.entropy_bounds": (("optimize", "entropy_bounds"),),
    "optimize.max_entropy_bpa": (("optimize", "max_entropy_bpa"),),
    "optimize.water_fill": (("optimize", "water_fill"),),
    "fusion.proposed_combine_report": (("fusion", "proposed_combine_report"),),
    "fusion.dempster_combine_n": (("fusion", "dempster_combine_n"),),
    "reference.wang_combine": (("reference", "wang_combine"),),
    "reference.denoeux_combine": (("reference", "denoeux_combine"),),
    "reference.denoeux_normalize": (("reference", "denoeux_normalize"),),
    "reference.song_combine_detail": (("reference", "song_combine_detail"),),
    "reference.leezhu_combine": (("reference", "leezhu_combine"),),
    "reproduce.reproduce": (("reproduce", "reproduce"),),
}

# The spans each workload must record: the rows the benchmark's layer table
# marks as moved on that workload, and the fusion and reference layers on the
# gated workloads that run them (combine-ladder is not gated).
EXPECTED = {
    "cli-bundled": (
        "cli.main",
        "formats.load_evidence",
        "formats.render",
        "reproduce.reproduce",
        "fusion.proposed_combine_report",
        "fusion.dempster_combine_n",
        "reference.wang_combine",
        "reference.denoeux_combine",
        "reference.denoeux_normalize",
        "reference.song_combine_detail",
        "reference.leezhu_combine",
    ),
    "entropy-ladder": (
        "polytope.enumerate_vertices",
        "entropy.entropy_from_profile",
        "optimize.entropy_bounds",
        "optimize.water_fill",
    ),
    "combine-ladder": (
        "polytope.enumerate_vertices",
        "fusion.proposed_combine_report",
        "fusion.dempster_combine_n",
        "reference.wang_combine",
        "reference.denoeux_combine",
        "reference.denoeux_normalize",
        "reference.song_combine_detail",
        "reference.leezhu_combine",
    ),
    "wide-poly": (
        "core.normalize",
        "core.validate_ibs",
        "core.is_normalized",
        "entropy.entropy",
        "optimize.entropy_bounds",
        "optimize.max_entropy_bpa",
        "optimize.water_fill",
        "reference.song_combine_detail",
        "reference.leezhu_combine",
    ),
}

# Per-layer metrics reported by every traced run, in output order.
CALLS_AND_SELF = (
    "cli.main",
    "formats.load_evidence",
    "core.normalize",
    "core.validate_ibs",
    "core.is_normalized",
    "polytope.enumerate_vertices",
    "entropy.entropy_from_profile",
    "entropy.entropy",
    "optimize.entropy_bounds",
    "optimize.max_entropy_bpa",
    "optimize.water_fill",
    "fusion.proposed_combine_report",
    "fusion.dempster_combine_n",
    "reference.wang_combine",
    "reference.denoeux_combine",
    "reproduce.reproduce",
)
SELF_ONLY = (
    "formats.render",
    "reference.denoeux_normalize",
    "reference.song_combine_detail",
    "reference.leezhu_combine",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "error", "child_s")

    def __init__(self, name: str, parent: int, op: int) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.info: dict | None = None
        self.error = False
        self.child_s = 0.0
        self.start = perf_counter()
        self.end = self.start


def _candidates(n: int) -> int:
    """Candidate points the vertex scan visits: all-at-bounds patterns plus
    one free coordinate per pattern of the others."""
    return n * 2 ** (n - 1) + 2**n


class Tracer:
    """Records spans for wrapped calls while :attr:`on` is true."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.on = False
        self.op = -1
        self._seen_polytopes: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = Span(name, self.stack[-1] if self.stack else -1, self.op)
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                self.stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.end - span.start
            span.info = self._info(name, args, result)
            return result

        return wrapper

    def _info(self, name: str, args: tuple, result) -> dict | None:
        if name == "polytope.enumerate_vertices":
            ibs = args[0]
            key = (ibs.frame, ibs.entries)
            repeat = key in self._seen_polytopes
            self._seen_polytopes.add(key)
            return {"n": len(ibs.entries), "vertices": len(result), "repeat": repeat}
        if name == "core.normalize":
            return {"changed": result is not args[0]}
        if name == "optimize.entropy_bounds":
            return {"tie_extra": result.min_tie_count - 1}
        return None

    def install(self) -> None:
        """Replace every ``ivbel`` binding of each target with its wrapper."""
        modules = [m for key, m in sys.modules.items() if key == "ivbel" or key.startswith("ivbel.")]
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(f"ivbel.{module_name}"), attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Expected span names that recorded nothing on this workload."""
        seen = {s.name for s in self.spans}
        return [name for name in EXPECTED[workload] if name not in seen]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            own = (s.end - s.start - s.child_s) * 1000.0
            self_ms[s.name] = self_ms.get(s.name, 0.0) + own
        out: dict[str, tuple[float, str]] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
        for name in SELF_ONLY:
            out[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")

        def infos(name):
            return [s.info for s in self.spans if s.name == name and s.info is not None]

        normalize = infos("core.normalize")
        out["core.normalize.changed_share"] = (
            _share(sum(i["changed"] for i in normalize), len(normalize)),
            "ratio",
        )
        scans = infos("polytope.enumerate_vertices")
        vertices = sum(i["vertices"] for i in scans)
        candidates = sum(_candidates(i["n"]) for i in scans)
        out["polytope.vertices"] = (vertices, "count")
        out["polytope.candidates"] = (candidates, "count")
        out["polytope.vertex_yield"] = (_share(vertices, candidates), "ratio")
        out["polytope.repeat_share"] = (
            _share(sum(i["repeat"] for i in scans), len(scans)),
            "ratio",
        )
        out["entropy.evals_per_vertex"] = (
            _share(calls.get("entropy.entropy_from_profile", 0), vertices),
            "ratio",
        )
        out["optimize.min_tie_extra"] = (
            sum(i["tie_extra"] for i in infos("optimize.entropy_bounds")),
            "count",
        )
        out["reference.wang_combine.vertex_tuples"] = (self._child_products("reference.wang_combine"), "count")
        out["reference.denoeux_combine.vertex_pairs"] = (self._child_products("reference.denoeux_combine"), "count")
        out["reference.errors"] = (
            sum(1 for s in self.spans if s.name.startswith("reference.") and s.error),
            "count",
        )
        return out

    def _child_products(self, name: str) -> int:
        """Sum over ``name`` spans of the product of the vertex counts their
        own enumerations returned: the tuples the engine scans."""
        counts: dict[int, list[int]] = {}
        for s in self.spans:
            if s.name == "polytope.enumerate_vertices" and s.info is not None:
                counts.setdefault(s.parent, []).append(s.info["vertices"])
        return sum(
            math.prod(counts.get(i, [0]))
            for i, s in enumerate(self.spans)
            if s.name == name
        )

    def write(self, path: Path, meta: dict) -> None:
        """One JSON line of metadata and field names, then one row per span."""
        fields = ["name", "start", "end", "parent", "op", "error", "info"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": fields}) + "\n")
            for s in self.spans:
                row = [s.name, s.start, s.end, s.parent, s.op, s.error, s.info]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
