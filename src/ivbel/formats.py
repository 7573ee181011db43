"""Evidence files and result serialization.

The on-disk evidence format is JSON, versioned with a top-level
``"format": 1``:

    {
      "format": 1,
      "frame": ["A1", "A2", "A3"],
      "bodies": [
        {"name": "m1", "masses": [
          {"set": ["A1"], "lo": 0.2, "hi": 0.4},
          {"set": ["A1", "A2"], "mass": 0.3}
        ]}
      ]
    }

A mass item carries either a point ``mass`` (shorthand for ``lo == hi``) or
a ``lo``/``hi`` pair.  Schema violations raise :class:`SchemaError` naming
the offending field.  Tables print 4 decimals; JSON output carries full
float precision (at least 12 significant digits).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .core import (
    FocalSet,
    Frame,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    SchemaError,
)

__all__ = [
    "FORMAT_VERSION",
    "EvidenceFile",
    "parse_evidence",
    "load_evidence",
    "evidence_to_json",
    "result_to_json",
    "result_from_json",
    "render_table",
    "render_intervals_table",
    "render_csv",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class EvidenceFile:
    """A frame plus one or more named interval-valued bodies of evidence."""

    frame: Frame
    bodies: tuple[tuple[str, IntervalBeliefStructure], ...]


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{where}: {message}")


def _check_keys(obj: dict, where: str, required: set[str], optional: set[str]) -> None:
    keys = set(obj)
    missing = required - keys
    _require(not missing, where, f"missing required field(s) {sorted(missing)}")
    unknown = keys - required - optional
    _require(not unknown, where, f"unknown field(s) {sorted(unknown)}")


def _as_number(value: Any, where: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        where,
        f"expected a number, got {value!r}",
    )
    # Compared before float(): an integer too large for a float is out of
    # range, not an OverflowError.
    _require(0.0 <= value <= 1.0, where, f"value {value!r} outside [0, 1]")
    return float(value)


def _parse_header(data: Any, items_key: str, optional: set[str]) -> Frame:
    """Check the top-level object, its format version and its frame."""
    _require(isinstance(data, dict), "$", "top level must be an object")
    _check_keys(data, "$", {"format", "frame", items_key}, optional)
    _require(
        type(data["format"]) is int and data["format"] == FORMAT_VERSION,
        "$.format",
        f"unsupported format {data['format']!r}, expected {FORMAT_VERSION}",
    )

    raw_frame = data["frame"]
    _require(
        isinstance(raw_frame, list) and raw_frame, "$.frame", "must be a non-empty list"
    )
    for i, label in enumerate(raw_frame):
        _require(
            isinstance(label, str) and bool(label),
            f"$.frame[{i}]",
            f"labels must be non-empty strings, got {label!r}",
        )
    try:
        return Frame(tuple(raw_frame))
    except IvbelError as exc:
        raise SchemaError(f"$.frame: {exc}") from None


def _parse_intervals(
    frame: Frame, items: list, where: str, bound_keys: set[str]
) -> tuple[tuple[FocalSet, float, float], ...]:
    """Check a list of mass items: a ``"set"`` and either ``"lo"``/``"hi"``
    or, where ``bound_keys`` allows it, a point ``"mass"``."""
    entries = []
    seen_bits: set[int] = set()
    for mi, item in enumerate(items):
        iwhere = f"{where}[{mi}]"
        _require(isinstance(item, dict), iwhere, "must be an object")
        _check_keys(item, iwhere, {"set"}, bound_keys)
        raw_set = item["set"]
        _require(
            isinstance(raw_set, list) and raw_set,
            f"{iwhere}.set",
            "must be a non-empty list of labels",
        )
        try:
            fs = frame.subset(raw_set)
        except IvbelError as exc:
            raise SchemaError(f"{iwhere}.set: {exc}") from None
        _require(
            fs.bits not in seen_bits,
            f"{iwhere}.set",
            f"duplicate focal set {frame.format_set(fs)}",
        )
        seen_bits.add(fs.bits)

        if "mass" in item:
            _require(
                "lo" not in item and "hi" not in item,
                iwhere,
                "give either 'mass' or 'lo'/'hi', not both",
            )
            value = _as_number(item["mass"], f"{iwhere}.mass")
            lo = hi = value
        else:
            _require("lo" in item and "hi" in item, iwhere, "need both 'lo' and 'hi'")
            lo = _as_number(item["lo"], f"{iwhere}.lo")
            hi = _as_number(item["hi"], f"{iwhere}.hi")
            _require(lo <= hi, iwhere, f"lo {lo!r} exceeds hi {hi!r}")
        entries.append((fs, lo, hi))
    return tuple(entries)


def parse_evidence(data: Any) -> EvidenceFile:
    """Validate decoded JSON against the evidence schema."""
    frame = _parse_header(data, "bodies", set())
    raw_bodies = data["bodies"]
    _require(isinstance(raw_bodies, list), "$.bodies", "must be a list")
    _require(bool(raw_bodies), "$.bodies", "no evidence: at least one body required")

    bodies: list[tuple[str, IntervalBeliefStructure]] = []
    names: set[str] = set()
    for bi, raw_body in enumerate(raw_bodies):
        where = f"$.bodies[{bi}]"
        _require(isinstance(raw_body, dict), where, "must be an object")
        _check_keys(raw_body, where, {"masses"}, {"name"})
        name = raw_body.get("name", f"m{bi + 1}")
        _require(
            isinstance(name, str) and bool(name), f"{where}.name", "must be a non-empty string"
        )
        _require(name not in names, f"{where}.name", f"duplicate body name {name!r}")
        names.add(name)

        raw_masses = raw_body["masses"]
        _require(
            isinstance(raw_masses, list) and raw_masses,
            f"{where}.masses",
            "must be a non-empty list",
        )
        entries = _parse_intervals(frame, raw_masses, f"{where}.masses", {"mass", "lo", "hi"})
        bodies.append((name, IntervalBeliefStructure(frame, entries)))
    return EvidenceFile(frame, tuple(bodies))


def load_evidence(path: str | Path) -> EvidenceFile:
    """Read and validate an evidence file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, nested too deeply, or an integer too long to convert.
        raise SchemaError(f"{path}: unreadable JSON: {exc}") from None
    return parse_evidence(data)


def _interval_items(frame: Frame, entries: Sequence[tuple]) -> list[dict]:
    """``(FocalSet, lo, hi)`` entries as schema mass items."""
    return [{"set": list(frame.members(fs)), "lo": lo, "hi": hi} for fs, lo, hi in entries]


def evidence_to_json(ev: EvidenceFile) -> dict:
    """Encode evidence back to the schema; inverse of :func:`parse_evidence`."""
    return {
        "format": FORMAT_VERSION,
        "frame": list(ev.frame.labels),
        "bodies": [
            {"name": name, "masses": _interval_items(ev.frame, body.entries)}
            for name, body in ev.bodies
        ],
    }


def result_to_json(result: IntervalMassResult, method: str | None = None) -> dict:
    """Encode a combination result; inverse of :func:`result_from_json`."""
    data: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "frame": list(result.frame.labels),
        "entries": _interval_items(result.frame, result.entries),
        "empty": list(result.includes_empty) if result.includes_empty else None,
        "normalized": result.normalized,
    }
    if method is not None:
        data["method"] = method
    return data


def result_from_json(data: Any) -> tuple[IntervalMassResult, str | None]:
    """Decode a result produced by :func:`result_to_json`."""
    frame = _parse_header(data, "entries", {"empty", "normalized", "method"})
    _require(isinstance(data["entries"], list), "$.entries", "must be a list")
    entries = _parse_intervals(frame, data["entries"], "$.entries", {"lo", "hi"})
    empty = data.get("empty")
    if empty is not None:
        _require(
            isinstance(empty, list) and len(empty) == 2,
            "$.empty",
            "must be a [lo, hi] pair or null",
        )
        empty = (_as_number(empty[0], "$.empty[0]"), _as_number(empty[1], "$.empty[1]"))
        _require(empty[0] <= empty[1], "$.empty", f"lo {empty[0]!r} exceeds hi {empty[1]!r}")
    normalized = data.get("normalized", False)
    _require(isinstance(normalized, bool), "$.normalized", "must be true or false")
    method = data.get("method")
    _require(method is None or isinstance(method, str), "$.method", "must be a string")
    result = IntervalMassResult(frame, entries, includes_empty=empty, normalized=normalized)
    # A raw result may pass the test without claiming it, so only true is checked.
    _require(
        result.normalized or not normalized,
        "$.normalized",
        "true, but the entries are not normalized",
    )
    return result, method


# ---------------------------------------------------------------------------
# Text rendering


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain aligned columns: left-justified first column, right-justified rest."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [headers, *rows]:
        cells = [
            row[0].ljust(widths[0]),
            *(cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])),
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def render_intervals_table(frame: Frame, entries: Sequence[tuple]) -> str:
    """Render (FocalSet, lo, hi) rows with 4-decimal bounds."""
    rows = [
        [frame.format_set(fs), _fmt(lo), _fmt(hi)] for fs, lo, hi in entries
    ]
    return render_table(["focal set", "lo", "hi"], rows)


def render_csv(
    source_column: str,
    rows: Sequence[tuple[str, str, float, float]],
) -> str:
    """CSV with columns ``(body/method, focal_set, lo, hi)``, full precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([source_column, "focal_set", "lo", "hi"])
    for source, focal, lo, hi in rows:
        writer.writerow([source, focal, repr(float(lo)), repr(float(hi))])
    return buf.getvalue()
