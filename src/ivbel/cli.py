"""Command-line front end: validate, normalize, analyze, and combine evidence.

Commands
--------
validate    check each body against the validity and tightness conditions
normalize   rewrite each body as a normalized structure
entropy     entropy bounds per body for one or all measures
combine     combine all bodies with a chosen engine
compare     run several engines side by side on the same file
reproduce   recompute bundled reference values and report deltas

Exit codes: 0 on success (for ``reproduce``: all required checks pass),
1 when ``reproduce`` finds failing required checks, 2 on usage or engine
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from .core import (
    MASS_DROP_EPS,
    MASS_SUM_TOL,
    Bpa,
    FocalSet,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    degenerate_bpa,
    is_normalized,
    normalization_steps,
    normalize,
    validate_ibs,
)
from .entropy import MEASURE_IDS, SEPARABLE_MEASURE_IDS, entropy, measure
from .formats import (
    FORMAT_VERSION,
    METHODS,
    REPRODUCE_TARGETS,
    EvidenceFile,
    evidence_to_json,
    load_evidence,
    render_csv,
    render_intervals_table,
    render_table,
    result_to_json,
)

# The engine modules (optimize, fusion, reference, reproduce) are imported
# inside the commands that run them, so validate and normalize never load them.

_TOLERANCE_FOOTER = f"tolerances: mass sum {MASS_SUM_TOL:g}, zero drop {MASS_DROP_EPS:g}"

# The fields of a reproduce check, in the order the JSON document lists them.
_CELL_FIELDS = (
    "column", "row", "bound", "expected", "actual", "delta", "tol", "required", "passed"
)
_ASSERTION_FIELDS = ("label", "passed", "detail")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(
    fmt: str,
    doc: dict,
    lines: Sequence[str],
    *,
    notes: Sequence[str] = (),
    footer: bool = True,
    csv_column: str = "",
    csv_sources: Sequence[tuple[str, IntervalBeliefStructure | IntervalMassResult]] = (),
) -> None:
    """Print one command's output in the chosen format.

    ``json`` prints ``doc``.  ``csv`` prints one ``(source, set, lo, hi)`` row
    per entry of each named source, under ``csv_column``, and the notes on
    stderr.  ``table`` prints ``lines``, then each note as a ``note:`` line,
    then the tolerance footer when ``footer`` is set.
    """
    if fmt == "json":
        print(json.dumps(doc, indent=2))
        return
    if fmt == "csv":
        rows = [
            (source, body.frame.format_set(fs), lo, hi)
            for source, body in csv_sources for fs, lo, hi in body
        ]
        print(render_csv(csv_column, rows), end="")
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        return
    for line in lines:
        print(line)
    for note in notes:
        print(f"note: {note}")
    if footer:
        print(_TOLERANCE_FOOTER)


def _describe_steps(steps: tuple[str, ...]) -> str:
    return "; ".join(steps) or "already normalized"


def _interval_cells(body: IntervalBeliefStructure) -> str:
    frame = body.frame
    return ", ".join(f"{frame.format_set(fs)} [{lo:.4f}, {hi:.4f}]" for fs, lo, hi in body)


def _bpa_cells(bpa: Bpa) -> str:
    frame = bpa.frame
    return ", ".join(f"{frame.format_set(fs)}={m:.4f}" for fs, m in bpa.entries)


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_validate(args: argparse.Namespace) -> int:
    ev = load_evidence(args.file)
    results = []
    rows = []
    for name, body in ev.bodies:
        verdict = validate_ibs(body)
        valid = bool(verdict)
        normalized = valid and is_normalized(body)
        results.append(
            {"name": name, "valid": valid, "normalized": normalized, "reason": verdict.reason}
        )
        rows.append([name, _yes_no(valid), _yes_no(normalized), verdict.reason or ""])
    table = render_table(["body", "valid", "normalized", "reason"], rows)
    doc = {"format": FORMAT_VERSION, "command": "validate", "bodies": results}
    _emit(args.format, doc, [table], footer=False)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    ev = load_evidence(args.file)
    normalized = []
    lines = []
    for name, body in ev.bodies:
        body, steps = normalization_steps(body)
        normalized.append((name, body))
        lines.append(f"{name}: {_describe_steps(steps)}")
        lines.append(render_intervals_table(ev.frame, body.entries))
    doc = evidence_to_json(EvidenceFile(ev.frame, tuple(normalized)))
    _emit(args.format, doc, lines, csv_column="body", csv_sources=normalized)
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    from .optimize import entropy_bounds

    ev = load_evidence(args.file)
    requested = MEASURE_IDS if args.measure == "all" else (measure(args.measure).id,)

    bodies = [(n, normalize(b)) for n, b in ev.bodies]
    rows = []
    notes = []
    for name, body in bodies:
        point = degenerate_bpa(body) if body.is_degenerate() else None
        for mid in requested:
            meas = measure(mid)
            if point is not None:
                h = entropy(meas, point)
                rows.append((name, mid, h, h))
            elif meas.separable:
                sol = entropy_bounds(body, meas)
                rows.append((name, mid, sol.h_min, sol.h_max))
            elif args.measure == "all":
                notes.append(
                    f"{name}: {mid} skipped (not separable; exact bounds need"
                    f" point-valued input)"
                )
            else:
                entropy_bounds(body, meas)  # raises with the engine's message

    results = [{"body": n, "measure": m, "h_min": lo, "h_max": hi} for n, m, lo, hi in rows]
    table = render_table(
        ["body", "measure", "H min", "H max"],
        [[n, m, f"{lo:.4f}", f"{hi:.4f}"] for n, m, lo, hi in rows],
    )
    doc = {"format": FORMAT_VERSION, "command": "entropy", "results": results, "notes": notes}
    _emit(args.format, doc, [table], notes=notes)
    return 0


def _method_label(method: str, *, measure: str = "pal", w: float = 2.0) -> str:
    if method == "proposed":
        return f"proposed[{measure}]"
    if method == "leezhu":
        return f"leezhu[w={w:g}]"
    return method


def _audit_lines(rep) -> list[str]:
    """A combination report's stages and fold conflicts, one line each."""
    lines = [
        f"{label}: {_bpa_cells(s) if isinstance(s, Bpa) else _interval_cells(s)}"
        for label, s in rep.stages
    ]
    for label, lo, hi in rep.conflicts:
        k = f"= {lo:.4f}" if lo == hi else f"in [{lo:.4f}, {hi:.4f}]"
        lines.append(f"conflict {label}: K {k}")
    return lines


def cmd_combine(args: argparse.Namespace) -> int:
    from .fusion import combine

    if args.measure is not None and args.method != "proposed":
        return _fail("--measure only applies to --method proposed")
    if args.w is not None and args.method != "leezhu":
        return _fail("--w only applies to --method leezhu")
    measure = "pal" if args.measure is None else args.measure
    w = 2.0 if args.w is None else args.w

    ev = load_evidence(args.file)
    if len(ev.bodies) < 2:
        return _fail("no evidence: need at least two bodies to combine")
    frame = ev.frame
    bodies = [body for _, body in ev.bodies]
    method_label = _method_label(args.method, measure=measure, w=w)
    lines = [f"frame: {frame.format_set(frame.full_set)} ({len(bodies)} bodies)"]
    lines.extend(f"  {name}: {_interval_cells(body)}" for name, body in ev.bodies)
    lines.append(f"method: {method_label}")
    if args.method == "leezhu":
        # This engine is defined on the structures as given; the bundled
        # reference rows only reproduce without prior normalization.
        lines.append("inputs passed through unchanged (engine convention)")
    else:
        for i, (name, body) in enumerate(ev.bodies):
            bodies[i], steps = normalization_steps(body)
            lines.append(f"normalization {name}: {_describe_steps(steps)}")
    rep = combine(args.method, bodies, measure=measure, w=w)
    result = rep.result
    lines.extend(_audit_lines(rep))
    lines.extend(f"note: {n}" for n in rep.notes)
    lines.append(render_intervals_table(result.frame, result.entries))
    doc = result_to_json(result, method=method_label)
    # A table shows the notes above the result, so only csv hands them to
    # _emit (for stderr); the json document is the result file format.
    _emit(
        args.format,
        doc,
        lines,
        notes=rep.notes if args.format == "csv" else (),
        csv_column="method",
        csv_sources=[(method_label, result)],
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .fusion import combine

    ev = load_evidence(args.file)
    if len(ev.bodies) < 2:
        return _fail("no evidence: need at least two bodies to compare")
    bodies = [normalize(body) for _, body in ev.bodies]

    notes: list[str] = []
    columns = []
    for m in ("denoeux", "wang", "song", "proposed"):
        label = _method_label(m, measure=args.measure)
        try:
            rep = combine(m, bodies, measure=args.measure)
        except IvbelError as exc:
            notes.append(f"{label} column omitted: {exc}")
            continue
        columns.append((label, rep.result))
        notes.extend(f"{label}: {note}" for note in rep.notes)
    if not columns:
        return _fail("every engine failed: " + "; ".join(notes))

    cells = [
        {fs.bits: f"[{lo:.4f}, {hi:.4f}]" for fs, lo, hi in res.entries}
        for _, res in columns
    ]
    rows = [
        [ev.frame.format_set(FocalSet(bits)), *(col.get(bits, "-") for col in cells)]
        for bits in sorted(set().union(*cells))
    ]
    results = {name: result_to_json(res) for name, res in columns}
    doc = {"format": FORMAT_VERSION, "command": "compare", "results": results, "notes": notes}
    table = render_table(["focal set", *results], rows)
    _emit(args.format, doc, [table], notes=notes, csv_column="method", csv_sources=columns)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .reproduce import reproduce

    targets = REPRODUCE_TARGETS if args.target == "all" else (args.target,)
    reports = [reproduce(t) for t in targets]
    doc = {
        "format": FORMAT_VERSION,
        "command": "reproduce",
        "targets": [
            {
                "target": rep.target,
                "ok": rep.ok,
                "cells": [{k: getattr(c, k) for k in _CELL_FIELDS} for c in rep.cells],
                "assertions": [
                    {k: getattr(a, k) for k in _ASSERTION_FIELDS} for a in rep.assertions
                ],
                "notes": list(rep.notes),
            }
            for rep in reports
        ],
    }
    lines = [line for rep in reports for line in rep.lines()]
    _emit(args.format, doc, lines, footer=False)
    return 0 if all(rep.ok for rep in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivbel",
        description="Validate, normalize, and combine interval-valued bodies of evidence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, *choices: str) -> None:
        p.add_argument(
            "--format", choices=choices, default="table", help="output format"
        )

    p = sub.add_parser("validate", help="check validity and tightness of each body")
    p.add_argument("file", help="evidence file (JSON)")
    add_format(p, "table", "json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="normalize every body in the file")
    p.add_argument("file", help="evidence file (JSON)")
    add_format(p, "table", "json", "csv")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("entropy", help="entropy bounds per body")
    p.add_argument("file", help="evidence file (JSON)")
    p.add_argument(
        "--measure",
        default="all",
        help=f"measure id or 'all' (ids: {', '.join(MEASURE_IDS)})",
    )
    add_format(p, "table", "json")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("combine", help="combine all bodies with one engine")
    p.add_argument("file", help="evidence file (JSON)")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument(
        "--measure",
        choices=SEPARABLE_MEASURE_IDS,
        default=None,
        help="entropy objective (proposed method only; default pal)",
    )
    p.add_argument(
        "--w", type=float, default=None, help="norm order, >= 1 (leezhu only; default 2)"
    )
    add_format(p, "table", "json", "csv")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("compare", help="run several engines side by side")
    p.add_argument("file", help="evidence file (JSON)")
    p.add_argument(
        "--measure",
        choices=SEPARABLE_MEASURE_IDS,
        default="pal",
        help="entropy objective for the proposed column",
    )
    add_format(p, "table", "json", "csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reproduce", help="recompute bundled reference values")
    p.add_argument("target", choices=REPRODUCE_TARGETS + ("all",))
    add_format(p, "table", "json")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IvbelError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
