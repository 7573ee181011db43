"""The cli-bundled workload: the ``ivbel`` command on the bundled files.

Every op is one invocation.  The expected output of each is prepared in
set-up from the library calls the command makes, so a JSON invocation is
checked field by field and a table invocation by the 4-decimal figures it
must print.

Known outcomes at the time this workload was written:

* ``reproduce all`` exits 1 by design: three targets keep documented
  discrepancies (README, "known discrepancies").  It counts as correct only
  when every per-target tally equals the README's.
* ``combine --method dempster`` on interval-valued files exits 2 by design;
  it counts as correct when the refusal message is the documented one.
* ``combine --method denoeux`` and ``compare`` on example31 and example33
  exit 2 because of a defect: ``denoeux_normalize`` returns lo > hi by one
  ulp on point-valued raw bounds.  These four invocations count as failed
  ops until the defect is fixed in ``reference.py``; a run stays correct
  only while they fail with that defect's message.  Any other failure makes
  the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import ivbel
import ivbel.cli
from ivbel.core import MASS_SUM_TOL
from ivbel.reproduce import TARGETS

from ops import Op, OpError, WrongAnswer, require

FILES = ("example31", "example32", "example33", "example4", "example5", "example6")
METHODS = ("proposed", "wang", "denoeux", "leezhu", "song", "dempster")
COMMANDS = (
    ("validate",),
    ("normalize",),
    ("entropy",),
    *(("combine", "--method", m) for m in METHODS),
    ("compare",),
)
REPRODUCE = ("reproduce", "all")

# README, "Reproduce": the targets that fail by design, with their tallies of
# passed/total required checks.  Every other target must PASS.
README_FAILING = {"table2": (57, 60), "table3": (15, 16), "table4": (37, 40)}
DEMPSTER_REFUSAL = "method dempster needs point-valued evidence"
# The denoeux_normalize defect: the files it fails on and its error message.
DEFECT_FILES = ("example31", "example33")
DEFECT_MESSAGE = "violates 0 <= lo <= hi <= 1"
CLI_TIMEOUT_S = 60


def invocations(data_dir: Path) -> list[list[str]]:
    """The 61 distinct invocations; JSON and table output alternate."""
    out = []
    for fi, name in enumerate(FILES):
        path = str(data_dir / f"{name}.json")
        for ci, command in enumerate(COMMANDS):
            fmt = ["--format", "json"] if (fi + ci) % 2 == 0 else []
            out.append([command[0], path, *command[1:], *fmt])
    out.append(list(REPRODUCE))
    return out


# ---------------------------------------------------------------------------
# Expected outputs, from the library calls each command makes.


def _entropy_doc(ev) -> dict:
    rows, notes = [], []
    for name, body in ev.bodies:
        body = ivbel.normalize(body)
        point = ivbel.degenerate_bpa(body) if body.is_degenerate(tol=MASS_SUM_TOL) else None
        for mid in ivbel.MEASURE_IDS:
            if point is not None:
                h = ivbel.entropy(mid, point)
                rows.append((name, mid, h, h))
            elif ivbel.measure(mid).separable:
                sol = ivbel.entropy_bounds(body, mid)
                rows.append((name, mid, sol.h_min, sol.h_max))
            else:
                notes.append(
                    f"{name}: {mid} skipped (not separable; exact bounds need"
                    f" point-valued input)"
                )
    return {
        "format": 1,
        "command": "entropy",
        "results": [{"body": n, "measure": m, "h_min": lo, "h_max": hi} for n, m, lo, hi in rows],
        "notes": notes,
    }


def _engine(method: str, bodies):
    if method == "proposed":
        return ivbel.proposed_combine_report(bodies, "pal").result
    if method == "wang":
        return ivbel.wang_combine(bodies)
    if method == "denoeux":
        if len(bodies) != 2:
            raise ivbel.IvbelError("denoeux combines exactly two bodies")
        return ivbel.denoeux_normalize(ivbel.denoeux_combine(bodies[0], bodies[1]))
    if method == "song":
        return ivbel.song_combine_detail(bodies).result
    raise ValueError(f"unknown method {method!r}")


def _combine_doc(ev, method: str) -> dict:
    raw = [body for _, body in ev.bodies]
    if method == "leezhu":
        if len(raw) != 2:
            raise ivbel.IvbelError("leezhu combines exactly two bodies")
        return ivbel.result_to_json(ivbel.leezhu_combine(raw[0], raw[1]), method="leezhu[w=2]")
    bodies = [ivbel.normalize(b) for b in raw]
    label = "proposed[pal]" if method == "proposed" else method
    return ivbel.result_to_json(_engine(method, bodies), method=label)


def _compare_doc(ev) -> dict:
    bodies = [ivbel.normalize(body) for _, body in ev.bodies]
    results, notes = {}, []
    if len(bodies) == 2:
        results["denoeux"] = ivbel.result_to_json(_engine("denoeux", bodies))
    else:
        notes.append("denoeux column omitted: that engine combines exactly two bodies")
    for method in ("wang", "song"):
        results[method] = ivbel.result_to_json(_engine(method, bodies))
    results["proposed[pal]"] = ivbel.result_to_json(_engine("proposed", bodies))
    return {"format": 1, "command": "compare", "results": results, "notes": notes}


def _validate_doc(ev) -> dict:
    bodies = []
    for name, body in ev.bodies:
        verdict = ivbel.validate_ibs(body)
        bodies.append(
            {
                "name": name,
                "valid": verdict.ok,
                "normalized": verdict.ok and ivbel.is_normalized(body),
                "reason": verdict.reason,
            }
        )
    return {"format": 1, "command": "validate", "bodies": bodies}


def expected(argv: list[str]) -> tuple[str, object]:
    """What one invocation must produce.

    ``("doc", json)`` for a success, ``("refusal", message)`` for a designed
    exit 2, ``("error", message)`` when the library itself raises (the op
    then fails), ``("reproduce", None)`` for the README tallies.
    """
    if argv[0] == "reproduce":
        return "reproduce", None
    command, path = argv[0], argv[1]
    ev = ivbel.load_evidence(path)
    try:
        if command == "validate":
            return "doc", _validate_doc(ev)
        if command == "normalize":
            normalized = tuple((n, ivbel.normalize(b)) for n, b in ev.bodies)
            return "doc", ivbel.evidence_to_json(ivbel.EvidenceFile(ev.frame, normalized))
        if command == "entropy":
            return "doc", _entropy_doc(ev)
        if command == "compare":
            return "doc", _compare_doc(ev)
        method = argv[argv.index("--method") + 1]
        if method == "dempster":
            bodies = [ivbel.normalize(b) for _, b in ev.bodies]
            if not all(b.is_degenerate(tol=MASS_SUM_TOL) for b in bodies):
                return "refusal", DEMPSTER_REFUSAL
            combined, _ = ivbel.dempster_combine_n([ivbel.degenerate_bpa(b) for b in bodies])
            entries = tuple((fs, m, m) for fs, m in combined.entries)
            result = ivbel.IntervalMassResult(ev.frame, entries, normalized=True)
            return "doc", ivbel.result_to_json(result, method="dempster")
        return "doc", _combine_doc(ev, method)
    except ivbel.IvbelError as exc:
        return "error", str(exc)


def known_failure(argv: list[str]) -> str | None:
    """The defect's message for the four invocations it fails, else None."""
    if argv[0] == "reproduce" or Path(argv[1]).stem not in DEFECT_FILES:
        return None
    if argv[0] == "compare" or argv[2:4] == ["--method", "denoeux"]:
        return DEFECT_MESSAGE
    return None


# ---------------------------------------------------------------------------
# Checks


def _same(actual, want, where: str = "$") -> None:
    if isinstance(want, float) and isinstance(actual, (int, float)):
        require(abs(actual - want) <= 1e-12, f"{where}: {actual!r} != {want!r}")
    elif isinstance(want, dict):
        require(isinstance(actual, dict) and set(actual) == set(want), f"{where}: keys differ")
        for key in want:
            _same(actual[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        require(
            isinstance(actual, list) and len(actual) == len(want), f"{where}: length differs"
        )
        for i, (a, w) in enumerate(zip(actual, want)):
            _same(a, w, f"{where}[{i}]")
    else:
        require(actual == want, f"{where}: {actual!r} != {want!r}")


def _floats(doc):
    if isinstance(doc, float):
        yield doc
    elif isinstance(doc, dict):
        for value in doc.values():
            yield from _floats(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _floats(value)


def _check_table(doc: dict, out: str) -> None:
    if doc.get("command") == "validate":
        lines = {line.split()[0]: line.split()[1:3] for line in out.splitlines() if line.split()}
        for body in doc["bodies"]:
            want = ["yes" if body["valid"] else "no", "yes" if body["normalized"] else "no"]
            require(lines.get(body["name"]) == want, f"validate row for {body['name']}")
        return
    for value in _floats(doc):
        require(f"{value:.4f}" in out, f"table lacks {value:.4f}")


def _check_reproduce(out: str) -> None:
    tallies = {}
    for line in out.splitlines():
        target, sep, rest = line.partition(": ")
        if sep and not line.startswith(" ") and rest[:4] in ("PASS", "FAIL"):
            passed, total = rest.split("(")[1].split()[0].split("/")
            tallies[target] = (rest[:4], int(passed), int(total))
    require(set(tallies) == set(TARGETS), f"reproduce targets {sorted(tallies)}")
    for target, (status, passed, total) in tallies.items():
        if target in README_FAILING:
            want = ("FAIL", *README_FAILING[target])
            require((status, passed, total) == want, f"{target}: {status} {passed}/{total}")
        else:
            require(status == "PASS" and passed == total, f"{target}: {status}")


def check(argv: list[str], want: tuple[str, object], outcome: tuple[int, str, str]) -> None:
    rc, out, err = outcome
    kind, payload = want
    if kind == "reproduce":
        if rc == 2:
            raise OpError(f"reproduce exited 2: {err.strip()}")
        require(rc == 1, f"reproduce exited {rc}, README expects 1")
        _check_reproduce(out)
    elif kind == "refusal":
        if rc == 0:
            raise WrongAnswer("designed refusal did not happen")
        if rc != 2 or payload not in err:
            raise OpError(f"exit {rc}: {err.strip()}")
    elif rc != 0:
        raise OpError(f"exit {rc}: {err.strip()}")
    elif kind == "error":
        raise WrongAnswer(f"library raises {payload!r} but the command succeeded")
    elif "--format" in argv:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            raise WrongAnswer("--format json output is not JSON") from None
        _same(doc, payload)
    else:
        _check_table(payload, out)


# ---------------------------------------------------------------------------
# Running the command


def spawn(argv: list[str], src: Path) -> tuple[int, str, str]:
    """Run ``python -m ivbel.cli`` as a user would, against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ivbel.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """``ivbel.cli.main(argv)`` with its output captured (traced run)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ivbel.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_bundled(seed: int, src: Path, spawned: bool = True) -> tuple[Op, list[Op]]:
    """A warm-up op, and one pass over the 61 invocations in an order drawn
    from ``seed``.  The warm-up is the same for every seed, so set-up time
    does not depend on which invocation the shuffle puts first."""
    argvs = invocations(src / "ivbel" / "data")
    warmup = argvs[0]
    random.Random(f"cli:{seed}").shuffle(argvs)
    ops = []
    for argv in [warmup, *argvs]:
        want = expected(argv)
        if spawned:
            call = lambda argv=argv: spawn(argv, src)  # noqa: E731
        else:
            call = lambda argv=argv: in_process(argv)  # noqa: E731
        ops.append(
            Op(
                " ".join(argv),
                call,
                lambda o, a=argv, w=want: check(a, w, o),
                known_failure(argv),
            )
        )
    return ops[0], ops[1:]
