"""The CLI golden corpus: fixed inputs, a grid of ``ivbel`` invocations, and
their recorded exit codes, stdout and stderr.

``tests/test_cli_corpus.py`` runs the grid in process and compares each
invocation's output with ``tests/golden/cli.txt``.  After a deliberate
output change, regenerate that file with::

    PYTHONPATH=src python tests/cli_corpus.py

and list the invocations that changed, and why, in CHANGES.md.

Each record in the file is a ``### ivbel ...`` header line, an ``exit N``
line, then stdout lines prefixed ``1|`` and stderr lines prefixed ``2|``; a
stream that does not end in a newline gets a closing ``1\\`` or ``2\\`` line.
File paths print as bare file names.  Argparse usage errors keep only their
``error:`` line: usage and help text belong to argparse and change between
Python versions, so ``--help`` is not in the grid either.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from ivbel import cli
from ivbel.entropy import MEASURE_IDS, SEPARABLE_MEASURE_IDS
from ivbel.reproduce import TARGETS

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"
NON_SEPARABLE = tuple(m for m in MEASURE_IDS if m not in SEPARABLE_MEASURE_IDS)
BUNDLED = ("example31", "example32", "example33", "example4", "example5", "example6")


def _body(name: str, masses: dict[str, tuple[float, float]]) -> dict:
    return {
        "name": name,
        "masses": [
            {"set": list(labels), "lo": lo, "hi": hi} for labels, (lo, hi) in masses.items()
        ],
    }


def _file(frame: str, *bodies: dict[str, tuple[float, float]]) -> dict:
    return {
        "format": 1,
        "frame": list(frame),
        "bodies": [_body(f"m{i}", masses) for i, masses in enumerate(bodies, 1)],
    }


# Small generated inputs, each reaching a branch the bundled files do not.
# Set keys are label strings: "AB" is the focal set {A, B}.
GENERATED = {
    # Valid, not normalized: loose bounds on both bodies.
    "raw": _file(
        "ABC",
        {"A": (0.1, 0.6), "B": (0.0, 0.5), "AB": (0.1, 0.4), "ABC": (0.0, 0.3)},
        {"A": (0.2, 0.7), "C": (0.05, 0.45), "AC": (0.0, 0.35)},
    ),
    # Body 2 is invalid: its upper bounds sum to 0.7 < 1.
    "invalid": _file(
        "ABC",
        {"A": (0.3, 0.5), "BC": (0.5, 0.7)},
        {"A": (0.1, 0.2), "B": (0.2, 0.3), "ABC": (0.1, 0.2)},
    ),
    # Point-valued (lo = hi): the only bodies the dempster method accepts.
    "point": _file(
        "ABC",
        {"A": (0.5, 0.5), "AB": (0.3, 0.3), "ABC": (0.2, 0.2)},
        {"B": (0.4, 0.4), "C": (0.1, 0.1), "BC": (0.5, 0.5)},
    ),
    "single": _file("AB", {"A": (0.3, 0.6), "AB": (0.4, 0.7)}),
    # Three bodies: denoeux and leezhu refuse, compare drops the denoeux column.
    "three": _file(
        "ABC",
        {"A": (0.3, 0.6), "AB": (0.4, 0.7)},
        {"B": (0.1, 0.4), "AB": (0.2, 0.5), "ABC": (0.2, 0.6)},
        {"A": (0.2, 0.3), "C": (0.1, 0.3), "AC": (0.4, 0.7)},
    ),
    # Denoeux, wang and song combine; the proposed rule's minimum-entropy
    # witnesses ({A} and {B}) are in total conflict.
    "near-conflict": _file(
        "ABC",
        {"A": (0.9999999999986339, 1.0), "B": (0.0, 8.066875882656179e-13),
         "C": (0.0, 8.066875882656179e-13)},
        {"A": (0.0, 1.2486632893694472e-05), "B": (0.9999869904227207, 1.0),
         "C": (0.0, 1.2486632893694472e-05)},
    ),
    # Every engine fails.
    "total-conflict": _file("AB", {"A": (1.0, 1.0)}, {"B": (1.0, 1.0)}),
}


def invocations() -> list[list[str]]:
    """The grid, with evidence files named by bare file name."""
    out: list[list[str]] = []
    for name in (*BUNDLED, *GENERATED):
        path = f"{name}.json"
        out += [["validate", path, "--format", f] for f in ("table", "json")]
        out += [["normalize", path, "--format", f] for f in ("table", "json", "csv")]
        out += [["entropy", path, "--measure", "all", "--format", f] for f in ("table", "json")]
        # A separable measure alone prints rows of "--measure all"; a
        # non-separable one fails where "all" skips it with a note.
        out += [["entropy", path, "--measure", m] for m in NON_SEPARABLE]
        # csv carries the full float repr and the engine notes, json adds only
        # the method label, so json runs once per method, on its defaults.
        out += [
            ["combine", path, "--method", "proposed", "--measure", m, "--format", f]
            for m in SEPARABLE_MEASURE_IDS if m != "pal" for f in ("table", "csv")
        ]
        out += [["combine", path, "--method", "leezhu", "--w", w, "--format", "csv"] for w in "13"]
        for m in cli.METHODS:
            out += [["combine", path, "--method", m, "--format", f] for f in ("table", "json", "csv")]
        out += [["compare", path, "--format", f] for f in ("table", "json")]
        out += [["compare", path, "--measure", m, "--format", "csv"] for m in SEPARABLE_MEASURE_IDS]
    out += [["reproduce", target] for target in TARGETS]
    out.append(["reproduce", "all", "--format", "json"])
    out += [
        ["validate", "example4.json", "--format", "csv"],
        ["combine", "example4.json", "--method", "wang", "--measure", "deng"],
        ["combine", "example4.json", "--method", "proposed", "--w", "3"],
        ["entropy", "example4.json", "--measure", "nope"],
        ["validate", "missing.json"],
        ["reproduce", "nope"],
    ]
    return out


def write_inputs(directory: Path) -> None:
    """Write the generated inputs into ``directory``."""
    for name, data in GENERATED.items():
        (directory / f"{name}.json").write_text(json.dumps(data, indent=1), encoding="utf-8")


def _stream(tag: str, text: str) -> list[str]:
    lines = text.split("\n")
    tail = lines.pop()
    out = [f"{tag}|{line}" for line in lines]
    if tail:
        out += [f"{tag}|{tail}", f"{tag}\\"]
    return out


def record(argv: list[str], inputs: Path) -> str:
    """Run one invocation in process; its record, without a trailing newline."""
    dirs = (inputs, Path(str(resources.files("ivbel").joinpath("data"))))

    def resolve(arg: str) -> str:
        if not arg.endswith(".json"):
            return arg
        return str(next((d / arg for d in dirs if (d / arg).exists()), inputs / arg))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([resolve(a) for a in argv])
        except SystemExit as exc:  # argparse usage error
            code = exc.code
            err = io.StringIO("".join(
                line for line in err.getvalue().splitlines(keepends=True) if ": error: " in line
            ))
    stdout, stderr = out.getvalue(), err.getvalue()
    for d in dirs:
        prefix = str(d) + "/"
        stdout, stderr = stdout.replace(prefix, ""), stderr.replace(prefix, "")
    lines = [f"### ivbel {' '.join(argv)}", f"exit {code}"]
    return "\n".join(lines + _stream("1", stdout) + _stream("2", stderr))


def render(inputs: Path) -> list[str]:
    """Every invocation's record, in grid order."""
    return [record(argv, inputs) for argv in invocations()]


def parse(text: str) -> list[str]:
    """Split a corpus file back into records."""
    parts = text.rstrip("\n").split("\n### ")
    return parts[:1] + ["### " + part for part in parts[1:]]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        records = render(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(records) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
