"""Benchmark of the ``ivbel`` package.

Run from the root of a source tree:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see bench/README.md for why each exists):

  cli-bundled     the ``ivbel`` command on the bundled files, one process per op
  entropy-ladder  exact entropy bounds on normalized bodies, n = 8, 9, 10
  combine-ladder  every combination engine on fresh bodies, k = 2..6 (not in
                  BENCHMARK.json: its timings are not steady enough to gate)
  wide-poly       the polynomial paths on raw bodies, n = 16, 24, 31

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` a separate traced run prints the per-layer metrics.
Each workload is a closed loop with one client: one op at a time, each
started when the previous one has returned.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the machine and the tree measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

WORKLOADS = ("cli-bundled", "entropy-ladder", "combine-ladder", "wide-poly")
# setup_s is the median over this many worker set-ups in one run.
SETUP_SAMPLES = 5
# Fresh interpreters started per start-up probe; the median is reported.
STARTUP_REPEATS = 5
# Hard limit of one run, inside the 180 s a run may take.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    """The environment of every child: the tree under test on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _worker(args, mode: str, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds), *extra,
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # A session of its own, so a timeout also stops the CLI processes it runs.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env(), start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} worker exceeded the run limit of {RUN_LIMIT_S:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _wall_ms(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *argv], env=_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
    )
    return (time.perf_counter() - start) * 1000.0


def _numpy_share_ms() -> float:
    """Cumulative ``numpy`` import time inside ``import ivbel`` (-X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ivbel"],
        env=_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
    )
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[2] == "numpy":
            return int(fields[1]) / 1000.0
    return 0.0


def interpreter_ms() -> float:
    """Median wall time of a bare interpreter start (``python -c pass``)."""
    return statistics.median(_wall_ms(["-c", "pass"]) for _ in range(STARTUP_REPEATS))


def startup() -> dict[str, tuple[float, str]]:
    """Start-up costs, each from fresh processes measured from outside."""
    bare, imported, numpy_ms = [], [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(_wall_ms(["-c", "pass"]))
        imported.append(_wall_ms(["-c", "import ivbel"]))
        numpy_ms.append(_numpy_share_ms())
    base = statistics.median(bare)
    return {
        "startup.interpreter_ms": (base, "ms"),
        "startup.import_ms": (statistics.median(imported) - base, "ms"),
        "startup.numpy_import_ms": (statistics.median(numpy_ms), "ms"),
    }


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside
    a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Digest of the package sources, naming the tree when there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ivbel").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args, bare_ms: float) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "startup.interpreter_ms": bare_ms,
    }


def timed(args, deadline: float) -> dict:
    setups = [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = _worker(args, "timed", deadline)
    setups.append(main["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (main["wall_s"], "s"),
        "op_p50_ms": (main["op_p50_ms"], "ms"),
        "op_p90_ms": (main["op_p90_ms"], "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    return {"outcome": main, "metrics": metrics}


def traced(args, deadline: float) -> dict:
    spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    out = _worker(args, "trace", deadline, "--spans", str(spans))
    metrics = {name: tuple(v) for name, v in out["metrics"].items()}
    metrics["fail_ratio"] = (out["failed"] / out["attempted"], "ratio")
    metrics.update(startup())
    return {"outcome": out, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (timed runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ivbel" / "__init__.py").is_file():
        print(f"error: no ivbel package under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            run = traced(args, deadline)
            bare_ms = run["metrics"]["startup.interpreter_ms"][0]
        else:
            run = timed(args, deadline)
            bare_ms = interpreter_ms()
        meta = run_metadata(args, bare_ms)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outcome = run["outcome"]
    meta.update({k: outcome[k] for k in ("passes", "ops_per_pass") if k in outcome})
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": outcome["unexpected"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
