"""One benchmark worker process: set up a workload, then run it.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``: set up and report ``setup_s`` only (extra set-up samples);
* ``timed``: set up, then run whole passes of the op list, tracing off;
* ``trace``: set up, run the op list traced between two untraced passes,
  and report the per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
from ops import OpError, WrongAnswer

ROOT = Path(__file__).resolve().parent.parent

# Each timed run makes at least this many attempts, in at least this many
# passes over the op list (so every op has a best of two or more).
MIN_OPS = 100
MIN_PASSES = 2


def build(workload: str, seed: int, spawned: bool):
    """The untimed warm-up op, and a function that makes the op list of one
    pass.  Each call of it builds the inputs afresh from the generated data,
    so no state tied to an object carries from set-up or from an earlier
    pass into a timed op."""
    sys.path.insert(0, str(ROOT / "src"))
    if workload == "cli-bundled":
        import cli_bundled

        warmup, ops = cli_bundled.cli_bundled(seed, ROOT / "src", spawned)
        return warmup, lambda: ops
    import library

    make_pass = library.WORKLOADS[workload](seed)
    return make_pass()[0], make_pass


class Judge:
    """Runs ops and classifies each outcome: ok, failed (raised, exited or
    answered wrongly) and, among the failed, unexpected: every failure but
    an :class:`OpError` that carries the op's documented ``known`` message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self._reported: set[str] = set()

    def run(self, ops, tracer=None) -> list[float]:
        """One pass; returns per-op latencies in seconds.  Checks run
        outside the timed region and outside any span."""
        latencies = []
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
                tracer.on = True
            error = None
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.on = False
            latencies.append(elapsed)
            self.attempted += 1
            if error is None:
                try:
                    op.check(out)
                except (WrongAnswer, OpError) as exc:
                    error = exc
            if error is not None:
                self.failed += 1
                known = op.known is not None and op.known in str(error)
                if not (known and isinstance(error, OpError)):
                    self.unexpected += 1
                self._report(op.label, error)
        return latencies

    def _report(self, label: str, error: Exception) -> None:
        if label not in self._reported:
            self._reported.add(label)
            print(f"op failed: {label}: {type(error).__name__}: {error}", file=sys.stderr)


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    warmup, make_pass = build(args.workload, args.seed, spawned=args.mode != "trace")
    Judge().run([warmup])
    judge = Judge()
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}

    if args.mode == "timed":
        started = time.monotonic()
        passes: list[list[float]] = []
        while True:
            ops = make_pass()
            pass_start = time.monotonic()
            passes.append(judge.run(ops))
            now = time.monotonic()
            # Stop when another pass of the same length would overrun.
            done = len(passes) >= MIN_PASSES and len(passes) * len(ops) >= MIN_OPS
            if done and now - started + (now - pass_start) > args.seconds:
                break
        # Each op at its best over the passes: the machine this runs on
        # alternates between a fast and a ~1.5x slower state for seconds at
        # a time, which moves medians of raw samples by tens of percent.
        best = [min(per_op) for per_op in zip(*passes)]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-bundled" else resource.RUSAGE_SELF
        result.update(
            passes=len(passes),
            ops_per_pass=len(ops),
            wall_s=sum(best),
            op_p50_ms=statistics.median(best) * 1000.0,
            op_p90_ms=_percentile(best, 90) * 1000.0,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        )
    elif args.mode == "trace":
        # Untraced passes before and after the traced one; the faster counts.
        untraced = sum(judge.run(make_pass()))
        judge = Judge()
        ops = make_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = sum(judge.run(ops, tracer))
        finally:
            tracer.uninstall()
        untraced = min(untraced, sum(Judge().run(make_pass())))
        missing = tracer.missing(args.workload)
        if missing:
            print(f"trace incomplete on {args.workload}: no spans for {', '.join(missing)}",
                  file=sys.stderr)
            return 3
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        result["metrics"] = metrics
        if args.spans is not None:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})

    result.update(attempted=judge.attempted, failed=judge.failed, unexpected=judge.unexpected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
