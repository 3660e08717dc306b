"""Benchmark of the seqconvex package.

    python3 perfbench/run.py --workload cli-reports --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer ones (see README.md in this directory).  The last
line of standard output is one JSON object; the lines before it are a
readable summary.  ``--workload all`` runs every workload, each in its own
process, and prints one summary per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("cli-reports", "long-series", "verify-sweep")

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up).
SETUP_SPAWNS = 9

#: A latency percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

#: ``peak_rss_mb`` is read once this many operations and a whole unit are
#: done (or at the end of a shorter run).  On short inputs the high-water mark
#: keeps creeping up for about a thousand operations, so reading it at the end
#: would make a faster program look larger.
RSS_OPS = 200

#: Operation time (s) between two samples of the reference kernel.
PACE_EVERY = 0.02

#: Reference-kernel samples before each timed interpreter start.
SETUP_SAMPLES = 4


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(pace) -> tuple[float, float]:
    """Median wall time, scaled and unscaled, of a fresh interpreter importing
    the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import seqconvex, seqconvex.cli"]
    spawns = []
    for k in range(SETUP_SPAWNS + 1):
        for _ in range(SETUP_SAMPLES):
            pace.sample()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if k:
            spawns.append((start, time.perf_counter()))
    pace.close()
    return (
        statistics.median(pace.scaled(start, end) for start, end in spawns),
        statistics.median(end - start for start, end in spawns),
    )


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Measured:
    """What ``measure`` saw: one ``Execution`` per operation run, in order."""

    executions: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    rss: float | None = None


@dataclasses.dataclass
class Execution:
    unit: int
    op: object
    seconds: float  # wall time, reference-kernel samples taken out
    start: float  # perf_counter readings around the operation
    end: float


def measure(workload, units, seconds: float, tracer=None, pace=None) -> Measured:
    """Closed loop, one client: whole units until ``seconds`` of operation time.

    With ``pace`` the reference kernel is sampled after every ``PACE_EVERY``
    seconds of operation time (and by the workload itself inside long
    operations); the time spent in it is taken out of the operation.
    Peak resident memory is read after ``RSS_OPS`` executions.
    """
    got = Measured()
    total = since_sample = 0.0
    for n, unit in enumerate(units):
        for op in unit:
            args = workload.prepare(op)
            if tracer:
                tracer.mode = "time"
            spent = pace.spent if pace else 0.0
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    out = workload.execute(args)
                except Exception as exc:  # an unexpected raise is a failed operation
                    out = exc
                end = time.perf_counter()
            if tracer:
                tracer.mode = None
            elapsed = end - start
            if pace:
                elapsed -= pace.spent - spent
                since_sample += elapsed
                if since_sample >= PACE_EVERY:
                    pace.sample()
                    since_sample = 0.0
            total += elapsed
            got.executions.append(Execution(n, op, elapsed, start, end))
            if isinstance(out, Exception):
                errors = [f"raised {out!r}"]
            else:
                try:
                    errors = workload.check(op, out)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    errors = [f"output lacks an expected field: {exc!r}"]
            got.failures.extend(errors[:1])
        if got.rss is None and len(got.executions) >= RSS_OPS:
            got.rss = max_rss_mb()
        if total >= seconds:
            if pace:
                pace.close()
            if got.rss is None:
                got.rss = max_rss_mb()
            return got


def end_to_end(got: Measured, pace) -> tuple[dict, dict]:
    """Scaled throughput and latencies, from each distinct operation's median.

    The first unit is a warm-up when there are more.
    """
    kept = [e for e in got.executions if e.unit > 0] or got.executions
    per_op = {}
    for e in kept:
        per_op.setdefault(e.op, []).append(pace.scaled(e.start, e.end))
    per_op = [statistics.median(ts) for ts in per_op.values()]
    metrics = {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
    }
    extra = {}
    if len(per_op) >= P90_MIN_SAMPLES:
        extra["op_p90_ms"] = (statistics.quantiles(per_op, n=10)[-1] * 1e3, "ms")
    raw = [e.seconds for e in kept]
    extra["raw_ops_per_s"] = (len(raw) / sum(raw), "1/s, unscaled")
    extra["pace_factor"] = (statistics.median(pace.samples) / pace.nominal, "x nominal kernel time")
    return metrics, extra


def memory_pass(workload, units, tracer) -> None:
    """One unit with ``tracemalloc`` peaks recorded inside the memory spans."""
    for op in next(units):
        args = workload.prepare(op)
        tracer.mode = "memory"
        try:
            workload.execute(args)
        finally:
            tracer.mode = None


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; return the result object and print a summary."""
    if not os.path.isfile(os.path.join(SRC, "seqconvex", "__init__.py")):
        fail(f"no package source at {SRC}; run from the root of a seqconvex checkout")
    sys.path[:0] = [SRC, ROOT]
    from perfbench import pace as pacing
    from perfbench import trace, workloads

    setup_s, raw_setup_s = (None, None) if traced else measure_setup(pacing.Pace("interpreter"))
    workdir = os.path.join(WORK, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = trace.Tracer()
        workload = workloads.WORKLOADS[name](seed, workdir, tracer)
        units = workload.units()
        if not traced:
            pace = pacing.Pace(workload.pace_kernel, workload.pace_window)
            workload.pace = pace
            got = measure(workload, units, seconds, pace=pace)
            workload.pace = None
            failures, attempted = got.failures, len(got.executions)
            metrics, extra = end_to_end(got, pace)
            metrics = {"setup_s": (setup_s, "s"), **metrics, "peak_rss_mb": (got.rss, "MB")}
            extra["raw_setup_s"] = (raw_setup_s, "s, unscaled")
        else:
            # Every unit runs untraced and traced, in turns of which goes
            # first, so both sides of trace.overhead_pct run the same
            # operations and drift in the speed of the machine hits them alike.
            attempted = {False: 0, True: 0}
            scaled = {False: {}, True: {}}
            failures = []
            pace = workload.pace = pacing.Pace(workload.pace_kernel, workload.pace_window)
            elapsed = 0.0
            order = (False, True)
            while elapsed < seconds:
                unit = list(next(units))
                order = order[::-1]
                for traced_unit in order:
                    if traced_unit:
                        tracer.install()
                    try:
                        got = measure(workload, iter([unit]), 0.0, tracer if traced_unit else None, pace)
                    finally:
                        tracer.uninstall()
                    attempted[traced_unit] += len(got.executions)
                    elapsed += sum(e.seconds for e in got.executions)
                    failures += got.failures
                    for e in got.executions:
                        scaled[traced_unit].setdefault(e.op, []).append(pace.scaled(e.start, e.end))
            workload.pace = None
            tracer.install()
            try:
                memory_pass(workload, units, tracer)
            finally:
                tracer.uninstall()
            layer = trace.layer_metrics(tracer, attempted[True])
            attempted = attempted[False] + attempted[True]
            per_op = {side: sum(map(statistics.median, ts.values())) for side, ts in scaled.items()}
            layer["trace.overhead_pct"] = 100.0 * (per_op[True] / per_op[False] - 1.0)
            layer.update(trace.scaling_probe(seed))
            metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
            extra = {}
            tracer.write(os.path.join(WORK, f"trace-{name}-seed{seed}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    extra["error_rate"] = (len(failures) / attempted, f"{len(failures)}/{attempted}")
    _summary(name, seed, metrics, extra, failures, attempted)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/op"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_slope"):
        return "1"
    if metric == "cli.report_bytes":
        return "B/op"
    return "count/op"


def _summary(name, seed, metrics, extra, failures, attempted) -> None:
    print(f"# {name} seed={seed} operations={attempted}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"#   {key:40s} {value:14.6g} {unit}")
    for message in failures[:5]:
        print(f"#   FAILED: {message}")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process (peak memory is per process)."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one process, no extra threads: set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
