"""End-to-end benchmark of the ECO-CHIP reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload grid-jsonl --seed 0 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 0 --seconds 25

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The end-to-end times are scaled to a
reference machine speed measured by a calibration loop between calls (the
``_ref`` metrics); the raw wall-clock figures are printed beside them.
Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--workload all`` each
workload runs in its own process (so peak RSS belongs to that workload)
and the last line maps workload names to their results.  See ``README.md`` next to this file for what each workload and
metric is for.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".e2ebench-work"
NAMES = ("grid-jsonl", "resume-tail", "search-refine", "serve-mixed")
#: Set-up runs per benchmark run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s_ref": "1/s",
    "call_ms_p50_ref": "ms",
    "call_ms_p90_ref": "ms",
    "cpu_ms_per_kscen_ref": "ms",
    "peak_rss_mb": "MB",
    "best_score": "score",
}
#: Raw wall-clock and CPU figures, printed for reading but not gated: the
#: shared host's CPU speed drifts too far between runs for a bound on them.
#: ``setup_s`` is scaled like the ``_ref`` metrics but keeps its name.
RAW = {
    "setup_s_raw": "s",
    "scenarios_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "cpu_ms_per_kscen": "ms",
    "speed_factor": "x",
}
PER_LAYER = {
    "store.append_ms": "ms",
    "store.rows_written": "count",
    "store.bytes_written": "B",
    "store.read_ms": "ms",
    "store.rows_read": "count",
    "compiled.compile_ms": "ms",
    "compiled.templates": "count",
    "compiled.hit_ratio": "ratio",
    "batch.evaluate_ms": "ms",
    "batch.evaluated": "count",
    "batch.group_ms": "ms",
    "batch.groups": "count",
    "spec.expand_ms": "ms",
    "spec.scenarios": "count",
    "engine.self_ms": "ms",
    "engine.runs": "count",
    "explorer.pareto_ms": "ms",
    "explorer.pareto_points": "count",
    "explorer.front_size": "count",
    "search.self_ms": "ms",
    "search.decode_ms": "ms",
    "search.rounds": "count",
    "search.evaluations": "count",
    "cli.self_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.results_ms": "ms",
    "serve.polls": "count",
    "serve.bytes_streamed": "B",
    "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms",
    "serve.result_cache_hit_ratio": "ratio",
    "serve.template_hit_ratio": "ratio",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}
#: Per-layer times: metric -> the span names whose self time it sums.
SPAN_TIMES = {
    "store.append_ms": ("store.append",),
    "store.read_ms": ("store.read",),
    "compiled.compile_ms": ("compiled.compile",),
    "batch.evaluate_ms": ("batch.evaluate",),
    "batch.group_ms": ("batch.group",),
    "spec.expand_ms": ("spec.expand",),
    "engine.self_ms": ("engine",),
    "explorer.pareto_ms": ("explorer.pareto",),
    "search.self_ms": ("search",),
    "search.decode_ms": ("search.decode",),
    "cli.self_ms": ("cli",),
    "serve.submit_ms": ("serve.submit",),
    "serve.wait_ms": ("serve.wait",),
    "serve.results_ms": ("serve.results",),
}
#: Per-layer counts read straight from the per-call counters.
COUNTERS = (
    "store.rows_written", "store.bytes_written", "store.rows_read", "batch.evaluated",
    "batch.groups", "spec.scenarios", "engine.runs", "explorer.pareto_points",
    "explorer.front_size", "search.rounds", "search.evaluations", "serve.polls",
    "serve.bytes_streamed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------
#: What one ``calibrate()`` takes at the reference speed.  A ``_ref`` metric
#: is the figure the run would have shown had the loop taken exactly this
#: long around every call.
CALIB_REF_S = 0.010
#: Calls shorter than this share one calibration (serve requests take tens
#: of milliseconds); longer calls each get their own.
CALIB_EVERY_S = 0.2
_CALIB_ARRAY = None


def calibrate():
    """Seconds one fixed slice of work takes on this machine right now.

    The slice mixes the two kinds of work the program does: building and
    encoding small records in the interpreter, and NumPy passes over
    arrays.  It does not touch the program, so a change to the program
    leaves it alone, while a change in the host's CPU speed moves it with
    the calls.
    """
    global _CALIB_ARRAY
    import numpy

    if _CALIB_ARRAY is None:
        _CALIB_ARRAY = numpy.linspace(1.0, 2.0, 16384)
    start = time.perf_counter()
    total = 0.0
    for i in range(1200):
        record = {"scenario": i, "carbon": i * 1.5, "label": str(i), "nodes": [i, 7]}
        total += len(json.dumps(record, sort_keys=True))
    for _ in range(24):
        total += float(numpy.sort(numpy.sqrt(_CALIB_ARRAY * 1.0001 + 3.0)[::-1]).sum())
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------
class Call:
    __slots__ = ("wall_s", "cpu_s", "rows", "ok", "scale")

    def __init__(self, wall_s, cpu_s, rows, ok):
        self.wall_s, self.cpu_s, self.rows, self.ok = wall_s, cpu_s, rows, ok
        #: ``CALIB_REF_S`` over the calibration time measured around the call.
        self.scale = 1.0


def cpu_now():
    times = os.times()
    return times.user + times.system


def timed_loop(workload, seconds, tracer=None, on_call=None):
    """Closed loop of user-level calls until ``seconds`` have passed.

    Only the call itself is timed; the output check (which also restores
    state for the next call) runs outside the timed span.  A calibration
    runs before the first call and after every ``CALIB_EVERY_S`` of calls;
    each call is scaled by the mean of the two calibrations around it.
    """
    calls = []
    pending = []
    calib_before = calibrate()
    since_calib = 0.0

    def settle():
        nonlocal calib_before, since_calib
        calib_after = calibrate()
        scale = CALIB_REF_S / ((calib_before + calib_after) / 2.0)
        for call in pending:
            call.scale = scale
        pending.clear()
        calib_before, since_calib = calib_after, 0.0

    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.begin_call()
        cpu0 = cpu_now()
        start = time.perf_counter()
        outcome = workload.call()
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu0
        if tracer is not None:
            summary = tracer.end_call()
            on_call(summary)
        ok = workload.check(outcome) and outcome.ok
        calls.append(Call(wall, cpu, outcome.rows if ok else 0, ok))
        pending.append(calls[-1])
        since_calib += wall
        if since_calib >= CALIB_EVERY_S:
            settle()
    if pending:
        settle()
    return calls


def end_to_end(workload, calls, helper_cpu_s, setup_s):
    """The gated ``_ref`` metrics and the raw figures they are scaled from."""
    rows = sum(call.rows for call in calls)
    # A run that delivered nothing has failed calls; keep the JSON finite.
    kscen = max(rows, 1) / 1000.0
    metrics = {"setup_s": setup_s}
    for suffix, scale_of in (("", lambda call: 1.0), ("_ref", lambda call: call.scale)):
        walls = [call.wall_s * scale_of(call) for call in calls]
        cpu_s = sum(call.cpu_s * scale_of(call) for call in calls)
        # The server's CPU is read once for the whole loop.
        cpu_s += helper_cpu_s * p50([scale_of(call) for call in calls])
        metrics["scenarios_per_s" + suffix] = rows / sum(walls)
        metrics["call_ms_p50" + suffix] = 1000.0 * p50(walls)
        metrics["call_ms_p90" + suffix] = 1000.0 * p90(walls)
        metrics["cpu_ms_per_kscen" + suffix] = 1000.0 * cpu_s / kscen
    metrics["speed_factor"] = p50([call.scale for call in calls])
    metrics["peak_rss_mb"] = workload.peak_rss_mb()
    metrics["best_score"] = workload.best_score
    return metrics


def per_layer(summaries, untraced_p50_s, serve_delta):
    """Median over traced calls of each layer figure."""
    rows = []
    for summary in summaries:
        wall_ns = summary["wall_ns"]
        self_ns = summary["self_ns"]
        counters = summary["counters"]
        row = {
            metric: sum(self_ns.get(name, 0) for name in names) / 1e6
            for metric, names in SPAN_TIMES.items()
        }
        for name in COUNTERS:
            row[name] = counters.get(name, 0)
        stats = summary.get("compile_stats", {})
        lookups = stats.get("template_hits", 0) + stats.get("template_misses", 0)
        row["compiled.templates"] = stats.get("compiles", 0)
        row["compiled.hit_ratio"] = stats.get("template_hits", 0) / lookups if lookups else 0.0
        covered = sum(self_ns.values()) - self_ns.get("call", 0)
        row["trace.coverage_pct"] = 100.0 * covered / wall_ns
        rows.append(row)
    metrics = {name: p50([row[name] for row in rows]) for name in rows[0]}
    metrics.update(serve_delta)
    traced_p50_s = p50([summary["wall_ns"] / 1e9 for summary in summaries])
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50_s / untraced_p50_s - 1.0)
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return metrics


def serve_metrics_delta(before, after):
    """Server-side per-layer figures from two ``/v1/metrics`` snapshots."""

    def latency_ms(stage):
        b = before["latency"].get(stage, {"count": 0, "total_s": 0.0})
        a = after["latency"].get(stage, {"count": 0, "total_s": 0.0})
        count = a["count"] - b["count"]
        return 1000.0 * (a["total_s"] - b["total_s"]) / count if count else 0.0

    def ratio(section, hit, miss):
        hits = after[section][hit] - before[section][hit]
        misses = after[section][miss] - before[section][miss]
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "serve.queue_wait_ms": latency_ms("queue_wait"),
        "serve.run_ms": latency_ms("run"),
        "serve.result_cache_hit_ratio": ratio("result_cache", "hits", "misses"),
        "serve.template_hit_ratio": ratio("template_cache", "template_hits", "template_misses"),
    }


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------
def pin_to_one_cpu():
    """Keep this process, and the server it starts, on one CPU.

    The vCPUs of a shared host change speed independently of each other,
    so the calibration only tracks the calls if both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args):
    os.environ.pop("ECO_CHIP_COMPILE_CACHE", None)
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    tracer = tracing.Tracer() if args.trace else None
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        # The imports are scaled by the calibration that follows them, each
        # set-up like a call by the two around it.
        calibs = [calibrate()]
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            calibs.append(calibrate())
        setup_raw_s = import_s + p50(setup_times)
        setup_s = import_s * CALIB_REF_S / calibs[0] + p50([
            seconds * CALIB_REF_S / ((before + after) / 2.0)
            for seconds, before, after in zip(setup_times, calibs, calibs[1:])
        ])

        if not args.trace:
            helper0 = workload.helper_cpu_s()
            calls = timed_loop(workload, args.seconds)
            helper_cpu_s = workload.helper_cpu_s() - helper0
            metrics = end_to_end(workload, calls, helper_cpu_s, setup_s)
            metrics["setup_s_raw"] = setup_raw_s
        else:
            # Untraced and traced calls alternate, so the machine's speed
            # drift hits both sides of trace.overhead_pct alike.
            serve = args.workload == "serve-mixed"
            before = workload.metrics() if serve else None

            def on_call(summary):
                summary["compile_stats"] = tracing.compile_stats(tracer)

            baseline, traced = [], []
            deadline = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < deadline:
                baseline += timed_loop(workload, 0)
                patches = tracing.install(tracer)
                workload.tracer = tracer
                try:
                    traced += timed_loop(workload, 0, tracer, on_call)
                finally:
                    workload.tracer = tracing.NullTracer()
                    patches.restore()
            serve_delta = serve_metrics_delta(before, workload.metrics()) if serve else {}
            calls = baseline + traced
            metrics = per_layer(tracer.calls, p50([c.wall_s for c in baseline]), serve_delta)
        failed_calls = sum(not call.ok for call in calls) + workload.finish()
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")

    attempted = len(calls) + workload.oracle_checked
    failed = failed_calls + workload.oracle_failed
    units = PER_LAYER if args.trace else END_TO_END
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(calls)} calls, "
        f"set-up {SETUP_REPEATS}x (median), {workload.oracle_checked} oracle samples"
    )
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print("  raw, not gated:")
        for name, unit in RAW.items():
            print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<30} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in its own process; exit 1 if any fails."""
    results = {}
    status = 0
    for name in NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, flush=True)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
