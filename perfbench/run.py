"""Benchmark of the burnside package: one workload per process.

    python3 perfbench/run.py --workload bn_structure --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run builds the workload's shared state from the seed (``setup_s``, the
median of several set-ups, each importing the package afresh), then
repeats the workload's fixed op list for ``--seconds``, timing every op.

Times are given at reference speed.  The machine may be shared, and its
speed drifts by tens of percent over seconds, for everything that runs on
it.  So a fixed pure-Python loop that calls nothing of the package, the
reference loop, is timed between ops, at least once per ``SEGMENT_S`` of op
time, and every ``SEGMENT_S`` during a set-up, and each time is scaled by
``REFERENCE_S`` over the mean of the two loop times around it: the time the
work would take where the loop takes ``REFERENCE_S``.  A drift of the
machine moves the loop as much as the op and cancels; a change to the
package moves the op alone.  The raw times are printed in the ``info``
line.

``wall_s`` is the time to solution for the op list, each op at its median
time over the passes, and ``op_p50_ms`` and ``op_p90_ms`` are taken over
the ops.  Where the op list has fewer than 100 ops, the passes are dealt
into as few windows as give 100 samples (pass p to window p mod the window
count, so that each window spans the whole run), one median time per op
and window, so that p90 has at least ten samples beyond it.  The
percentiles are Harrell-Davis estimates, which weigh every sample near the
percentile instead of the one or two at its rank, so that one op's noise
moves them less.

The first answer to each op goes through the workload's gates; later
answers must equal it.  A wrong answer or an exception counts as failed.

With ``--trace 1`` the run reports per-layer metrics instead: untraced and
traced passes alternate, the traced ones through timing wrappers installed
on the package's public functions (see spans.py), and the tracing overhead
is the traced ``wall_s`` minus the untraced one, next to the wrappers' own
cost (span calls per pass times the calibrated cost of one span).  Span
self times are scaled to reference speed by their pass's scale.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups per run, for the median.  The bn_structure set-up is little more
# than the package import, a few tens of milliseconds whose time jumps by a
# third from one import to the next, so it is repeated more.
SETUP_REPEATS = {"bn_structure": 15, "bn_queries": 3, "symbol_calculus": 3}
# enough latency samples that p90 has ten beyond it
MIN_SAMPLES = 100
# Seconds the reference loop takes at reference speed: about its median
# time on a shared 2-vCPU cloud VM with Python 3.11, so that times at
# reference speed read close to raw times there.
REFERENCE_S = 0.8e-3
# Seconds of work between two timings of the reference loop: op time in a
# pass, wall time in a set-up.  The loop adds about a twentieth.
SEGMENT_S = 0.02
# loop timings before and after the traced set-up, for their median
SETUP_PROBES = 5
MAX_REPORTED_FAILURES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, *_ in spans.SPANS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in spans.SIZE_COUNTS:
        units[name] = "count"
    for name in spans.SIZE_MAXIMA:
        units[name] = "bits"
    for name, *_ in spans.COUNTERS:
        units[name] = "count"
    units["trace.untraced_wall_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.wrapper_s"] = "s"
    units["trace.absent"] = "count"
    return units


# The reference loop's data, built before the package is imported.
REFERENCE_KEYS = tuple(range(1009))
REFERENCE_TABLE = {k: k * 7919 % 1009 for k in REFERENCE_KEYS}
REFERENCE_ROWS = [[i * j % 17 - 8 for j in range(30)] for i in range(30)]


def reference_loop() -> int:
    """Fixed work in the interpreter's common operations (integer
    arithmetic, dict lookup, list iteration), calling nothing of the
    package and keeping nothing it allocates, so that its time does not
    depend on the package's heap."""
    total = 0
    table, first = REFERENCE_TABLE, REFERENCE_ROWS[0]
    for _ in range(6):
        for k in REFERENCE_KEYS:
            total += table[k] * k % 13
    for _ in range(2):
        for row in REFERENCE_ROWS:
            total += sum(a * b for a, b in zip(row, first))
    return total


def reference_time() -> float:
    """Seconds of one reference loop, with the collector off so that no
    collection of the package's heap lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe_time() -> float:
    return statistics.median(reference_time() for _ in range(SETUP_PROBES))


def scaled_call(fn):
    """Call ``fn()`` with the reference loop timed every ``SEGMENT_S``
    from a timer signal, which runs in this thread between bytecodes.
    Returns the result, the call's raw seconds and its seconds at reference
    speed: each part between two loop timings is scaled by their mean, and
    the loops' own time is left out of both."""
    marks = []  # (start, seconds) of each loop timing
    busy = False

    def probe(*_):
        nonlocal busy
        if not busy:
            busy = True
            marks.append((perf_counter(), reference_time()))
            busy = False

    previous = signal.signal(signal.SIGALRM, probe)
    probe()
    signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    probe()
    raw = scaled = 0.0
    for (t0, loop0), (t1, loop1) in zip(marks, marks[1:]):
        part = t1 - (t0 + loop0)
        raw += part
        scaled += part * REFERENCE_S / ((loop0 + loop1) / 2)
    return result, raw, scaled


class MissingPackage(Exception):
    pass


def load_package() -> SimpleNamespace:
    """Import the package afresh, dropping any earlier import of it."""
    if not (SRC / "burnside" / "__init__.py").is_file():
        raise MissingPackage(f"no burnside package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "burnside" or m.startswith("burnside.")]:
        del sys.modules[name]
    names = ("abelian", "bng", "cli", "groups", "relations", "symbols", "zlinalg")
    return SimpleNamespace(**{n: importlib.import_module("burnside." + n) for n in names})


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(f"{what}: {error}")


class Runner:
    """Runs passes over an op list, timing each op and checking its answer."""

    def __init__(self, ops, tally, tracer=None):
        self.ops = ops
        self.tally = tally
        self.tracer = tracer
        self.reference = [None] * len(ops)
        self.digests: list[str] = []
        # per pass: raw seconds, and its time at reference speed over them
        self.raw_s: list[float] = []
        self.scales: list[float] = []
        # every reference loop time
        self.loop_s: list[float] = []

    def run_pass(self) -> list[float]:
        """One pass over the op list; returns the time of each op at
        reference speed."""
        gc.collect()
        tracer = self.tracer
        digest = hashlib.sha256()
        times = []
        before = reference_time()
        self.loop_s.append(before)
        first, segment = 0, 0.0
        raw = 0.0
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                answer, error = op.run(), None
            except Exception as exc:  # an op that raises counts as failed
                answer, error = None, f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                error = self._check(k, op, answer, digest)
            self.tally.record(op.desc, error)
            segment += times[k]
            if segment >= SEGMENT_S or k == len(self.ops) - 1:
                after = reference_time()
                self.loop_s.append(after)
                scale = REFERENCE_S / ((before + after) / 2)
                times[first:] = [t * scale for t in times[first:]]
                raw += segment
                before, first, segment = after, k + 1, 0.0
        self.digests.append(digest.hexdigest())
        self.raw_s.append(raw)
        self.scales.append(sum(times) / raw)
        return times

    def _check(self, k, op, answer, digest):
        try:
            data = op.canonical(answer)
            digest.update(json.dumps(data, sort_keys=True).encode())
            if self.reference[k] is None:
                self.reference[k] = data
                return op.check(answer)
        except Exception as exc:  # a gate that cannot evaluate the answer
            return f"gate raised {type(exc).__name__}: {exc}"
        if data != self.reference[k]:
            return "answer differs from the first pass"
        return None


def windows_needed(n_ops: int) -> int:
    return math.ceil(MIN_SAMPLES / n_ops)


def op_list_wall(passes: list[list[float]]) -> float:
    """Time to solution for the op list, each op at its median time."""
    return sum(statistics.median(times) for times in zip(*passes))


def latency_samples(passes: list[list[float]]) -> list[float]:
    """Median time of each op in each window, pass p going to window p mod
    the window count."""
    n_ops = len(passes[0])
    count = min(len(passes), windows_needed(n_ops))
    return [
        statistics.median(passes[p][k] for p in range(w, len(passes), count))
        for w in range(count)
        for k in range(n_ops)
    ]


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each one's
    share of [0, 1], integrated by the midpoint rule."""
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(
            sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) for t in ts)
        )
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure(setup, repeats: int, seed: int, seconds: float, tally: Tally) -> tuple[dict, Runner]:
    setup_times = []
    built = None
    raw_setup = []
    for _ in range(repeats):
        built = None
        gc.collect()
        built, raw, scaled = scaled_call(lambda: setup(seed, load_package()))
        raw_setup.append(raw)
        setup_times.append(scaled)
    for what, error in built.checks:
        tally.record(what, error)
    runner = Runner(built.ops, tally)
    passes: list[list[float]] = []
    start = perf_counter()
    while len(passes) < windows_needed(len(built.ops)) or perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = latency_samples(passes)
    p90 = quantile(samples, 0.9)
    info = {
        "ops": len(built.ops),
        "passes": len(passes),
        "raw_pass_s_median": statistics.median(runner.raw_s),
        "raw_setup_s_median": statistics.median(raw_setup),
        "reference_loop_ms_median": statistics.median(runner.loop_s) * 1e3,
        "samples": len(samples),
        "beyond_p90": sum(1 for s in samples if s > p90),
        "setup_runs": setup_times,
    }
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": op_list_wall(passes),
        "op_p50_ms": quantile(samples, 0.5) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mib": peak_kib / 1024,
    }
    return {"metrics": metrics, "info": info}, runner


def traced(tracer, counters, fn, *args):
    tracer.install(counters)
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def measure_traced(setup, seed: int, seconds: float, tally: Tally) -> tuple[dict, Runner]:
    """Per layer: the traced set-up plus one traced pass.  Spans and counts
    are taken in separate passes, so counting adds nothing to span times."""
    pkg = load_package()
    tracer = spans.Tracer()
    before = probe_time()
    t0 = perf_counter()
    built = traced(tracer, False, setup, seed, pkg)
    setup_raw = perf_counter() - t0
    setup_scale = REFERENCE_S / ((before + probe_time()) / 2)
    setup_calls, setup_self = tracer.take_pass()
    traced(tracer, True, setup, seed, pkg)
    setup_counts, setup_maxima = tracer.take_counts()
    for what, error in built.checks:
        tally.record(what, error)
    plain = Runner(built.ops, tally)
    spanned = Runner(built.ops, tally, tracer)
    spanned.reference = plain.reference
    untraced_passes, traced_passes, traces = [], [], []
    start = perf_counter()
    while not traced_passes or perf_counter() - start < seconds:
        untraced_passes.append(plain.run_pass())
        traced_passes.append(traced(tracer, False, spanned.run_pass))
        traces.append(tracer.take_pass())
    traced(tracer, True, spanned.run_pass)
    pass_counts, pass_maxima = tracer.take_counts()
    # Calls from the first traced pass (every pass runs the same ops on warm
    # caches); self times are the median over traced passes, each at
    # reference speed by its pass's scale.
    first_calls = traces[0][0]
    metrics = {}
    for name, *_ in spans.SPANS:
        metrics[name + ".calls"] = setup_calls[name] + first_calls[name]
        metrics[name + ".self_s"] = setup_self[name] * setup_scale + statistics.median(
            r[1][name] * scale for r, scale in zip(traces, spanned.scales)
        )
    for name in spans.SIZE_COUNTS:
        metrics[name] = setup_counts[name] + pass_counts[name]
    for name in spans.SIZE_MAXIMA:
        metrics[name] = max(setup_maxima.get(name, 0), pass_maxima.get(name, 0))
    for name, *_ in spans.COUNTERS:
        metrics[name] = setup_counts[name] + pass_counts[name]
    metrics["trace.untraced_wall_s"] = op_list_wall(untraced_passes)
    metrics["trace.traced_wall_s"] = op_list_wall(traced_passes)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    # The wrappers' own cost per pass, next to the wall-time difference,
    # which also holds the cost of keeping the spans and run-to-run noise.
    metrics["trace.wrapper_s"] = sum(first_calls.values()) * tracer.span_cost()
    metrics["trace.absent"] = len(tracer.absent)
    info = {
        "ops": len(built.ops),
        "passes": len(untraced_passes) + len(traced_passes) + 1,
        "traced_passes": len(traced_passes),
        "calls_vary": any(r[0] != first_calls for r in traces),
        "raw_setup_s": setup_raw,
        "absent": sorted(tracer.absent),
    }
    return {"metrics": metrics, "info": info}, plain


def report(workload_name, seed, trace, result, runner, tally) -> int:
    info = result["info"]
    units = per_layer_units() if trace else dict(END_TO_END)
    print(f"workload {workload_name} seed {seed} trace {int(trace)}")
    print("info " + json.dumps(info, sort_keys=True))
    print(f"digest {runner.digests[0]}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    error_rate = tally.failed / tally.attempted
    print(f"error_rate {error_rate:.6g} ({tally.failed} failed of {tally.attempted} attempted)")
    for message in tally.messages:
        print(f"failure {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    setup = WORKLOADS[args.workload]
    tally = Tally()
    try:
        if args.trace:
            result, runner = measure_traced(setup, args.seed, args.seconds, tally)
        else:
            result, runner = measure(
                setup, SETUP_REPEATS[args.workload], args.seed, args.seconds, tally
            )
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report(args.workload, args.seed, args.trace, result, runner, tally)


if __name__ == "__main__":
    sys.exit(main())
