"""toricgm benchmark runner.

    python3 perfbench/run.py --workload markov_bases --seed 1 --seconds 30 --trace 0

Workloads: markov_bases, classify_stream, mle_fits (or `all`, which runs
the three in turn).  One caller in one process sends operations in a
closed loop: the next request goes out when the previous one returns.

A run sets the workload up several times (set-up time is the median),
then runs whole rounds of operations until their busy time reaches
--seconds.  Times are scaled to a reference host speed measured between
operations (see speed.py); wall times are printed beside them.  Every
answer is checked; a wrong answer aborts the run with exit code 1 and no
result line.  Operations ending in NotTriangular,
BudgetExceeded or ArithmeticError are counted as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every operation
twice in a row, untraced and then with the per-layer wrappers installed,
until the untraced busy time reaches half of --seconds, and prints the
per-layer metrics of the traced runs plus the tracing overhead (median
over operations of traced over untraced time, minus one).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from speed import WINDOW, SpeedTrack
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Set-ups per run: at least SETUP_MIN, then more (up to SETUP_MAX) until
# they have taken SETUP_BUDGET_S, so that a short set-up has a steady median.
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 2.0
WORKLOAD_NAMES = ("markov_bases", "classify_stream", "mle_fits")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    """Outcome of a sequence of operations."""

    def __init__(self):
        self.attempted = 0
        self.busy = 0.0
        self.times = []        # elapsed time of every operation, in order
        self.spans = []        # (start, elapsed) of completed operations
        self.failures = Counter()
        self.kinds = Counter()
        self.kind_busy = Counter()
        self.keys = set()
        self.keyed = 0
        self.repeats = 0


def run_op(workload, op, tally, failures, track, tracer=None):
    """Run one operation (traced if a tracer is given), record its outcome
    and check its answer."""
    track.maybe_sample()
    with tracer.installed() if tracer else nullcontext():
        start = perf_counter()
        try:
            result, error = workload.run(op), None
        except failures as exc:
            result, error = None, exc
        elapsed = perf_counter() - start
    tally.attempted += 1
    tally.busy += elapsed
    tally.times.append(elapsed)
    tally.kinds[op.kind] += 1
    tally.kind_busy[op.kind] += elapsed
    if op.reuse_key is not None:
        tally.keyed += 1
        tally.repeats += op.reuse_key in tally.keys
        tally.keys.add(op.reuse_key)
    if error is not None:
        tally.failures[f"{type(error).__name__}: {error}"] += 1
    else:
        tally.spans.append((start, elapsed))
        workload.check(op, result)


def run_rounds(workload, seconds, failures, track):
    """Whole rounds until the busy time reaches `seconds`."""
    tally = Tally()
    track.sample(WINDOW)
    for ops in workload.rounds():
        for op in ops:
            run_op(workload, op, tally, failures, track)
        if tally.busy >= seconds:
            track.sample(WINDOW)
            return tally


def run_rounds_paired(workload, seconds, failures, track):
    """Like run_rounds, but every operation runs twice in a row, untraced
    and traced, alternating which goes first.  Pairing puts both runs of an
    operation in the same phase of a noisy host, so the tracing overhead is
    measured on equal terms."""
    plain = Tally()
    traced = Tally()
    tracer = Tracer()
    pair = ((plain, None), (traced, tracer))
    track.sample(WINDOW)
    for ops in workload.rounds():
        for k, op in enumerate(ops):
            for tally, op_tracer in (pair if k % 2 else pair[::-1]):
                run_op(workload, op, tally, failures, track, op_tracer)
        if plain.busy >= seconds:
            track.sample(WINDOW)
            return plain, traced, tracer


def set_up(cls, seed, track):
    """Build the workload SETUP_MIN to SETUP_MAX times (see above), probing
    the host speed before and after each; return the last one and the
    median set-up wall time."""
    wall = []
    while len(wall) < SETUP_MIN or (sum(wall) < SETUP_BUDGET_S
                                    and len(wall) < SETUP_MAX):
        track.sample(WINDOW)
        start = perf_counter()
        workload = cls(seed)
        wall.append(perf_counter() - start)
    track.sample(WINDOW)
    return workload, statistics.median(wall)


def quantiles(latencies):
    """Median and 90th percentile."""
    lat = sorted(latencies)
    return statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[8]


def end_to_end(tally, track, setup_wall):
    """The END_TO_END metrics, scaled to the reference speed.  A set-up runs
    for seconds, longer than the probes next to it can speak for, so set-up
    time is scaled by the median of every probe of the run."""
    latencies = [t * track.scale_at(start + t / 2) for start, t in tally.spans]
    p50, p90 = quantiles(latencies)
    completed = tally.attempted - sum(tally.failures.values())
    failed_busy = tally.busy - sum(t for _, t in tally.spans)
    return {
        "ops_per_s": tally.attempted / (sum(latencies) + failed_busy * track.scale()),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "success_share": completed / tally.attempted,
        "setup_s": setup_wall * track.scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def describe(tally, track):
    failed = sum(tally.failures.values())
    print(f"  operations       {tally.attempted} in {tally.busy:.2f} s busy")
    probes = sorted(track.times)
    print(f"  probe            {len(probes)} probes, median {probes[len(probes) // 2] * 1e3:.3f} ms"
          f" (min {probes[0] * 1e3:.3f}, max {probes[-1] * 1e3:.3f})")
    for kind, count in sorted(tally.kinds.items()):
        print(f"    {kind:<14} {count / tally.attempted:7.2%} of ops, "
              f"{tally.kind_busy[kind] / tally.busy:7.2%} of busy time")
    if tally.keyed:
        print(f"  repeated inputs  {tally.repeats / tally.keyed:.4f} "
              f"({tally.repeats}/{tally.keyed} ops repeat an earlier reduced matrix)")
    print(f"  failed_share     {failed / tally.attempted:.4f} "
          f"({failed}/{tally.attempted})")
    for reason, count in sorted(tally.failures.items()):
        print(f"    failed {count}x  {reason}")


def run_workload(name, seed, seconds, trace):
    from workloads import FAILURES, WORKLOADS

    track = SpeedTrack()
    workload, setup_wall = set_up(WORKLOADS[name], seed, track)
    print(f"workload {name}  seed {seed}  closed loop, 1 caller, no threads")
    if not trace:
        tally = run_rounds(workload, seconds, FAILURES, track)
        describe(tally, track)
        p50, p90 = quantiles([t for _, t in tally.spans])
        print(f"  wall time        ops_per_s {tally.attempted / tally.busy:.6g}, "
              f"latency_p50_ms {p50 * 1e3:.6g}, latency_p90_ms {p90 * 1e3:.6g}, "
              f"setup_s {setup_wall:.6g}")
        values = end_to_end(tally, track, setup_wall)
        result = {metric: (values[metric], unit) for metric, unit in END_TO_END}
        width = 16
    else:
        plain, tally, tracer = run_rounds_paired(workload, seconds / 2, FAILURES, track)
        describe(tally, track)
        print(f"  each operation ran untraced and traced "
              f"({plain.busy:.2f} s and {tally.busy:.2f} s busy)")
        overhead = statistics.median(
            t / p for t, p in zip(tally.times, plain.times)) - 1
        result = tracer.metrics(tally.attempted, overhead, track.scale())
        width = 42
    for metric, (value, unit) in result.items():
        note = f"  (n={len(tally.spans)})" if metric.startswith("latency") else ""
        print(f"  {metric:<{width}} {value:.6g} {unit}{note}")
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in result.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import toricgm
    except ImportError as exc:
        print(f"cannot import toricgm from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(toricgm.__file__).resolve().is_relative_to(src):
        print(f"toricgm was imported from {toricgm.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from workloads import WrongAnswer

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            tally, result = run_workload(name, args.seed, args.seconds, args.trace)
            attempted += tally.attempted
            failed += sum(tally.failures.values())
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in result.items()})
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
