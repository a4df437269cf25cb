#!/usr/bin/env python3
"""The fusionkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, with no worker threads, as a closed
loop: each op starts when the previous one has returned. It runs whole
rounds of ops, as many as fill about S seconds and at least one, so every
run measures the same mix; a round longer than S makes the run that long.
Every op's answer is checked against expected.json, frozen from the seed
code by freeze.py; an op that raises or answers wrongly counts as failed.

All times are host-speed normalised (see hostspeed.py): seconds on a host
where one calibration pass takes exactly one millisecond. The raw times
are kept in the result file under perfbench/_out/.

With --trace 0 the end-to-end metrics are printed. With --trace 1 the run
makes three passes over the first ops of the seeded sequence: a counting
pass for the permutation kernels, an untraced pass and a traced pass; it
prints the per-layer metrics and writes the spans to perfbench/_out/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback

import hostspeed
import tracing

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")
P90_MIN_OPS = 100  # op_p90_s needs ten samples beyond it

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"perms.{f}.calls": "count" for f in tracing.COUNTED}
    for name, _module, _path in tracing.SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["groups.hom_from_images.rejected_ratio"] = "ratio"
    units["fusion.morphisms_built"] = "count"
    units["alperin.chain_steps"] = "count"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.traced_ops_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def percentile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1) by linear interpolation between the
    closest ranks; q = 0.5 is the median."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def matches(observation, expected) -> bool:
    """Compare after a JSON round trip, so tuples and lists agree."""
    return json.loads(json.dumps(observation)) == expected


class Tally:
    """The time interval of every op attempted, and how many failed."""

    def __init__(self, speed: hostspeed.HostSpeed):
        self.speed = speed
        self.intervals: list[tuple[float, float, float]] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def latencies(self) -> list[float]:
        return [self.speed.normalised(iv) for iv in self.intervals]

    def raw_latencies(self) -> list[float]:
        return [net for _t0, _t1, net in self.intervals]

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies())


def attempt(op, expected: dict, tally: Tally) -> None:
    """Run one op and check its answer; the op's result is dropped before
    the next op starts, so peak memory does not depend on op order."""
    mark = tally.speed.mark()
    try:
        raw = op.run()
    except Exception:
        tally.intervals.append(tally.speed.interval(mark))
        tally.failed += 1
        print(f"op {op.key} raised:", file=sys.stderr)
        traceback.print_exc()
        return
    tally.intervals.append(tally.speed.interval(mark))
    try:
        seen = op.observe(raw)
    except Exception:
        tally.failed += 1
        print(f"op {op.key} gave an unreadable result:", file=sys.stderr)
        traceback.print_exc()
        return
    if not matches(seen, expected.get(op.key)):
        tally.failed += 1
        print(f"op {op.key} answered {json.dumps(seen)}, expected "
              f"{json.dumps(expected.get(op.key))}", file=sys.stderr)


def run_ops(ops, expected: dict, tally: Tally, tracer=None) -> None:
    for op in ops:
        if tracer is not None:
            tracer.op = tally.attempted
        attempt(op, expected, tally)


def timed_run(state, rng, expected: dict, seconds: float, speed):
    """Whole rounds: as many as the whole number nearest to `seconds` over
    the first round's time, and at least one. Counting rounds rather than
    stopping at a deadline keeps the mix of ops the same from run to run."""
    tally = Tally(speed)
    run_ops(state.round(rng), expected, tally)
    rounds = max(1, round(seconds / sum(tally.latencies())))
    for _ in range(rounds - 1):
        run_ops(state.round(rng), expected, tally)
    lat = tally.latencies()
    raw = tally.raw_latencies()
    metrics = {
        "ops_per_s": tally.ops_per_s(),
        "op_p50_s": percentile(lat, 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {
        "failed_ratio": tally.failed / tally.attempted,
        "op_p90_s": (percentile(lat, 0.9) if len(lat) >= P90_MIN_OPS
                     else f"omitted: {len(lat)} ops < {P90_MIN_OPS}"),
        "rounds": rounds,
        "raw_ops_per_s": (tally.attempted - tally.failed) / sum(raw),
        "raw_op_p50_s": percentile(raw, 0.5),
    }
    return tally, metrics, extra


def first_ops(state, rng, n: int) -> list:
    ops: list = []
    while len(ops) < n:
        ops.extend(state.round(rng))
    return ops[:n]


def traced_run(state, rng, expected: dict, speed, trace_path: str):
    ops = first_ops(state, rng, state.trace_ops)
    tally = Tally(speed)

    counts: dict = {}
    patches = tracing.install_counters(counts)
    try:
        run_ops(ops, expected, tally)
    finally:
        tracing.uninstall(patches)

    untraced = Tally(speed)
    run_ops(ops, expected, untraced)

    tracer = tracing.Tracer(clock=speed.clock)
    traced = Tally(speed)
    patches = tracing.install_spans(tracer)
    try:
        run_ops(ops, expected, traced, tracer)
    finally:
        tracing.uninstall(patches)
    scale = speed.factor(traced.intervals[0][0], traced.intervals[-1][1])

    for part in (untraced, traced):
        tally.intervals.extend(part.intervals)
        tally.failed += part.failed

    metrics = dict(counts)
    for name, _module, _path in tracing.SPANS:
        calls, self_s = tracer.stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s * scale
    hom_calls = metrics["groups.hom_from_images.calls"]
    metrics["groups.hom_from_images.rejected_ratio"] = (
        tracer.counts["groups.hom_from_images.rejected"] / hom_calls
        if hom_calls else 0.0)
    metrics["fusion.morphisms_built"] = tracer.counts["fusion.morphisms_built"]
    metrics["alperin.chain_steps"] = tracer.counts["alperin.chain_steps"]
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.overhead_ratio"] = (sum(traced.latencies())
                                       / sum(untraced.latencies()))

    with open(trace_path, "w") as fh:
        json.dump({
            "fields": ["op", "span", "parent", "name", "start", "end"],
            "clock": "seconds, excluding host-speed sampling, not normalised",
            "spans": tracer.records,
            "spans_not_kept": tracer.dropped,
            "stats": tracer.stats,
        }, fh)
    extra = {"trace_ops": len(ops), "trace_file": trace_path,
             "spans_kept": len(tracer.records),
             "spans_not_kept": tracer.dropped}
    return tally, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with hostspeed.HostSpeed() as speed:
        mark = speed.mark()
        import workloads  # fusionkit from ../src
        import_interval = speed.interval(mark)
        make = workloads.WORKLOADS.get(args.workload)
        if make is None:
            ap.error(f"--workload must be one of "
                     f"{', '.join(sorted(workloads.WORKLOADS))}")
        expected = workloads.load_expected()[args.workload]
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = os.path.join(OUT_DIR, args.workload)
        setup_intervals = []
        for _ in range(make.setup_repeats):
            mark = speed.mark()
            state = make(args.seed, workdir)
            setup_intervals.append(speed.interval(mark))
        rng = random.Random(f"{args.seed}:order")

        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            units = per_layer_units()
            tally, metrics, extra = traced_run(
                state, rng, expected, speed,
                os.path.join(OUT_DIR, f"spans-{stem}.json"))
        else:
            units = END_TO_END
            tally, metrics, extra = timed_run(state, rng, expected,
                                              args.seconds, speed)
    setups = [speed.normalised(iv) for iv in setup_intervals]
    import_s = speed.normalised(import_interval)
    if not args.trace:
        metrics["setup_s"] = import_s + statistics.median(setups)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "max_group_order": workloads.fk.max_group_order(),
        "ops_completed": tally.attempted - tally.failed,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "raw_setup_repeats_s": [net for _t0, _t1, net in setup_intervals],
        "host_factor": speed.factor(),
        "host_samples": len(speed.costs),
        **extra,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    for k in units:
        print(f"{args.workload} {k} {metrics[k]} {units[k]}")
    print(f"{args.workload} failed_ratio "
          f"{tally.failed / tally.attempted} ratio")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
