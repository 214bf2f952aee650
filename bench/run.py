"""edgesim benchmark: one workload per process, end to end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload desk_pressure --seed 1 --seconds 20 --trace 0

With `--trace 0` the run measures the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it measures the per-layer metrics by wrapping edgesim's
internal call boundaries (see spans.py) and writes the spans of one traced
pass to bench/out/. Every op's output is digested and compared with the
digests pinned by pin.py (digests.json). Human-readable lines come
first; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

All times are host wall-clock seconds of the benchmark process, never
simulated time. The process runs one workload alone, on one thread.
End-to-end times are rescaled to a reference machine speed (see
calibration.py); raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from calibration import CALIBRATION_REF_S, SpeedLog, calibration_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

REFERENCE_SEED = 0  # the warm-up op always runs this seed's first op, whose digest is pinned
MIN_OPS = 11  # op_s_tail needs ten ops beyond it
# set-up is repeated for SETUP_BUDGET_S, in rounds of at least SETUP_ROUND_S
# and SETUP_ROUND_BUILDS builds, and at least SETUP_MIN_ROUNDS rounds
SETUP_BUDGET_S, SETUP_ROUND_S, SETUP_ROUND_BUILDS, SETUP_MIN_ROUNDS = 2.0, 0.02, 3, 9
COUNT_UNITS = ("count", "bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Gate:
    """Checks op outcomes against pinned digests, or, for a seed without
    pinned digests, against the first outcome of the same op in this run."""

    def __init__(self, pinned):
        self.pinned = pinned
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, seed, index, outcome):
        expected = self.pinned.get(str(seed))
        if expected is None:
            expected = self.seen.setdefault(seed, {}).setdefault(index, outcome.digest)
        else:
            expected = expected[index]
        if outcome.digest != expected:
            self.fail(f"seed {seed} op {index}: digest {outcome.digest[:16]} differs from {expected[:16]}")
            return False
        return True

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_op(gate, seed, index, op, timer=None):
    """Attempt one op; return (seconds, outcome, whether the outcome passed
    the gate), or None if the op raised."""
    gate.attempted += 1
    try:
        start = time.perf_counter()
        raw = op.call() if timer is None else timer(op.call)
        elapsed = time.perf_counter() - start
        outcome = op.finish(raw)
    except Exception as exc:  # every failure is counted and reported, the run goes on
        gate.fail(f"seed {seed} op {index} ({op.label}): {type(exc).__name__}: {exc}")
        return None
    return elapsed, outcome, gate.check(seed, index, outcome)


def set_up(cls, seed, workdir):
    """Build the workload's inputs repeatedly; return it, the raw set-up time
    and the set-up time rescaled to the reference speed.

    Builds run in rounds with a calibration sample between rounds. A round's
    time is its fastest build, rescaled by the faster of the two samples
    around it, and the median over rounds is reported. On most workloads one
    build takes well under a millisecond, where a single timing is mostly
    noise.
    """
    rounds = []
    kernel = calibration_s()
    end = time.perf_counter() + SETUP_BUDGET_S
    while len(rounds) < SETUP_MIN_ROUNDS or time.perf_counter() < end:
        times = []
        begin = time.perf_counter()
        while len(times) < SETUP_ROUND_BUILDS or time.perf_counter() - begin < SETUP_ROUND_S:
            start = time.perf_counter()
            workload = cls(seed, workdir)
            times.append(time.perf_counter() - start)
        after = calibration_s()
        rounds.append((min(times), min(kernel, after)))
        kernel = after
    raw = statistics.median(t for t, _k in rounds)
    return workload, raw, statistics.median(t * CALIBRATION_REF_S / k for t, k in rounds)


def tail(durations):
    """Op time at the highest percentile with ten ops beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(durations, requests, setup_s):
    tail_s, tail_pct = tail(durations)
    metrics = {
        "req_per_s": requests / sum(durations),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, tail_pct


def measure(cls, seed, seconds, gate, workdir):
    """Time ops in whole cycles for `seconds`; return rescaled and raw metrics."""
    workload, setup_raw, setup_s = set_up(cls, seed, workdir)
    cycle = workload.ops()
    raw, windows, requests, counts = [], [], 0, {}
    speed = SpeedLog()
    speed.sample()
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or i % len(cycle) or time.perf_counter() - start < seconds:
        op_start = time.perf_counter()
        done = run_op(gate, seed, i % len(cycle), cycle[i % len(cycle)])
        op_end = time.perf_counter()
        speed.sample()
        i += 1
        if done is not None and done[2]:
            raw.append(done[0])
            windows.append((op_start, op_end))
            requests += done[1].requests
            for key, value in done[1].counts.items():
                counts[key] = counts.get(key, 0) + value
    if len(raw) < MIN_OPS:
        return None, counts
    rescaled = [speed.rescale(seconds, *window) for seconds, window in zip(raw, windows)]
    metrics, tail_pct = end_to_end(rescaled, requests, setup_s)
    raw_metrics, _ = end_to_end(raw, requests, setup_raw)
    notes = {"ops": len(raw), "tail_percentile": tail_pct, "raw": raw_metrics}
    return (metrics, notes), counts


def measure_traced(cls, seed, seconds, gate, workdir, spans_mod, spans_path):
    """Alternate untraced and traced passes over one op cycle.

    Counts come from the first traced pass and must repeat exactly in every
    later one; times are medians over the traced passes.
    """
    workload = cls(seed, workdir)
    cycle = workload.ops()
    tracer = spans_mod.Tracer()

    def traced_call(call):
        tracer.install()
        try:
            return tracer.call(spans_mod.OP_SPAN, call)
        finally:
            tracer.restore()

    passes, untraced_s, mismatches = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not (passes or gate.failed):
        plain, traced = [], []
        for index, op in enumerate(cycle):
            plain.append(run_op(gate, seed, index, op))
        for index, op in enumerate(cycle):
            tracer.op = index
            traced.append(run_op(gate, seed, index, op, traced_call))
        spans, counts = tracer.take()
        layers, op_total = spans_mod.layer_metrics(spans, counts)
        # compared before the gate, so a traced op that fails it still counts
        mismatches += sum(p[1].digest != t[1].digest for p, t in zip(plain, traced) if p and t)
        if any(r is None or not r[2] for r in plain + traced):
            continue
        layers["cli.output_bytes"] = sum(t[1].output_bytes for t in traced)
        if not passes:
            spans_mod.save_spans(spans_path, spans)
        untraced_s.append(sum(p[0] for p in plain))
        passes.append((layers, op_total))
    return passes, untraced_s, mismatches


def nonzero(cls, counts):
    """The workload's must-be-zero layer counts that are not zero."""
    return [f"{name} = {counts[name]}, must be 0" for name in cls.must_be_zero if counts.get(name)]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edgesim", "__init__.py")):
        print(f"error: edgesim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "digests.json")) as fh:
        pinned = json.load(fh)["workloads"][cls.name]

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{cls.name}-{os.getpid()}")
    gate = Gate(pinned)
    counter = spans.CallCounter(cls.must_be_zero)
    try:
        ref = cls(REFERENCE_SEED, os.path.join(workdir, "reference"))
        run_op(gate, REFERENCE_SEED, 0, ref.ops()[0])  # untimed warm-up with a pinned digest
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans-{cls.name}-seed{args.seed}.npz")
            report = traced_report(cls, args, gate, workdir, spans, spans_path, spec)
        else:
            report = end_to_end_report(cls, args, gate, workdir, spec)
    finally:
        counter.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, lines, problems = report
    problems += nonzero(cls, counter.counts)
    correct = gate.failed == 0 and not problems
    print(f"workload={cls.name} seed={args.seed} trace={args.trace} pinned={'yes' if str(args.seed) in pinned else 'no'}")
    for line in lines:
        print(line)
    print(f"{'error_rate':<34} {gate.failed / max(gate.attempted, 1):.6g} ratio ({gate.failed} of {gate.attempted} ops failed)")
    for message in gate.errors + problems:
        print(f"problem: {message}")
    print(json.dumps({"correct": correct, "attempted": max(gate.attempted, 1), "failed": gate.failed, "metrics": metrics}))
    return 0


def end_to_end_report(cls, args, gate, workdir, spec):
    result, counts = measure(cls, args.seed, args.seconds, gate, workdir)
    problems = nonzero(cls, counts)
    if result is None:
        return {}, [], problems + ["too few successful ops to report"]
    values, notes = result
    metrics, lines = {}, []
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        extra = ""
        if m["name"] in notes["raw"] and m["name"] != "peak_rss_mb":
            extra = f" (raw {notes['raw'][m['name']]:.6g})"
        if m["name"] == "op_s_tail":
            extra += f" (p{notes['tail_percentile']:.1f} of {notes['ops']} ops)"
        lines.append(f"{m['name']:<34} {values[m['name']]:.6g} {m['unit']}{extra}")
    return metrics, lines, problems


def traced_report(cls, args, gate, workdir, spans_mod, spans_path, spec):
    passes, untraced_s, mismatches = measure_traced(cls, args.seed, args.seconds, gate, workdir, spans_mod, spans_path)
    problems = [f"{mismatches} traced ops gave other digests than untraced ones"] if mismatches else []
    if not passes:
        return {}, [], problems + ["no traced pass completed"]
    first = passes[0][0]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead":
            values[name] = 1.0 - statistics.median(untraced_s) / statistics.median(t for _, t in passes)
        elif name == "trace.digest_mismatches":
            values[name] = mismatches
        elif m["unit"] in COUNT_UNITS:
            values[name] = first[name]
            if any(p[name] != first[name] for p, _ in passes):
                problems.append(f"{name} differs between traced passes")
        else:
            values[name] = statistics.median(p[name] for p, _ in passes)
    served = sum(first[k] for k in ("scheduler.hits", "scheduler.offloads", "scheduler.creations", "scheduler.rejections"))
    if served != first["scheduler.requests"]:
        problems.append(f"hits + offloads + creations + rejections = {served} != requests {first['scheduler.requests']}")
    problems += nonzero(cls, first)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    lines = [f"{m['name']:<34} {values[m['name']]:.6g} {m['unit']}" for m in spec["per_layer"]]
    lines.append(f"{'traced passes':<34} {len(passes)} (spans of the first in {os.path.relpath(spans_path, ROOT)})")
    return metrics, lines, problems


if __name__ == "__main__":
    sys.exit(main())
