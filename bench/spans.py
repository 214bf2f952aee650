"""Span tracing of edgesim from outside the package.

The tracer replaces the names edgesim's modules call each other through
(module functions and policy methods) with wrappers that record one span per
call: (name, start, end, parent span index, op id). The unmodified `run()`,
`sweep()` and `main()` then execute, and `Patches.restore` puts the original
objects back. Nothing inside `src/` is edited.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from edgesim import cli, costs, oracle, policies, sim, workload

OP_SPAN = "bench.op"

# Span name -> (self-time metric, call-count metric or None). Spans whose
# wrapped callees are traced too report self time, the others are leaves.
LAYER_METRICS = {
    "workload.batch": ("workload.batch_s", "workload.batch_calls"),
    "workload.ingest_trace": ("workload.ingest_trace_s", None),
    "scheduler.distribute": ("scheduler.distribute_self_s", None),
    "scheduler.end_interval": ("scheduler.end_interval_self_s", None),
    "scheduler.routing_context": ("scheduler.routing_context_s", None),
    "scheduler.write_audit_csv": ("scheduler.write_audit_csv_s", None),
    "policies.select_victim": ("policies.select_victim_s", "policies.select_victim_calls"),
    "policies.end_of_interval": ("policies.end_of_interval_s", "policies.end_of_interval_calls"),
    "costs.switching": ("costs.switching_s", None),
    "costs.comm": ("costs.comm_s", None),
    "costs.running": ("costs.running_s", None),
    "costs.ledger": ("costs.ledger_s", None),
    "costs.conservation": ("costs.conservation_s", None),
    "costs.write_csv": ("costs.write_csv_s", None),
    "model.validate_setup": ("model.validate_setup_s", "model.validate_setup_calls"),
    "sim.run": ("sim.run_self_s", "sim.run_calls"),
    "sim.check_states": ("sim.check_states_s", "sim.check_states_calls"),
    "sim.sweep": ("sim.sweep_self_s", None),
    "oracle.solve_exact": ("oracle.solve_exact_s", "oracle.solve_exact_calls"),
    "cli.main": ("cli.main_self_s", None),
}

DECISION_COUNTS = (
    "scheduler.requests",
    "scheduler.hits",
    "scheduler.offloads",
    "scheduler.creations",
    "scheduler.fallback_creations",
    "scheduler.rejections",
    "scheduler.evictions",
    "scheduler.sweep_destroyed",
    "scheduler.audit_records",
)


def policy_classes():
    """The classes `make_policy` instantiates, one per policy name."""
    return sorted({type(policies.make_policy(name, 1)) for name in policies.POLICY_NAMES}, key=lambda c: c.__name__)


def boundaries():
    """(span name, owner, attribute) of every call boundary the tracer wraps."""
    targets = [
        ("sim.run", sim, "run"),
        ("sim.run", cli, "run"),
        ("sim.sweep", sim, "sweep"),
        ("sim.check_states", sim, "_check_states"),
        ("model.validate_setup", sim, "validate_setup"),
        ("scheduler.routing_context", sim, "RoutingContext"),
        ("scheduler.distribute", sim, "distribute_interval"),
        ("scheduler.end_interval", sim, "end_interval"),
        ("scheduler.write_audit_csv", cli, "write_audit_csv"),
        ("workload.batch", workload, "generate_batch"),
        ("workload.ingest_trace", cli, "ingest_trace"),
        ("costs.switching", sim, "interval_switching_cost"),
        ("costs.comm", sim, "interval_comm_cost"),
        ("costs.running", sim, "interval_running_cost"),
        ("costs.ledger", costs.CostLedger, "append_interval"),
        ("costs.conservation", costs.IntervalDecision, "check_conservation"),
        ("costs.write_csv", costs.CostLedger, "write_csv"),
        ("oracle.solve_exact", oracle, "solve_exact"),
        ("cli.main", cli, "main"),
    ]
    for cls in policy_classes():
        targets.append(("policies.select_victim", cls, "select_victim"))
        targets.append(("policies.end_of_interval", cls, "end_of_interval"))
    return targets


def resolve(targets):
    """Look every target up before any is replaced, so a subclass never
    picks up its base class's wrapper."""
    return [(name, owner, attr, getattr(owner, attr)) for name, owner, attr in targets]


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


class CallCounter:
    """Counts calls through the boundaries behind the given call-count
    metrics, without timing them.

    Untraced runs use it for the calls a workload must never make, so on a
    healthy run its wrappers never execute and cost nothing.
    """

    def __init__(self, metrics):
        spans_of = {calls: name for name, (_time, calls) in LAYER_METRICS.items() if calls}
        self.counts = Counter({metric: 0 for metric in metrics if metric in spans_of})
        self._patches = Patches()
        for name, owner, attr, fn in resolve(boundaries()):
            metric = LAYER_METRICS[name][1]
            if metric in self.counts:
                self._patches.set(owner, attr, self._wrap(metric, fn))

    def _wrap(self, metric, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def restore(self):
        self._patches.restore()


class Tracer:
    """Records spans at every boundary between `install` and `restore`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter({name: 0 for name in DECISION_COUNTS})
        self._patches = Patches()
        self._hooks = {
            "scheduler.distribute": self._on_distribute,
            "scheduler.end_interval": self._on_end_interval,
            "sim.run": self._on_run,
        }

    def install(self):
        for name, owner, attr, fn in resolve(boundaries()):
            self._patches.set(owner, attr, self._wrap(name, fn, self._hooks.get(name)))

    def restore(self):
        self._patches.restore()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op)
        if hook is not None:
            hook(args, result)
        return result

    # Counts read from what the boundaries return.

    def _on_distribute(self, args, decision):
        c = self.counts
        created = decision.total_created()
        fallback = decision.fallback_creations
        c["scheduler.requests"] += args[0].total()
        c["scheduler.hits"] += sum(decision.local_served.values()) - (created - fallback)
        c["scheduler.offloads"] += sum(decision.offloaded.values()) - fallback
        c["scheduler.creations"] += created
        c["scheduler.fallback_creations"] += fallback
        c["scheduler.rejections"] += decision.total_rejected()
        # sweep destructions are merged into `destroyed` only after this returns
        c["scheduler.evictions"] += sum(decision.destroyed.values())

    def _on_end_interval(self, args, destructions):
        self.counts["scheduler.sweep_destroyed"] += sum(count for _v, _n, count in destructions)

    def _on_run(self, args, result):
        if result.audit is not None:
            self.counts["scheduler.audit_records"] += len(result.audit)

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans = []
        self.counts = Counter({name: 0 for name in DECISION_COUNTS})
        return spans, counts


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, because the program is
    single-threaded. The op span's self time is the part of an op that no
    wrapped boundary accounts for.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = Counter()
    calls = Counter()
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1

    out = {}
    for name, (time_metric, calls_metric) in LAYER_METRICS.items():
        out[time_metric] = self_s[name]
        if calls_metric is not None:
            out[calls_metric] = calls[name]

    op_total = sum(end - start for name, start, end, _p, _o in spans if name == OP_SPAN)
    baseline_s = 0.0
    baseline_runs = sweep_cells = 0
    for name, start, end, parent, _op in spans:
        if name != "sim.run" or parent < 0:
            continue
        parent_name = spans[parent][0]
        if parent_name == "sim.run":
            baseline_runs += 1
            baseline_s += end - start
        elif parent_name == "sim.sweep":
            sweep_cells += 1
    out["sim.baseline_runs"] = baseline_runs
    out["sim.baseline_share"] = baseline_s / op_total if op_total else 0.0
    out["sim.sweep_cells"] = sweep_cells
    for name in DECISION_COUNTS:
        out[name] = counts[name]
    requests = counts["scheduler.requests"]
    warm = counts["scheduler.hits"] + counts["scheduler.offloads"]
    out["scheduler.warm_ratio"] = warm / requests if requests else 0.0
    out["trace.unattributed_s"] = self_s[OP_SPAN]
    out["trace.unattributed_share"] = self_s[OP_SPAN] / op_total if op_total else 0.0
    return out, op_total


def save_spans(path, spans):
    """Write spans as compressed arrays: names, name index, start, end, parent, op."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    np.savez_compressed(
        path,
        names=np.array(names),
        name=np.array([index[s[0]] for s in spans], dtype=np.int16),
        start=np.array([s[1] for s in spans], dtype=np.float64),
        end=np.array([s[2] for s in spans], dtype=np.float64),
        parent=np.array([s[3] for s in spans], dtype=np.int64),
        op=np.array([s[4] for s in spans], dtype=np.int32),
    )
