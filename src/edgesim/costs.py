"""Per-interval cost decomposition and the run-level cost ledger."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import InvariantViolation
from .model import RequestBatch, Topology


@dataclass
class IntervalDecision:
    """Everything the scheduler decided in one interval.

    local_served counts requests served at their origin (warm hits and local
    creations); offloaded counts requests served elsewhere, keyed
    (origin, server, type). created counts true instantiations at the node
    where they happened, destroyed the containers removed (pressure evictions
    plus end-of-interval sweeps), rejected the requests no node could host.
    """

    interval: int
    local_served: dict[tuple[int, int], int] = field(default_factory=dict)
    offloaded: dict[tuple[int, int, int], int] = field(default_factory=dict)
    created: dict[tuple[int, int], int] = field(default_factory=dict)
    destroyed: dict[tuple[int, int], int] = field(default_factory=dict)
    rejected: dict[tuple[int, int], int] = field(default_factory=dict)
    fallback_creations: int = 0

    def total_created(self) -> int:
        return sum(self.created.values())

    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    def served_counts(self) -> dict[tuple[int, int], int]:
        """Requests accounted per (origin, type), for conservation checks."""
        served = dict(self.local_served)
        for (v, _v2, n), c in self.offloaded.items():
            served[(v, n)] = served.get((v, n), 0) + c
        for (v, n), c in self.rejected.items():
            served[(v, n)] = served.get((v, n), 0) + c
        return served

    def check_conservation(self, batch: RequestBatch) -> None:
        """Every request is served exactly once (or explicitly rejected)."""
        served = self.served_counts()
        for key in set(batch.counts) | set(served):
            lam = batch.counts.get(key, 0)
            got = served.get(key, 0)
            if lam != got:
                raise InvariantViolation(
                    f"interval {self.interval}: request conservation broken for "
                    f"(node, type) {key}: lambda={lam}, accounted={got}"
                )


def interval_switching_cost(decision: IntervalDecision, ctx) -> float:
    """Sum of p over the containers actually instantiated this interval.

    `ctx` is the run's RoutingContext; its `p` table holds p per (node, type).
    """
    p = ctx.p
    total = 0.0
    for (v, n), c in decision.created.items():
        total += p[v][n] * c
    return total


def interval_comm_cost(decision: IntervalDecision, topology: Topology) -> float:
    """Sum of d over offloaded requests; local service contributes nothing."""
    d = topology.comm_cost
    return sum(d[v][v2] * c for (v, v2, n), c in decision.offloaded.items())


def interval_running_cost(states, ctx) -> float:
    """One interval of q for every alive container, serving or cached.

    Reads q per (node, type) from the run's RoutingContext `ctx`. Returned
    unweighted; the ledger applies alpha.
    """
    total = 0.0
    for state in states:
        q_v = ctx.q[state.node_id]
        active = state.active
        for n, cached in enumerate(state.cache):
            alive = active[n] + cached
            if alive:
                total += q_v[n] * alive
    return total


@dataclass
class LedgerRow:
    interval: int
    switching: float
    communication: float
    running: float
    total: float
    cold_starts: int
    requests: int


class CostLedger:
    """Append-only per-interval cost records; total applies the alpha weight."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.rows: list[LedgerRow] = []

    def append_interval(self, interval, switching, communication, running, cold_starts, requests):
        if min(switching, communication, running) < 0:
            raise InvariantViolation(f"interval {interval}: negative cost component")
        total = switching + communication + self.alpha * running
        self.rows.append(
            LedgerRow(interval, switching, communication, running, total, cold_starts, requests)
        )

    def total_cost(self) -> float:
        return sum(r.total for r in self.rows)

    def total_cold_starts(self) -> int:
        return sum(r.cold_starts for r in self.rows)

    def total_requests(self) -> int:
        return sum(r.requests for r in self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["interval", "switching", "communication", "running", "total", "cold_starts", "requests"])
            for r in self.rows:
                writer.writerow([r.interval, repr(r.switching), repr(r.communication), repr(r.running), repr(r.total), r.cold_starts, r.requests])

