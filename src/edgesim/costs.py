"""Per-interval cost decomposition and the run-level cost ledger."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import InvariantViolation
from .model import RequestBatch, Topology, left_sum


@dataclass
class IntervalDecision:
    """Everything the scheduler decided in one interval.

    local_served counts requests served at their origin (warm hits and local
    creations); offloaded counts requests served elsewhere, keyed
    (origin, server, type). created counts true instantiations at the node
    where they happened, destroyed the containers evicted under capacity
    pressure (not the end-of-interval sweep's), rejected the requests no node
    could host. closed marks a no-cache interval the router closed as it
    routed it: every request was created at its origin, none of those
    containers is alive any more, and switching and running hold the
    interval's unweighted costs, folded in `created` order
    (`scheduler._close_if_fits`). An open decision leaves them at 0.0: its
    lane prices it from `created` and the node states.
    """

    interval: int
    local_served: dict[tuple[int, int], int] = field(default_factory=dict)
    offloaded: dict[tuple[int, int, int], int] = field(default_factory=dict)
    created: dict[tuple[int, int], int] = field(default_factory=dict)
    destroyed: dict[tuple[int, int], int] = field(default_factory=dict)
    rejected: dict[tuple[int, int], int] = field(default_factory=dict)
    fallback_creations: int = 0
    closed: bool = False
    switching: float = 0.0
    running: float = 0.0

    def total_created(self) -> int:
        return sum(self.created.values())

    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    def check_conservation(self, batch: RequestBatch) -> None:
        """Every request is served exactly once (or explicitly rejected).

        One dict compare settles a conserving interval; the key-by-key walk
        only names the key that breaks, and passes the zero-count batch keys
        no decision dict holds."""
        served = dict(self.local_served)
        for (v, _v2, n), c in self.offloaded.items():
            served[(v, n)] = served.get((v, n), 0) + c
        for (v, n), c in self.rejected.items():
            served[(v, n)] = served.get((v, n), 0) + c
        if served == batch.counts:
            return
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
    """Sum of d over offloaded requests; local service contributes nothing.
    A left fold from the int 0, as `left_sum` adds, written out for speed."""
    d = topology.comm_cost
    total = 0
    for (v, v2, _n), c in decision.offloaded.items():
        total += d[v][v2] * c
    return total


def interval_running_cost(states, ctx) -> float:
    """Close service for the interval and price it: every active container
    idles into its node's cache, and the return is one interval of q for
    every container alive, all of which are now cached.

    One indexed pass per node, node-major and type-minor, adding `q * count`
    terms. Reads q per (node, type) from the run's RoutingContext `ctx`.
    Returned unweighted; the ledger applies alpha.
    """
    total = 0.0
    q = ctx.q
    types = range(len(ctx.mem))
    for state in states:
        q_v = q[state.node_id]
        active = state.active
        cache = state.cache
        for n in types:
            alive = active[n]
            if alive:
                alive += cache[n]
                cache[n] = alive
                active[n] = 0
                total += q_v[n] * alive
            elif cache[n]:
                total += q_v[n] * cache[n]
    return total


@dataclass
class LedgerRow:
    interval: int
    switching: float
    communication: float
    running: float
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
        self.rows.append(LedgerRow(interval, switching, communication, running, cold_starts, requests))

    def total_cost(self, alpha: float | None = None) -> float:
        """Sum of the row totals at `alpha` (default: the ledger's): a left
        fold of switching + communication + alpha * running, the expression
        `write_csv` writes each row's total with."""
        alpha = self.alpha if alpha is None else alpha
        return left_sum(r.switching + r.communication + alpha * r.running for r in self.rows)

    def total_cold_starts(self) -> int:
        return sum(r.cold_starts for r in self.rows)

    def total_requests(self) -> int:
        return sum(r.requests for r in self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["interval", "switching", "communication", "running", "total", "cold_starts", "requests"])
            for r in self.rows:
                total = r.switching + r.communication + self.alpha * r.running
                writer.writerow([r.interval, repr(r.switching), repr(r.communication), repr(r.running), repr(total), r.cold_starts, r.requests])

