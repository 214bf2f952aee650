"""Per-interval request distribution: warm hits, neighbor offloading, creation."""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .costs import IntervalDecision
from .errors import ContractError, InvariantViolation
from .model import CostParams, NodeState, RequestBatch, Topology, running_cost, switching_cost

@dataclass
class AuditRecord:
    interval: int
    origin: int
    ftype: int
    action: str
    serving_node: int
    marginal_cost: float
    bound: float


class RoutingContext:
    """Precomputed per-(node, type) cost tables and neighbor orderings."""

    def __init__(self, topology: Topology, catalog, params: CostParams):
        self.topology = topology
        self.catalog = catalog
        self.params = params
        self.n_nodes = topology.n_nodes
        self.n_types = len(catalog)
        self.alpha = params.alpha
        self.mem = [f.mem_mb for f in catalog]
        self.capacity = [node.capacity_mb for node in topology.nodes]
        self.d = [[float(x) for x in row] for row in topology.comm_cost]
        self.p = [
            [switching_cost(node, f, params) for f in catalog] for node in topology.nodes
        ]
        self.q = [
            [running_cost(node, f, params) for f in catalog] for node in topology.nodes
        ]
        self.aq = [[params.alpha * q for q in row] for row in self.q]
        # Offload candidates per origin: ascending (distance, id), self excluded.
        self.neighbor_order = [
            sorted((v2 for v2 in range(self.n_nodes) if v2 != v), key=lambda v2: (self.d[v][v2], v2))
            for v in range(self.n_nodes)
        ]
        self._fallback_order: dict[tuple[int, int], list[int]] = {}

    def fallback_order(self, v: int, n: int) -> list[int]:
        """All other nodes by ascending (d + p at the candidate), for overflow."""
        order = self._fallback_order.get((v, n))
        if order is None:
            order = sorted(
                (v2 for v2 in range(self.n_nodes) if v2 != v),
                key=lambda v2: (self.d[v][v2] + self.p[v2][n], v2),
            )
            self._fallback_order[(v, n)] = order
        return order


def per_request_bound(ftype, origin, serving_node, served_from_cache, params, topology):
    """Realized marginal cost of one request and its worst-case bound.

    Costs are attributed in the origin node's frame (p, q at the origin), the
    frame the worst-case analysis is stated in. The bound is
    alpha*q * max{1 + p/(alpha*q), 1 + d/(alpha*q)}. A creation at a remote
    node (the capacity-overflow channel) also pays the remote switching cost
    and can exceed the bound; callers treat that channel separately.
    """
    aq = params.alpha * running_cost(origin, ftype, params)
    p_origin = switching_cost(origin, ftype, params)
    d = float(topology.comm_cost[origin.id][serving_node.id])
    bound = max(aq + p_origin, aq + d)
    if served_from_cache:
        realized = aq if serving_node.id == origin.id else d + aq
    elif serving_node.id == origin.id:
        realized = p_origin + aq
    else:
        realized = d + switching_cost(serving_node, ftype, params) + aq
    return realized, bound


def _make_room(state, node_id, mem_needed, ctx, policy, rng, now, destroyed):
    """Evict cached containers via the policy until one more container fits."""
    capacity = ctx.capacity[node_id]
    while state.used_mb + mem_needed > capacity:
        if state.cache_total() == 0:
            return False
        victim = policy.select_victim(state, ctx.catalog, rng, now)
        state.remove_cached(victim, ctx.mem[victim], 1)
        key = (node_id, victim)
        destroyed[key] = destroyed.get(key, 0) + 1
    return True


def distribute_interval(
    batch: RequestBatch,
    states: list[NodeState],
    ctx: RoutingContext,
    policy,
    rng,
    audit: list[AuditRecord] | None = None,
    check: bool = False,
) -> IntervalDecision:
    """Route one interval's requests (deterministic ascending (node, type) order).

    Each (origin, type) group is served from the origin's cache first, then
    from cached containers at nodes whose communication cost does not exceed
    the origin's switching cost (nearest first), then by creating containers
    at the origin, evicting via the policy under capacity pressure. When the
    origin cannot host even after emptying its cache, the request overflows to
    the cheapest feasible node by (d + p); only if no node can host is it
    counted as rejected.
    """
    t = batch.interval
    decision = IntervalDecision(interval=t)
    local_served = decision.local_served
    offloaded = decision.offloaded
    created = decision.created
    destroyed = decision.destroyed

    def note(origin, n, action, serving, realized, bound):
        if audit is not None:
            audit.append(AuditRecord(t, origin, n, action, serving, realized, bound))
        if check and action != "reject" and realized > bound + 1e-9:
            record = AuditRecord(t, origin, n, action, serving, realized, bound)
            raise InvariantViolation(
                f"per-request cost bound exceeded: {record}"
            )

    for (v, n), lam in sorted(batch.counts.items()):
        if lam == 0:
            continue
        state_v = states[v]
        mem = ctx.mem[n]
        p_vn = ctx.p[v][n]
        aq_vn = ctx.aq[v][n]
        trace = audit is not None or check

        # 1) serve from the origin's own cache
        hit = min(lam, state_v.cache[n])
        if hit:
            state_v.consume_cache(n, hit)
            policy.on_invocation(state_v, n, t, count=hit)
            local_served[(v, n)] = local_served.get((v, n), 0) + hit
            if trace:
                bound = max(aq_vn + p_vn, aq_vn)
                for _ in range(hit):
                    note(v, n, "hit", v, aq_vn, bound)
        if hit == lam:
            continue
        remaining = lam - hit

        # 2) offload to cached containers at nodes with d <= p, nearest first
        for v2 in ctx.neighbor_order[v]:
            d = ctx.d[v][v2]
            if d > p_vn:
                break
            state_2 = states[v2]
            take = min(remaining, state_2.cache[n])
            if take:
                state_2.consume_cache(n, take)
                policy.on_invocation(state_2, n, t, count=take)
                key = (v, v2, n)
                offloaded[key] = offloaded.get(key, 0) + take
                remaining -= take
                if trace:
                    realized = d + aq_vn
                    bound = max(aq_vn + p_vn, aq_vn + d)
                    for _ in range(take):
                        note(v, n, "offload", v2, realized, bound)
                if remaining == 0:
                    break

        # 3) create at the origin; overflow to the cheapest feasible node
        while remaining:
            if _make_room(state_v, v, mem, ctx, policy, rng, t, destroyed):
                state_v.add_active(n, mem)
                policy.on_invocation(state_v, n, t)
                created[(v, n)] = created.get((v, n), 0) + 1
                local_served[(v, n)] = local_served.get((v, n), 0) + 1
                remaining -= 1
                if trace:
                    realized = p_vn + aq_vn
                    note(v, n, "create", v, realized, max(aq_vn + p_vn, aq_vn))
                continue
            served = False
            for v2 in ctx.fallback_order(v, n):
                state_2 = states[v2]
                d = ctx.d[v][v2]
                if state_2.cache[n] > 0:
                    # idle container beyond the d <= p radius: still cheaper
                    # than creating next to it
                    state_2.consume_cache(n, 1)
                    policy.on_invocation(state_2, n, t)
                    key = (v, v2, n)
                    offloaded[key] = offloaded.get(key, 0) + 1
                    remaining -= 1
                    served = True
                    if trace:
                        note(v, n, "offload", v2, d + aq_vn, max(aq_vn + p_vn, aq_vn + d))
                    break
                if _make_room(state_2, v2, mem, ctx, policy, rng, t, destroyed):
                    state_2.add_active(n, mem)
                    policy.on_invocation(state_2, n, t)
                    created[(v2, n)] = created.get((v2, n), 0) + 1
                    key = (v, v2, n)
                    offloaded[key] = offloaded.get(key, 0) + 1
                    decision.fallback_creations += 1
                    remaining -= 1
                    served = True
                    if audit is not None:
                        # outside the worst-case analysis; not bound-checked
                        realized = d + ctx.p[v2][n] + aq_vn
                        audit.append(AuditRecord(t, v, n, "create", v2, realized, max(aq_vn + p_vn, aq_vn + d)))
                    break
            if not served:
                key = (v, n)
                decision.rejected[key] = decision.rejected.get(key, 0) + remaining
                if audit is not None:
                    for _ in range(remaining):
                        audit.append(AuditRecord(t, v, n, "reject", -1, 0.0, 0.0))
                remaining = 0
    return decision


def end_interval(states: list[NodeState], policy, now: int, catalog) -> list[tuple[int, int, int]]:
    """Finish the interval: active containers idle into the cache, then the
    policy's sweep runs (TTL expiry for fc, full flush for nocache)."""
    destructions = []
    for state in states:
        state.flush_active_to_cache()
        for ftype, count in policy.end_of_interval(state, now):
            if not 0 <= ftype < len(catalog):
                raise ContractError(f"policy returned unknown type {ftype}")
            if count:
                state.remove_cached(ftype, catalog[ftype].mem_mb, count)
                destructions.append((state.node_id, ftype, count))
    return destructions


def write_audit_csv(records: list[AuditRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval", "origin", "ftype", "action", "serving_node", "marginal_cost", "bound"])
        for r in records:
            writer.writerow([r.interval, r.origin, r.ftype, r.action, r.serving_node, repr(r.marginal_cost), repr(r.bound)])
