"""Per-interval request distribution: warm hits, neighbor offloading, creation."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .costs import IntervalDecision
from .errors import ContractError, InvariantViolation
from .model import CostParams, NodeState, RequestBatch, Topology, running_cost, switching_cost

@dataclass
class AuditRecord:
    """One request; a batch's equal records share one instance, never mutated."""

    interval: int
    origin: int
    ftype: int
    action: str
    serving_node: int
    marginal_cost: float
    bound: float


class RoutingContext:
    """Precomputed per-(node, type) cost tables and offload candidate tables.

    `offload[v][n]` lists the nodes a type-n request from origin v may be
    offloaded to: every other node v2 whose communication cost d = d[v][v2]
    does not exceed the origin's switching cost p[v][n], as (v2, d) pairs in
    ascending (d, id) order. An origin's lists are prefixes of its one sorted
    neighbour list.

    `whole_mem` holds the container sizes as ints when every size is a whole
    number of MB and every capacity is below 2**53 MB, and is None otherwise:
    only then is a no-cache interval that fits closed as it is routed
    (`distribute_interval`).
    """

    def __init__(self, topology: Topology, catalog, params: CostParams):
        self.topology = topology
        self.catalog = catalog
        self.n_nodes = topology.n_nodes
        self.mem = [f.mem_mb for f in catalog]
        self.capacity = [node.capacity_mb for node in topology.nodes]
        whole = all(float(m).is_integer() for m in self.mem) and max(self.capacity) < 2**53
        self.whole_mem = [int(m) for m in self.mem] if whole else None
        self.d = [[float(x) for x in row] for row in topology.comm_cost]
        self.p = [
            [switching_cost(node, f, params) for f in catalog] for node in topology.nodes
        ]
        self.q = [
            [running_cost(node, f, params) for f in catalog] for node in topology.nodes
        ]
        self.aq = [[params.alpha * q for q in row] for row in self.q]
        self.offload = []
        for v in range(self.n_nodes):
            near = sorted((self.d[v][v2], v2) for v2 in range(self.n_nodes) if v2 != v)
            dists = [d for d, _ in near]
            pairs = [(v2, d) for d, v2 in near]
            self.offload.append([pairs[: bisect_right(dists, p)] for p in self.p[v]])

    def fallback_order(self, v: int, n: int) -> list[int]:
        """All other nodes by ascending (d + p at the candidate), for overflow."""
        return sorted(
            (v2 for v2 in range(self.n_nodes) if v2 != v),
            key=lambda v2: (self.d[v][v2] + self.p[v2][n], v2),
        )


def _make_room(state, mem_needed, ctx, policy, rng, destroyed, states):
    """Evict cached containers via the policy until one more container fits."""
    capacity = ctx.capacity[state.node_id]
    while state.used_mb + mem_needed > capacity:
        if not any(state.cache):
            return False
        victim = policy.select_victim(state, ctx.catalog, rng, states)
        state.remove_cached(victim, ctx.mem[victim], 1)
        key = (state.node_id, victim)
        destroyed[key] = destroyed.get(key, 0) + 1
    return True


def _close_if_fits(batch: RequestBatch, states: list[NodeState], ctx: RoutingContext) -> IntervalDecision | None:
    """Route, close and price one interval of a policy that holds no idle
    container by one fit test and one fold over its keys, when every origin
    can host its own requests; None, with nothing changed, when one cannot.
    The keys ascend, so each origin's requests are one run of them.

    Sizes are whole MB and capacities below 2**53 MB (`ctx.whole_mem`), so
    every occupancy the router forms container by container, `used + mem`,
    is an exact integer: it creates every request at its origin exactly when
    used_mb + Σ mem·count <= capacity there. The fit test takes Σ mem·count
    in ints and compares it with capacity - used_mb, which is exact as well,
    since `used_mb` is a sum of whole sizes. The close would then destroy
    every container routing created, so `active` and `used_mb` would end at
    their own bits: nothing in `states` is written. The batch's counts are
    read, never written: every lane shares them.

    A key that passes its fit test is priced in the same pass: p·c into the
    switching and q·c into the running sum, each a fold from 0.0 in batch
    order, the order `interval_switching_cost` and `close_created` add in.
    A key is priced only once it fits, so a count beyond float range routes
    open instead of overflowing a price.
    """
    mems = ctx.whole_mem
    capacity = ctx.capacity
    p = ctx.p
    q = ctx.q
    created = {}
    switching = running = 0.0
    origin = -1
    for key, c in batch.counts.items():
        if c:
            v, n = key
            if v != origin:
                origin = v
                room = capacity[v] - states[v].used_mb
                need = 0
                p_v = p[v]
                q_v = q[v]
            need += mems[n] * c
            if need > room:
                return None
            created[key] = c
            switching += p_v[n] * c
            running += q_v[n] * c
    return IntervalDecision(
        interval=batch.interval, local_served=dict(created), created=created,
        closed=True, switching=switching, running=running,
    )


def distribute_interval(
    batch: RequestBatch,
    states: list[NodeState],
    ctx: RoutingContext,
    policy,
    rng,
    audit: list[AuditRecord] | None = None,
    check: bool = False,
) -> IntervalDecision:
    """Route one interval's requests in the order `batch.counts` iterates:
    ascending (node, type), as every `RequestBatch` keeps it.

    Each (origin, type) group is served from the origin's cache first, then
    from cached containers at nodes whose communication cost does not exceed
    the origin's switching cost (nearest first). The rest walks the origin
    and then, once the origin cannot finish it even with an empty cache, the
    other nodes by ascending (d + p), sorted only then: each node serves from
    its cache and creates as many containers at once as fit, evicting via the
    policy under capacity pressure; what no node can host is rejected. A
    policy that holds no idle container while requests are routed
    (`holds_idle` False) has nothing to hit, offload to or evict, so its
    groups go straight to the walk. Each request is audited at the context's
    alpha. With `check` set, all but overflow creations are bound-checked
    once per channel, the requests one step serves at one node: a request's
    realized cost is cost + alpha*q and its bound alpha*q + max(p, d), so it
    meets the bound at every alpha exactly when cost <= max(p, d), and a
    channel that breaks this compare raises InvariantViolation, its record
    priced at the context's alpha. Each step moves its containers; a step
    of a policy that holds idle containers also keeps the serving node's
    `freq`/`last_used`, which no one reads for any other policy.

    An interval of such a policy that is neither audited nor bound-checked,
    with whole-MB sizes (`ctx.whole_mem`) and every origin able to host its
    own requests, is closed as it is routed: its decision comes back
    `closed` and priced, every request created at its origin, with no
    container left alive and `used_mb` at its own bits (`_close_if_fits`).
    Every other interval is routed step by step as above.
    """
    if not policy.holds_idle and audit is None and not check and ctx.whole_mem is not None:
        decision = _close_if_fits(batch, states, ctx)
        if decision is not None:
            return decision
    t = batch.interval
    decision = IntervalDecision(interval=t)
    local_served = decision.local_served
    offloaded = decision.offloaded
    created = decision.created
    destroyed = decision.destroyed
    mems = ctx.mem
    p = ctx.p
    offload = ctx.offload
    capacity = ctx.capacity
    aq_audit = ctx.aq
    holds_idle = policy.holds_idle
    trace = audit is not None or check

    def note(origin, n, action, serving, cost, top, count):
        """Audit and bound-check the `count` requests of one channel, each
        costing cost + alpha*q against the bound max(alpha*q + p, alpha*q + d)
        = alpha*q + top, with top = max(p, d). Overflow creations, which the
        worst-case analysis does not cover, are audited where they happen."""
        if audit is not None:
            aq = aq_audit[origin][n]
            audit.extend([AuditRecord(t, origin, n, action, serving, cost + aq, aq + top)] * count)
        # alpha*q cancels: the channel's requests meet their bound at every
        # alpha exactly when cost <= top, so one compare judges them all
        if check and cost > top:
            aq = aq_audit[origin][n]
            raise InvariantViolation(
                f"per-request cost bound exceeded: {AuditRecord(t, origin, n, action, serving, cost + aq, aq + top)}"
            )

    for key, lam in batch.counts.items():
        if not lam:
            continue
        v, n = key
        state_v = states[v]
        mem = mems[n]
        p_vn = p[v][n]
        remaining = lam
        if holds_idle:
            # 1) serve from the origin's own cache
            hit = state_v.cache[n]
            if hit:
                if hit > lam:
                    hit = lam
                state_v.cache[n] -= hit
                state_v.active[n] += hit
                state_v.freq[n] += hit
                state_v.last_used[n] = t
                local_served[key] = hit
                remaining -= hit
                if trace:
                    note(v, n, "hit", v, 0.0, p_vn, hit)
                if not remaining:
                    continue

            # 2) offload to cached containers at nodes with d <= p, nearest first
            for v2, d in offload[v][n]:
                state_2 = states[v2]
                take = state_2.cache[n]
                if not take:
                    continue
                if take > remaining:
                    take = remaining
                state_2.cache[n] -= take
                state_2.active[n] += take
                state_2.freq[n] += take
                state_2.last_used[n] = t
                route = (v, v2, n)
                offloaded[route] = offloaded.get(route, 0) + take
                remaining -= take
                if trace:
                    note(v, n, "offload", v2, d, p_vn, take)  # d <= p here
                if not remaining:
                    break

        # 3) walk the origin, then the other nodes by ascending d + p, each serving its idle
        # containers (the origin's went in step 1), then all that fit at once, one `+= mem` each
        u, state_u, overflow = v, state_v, None
        while True:
            cap = capacity[u]
            while remaining and (state_u.used_mb + mem <= cap or _make_room(state_u, mem, ctx, policy, rng, destroyed, states)):
                used = state_u.used_mb
                k = 0
                while k < remaining and used + mem <= cap:
                    used += mem
                    k += 1
                if not k:
                    raise ContractError(f"node {u}: a creation step for type {n} created nothing")
                state_u.used_mb = used
                state_u.active[n] += k
                if holds_idle:
                    state_u.freq[n] += k
                    state_u.last_used[n] = t
                remaining -= k
                if u == v:
                    created[key] = created.get(key, 0) + k
                    local_served[key] = local_served.get(key, 0) + k
                    if trace:
                        note(v, n, "create", v, p_vn, p_vn, k)
                else:
                    created[(u, n)] = created.get((u, n), 0) + k
                    offloaded[(v, u, n)] = offloaded.get((v, u, n), 0) + k
                    decision.fallback_creations += k
                    if audit is not None:
                        # outside the worst-case analysis: audited, never bound-checked
                        aq = aq_audit[v][n]
                        audit.extend([AuditRecord(t, v, n, "create", u, d + p[u][n] + aq, aq + max(p_vn, d))] * k)
            if not remaining:
                break
            if overflow is None:
                overflow = iter(ctx.fallback_order(v, n))
            u = next(overflow, None)
            if u is None:
                # 4) no node can host the rest
                decision.rejected[key] = remaining
                if audit is not None:
                    audit.extend([AuditRecord(t, v, n, "reject", -1, 0.0, 0.0)] * remaining)
                break
            state_u = states[u]
            d = ctx.d[v][u]
            take = state_u.cache[n]
            if take:
                if take > remaining:
                    take = remaining
                state_u.cache[n] -= take
                state_u.active[n] += take
                state_u.freq[n] += take
                state_u.last_used[n] = t
                offloaded[(v, u, n)] = offloaded.get((v, u, n), 0) + take
                remaining -= take
                if trace:
                    note(v, n, "offload", u, d, max(p_vn, d), take)
    return decision


def close_created(decision: IntervalDecision, states: list[NodeState], ctx: RoutingContext) -> float:
    """Close one interval of a policy that holds no idle container, routed
    step by step: price one interval of q for every container `decision`
    created, node-major and type-minor, and destroy them with one
    `used_mb -=` per (node, type).

    Every cache was empty when the interval started, so the created
    containers are all that is alive; this prices and destroys exactly what
    `interval_running_cost` followed by `end_interval` would, to the bit.
    A `closed` decision is not for this close: its containers are gone
    already and its costs are on the decision.
    """
    running = 0.0
    q = ctx.q
    mems = ctx.mem
    for (v, n), count in sorted(decision.created.items()):
        running += q[v][n] * count
        state = states[v]
        state.active[n] = 0
        state.used_mb -= mems[n] * count
    return running


def end_interval(
    states: list[NodeState], policy, now: int, catalog, decision: IntervalDecision
) -> list[tuple[int, int, int]]:
    """Run the policy's end-of-interval sweep (TTL expiry for fc), once the
    active containers have idled into the cache, and destroy what it
    returns: (node, type, count) triples, node-major and type-minor.
    `decision` is the interval's routing decision; fc visits only the cells
    it names and those that fall due. A no-cache lane closes by
    `close_created` instead."""
    destructions = policy.end_of_interval(states, now, decision)
    for v, ftype, count in destructions:
        if not 0 <= ftype < len(catalog):
            raise ContractError(f"policy returned unknown type {ftype}")
        states[v].remove_cached(ftype, catalog[ftype].mem_mb, count)
    return destructions


def write_audit_csv(records: list[AuditRecord], path) -> None:
    """Write one CSV line per record, with csv.writer's bytes: every field is
    an int, an action word or a float repr, none of which needs quoting.

    The work is done once per run of one shared record: a record that is the
    previous one reuses its line, and each distinct (marginal_cost, bound)
    pair formats its tail once. A zero pair is formatted afresh, since
    -0.0 == 0.0 but their reprs differ.
    """
    tails: dict[tuple[float, float], str] = {}
    prev = line = None
    with open(path, "w", newline="") as fh:
        write = fh.write
        write("interval,origin,ftype,action,serving_node,marginal_cost,bound\r\n")
        for rec in records:
            if rec is not prev:
                prev = rec
                pair = (rec.marginal_cost, rec.bound)
                tail = tails.get(pair)
                if tail is None:
                    tail = f"{rec.marginal_cost!r},{rec.bound!r}\r\n"
                    if rec.marginal_cost and rec.bound:
                        tails[pair] = tail
                line = f"{rec.interval},{rec.origin},{rec.ftype},{rec.action},{rec.serving_node},{tail}"
            write(line)
