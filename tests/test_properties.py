"""Property tests over random tiny topologies and replayed batches.

`sweep` simulates each (seed, beta, policy) once and prices every alpha from
that run's unweighted ledger; the first properties guard that shortcut: alpha
reweights the ledger and never changes a trajectory. The routing properties
hold conservation, capacity and occupancy under tight capacities, and check
the table-driven `distribute_interval` against the per-request loop it
replaced, and the one-pass fc entry logs against the two-pass class they
replaced. The lane property checks lanes run in lockstep on one request
stream against lone runs of the per-trajectory loop they replaced. The
oracle properties check its one pass from priced pairs to kept states
against a per-pair walk over every destruction vector (at any block size, in
an interval no request follows, and with every keep cap above zero), its
witness replay,
its optimum against every policy, and its refusal of instances over the
enumeration budget. The reader fuzz feeds the CSV readers
arbitrary bytes.
"""

import copy
import itertools
import math
import tempfile
from collections import deque
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from edgesim import oracle, scheduler, sim
from edgesim.costs import (
    CostLedger,
    IntervalDecision,
    interval_comm_cost,
    interval_running_cost,
    interval_switching_cost,
)
from edgesim.errors import ConfigError, ContractError, InstanceTooLarge
from edgesim.model import (
    DEFAULT_CATALOG,
    CostParams,
    EdgeNode,
    FunctionType,
    NodeState,
    RequestBatch,
    Topology,
    load_catalog,
    load_topology,
    validate_setup,
)
from edgesim.oracle import MAX_ENUM_OPS, MAX_INTERVALS, TinyInstance, solve_exact
from edgesim.policies import POLICY_NAMES, EvictionPolicy, FixedCaching, NoCache, make_policy
from edgesim.scheduler import (
    AuditRecord,
    BoundChecks,
    RoutingContext,
    distribute_interval,
    end_interval,
)
from edgesim.sim import SimConfig, SweepGrid, derive_seed, run, summary_json, sweep
from edgesim.workload import read_trace

from conftest import (
    FlushingNoCache,
    MirroredStats,
    make_stepping_policy,
    occupancy,
    price_nocache,
    random_tiny_instance,
    record_invocations,
    take_cached,
)

# alpha * q <= p needs alpha <= 1 / cpu^2, so every alpha below is feasible
CPUS = (1.0, 1.5, 2.0, 2.5)
ALPHAS = st.floats(min_value=0.0005, max_value=0.15, allow_nan=False, allow_infinity=False)
UNWEIGHTED = ("switching", "communication", "running", "cold_starts", "requests")

SETTINGS = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# Capacities the catalog fills exactly: 332, 332 + 55, 332 + 158, and
# 332 + 158 + 55 + 55 MB, so containers fit with no room to spare.
TIGHT_CAPACITIES = (332.0, 387.0, 490.0, 600.0)
# Sizes whose sums are inexact in binary, so `used_mb` carries a float residue
# from one interval to the next wherever containers are created and destroyed.
FRACTIONAL_CATALOG = tuple(FunctionType(n, mem) for n, mem in enumerate((50.3, 157.7, 331.9, 92.1)))


@st.composite
def tiny_configs(
    draw, max_nodes=3, capacities=(400.0, 700.0, 1500.0), max_count=3, max_horizon=8,
    catalogs=(DEFAULT_CATALOG,), global_stats=(False,),
):
    n_nodes = draw(st.integers(1, max_nodes))
    nodes = [
        EdgeNode(
            v,
            draw(st.sampled_from(capacities)),
            draw(st.sampled_from(CPUS)),
            coord=(draw(st.floats(0, 60)), draw(st.floats(0, 60))),
        )
        for v in range(n_nodes)
    ]
    comm = np.array([[abs(a.coord[0] - b.coord[0]) + abs(a.coord[1] - b.coord[1]) for b in nodes] for a in nodes])
    horizon = draw(st.integers(1, max_horizon))
    catalog = draw(st.sampled_from(catalogs))
    count = st.integers(0, max_count)
    batches = [
        RequestBatch(t, {(v, n): c for v in range(n_nodes) for n in range(len(catalog)) if (c := draw(count))})
        for t in range(1, horizon + 1)
    ]
    return SimConfig(
        topology=Topology(nodes=nodes, comm_cost=comm),
        catalog=catalog,
        params=CostParams(alpha=0.005),
        policy="pcache",
        horizon=horizon,
        seed=draw(st.integers(0, 2**31)),
        batches=batches,
        ttl=draw(st.integers(0, 3)),
        global_stats=draw(st.sampled_from(global_stats)),
        check="full",
    )


def _alpha_free(result):
    s = result.summary
    rows = [tuple(getattr(row, name) for name in UNWEIGHTED) for row in result.ledger.rows]
    return rows, s["rejections"], s["fallback_creations"], s["intervals"], s["truncated"]


@SETTINGS
@given(config=tiny_configs(), alphas=st.lists(ALPHAS, min_size=2, max_size=2, unique=True))
def test_alpha_never_changes_the_trajectory(config, alphas):
    for policy in POLICY_NAMES:
        a, b = (run(replace(config, policy=policy, params=CostParams(alpha=alpha))) for alpha in alphas)
        assert _alpha_free(a) == _alpha_free(b)


@SETTINGS
@given(config=tiny_configs(), alphas=st.lists(ALPHAS, min_size=2, max_size=2, unique=True))
def test_sweep_records_equal_direct_runs(config, alphas):
    grid = SweepGrid(alphas=alphas, betas=[1.0], policies=list(POLICY_NAMES), seeds=[5])
    records, errors = sweep(grid, config)
    assert errors == []
    assert len(records) == len(alphas) * len(POLICY_NAMES)
    for rec in records:
        cell = replace(
            config,
            policy=rec["policy"],
            params=replace(config.params, alpha=rec["alpha"]),
            seed=derive_seed(5, "cell", None),
        )
        direct = dict(run(cell).summary, seed=5)
        assert rec == direct


def pressure_configs(catalogs=(DEFAULT_CATALOG,), global_stats=(False,)):
    """1-4 nodes of tight capacity, up to 6 requests per (node, type), any policy."""
    configs = tiny_configs(
        max_nodes=4, capacities=TIGHT_CAPACITIES, max_count=6, catalogs=catalogs, global_stats=global_stats,
    )
    return st.builds(lambda config, policy: replace(config, policy=policy), configs, st.sampled_from(POLICY_NAMES))


def _make_room_reference(state, node_id, mem_needed, ctx, policy, rng, destroyed, states):
    capacity = ctx.capacity[node_id]
    while state.used_mb + mem_needed > capacity:
        if not any(state.cache):
            return False
        victim = policy.select_victim(state, ctx.catalog, rng, states)
        state.remove_cached(victim, ctx.mem[victim], 1)
        key = (node_id, victim)
        destroyed[key] = destroyed.get(key, 0) + 1
    return True


def distribute_one_request_at_a_time(batch, states, ctx, policy, rng, audit=None, check=None, mirror=None):
    """Reference for `scheduler.distribute_interval`: the loop it replaced,
    which scans every other node by (distance, id) until one is beyond the
    switching cost, and creates one container per pass. It records every
    invocation on `mirror` too, when given."""
    t = batch.interval
    decision = IntervalDecision(interval=t)
    local_served = decision.local_served
    offloaded = decision.offloaded
    created = decision.created
    destroyed = decision.destroyed
    aq_audit = ctx.aq
    neighbor_order = [
        sorted((v2 for v2 in range(ctx.n_nodes) if v2 != v), key=lambda v2: (ctx.d[v][v2], v2))
        for v in range(ctx.n_nodes)
    ]

    def note(origin, n, action, serving, cost, top):
        if audit is not None:
            aq = aq_audit[origin][n]
            audit.append(AuditRecord(t, origin, n, action, serving, cost + aq, aq + top))
        if check is not None:
            for alpha, aq_table in check.live.items():
                aq = aq_table[origin][n]
                if cost + aq > aq + top + 1e-9:
                    check.fail(alpha, AuditRecord(t, origin, n, action, serving, cost + aq, aq + top))

    for (v, n), lam in sorted(batch.counts.items()):
        if lam == 0:
            continue
        state_v = states[v]
        mem = ctx.mem[n]
        p_vn = ctx.p[v][n]
        trace = audit is not None or check is not None
        hit = min(lam, state_v.cache[n])
        if hit:
            take_cached(state_v, n, hit)
            record_invocations(state_v, n, t, count=hit, mirror=mirror)
            local_served[(v, n)] = local_served.get((v, n), 0) + hit
            if trace:
                for _ in range(hit):
                    note(v, n, "hit", v, 0.0, p_vn)
        if hit == lam:
            continue
        remaining = lam - hit
        for v2 in neighbor_order[v]:
            d = ctx.d[v][v2]
            if d > p_vn:
                break
            state_2 = states[v2]
            take = min(remaining, state_2.cache[n])
            if take:
                take_cached(state_2, n, take)
                record_invocations(state_2, n, t, count=take, mirror=mirror)
                key = (v, v2, n)
                offloaded[key] = offloaded.get(key, 0) + take
                remaining -= take
                if trace:
                    for _ in range(take):
                        note(v, n, "offload", v2, d, p_vn)
                if remaining == 0:
                    break
        while remaining:
            if _make_room_reference(state_v, v, mem, ctx, policy, rng, destroyed, states):
                state_v.active[n] += 1
                state_v.used_mb += mem
                record_invocations(state_v, n, t, mirror=mirror)
                created[(v, n)] = created.get((v, n), 0) + 1
                local_served[(v, n)] = local_served.get((v, n), 0) + 1
                remaining -= 1
                if trace:
                    note(v, n, "create", v, p_vn, p_vn)
                continue
            served = False
            for v2 in ctx.fallback_order(v, n):
                state_2 = states[v2]
                d = ctx.d[v][v2]
                if state_2.cache[n] > 0:
                    take_cached(state_2, n, 1)
                    record_invocations(state_2, n, t, mirror=mirror)
                    key = (v, v2, n)
                    offloaded[key] = offloaded.get(key, 0) + 1
                    remaining -= 1
                    served = True
                    if trace:
                        note(v, n, "offload", v2, d, max(p_vn, d))
                    break
                if _make_room_reference(state_2, v2, mem, ctx, policy, rng, destroyed, states):
                    state_2.active[n] += 1
                    state_2.used_mb += mem
                    record_invocations(state_2, n, t, mirror=mirror)
                    created[(v2, n)] = created.get((v2, n), 0) + 1
                    key = (v, v2, n)
                    offloaded[key] = offloaded.get(key, 0) + 1
                    decision.fallback_creations += 1
                    remaining -= 1
                    served = True
                    if audit is not None:
                        aq_vn = aq_audit[v][n]
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


def _decision_items(decision):
    # insertion order too: costs are summed in dict order
    return [
        list(getattr(decision, name).items())
        for name in ("local_served", "offloaded", "created", "destroyed", "rejected")
    ] + [decision.interval, decision.fallback_creations]


def _node_states(states, stats=True):
    """Each node's state; without its invocation statistics unless `stats`,
    which a no-cache lane does not keep."""
    if not stats:
        return [(s.node_id, s.active, s.cache, s.used_mb) for s in states]
    return [(s.node_id, s.active, s.cache, s.freq, s.last_used, s.used_mb) for s in states]


def _assert_routers_agree(config, ctx, alphas):
    """Route `config`'s batches through `distribute_interval` and the
    reference on `ctx`, both bound-checked at `alphas`, and assert that they
    agree after every interval: decisions, node states, policy, rng, audit
    and bound failures."""
    n_types = len(config.catalog)
    mirror = MirroredStats(n_types)
    sides = []
    for route in (distribute_interval, partial(distribute_one_request_at_a_time, mirror=mirror)):
        states = [NodeState(v, n_types) for v in range(ctx.n_nodes)]
        policy = make_stepping_policy(config.policy, n_types, ttl=config.ttl, global_stats=config.global_stats)
        sides.append((route, states, policy, np.random.default_rng(config.seed), [], BoundChecks(ctx, alphas)))
    for batch in config.batches:
        decisions = [route(batch, states, ctx, policy, rng, audit, check) for route, states, policy, rng, audit, check in sides]
        (_, states, policy, rng, audit, check), (_, ref_states, ref_policy, ref_rng, ref_audit, ref_check) = sides
        assert _decision_items(decisions[0]) == _decision_items(decisions[1])
        assert _node_states(states) == _node_states(ref_states)
        assert vars(policy) == vars(ref_policy)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert audit == ref_audit
        assert list(map(str, check.failures.items())) == list(map(str, ref_check.failures.items()))
        assert list(check.live) == list(ref_check.live)
        if config.global_stats:
            for state in states:
                assert policy._stats(state, states) == (mirror.freq, mirror.last_used)
        for (_, states, policy, *_), decision in zip(sides, decisions):
            interval_running_cost(states, ctx)
            end_interval(states, policy, batch.interval, config.catalog, decision)


@SETTINGS
@given(config=pressure_configs(catalogs=(DEFAULT_CATALOG, FRACTIONAL_CATALOG), global_stats=(False, True)))
def test_table_routing_equals_one_request_at_a_time(config):
    # fractional sizes leave a residue in `used_mb` that each creation folds
    # into; under global statistics every eviction derives its tables from
    # the node states, which the reference mirrors request by request
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    _assert_routers_agree(config, ctx, [config.params.alpha])


# Switching costs that put a warm hit's cost, 0.0, above its bound term p:
# within the 1e-9 tolerance, just beyond it, and far beyond it.
DOCTORED_P = st.sampled_from([-1e-10, -2e-9, -0.5, -60.0])


@SETTINGS
@given(
    config=pressure_configs(),
    doctored=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), DOCTORED_P, max_size=6),
    alpha=ALPHAS,
)
def test_guarded_bound_checks_fail_as_the_unguarded_reference(config, doctored, alpha):
    # `note` loops over the alphas only for a channel whose cost exceeds its
    # bound term; the reference checks every request at every alpha. Negative
    # switching costs make some hit channels such candidates, at alphas whose
    # alpha*q the doctoring survives and at 1e20, where it rounds away. The
    # context is built from the doctored costs, so its offload tables agree
    # with the reference's scan (no neighbour lies within a negative p).
    switching_cost = scheduler.switching_cost

    def doctored_switching_cost(node, f, params):
        return doctored.get((node.id, f.id), switching_cost(node, f, params))

    with mock.patch.object(scheduler, "switching_cost", doctored_switching_cost):
        ctx = RoutingContext(config.topology, config.catalog, config.params)
    alphas = list(dict.fromkeys([config.params.alpha, alpha, 1e20]))
    _assert_routers_agree(config, ctx, alphas)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(pair=st.lists(finite_floats, min_size=2, max_size=2).map(sorted), aq=finite_floats)
@example(pair=[-1.0, -1.0], aq=1e20)
@example(pair=[5e-324, 1.7976931348623157e308], aq=-1.7976931348623157e308)
@example(pair=[1.7976931348623157e308, 1.7976931348623157e308], aq=1.7976931348623157e308)
def test_a_cost_within_its_bound_term_passes_at_every_alpha(pair, aq):
    # the guard in `note`: cost <= top settles the check at any alpha*q, since
    # rounding is monotone and + commutes
    cost, top = pair
    assert not (cost + aq > aq + top + 1e-9)


@SETTINGS
@given(config=pressure_configs())
def test_routing_conserves_requests_within_capacity(config):
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    n_types = len(config.catalog)
    states = [NodeState(v, n_types) for v in range(ctx.n_nodes)]
    policy = make_stepping_policy(config.policy, n_types, ttl=config.ttl)
    rng = np.random.default_rng(config.seed)

    def check_occupancy():
        for state in states:
            occ = occupancy(state, config.catalog)
            assert occ <= ctx.capacity[state.node_id]
            assert state.used_mb == occ  # the catalog's sizes are whole MB: sums are exact

    for batch in config.batches:
        decision = distribute_interval(batch, states, ctx, policy, rng)
        decision.check_conservation(batch)
        check_occupancy()
        interval_running_cost(states, ctx)
        end_interval(states, policy, batch.interval, config.catalog, decision)
        check_occupancy()


@SETTINGS
@given(config=tiny_configs(
    max_nodes=4, capacities=TIGHT_CAPACITIES, max_count=6,
    catalogs=(DEFAULT_CATALOG, FRACTIONAL_CATALOG), global_stats=(False, True),
))
def test_admission_step_equals_full_routing(config):
    # a no-cache lane's caches are empty at every interval start, so routing
    # by creation alone, or closing an interval that fits as it is routed,
    # and closing by destroying what was created decide, price and close as
    # full routing and the step-by-step close do; only the reference keeps
    # invocation statistics
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    n_types = len(config.catalog)
    sides = [
        ([NodeState(v, n_types) for v in range(ctx.n_nodes)], make(n_types, global_stats=config.global_stats))
        for make in (NoCache, FlushingNoCache)
    ]
    (states, policy), (ref_states, ref_policy) = sides
    rng = np.random.default_rng(config.seed)
    for batch in config.batches:
        decision = distribute_interval(batch, states, ctx, policy, rng)
        switching, running = price_nocache(decision, states, ctx)
        ref = distribute_one_request_at_a_time(batch, ref_states, ctx, ref_policy, rng)
        ref_running = interval_running_cost(ref_states, ctx)
        end_interval(ref_states, ref_policy, batch.interval, config.catalog, ref)
        decision.check_conservation(batch)
        # insertion order fixes the float sums of the switching and communication costs
        assert _decision_items(decision) == _decision_items(ref)
        assert switching.hex() == interval_switching_cost(ref, ctx).hex()
        assert running.hex() == ref_running.hex()
        assert _node_states(states, stats=False) == _node_states(ref_states, stats=False)
        assert vars(policy) == vars(ref_policy)


# The requests of each type that fill a node of each tight capacity exactly.
EXACT_FILLS = {332.0: {2: 1}, 387.0: {0: 1, 2: 1}, 490.0: {1: 1, 2: 1}, 600.0: {0: 2, 1: 1, 2: 1}}


@st.composite
def streams_with_zero_counts(draw):
    """Tight no-cache streams on either catalog. In each batch, some nodes
    ask for exactly what fills them on the default catalog, and up to three
    zero-count keys are added."""
    config = draw(tiny_configs(
        max_nodes=4, capacities=TIGHT_CAPACITIES, max_count=2, max_horizon=10,
        catalogs=(DEFAULT_CATALOG, FRACTIONAL_CATALOG), global_stats=(False, True),
    ))
    nodes = config.topology.nodes
    keys = st.sampled_from([(v, n) for v in range(len(nodes)) for n in range(len(config.catalog))])
    batches = []
    for b in config.batches:
        counts = dict.fromkeys(draw(st.lists(keys, max_size=3)), 0)
        filled = draw(st.sets(st.sampled_from(range(len(nodes)))))
        counts.update({key: c for key, c in b.counts.items() if key[0] not in filled})
        for v in filled:
            counts.update({(v, n): c for n, c in EXACT_FILLS[nodes[v].capacity_mb].items()})
        batches.append(RequestBatch(b.interval, counts))
    return replace(config, batches=batches)


def _state_bits(states):
    return [(s.node_id, s.active, s.cache, s.used_mb.hex()) for s in states]


@settings(SETTINGS, max_examples=100)
@given(config=streams_with_zero_counts())
def test_nocache_closed_as_routed_equals_open_routing(config):
    # a lone NoCache lane closes and prices each interval that fits as it
    # routes it; FlushingNoCache holds idle containers as far as the router
    # knows, so every interval of it is routed open, closed by close_created
    # and keeps invocation statistics, which a NoCache lane does not.
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    n_types = len(config.catalog)
    lane, ref = (
        ([NodeState(v, n_types) for v in range(ctx.n_nodes)], make(n_types, global_stats=config.global_stats))
        for make in (NoCache, FlushingNoCache)
    )
    rng = np.random.default_rng(config.seed)
    for batch in config.batches:
        counts = list(batch.counts.items())
        (decision, (switching, running)), (ref_decision, (ref_switching, ref_running)) = [
            (d := distribute_interval(batch, states, ctx, policy, rng), price_nocache(d, states, ctx))
            for states, policy in (lane, ref)
        ]
        assert list(batch.counts.items()) == counts  # every lane shares the batch
        assert not ref_decision.closed
        assert _decision_items(decision) == _decision_items(ref_decision)
        assert decision.total_created() == ref_decision.total_created()
        assert repr(switching) == repr(ref_switching)
        assert repr(interval_comm_cost(decision, config.topology)) == repr(interval_comm_cost(ref_decision, config.topology))
        assert repr(running) == repr(ref_running)
        assert _state_bits(lane[0]) == _state_bits(ref[0])
        assert vars(lane[1]) == vars(ref[1])


@SETTINGS
@given(
    config=tiny_configs(
        max_nodes=4, capacities=TIGHT_CAPACITIES, max_count=6,
        catalogs=(DEFAULT_CATALOG, FRACTIONAL_CATALOG), global_stats=(False, True),
    ),
    check=st.sampled_from(("off", "full")),
    audit=st.booleans(),
)
def test_nocache_lane_keeps_no_state_between_intervals(config, check, audit):
    # closed as routed or routed open, with overflow and rejections on tight
    # nodes, audited or checked: a no-cache lane's nodes hold no container
    # and no invocation statistics when an interval starts or has closed
    config = replace(config, policy="nocache", check=check, audit=audit)
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    lane = sim._Lane(config, [config.params], ctx, {})
    zeros = [0] * len(config.catalog)

    def assert_stateless():
        for state in lane.states:
            assert state.active == state.cache == state.freq == state.last_used == zeros
            if config.catalog is DEFAULT_CATALOG:  # whole MB: occupancy sums are exact
                assert state.used_mb.hex() == (0.0).hex()

    assert_stateless()
    for batch in config.batches:
        assert lane.step(batch), lane.failures
        assert_stateless()


class TwoPassFixedCaching(EvictionPolicy):
    """Reference for `policies.FixedCaching`: the class before each entry log
    took one pass per method and before the sweep visited only the cells an
    interval touched or that fall due, verbatim but for the decision its
    sweep now takes and ignores: it scans every log of every node."""

    name = "fc"

    def __init__(self, n_types: int, ttl: int = 10, global_stats: bool = False):
        super().__init__(n_types, global_stats)
        if ttl < 0:
            raise ConfigError("fc ttl must be >= 0")
        self.ttl = ttl
        self._entries: dict[int, list[deque]] = {}

    def _node_entries(self, state: NodeState) -> list[deque]:
        entries = self._entries.get(state.node_id)
        if entries is None:
            entries = [deque() for _ in range(self.n_types)]
            self._entries[state.node_id] = entries
        return entries

    def _sync_consumed(self, state: NodeState, entries: list[deque]) -> None:
        # Cache counts only shrink mid-interval; drop the oldest entries that
        # were consumed by hits or destroyed by evictions since the last sync.
        for n in range(self.n_types):
            dq = entries[n]
            while len(dq) > state.cache[n]:
                dq.popleft()

    def select_victim(self, state, catalog, rng, now):
        entries = self._node_entries(state)
        self._sync_consumed(state, entries)
        best = None
        for n in range(self.n_types):
            if state.cache[n] < 1:
                continue
            entered = entries[n][0] if entries[n] else now
            key = (entered, n)
            if best is None or key < best:
                best = key
        if best is None:
            raise ContractError(f"node {state.node_id}: no cached containers to evict")
        return best[1]

    def end_of_interval(self, states, now, decision):
        destroy = []
        for state in states:
            entries = self._node_entries(state)
            self._sync_consumed(state, entries)
            for n in range(self.n_types):
                while len(entries[n]) < state.cache[n]:
                    entries[n].append(now)  # containers cached after serving this interval
            for n in range(self.n_types):
                dq = entries[n]
                count = 0
                while dq and now - dq[0] >= self.ttl:
                    dq.popleft()
                    count += 1
                if count:
                    destroy.append((state.node_id, n, count))
        return destroy


@st.composite
def fc_configs(draw):
    """Pressure configs under fc with any ttl from 0 to two past the horizon:
    between 2 and horizon - 1 the timer wheel's due cells meet evictions."""
    config = draw(tiny_configs(max_nodes=4, capacities=TIGHT_CAPACITIES, max_count=6, max_horizon=10))
    ttl = draw(st.integers(0, config.horizon + 2))
    return replace(config, policy="fc", ttl=ttl)


@settings(SETTINGS, max_examples=60)
@given(config=fc_configs())
def test_one_pass_fc_equals_two_pass(config):
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    n_types = len(config.catalog)
    policy = make_policy("fc", n_types, ttl=config.ttl)
    ref_policy = TwoPassFixedCaching(n_types, ttl=config.ttl)
    victims, ref_victims = [], []
    t = 0

    # record each victim; the reference also gets the interval it asks for
    def select_victim(state, catalog, rng, states):
        victim = FixedCaching.select_victim(policy, state, catalog, rng, states)
        victims.append((state.node_id, victim))
        return victim

    def ref_select_victim(state, catalog, rng, states):
        victim = TwoPassFixedCaching.select_victim(ref_policy, state, catalog, rng, t)
        ref_victims.append((state.node_id, victim))
        return victim

    policy.select_victim = select_victim
    ref_policy.select_victim = ref_select_victim
    sides = [
        ([NodeState(v, n_types) for v in range(ctx.n_nodes)], side_policy, np.random.default_rng(config.seed))
        for side_policy in (policy, ref_policy)
    ]
    (states, _, _), (ref_states, _, _) = sides
    for batch in config.batches:
        t = batch.interval
        sweeps = []
        for side_states, side_policy, rng in sides:
            decision = distribute_interval(batch, side_states, ctx, side_policy, rng)
            interval_running_cost(side_states, ctx)
            sweeps.append(end_interval(side_states, side_policy, t, config.catalog, decision))
        assert victims == ref_victims
        assert sweeps[0] == sweeps[1]
        assert _node_states(states) == _node_states(ref_states)
        # the sweep allocates a node's logs when it first visits the node: a
        # node without logs holds empty ones
        empty = [[] for _ in range(n_types)]
        for state in states:
            v = state.node_id
            logs = [list(dq) for dq in policy._entries[v]] if v in policy._entries else empty
            assert logs == [list(dq) for dq in ref_policy._entries[v]]
            # one entry per cached container, so a cached type's log is never empty
            assert [len(log) for log in logs] == state.cache


@SETTINGS
@given(config=pressure_configs())
def test_same_config_same_outputs(config):
    def outputs():
        result = run(replace(config, audit=True))
        return summary_json(result), result.ledger.rows, result.audit

    assert outputs() == outputs()


CHECK_LEVELS = ("off", "sample", "full")


def running_cost_before_flush(states, ctx):
    """The running cost as priced before the fused walk: q over active + cached."""
    total = 0.0
    for state in states:
        q_v = ctx.q[state.node_id]
        for n, cached in enumerate(state.cache):
            alive = state.active[n] + cached
            if alive:
                total += q_v[n] * alive
    return total


def idle(state):
    """The flush the walk replaced: every active container idles into the cache."""
    for n, count in enumerate(state.active):
        state.cache[n] += count
        state.active[n] = 0


def simulate_alone(config, params, check_states):
    """Reference for `sim._simulate`'s lanes: the loop that simulated one
    trajectory from a source of its own, priced the running cost before the
    flush, idled every node and called the policy's end-of-interval hook
    with the interval's decision."""
    failures = {}
    for p in params:
        try:
            validate_setup(config.topology, config.catalog, p)
        except ConfigError as exc:
            failures[p.alpha] = exc
    alphas = [p.alpha for p in params if p.alpha not in failures]
    out = SimpleNamespace(
        ledger=CostLedger(config.params.alpha), audit=[] if config.audit else None, failures=failures,
        rejections=0, fallback_creations=0, intervals=0, truncated=False, states=None, policy=None, rng=None,
    )
    if not alphas:
        return out
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    bounds = BoundChecks(ctx, alphas)
    try:
        n_types = len(config.catalog)
        out.states = states = [NodeState(v, n_types) for v in range(config.topology.n_nodes)]
        out.policy = policy = make_stepping_policy(config.policy, n_types, ttl=config.ttl, global_stats=config.global_stats)
        source = sim._workload_source(config)
        out.rng = rng = np.random.default_rng(derive_seed(config.seed, "policy", config.policy))
        for t in range(1, config.horizon + 1):
            batch = source.batch(t)
            if batch is None:
                out.truncated = True
                break
            check_now = config.check == "full" or (config.check == "sample" and t % 10 == 0)
            decision = distribute_interval(batch, states, ctx, policy, rng, audit=out.audit, check=bounds if check_now else None)
            if not bounds.live:
                break
            switching = interval_switching_cost(decision, ctx)
            communication = interval_comm_cost(decision, config.topology)
            running = running_cost_before_flush(states, ctx)
            if check_now:
                decision.check_conservation(batch)
                check_states(config, states, t)
            for state in states:
                idle(state)
            for v, n, count in policy.end_of_interval(states, t, decision):
                states[v].remove_cached(n, config.catalog[n].mem_mb, count)
            if check_now:
                check_states(config, states, t)
            out.ledger.append_interval(
                t, switching, communication, running, cold_starts=decision.total_created(), requests=batch.total()
            )
            out.rejections += decision.total_rejected()
            out.fallback_creations += decision.fallback_creations
            out.intervals = t
    except Exception as exc:
        for alpha in bounds.live:
            failures[alpha] = exc
    failures.update(bounds.failures)
    return out


def _trajectory(lane):
    """Everything a lane or a reference run ends with, comparable with ==."""
    return (
        lane.ledger.rows,
        lane.audit,
        {alpha: f"{type(exc).__name__}: {exc}" for alpha, exc in lane.failures.items()},
        (lane.rejections, lane.fallback_creations),
        _node_states(lane.states, stats=not isinstance(lane.policy, NoCache)) if lane.states else None,
        vars(lane.policy) if lane.policy else None,
        lane.rng.bit_generator.state if lane.rng else None,
    )


def _reference_summary(traj, config, alpha, baseline):
    requests = traj.ledger.total_requests()
    cold_starts = traj.ledger.total_cold_starts()
    total = traj.ledger.total_cost(alpha)
    if config.policy == "nocache":
        normalized = 1.0 if total > 0 else None
    else:
        normalized = total / baseline if baseline > 0 else None
    return {
        "policy": config.policy, "alpha": alpha, "beta": config.beta, "seed": config.seed,
        "total_cost": total, "normalized_cost": normalized,
        "cold_start_frequency": (cold_starts / requests) if requests else None,
        "rejections": traj.rejections, "fallback_creations": traj.fallback_creations,
        "intervals": traj.intervals, "requests": requests, "cold_starts": cold_starts,
        "truncated": traj.truncated,
    }


@st.composite
def lane_configs(draw):
    """Pressure configs replayed or drawn from a Zipf source, long enough for
    `sample` to check some intervals, with fractional container sizes or
    global statistics drawn too."""
    config = draw(tiny_configs(
        max_nodes=4, capacities=TIGHT_CAPACITIES, max_count=6, max_horizon=14,
        catalogs=(DEFAULT_CATALOG, FRACTIONAL_CATALOG), global_stats=(False, True),
    ))
    if draw(st.booleans()):
        config = replace(config, batches=None, beta=draw(st.sampled_from((0.5, 1.0, 1.8))),
                         mean_rate=draw(st.sampled_from((0.0, 1.0, 3.0))), horizon=draw(st.integers(1, 25)))
    return config


# more examples than SETTINGS: a no-cache lane's running cost priced in
# another order differs only in the last bit, on a fraction of the draws.
# No shrink phase: shrinking re-runs every lane and lone reference per step,
# which took minutes to report a failure; detection is unchanged.
@settings(SETTINGS, max_examples=40, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    config=lane_configs(),
    alphas=st.lists(ALPHAS, min_size=2, max_size=2, unique=True),
    infeasible=st.sampled_from(((), (0.3,))),
)
def test_lockstep_lanes_equal_lone_runs(config, alphas, infeasible):
    # every policy at every check level on one stream, audited where checked
    # in full; 0.3 fails validate_setup wherever a node's cpu is 2 or more
    params = [CostParams(alpha=a) for a in [*alphas, *infeasible]]
    configs = [
        replace(config, policy=policy, check=check, audit=check == "full")
        for policy in POLICY_NAMES
        for check in CHECK_LEVELS
    ]
    seen = {"lanes": [], "alone": []}
    check_states = sim._check_states

    def recording(log):
        def check(cfg, states, interval):
            log.append((cfg.policy, cfg.check, interval, copy.deepcopy(_node_states(states, stats=cfg.policy != "nocache"))))
            return check_states(cfg, states, interval)
        return check

    with mock.patch.object(sim, "_check_states", recording(seen["lanes"])):
        lanes = sim._simulate(configs, params)
    alone = [simulate_alone(cfg, params, recording(seen["alone"])) for cfg in configs]
    for lane, ref in zip(lanes, alone):
        assert _trajectory(lane) == _trajectory(ref)
    # each lane's checks saw the states its lone run's checks saw, in order
    for cfg in configs:
        key = (cfg.policy, cfg.check)
        assert [c for c in seen["lanes"] if c[:2] == key] == [c for c in seen["alone"] if c[:2] == key]

    # run() normalizes by a no-cache lane that equals a lone no-cache run
    for cfg, ref_lane in zip(configs, alone):
        base = replace(cfg, policy="nocache", audit=False, check="off")
        for p in params:
            if p.alpha in ref_lane.failures:
                continue
            ref_base = simulate_alone(replace(base, params=p), [p], check_states)
            baseline = ref_base.ledger.total_cost(p.alpha)
            result = run(replace(cfg, params=p))
            ref = simulate_alone(replace(cfg, params=p), [p], check_states)
            assert result.summary == _reference_summary(ref, cfg, p.alpha, baseline)
            nocache_total = run(replace(base, params=p)).summary["total_cost"]
            expected = result.summary["total_cost"] / nocache_total if nocache_total > 0 else None
            assert result.summary["normalized_cost"] == expected


def kept_states_one_pair_at_a_time(dp, m_all, comm, u, cap, p_flat, aq_flat, caps):
    """Reference for `oracle._kept_states`: prices one (state, routing) pair at
    a time and walks every destruction vector of the pair's pool clipped to
    caps, replacing a state's entry only on a strictly lower cost."""
    N, A = len(u), len(m_all)
    kept, parent = {}, {}
    for s, (state, cost0) in enumerate(dp.items()):
        for aidx, (m, comm_a) in enumerate(zip(m_all.tolist(), comm.tolist())):
            pool = tuple(max(x, y) for x, y in zip(state, m))
            feasible = True
            for v, cap_v in enumerate(cap):
                used = 0.0
                for n in range(N):
                    used += u[n] * pool[v * N + n]
                if used > cap_v:
                    feasible = False
            if not feasible:
                continue
            cost = cost0 + comm_a
            for i in range(len(pool)):
                if m[i] > state[i]:
                    cost += p_flat[i] * (m[i] - state[i])
                cost += aq_flat[i] * pool[i]
            for after in itertools.product(*[range(min(x, c) + 1) for x, c in zip(pool, caps)]):
                if cost < kept.get(after, math.inf):
                    kept[after] = cost
                    parent[after] = s * A + aidx
    return kept, parent


@st.composite
def pricing_inputs(draw, caps=st.integers(0, 2)):
    """Small counts and few distinct prices, so pools repeat and costs tie;
    keep caps drawn from caps."""
    n_nodes, n_types = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    size = n_nodes * n_types
    vector = st.tuples(*[st.integers(0, 2)] * size)
    price = st.sampled_from((0.0, 0.5, 1.0, 2.5))
    states = draw(st.lists(vector, min_size=1, max_size=25, unique=True))
    dp = {state: draw(price) for state in states}
    m_all = np.array(draw(st.lists(vector, min_size=1, max_size=12)), dtype=np.int64)
    comm = np.array([draw(price) for _ in m_all])
    u = [draw(st.sampled_from((1.0, 2.0))) for _ in range(n_types)]
    cap = [draw(st.sampled_from((2.0, 3.0, 8.0))) for _ in range(n_nodes)]
    p_flat = [draw(price) for _ in range(size)]
    aq_flat = [draw(price) for _ in range(size)]
    caps = draw(st.lists(caps, min_size=size, max_size=size))
    return dp, m_all, comm, u, cap, p_flat, aq_flat, caps


# Pool (1, 0) is reached first, from state (0, 0) at cost 1, and reaches the
# least cost, 0, only from state (1, 0), after pool (1, 1) has from (0, 1).
CROSS_POOL_TIE = (
    {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0},  # dp: state -> cost
    np.array([[1, 0]]),  # one routing
    np.array([0.0]),  # its comm cost
    [1.0, 1.0], [8.0], [0.0, 0.0], [0.0, 0.0],  # u, cap, p_flat, aq_flat
)


def assert_kept_states_equal_the_walk(args, block_pairs):
    # same states in the same insertion order, each with the same cost bits
    # and the same parent pair
    with mock.patch.object(oracle, "_BLOCK_PAIRS", block_pairs):
        dp, parent = oracle._kept_states(*args)
    ref_dp, ref_parent = kept_states_one_pair_at_a_time(*args)
    assert [(state, cost.hex()) for state, cost in dp.items()] == [
        (state, cost.hex()) for state, cost in ref_dp.items()
    ]
    assert parent == ref_parent
    if args[0] is CROSS_POOL_TIE[0]:
        # the earliest pair of least cost wins: from state (0, 1), pair 1,
        # not the pool (1, 0) reached first
        assert set(parent.values()) == {1}


@settings(max_examples=200, deadline=None)
@given(args=pricing_inputs(), block_pairs=st.sampled_from((1, 3, 7, 1024, 1536)))
@example(args=CROSS_POOL_TIE + ([1, 1],), block_pairs=1536)
@example(args=CROSS_POOL_TIE + ([1, 1],), block_pairs=1)
def test_block_pricing_equals_one_pair_at_a_time(args, block_pairs):
    # whatever the block boundaries and however the costs tie
    assert_kept_states_equal_the_walk(args, block_pairs)


@settings(max_examples=200, deadline=None)
@given(args=pricing_inputs(caps=st.just(0)), block_pairs=st.sampled_from((1, 3, 7, 1024, 1536)))
@example(args=CROSS_POOL_TIE + ([0, 0],), block_pairs=1536)
@example(args=CROSS_POOL_TIE + ([0, 0],), block_pairs=1)
def test_cheapest_pool_equals_best_pools_then_destroy(args, block_pairs):
    # an interval no request follows: every pool is destroyed to the zero
    # state, the one cell of the lattice, where blocks that cannot lower its
    # cost are skipped; no feasible pair keeps no state
    assert_kept_states_equal_the_walk(args, block_pairs)
    dp, _parent = oracle._kept_states(*args)
    assert set(dp) <= {(0,) * len(args[-1])}


@settings(max_examples=300, deadline=None)
@given(args=pricing_inputs(caps=st.integers(1, 2)))
def test_suffix_minimum_destruction_equals_the_walk(args):
    # every cap at least 1, so every pool keeps a lattice of states above
    # the zero one, at the default block size
    assert_kept_states_equal_the_walk(args, oracle._BLOCK_PAIRS)


@pytest.mark.parametrize(
    "cpus, optimum",
    [((1.0, 1.0), "np.float64(162.55)"), ((1.0, 1.5), "np.float64(117.15833333333335)")],
    ids=["cpus0", "cpus1"],
)
def test_trailing_empty_interval_witness_replays(cpus, optimum):
    # no request after interval 2, so intervals 2 and 3 keep the zero state
    # alone; equal nodes tie two pools at the optimum, as in test_oracle.py's
    # cross-node case, and unequal ones do not
    nodes = [EdgeNode(v, 400.0, cpu) for v, cpu in enumerate(cpus)]
    instance = TinyInstance(
        topology=Topology(nodes=nodes, comm_cost=np.array([[0.0, 5.0], [5.0, 0.0]])),
        catalog=(FunctionType(0, 100.0), FunctionType(1, 55.0)),
        params=CostParams(alpha=0.01),
        horizon=3,
        batches=[RequestBatch(1, {(0, 0): 1}), RequestBatch(2, {(1, 0): 1, (0, 1): 1})],
    )
    solution = solve_exact(instance)
    oracle.check_witness(instance, solution)
    assert repr(solution.cost) == optimum


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_oracle_never_above_a_policy(seed):
    instance = random_tiny_instance(np.random.default_rng(seed))
    opt = solve_exact(instance).cost
    for policy in POLICY_NAMES:
        config = SimConfig(
            topology=instance.topology,
            catalog=instance.catalog,
            params=instance.params,
            policy=policy,
            horizon=instance.horizon,
            seed=seed,
            batches=instance.batches,
            check="full",
        )
        assert opt <= run(config).summary["total_cost"] + 1e-9


@SETTINGS
@given(counts=st.lists(st.integers(5, 20), min_size=6, max_size=6), horizon=st.integers(1, MAX_INTERVALS))
def test_oracle_refuses_instances_over_the_budget(counts, horizon):
    # six (node, type) slots of >= 5 requests each: interval 1 alone has
    # at least C(5 + 2, 2) ** 6 routings
    assert 21**6 > MAX_ENUM_OPS
    nodes = [EdgeNode(v, 30000.0, 1.0) for v in range(3)]
    instance = TinyInstance(
        topology=Topology(nodes=nodes, comm_cost=np.ones((3, 3)) - np.eye(3)),
        catalog=(FunctionType(0, 55.0), FunctionType(1, 92.0)),
        params=CostParams(alpha=0.01),
        horizon=horizon,
        batches=[RequestBatch(1, {(v, n): counts[2 * v + n] for v in range(3) for n in range(2)})],
    )
    with pytest.raises(InstanceTooLarge):
        solve_exact(instance)


CSV_HEADERS = {
    "trace": b"interval,node,ftype,count\n",
    "topology": b"id,capacity_mb,cpu_ghz,x,y\n",
    "catalog": b"id,mem_mb,name\n",
}
CSV_READERS = {"trace": read_trace, "topology": load_topology, "catalog": load_catalog}
FIELDS = st.one_of(
    st.integers(-3, 2000).map(str),
    st.sampled_from(("", "nan", "inf", "-1", "0.5", "1e999", "1e200", " 3", '"', '"1\n2"', "9" * 5000)),
    st.text(max_size=4),
)
ROWS = st.lists(st.lists(FIELDS, max_size=6).map(",".join), max_size=6).map("\n".join)


@st.composite
def csv_inputs(draw):
    """Arbitrary bytes or text, or a reader's header and rows of tricky fields."""
    reader = draw(st.sampled_from(sorted(CSV_READERS)))
    data = draw(st.one_of(
        st.binary(),
        st.text().map(str.encode),
        st.builds(lambda rows, tail: CSV_HEADERS[reader] + rows.encode() + tail, ROWS,
                  st.sampled_from((b"", b"\n", b"\xff\n", b"\x00", b"x" * 131073))),
    ))
    return reader, data


@settings(max_examples=300, deadline=None)
@given(case=csv_inputs())
def test_csv_readers_parse_or_raise_config_error(case):
    reader, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{reader}.csv"
        path.write_bytes(data)
        try:
            CSV_READERS[reader](path)
        except ConfigError:
            pass
