import csv
import os
import signal
import tempfile
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim.costs import IntervalDecision, interval_running_cost
from edgesim.errors import ContractError, InvariantViolation
from edgesim.model import (
    DEFAULT_CATALOG,
    CostParams,
    FunctionType,
    NodeState,
    RequestBatch,
    occupancy,
)
from edgesim.policies import make_policy
from edgesim.scheduler import (
    AuditRecord,
    BoundChecks,
    RoutingContext,
    distribute_interval,
    end_interval,
    write_audit_csv,
)

from conftest import create_active, make_stepping_policy, make_topology, price_nocache, record_invocations
from test_properties import FRACTIONAL_CATALOG

WEB = DEFAULT_CATALOG[0]
ONE_TYPE = (FunctionType(0, 55.0, "web-server"),)


def _setup(capacities, comm=None, cpus=None, catalog=DEFAULT_CATALOG, alpha=0.001, run_coeff=1.0):
    topo = make_topology(capacities, cpus=cpus, comm=comm)
    params = CostParams(alpha=alpha, switch_coeff=1.0, run_coeff=run_coeff)
    ctx = RoutingContext(topo, catalog, params)
    states = [NodeState(v, len(catalog)) for v in range(topo.n_nodes)]
    return topo, params, ctx, states


def _checked(batch, states, ctx, policy, rng, audit=None):
    """Route one interval with every request's cost bound checked at the context's alpha."""
    bounds = BoundChecks(ctx, [ctx.alpha])
    decision = distribute_interval(batch, states, ctx, policy, rng, audit=audit, check=bounds)
    assert bounds.failures == {}
    return decision


def _close(states, policy, decision, ctx):
    """End the interval `decision` routed as a run does: the actives idle
    while the running cost is priced, then the policy's sweep runs."""
    interval_running_cost(states, ctx)
    return end_interval(states, policy, decision.interval, ctx.catalog, decision)


def _warm(states, v, n, count, ctx, now=1):
    """Put `count` warm containers of type n in node v's cache."""
    create_active(states[v], n, ctx.mem[n], count)
    record_invocations(states[v], n, now, count)
    interval_running_cost([states[v]], ctx)  # the containers idle


def test_local_cache_serves_everything():
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    _warm(states, 0, 0, 3, ctx)
    batch = RequestBatch(interval=2, counts={(0, 0): 2})
    d = _checked(batch, states, ctx, policy, np.random.default_rng(0))
    assert d.local_served == {(0, 0): 2}
    assert d.offloaded == {} and d.created == {} and d.rejected == {}
    assert states[0].active[0] == 2 and states[0].cache[0] == 1


def test_offload_to_cached_neighbor_within_radius():
    # d = 3 < p = 55 and the neighbor holds the only warm container
    topo, params, ctx, states = _setup([4000.0, 4000.0], comm=[[0, 3], [3, 0]], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    _warm(states, 1, 0, 1, ctx)
    batch = RequestBatch(interval=2, counts={(0, 0): 1})
    d = _checked(batch, states, ctx, policy, np.random.default_rng(0))
    assert d.offloaded == {(0, 1, 0): 1}
    assert d.created == {} and d.local_served == {}
    assert states[1].active[0] == 1


def test_create_when_no_cache_anywhere():
    topo, params, ctx, states = _setup([4000.0, 4000.0], comm=[[0, 3], [3, 0]], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    batch = RequestBatch(interval=1, counts={(0, 0): 1})
    d = _checked(batch, states, ctx, policy, np.random.default_rng(0))
    assert d.created == {(0, 0): 1}
    assert d.local_served == {(0, 0): 1}
    assert d.total_created() == 1


def test_offload_skipped_when_distance_exceeds_switching_cost():
    # neighbor has a warm container but d = 100 > p = 55: create locally
    topo, params, ctx, states = _setup([4000.0, 4000.0], comm=[[0, 100], [100, 0]], catalog=ONE_TYPE)
    policy = make_policy("lru", 1)
    _warm(states, 1, 0, 1, ctx)
    batch = RequestBatch(interval=2, counts={(0, 0): 1})
    d = _checked(batch, states, ctx, policy, np.random.default_rng(0))
    assert d.created == {(0, 0): 1}
    assert d.offloaded == {}
    assert states[1].cache[0] == 1  # untouched


def test_nearest_neighbor_consumed_first_with_tiebreak():
    comm = [[0, 5, 5, 2], [5, 0, 1, 1], [5, 1, 0, 1], [2, 1, 1, 0]]
    topo, params, ctx, states = _setup([4000.0] * 4, comm=comm, catalog=ONE_TYPE)
    policy = make_policy("lru", 1)
    for v in (1, 2, 3):
        _warm(states, v, 0, 1, ctx)
    batch = RequestBatch(interval=2, counts={(0, 0): 2})
    d = _checked(batch, states, ctx, policy, np.random.default_rng(0))
    # node 3 is nearest (d=2); then the tie between 1 and 2 at d=5 goes to 1
    assert d.offloaded == {(0, 3, 0): 1, (0, 1, 0): 1}


def test_capacity_pressure_evicts_via_policy():
    catalog = (FunctionType(0, 55.0), FunctionType(1, 332.0))
    topo, params, ctx, states = _setup([400.0], catalog=catalog)
    policy = make_policy("lru", 2)
    _warm(states, 0, 1, 1, ctx)  # 332 MB cached checkout
    batch = RequestBatch(interval=2, counts={(0, 0): 2})  # needs 110 MB
    d = _checked(batch, states, ctx, policy, np.random.default_rng(0))
    assert d.created == {(0, 0): 2}
    assert d.destroyed == {(0, 1): 1}
    assert states[0].cache[1] == 0
    assert occupancy(states[0], catalog) <= 400.0


def test_fallback_creates_at_cheapest_feasible_node():
    topo, params, ctx, states = _setup([160.0, 160.0, 160.0], comm=[[0, 9, 4], [9, 0, 9], [4, 9, 0]], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    batch = RequestBatch(interval=1, counts={(0, 0): 4})
    d = distribute_interval(batch, states, ctx, policy, np.random.default_rng(0))
    # two fit locally; both overflows land on node 2 (d + p = 59 vs 64), which
    # stays the cheapest feasible node while it has room
    assert d.created == {(0, 0): 2, (2, 0): 2}
    assert d.offloaded == {(0, 2, 0): 2}
    assert d.fallback_creations == 2
    assert d.rejected == {}


def test_fallback_prefers_cheapest_over_nearest():
    # node 1 is nearest (d = 1) but slow (d + p = 1 + 110); node 2 is farther
    # (d = 10) and fast (d + p = 10 + 27.5): the overflow is created at node 2
    topo, params, ctx, states = _setup(
        [55.0, 4000.0, 4000.0], comm=[[0, 1, 10], [1, 0, 10], [10, 10, 0]], cpus=[1.0, 0.5, 2.0], catalog=ONE_TYPE
    )
    policy = make_policy("pcache", 1)
    create_active(states[0], 0, 55.0)
    d = distribute_interval(RequestBatch(interval=1, counts={(0, 0): 2}), states, ctx, policy, np.random.default_rng(0))
    assert ctx.fallback_order(0, 0) == [2, 1]
    assert d.created == {(2, 0): 2}
    assert d.offloaded == {(0, 2, 0): 2}
    assert d.fallback_creations == 2
    assert states[1].active == [0] and states[2].active == [2]


def test_origins_compete_for_the_last_room_in_key_order():
    # nodes 0 and 1 are full of serving containers; node 2 has room for one
    # more. The batch is built in descending key order, yet it routes in
    # ascending (node, type) order, so origin 0 takes the room and origin 1's
    # request is rejected
    topo, params, ctx, states = _setup([55.0, 55.0, 55.0], comm=[[0, 1, 5], [1, 0, 5], [5, 5, 0]], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    create_active(states[0], 0, 55.0)
    create_active(states[1], 0, 55.0)
    batch = RequestBatch(interval=1, counts={(1, 0): 1, (0, 0): 1})
    d = distribute_interval(batch, states, ctx, policy, np.random.default_rng(0))
    assert d.created == {(2, 0): 1}
    assert d.offloaded == {(0, 2, 0): 1}
    assert d.rejected == {(1, 0): 1}


def test_fallback_prefers_remote_cache_beyond_radius():
    # origin full of actives; the only cache sits beyond the d <= p radius
    topo, params, ctx, states = _setup([160.0, 4000.0], comm=[[0, 100], [100, 0]], catalog=ONE_TYPE)
    policy = make_policy("lru", 1)
    _warm(states, 1, 0, 1, ctx)
    batch = RequestBatch(interval=2, counts={(0, 0): 3})
    audit = []
    d = _checked(batch, states, ctx, policy, np.random.default_rng(0), audit=audit)
    assert d.created == {(0, 0): 2}
    assert d.offloaded == {(0, 1, 0): 1}
    assert d.fallback_creations == 0
    actions = [(r.action, r.serving_node) for r in audit]
    assert ("offload", 1) in actions


def test_overflow_takes_idle_containers_then_creates_beyond_radius():
    # the origin is full of serving containers and caches none; the far node
    # (d = 100 > p = 55) holds 2 idle containers and room for 2 more
    topo, params, ctx, states = _setup([55.0, 220.0], comm=[[0, 100], [100, 0]], catalog=ONE_TYPE)
    policy = make_policy("lru", 1)
    create_active(states[0], 0, 55.0)
    _warm(states, 1, 0, 2, ctx)
    batch = RequestBatch(interval=2, counts={(0, 0): 4})
    audit = []
    bounds = BoundChecks(ctx, [0.001, 0.002])
    d = distribute_interval(batch, states, ctx, policy, np.random.default_rng(0), audit=audit, check=bounds)
    assert d.offloaded == {(0, 1, 0): 4}
    assert d.created == {(1, 0): 2} and d.fallback_creations == 2
    assert d.local_served == {} and d.destroyed == {} and d.rejected == {}
    assert states[1].active == [4] and states[1].cache == [0] and states[1].used_mb == 220.0
    aq = ctx.aq[0][0]
    offload = AuditRecord(2, 0, 0, "offload", 1, 100.0 + aq, aq + 100.0)
    create = AuditRecord(2, 0, 0, "create", 1, 100.0 + 55.0 + aq, aq + 100.0)
    assert audit == [offload, offload, create, create]
    # the offloads meet their bound at every alpha; creations are not checked
    assert bounds.failures == {} and sorted(bounds.live) == [0.001, 0.002]
    from edgesim.oracle import competitive_check

    report = competitive_check(audit, topo, ONE_TYPE, params)
    assert (report.n_checked, report.n_fallback_creations) == (2, 2)


def test_rejection_when_no_node_can_host():
    topo, params, ctx, states = _setup([160.0], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    batch = RequestBatch(interval=1, counts={(0, 0): 4})
    audit = []
    d = distribute_interval(batch, states, ctx, policy, np.random.default_rng(0), audit=audit)
    assert d.created == {(0, 0): 2}
    assert d.rejected == {(0, 0): 2}
    assert sum(1 for r in audit if r.action == "reject") == 2
    d.check_conservation(batch)  # rejected requests still accounted


def test_end_interval_actives_idle_into_cache():
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    batch = RequestBatch(interval=1, counts={(0, 0): 3})
    decision = distribute_interval(batch, states, ctx, policy, np.random.default_rng(0))
    destroyed = _close(states, policy, decision, ctx)
    assert destroyed == []
    assert states[0].cache[0] == 3 and states[0].active[0] == 0


def test_end_interval_nocache_destroys_everything():
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    policy = make_stepping_policy("nocache", 1)
    batch = RequestBatch(interval=1, counts={(0, 0): 3})
    decision = distribute_interval(batch, states, ctx, policy, np.random.default_rng(0))
    destroyed = _close(states, policy, decision, ctx)
    assert destroyed == [(0, 0, 3)]
    assert states[0].cache[0] == 0 and states[0].used_mb == 0


def _nocache_route(capacities, counts, catalog=ONE_TYPE, audit=None, bounds=False, global_stats=False, cpus=None):
    """Route one interval of a lone `NoCache` lane and close it; the decision,
    its (switching, running) costs and the states."""
    topo, params, ctx, states = _setup(capacities, catalog=catalog, cpus=cpus)
    policy = make_policy("nocache", len(catalog), global_stats=global_stats)
    check = BoundChecks(ctx, [ctx.alpha]) if bounds else None
    decision = distribute_interval(RequestBatch(1, counts), states, ctx, policy, np.random.default_rng(0), audit=audit, check=check)
    return decision, price_nocache(decision, states, ctx), states, policy


def test_nocache_exact_fill_closes_as_routed():
    # 2 x 55 MB fill 110 MB exactly: the fit test is <=, as the router's;
    # at 2 GHz, p = 55 / 2 and q = 55 * 2
    decision, (switching, running), states, policy = _nocache_route([110.0], {(0, 0): 2}, global_stats=True, cpus=[2.0])
    assert decision.closed
    assert decision.created == decision.local_served == {(0, 0): 2}
    assert decision.offloaded == decision.destroyed == decision.rejected == {}
    assert (switching, running) == (2 * 27.5, 2 * 110.0)
    state = states[0]
    assert (state.active, state.cache, state.freq, state.last_used) == ([0], [0], [0], [0])
    assert state.used_mb.hex() == (0.0).hex()


def test_nocache_one_mb_over_stays_open():
    decision, (_, running), states, _ = _nocache_route([109.0], {(0, 0): 2})
    assert not decision.closed
    assert decision.created == {(0, 0): 1} and decision.rejected == {(0, 0): 1}
    assert running == 55.0 and states[0].used_mb == 0.0


@pytest.mark.parametrize("case", ["fractional", "audit", "bounds"])
def test_nocache_audited_checked_or_fractional_interval_stays_open(case):
    catalog = (FRACTIONAL_CATALOG[0],) if case == "fractional" else ONE_TYPE
    audit = [] if case == "audit" else None
    decision, _, states, _ = _nocache_route([4000.0], {(0, 0): 3}, catalog=catalog, audit=audit, bounds=case == "bounds")
    assert not decision.closed
    assert decision.created == decision.local_served == {(0, 0): 3}
    assert states[0].active == [0] and states[0].freq == [0] and states[0].last_used == [0]
    if audit is not None:
        assert [r.action for r in audit] == ["create"] * 3


def test_nocache_zero_count_key_is_neither_created_nor_priced():
    counts = {(0, 0): 0, (0, 1): 2, (1, 3): 0}
    decision, (switching, running), states, _ = _nocache_route([4000.0, 4000.0], counts, catalog=DEFAULT_CATALOG)
    assert decision.closed
    assert decision.created == decision.local_served == {(0, 1): 2}
    assert all(s.freq == s.last_used == [0] * 4 for s in states)
    assert switching == running == 2 * 158.0


def test_nocache_count_beyond_float_range_stays_open():
    decision, _, _, _ = _nocache_route([110.0], {(0, 0): 10**400})
    assert not decision.closed
    assert decision.created == {(0, 0): 2} and decision.rejected == {(0, 0): 10**400 - 2}


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still routing after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("policy_name", ["pcache", "nocache"])
@pytest.mark.parametrize("where", ["origin", "overflow"])
def test_creation_step_that_creates_nothing_raises(policy_name, where):
    # a state doctored to carry another node's id: `_make_room` reads that
    # node's roomy capacity and reports room the step then cannot use
    if where == "origin":
        topo, params, ctx, states = _setup([100.0, 4000.0], catalog=ONE_TYPE)
        states[0].node_id, states[0].used_mb = 1, 50.0
    else:
        topo, params, ctx, states = _setup([60.0, 100.0, 4000.0], catalog=ONE_TYPE)
        states[0].used_mb = 60.0
        states[1].node_id, states[1].used_mb = 2, 50.0
    batch = RequestBatch(interval=1, counts={(0, 0): 1})
    node = 0 if where == "origin" else 1
    with _time_limit(10), pytest.raises(ContractError, match=f"node {node}: a creation step for type 0 created nothing"):
        distribute_interval(batch, states, ctx, make_policy(policy_name, 1), np.random.default_rng(0))


def test_end_interval_fc_ttl_sweep():
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    policy = make_policy("fc", 1, ttl=2)
    batch = RequestBatch(interval=1, counts={(0, 0): 1})
    decision = distribute_interval(batch, states, ctx, policy, np.random.default_rng(0))
    assert _close(states, policy, decision, ctx) == []
    assert _close(states, policy, IntervalDecision(interval=2), ctx) == []
    assert _close(states, policy, IntervalDecision(interval=3), ctx) == [(0, 0, 1)]


def test_bound_check_raises_on_violation():
    # synthetic: feed a record-producing run where the bound must hold; then
    # verify the checker itself trips on a doctored record
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    rec = AuditRecord(1, 0, 0, "create", 0, marginal_cost=100.0, bound=55.055)
    from edgesim.oracle import competitive_check
    from edgesim.errors import CompetitiveBoundError

    with pytest.raises(CompetitiveBoundError):
        competitive_check([rec], topo, ONE_TYPE, params)


def test_bound_checks_trip_on_doctored_cost_at_every_alpha():
    # a negative switching cost puts a warm hit's realized cost above its bound
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    _warm(states, 0, 0, 2, ctx)
    ctx.p[0][0] = -1.0
    bounds = BoundChecks(ctx, [0.001, 0.002])
    batch = RequestBatch(interval=2, counts={(0, 0): 2})
    distribute_interval(batch, states, ctx, policy, np.random.default_rng(0), check=bounds)
    assert bounds.live == {}
    for alpha, exc in bounds.failures.items():
        aq = alpha * 55.0
        assert str(exc) == f"per-request cost bound exceeded: {AuditRecord(2, 0, 0, 'hit', 0, 0.0 + aq, aq - 1.0)}"
    assert sorted(bounds.failures) == [0.001, 0.002]

    # each alpha is judged on its own table: at 1e20 the doctored cost rounds away
    _warm(states, 0, 0, 1, ctx, now=2)
    bounds = BoundChecks(ctx, [0.001, 0.002])
    bounds.live[0.001] = [[1e20]]
    batch = RequestBatch(interval=3, counts={(0, 0): 1})
    distribute_interval(batch, states, ctx, policy, np.random.default_rng(0), check=bounds)
    assert list(bounds.live) == [0.001] and list(bounds.failures) == [0.002]


def test_bound_checks_judge_a_channel_of_several_requests_once_per_alpha():
    # every request of a channel shares its cost, top and alpha*q: a doctored
    # channel of 3 hits fails each alpha once, with the record all 3 share,
    # and an alpha whose table rounds the doctoring away stays live
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    policy = make_policy("pcache", 1)
    _warm(states, 0, 0, 3, ctx)
    ctx.p[0][0] = -1.0
    calls = []

    class RecordingChecks(BoundChecks):
        def fail(self, alpha, record):
            calls.append((alpha, record))
            super().fail(alpha, record)

    bounds = RecordingChecks(ctx, [0.001, 0.002, 0.003])
    bounds.live[0.003] = [[1e20]]
    audit = []
    batch = RequestBatch(interval=2, counts={(0, 0): 3})
    distribute_interval(batch, states, ctx, policy, np.random.default_rng(0), audit=audit, check=bounds)
    assert len(audit) == 3 and all(rec is audit[0] for rec in audit)  # one channel
    assert calls == [
        (alpha, AuditRecord(2, 0, 0, "hit", 0, 0.0 + alpha * 55.0, alpha * 55.0 - 1.0)) for alpha in (0.001, 0.002)
    ]
    assert list(bounds.live) == [0.003] and sorted(bounds.failures) == [0.001, 0.002]


def test_bound_checks_fail_ends_only_that_alpha():
    topo, params, ctx, states = _setup([4000.0], catalog=ONE_TYPE)
    bounds = BoundChecks(ctx, [0.001, 0.002])
    record = AuditRecord(1, 0, 0, "create", 0, 60.0, 55.11)
    bounds.fail(0.002, record)
    assert list(bounds.live) == [0.001]
    assert str(bounds.failures[0.002]) == f"per-request cost bound exceeded: {record}"
    batch = RequestBatch(interval=1, counts={(0, 0): 3})
    distribute_interval(batch, states, ctx, make_policy("lru", 1), np.random.default_rng(0), check=bounds)
    assert list(bounds.live) == [0.001] and list(bounds.failures) == [0.002]


def _random_roundtrip(seed, policy_name):
    rng = np.random.default_rng(seed)
    v = int(rng.integers(1, 5))
    caps = [float(rng.choice([800.0, 1200.0, 4000.0])) for _ in range(v)]
    coords = [(float(x), float(y)) for x, y in rng.uniform(0, 60, size=(v, 2))]
    topo = make_topology(caps, coords=coords)
    from edgesim.model import comm_cost_from_coords

    topo.comm_cost = comm_cost_from_coords(topo.nodes, 1.0)
    params = CostParams(alpha=0.005, switch_coeff=1.0, run_coeff=1.0)
    ctx = RoutingContext(topo, DEFAULT_CATALOG, params)
    states = [NodeState(i, 4) for i in range(v)]
    policy = make_stepping_policy(policy_name, 4, ttl=3)
    wl_rng = np.random.default_rng(seed + 1)
    decisions = []
    for t in range(1, 9):
        counts = {}
        for node in range(v):
            for n in range(4):
                c = int(wl_rng.poisson(0.8))
                if c:
                    counts[(node, n)] = c
        batch = RequestBatch(interval=t, counts=counts)
        d = _checked(batch, states, ctx, policy, np.random.default_rng(seed + t))
        d.check_conservation(batch)
        for state in states:
            assert occupancy(state, DEFAULT_CATALOG) <= caps[state.node_id] + 1e-9
            assert occupancy(state, DEFAULT_CATALOG) == pytest.approx(state.used_mb)
        _close(states, policy, d, ctx)
        decisions.append(d)
    return decisions


@pytest.mark.parametrize("policy_name", ["pcache", "lru", "fc", "nocache"])
def test_randomized_conservation_capacity_determinism(policy_name):
    for seed in range(12):
        a = _random_roundtrip(seed, policy_name)
        b = _random_roundtrip(seed, policy_name)
        for da, db in zip(a, b):
            assert da.local_served == db.local_served
            assert da.offloaded == db.offloaded
            assert da.created == db.created
            assert da.destroyed == db.destroyed
            assert da.rejected == db.rejected


def reference_audit_bytes(records):
    """The audit CSV as csv.writer writes it, one row per record."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "audit.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["interval", "origin", "ftype", "action", "serving_node", "marginal_cost", "bound"])
            writer.writerows(
                (r.interval, r.origin, r.ftype, r.action, r.serving_node, repr(r.marginal_cost), repr(r.bound))
                for r in records
            )
        with open(path, "rb") as fh:
            return fh.read()


def audit_bytes(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "audit.csv")
        write_audit_csv(records, path)
        with open(path, "rb") as fh:
            return fh.read()


# floats whose repr needs all 17 significant digits, and both zeros
COSTS = (0.1 + 0.2, 1 / 3, 55.0 + 0.001 * 55.0, 0.0, -0.0, 2.5)

audit_records = st.builds(
    AuditRecord,
    interval=st.integers(1, 3),
    origin=st.integers(0, 2),
    ftype=st.integers(0, 1),
    action=st.sampled_from(("hit", "offload", "create", "reject")),
    serving_node=st.integers(-1, 2),
    marginal_cost=st.one_of(st.sampled_from(COSTS), st.floats()),
    bound=st.one_of(st.sampled_from(COSTS), st.floats()),
)


@st.composite
def audits(draw):
    """Runs of one shared record, as `note` appends them; a run's record is
    new, an equal but distinct copy of the previous one, or that copy one
    interval on."""
    records = []
    for _ in range(draw(st.integers(0, 10))):
        how = draw(st.sampled_from(("new", "copy", "next interval"))) if records else "new"
        if how == "new":
            rec = draw(audit_records)
        elif how == "copy":
            rec = replace(records[-1])
        else:
            rec = replace(records[-1], interval=records[-1].interval + 1)
        records += [rec] * draw(st.integers(1, 3))
    return records


@settings(max_examples=300, deadline=None)
@given(records=audits())
def test_audit_writer_bytes_equal_csv_writer(records):
    assert audit_bytes(records) == reference_audit_bytes(records)


def test_audit_writer_formats_shared_and_equal_records_apart():
    hit = AuditRecord(1, 0, 0, "hit", 0, 0.1 + 0.2, 55.0 + 0.1)
    cheaper_bound = AuditRecord(1, 1, 0, "offload", 0, hit.marginal_cost, 2.5)
    reject = AuditRecord(1, 1, 0, "reject", -1, 0.0, 0.0)
    records = [
        hit, hit, hit,
        replace(hit),  # equal, not identical
        replace(hit, interval=2),  # equal but for its interval
        cheaper_bound,  # the hit's cost with another bound
        reject, reject,
        replace(reject, marginal_cost=-0.0, bound=-0.0),  # equal to the reject, printed apart
        replace(reject, interval=2),
    ]
    data = audit_bytes(records)
    assert data == reference_audit_bytes(records)
    assert data.split(b"\r\n")[1:] == [
        b"1,0,0,hit,0,0.30000000000000004,55.1",
        b"1,0,0,hit,0,0.30000000000000004,55.1",
        b"1,0,0,hit,0,0.30000000000000004,55.1",
        b"1,0,0,hit,0,0.30000000000000004,55.1",
        b"2,0,0,hit,0,0.30000000000000004,55.1",
        b"1,1,0,offload,0,0.30000000000000004,2.5",
        b"1,1,0,reject,-1,0.0,0.0",
        b"1,1,0,reject,-1,0.0,0.0",
        b"1,1,0,reject,-1,-0.0,-0.0",
        b"2,1,0,reject,-1,0.0,0.0",
        b"",
    ]


def test_audit_writer_writes_the_header_alone_for_an_empty_audit():
    assert audit_bytes([]) == reference_audit_bytes([]) == b"interval,origin,ftype,action,serving_node,marginal_cost,bound\r\n"
