"""The full check's one-pass forms, and the interval close's, against the
code they replaced.

`sim._check_states` recomputes each node's occupancy and notes its first odd
type in one indexed pass, then raises; `IntervalDecision.check_conservation`
settles a conserving interval with one dict compare. Both must accept what
the references below accept and raise the same type with the same message
on everything else: doctored states with several faults on one node,
fractional container sizes, drift near the 1e-6 tolerance, and batches with
zero-count keys. `costs.interval_running_cost` takes one indexed pass per
node; it must return the reference's total to the bit and leave the same
states.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgesim import sim
from edgesim.costs import IntervalDecision, interval_running_cost
from edgesim.errors import InvariantViolation
from edgesim.model import (
    DEFAULT_CATALOG,
    CostParams,
    EdgeNode,
    NodeState,
    RequestBatch,
    Topology,
)
from edgesim.scheduler import RoutingContext

from conftest import occupancy
from test_properties import FRACTIONAL_CATALOG

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def two_pass_check_states(config, states, interval: int) -> None:
    """Reference for `sim._check_states`: the check before it took one
    indexed pass per node, verbatim."""
    for state in states:
        node = config.topology.nodes[state.node_id]
        occ = occupancy(state, config.catalog)
        if occ > node.capacity_mb + 1e-9:
            raise InvariantViolation(
                f"interval {interval}: node {state.node_id} occupancy {occ} MB "
                f"exceeds capacity {node.capacity_mb} MB"
            )
        if abs(occ - state.used_mb) > 1e-6:
            raise InvariantViolation(
                f"interval {interval}: node {state.node_id} occupancy drifted "
                f"({occ} recomputed vs {state.used_mb} tracked)"
            )
        for n in range(len(config.catalog)):
            if state.cache[n] > 0 and state.freq[n] < 1:
                raise InvariantViolation(
                    f"interval {interval}: node {state.node_id} caches type {n} never invoked"
                )
            if state.active[n] < 0 or state.cache[n] < 0:
                raise InvariantViolation(
                    f"interval {interval}: node {state.node_id} negative container count"
                )


def key_by_key_check_conservation(self, batch: RequestBatch) -> None:
    """Reference for `IntervalDecision.check_conservation`: the check before
    its one dict compare, verbatim."""
    served = dict(self.local_served)
    for (v, _v2, n), c in self.offloaded.items():
        served[(v, n)] = served.get((v, n), 0) + c
    for (v, n), c in self.rejected.items():
        served[(v, n)] = served.get((v, n), 0) + c
    for key in set(batch.counts) | set(served):
        lam = batch.counts.get(key, 0)
        got = served.get(key, 0)
        if lam != got:
            raise InvariantViolation(
                f"interval {self.interval}: request conservation broken for "
                f"(node, type) {key}: lambda={lam}, accounted={got}"
            )


def outcome(check, *args):
    """None when `check` passes, else the type and message it raised."""
    try:
        check(*args)
    except InvariantViolation as exc:
        return type(exc), str(exc)
    return None


# what `used_mb` may carry beyond the recomputed occupancy: nothing, a float
# residue, or a drift on either side of the 1e-6 tolerance
DRIFTS = (0.0, 0.0, 0.0, 1e-12, 5e-7, -9.99e-7, 1e-6, -1e-6, 1.0000001e-6, -2e-6, 0.5)
# what a node's capacity leaves over its occupancy, on either side of the 1e-9 tolerance
SLACKS = (1e6, 1e6, 0.0, 1e-9, 2e-9, -1e-6, -40.0)


@st.composite
def doctored_states(draw):
    """(config, states): valid node states, some of them doctored in one or
    more fields, on nodes whose capacity sits near their occupancy."""
    catalog = draw(st.sampled_from((DEFAULT_CATALOG, FRACTIONAL_CATALOG)))
    n_types = len(catalog)
    states, capacities = [], []
    for v in range(draw(st.integers(1, 4))):
        state = NodeState(v, n_types)
        state.active = draw(st.lists(st.integers(0, 3), min_size=n_types, max_size=n_types))
        state.cache = draw(st.lists(st.integers(0, 3), min_size=n_types, max_size=n_types))
        state.freq = [draw(st.integers(1, 5)) if state.cache[n] else draw(st.integers(0, 2)) for n in range(n_types)]
        # several faults on one node: negative counts and never-invoked caches
        for _ in range(draw(st.integers(0, 3))):
            field = draw(st.sampled_from(("active", "cache", "freq")))
            n = draw(st.integers(0, n_types - 1))
            getattr(state, field)[n] = draw(st.integers(-2, 2) if field != "freq" else st.just(0))
        occ = occupancy(state, catalog)
        # tracked in another order, as a run that created and destroyed containers adds
        tracked = 0.0
        for n in reversed(range(n_types)):
            tracked += catalog[n].mem_mb * (state.active[n] + state.cache[n])
        state.used_mb = tracked + draw(st.sampled_from(DRIFTS))
        capacities.append(max(occ, 0.0) + draw(st.sampled_from(SLACKS)))
        states.append(state)
    nodes = [EdgeNode(v, cap if cap > 0 else 1.0, 1.0) for v, cap in enumerate(capacities)]
    config = sim.SimConfig(
        topology=Topology(nodes=nodes, comm_cost=np.zeros((len(nodes), len(nodes)))),
        catalog=catalog,
        params=CostParams(alpha=0.005),
        policy="pcache",
        horizon=1,
        seed=0,
        batches=[],
        check="full",
    )
    return config, states


@SETTINGS
@given(case=doctored_states(), interval=st.integers(1, 50))
def test_one_pass_state_check_equals_two_pass(case, interval):
    config, states = case
    assert outcome(sim._check_states, config, states, interval) == outcome(two_pass_check_states, config, states, interval)


@st.composite
def decisions(draw):
    """(decision, batch): each batch key's requests split among local service,
    offloads and rejections, then some of the splits doctored; the batch may
    hold zero-count keys and the decision zero entries."""
    n_nodes, n_types = 3, 2
    keys = [(v, n) for v in range(n_nodes) for n in range(n_types)]
    counts = {key: draw(st.integers(0, 4)) for key in draw(st.lists(st.sampled_from(keys), unique=True))}
    decision = IntervalDecision(interval=draw(st.integers(1, 50)))
    for (v, n), lam in counts.items():
        for _ in range(lam):
            where = draw(st.sampled_from(("local", "offload", "reject")))
            if where == "local":
                decision.local_served[(v, n)] = decision.local_served.get((v, n), 0) + 1
            elif where == "reject":
                decision.rejected[(v, n)] = decision.rejected.get((v, n), 0) + 1
            else:
                route = (v, draw(st.integers(0, n_nodes - 1)), n)
                decision.offloaded[route] = decision.offloaded.get(route, 0) + 1
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(("local_served", "offloaded", "rejected")))
        table = getattr(decision, target)
        v, n = draw(st.sampled_from(keys))
        key = (v, draw(st.integers(0, n_nodes - 1)), n) if target == "offloaded" else (v, n)
        table[key] = max(0, table.get(key, 0) + draw(st.integers(-2, 2)))
    return decision, RequestBatch(decision.interval, counts)


@SETTINGS
@given(case=decisions())
def test_one_compare_conservation_equals_key_by_key(case):
    decision, batch = case
    assert outcome(decision.check_conservation, batch) == outcome(key_by_key_check_conservation, decision, batch)



def enumerate_interval_running_cost(states, ctx) -> float:
    """Reference for `costs.interval_running_cost`: the close before it took
    one indexed pass per node, verbatim."""
    total = 0.0
    q = ctx.q
    for state in states:
        q_v = q[state.node_id]
        active = state.active
        cache = state.cache
        for n, alive in enumerate(active):
            if alive:
                alive += cache[n]
                cache[n] = alive
                active[n] = 0
                total += q_v[n] * alive
            elif cache[n]:
                total += q_v[n] * cache[n]
    return total


@st.composite
def serving_states(draw):
    """(ctx, states): nodes of random speed, each type serving, cached,
    both or neither, on either catalog."""
    catalog = draw(st.sampled_from((DEFAULT_CATALOG, FRACTIONAL_CATALOG)))
    n_types = len(catalog)
    cpus = draw(st.lists(st.sampled_from((1.0, 1.5, 2.0, 2.5)), min_size=1, max_size=5))
    nodes = [EdgeNode(v, 4000.0, cpu) for v, cpu in enumerate(cpus)]
    topology = Topology(nodes=nodes, comm_cost=np.zeros((len(nodes), len(nodes))))
    ctx = RoutingContext(topology, catalog, CostParams(alpha=0.005, run_coeff=draw(st.sampled_from((1.0, 0.37)))))
    counts = st.lists(st.sampled_from((0, 0, 1, 2, 7)), min_size=n_types, max_size=n_types)
    states = []
    for v in range(len(nodes)):
        state = NodeState(v, n_types)
        state.active = draw(counts)
        state.cache = draw(counts)
        states.append(state)
    return ctx, states


def _close(close, ctx, states):
    states = [copy.deepcopy(state) for state in states]
    total = close(states, ctx)
    return repr(total), [(state.active, state.cache) for state in states]


@SETTINGS
@given(case=serving_states())
def test_indexed_running_cost_equals_enumerate(case):
    ctx, states = case
    assert _close(interval_running_cost, ctx, states) == _close(enumerate_interval_running_cost, ctx, states)
