import numpy as np
import pytest

from edgesim.costs import interval_switching_cost
from edgesim.model import DEFAULT_CATALOG, CostParams, EdgeNode, RequestBatch, Topology
from edgesim.policies import NoCache, make_policy
from edgesim.scheduler import close_created, distribute_interval


def make_topology(capacities, cpus=None, comm=None, coords=None):
    """Small topology helper for tests."""
    v = len(capacities)
    cpus = cpus or [1.0] * v
    nodes = [
        EdgeNode(i, capacities[i], cpus[i], coord=coords[i] if coords else None)
        for i in range(v)
    ]
    if comm is None:
        comm = np.zeros((v, v))
    return Topology(nodes=nodes, comm_cost=np.asarray(comm, dtype=float))


def desk_topology(n_nodes=25, capacity=4000.0, seed=1234, box=100.0, scale=0.35):
    """Seeded random topology in a square box, heterogeneous CPUs."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, box, size=(n_nodes, 2))
    cpu_choices = [1.0, 1.5, 2.0, 2.5]
    nodes = [
        EdgeNode(
            i,
            capacity,
            cpu_choices[int(rng.integers(len(cpu_choices)))],
            coord=(float(coords[i][0]), float(coords[i][1])),
        )
        for i in range(n_nodes)
    ]
    from edgesim.model import comm_cost_from_coords

    return Topology(nodes=nodes, comm_cost=comm_cost_from_coords(nodes, scale))


class FlushingNoCache(NoCache):
    """No-cache with the end-of-interval sweep a step-by-step close needs: it
    destroys every cached container, node-major and type-minor. A run never
    sweeps a no-cache lane; it closes one by `scheduler.close_created`.

    It declares `holds_idle` as a caching policy does, so the router leaves
    every interval open for that sweep. Its caches are empty whenever
    requests are routed, so the hit and offload steps take nothing and
    `_make_room` gives up at once: it routes as `NoCache` does."""

    holds_idle = True

    def end_of_interval(self, states, now, decision):
        return [(state.node_id, n, count) for state in states for n, count in enumerate(state.cache) if count]


def price_nocache(decision, states, ctx):
    """(switching, running) of one no-cache interval, as `sim._Lane.step`
    takes them: off a closed decision, else from `created` and by
    `close_created`, which also destroys the created containers."""
    if decision.closed:
        return decision.switching, decision.running
    return interval_switching_cost(decision, ctx), close_created(decision, states, ctx)


def create_active(state, n, mem, count=1):
    """Start `count` serving containers of type n at `state`, with one
    `used_mb += mem` per container, as the router creates them."""
    for _ in range(count):
        state.used_mb += mem
    state.active[n] += count


def take_cached(state, n, count):
    """Turn `count` of the containers of type n cached at `state` active, as
    a hit or an offload does."""
    if count > state.cache[n]:
        raise ValueError(f"node {state.node_id}: cannot take {count} cached of type {n}")
    state.cache[n] -= count
    state.active[n] += count


class MirroredStats:
    """A lane's invocation statistics kept request by request: per type, the
    count summed over every node and the interval of the latest invocation
    at any node. The reference for the tables `EvictionPolicy._stats`
    derives from the node states under `global_stats`."""

    def __init__(self, n_types):
        self.freq = [0] * n_types
        self.last_used = [0] * n_types


def record_invocations(state, n, now, count=1, mirror=None):
    """Keep the statistics of `count` requests of type n served at `state` in
    interval `now`, as the router does, and on `mirror` too when given."""
    state.freq[n] += count
    state.last_used[n] = now
    if mirror is not None:
        mirror.freq[n] += count
        mirror.last_used[n] = now


def route(states, ctx, policy, interval, counts, rng=None):
    """Route one batch of `counts` in `interval` and return its decision."""
    rng = np.random.default_rng(0) if rng is None else rng
    return distribute_interval(RequestBatch(interval, counts), states, ctx, policy, rng)


def make_stepping_policy(name, n_types, ttl=10, global_stats=False):
    """`make_policy`, with `FlushingNoCache` for "nocache"."""
    if name == "nocache":
        return FlushingNoCache(n_types, global_stats)
    return make_policy(name, n_types, ttl=ttl, global_stats=global_stats)


@pytest.fixture
def catalog():
    return DEFAULT_CATALOG


@pytest.fixture
def params():
    return CostParams(alpha=0.01, switch_coeff=1.0, run_coeff=1.0)
