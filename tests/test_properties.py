"""Property tests over random tiny topologies and replayed batches.

`sweep` simulates each (seed, beta, policy) once and prices every alpha from
that run's unweighted ledger; the first properties guard that shortcut: alpha
reweights the ledger and never changes a trajectory. The oracle properties
check its block pricing against a per-pair loop, its optimum against every
policy, and its refusal of instances over the enumeration budget.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgesim import oracle
from edgesim.errors import InstanceTooLarge
from edgesim.model import DEFAULT_CATALOG, CostParams, EdgeNode, FunctionType, RequestBatch, Topology
from edgesim.oracle import MAX_ENUM_OPS, MAX_INTERVALS, TinyInstance, random_tiny_instance, solve_exact
from edgesim.policies import POLICY_NAMES
from edgesim.sim import SimConfig, SweepGrid, derive_seed, run, sweep

# alpha * q <= p needs alpha <= 1 / cpu^2, so every alpha below is feasible
CPUS = (1.0, 1.5, 2.0, 2.5)
ALPHAS = st.floats(min_value=0.0005, max_value=0.15, allow_nan=False, allow_infinity=False)
UNWEIGHTED = ("switching", "communication", "running", "cold_starts", "requests")

SETTINGS = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tiny_configs(draw):
    n_nodes = draw(st.integers(1, 3))
    nodes = [
        EdgeNode(
            v,
            draw(st.sampled_from((400.0, 700.0, 1500.0))),
            draw(st.sampled_from(CPUS)),
            coord=(draw(st.floats(0, 60)), draw(st.floats(0, 60))),
        )
        for v in range(n_nodes)
    ]
    comm = np.array([[abs(a.coord[0] - b.coord[0]) + abs(a.coord[1] - b.coord[1]) for b in nodes] for a in nodes])
    horizon = draw(st.integers(1, 8))
    count = st.integers(0, 3)
    batches = [
        RequestBatch(t, {(v, n): c for v in range(n_nodes) for n in range(len(DEFAULT_CATALOG)) if (c := draw(count))})
        for t in range(1, horizon + 1)
    ]
    return SimConfig(
        topology=Topology(nodes=nodes, comm_cost=comm),
        catalog=DEFAULT_CATALOG,
        params=CostParams(alpha=0.005),
        policy="pcache",
        horizon=horizon,
        seed=draw(st.integers(0, 2**31)),
        batches=batches,
        ttl=draw(st.integers(0, 3)),
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


def best_pools_one_pair_at_a_time(dp, m_all, comm, u, cap, p_flat, aq_flat):
    """Reference for `oracle._best_pools`: prices one (state, routing) pair at a time."""
    N = len(u)
    pool_best = {}
    for state, cost0 in dp.items():
        for aidx, (m, comm_a) in enumerate(zip(m_all.tolist(), comm.tolist())):
            pool = tuple(max(s, x) for s, x in zip(state, m))
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
            best = pool_best.get(pool)
            if best is None or cost < best[0]:
                pool_best[pool] = (cost, state, aidx)
    return pool_best


@st.composite
def pricing_inputs(draw):
    """Small counts and few distinct prices, so pools repeat and costs tie."""
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
    return dp, m_all, comm, u, cap, p_flat, aq_flat


@settings(max_examples=200, deadline=None)
@given(args=pricing_inputs(), block_pairs=st.sampled_from((1, 3, 7, 1024)))
def test_block_pricing_equals_one_pair_at_a_time(args, block_pairs):
    # same pools in the same insertion order, each with the same cost bits,
    # state and routing index, whatever the block boundaries
    with mock.patch.object(oracle, "_BLOCK_PAIRS", block_pairs):
        got = oracle._best_pools(*args)
    assert list(got.items()) == list(best_pools_one_pair_at_a_time(*args).items())


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
