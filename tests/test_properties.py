"""Property tests: alpha reweights the ledger and never changes a trajectory.

`sweep` simulates each (seed, beta, policy) once and prices every alpha from
that run's unweighted ledger. These properties guard that shortcut over random
tiny topologies and replayed batches.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgesim.model import DEFAULT_CATALOG, CostParams, EdgeNode, RequestBatch, Topology
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
