import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import edgesim.sim as sim
from edgesim.errors import ConfigError, InvariantViolation
from edgesim.model import CostParams, FunctionType, RequestBatch
from edgesim.scheduler import BoundChecks, RoutingContext
from edgesim.sim import SimConfig, SweepGrid, derive_seed, run, summary_json, sweep

from conftest import desk_topology, make_topology


def _zipf_config(policy="pcache", beta=1.0, horizon=20, seed=7, nodes=4, mean_rate=3.0, **kw):
    topo = make_topology(
        [2000.0] * nodes,
        cpus=[1.0 + 0.5 * (i % 3) for i in range(nodes)],
        coords=[(i * 3.0, 0.0) for i in range(nodes)],
    )
    import edgesim.model as model

    topo.comm_cost = model.comm_cost_from_coords(topo.nodes, 1.0)
    params = CostParams(alpha=kw.pop("alpha", 0.005), switch_coeff=1.0, run_coeff=1.0)
    return SimConfig(
        topology=topo,
        catalog=model.DEFAULT_CATALOG,
        params=params,
        policy=policy,
        horizon=horizon,
        seed=seed,
        beta=beta,
        mean_rate=mean_rate,
        check="full",
        **kw,
    )


def test_zero_workload_run():
    config = _zipf_config(mean_rate=0.0, horizon=1)
    result = run(config)
    assert result.summary["total_cost"] == 0.0
    assert result.summary["cold_start_frequency"] is None
    assert result.summary["normalized_cost"] is None


def test_run_deterministic_summary_json():
    config = _zipf_config(audit=True)
    a = run(config)
    b = run(config)
    assert summary_json(a) == summary_json(b)
    assert [r.__dict__ for r in a.ledger.rows] == [r.__dict__ for r in b.ledger.rows]
    assert a.audit == b.audit


def test_nocache_baseline_metrics():
    config = _zipf_config(policy="nocache")
    result = run(config)
    assert result.summary["cold_start_frequency"] == 1.0
    assert result.summary["normalized_cost"] == 1.0
    # every interval's requests all create
    for row in result.ledger.rows:
        assert row.cold_starts == row.requests


def test_policies_have_no_more_cold_starts_than_requests():
    for policy in ("pcache", "lru", "fc"):
        result = run(_zipf_config(policy=policy, horizon=60))
        assert result.summary["cold_start_frequency"] <= 1.0
        assert result.summary["normalized_cost"] < 1.0  # caching beats the baseline
        assert result.summary["rejections"] == 0


def test_global_stats_and_global_ranking_run():
    result = run(_zipf_config(policy="pcache", global_stats=True, zipf_global=True, horizon=30))
    assert result.summary["rejections"] == 0
    assert result.summary["requests"] > 0


def test_fc_ttl_zero_equals_nocache_exactly():
    fc = run(_zipf_config(policy="fc", ttl=0))
    nocache = run(_zipf_config(policy="nocache"))
    keys = [k for k in fc.summary if k != "policy"]
    for k in keys:
        assert fc.summary[k] == nocache.summary[k], k
    assert [r.__dict__ for r in fc.ledger.rows] == [r.__dict__ for r in nocache.ledger.rows]


def test_ledger_matches_audit_recomputation():
    from edgesim.model import switching_cost

    config = _zipf_config(audit=True, horizon=15)
    result = run(config)
    by_interval_switch = {}
    by_interval_comm = {}
    for rec in result.audit:
        if rec.action == "create":
            node = config.topology.nodes[rec.serving_node]
            f = config.catalog[rec.ftype]
            by_interval_switch[rec.interval] = by_interval_switch.get(rec.interval, 0.0) + switching_cost(
                node, f, config.params
            )
        if rec.action in ("offload",) or (rec.action == "create" and rec.serving_node != rec.origin):
            by_interval_comm[rec.interval] = by_interval_comm.get(rec.interval, 0.0) + float(
                config.topology.comm_cost[rec.origin][rec.serving_node]
            )
    for row in result.ledger.rows:
        assert row.switching == pytest.approx(by_interval_switch.get(row.interval, 0.0))
        assert row.communication == pytest.approx(by_interval_comm.get(row.interval, 0.0))


def test_trace_workload_truncates_before_horizon():
    topo = make_topology([2000.0], coords=[(0.0, 0.0)])
    import edgesim.model as model

    config = SimConfig(
        topology=topo,
        catalog=model.DEFAULT_CATALOG,
        params=CostParams(alpha=0.005),
        policy="pcache",
        horizon=10,
        seed=1,
        batches=[
            RequestBatch(interval=1, counts={(0, 0): 2}),
            RequestBatch(interval=3, counts={(0, 1): 1}),
        ],
        check="full",
    )
    result = run(config)
    assert result.summary["truncated"] is True
    assert result.summary["intervals"] == 3
    assert result.summary["requests"] == 3


def test_config_requires_exactly_one_workload():
    topo = make_topology([2000.0])
    import edgesim.model as model

    with pytest.raises(ConfigError):
        SimConfig(
            topology=topo,
            catalog=model.DEFAULT_CATALOG,
            params=CostParams(alpha=0.005),
            policy="pcache",
            horizon=5,
            seed=0,
        )
    with pytest.raises(ConfigError):
        SimConfig(
            topology=topo,
            catalog=model.DEFAULT_CATALOG,
            params=CostParams(alpha=0.005),
            policy="pcache",
            horizon=5,
            seed=0,
            beta=1.0,
            batches=[],
        )


def test_sweep_single_cell_matches_run():
    base = _zipf_config()
    grid = SweepGrid(alphas=[0.005], betas=[1.0], policies=["pcache"], seeds=[7])
    records, errors = sweep(grid, base)
    assert errors == []
    assert len(records) == 1
    cell = records[0]
    direct = run(
        _zipf_config(seed=derive_seed(7, "cell", 1.0))
    ).summary
    for key in ("total_cost", "cold_start_frequency", "normalized_cost", "requests"):
        assert cell[key] == direct[key]


def test_sweep_cardinality_and_axis_order_invariance():
    base = _zipf_config(horizon=8)
    grid_a = SweepGrid(
        alphas=[0.001, 0.002, 0.005, 0.01, 0.015],
        betas=[0.5, 1.0, 1.5],
        policies=["pcache", "lru", "fc"],
        seeds=[3],
    )
    records_a, errors_a = sweep(grid_a, base)
    assert errors_a == []
    assert len(records_a) == 45
    grid_b = SweepGrid(
        alphas=list(reversed(grid_a.alphas)),
        betas=list(reversed(grid_a.betas)),
        policies=list(reversed(grid_a.policies)),
        seeds=[3],
    )
    records_b, _ = sweep(grid_b, base)
    assert records_a == records_b


def test_sweep_policies_share_workload_per_cell():
    base = _zipf_config(horizon=8)
    grid = SweepGrid(alphas=[0.005], betas=[1.0], policies=["pcache", "lru"], seeds=[3])
    records, _ = sweep(grid, base)
    assert records[0]["requests"] == records[1]["requests"]


def test_sweep_includes_nocache_rows_when_requested():
    base = _zipf_config(horizon=8)
    grid = SweepGrid(alphas=[0.005], betas=[1.0], policies=["nocache", "lru"], seeds=[3])
    records, _ = sweep(grid, base)
    assert {r["policy"] for r in records} == {"nocache", "lru"}
    nocache_row = [r for r in records if r["policy"] == "nocache"][0]
    assert nocache_row["normalized_cost"] == 1.0


def test_sweep_reports_per_cell_errors():
    base = _zipf_config(horizon=8)
    # run_coeff feasible at alpha=0.005 but not at alpha=0.3 (cpu up to 2 GHz)
    grid = SweepGrid(alphas=[0.005, 0.3], betas=[1.0], policies=["lru"], seeds=[3])
    records, errors = sweep(grid, base)
    assert len(records) == 1
    message = "ConfigError: alpha*q > p for type 0 at node 2 (33 > 27.5); caching would never pay off"
    assert errors == [
        {"alpha": 0.3, "beta": 1.0, "error": message, "policy": policy, "seed": 3}
        for policy in ("lru", "nocache")
    ]


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, "cell", 0.5) == derive_seed(1, "cell", 0.5)
    assert derive_seed(1, "cell", 0.5) != derive_seed(1, "cell", 1.0)
    assert derive_seed(1, "cell", 0.5) != derive_seed(2, "cell", 0.5)


@pytest.mark.parametrize("key", [(5, 0), (-1, 0), (0, 4), (1, -1)])
def test_replay_batch_out_of_range_rejected(key):
    import edgesim.model as model

    config = SimConfig(
        topology=make_topology([2000.0, 2000.0]),
        catalog=model.DEFAULT_CATALOG,
        params=CostParams(alpha=0.005),
        policy="pcache",
        horizon=3,
        seed=0,
        batches=[RequestBatch(1, {(0, 0): 1}), RequestBatch(2, {key: 1})],
    )
    with pytest.raises(ConfigError, match="interval 2"):
        run(config)


def test_sweep_over_batch_list_has_no_beta_axis():
    base = _zipf_config(horizon=8)
    batches = [RequestBatch(t, {(t % 4, t % 3): 1 + t % 2, (0, 0): 1}) for t in range(1, 9)]
    base = SimConfig(
        topology=base.topology,
        catalog=base.catalog,
        params=base.params,
        policy="pcache",
        horizon=8,
        seed=0,
        batches=batches,
        check="full",
    )
    grid = SweepGrid(alphas=[0.002, 0.005], betas=[0.5, 1.0], policies=["pcache", "nocache"], seeds=[3])
    records, errors = sweep(grid, base)
    assert errors == []
    assert [(r["alpha"], r["policy"], r["beta"]) for r in records] == [
        (0.002, "nocache", None),
        (0.002, "pcache", None),
        (0.005, "nocache", None),
        (0.005, "pcache", None),
    ]
    assert all(r["requests"] == sum(b.total() for b in batches) for r in records)
    direct = run(replace(base, seed=derive_seed(3, "cell", None))).summary
    assert records[3]["total_cost"] == direct["total_cost"]
    assert records[3]["normalized_cost"] == direct["normalized_cost"]


def _cell(base, seed, beta, alpha, policy):
    params = replace(base.params, alpha=alpha)
    return replace(base, policy=policy, params=params, beta=beta, seed=derive_seed(seed, "cell", beta))


class _NearBoundContext(sim.RoutingContext):
    """A routing context whose offload candidates carry a d one ulp above the
    origin's switching cost p: every offload channel's cost exceeds its bound
    term, so the bound check reads its alpha * q at every live alpha, and
    passes it (the excess is far below the 1e-9 tolerance). Routing reads only
    the candidates' ids and the ledger prices communication from the
    topology, so every trajectory and cost stays as it was."""

    def __init__(self, topology, catalog, params):
        super().__init__(topology, catalog, params)
        self.offload = [
            [[(v2, math.nextafter(p, math.inf)) for v2, _ in pairs] for pairs, p in zip(row, self.p[v])]
            for v, row in enumerate(self.offload)
        ]


def test_sweep_checks_every_alpha_as_often_as_separate_runs(monkeypatch):
    """One simulation per (seed, beta, policy) keeps the coverage of one run per
    cell: validate_setup once per alpha per (seed, beta) point, since every
    lane of a point shares its inputs, and the per-request bound at every
    alpha for every routing channel a separate run would check, once per
    channel, since a channel's requests share their cost and bound. A channel
    whose cost is within its bound term passes at every alpha without reading
    an alpha * q table, so the clean grid reads none; a grid whose offload
    channels all exceed their bound terms reads as many per alpha as the
    separate runs do."""
    validated = Counter()
    evaluated = Counter()
    validate_setup = sim.validate_setup
    init = BoundChecks.__init__

    def counting_validate(topology, catalog, params):
        validated[params.alpha] += 1
        return validate_setup(topology, catalog, params)

    class CountingTable(list):
        """An alpha * q table that counts one bound evaluation per row read."""

        def __init__(self, rows, alpha):
            super().__init__(rows)
            self.alpha = alpha

        def __getitem__(self, origin):
            evaluated[self.alpha] += 1
            return list.__getitem__(self, origin)

    def counting_init(self, ctx, alphas):
        init(self, ctx, alphas)
        self.live = {alpha: CountingTable(table, alpha) for alpha, table in self.live.items()}

    monkeypatch.setattr(sim, "validate_setup", counting_validate)
    monkeypatch.setattr(BoundChecks, "__init__", counting_init)
    alphas = [0.001, 0.005, 0.015]
    base = _zipf_config(horizon=15, nodes=3, mean_rate=4.0)
    grid = SweepGrid(alphas=alphas, betas=[0.5, 1.5], policies=["pcache", "lru", "fc"], seeds=[3])
    records, errors = sweep(grid, base)
    assert errors == [] and len(records) == 18
    groups = 2  # betas; the policies and the nocache baseline of a point share one check
    assert validated == {alpha: groups for alpha in alphas}
    assert evaluated == {}

    monkeypatch.setattr(sim, "RoutingContext", _NearBoundContext)
    near_records, errors = sweep(grid, base)
    assert errors == [] and near_records == records
    swept = dict(evaluated)

    evaluated.clear()
    channels = Counter()
    near = [[{v2 for v2, _ in pairs} for pairs in row] for row in RoutingContext(base.topology, base.catalog, base.params).offload]
    for beta in grid.betas:
        for alpha in alphas:
            for policy in ("nocache", "pcache", "lru", "fc"):
                audit = run(replace(_cell(base, 3, beta, alpha, policy), audit=True)).audit
                # a channel's requests share one record; an overflow offload
                # reaches only nodes beyond p, whose d is not doctored, since
                # the nearer ones gave up their idle containers of the type first
                channels[alpha] += len(
                    {id(rec) for rec in audit if rec.action == "offload" and rec.serving_node in near[rec.origin][rec.ftype]}
                )
    assert swept == dict(evaluated) == dict(channels)
    assert sorted(swept) == alphas and min(swept.values()) > 0


def test_overflowing_baseline_is_simulated_once(monkeypatch):
    """A checked no-cache baseline whose total overflows fails its alpha in
    every lane without an unchecked re-run, which would overflow again."""
    calls = []
    simulate = sim._simulate

    def counting_simulate(configs, params):
        calls.append([c.policy for c in configs])
        return simulate(configs, params)

    monkeypatch.setattr(sim, "_simulate", counting_simulate)
    base = replace(_zipf_config(horizon=20, nodes=2), params=CostParams(alpha=0.005, switch_coeff=1e305), check="full")
    grid = SweepGrid(alphas=[0.005, 0.01], betas=[1.0], policies=["pcache", "lru"], seeds=[3])
    records, errors = sweep(grid, base)
    assert records == []
    assert [(e["alpha"], e["policy"]) for e in errors] == [
        (alpha, policy) for alpha in (0.005, 0.01) for policy in ("lru", "nocache", "pcache")
    ]
    assert all("total cost at alpha" in e["error"] and "is inf" in e["error"] for e in errors)
    assert calls == [["nocache", "pcache", "lru"]]


def test_sweep_bound_failure_ends_only_its_alpha(monkeypatch):
    distribute_interval = sim.distribute_interval

    def failing_at_interval_4(batch, states, ctx, policy, rng, audit=None, check=None):
        if batch.interval == 4 and check is not None and 0.01 in check.live:
            check.failures[0.01] = InvariantViolation("injected at interval 4")
            del check.live[0.01]
        return distribute_interval(batch, states, ctx, policy, rng, audit=audit, check=check)

    base = _zipf_config(horizon=8)
    grid = SweepGrid(alphas=[0.005, 0.01], betas=[1.0], policies=["pcache", "lru"], seeds=[3])
    clean, _ = sweep(grid, base)
    monkeypatch.setattr(sim, "distribute_interval", failing_at_interval_4)
    records, errors = sweep(grid, base)
    assert records == [r for r in clean if r["alpha"] == 0.005]
    assert errors == [
        {"alpha": 0.01, "beta": 1.0, "error": "InvariantViolation: injected at interval 4", "policy": policy, "seed": 3}
        for policy in ("lru", "nocache", "pcache")
    ]
    with pytest.raises(InvariantViolation, match="injected at interval 4"):
        run(replace(base, params=CostParams(alpha=0.01)))


def test_sweep_failed_baseline_group_normalizes_per_policy(monkeypatch):
    """When the checked nocache simulation fails, the policy cells still get a
    normalized cost from a no-cache run of their own, as a lone run() does."""
    check_states = sim._check_states

    def failing_for_nocache(config, states, interval):
        if config.policy == "nocache" and interval == 3:
            raise InvariantViolation("injected")
        return check_states(config, states, interval)

    base = _zipf_config(horizon=8)
    grid = SweepGrid(alphas=[0.005, 0.01], betas=[1.0], policies=["pcache"], seeds=[3])
    clean, _ = sweep(grid, base)
    monkeypatch.setattr(sim, "_check_states", failing_for_nocache)
    records, errors = sweep(grid, base)
    assert records == clean
    assert [(e["alpha"], e["policy"], e["error"]) for e in errors] == [
        (0.005, "nocache", "InvariantViolation: injected"),
        (0.01, "nocache", "InvariantViolation: injected"),
    ]


@pytest.mark.parametrize("axis", ["alphas", "betas", "policies", "seeds"])
def test_sweep_grid_rejects_repeated_values(axis):
    grid = dict(alphas=[0.005, 0.01], betas=[0.5, 1.0], policies=["pcache", "nocache"], seeds=[3, 4])
    grid[axis] = grid[axis] + grid[axis][:1]
    with pytest.raises(ConfigError, match=f"sweep grid {axis} must be distinct"):
        SweepGrid(**grid)


def test_sweep_over_replay_naming_unknown_node_raises():
    base = _zipf_config(horizon=4)
    base = replace(base, beta=None, batches=[RequestBatch(1, {(0, 0): 1}), RequestBatch(2, {(99, 0): 1})])
    grid = SweepGrid(alphas=[0.002, 0.005], betas=[1.0], policies=["pcache", "lru"], seeds=[3, 4])
    with pytest.raises(ConfigError, match="names node 99"):
        sweep(grid, base)


def test_fc_negative_ttl_raises_before_routing(monkeypatch):
    routed = []
    distribute_interval = sim.distribute_interval

    def counting(batch, *args, **kwargs):
        routed.append(batch.interval)
        return distribute_interval(batch, *args, **kwargs)

    monkeypatch.setattr(sim, "distribute_interval", counting)
    with pytest.raises(ConfigError, match="fc ttl"):
        run(_zipf_config(policy="fc", ttl=-1, horizon=30))
    assert routed == []


@pytest.mark.parametrize("horizon", [2.5, 3.0, True, "3"])
def test_horizon_that_is_not_an_int_is_refused(horizon):
    # 2.5 once ended in range()'s TypeError mid-run, and True ran one interval
    with pytest.raises(ConfigError, match="horizon must be an int"):
        _zipf_config(horizon=horizon)


@pytest.mark.parametrize("ttl", [2.5, 3.0, True, "3"])
def test_fc_ttl_that_is_not_an_int_is_refused(ttl):
    # fc once ran with ttl 2.5 or True without a word
    with pytest.raises(ConfigError, match="fc ttl must be an int"):
        run(_zipf_config(policy="fc", ttl=ttl, horizon=3))


def test_numpy_int_horizon_and_ttl_run_as_ints():
    config = _zipf_config(policy="fc", ttl=3, horizon=12)
    numpy_config = replace(config, ttl=np.int64(3), horizon=np.int64(12))
    assert summary_json(run(numpy_config)) == summary_json(run(config))
    # a replay that ends before the horizon is truncated, as a Python bool
    replay = replace(numpy_config, beta=None, batches=[RequestBatch(1, {(0, 0): 2}), RequestBatch(2, {(1, 1): 1})])
    result = run(replay)
    assert result.summary["truncated"] is True and result.summary["intervals"] == 2
    assert json.loads(summary_json(result))["truncated"] is True


# (node 0's doctored state, the message _check_states must raise): DEFAULT_CATALOG
# is 55, 158, 332 and 92 MB and _zipf_config's nodes hold 2000 MB
DOCTORED_STATES = {
    "over_capacity": (dict(cache=[0, 0, 7, 0], freq=[0, 0, 7, 0], used_mb=2324.0), "exceeds capacity"),
    "drifted": (dict(cache=[1, 0, 0, 0], freq=[1, 0, 0, 0], used_mb=56.0), "occupancy drifted"),
    "never_invoked": (dict(cache=[1, 0, 0, 0], used_mb=55.0), "never invoked"),
    "negative": (dict(active=[0, -1, 0, 0], cache=[0, 1, 0, 0], freq=[0, 1, 0, 0], used_mb=0.0), "negative"),
    # type 1 is never invoked and negative, types 2 and 3 negative: the first
    # odd type is named, as never invoked
    "several_faults": (
        dict(active=[0, -1, -1, 1], cache=[1, 2, 1, -1], freq=[1, 0, 1, 1], used_mb=213.0), "caches type 1 never invoked"
    ),
}


@pytest.mark.parametrize("case", sorted(DOCTORED_STATES))
def test_state_checks_trip_on_doctored_states(case):
    # every condition of the per-interval state check raises, naming its node
    # and interval; the undoctored states pass
    config = _zipf_config()
    states = [sim.NodeState(v, 4) for v in range(config.topology.n_nodes)]
    sim._check_states(config, states, 3)
    fields, message = DOCTORED_STATES[case]
    for name, value in fields.items():
        setattr(states[0], name, value)
    with pytest.raises(InvariantViolation, match=f"interval 3: node 0 .*{message}"):
        sim._check_states(config, states, 3)
