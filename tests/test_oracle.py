import math
from dataclasses import replace

import numpy as np
import pytest

from edgesim.errors import CompetitiveBoundError, ConfigError, InfeasibleInstance, InstanceTooLarge, InvariantViolation
from edgesim.model import CostParams, EdgeNode, FunctionType, RequestBatch, Topology
from edgesim.oracle import (
    OracleSolution,
    TinyInstance,
    check_witness,
    competitive_check,
    instance_from_json,
    instance_to_json,
    per_request_bound,
    per_request_lower_bound,
    random_tiny_instance,
    solve_exact,
)
from edgesim.scheduler import AuditRecord
from edgesim.sim import SimConfig, run

from conftest import make_topology


def _one_node_instance(horizon, request_intervals, alpha=0.01, run_coeff=1.0, capacity=400.0):
    topo = make_topology([capacity])
    catalog = (FunctionType(0, 55.0),)
    params = CostParams(alpha=alpha, switch_coeff=1.0, run_coeff=run_coeff)
    batches = [RequestBatch(interval=t, counts={(0, 0): 1}) for t in request_intervals]
    return TinyInstance(topology=topo, catalog=catalog, params=params, horizon=horizon, batches=batches)


def test_zero_requests_cost_zero():
    inst = _one_node_instance(horizon=1, request_intervals=[])
    sol = solve_exact(inst)
    assert sol.cost == 0.0
    assert all(w["assignments"] == [] for w in sol.witness)


def test_single_request_pays_switch_plus_one_interval():
    # the 2-choice space: create (mandatory), then keep or destroy; destroying
    # after the horizon is free, so OPT = p + alpha*q
    inst = _one_node_instance(horizon=1, request_intervals=[1])
    sol = solve_exact(inst)
    assert sol.cost == pytest.approx(55.0 + 0.01 * 55.0)


def test_back_to_back_requests_cache_between():
    # create once and keep: p + 2*alpha*q = 55 + 1.1 = 56.1, strictly better
    # than re-creating (2p + 2*alpha*q = 111.1) since alpha*q <= p
    inst = _one_node_instance(horizon=2, request_intervals=[1, 2])
    sol = solve_exact(inst)
    assert sol.cost == pytest.approx(56.1)
    kept = sol.witness[0]["kept"]
    assert kept == [{"node": 0, "ftype": 0, "count": 1}]


def test_cross_node_reuse_beats_recreation():
    # t1: request at node 0 (create, p=100); t2: request at node 1, served by
    # node 0's kept container over d=5: 100 + 2*aq + 5 with aq=1 -> 107
    nodes = [EdgeNode(0, 400.0, 1.0), EdgeNode(1, 400.0, 1.0)]
    topo = Topology(nodes=nodes, comm_cost=np.array([[0.0, 5.0], [5.0, 0.0]]))
    catalog = (FunctionType(0, 100.0),)
    params = CostParams(alpha=0.01, switch_coeff=1.0, run_coeff=1.0)
    batches = [
        RequestBatch(interval=1, counts={(0, 0): 1}),
        RequestBatch(interval=2, counts={(1, 0): 1}),
    ]
    inst = TinyInstance(topology=topo, catalog=catalog, params=params, horizon=2, batches=batches)
    sol = solve_exact(inst)
    assert sol.cost == pytest.approx(107.0)
    # two symmetric optima exist (create at either node, offload the other
    # interval's request); either way exactly one route crosses the link
    cross = [
        r
        for w in sol.witness
        for r in w["assignments"]
        if r["origin"] != r["serve_at"]
    ]
    assert sum(r["count"] for r in cross) == 1


def test_capacity_forces_second_node():
    # two simultaneous requests, each node only fits one container
    nodes = [EdgeNode(0, 110.0, 1.0), EdgeNode(1, 110.0, 1.0)]
    topo = Topology(nodes=nodes, comm_cost=np.array([[0.0, 2.0], [2.0, 0.0]]))
    catalog = (FunctionType(0, 100.0),)
    params = CostParams(alpha=0.01, switch_coeff=1.0, run_coeff=1.0)
    batches = [RequestBatch(interval=1, counts={(0, 0): 2})]
    inst = TinyInstance(topology=topo, catalog=catalog, params=params, horizon=1, batches=batches)
    sol = solve_exact(inst)
    # create at both nodes: 2p + 2*aq, plus d for the offloaded one
    assert sol.cost == pytest.approx(100.0 + 100.0 + 2.0 * 1.0 + 2.0)


def test_node_label_permutation_invariance():
    rng = np.random.default_rng(77)
    for _ in range(20):
        inst = random_tiny_instance(rng)
        v = inst.topology.n_nodes
        if v < 2:
            continue
        perm = list(rng.permutation(v))
        inv = [perm.index(i) for i in range(v)]
        nodes = [
            EdgeNode(i, inst.topology.nodes[perm[i]].capacity_mb, inst.topology.nodes[perm[i]].cpu_ghz)
            for i in range(v)
        ]
        comm = np.zeros((v, v))
        for i in range(v):
            for j in range(v):
                comm[i][j] = inst.topology.comm_cost[perm[i]][perm[j]]
        batches = [
            RequestBatch(
                interval=b.interval,
                counts={(inv[vv], n): c for (vv, n), c in b.counts.items()},
            )
            for b in inst.batches
        ]
        permuted = TinyInstance(
            topology=Topology(nodes=nodes, comm_cost=comm),
            catalog=inst.catalog,
            params=inst.params,
            horizon=inst.horizon,
            batches=batches,
        )
        assert solve_exact(permuted).cost == pytest.approx(solve_exact(inst).cost, rel=1e-12)


def test_instance_caps_enforced():
    topo = make_topology([4000.0] * 4)
    catalog = (FunctionType(0, 55.0),)
    params = CostParams(alpha=0.01)
    with pytest.raises(InstanceTooLarge):
        TinyInstance(topology=topo, catalog=catalog, params=params, horizon=1, batches=[])
    topo2 = make_topology([4000.0])
    with pytest.raises(InstanceTooLarge):
        TinyInstance(topology=topo2, catalog=catalog, params=params, horizon=5, batches=[])


def test_instance_rejects_two_batches_for_one_interval():
    # the solver sums them, the policy replay would keep one: a different workload
    batches = [RequestBatch(2, {(0, 0): 1}), RequestBatch(2, {(0, 0): 1})]
    with pytest.raises(ConfigError, match="interval 2"):
        TinyInstance(
            topology=make_topology([4000.0]), catalog=(FunctionType(0, 55.0),),
            params=CostParams(alpha=0.01), horizon=2, batches=batches,
        )


@pytest.mark.parametrize("interval, key", [(3, (0, 0)), (0, (0, 0)), (1, (1, 0)), (1, (0, 1))])
def test_malformed_batch_is_config_error_not_too_large(interval, key):
    # an interval outside 1..horizon or an unknown node/type: malformed, not large
    with pytest.raises(ConfigError) as err:
        TinyInstance(
            topology=make_topology([4000.0]), catalog=(FunctionType(0, 55.0),),
            params=CostParams(alpha=0.01), horizon=2, batches=[RequestBatch(interval, {key: 1})],
        )
    assert type(err.value) is ConfigError


def test_enumeration_budget_refusal():
    # aggressive demand blows the enumeration estimate without tripping the
    # structural caps first
    topo = make_topology([30000.0] * 3)
    catalog = (FunctionType(0, 55.0), FunctionType(1, 92.0))
    params = CostParams(alpha=0.01)
    batches = [
        RequestBatch(interval=t, counts={(v, n): 9 for v in range(3) for n in range(2)})
        for t in (1, 2, 3)
    ]
    inst = TinyInstance(topology=topo, catalog=catalog, params=params, horizon=3, batches=batches)
    with pytest.raises(InstanceTooLarge):
        solve_exact(inst)


def test_interval_over_every_capacity_is_infeasible():
    # two 60 MB requests in interval 2 need 120 MB at the only node, of 100 MB
    inst = TinyInstance(
        topology=make_topology([100.0]),
        catalog=(FunctionType(0, 60.0),),
        params=CostParams(alpha=0.01),
        horizon=2,
        batches=[RequestBatch(interval=2, counts={(0, 0): 2})],
    )
    with pytest.raises(InfeasibleInstance, match="interval 2"):
        solve_exact(inst)


def _two_interval_solution():
    # t1: two requests at node 0, one created at each node; t2: one request
    # at node 1, served by the kept container there
    nodes = [EdgeNode(0, 110.0, 1.0), EdgeNode(1, 110.0, 1.0)]
    inst = TinyInstance(
        topology=Topology(nodes=nodes, comm_cost=np.array([[0.0, 2.0], [2.0, 0.0]])),
        catalog=(FunctionType(0, 100.0),),
        params=CostParams(alpha=0.01),
        horizon=2,
        batches=[RequestBatch(1, {(0, 0): 2}), RequestBatch(2, {(1, 0): 1})],
    )
    return inst, solve_exact(inst)


def test_witness_replays_at_the_optimum():
    inst, sol = _two_interval_solution()
    check_witness(inst, sol)
    assert sol.witness[0]["kept"] == [{"node": 1, "ftype": 0, "count": 1}]
    assert sol.witness[0]["destroyed"] == [{"node": 0, "ftype": 0, "count": 1}]


def _doctor(witness, t, key, k, **changes):
    witness[t - 1][key][k].update(changes)


@pytest.mark.parametrize(
    "doctor, message",
    [
        (lambda w: w[0]["assignments"].pop(), "witness serves"),  # a request unserved
        (lambda w: _doctor(w, 1, "assignments", 0, count=2), "witness serves"),  # served twice
        (lambda w: _doctor(w, 1, "assignments", 1, origin=1), "witness serves"),  # another batch's request
        (lambda w: _doctor(w, 1, "assignments", 1, serve_at=0), "needs 200.0 MB at node 0"),  # over capacity
        (lambda w: w[0]["destroyed"].clear(), "is not the pool"),  # kept + destroyed short of the pool
        (lambda w: _doctor(w, 1, "kept", 0, count=2), "is not the pool"),  # kept above the pool
        (lambda w: _doctor(w, 1, "destroyed", 0, count=0), "malformed destroyed"),
        (lambda w: w.pop(), "not 1..2"),  # an interval missing
        (lambda w: w.reverse(), "not 1..2"),
        # a consistent schedule, not the one priced: nothing kept after t1, so
        # t2 switches a container on again
        (lambda w: (w[0]["kept"].clear(), w[0]["destroyed"].append({"node": 1, "ftype": 0, "count": 1})),
         "the witness costs"),
    ],
)
def test_witness_replay_rejects_a_doctored_witness(doctor, message):
    inst, sol = _two_interval_solution()
    doctor(sol.witness)
    with pytest.raises(InvariantViolation, match=message):
        check_witness(inst, sol)


@pytest.mark.parametrize("factor", [0.5, 1 + 1e-8])
def test_witness_replay_rejects_a_misreported_cost(factor):
    inst, sol = _two_interval_solution()
    check_witness(inst, OracleSolution(sol.cost * (1 + 1e-10), sol.witness))  # within a relative 1e-9
    with pytest.raises(InvariantViolation, match="the witness costs"):
        check_witness(inst, OracleSolution(sol.cost * factor, sol.witness))


def test_per_request_bound_local_hit():
    topo = make_topology([4000.0])
    params = CostParams(alpha=0.001, run_coeff=0.2)
    node = topo.nodes[0]
    aq = params.alpha * 0.2 * 55.0
    realized, bound = per_request_bound(FunctionType(0, 55.0), node, node, True, params, topo)
    assert realized == pytest.approx(aq)
    assert bound >= realized


def test_per_request_bound_creation_equality():
    topo = make_topology([4000.0])
    params = CostParams(alpha=0.001, run_coeff=1.0)
    node = topo.nodes[0]
    realized, bound = per_request_bound(FunctionType(0, 55.0), node, node, False, params, topo)
    assert realized == bound  # p + alpha*q is exactly the worst case
    assert realized == pytest.approx(55.0 + params.alpha * 55.0)


def test_per_request_bound_offload_below_bound():
    topo = make_topology([4000.0, 4000.0], comm=[[0, 3], [3, 0]])
    params = CostParams(alpha=0.001, run_coeff=1.0)
    f = FunctionType(0, 55.0)
    realized, bound = per_request_bound(f, topo.nodes[0], topo.nodes[1], True, params, topo)
    assert realized == pytest.approx(3.0 + params.alpha * 55.0)
    assert realized <= bound
    assert bound == pytest.approx(55.0 + params.alpha * 55.0)


def test_per_request_lower_bound_values():
    node = EdgeNode(0, 400.0, 1.0)
    f = FunctionType(0, 55.0)
    p1 = CostParams(alpha=0.01, run_coeff=1.0)
    p2 = CostParams(alpha=0.02, run_coeff=1.0)
    assert per_request_lower_bound(f, node, p1) == pytest.approx(0.55)
    assert per_request_lower_bound(f, node, p2) == pytest.approx(2 * 0.55)


def test_competitive_check_all_hits():
    topo = make_topology([400.0])
    catalog = (FunctionType(0, 55.0),)
    params = CostParams(alpha=0.01, run_coeff=1.0)
    aq = 0.01 * 55.0
    records = [AuditRecord(1, 0, 0, "hit", 0, aq, 55.0 + aq) for _ in range(5)]
    report = competitive_check(records, topo, catalog, params)
    assert report.max_ratio == pytest.approx(1.0)
    assert report.n_checked == 5


def test_competitive_check_creation_ratio():
    topo = make_topology([400.0])
    catalog = (FunctionType(0, 55.0),)
    params = CostParams(alpha=0.01, run_coeff=1.0)
    aq = 0.01 * 55.0
    records = [AuditRecord(1, 0, 0, "create", 0, 55.0 + aq, 55.0 + aq)]
    report = competitive_check(records, topo, catalog, params)
    assert report.max_ratio == pytest.approx(1.0 + 55.0 / aq)


def test_competitive_check_adversarial_log_fails():
    topo = make_topology([400.0])
    catalog = (FunctionType(0, 55.0),)
    params = CostParams(alpha=0.01, run_coeff=1.0)
    records = [AuditRecord(1, 0, 0, "hit", 0, 999.0, 55.55)]
    with pytest.raises(CompetitiveBoundError):
        competitive_check(records, topo, catalog, params)


def _overflow_audit():
    """An audited run of a 55 MB origin beside a 220 MB node 100 away, beyond
    the origin's switching cost of 55: it hits, creates at the origin, takes
    the far node's idle containers, creates there and rejects."""
    topo = make_topology([55.0, 220.0], comm=[[0, 100], [100, 0]])
    catalog = (FunctionType(0, 55.0),)
    params = CostParams(alpha=0.01, run_coeff=1.0)
    batches = [RequestBatch(1, {(0, 0): 4}), RequestBatch(2, {(0, 0): 7})]
    config = SimConfig(
        topology=topo, catalog=catalog, params=params, policy="lru", horizon=2, seed=0,
        batches=batches, check="full", audit=True,
    )
    return run(config).audit, topo, catalog, params


def test_competitive_check_verifies_every_channel_of_a_run():
    audit, topo, catalog, params = _overflow_audit()
    channels = {(r.action, r.serving_node) for r in audit}
    assert channels == {("hit", 0), ("create", 0), ("offload", 1), ("create", 1), ("reject", -1)}
    report = competitive_check(audit, topo, catalog, params)
    fallbacks = sum(r.action == "create" and r.serving_node == 1 for r in audit)
    rejects = sum(r.action == "reject" for r in audit)
    assert (report.n_records, report.n_fallback_creations, report.n_rejected) == (len(audit), fallbacks, rejects)
    assert report.n_checked == len(audit) - fallbacks - rejects


def _doctored(audit, channel, **changes):
    """The audit with the first record of `channel` (action, serving node) replaced."""
    i = next(i for i, r in enumerate(audit) if (r.action, r.serving_node) == channel)
    return audit[:i] + [replace(audit[i], **changes)] + audit[i + 1 :]


@pytest.mark.parametrize("channel", [("hit", 0), ("create", 0), ("offload", 1)])
def test_competitive_check_rejects_an_understated_cost(channel):
    # one ulp under the realized cost: within the bound, but not what was paid
    audit, topo, catalog, params = _overflow_audit()
    cost = next(r.marginal_cost for r in audit if (r.action, r.serving_node) == channel)
    doctored = _doctored(audit, channel, marginal_cost=math.nextafter(cost, 0.0))
    with pytest.raises(CompetitiveBoundError, match="logged cost"):
        competitive_check(doctored, topo, catalog, params)


@pytest.mark.parametrize("channel", [("hit", 0), ("create", 0), ("offload", 1), ("create", 1)])
def test_competitive_check_rejects_an_overstated_bound(channel):
    audit, topo, catalog, params = _overflow_audit()
    bound = next(r.bound for r in audit if (r.action, r.serving_node) == channel)
    doctored = _doctored(audit, channel, bound=math.nextafter(bound, math.inf))
    with pytest.raises(CompetitiveBoundError, match="logged cost"):
        competitive_check(doctored, topo, catalog, params)


def test_competitive_check_rejects_a_doctored_fallback_creation():
    # a creation on the far node pays d + p there: logging p at the origin hides it
    audit, topo, catalog, params = _overflow_audit()
    rec = next(r for r in audit if (r.action, r.serving_node) == ("create", 1))
    doctored = _doctored(audit, ("create", 1), marginal_cost=rec.marginal_cost - 100.0)
    with pytest.raises(CompetitiveBoundError, match="logged cost"):
        competitive_check(doctored, topo, catalog, params)


def _policy_cost(inst, policy, seed=3):
    config = SimConfig(
        topology=inst.topology,
        catalog=inst.catalog,
        params=inst.params,
        policy=policy,
        horizon=inst.horizon,
        seed=seed,
        batches=inst.batches,
        check="full",
    )
    result = run(config)
    assert result.summary["rejections"] == 0
    return result.summary["total_cost"]


def test_oracle_dominates_policies_on_random_instances():
    rng = np.random.default_rng(12345)
    strict_win = False
    for _ in range(30):
        inst = random_tiny_instance(rng)
        opt = solve_exact(inst).cost
        costs = {p: _policy_cost(inst, p) for p in ("pcache", "lru", "fc", "nocache")}
        for policy, cost in costs.items():
            assert opt <= cost + 1e-9, f"oracle {opt} above {policy} {cost}"
        if costs["pcache"] < costs["nocache"] - 1e-9:
            strict_win = True
    assert strict_win


def test_instance_json_roundtrip():
    rng = np.random.default_rng(5)
    inst = random_tiny_instance(rng)
    obj = instance_to_json(inst)
    back = instance_from_json(obj)
    assert solve_exact(back).cost == pytest.approx(solve_exact(inst).cost, rel=1e-12)
