import numpy as np
import pytest

from edgesim.costs import interval_running_cost
from edgesim.errors import ConfigError
from edgesim.model import (
    DEFAULT_CATALOG,
    CostParams,
    EdgeNode,
    FunctionType,
    NodeState,
    RequestBatch,
    Topology,
    comm_cost_from_coords,
    load_topology,
    occupancy,
    running_cost,
    switching_cost,
    validate_setup,
)
from edgesim.policies import make_policy
from edgesim.scheduler import RoutingContext

from conftest import make_topology, route

WEB, FILEPROC, CHECKOUT, IMGREC = DEFAULT_CATALOG


def test_default_catalog_sizes():
    assert [f.mem_mb for f in DEFAULT_CATALOG] == [55.0, 158.0, 332.0, 92.0]


def test_switching_cost_web_server():
    node = EdgeNode(0, 1000.0, 1.0)
    p = CostParams(alpha=0.01, switch_coeff=1.0, run_coeff=1.0)
    assert switching_cost(node, WEB, p) == 55.0


def test_switching_cost_inverse_cpu():
    # 332 MB at 2.0 GHz with unit coefficient
    node = EdgeNode(0, 1000.0, 2.0)
    p = CostParams(alpha=0.001, switch_coeff=1.0, run_coeff=1.0)
    assert switching_cost(node, CHECKOUT, p) == 166.0


def test_zero_coefficients_rejected():
    with pytest.raises(ConfigError):
        CostParams(alpha=0.01, switch_coeff=0.0, run_coeff=1.0)
    with pytest.raises(ConfigError):
        CostParams(alpha=0.01, switch_coeff=1.0, run_coeff=0.0)
    with pytest.raises(ConfigError):
        CostParams(alpha=0.0)


def test_running_cost_image_recognition():
    node = EdgeNode(0, 1000.0, 1.0)
    p = CostParams(alpha=0.01, switch_coeff=1.0, run_coeff=0.01)
    assert running_cost(node, IMGREC, p) == pytest.approx(0.92)


def test_running_cost_identity_scaling():
    node = EdgeNode(0, 1000.0, 1.0)
    f = FunctionType(0, 1.0)
    for r in (0.25, 1.0, 3.5):
        p = CostParams(alpha=0.01, switch_coeff=100.0, run_coeff=r)
        assert running_cost(node, f, p) == pytest.approx(r)


def test_running_cost_proportional_cpu():
    node = EdgeNode(0, 1000.0, 1.5)
    p = CostParams(alpha=0.001, switch_coeff=1.0, run_coeff=0.01)
    assert running_cost(node, FILEPROC, p) == pytest.approx(2.37)


def test_comm_cost_345_triangle():
    nodes = [EdgeNode(0, 500, 1.0, coord=(0, 0)), EdgeNode(1, 500, 1.0, coord=(3, 4))]
    d = comm_cost_from_coords(nodes, 1.0)
    assert d[0][1] == 5.0
    assert d[1][0] == 5.0
    assert d[0][0] == 0.0


def test_comm_cost_single_node():
    nodes = [EdgeNode(0, 500, 1.0, coord=(7, 7))]
    d = comm_cost_from_coords(nodes, 1.0)
    assert d.shape == (1, 1)
    assert d[0][0] == 0.0


def test_comm_cost_collinear_scaled():
    nodes = [EdgeNode(i, 500, 1.0, coord=(i, 0)) for i in range(3)]
    d = comm_cost_from_coords(nodes, 2.0)
    assert d.tolist() == [[0, 2, 4], [2, 0, 2], [4, 2, 0]]


def test_comm_cost_missing_coord():
    nodes = [EdgeNode(0, 500, 1.0, coord=(0, 0)), EdgeNode(1, 500, 1.0)]
    with pytest.raises(ConfigError):
        comm_cost_from_coords(nodes, 1.0)


def test_topology_rejects_asymmetric_matrix():
    with pytest.raises(ConfigError):
        make_topology([500, 500], comm=[[0, 1], [2, 0]])
    with pytest.raises(ConfigError):
        make_topology([500, 500], comm=[[0, -1], [-1, 0]])
    with pytest.raises(ConfigError):
        make_topology([500, 500], comm=[[1, 1], [1, 0]])


def test_occupancy_empty():
    state = NodeState(0, len(DEFAULT_CATALOG))
    assert occupancy(state, DEFAULT_CATALOG) == 0


def test_occupancy_web_servers():
    state = NodeState(0, len(DEFAULT_CATALOG))
    state.active[WEB.id] = 2
    state.cache[WEB.id] = 1
    assert occupancy(state, DEFAULT_CATALOG) == 165.0


def test_occupancy_mixed_types():
    state = NodeState(0, len(DEFAULT_CATALOG))
    state.active[FILEPROC.id] = 1
    state.cache[CHECKOUT.id] = 1
    assert occupancy(state, DEFAULT_CATALOG) == 490.0


def test_validate_setup_capacity_vs_largest_container():
    topo = make_topology([200.0])  # smaller than the 332 MB checkout container
    with pytest.raises(ConfigError):
        validate_setup(topo, DEFAULT_CATALOG, CostParams(alpha=0.001))


def test_validate_setup_rejects_alpha_q_above_p():
    # alpha*q <= p iff alpha * run_coeff * cpu^2 <= switch_coeff
    topo = make_topology([4000.0], cpus=[2.0])
    bad = CostParams(alpha=0.5, switch_coeff=1.0, run_coeff=1.0)
    with pytest.raises(ConfigError):
        validate_setup(topo, DEFAULT_CATALOG, bad)
    good = CostParams(alpha=0.015, switch_coeff=1.0, run_coeff=1.0)
    validate_setup(topo, DEFAULT_CATALOG, good)


def test_validate_setup_randomized_feasibility():
    # randomized configurations: the validator must accept exactly those
    # where alpha * q <= p holds at every (type, node)
    rng = np.random.default_rng(42)
    for _ in range(200):
        cpu = float(rng.uniform(0.5, 3.0))
        alpha = float(rng.uniform(0.001, 0.1))
        run_coeff = float(rng.uniform(0.1, 30.0))
        topo = make_topology([4000.0], cpus=[cpu])
        params = CostParams(alpha=alpha, switch_coeff=1.0, run_coeff=run_coeff)
        feasible = alpha * run_coeff * cpu**2 <= 1.0
        if feasible:
            validate_setup(topo, DEFAULT_CATALOG, params)
        else:
            with pytest.raises(ConfigError):
                validate_setup(topo, DEFAULT_CATALOG, params)


def test_node_state_transitions_track_occupancy():
    state = NodeState(0, 4)
    ctx = RoutingContext(make_topology([4000.0]), DEFAULT_CATALOG, CostParams(alpha=0.01))
    policy = make_policy("pcache", 4)
    route([state], ctx, policy, 1, {(0, WEB.id): 1, (0, CHECKOUT.id): 1})
    assert state.active[WEB.id] == state.active[CHECKOUT.id] == 1
    assert state.used_mb == occupancy(state, DEFAULT_CATALOG)
    interval_running_cost([state], ctx)  # service completes: the actives idle
    assert state.active == [0, 0, 0, 0] and state.cache[WEB.id] == state.cache[CHECKOUT.id] == 1
    assert state.used_mb == occupancy(state, DEFAULT_CATALOG)
    # a hit takes the one cached container; the other two requests are created
    decision = route([state], ctx, policy, 2, {(0, WEB.id): 3})
    assert decision.local_served == {(0, WEB.id): 3} and decision.created == {(0, WEB.id): 2}
    assert state.active[WEB.id] == 3 and state.cache[WEB.id] == 0
    assert state.used_mb == occupancy(state, DEFAULT_CATALOG)
    state.remove_cached(CHECKOUT.id, CHECKOUT.mem_mb)
    assert state.used_mb == occupancy(state, DEFAULT_CATALOG) == 3 * 55.0
    with pytest.raises(ValueError):
        state.remove_cached(WEB.id, WEB.mem_mb, 3)


def test_request_batch_rejects_negative_counts():
    with pytest.raises(ConfigError):
        RequestBatch(interval=1, counts={(0, 0): -1})


def test_load_topology_roundtrip(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("id,capacity_mb,cpu_ghz,x,y\n0,4000,1.0,0,0\n1,2000,2.0,3,4\n")
    topo = load_topology(path)
    assert topo.n_nodes == 2
    assert topo.nodes[1].capacity_mb == 2000.0
    assert topo.comm_cost[0][1] == 5.0


def test_load_topology_explicit_matrix(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,capacity_mb,cpu_ghz,x,y\n0,4000,1.0,,\n1,2000,2.0,,\n")
    comm = tmp_path / "comm.csv"
    comm.write_text("0,7\n7,0\n")
    topo = load_topology(nodes, comm_path=comm)
    assert topo.comm_cost[0][1] == 7.0


def test_load_topology_without_nodes(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("id,capacity_mb,cpu_ghz,x,y\n")
    with pytest.raises(ConfigError, match="no nodes"):
        load_topology(path)


def test_admit_creates_containers_while_they_fit():
    catalog = (FunctionType(0, 332.0), FunctionType(1, 134.0), FunctionType(2, 55.0))
    ctx = RoutingContext(make_topology([600.0]), catalog, CostParams(alpha=0.01))
    state = NodeState(0, 3)
    policy = make_policy("pcache", 3)
    # 332 + 2 * 134 = 600 exactly: the second 134 MB container still fits,
    # and the requests no container fits for are rejected
    decision = route([state], ctx, policy, 1, {(0, 0): 1, (0, 1): 5})
    assert decision.created == {(0, 0): 1, (0, 1): 2} and decision.rejected == {(0, 1): 3}
    assert state.active == [1, 2, 0] and state.used_mb == 600.0
    decision = route([state], ctx, policy, 1, {(0, 2): 1})
    assert decision.created == {} and decision.rejected == {(0, 2): 1}
    assert state.active == [1, 2, 0] and state.used_mb == 600.0


def test_load_topology_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_topology(tmp_path / "absent.csv")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_numbers_rejected(bad):
    from edgesim.workload import ZipfConfig

    with pytest.raises(ConfigError):
        EdgeNode(0, bad, 1.0)
    with pytest.raises(ConfigError):
        EdgeNode(0, 1000.0, bad)
    with pytest.raises(ConfigError):
        FunctionType(0, bad)
    for field in ("alpha", "switch_coeff", "run_coeff"):
        with pytest.raises(ConfigError):
            CostParams(**{"alpha": 0.01, field: bad})
    with pytest.raises(ConfigError):
        ZipfConfig(beta=bad, n_types=2, mean_rate=1.0)
    with pytest.raises(ConfigError):
        ZipfConfig(beta=1.0, n_types=2, mean_rate=bad)


def test_request_batch_stores_numpy_counts_as_int():
    batch = RequestBatch(interval=1, counts={(0, 0): np.int64(2), (0, 1): 3})
    assert batch.counts == {(0, 0): 2, (0, 1): 3}
    assert all(type(c) is int for c in batch.counts.values())
    with pytest.raises(ConfigError):
        RequestBatch(interval=1, counts={(0, 0): np.int64(-1)})
    with pytest.raises(ConfigError):
        RequestBatch(interval=1, counts={(0, 0): 2.0})


@pytest.mark.parametrize("count", [True, False])
def test_request_batch_rejects_bool_counts(count):
    # as it refuses bool keys: True is no request count, though it equals 1
    with pytest.raises(ConfigError, match="non-negative int"):
        RequestBatch(interval=1, counts={(0, 0): count})


def test_request_batch_orders_keys_ascending():
    counts = {(v, n): np.int64(v + n + 1) for v in range(3) for n in range(4)}
    reversed_counts = dict(reversed(counts.items()))
    batch = RequestBatch(interval=1, counts=reversed_counts)
    assert list(batch.counts) == sorted(counts)
    assert batch.counts == counts
    assert all(type(c) is int for c in batch.counts.values())


@pytest.mark.parametrize(
    "counts",
    [
        {(0, "a"): 1, (0, 1): 1},
        {5: 1},
        {(0, 1, 2): 1},
        {(0,): 1},
        {(0.0, 1): 1},
        {(True, 1): 1},
        {"01": 1},
    ],
    ids=["type_text", "bare_int", "triple", "single", "node_float", "node_bool", "text"],
)
def test_request_batch_rejects_malformed_keys(counts):
    with pytest.raises(ConfigError, match="pair of ints"):
        RequestBatch(interval=1, counts=counts)
