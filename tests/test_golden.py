"""Golden bytes: run, audit, sweep and oracle outputs pinned by SHA-256.

The hashes were computed before the refactors of the run loop and of the
oracle's pricing, so a refactor that changes any output byte (a cost summed in
another order, a random draw moved, another optimal witness) fails here. They
depend on numpy's Generator streams; a numpy upgrade that changes those streams
changes them too, and must say so when it re-pins.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from edgesim import cli
from edgesim.model import DEFAULT_CATALOG, CostParams, EdgeNode, FunctionType, RequestBatch, Topology
from edgesim.oracle import TinyInstance, instance_to_json, random_tiny_instance, solve_exact
from edgesim.sim import SimConfig, run, summary_json

from conftest import desk_topology

DESK_GOLDEN = {
    ("pcache", "off"): "7e63fe054a1bb367353601dbfcc1daa58150c70869715d3c2eba6a40496c5644",
    ("pcache", "full"): "7e63fe054a1bb367353601dbfcc1daa58150c70869715d3c2eba6a40496c5644",
    ("lru", "off"): "711b65413c9e9f706a57dad93efc5651454c1b82fe3c3b7bf580c1f16a31e880",
    ("lru", "full"): "711b65413c9e9f706a57dad93efc5651454c1b82fe3c3b7bf580c1f16a31e880",
    ("fc", "off"): "49846e50679ba7657d6d7cca5d1347de22060b713c23fa831f5961c9ca3bb4f4",
    ("fc", "full"): "49846e50679ba7657d6d7cca5d1347de22060b713c23fa831f5961c9ca3bb4f4",
    ("nocache", "off"): "3e59a3582c62ab23e1281614e7c023aa1d95d34ff5fb5287a5f9ce7a80222024",
    ("nocache", "full"): "3e59a3582c62ab23e1281614e7c023aa1d95d34ff5fb5287a5f9ce7a80222024",
}
AUDIT_GOLDEN = "4b3f82b09420b86adbd176ba9578baea1fc7296d8110a48458454a68c05590e8"
SWEEP_ERRORS_GOLDEN = "6f180fab4b1bd35280699ead9eac98e21d372826e63626cba50a3e9bd68caa05"
SWEEP_GOLDEN = "ee8f365f1eae875f350383d7a813447150a999ca33774a996dd4150772ebf834"
ORACLE_RANDOM_GOLDEN = "0caad0e691a09673e8f5c1960dc4a57c37fe7b4ad280bda3dd9c9c7a39424b02"
ORACLE_CAP_GOLDEN = "f6ec424b7163658cbdffde2e2c30f68f972a165af0cdf25cfeadd2df1115b37d"
ORACLE_CLI_GOLDEN = "779f403389522679eaffac31938016f2f0f0cd59a305171d92779b98fcba484a"

# Demand [interval][node][type] of the size-capped oracle instances: about
# 6.3e6 enumeration steps, inside the solver's 1e7 budget.
CAP_DEMAND = (
    ((2, 0), (2, 0), (1, 2)),
    ((1, 0), (0, 1), (1, 0)),
    ((1, 1), (1, 2), (0, 0)),
)


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def desk_digest(policy, check, tmp_path):
    # capacity 1000 MB at rate 1.2 keeps the caches under eviction pressure
    config = SimConfig(
        topology=desk_topology(n_nodes=12, capacity=1000.0, seed=5, scale=8.0),
        catalog=DEFAULT_CATALOG,
        params=CostParams(alpha=0.005),
        policy=policy,
        horizon=300,
        seed=11,
        beta=1.0,
        mean_rate=1.2,
        ttl=4,
        check=check,
    )
    result = run(config)
    path = tmp_path / f"{policy}-{check}.csv"
    result.ledger.write_csv(path)
    return _sha(summary_json(result).encode(), path.read_bytes())


def _write_nodes(path, n_nodes, capacity):
    rng = np.random.default_rng(21)
    rows = ["id,capacity_mb,cpu_ghz,x,y"]
    for i in range(n_nodes):
        x, y = (float(c) for c in rng.uniform(0, 40, size=2))
        rows.append(f"{i},{capacity},{1.0 + 0.5 * (i % 4)},{x!r},{y!r}")
    path.write_text("\n".join(rows) + "\n")


def audit_digest(tmp_path):
    nodes = tmp_path / "nodes.csv"
    _write_nodes(nodes, 6, 900)
    rng = np.random.default_rng(22)
    rows = ["interval,node,ftype,count"]
    for t in range(1, 41):
        for v in range(6):
            for n in range(4):
                c = int(rng.poisson(0.6))
                if c:
                    rows.append(f"{t},{v},{n},{c}")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(rows) + "\n")
    out = tmp_path / "audit-out"
    argv = [
        "run", "--policy", "pcache", "--alpha", "0.005", "--nodes", str(nodes),
        "--trace", str(trace), "--horizon", "40", "--seed", "3", "--check", "full",
        "--audit", "--output", str(out),
    ]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return _sha(*((out / name).read_bytes() for name in ("ledger.csv", "audit.csv", "summary.json")))


def sweep_digest(tmp_path):
    nodes = tmp_path / "nodes.csv"
    _write_nodes(nodes, 5, 1200)
    out = tmp_path / "sweep-out"
    argv = [
        "sweep", "--alphas", "0.002,0.01", "--betas", "0.6,1.4", "--policies", "pcache,lru,fc,nocache",
        "--nodes", str(nodes), "--mean-rate", "1.5", "--horizon", "30", "--seeds", "1,2",
        "--output", str(out),
    ]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    lines = (out / "results.jsonl").read_bytes().splitlines()
    assert len(lines) == 2 * 2 * 2 * 4
    return _sha(*lines)


def sweep_errors_digest(tmp_path):
    """A sweep whose middle alpha fails validate_setup at the 2.5 GHz node
    (alpha * q > p once alpha > 1 / cpu^2 = 0.16): only that alpha's cells,
    nocache included, land in errors.jsonl."""
    nodes = tmp_path / "nodes.csv"
    _write_nodes(nodes, 5, 1200)
    out = tmp_path / "sweep-errors-out"
    argv = [
        "sweep", "--alphas", "0.002,0.2,0.01", "--betas", "0.6,1.4", "--policies", "pcache,lru,fc",
        "--nodes", str(nodes), "--mean-rate", "1.5", "--horizon", "20", "--seeds", "4",
        "--check", "full", "--output", str(out),
    ]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    results = (out / "results.jsonl").read_bytes()
    errors = (out / "errors.jsonl").read_bytes()
    assert len(results.splitlines()) == 2 * 2 * 3
    assert len(errors.splitlines()) == 2 * 4
    return _sha(results, errors)


def cap_instance(rng):
    """A 3-node/2-type/3-interval instance of CAP_DEMAND: the rng permutes
    nodes and types and draws every number, and every node fits one
    interval's global demand."""
    demand = np.array(CAP_DEMAND)
    demand = demand[:, rng.permutation(demand.shape[1])][:, :, rng.permutation(demand.shape[2])]
    horizon, n_nodes, n_types = demand.shape
    mems = rng.uniform(50, 350, size=n_types)
    catalog = tuple(FunctionType(n, float(round(mems[n], 1))) for n in range(n_types))
    cpus = rng.uniform(0.5, 2.0, size=n_nodes)
    peak = max(sum(int(demand[t, :, n].sum()) * catalog[n].mem_mb for n in range(n_types)) for t in range(horizon))
    capacity = max(peak, max(mems)) * float(rng.uniform(1.0, 1.3))
    nodes = [EdgeNode(v, float(round(capacity, 1)), float(round(cpus[v], 2))) for v in range(n_nodes)]
    comm = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            comm[i, j] = comm[j, i] = float(round(rng.uniform(0.5, 150.0), 2))
    alpha = float(rng.uniform(0.002, 0.02))
    run_coeff = float(rng.uniform(0.1, 0.9)) / (alpha * max(n.cpu_ghz for n in nodes) ** 2)
    batches = [
        RequestBatch(t + 1, {(v, n): int(demand[t, v, n]) for v in range(n_nodes) for n in range(n_types) if demand[t, v, n]})
        for t in range(horizon)
    ]
    return TinyInstance(
        topology=Topology(nodes=nodes, comm_cost=comm),
        catalog=catalog,
        params=CostParams(alpha=alpha, run_coeff=run_coeff),
        horizon=horizon,
        batches=batches,
    )


def cap_instances():
    rng = np.random.default_rng([7, 4])
    return [cap_instance(rng) for _ in range(4)]


def oracle_digest(instances):
    """The optimum's repr (an np.float64 repr differs from a float's) and the
    witness JSON of every instance."""
    parts = []
    for inst in instances:
        sol = solve_exact(inst)
        parts += [repr(sol.cost).encode(), json.dumps(sol.witness).encode()]
    return _sha(*parts)


def test_oracle_random_tiny_bytes():
    instances = [random_tiny_instance(np.random.default_rng(k)) for k in range(200)]
    assert oracle_digest(instances) == ORACLE_RANDOM_GOLDEN


def test_oracle_size_cap_bytes():
    assert oracle_digest(cap_instances()) == ORACLE_CAP_GOLDEN


def test_oracle_cli_compare_bytes(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(cap_instances()[1])))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(["oracle", "--instance", str(path), "--compare", "pcache"]) == 0
    assert _sha(stdout.getvalue().encode()) == ORACLE_CLI_GOLDEN


@pytest.mark.parametrize("policy,check", sorted(DESK_GOLDEN))
def test_desk_run_bytes(policy, check, tmp_path):
    assert desk_digest(policy, check, tmp_path) == DESK_GOLDEN[(policy, check)]


def test_trace_audit_run_bytes(tmp_path):
    assert audit_digest(tmp_path) == AUDIT_GOLDEN


def test_sweep_results_bytes(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_GOLDEN


def test_sweep_errors_bytes(tmp_path):
    assert sweep_errors_digest(tmp_path) == SWEEP_ERRORS_GOLDEN


def test_golden_inputs_exercise_every_path(tmp_path):
    """The pinned desk run hits, offloads and cold-starts, so its hashes
    cover every routing path a refactor of the run loop can move."""
    config = SimConfig(
        topology=desk_topology(n_nodes=12, capacity=1000.0, seed=5, scale=8.0),
        catalog=DEFAULT_CATALOG,
        params=CostParams(alpha=0.005),
        policy="pcache",
        horizon=300,
        seed=11,
        beta=1.0,
        mean_rate=1.2,
        check="off",
        audit=True,
    )
    result = run(config)
    actions = {rec.action for rec in result.audit}
    assert {"hit", "offload", "create"} <= actions
    assert 0 < result.summary["cold_starts"] < result.summary["requests"]
