"""Golden bytes: run, audit and sweep outputs pinned by SHA-256.

The hashes were computed before the run loop's refactors, so a refactor that
changes any output byte (a cost summed in another order, a random draw moved)
fails here. They depend on numpy's Generator streams; a numpy upgrade that
changes those streams changes them too, and must say so when it re-pins.
"""

import hashlib
import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from edgesim import cli
from edgesim.model import DEFAULT_CATALOG, CostParams
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
SWEEP_GOLDEN = "ee8f365f1eae875f350383d7a813447150a999ca33774a996dd4150772ebf834"


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


@pytest.mark.parametrize("policy,check", sorted(DESK_GOLDEN))
def test_desk_run_bytes(policy, check, tmp_path):
    assert desk_digest(policy, check, tmp_path) == DESK_GOLDEN[(policy, check)]


def test_trace_audit_run_bytes(tmp_path):
    assert audit_digest(tmp_path) == AUDIT_GOLDEN


def test_sweep_results_bytes(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_GOLDEN


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
