"""Golden bytes: run, audit, sweep and oracle outputs pinned by SHA-256.

The hashes were computed before the refactors of the run loop, of the
oracle's pricing and of the routing tables, so a refactor that changes any
output byte (a cost summed in another order, a random draw moved, another
optimal witness) fails here. They depend on numpy's Generator streams; a
numpy upgrade that changes those streams changes them too, and must say so
when it re-pins.
"""

import builtins
import csv
import hashlib
import importlib
import io
import json
import pkgutil
from collections import Counter
from contextlib import redirect_stdout
from functools import partial

import numpy as np
import pytest

import edgesim
from edgesim import cli, sim
from edgesim.model import DEFAULT_CATALOG, CostParams, EdgeNode, FunctionType, RequestBatch, Topology
from edgesim.oracle import TinyInstance, check_witness, instance_to_json, random_tiny_instance, solve_exact
from edgesim.policies import make_policy
from edgesim.sim import SimConfig, run, summary_json

from conftest import desk_topology

DESK_GOLDEN = {
    ("pcache", "off"): "7e63fe054a1bb367353601dbfcc1daa58150c70869715d3c2eba6a40496c5644",
    ("pcache", "full"): "7e63fe054a1bb367353601dbfcc1daa58150c70869715d3c2eba6a40496c5644",
    ("pcache", "sample"): "7e63fe054a1bb367353601dbfcc1daa58150c70869715d3c2eba6a40496c5644",
    ("lru", "off"): "711b65413c9e9f706a57dad93efc5651454c1b82fe3c3b7bf580c1f16a31e880",
    ("lru", "full"): "711b65413c9e9f706a57dad93efc5651454c1b82fe3c3b7bf580c1f16a31e880",
    ("lru", "sample"): "711b65413c9e9f706a57dad93efc5651454c1b82fe3c3b7bf580c1f16a31e880",
    ("fc", "off"): "49846e50679ba7657d6d7cca5d1347de22060b713c23fa831f5961c9ca3bb4f4",
    ("fc", "full"): "49846e50679ba7657d6d7cca5d1347de22060b713c23fa831f5961c9ca3bb4f4",
    ("fc", "sample"): "49846e50679ba7657d6d7cca5d1347de22060b713c23fa831f5961c9ca3bb4f4",
    ("nocache", "off"): "3e59a3582c62ab23e1281614e7c023aa1d95d34ff5fb5287a5f9ce7a80222024",
    ("nocache", "full"): "3e59a3582c62ab23e1281614e7c023aa1d95d34ff5fb5287a5f9ce7a80222024",
    ("nocache", "sample"): "3e59a3582c62ab23e1281614e7c023aa1d95d34ff5fb5287a5f9ce7a80222024",
}
# The pressured desk run under --global-stats, where pcache and lru weigh
# their victims by the statistics of every node. Pinned while the router still
# mirrored each invocation into tables of the policy's own, before the
# policy derived those tables from the node states at eviction.
GLOBAL_STATS_GOLDEN = {
    ("pcache", "off"): "9dec34beea2e890adb87447442106656a2e9e797f1fa57ea4a2b315059456147",
    ("pcache", "full"): "9dec34beea2e890adb87447442106656a2e9e797f1fa57ea4a2b315059456147",
    ("lru", "off"): "986491e394c21e11705f76022fbb8d008f998ea3ca0b9849b58a5febff6c0d66",
    ("lru", "full"): "986491e394c21e11705f76022fbb8d008f998ea3ca0b9849b58a5febff6c0d66",
}
PRESSURE_AUDIT_GOLDEN = {
    "pcache": "893cc034ae0fd32a5af131c69e88ecce49f23ade327846b07fce392c6f536057",
    "lru": "d988db50f38ef1bd8f856d7d6c715e248ee9f6d0597f461112d0e1949fcdfe96",
    "fc": "6162474a39631eab7ca3a0a7597315c769415a6734196eb38effe9c9c9ddfbfe",
    "nocache": "ce19848479cf03697a0a0643a5fbda9899c8d0b8cdbba93fb35a7c47b5b007d9",
}
AUDIT_GOLDEN = "4b3f82b09420b86adbd176ba9578baea1fc7296d8110a48458454a68c05590e8"
SWEEP_ERRORS_GOLDEN = "6f180fab4b1bd35280699ead9eac98e21d372826e63626cba50a3e9bd68caa05"
SWEEP_GOLDEN = "ee8f365f1eae875f350383d7a813447150a999ca33774a996dd4150772ebf834"
# Pinned before the two figure writers became one loop, then re-pinned once
# when means were written as plain floats: every "np.float64(x)" cell of the
# old bytes became "x", and no other byte changed.
FIGURE_CSV_GOLDEN = "1c54b0fdda41b2587e940dceb53ddabbdadbaced89e6f449d3520f49abbc28c7"
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


def desk_digest(policy, check, tmp_path, global_stats=False):
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
        global_stats=global_stats,
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


def _write_trace(path, n_nodes, seed, rate, burst=None):
    """Poisson counts per (interval, node, type) over 40 intervals; every 13th
    interval draws at the `burst` rate when one is given."""
    rng = np.random.default_rng(seed)
    rows = ["interval,node,ftype,count"]
    for t in range(1, 41):
        lam = burst if burst is not None and t % 13 == 0 else rate
        for v in range(n_nodes):
            for n in range(4):
                c = int(rng.poisson(lam))
                if c:
                    rows.append(f"{t},{v},{n},{c}")
    path.write_text("\n".join(rows) + "\n")


def trace_audit_run(tmp_path, policy, capacity, seed, rate, burst=None):
    """`run --trace --check full --audit` on 6 nodes; returns the output directory."""
    nodes = tmp_path / "nodes.csv"
    _write_nodes(nodes, 6, capacity)
    trace = tmp_path / "trace.csv"
    _write_trace(trace, 6, seed, rate, burst)
    out = tmp_path / f"audit-out-{policy}"
    argv = [
        "run", "--policy", policy, "--alpha", "0.005", "--nodes", str(nodes),
        "--trace", str(trace), "--horizon", "40", "--seed", "3", "--check", "full",
        "--audit", "--output", str(out),
    ]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return out


def audit_digest(out):
    return _sha(*((out / name).read_bytes() for name in ("ledger.csv", "audit.csv", "summary.json")))


def trace_audit_digest(tmp_path):
    return audit_digest(trace_audit_run(tmp_path, "pcache", 900, seed=22, rate=0.6))


def pressure_run(tmp_path, policy):
    # 600 MB holds 332 + 158 + 55 + 55 MB exactly, and the bursts overflow
    # every node: local creations in batches, evictions, offloads, fallback
    # creations and rejections
    return trace_audit_run(tmp_path, policy, 600, seed=23, rate=0.8, burst=3)


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


def figure_csv_digest(tmp_path):
    """The sweep's two plot-ready aggregates over 4 policies, a 3 x 3 (alpha,
    beta) grid given out of order and 2 seeds."""
    nodes = tmp_path / "nodes.csv"
    _write_nodes(nodes, 5, 1200)
    out = tmp_path / "figure-out"
    argv = [
        "sweep", "--alphas", "0.01,0.002,0.005", "--betas", "1.4,0.6,1.0", "--policies", "pcache,lru,fc,nocache",
        "--nodes", str(nodes), "--mean-rate", "1.5", "--horizon", "20", "--seeds", "1,2",
        "--output", str(out),
    ]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return _sha(*((out / name).read_bytes() for name in ("avg_cost_by_alpha.csv", "cold_start_by_beta.csv")))


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


def random_instances():
    return [random_tiny_instance(np.random.default_rng(k)) for k in range(200)]


def oracle_digest(instances):
    """The optimum's repr (an np.float64 repr differs from a float's) and the
    witness JSON of every instance, each witness replayed first."""
    parts = []
    for inst in instances:
        sol = solve_exact(inst)
        check_witness(inst, sol)
        parts += [repr(sol.cost).encode(), json.dumps(sol.witness).encode()]
    return _sha(*parts)


def test_oracle_random_tiny_bytes():
    assert oracle_digest(random_instances()) == ORACLE_RANDOM_GOLDEN


def test_oracle_size_cap_bytes():
    assert oracle_digest(cap_instances()) == ORACLE_CAP_GOLDEN


def oracle_cli_digest(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(cap_instances()[1])))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(["oracle", "--instance", str(path), "--compare", "pcache"]) == 0
    return _sha(stdout.getvalue().encode())


def test_oracle_cli_compare_bytes(tmp_path):
    assert oracle_cli_digest(tmp_path) == ORACLE_CLI_GOLDEN


@pytest.mark.parametrize("policy,check", sorted(DESK_GOLDEN))
def test_desk_run_bytes(policy, check, tmp_path):
    assert desk_digest(policy, check, tmp_path) == DESK_GOLDEN[(policy, check)]


@pytest.mark.parametrize("policy,check", sorted(GLOBAL_STATS_GOLDEN))
def test_desk_global_stats_run_bytes(policy, check, tmp_path):
    assert desk_digest(policy, check, tmp_path, global_stats=True) == GLOBAL_STATS_GOLDEN[(policy, check)]


def test_trace_audit_run_bytes(tmp_path):
    assert trace_audit_digest(tmp_path) == AUDIT_GOLDEN


@pytest.mark.parametrize("policy", sorted(PRESSURE_AUDIT_GOLDEN))
def test_pressure_audit_run_bytes(policy, tmp_path):
    assert audit_digest(pressure_run(tmp_path, policy)) == PRESSURE_AUDIT_GOLDEN[policy]


def test_sweep_results_bytes(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_GOLDEN


def test_sweep_figure_csv_bytes(tmp_path):
    assert figure_csv_digest(tmp_path) == FIGURE_CSV_GOLDEN


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


@pytest.mark.parametrize("policy", sorted(PRESSURE_AUDIT_GOLDEN))
def test_pressure_inputs_exercise_every_path(policy, tmp_path, monkeypatch):
    """The pinned pressure runs create several containers for one (origin,
    type) group in one interval, create on a fallback node and reject; every
    policy that caches also evicts under pressure and offloads one group to
    two or more in-radius neighbours."""
    contexts, evictions = [], []
    distribute = sim.distribute_interval

    def spy(batch, states, ctx, *args, **kwargs):
        decision = distribute(batch, states, ctx, *args, **kwargs)
        contexts.append(ctx)
        # pressure evictions only: the end-of-interval sweep is never added
        evictions.append(sum(decision.destroyed.values()))
        return decision

    monkeypatch.setattr(sim, "distribute_interval", spy)
    out = pressure_run(tmp_path, policy)
    ctx = contexts[0]
    local_creations, in_radius = Counter(), {}
    actions = Counter()
    with open(out / "audit.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            t, v, n, v2 = (int(row[k]) for k in ("interval", "origin", "ftype", "serving_node"))
            action = row["action"]
            if action == "create":
                action = "create" if v2 == v else "fallback"
                local_creations[(t, v, n)] += v2 == v
            elif action == "offload" and ctx.d[v][v2] <= ctx.p[v][n]:
                in_radius.setdefault((t, v, n), set()).add(v2)
            actions[action] += 1
    assert max(local_creations.values()) >= 2
    assert actions["fallback"] and actions["reject"]
    # nocache keeps no idle container into an interval: nothing to offload to or evict
    caching = policy != "nocache"
    assert (max(map(len, in_radius.values()), default=0) >= 2) == caching
    assert (sum(evictions) > 0) == caching


@pytest.mark.parametrize("policy", sorted({p for p, _c in GLOBAL_STATS_GOLDEN}))
def test_global_stats_inputs_evict(policy, tmp_path, monkeypatch):
    """The pinned global-stats desk runs evict under pressure, so their
    hashes cover victims chosen by the network-wide statistics, and those
    choices differ from the per-node statistics' ones."""
    cls = type(make_policy(policy, 1))
    select_victim = cls.select_victim
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(self.global_stats)
        return select_victim(self, *args, **kwargs)

    monkeypatch.setattr(cls, "select_victim", spy)
    desk_digest(policy, "off", tmp_path, global_stats=True)
    assert calls and all(calls)
    assert GLOBAL_STATS_GOLDEN[(policy, "off")] != DESK_GOLDEN[(policy, "off")]


def golden_cases():
    """(name, digest of a fresh directory) for every case above."""
    cases = [(f"desk {p} {c}", partial(desk_digest, p, c)) for p, c in sorted(DESK_GOLDEN)]
    cases += [(f"desk {p} {c} global stats", partial(desk_digest, p, c, global_stats=True)) for p, c in sorted(GLOBAL_STATS_GOLDEN)]
    cases.append(("trace audit", trace_audit_digest))
    cases += [(f"pressure {p}", lambda tmp, p=p: audit_digest(pressure_run(tmp, p))) for p in sorted(PRESSURE_AUDIT_GOLDEN)]
    cases += [
        ("sweep", sweep_digest),
        ("sweep errors", sweep_errors_digest),
        ("figure csv", figure_csv_digest),
        ("oracle random", lambda tmp: oracle_digest(random_instances())),
        ("oracle cap", lambda tmp: oracle_digest(cap_instances())),
        ("oracle cli", oracle_cli_digest),
    ]
    return cases


def _recording_sum(floats, values, start=0):
    """builtins.sum that records in `floats` every float it is handed. It
    raises nothing, so no failure handler of the run can swallow the
    finding."""
    values = list(values)
    floats += [x for x in [start, *values] if isinstance(x, (float, np.floating))]
    return builtins.sum(values, start)


def test_goldens_add_no_float_with_sum(tmp_path, monkeypatch):
    # Python 3.12's sum() compensates exact floats, so every float total must
    # be a plain left fold (model.left_sum) for the golden bytes to hold on
    # any interpreter: with a sum() that records the floats it sees in every
    # edgesim module, no golden case hands sum() a float. The recording sum
    # returns what sum() returns, so the bytes stay those the *_bytes tests pin
    floats = []
    recording_sum = partial(_recording_sum, floats)
    for info in pkgutil.iter_modules(edgesim.__path__):
        if info.name != "__main__":
            monkeypatch.setattr(importlib.import_module(f"edgesim.{info.name}"), "sum", recording_sum, raising=False)
    monkeypatch.setattr(edgesim, "sum", recording_sum, raising=False)
    for k, (name, digest) in enumerate(golden_cases()):
        out = tmp_path / str(k)
        out.mkdir()
        digest(out)
        assert not floats, f"{name}: sum() over floats {floats[:3]!r}: its rounding depends on the Python version"
