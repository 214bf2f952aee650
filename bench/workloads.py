"""Seeded inputs and operations of the four benchmark workloads.

Every input is generated here from the workload seed: topologies, the trace
CSV and the oracle instances. edgesim sees only those generated inputs, and is
reached only through its public entry points (`sim.run`, `sim.sweep`,
`cli.main`, `oracle.solve_exact`). Each entry point is looked up at call time,
so the tracer's wrappers take effect.

An op is split into `call`, the timed call into edgesim, and `finish`, which
checks the output and digests it outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from edgesim import cli, oracle, sim
from edgesim.model import (
    DEFAULT_CATALOG,
    CostParams,
    EdgeNode,
    FunctionType,
    RequestBatch,
    Topology,
    comm_cost_from_coords,
)

POLICIES = ("pcache", "lru", "fc", "nocache")
CPU_CHOICES = (1.0, 1.5, 2.0, 2.5)
BOX = 100.0

# ROADMAP desk scale with the acceptance TREND constants: caches churn, so the
# eviction policies differ, while no request is rejected.
DESK_NODES = 25
DESK_CAPACITY = 1600.0
DESK_COMM_SCALE = 8.0
DESK_RATE = 1.2
DESK_HORIZON = 1000
DESK_ALPHA = 0.005
DESK_BETA = 1.0

# The criteria 4/5 grid for one master seed. The horizon is cut from the
# fixture's 1000 to 50 so a run completes enough sweeps to report a tail.
SWEEP_ALPHAS = (0.001, 0.005, 0.015)
SWEEP_BETAS = (0.5, 1.0, 1.5)
SWEEP_POLICIES = ("pcache", "lru", "fc")
SWEEP_HORIZON = 50

# Criterion 1's roomy topology. Counts per (interval, node, type) are capped
# at 12 so demand stays well inside capacity; every run asserts that eviction
# never fires (policies.select_victim_calls = 0).
AUDIT_CAPACITY = 8000.0
AUDIT_COMM_SCALE = 1.0
AUDIT_RATE = 3.0
AUDIT_HORIZON = 120
AUDIT_ALPHA = 0.005
AUDIT_BETA = 1.0
AUDIT_MAX_COUNT = 12

# Demand of every oracle instance, [interval][node][type]. Fixing it fixes
# the size of the exact solver's search (estimate about 6.3e6 steps, inside
# the solver's 1e7 cap), so solve time varies little between seeds; the seed
# permutes nodes and types and draws every number of the instance.
ORACLE_DEMAND = (
    ((2, 0), (2, 0), (1, 2)),
    ((1, 0), (0, 1), (1, 0)),
    ((1, 1), (1, 2), (0, 0)),
)
ORACLE_INSTANCES = 4


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def edge_nodes(rng, n_nodes, capacity):
    coords = rng.uniform(0, BOX, size=(n_nodes, 2))
    return [
        EdgeNode(
            i,
            capacity,
            CPU_CHOICES[int(rng.integers(len(CPU_CHOICES)))],
            coord=(float(coords[i][0]), float(coords[i][1])),
        )
        for i in range(n_nodes)
    ]


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Outcome:
    digest: str
    requests: int
    output_bytes: int = 0
    # per-layer counts read from the output, keyed by metric name
    counts: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    finish: Callable[[object], Outcome]


class Workload:
    name = ""
    # Per-layer counts that must be exactly 0 on every run: if one is not,
    # the workload has stopped isolating its layer.
    must_be_zero: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def ops(self) -> list[Op]:
        raise NotImplementedError


def run_outcome(result, workdir, horizon) -> Outcome:
    """Digest of a `run()` result: summary JSON plus ledger CSV bytes."""
    summary = result.summary
    if summary["truncated"] or summary["intervals"] != horizon:
        raise CheckFailed(f"run stopped after {summary['intervals']} of {horizon} intervals")
    path = os.path.join(workdir, "ledger.csv")
    result.ledger.write_csv(path)
    with open(path, "rb") as fh:
        ledger = fh.read()
    os.remove(path)
    rows = list(csv.DictReader(io.StringIO(ledger.decode())))
    if len(rows) != horizon or sum(int(r["requests"]) for r in rows) != summary["requests"]:
        raise CheckFailed("ledger rows disagree with the summary")
    return Outcome(sha256(json.dumps(summary, sort_keys=True).encode(), ledger), summary["requests"])


class DeskPressure(Workload):
    """One op is one desk-scale `sim.run()` at check=off, cycling the policies."""

    name = "desk_pressure"
    must_be_zero = ("sim.check_states_calls",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = rng_for(seed, 1)
        nodes = edge_nodes(rng, DESK_NODES, DESK_CAPACITY)
        topology = Topology(nodes=nodes, comm_cost=comm_cost_from_coords(nodes, DESK_COMM_SCALE))
        run_seed = int(rng.integers(2**31))
        self.configs = [
            sim.SimConfig(
                topology=topology,
                catalog=DEFAULT_CATALOG,
                params=CostParams(alpha=DESK_ALPHA),
                policy=policy,
                horizon=DESK_HORIZON,
                seed=run_seed,
                beta=DESK_BETA,
                mean_rate=DESK_RATE,
                check="off",
            )
            for policy in POLICIES
        ]

    def ops(self):
        return [
            Op(cfg.policy, lambda cfg=cfg: sim.run(cfg), lambda r: run_outcome(r, self.workdir, DESK_HORIZON))
            for cfg in self.configs
        ]


class AlphaSweep(Workload):
    """One op is one `sim.sweep()` over alpha x beta x {pcache, lru, fc} at check=full."""

    name = "alpha_sweep"
    must_be_zero = ("scheduler.rejections",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = rng_for(seed, 2)
        nodes = edge_nodes(rng, DESK_NODES, DESK_CAPACITY)
        topology = Topology(nodes=nodes, comm_cost=comm_cost_from_coords(nodes, DESK_COMM_SCALE))
        self.grid = sim.SweepGrid(
            alphas=list(SWEEP_ALPHAS),
            betas=list(SWEEP_BETAS),
            policies=list(SWEEP_POLICIES),
            seeds=[int(rng.integers(2**31))],
        )
        self.base = sim.SimConfig(
            topology=topology,
            catalog=DEFAULT_CATALOG,
            params=CostParams(alpha=SWEEP_ALPHAS[0]),
            policy=SWEEP_POLICIES[0],
            horizon=SWEEP_HORIZON,
            seed=0,
            beta=SWEEP_BETAS[0],
            mean_rate=DESK_RATE,
            check="full",
        )

    def ops(self):
        return [Op("sweep", lambda: sim.sweep(self.grid, self.base, jobs=1), self._finish)]

    def _finish(self, out):
        records, errors = out
        if errors:
            raise CheckFailed(f"sweep reported {len(errors)} failed cells: {errors[0]}")
        expected = len(SWEEP_ALPHAS) * len(SWEEP_BETAS) * len(SWEEP_POLICIES)
        if len(records) != expected:
            raise CheckFailed(f"sweep returned {len(records)} records, expected {expected}")
        lines = sorted(json.dumps(rec, sort_keys=True) for rec in records)
        return Outcome(
            sha256("\n".join(lines).encode()),
            sum(rec["requests"] for rec in records),
            counts={"scheduler.rejections": sum(rec["rejections"] for rec in records)},
        )


class AuditTrace(Workload):
    """One op is an in-process `cli.main(["run", "--trace", ..., "--audit"])`, cycling the policies."""

    name = "audit_trace"
    must_be_zero = ("policies.select_victim_calls", "workload.batch_calls")
    OUTPUTS = ("ledger.csv", "audit.csv", "summary.json")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = rng_for(seed, 3)
        nodes = edge_nodes(rng, DESK_NODES, AUDIT_CAPACITY)
        nodes_path = os.path.join(workdir, "nodes.csv")
        with open(nodes_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "capacity_mb", "cpu_ghz", "x", "y"])
            for n in nodes:
                writer.writerow([n.id, repr(n.capacity_mb), repr(n.cpu_ghz), repr(n.coord[0]), repr(n.coord[1])])
        trace_path = os.path.join(workdir, "trace.csv")
        self._write_trace(rng, trace_path)
        self.out_dir = os.path.join(workdir, "out")
        run_seed = int(rng.integers(2**31))
        common = [
            "--nodes", nodes_path, "--comm-scale", repr(AUDIT_COMM_SCALE), "--trace", trace_path,
            "--horizon", str(AUDIT_HORIZON), "--alpha", repr(AUDIT_ALPHA), "--seed", str(run_seed),
            "--check", "full", "--audit", "--output", self.out_dir,
        ]
        self.argvs = [["run", "--policy", policy] + common for policy in POLICIES]

    @staticmethod
    def _write_trace(rng, path):
        """Poisson requests per node, split over the types by Zipf popularity
        with a per-node rank order; the CLI reads this file in every op."""
        n_types = len(DEFAULT_CATALOG)
        pop = np.arange(1, n_types + 1, dtype=float) ** -AUDIT_BETA
        pop /= pop.sum()
        perms = [rng.permutation(n_types) for _ in range(DESK_NODES)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["interval", "node", "ftype", "count"])
            for t in range(1, AUDIT_HORIZON + 1):
                totals = rng.poisson(AUDIT_RATE, size=DESK_NODES)
                for v in range(DESK_NODES):
                    split = rng.multinomial(totals[v], pop)
                    for rank, count in enumerate(split):
                        if count:
                            writer.writerow([t, v, int(perms[v][rank]), min(int(count), AUDIT_MAX_COUNT)])

    def ops(self):
        return [Op(argv[2], lambda argv=argv: self._call(argv), self._finish) for argv in self.argvs]

    @staticmethod
    def _call(argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def _finish(self, out):
        code, stdout = out
        if code != 0:
            raise CheckFailed(f"cli exited with {code}")
        blobs = []
        for name in self.OUTPUTS:
            path = os.path.join(self.out_dir, name)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
            os.remove(path)
        summary = json.loads(blobs[2])
        rows = list(csv.DictReader(io.StringIO(blobs[1].decode())))
        if len(rows) != summary["requests"]:
            raise CheckFailed(f"{len(rows)} audit rows for {summary['requests']} requests")
        for row in rows:
            if row["action"] != "reject" and float(row["marginal_cost"]) > float(row["bound"]) + 1e-9:
                raise CheckFailed(f"audit row exceeds its bound: {row}")
        return Outcome(sha256(*blobs), summary["requests"], sum(map(len, blobs)) + len(stdout.encode()))


class OracleCap(Workload):
    """One op is `oracle.solve_exact` on a tiny instance, then the four
    policies on it at check=full (the `oracle --compare` path)."""

    name = "oracle_cap"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = rng_for(seed, 4)
        self.instances = [self._instance(rng) for _ in range(ORACLE_INSTANCES)]
        self.run_seed = int(rng.integers(2**31))

    @staticmethod
    def _instance(rng):
        demand = np.array(ORACLE_DEMAND)
        demand = demand[:, rng.permutation(demand.shape[1])][:, :, rng.permutation(demand.shape[2])]
        horizon, n_nodes, n_types = demand.shape
        mems = rng.uniform(50, 350, size=n_types)
        catalog = tuple(FunctionType(n, float(round(mems[n], 1))) for n in range(n_types))
        cpus = rng.uniform(0.5, 2.0, size=n_nodes)
        # every node fits one interval's global demand: no overflow, no rejection
        peak = max(sum(int(demand[t, :, n].sum()) * catalog[n].mem_mb for n in range(n_types)) for t in range(horizon))
        capacity = max(peak, max(mems)) * float(rng.uniform(1.0, 1.3))
        nodes = [EdgeNode(v, float(round(capacity, 1)), float(round(cpus[v], 2))) for v in range(n_nodes)]
        comm = np.zeros((n_nodes, n_nodes))
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                comm[i, j] = comm[j, i] = float(round(rng.uniform(0.5, 150.0), 2))
        alpha = float(rng.uniform(0.002, 0.02))
        # alpha * q <= p at every node, as validate_setup requires
        run_coeff = float(rng.uniform(0.1, 0.9)) / (alpha * max(n.cpu_ghz for n in nodes) ** 2)
        batches = [
            RequestBatch(
                t + 1,
                {(v, n): int(demand[t, v, n]) for v in range(n_nodes) for n in range(n_types) if demand[t, v, n]},
            )
            for t in range(horizon)
        ]
        return oracle.TinyInstance(
            topology=Topology(nodes=nodes, comm_cost=comm),
            catalog=catalog,
            params=CostParams(alpha=alpha, run_coeff=run_coeff),
            horizon=horizon,
            batches=batches,
        )

    def ops(self):
        return [Op(f"instance{i}", lambda inst=inst: self._call(inst), self._finish) for i, inst in enumerate(self.instances)]

    def _call(self, instance):
        solution = oracle.solve_exact(instance)
        results = [
            sim.run(
                sim.SimConfig(
                    topology=instance.topology,
                    catalog=instance.catalog,
                    params=instance.params,
                    policy=policy,
                    horizon=instance.horizon,
                    seed=self.run_seed,
                    batches=instance.batches,
                    check="full",
                )
            )
            for policy in POLICIES
        ]
        return solution.cost, [r.summary for r in results]

    @staticmethod
    def _finish(out):
        opt, summaries = out
        totals = [s["total_cost"] for s in summaries]
        if any(opt > total + 1e-9 for total in totals):
            raise CheckFailed(f"oracle optimum {opt!r} above a policy cost {totals}")
        digest = sha256(" ".join(repr(x) for x in [opt] + totals).encode())
        return Outcome(digest, sum(s["requests"] for s in summaries))


WORKLOADS = {cls.name: cls for cls in (DeskPressure, AlphaSweep, AuditTrace, OracleCap)}
