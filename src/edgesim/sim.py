"""Time-interval simulation driver: runs, invariant checks, parameter sweeps."""

from __future__ import annotations

import hashlib
import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import CostLedger, interval_comm_cost, interval_running_cost, interval_switching_cost
from .errors import ConfigError, InvariantViolation
from .model import (
    CostParams,
    FunctionType,
    NodeState,
    RequestBatch,
    Topology,
    occupancy,
    validate_setup,
)
from .policies import POLICY_NAMES, make_policy
from .scheduler import RoutingContext, distribute_interval, end_interval
from .workload import ListSource, ZipfConfig, ZipfSource

CHECK_LEVELS = ("off", "sample", "full")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a mixed tuple of ints, floats, and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool) or part is None:
            h.update(f"b:{part}".encode())
        elif isinstance(part, int):
            h.update(f"i:{part}".encode())
        elif isinstance(part, float):
            h.update(b"f:" + struct.pack("<d", part))
        else:
            h.update(f"s:{part}".encode())
        h.update(b"|")
    return int.from_bytes(h.digest()[:8], "big") >> 1


@dataclass
class SimConfig:
    """One reproducible run: everything is derived from these fields and seed."""

    topology: Topology
    catalog: tuple[FunctionType, ...]
    params: CostParams
    policy: str
    horizon: int
    seed: int
    beta: float | None = None
    mean_rate: float = 0.0
    zipf_global: bool = False
    batches: list[RequestBatch] | None = None
    ttl: int = 10
    global_stats: bool = False
    check: str = "sample"
    audit: bool = False

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; valid policies: {', '.join(POLICY_NAMES)}")
        if self.check not in CHECK_LEVELS:
            raise ConfigError(f"check level must be one of {CHECK_LEVELS}")
        if (self.beta is None) == (self.batches is None):
            raise ConfigError("exactly one workload source required: zipf beta, or a trace or batch list")


@dataclass
class RunResult:
    ledger: CostLedger
    summary: dict
    audit: list | None = None


def _workload_source(config: SimConfig):
    if config.batches is not None:
        return ListSource(config.batches, config.topology.n_nodes, len(config.catalog))
    cfg = ZipfConfig(
        beta=config.beta,
        n_types=len(config.catalog),
        mean_rate=config.mean_rate,
        seed=derive_seed(config.seed, "workload"),
    )
    return ZipfSource(cfg, config.topology, global_ranking=config.zipf_global)


def _check_states(config: SimConfig, states, interval: int) -> None:
    for state in states:
        node = config.topology.nodes[state.node_id]
        occ = occupancy(state, config.catalog)
        if occ > node.capacity_mb + 1e-9:
            raise InvariantViolation(
                f"interval {interval}: node {state.node_id} occupancy {occ} MB "
                f"exceeds capacity {node.capacity_mb} MB"
            )
        if abs(occ - state.used_mb) > 1e-6:
            raise InvariantViolation(
                f"interval {interval}: node {state.node_id} occupancy drifted "
                f"({occ} recomputed vs {state.used_mb} tracked)"
            )
        for n in range(len(config.catalog)):
            if state.cache[n] > 0 and state.freq[n] < 1:
                raise InvariantViolation(
                    f"interval {interval}: node {state.node_id} caches type {n} never invoked"
                )
            if state.active[n] < 0 or state.cache[n] < 0:
                raise InvariantViolation(
                    f"interval {interval}: node {state.node_id} negative container count"
                )


def run(config: SimConfig, baseline_total: float | None = None) -> RunResult:
    """Execute one simulation; deterministic for a fixed config.

    The summary's normalized cost divides by the no-cache policy on the
    identical workload and seed (computed here unless supplied).
    """
    validate_setup(config.topology, config.catalog, config.params)
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    n_types = len(config.catalog)
    states = [NodeState(v, n_types) for v in range(config.topology.n_nodes)]
    policy = make_policy(config.policy, n_types, ttl=config.ttl, global_stats=config.global_stats)
    source = _workload_source(config)
    rng = np.random.default_rng(derive_seed(config.seed, "policy", config.policy))
    ledger = CostLedger(config.params.alpha)
    audit = [] if config.audit else None

    rejections = 0
    fallback_creations = 0
    truncated = False
    intervals_run = 0
    for t in range(1, config.horizon + 1):
        batch = source.batch(t)
        if batch is None:
            truncated = True
            break
        if batch.interval != t:
            raise InvariantViolation(f"workload produced interval {batch.interval} for clock {t}")
        check_now = config.check == "full" or (config.check == "sample" and t % 10 == 0)
        decision = distribute_interval(batch, states, ctx, policy, rng, audit=audit, check=check_now)
        switching = interval_switching_cost(decision, ctx)
        communication = interval_comm_cost(decision, config.topology)
        running = interval_running_cost(states, ctx)
        if check_now:
            decision.check_conservation(batch)
            _check_states(config, states, t)
        for v, n, count in end_interval(states, policy, t, config.catalog):
            key = (v, n)
            decision.destroyed[key] = decision.destroyed.get(key, 0) + count
        if check_now:
            _check_states(config, states, t)
        ledger.append_interval(
            t, switching, communication, running,
            cold_starts=decision.total_created(), requests=batch.total(),
        )
        rejections += decision.total_rejected()
        fallback_creations += decision.fallback_creations
        intervals_run = t

    total = ledger.total_cost()
    requests = ledger.total_requests()
    cold_starts = ledger.total_cold_starts()
    if config.policy == "nocache":
        normalized = 1.0 if total > 0 else None
    else:
        if baseline_total is None:
            base_cfg = replace(config, policy="nocache", audit=False, check="off")
            baseline_total = run(base_cfg).ledger.total_cost()
        normalized = total / baseline_total if baseline_total > 0 else None

    summary = {
        "policy": config.policy,
        "alpha": config.params.alpha,
        "beta": config.beta,
        "seed": config.seed,
        "total_cost": total,
        "normalized_cost": normalized,
        "cold_start_frequency": (cold_starts / requests) if requests else None,
        "rejections": rejections,
        "fallback_creations": fallback_creations,
        "intervals": intervals_run,
        "requests": requests,
        "cold_starts": cold_starts,
        "truncated": truncated,
    }
    return RunResult(ledger=ledger, summary=summary, audit=audit)


def summary_json(result: RunResult) -> str:
    return json.dumps(result.summary, sort_keys=True)


@dataclass
class SweepGrid:
    alphas: list[float]
    betas: list[float]
    policies: list[str]
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        if not (self.alphas and self.betas and self.policies and self.seeds):
            raise ConfigError("sweep grid must have at least one alpha, beta, policy, and seed")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {p!r} in grid; valid policies: {', '.join(POLICY_NAMES)}")


def _cell_config(base: SimConfig, seed: int, beta: float | None, alpha: float, policy: str) -> SimConfig:
    # Cells sharing (seed, beta) see the identical workload stream, so policies
    # and alphas are compared on the same request realization.
    return replace(
        base,
        policy=policy,
        params=replace(base.params, alpha=alpha),
        beta=beta,
        seed=derive_seed(seed, "cell", beta),
    )


def _run_cell(args):
    config, baseline_total, key = args
    try:
        result = run(config, baseline_total=baseline_total)
        summary = dict(result.summary)
        summary["seed"] = key[0]  # report the master seed the cell derives from
        return key, summary, None
    except Exception as exc:  # per-cell failures are reported, sweep continues
        return key, None, f"{type(exc).__name__}: {exc}"


def _run_cells(cells, jobs: int, errors: list) -> list:
    """Run (config, baseline_total, key) cells, serially or in a process pool.

    Returns (key, summary) per successful cell, in cell order; each failed
    cell is appended to `errors` instead.
    """
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(_run_cell, cells))
    else:
        outs = [_run_cell(cell) for cell in cells]
    done = []
    for key, summary, err in outs:
        if err is not None:
            errors.append({"seed": key[0], "beta": key[1], "alpha": key[2], "policy": key[3], "error": err})
        else:
            done.append((key, summary))
    return done


def sweep(grid: SweepGrid, base: SimConfig, jobs: int = 1):
    """Cartesian product of runs; returns (records, errors) keyed by grid point.

    Each cell is reproducible in isolation and independent of grid-axis order;
    records come back sorted by (seed, beta, alpha, policy). A replay base
    (`batches` set) has no beta axis: its records carry beta None.
    """
    betas = grid.betas if base.batches is None else [None]
    points = [(seed, beta, alpha) for seed in grid.seeds for beta in betas for alpha in grid.alphas]
    errors = []
    baselines = dict(
        _run_cells([(_cell_config(base, *pt, "nocache"), None, (*pt, "nocache")) for pt in points], jobs, errors)
    )

    policy_cells = []
    for pt in points:
        base_summary = baselines.get((*pt, "nocache"))
        total = base_summary["total_cost"] if base_summary else None
        for policy in grid.policies:
            if policy != "nocache":
                policy_cells.append((_cell_config(base, *pt, policy), total, (*pt, policy)))

    records = [summary for _key, summary in _run_cells(policy_cells, jobs, errors)]
    if "nocache" in grid.policies:
        records.extend(baselines.values())

    def sort_key(rec):
        return (rec["seed"], rec["beta"] if rec["beta"] is not None else -1.0, rec["alpha"], rec["policy"])

    records.sort(key=sort_key)
    errors.sort(key=sort_key)
    return records, errors
