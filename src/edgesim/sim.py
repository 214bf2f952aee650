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
from .scheduler import BoundChecks, RoutingContext, distribute_interval, end_interval
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


def _zipf_config(config: SimConfig) -> ZipfConfig:
    return ZipfConfig(
        beta=config.beta,
        n_types=len(config.catalog),
        mean_rate=config.mean_rate,
        seed=derive_seed(config.seed, "workload"),
    )


def _workload_source(config: SimConfig):
    if config.batches is not None:
        return ListSource(config.batches, config.topology.n_nodes, len(config.catalog))
    return ZipfSource(_zipf_config(config), config.topology, global_ranking=config.zipf_global)


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


@dataclass
class _Trajectory:
    """One simulated request stream and what it cost, before alpha weights it."""

    ledger: CostLedger
    audit: list | None
    failures: dict  # alpha -> the exception that ends that alpha's run
    rejections: int = 0
    fallback_creations: int = 0
    intervals: int = 0
    truncated: bool = False


def _simulate(config: SimConfig, params: list[CostParams]) -> _Trajectory:
    """Simulate config's request stream once, checked at every alpha of `params`.

    Routing, eviction and every random draw ignore alpha, so this is the
    trajectory each alpha's own run follows. `validate_setup` and the
    per-request bound depend on alpha and run per alpha; a failure there ends
    that alpha only. Any other exception ends every alpha still running.
    """
    failures = {}
    for p in params:
        try:
            validate_setup(config.topology, config.catalog, p)
        except ConfigError as exc:
            failures[p.alpha] = exc
    alphas = [p.alpha for p in params if p.alpha not in failures]
    traj = _Trajectory(CostLedger(config.params.alpha), [] if config.audit else None, failures)
    if not alphas:
        return traj
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    bounds = BoundChecks(ctx, alphas)
    try:
        n_types = len(config.catalog)
        states = [NodeState(v, n_types) for v in range(config.topology.n_nodes)]
        policy = make_policy(config.policy, n_types, ttl=config.ttl, global_stats=config.global_stats)
        source = _workload_source(config)
        rng = np.random.default_rng(derive_seed(config.seed, "policy", config.policy))
        ledger = traj.ledger
        audit = traj.audit
        for t in range(1, config.horizon + 1):
            batch = source.batch(t)
            if batch is None:
                traj.truncated = True
                break
            if batch.interval != t:
                raise InvariantViolation(f"workload produced interval {batch.interval} for clock {t}")
            check_now = config.check == "full" or (config.check == "sample" and t % 10 == 0)
            checked = bounds if check_now else None
            decision = distribute_interval(batch, states, ctx, policy, rng, audit=audit, check=checked)
            if not bounds.live:
                break
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
            traj.rejections += decision.total_rejected()
            traj.fallback_creations += decision.fallback_creations
            traj.intervals = t
    except Exception as exc:  # ends every alpha that has not failed already
        for alpha in bounds.live:
            failures[alpha] = exc
    failures.update(bounds.failures)
    return traj


def _run_alphas(config: SimConfig, params: list[CostParams], baselines: dict) -> tuple[_Trajectory, dict]:
    """Simulate once and summarize the run at every alpha of `params`.

    Returns the trajectory and a summary per alpha that did not fail (the
    failures are in the trajectory). The normalized cost divides by the
    no-cache total in `baselines` (alpha -> total) on the identical workload
    and seed; alphas missing there get it from one no-cache run of their own.
    """
    traj = _simulate(config, params)
    if config.policy != "nocache":
        missing = [p for p in params if p.alpha not in traj.failures and p.alpha not in baselines]
        if missing:
            base_cfg = replace(config, policy="nocache", audit=False, check="off")
            base_traj, base_summaries = _run_alphas(base_cfg, missing, {})
            traj.failures.update(base_traj.failures)
            baselines = {**baselines, **{a: s["total_cost"] for a, s in base_summaries.items()}}
    requests = traj.ledger.total_requests()
    cold_starts = traj.ledger.total_cold_starts()
    summaries = {}
    for alpha in (p.alpha for p in params if p.alpha not in traj.failures):
        total = traj.ledger.total_cost(alpha)
        if config.policy == "nocache":
            normalized = 1.0 if total > 0 else None
        else:
            normalized = total / baselines[alpha] if baselines[alpha] > 0 else None
        summaries[alpha] = {
            "policy": config.policy,
            "alpha": alpha,
            "beta": config.beta,
            "seed": config.seed,
            "total_cost": total,
            "normalized_cost": normalized,
            "cold_start_frequency": (cold_starts / requests) if requests else None,
            "rejections": traj.rejections,
            "fallback_creations": traj.fallback_creations,
            "intervals": traj.intervals,
            "requests": requests,
            "cold_starts": cold_starts,
            "truncated": traj.truncated,
        }
    return traj, summaries


def run(config: SimConfig, baseline_total: float | None = None) -> RunResult:
    """Execute one simulation; deterministic for a fixed config.

    The summary's normalized cost divides by the no-cache policy on the
    identical workload and seed (computed here unless supplied).
    """
    alpha = config.params.alpha
    baselines = {} if baseline_total is None else {alpha: baseline_total}
    traj, summaries = _run_alphas(config, [config.params], baselines)
    if alpha in traj.failures:
        raise traj.failures[alpha]
    return RunResult(ledger=traj.ledger, summary=summaries[alpha], audit=traj.audit)


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


def _run_group(args):
    """One (seed, beta, policy) group: one simulation, one record or error per alpha."""
    config, params, baselines, seed = args
    traj, summaries = _run_alphas(config, params, baselines)
    records, errors = [], []
    for p in params:
        if p.alpha in summaries:
            records.append(dict(summaries[p.alpha], seed=seed))  # report the master seed
        else:
            exc = traj.failures[p.alpha]
            errors.append({
                "seed": seed, "beta": config.beta, "alpha": p.alpha, "policy": config.policy,
                "error": f"{type(exc).__name__}: {exc}",
            })
    return records, errors


def _run_groups(groups, jobs: int) -> list:
    """(records, errors) per group, in group order, serially or in a process pool."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_group, groups))
    return [_run_group(group) for group in groups]


def sweep(grid: SweepGrid, base: SimConfig, jobs: int = 1):
    """Cartesian product of runs; returns (records, errors) keyed by grid point.

    Each (seed, beta, policy) is simulated once and priced at every alpha,
    because alpha never changes a trajectory. Each cell is reproducible in
    isolation and independent of grid-axis order; records come back sorted by
    (seed, beta, alpha, policy). A replay base (`batches` set) has no beta
    axis: its records carry beta None.
    """
    betas = grid.betas if base.batches is None else [None]
    for beta in betas:  # inputs every cell shares fail the sweep, not each cell
        if beta is not None:
            _zipf_config(replace(base, beta=beta))
    if "fc" in grid.policies:
        make_policy("fc", len(base.catalog), ttl=base.ttl)
    params = [replace(base.params, alpha=alpha) for alpha in grid.alphas]
    points = [(seed, beta) for seed in grid.seeds for beta in betas]

    def group(seed, beta, policy, baselines):
        # Groups sharing (seed, beta) see the identical workload stream, so
        # policies and alphas are compared on the same request realization.
        config = replace(base, policy=policy, beta=beta, seed=derive_seed(seed, "cell", beta), audit=False)
        return config, params, baselines, seed

    records, errors = [], []
    baselines = {}
    for pt, (recs, errs) in zip(points, _run_groups([group(*pt, "nocache", {}) for pt in points], jobs)):
        baselines[pt] = {rec["alpha"]: rec for rec in recs}
        errors.extend(errs)
        if "nocache" in grid.policies:
            records.extend(baselines[pt].values())

    policy_groups = [
        group(*pt, policy, {alpha: rec["total_cost"] for alpha, rec in baselines[pt].items()})
        for pt in points
        for policy in grid.policies
        if policy != "nocache"
    ]
    for recs, errs in _run_groups(policy_groups, jobs):
        records.extend(recs)
        errors.extend(errs)

    def sort_key(rec):
        return (rec["seed"], rec["beta"] if rec["beta"] is not None else -1.0, rec["alpha"], rec["policy"])

    records.sort(key=sort_key)
    errors.sort(key=sort_key)
    return records, errors
