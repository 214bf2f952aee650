"""Time-interval simulation driver: runs, invariant checks, parameter sweeps."""

from __future__ import annotations

import hashlib
import json
import math
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
    validate_fit,
    validate_setup,
)
from .policies import POLICY_NAMES, make_policy
from .scheduler import RoutingContext, close_created, distribute_interval, end_interval
from .workload import ListSource, ZipfConfig, ZipfSource

CHECK_LEVELS = ("off", "sample", "full")

# An audited run keeps one record reference per request in memory.
MAX_AUDIT_RECORDS = 10**8


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
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise ConfigError(f"horizon must be an int >= 1, got {self.horizon!r}")
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
    zipf = ZipfConfig(
        beta=config.beta,
        n_types=len(config.catalog),
        mean_rate=config.mean_rate,
        seed=derive_seed(config.seed, "workload"),
    )
    return ZipfSource(zipf, config.topology, global_ranking=config.zipf_global)


def _check_audit_size(config: SimConfig) -> None:
    """Refuse an audited run whose requests can outnumber MAX_AUDIT_RECORDS:
    mean_rate x nodes x horizon for a Zipf source, the summed counts of the
    batches within the horizon for a batch list."""
    if config.batches is None:
        requests = config.mean_rate * config.topology.n_nodes * config.horizon
    else:
        requests = sum(b.total() for b in config.batches if b.interval <= config.horizon)
    if requests > MAX_AUDIT_RECORDS:
        raise ConfigError(
            f"an audited run keeps one record per request, at most {MAX_AUDIT_RECORDS}; "
            f"this one can make {requests:.4g}"
        )


def _check_states(config: SimConfig, states, interval: int) -> None:
    """Raise InvariantViolation at the first node, in `states` order, that
    breaks a state invariant, checked in this order: occupancy within
    capacity; occupancy within 1e-6 MB of the tracked `used_mb`; then, at the
    node's first type that breaks either, no cached container of a
    never-invoked type, and no negative count.

    One indexed pass per node folds the occupancy from the int 0 in catalog
    order, as `left_sum` adds, and notes that first type.
    """
    mems = [f.mem_mb for f in config.catalog]
    types = range(len(mems))
    nodes = config.topology.nodes
    for state in states:
        active = state.active
        cache = state.cache
        freq = state.freq
        occ = 0
        odd = -1
        for n in types:
            a = active[n]
            k = cache[n]
            occ += mems[n] * (a + k)
            if a < 0 or k < 0 or k > 0 and freq[n] < 1:
                if odd < 0:
                    odd = n
        v = state.node_id
        capacity = nodes[v].capacity_mb
        if occ > capacity + 1e-9:
            raise InvariantViolation(f"interval {interval}: node {v} occupancy {occ} MB exceeds capacity {capacity} MB")
        if abs(occ - state.used_mb) > 1e-6:
            raise InvariantViolation(
                f"interval {interval}: node {v} occupancy drifted ({occ} recomputed vs {state.used_mb} tracked)"
            )
        if odd >= 0:
            if cache[odd] > 0 and freq[odd] < 1:
                raise InvariantViolation(f"interval {interval}: node {v} caches type {odd} never invoked")
            raise InvariantViolation(f"interval {interval}: node {v} negative container count")


class _Lane:
    """One policy's trajectory through a request stream it shares with other lanes.

    A lane owns everything a lone run of its config would: node states,
    policy, policy rng, ledger, check level, audit list and `failures`
    (alpha -> the exception that ends that alpha's run). Alpha never changes
    what a lane does; it only weights the ledger later.

    Building a lane raises what no alpha of its config can run with (an fc
    ttl that is not an int >= 0). `failures` starts as the lane's own copy of
    the alphas that failed `validate_setup`, which end that alpha only. Any
    exception in `step`, a per-request bound violation included, is the
    lane's own fault and ends every alpha still running.
    """

    def __init__(self, config: SimConfig, params: list[CostParams], ctx: RoutingContext, failures: dict):
        n_types = len(config.catalog)
        self.config = config
        self.ctx = ctx
        self.policy = make_policy(config.policy, n_types, ttl=config.ttl, global_stats=config.global_stats)
        self.states = [NodeState(v, n_types) for v in range(config.topology.n_nodes)]
        self.rng = np.random.default_rng(derive_seed(config.seed, "policy", config.policy))
        self.ledger = CostLedger(config.params.alpha)
        self.audit = [] if config.audit else None
        self.failures = failures
        self.alphas = [p.alpha for p in params]
        self.check_every = {"off": 0, "sample": 10, "full": 1}[config.check]
        self.rejections = 0
        self.fallback_creations = 0

    def step(self, batch: RequestBatch) -> bool:
        """Simulate one interval; False once the lane has ended.

        Route, check, price switching, close, check again, then price
        communication and append the ledger row. A caching policy closes by
        idling the active containers while pricing the running cost, then
        running its sweep, which reads the interval's decision; a policy
        that holds no idle container closes by pricing and destroying the
        containers it created. Where the router closed the interval as it
        routed it, the decision carries its switching and running costs and
        there is nothing left to close: a no-cache lane's nodes hold no
        container and no statistics between intervals.
        """
        t = batch.interval
        ctx = self.ctx
        states = self.states
        policy = self.policy
        try:
            check_now = self.check_every > 0 and not t % self.check_every
            decision = distribute_interval(batch, states, ctx, policy, self.rng, audit=self.audit, check=check_now)
            if check_now:
                decision.check_conservation(batch)
                _check_states(self.config, states, t)
            if decision.closed:
                switching, running = decision.switching, decision.running
            else:
                switching = interval_switching_cost(decision, ctx)
                if policy.holds_idle:
                    running = interval_running_cost(states, ctx)
                    end_interval(states, policy, t, ctx.catalog, decision)
                else:
                    running = close_created(decision, states, ctx)
            if check_now:
                _check_states(self.config, states, t)
            communication = interval_comm_cost(decision, ctx.topology)
            self.ledger.append_interval(
                t, switching, communication, running,
                cold_starts=decision.total_created(), requests=batch.total(),
            )
            self.rejections += decision.total_rejected()
            self.fallback_creations += decision.fallback_creations
            return True
        except Exception as exc:  # the lane's own fault: ends its alphas still running
            for alpha in self.alphas:
                self.failures.setdefault(alpha, exc)
            return False


def _simulate(configs: list[SimConfig], params: list[CostParams]) -> list[_Lane]:
    """Simulate one request stream under every config in lockstep, each lane
    checked at every alpha of `params`.

    The configs differ only in policy, check level and audit; they share the
    workload, topology, catalog and cost parameters, so one batch per
    interval feeds every lane and only one is held at a time. Routing,
    eviction and every random draw ignore alpha, so a lane is the trajectory
    each alpha's own run of its config follows.

    A failure ends the simulation in one of three tiers:
    1. what every lane shares raises from here before any lane steps: a
       topology, catalog and cost coefficients no alpha can run
       (`validate_fit`: a non-finite p or q among them), a lane that
       cannot be built (an fc ttl that is not an int >= 0), a source that
       cannot be built (a malformed replay list, bad Zipf parameters) and an
       audit that can outgrow MAX_AUDIT_RECORDS (`_check_audit_size`);
    2. an alpha that fails `validate_setup` (checked once, here) ends in
       every lane;
    3. any exception in a lane, a per-request bound violation included,
       ends that lane only; `_run_lanes` then fails the lanes that the
       no-cache lane normalizes at its alphas.
    """
    config = configs[0]
    validate_fit(config.topology, config.catalog, config.params)
    failures = {}
    for p in params:
        try:
            validate_setup(config.topology, config.catalog, p)
        except ConfigError as exc:
            failures[p.alpha] = exc
    ctx = RoutingContext(config.topology, config.catalog, config.params)
    lanes = [_Lane(c, params, ctx, dict(failures)) for c in configs]
    source = _workload_source(config)
    if any(c.audit for c in configs):
        _check_audit_size(config)
    running = lanes if any(p.alpha not in failures for p in params) else []
    for t in range(1, config.horizon + 1):
        if not running:
            break
        batch = source.batch(t)
        if batch is None:
            break
        if batch.interval != t:
            raise InvariantViolation(f"workload produced interval {batch.interval} for clock {t}")
        running = [lane for lane in running if lane.step(batch)]
    return lanes


def _totals(lane: _Lane, params: list[CostParams]) -> dict:
    """alpha -> the lane's total cost, for every alpha of `params` it did not
    fail at. A total that is not finite (finite costs that overflow when
    summed) fails its alpha here, with a ConfigError naming it."""
    totals = {}
    for p in params:
        if p.alpha not in lane.failures:
            total = lane.ledger.total_cost(p.alpha)
            if math.isfinite(total):
                totals[p.alpha] = total
            else:
                lane.failures[p.alpha] = ConfigError(
                    f"the {lane.config.policy} total cost at alpha {p.alpha} is {total}: the costs overflow float range"
                )
    return totals


def _summaries(lane: _Lane, totals: dict, baselines: dict) -> dict:
    """alpha -> summary, for every alpha of the lane's `totals` (`_totals`).

    Every lane's normalized cost divides by the no-cache total in
    `baselines` (alpha -> total) on the identical workload and seed; the
    no-cache lane that is its own baseline gets exactly 1.0.
    """
    config = lane.config
    intervals = len(lane.ledger.rows)  # one row a step, up to the horizon or a replay's end
    requests = lane.ledger.total_requests()
    cold_starts = lane.ledger.total_cold_starts()
    summaries = {}
    for alpha, total in totals.items():
        summaries[alpha] = {
            "policy": config.policy,
            "alpha": alpha,
            "beta": config.beta,
            "seed": config.seed,
            "total_cost": total,
            "normalized_cost": total / baselines[alpha] if baselines[alpha] > 0 else None,
            "cold_start_frequency": (cold_starts / requests) if requests else None,
            "rejections": lane.rejections,
            "fallback_creations": lane.fallback_creations,
            "intervals": intervals,
            "requests": requests,
            "cold_starts": cold_starts,
            "truncated": bool(intervals < config.horizon),  # a numpy-int horizon would give np.bool_
        }
    return summaries


def _run_lanes(configs: list[SimConfig], params: list[CostParams]) -> list:
    """Simulate `configs` on one request stream; (lane, summaries) per config.

    configs[0] is the no-cache lane that normalizes the others: an alpha it
    failed at, in its simulation or in its total (`_totals`), fails every
    other lane there with the baseline's exception, as an alpha that fails
    `validate_setup` does. A lane's other failures stay its own.
    """
    with np.errstate(over="ignore"):  # a cost past float range is inf, which `_totals` names
        lanes = _simulate(configs, params)
        base = lanes[0]
        baselines = _totals(base, params)
        for lane in lanes[1:]:
            for alpha, exc in base.failures.items():
                lane.failures.setdefault(alpha, exc)
        return [(lane, _summaries(lane, baselines if lane is base else _totals(lane, params), baselines)) for lane in lanes]


def run(config: SimConfig) -> RunResult:
    """Execute one simulation; deterministic for a fixed config.

    The summary's normalized cost divides by the no-cache policy on the
    identical workload and seed: a no-cache lane simulated beside this one
    from the same request stream (a no-cache config is its own baseline).
    """
    alpha = config.params.alpha
    configs = [config]
    if config.policy != "nocache":
        configs.insert(0, replace(config, policy="nocache", audit=False, check="off"))
    lane, summaries = _run_lanes(configs, [config.params])[-1]
    if alpha in lane.failures:
        raise lane.failures[alpha]
    return RunResult(ledger=lane.ledger, summary=summaries[alpha], audit=lane.audit)


def summary_json(result: RunResult) -> str:
    return json.dumps(result.summary, sort_keys=True, allow_nan=False)


@dataclass
class SweepGrid:
    alphas: list[float]
    betas: list[float]
    policies: list[str]
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        if not (self.alphas and self.betas and self.policies and self.seeds):
            raise ConfigError("sweep grid must have at least one alpha, beta, policy, and seed")
        for axis in ("alphas", "betas", "policies", "seeds"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep grid {axis} must be distinct, got {values}")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {p!r} in grid; valid policies: {', '.join(POLICY_NAMES)}")


def _run_point(args):
    """One (seed, beta) point: the no-cache lane and every policy lane on one
    request stream; one record or error per reported lane per alpha."""
    configs, params, seed, report_nocache = args
    records, errors = [], []
    for lane, summaries in _run_lanes(configs, params):
        config = lane.config
        for p in params:
            if p.alpha in summaries:
                if config.policy != "nocache" or report_nocache:
                    records.append(dict(summaries[p.alpha], seed=seed))  # report the master seed
            else:
                exc = lane.failures[p.alpha]
                errors.append({
                    "seed": seed, "beta": config.beta, "alpha": p.alpha, "policy": config.policy,
                    "error": f"{type(exc).__name__}: {exc}",
                })
    return records, errors


def sweep(grid: SweepGrid, base: SimConfig, jobs: int = 1):
    """Cartesian product of runs; returns (records, errors) keyed by grid point.

    Each (seed, beta) point generates its request stream once and simulates
    the no-cache baseline and every policy on it in lockstep, each once,
    priced at every alpha, because alpha never changes a trajectory. `jobs > 1`
    maps the points over a pool of up to `jobs` processes, no more than there
    are points. Each cell is independent of grid-axis order, and a cell whose
    baseline ran clean is reproducible in isolation; records come back sorted
    by (seed, beta, alpha, policy). A replay base (`batches` set) has no beta
    axis: its records carry beta None. An input every cell shares raises
    ConfigError when the first (seed, beta) point that uses it starts (see
    `_simulate`); a failure of one alpha or one lane is an error record for
    its cells, and a failure of the no-cache baseline at an alpha is one for
    every policy's cell at that alpha, with the baseline's exception.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    betas = grid.betas if base.batches is None else [None]
    params = [replace(base.params, alpha=alpha) for alpha in grid.alphas]
    policies = ["nocache"] + [policy for policy in grid.policies if policy != "nocache"]

    def point(seed, beta):
        # Lanes sharing (seed, beta) see the identical workload stream, so
        # policies and alphas are compared on the same request realization.
        cell_seed = derive_seed(seed, "cell", beta)
        configs = [replace(base, policy=policy, beta=beta, seed=cell_seed, audit=False) for policy in policies]
        return configs, params, seed, "nocache" in grid.policies

    points = [point(seed, beta) for seed in grid.seeds for beta in betas]
    workers = min(jobs, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, points))
    else:
        results = [_run_point(pt) for pt in points]
    records, errors = [], []
    for recs, errs in results:
        records.extend(recs)
        errors.extend(errs)

    def sort_key(rec):
        return (rec["seed"], rec["beta"] if rec["beta"] is not None else -1.0, rec["alpha"], rec["policy"])

    records.sort(key=sort_key)
    errors.sort(key=sort_key)
    return records, errors
