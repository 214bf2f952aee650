"""Exact offline solver for tiny instances, plus worst-case bound auditing."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CompetitiveBoundError, ConfigError, InfeasibleInstance, InstanceTooLarge
from .model import (
    CostParams,
    EdgeNode,
    FunctionType,
    RequestBatch,
    Topology,
    running_cost,
    switching_cost,
    validate_setup,
)
from .scheduler import per_request_bound
from .workload import ListSource

MAX_NODES = 3
MAX_TYPES = 2
MAX_INTERVALS = 3
MAX_ENUM_OPS = 10_000_000


@dataclass
class TinyInstance:
    """A problem instance small enough for exhaustive enumeration."""

    topology: Topology
    catalog: tuple[FunctionType, ...]
    params: CostParams
    horizon: int
    batches: list[RequestBatch]

    def __post_init__(self):
        if self.topology.n_nodes > MAX_NODES:
            raise InstanceTooLarge(f"at most {MAX_NODES} nodes, got {self.topology.n_nodes}")
        if len(self.catalog) > MAX_TYPES:
            raise InstanceTooLarge(f"at most {MAX_TYPES} types, got {len(self.catalog)}")
        if not 1 <= self.horizon <= MAX_INTERVALS:
            raise InstanceTooLarge(f"horizon must be in 1..{MAX_INTERVALS}, got {self.horizon}")
        validate_setup(self.topology, self.catalog, self.params)
        for b in self.batches:
            if not 1 <= b.interval <= self.horizon:
                raise ConfigError(f"batch interval {b.interval} outside 1..{self.horizon}")
        # node and type ranges, one batch per interval: the checks a policy replay makes
        ListSource(self.batches, self.topology.n_nodes, len(self.catalog))


@dataclass
class OracleSolution:
    cost: float
    witness: list[dict]


def _compositions(total: int, k: int):
    """All k-tuples of non-negative ints summing to total."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _demand(instance: TinyInstance) -> list[list[list[int]]]:
    V, N, T = instance.topology.n_nodes, len(instance.catalog), instance.horizon
    lam = [[[0] * N for _ in range(V)] for _ in range(T + 1)]
    for b in instance.batches:
        for (v, n), c in b.counts.items():
            lam[b.interval][v][n] += c
    return lam


def _estimate_ops(instance, lam, keep_cap):
    V, N, T = instance.topology.n_nodes, len(instance.catalog), instance.horizon
    est = 0.0
    states_prev = 1.0
    for t in range(1, T + 1):
        n_assign = 1.0
        for v in range(V):
            for n in range(N):
                c = lam[t][v][n]
                if c:
                    n_assign *= math.comb(c + V - 1, V - 1)
        states_t = 1.0
        for v in range(V):
            for n in range(N):
                states_t *= keep_cap[t][v][n] + 1
        est += states_prev * n_assign + states_t * states_t
        states_prev = states_t
    return est


# (state, routing) pairs priced per numpy block. A block's temporaries take a
# few hundred bytes per pair; larger blocks run faster but raise peak memory.
_BLOCK_PAIRS = 1024


def _best_pools(dp, m_all, comm, u, cap, p_flat, aq_flat) -> dict[tuple, tuple]:
    """Cheapest feasible (state, routing) pair per pool, the element-wise max
    of the two: pool -> (cost, state, routing index).

    Pairs run state-major, in dp order. A pool enters the dict at its first
    feasible pair and keeps the earliest pair of strictly smallest cost. Each
    cost adds its terms in the order a per-pair loop does (the reference in
    tests/test_properties.py), so the two agree to the bit.
    """
    A, size = m_all.shape
    V, N = len(cap), len(u)
    prev_states = list(dp)
    states = np.array(prev_states, dtype=np.int64).T[:, :, None]  # (size, S, 1)
    m_cols = m_all.T[:, None, :]  # (size, 1, A)
    cost0 = np.fromiter(dp.values(), dtype=float, count=len(dp))
    # A pool's mixed-radix key: coordinate i spans lo[i]..lo[i] + span[i] - 1.
    # Within MAX_ENUM_OPS the product of the spans is at most 1e14, so keys fit
    # in int64.
    lo = np.maximum(states.min(axis=(1, 2)), m_all.min(axis=0))
    span = np.maximum(states.max(axis=(1, 2)), m_all.max(axis=0)) - lo + 1
    weights = np.cumprod(np.concatenate(([1], span[:-1])))
    step = max(1, _BLOCK_PAIRS // A)
    pool_best: dict[tuple, tuple] = {}
    for first_state in range(0, states.shape[1], step):
        block = states[:, first_state : first_state + step]
        pool = np.maximum(block, m_cols)  # (size, b, A), flat index i = v * N + n
        by_node = pool.reshape(V, N, *pool.shape[1:])
        used = 0.0
        for n in range(N):
            used = used + u[n] * by_node[:, n]
        feasible = ~(used > np.reshape(cap, (V, 1, 1))).any(axis=0)
        diff = m_cols - block
        cost = cost0[first_state : first_state + step, None] + comm
        for i in range(size):
            np.add(cost, p_flat[i] * diff[i], out=cost, where=diff[i] > 0)
            cost += aq_flat[i] * pool[i]
        flat = np.flatnonzero(feasible)
        if not len(flat):
            continue
        pools = pool.reshape(size, -1)[:, flat]
        costs = cost.ravel()[flat]
        keys = weights @ (pools - lo[:, None])
        # group equal pools, cheapest first; the stable sort keeps the
        # earliest of equal costs first
        order = np.lexsort((costs, keys))
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
        # pools in the order of their first pair
        best = order[starts][np.argsort(np.minimum.reduceat(order, starts))]
        si, ai = np.divmod(flat[best], A)
        for key, c, s, a in zip(
            map(tuple, pools[:, best].T.tolist()),
            costs[best].tolist(),
            (si + first_state).tolist(),
            ai.tolist(),
        ):
            held = pool_best.get(key)
            if held is None or c < held[0]:
                pool_best[key] = (c, prev_states[s], a)
    return pool_best


def solve_exact(instance: TinyInstance) -> OracleSolution:
    """Global minimum of the total-cost objective by exhaustive enumeration.

    Dynamic program over the alive-container vector between intervals. Within
    an interval every feasible routing of every request is enumerated; at the
    interval boundary every destruction vector is enumerated (pruned to counts
    that future demand could ever use). Alive containers, serving or idle,
    bill one interval of running cost, matching the simulator's accounting.
    """
    V, N, T = instance.topology.n_nodes, len(instance.catalog), instance.horizon
    u = [f.mem_mb for f in instance.catalog]
    cap = [node.capacity_mb for node in instance.topology.nodes]
    d = instance.topology.comm_cost
    params = instance.params
    alpha = params.alpha
    p = [[switching_cost(node, f, params) for f in instance.catalog] for node in instance.topology.nodes]
    q = [[running_cost(node, f, params) for f in instance.catalog] for node in instance.topology.nodes]
    lam = _demand(instance)

    # Max containers of a type worth keeping after interval t: the largest
    # single future interval's global demand (a container serves one request
    # per interval), further capped by what fits in the node.
    totals = [[sum(lam[t][v][n] for v in range(V)) for n in range(N)] for t in range(T + 1)]
    keep_cap = [[[0] * N for _ in range(V)] for _ in range(T + 1)]
    for t in range(T + 1):
        for n in range(N):
            future = max((totals[tt][n] for tt in range(t + 1, T + 1)), default=0)
            for v in range(V):
                keep_cap[t][v][n] = min(future, int(cap[v] // u[n]))

    est = _estimate_ops(instance, lam, keep_cap)
    if est > MAX_ENUM_OPS:
        raise InstanceTooLarge(
            f"instance needs ~{est:.3g} enumeration steps, cap is {MAX_ENUM_OPS:.0e}"
        )

    size = V * N  # flat index i = v * N + n
    p_flat = [p[v][n] for v in range(V) for n in range(N)]
    aq_flat = [alpha * q[v][n] for v in range(V) for n in range(N)]

    def assignments_for(t):
        """Every routing of interval t's requests: the (A, size) served-count
        vectors m, their (A,) communication costs and their routes."""
        groups = []
        for v in range(V):
            for n in range(N):
                c = lam[t][v][n]
                if c:
                    comps = [
                        (comp, sum(comp[s] * d[v][s] for s in range(V)))
                        for comp in _compositions(c, V)
                    ]
                    groups.append((v, n, comps))
        ms, comms, routes_all = [], [], []
        m = [0] * size

        def rec(i, comm, routes):
            if i == len(groups):
                ms.append(tuple(m))
                comms.append(comm)
                routes_all.append(tuple(routes))
                return
            v, n, comps = groups[i]
            for comp, ccost in comps:
                for s in range(V):
                    m[s * N + n] += comp[s]
                rec(i + 1, comm + ccost, routes + [(v, n, comp)])
                for s in range(V):
                    m[s * N + n] -= comp[s]

        rec(0, 0.0, [])
        return np.array(ms, dtype=np.int64), np.array(comms, dtype=float), routes_all

    zero = tuple([0] * size)
    dp = {zero: 0.0}
    parents: dict[tuple[int, tuple], tuple] = {}
    routes_by_t = {}

    for t in range(1, T + 1):
        m_all, comm, routes_by_t[t] = assignments_for(t)
        pool_best = _best_pools(dp, m_all, comm, u, cap, p_flat, aq_flat)
        if not pool_best:
            raise InfeasibleInstance(f"no feasible routing for interval {t}")
        ndp: dict[tuple, float] = {}
        caps_t = [keep_cap[t][i // N][i % N] for i in range(size)]
        for pool, (cost, prev, aidx) in pool_best.items():
            ranges = [range(min(pool[i], caps_t[i]) + 1) for i in range(size)]
            for nxt in itertools.product(*ranges):
                if cost < ndp.get(nxt, math.inf):
                    ndp[nxt] = cost
                    parents[(t, nxt)] = (prev, aidx, pool)
        dp = ndp

    final_state = min(dp, key=dp.get)
    best_cost = dp[final_state]
    if any(b.total() for b in instance.batches):
        # a routing's comm cost sums np.float64 entries of comm_cost, so the
        # optimum of an instance with requests is an np.float64
        best_cost = np.float64(best_cost)

    # Walk the parent chain back to reconstruct one optimal decision sequence.
    witness = []
    state = final_state
    for t in range(T, 0, -1):
        prev, aidx, pool = parents[(t, state)]
        routes = routes_by_t[t][aidx]
        witness.append(
            {
                "interval": t,
                "assignments": [
                    {"origin": v, "ftype": n, "serve_at": s, "count": comp[s]}
                    for (v, n, comp) in routes
                    for s in range(V)
                    if comp[s]
                ],
                "kept": [
                    {"node": i // N, "ftype": i % N, "count": state[i]}
                    for i in range(size)
                    if state[i]
                ],
                "destroyed": [
                    {"node": i // N, "ftype": i % N, "count": pool[i] - state[i]}
                    for i in range(size)
                    if pool[i] - state[i]
                ],
            }
        )
        state = prev
    witness.reverse()
    return OracleSolution(cost=best_cost, witness=witness)


def per_request_lower_bound(ftype: FunctionType, node: EdgeNode, params: CostParams) -> float:
    """Best possible marginal cost of a request: a warm hit at its origin."""
    return params.alpha * running_cost(node, ftype, params)


@dataclass
class CompetitiveReport:
    n_records: int
    n_checked: int
    n_fallback_creations: int
    n_rejected: int
    max_ratio: float
    max_bound_ratio: float


def competitive_check(records, topology: Topology, catalog, params: CostParams) -> CompetitiveReport:
    """Verify every logged request against its worst-case cost bound.

    The bound is recomputed independently from the route; the logged marginal
    cost is the evidence being checked. Remote creations (capacity overflow)
    sit outside the worst-case analysis and are counted, not ratio-checked;
    rejected requests carry no cost. Any violation raises with the offending
    record.
    """
    n_checked = 0
    n_fallback = 0
    n_rejected = 0
    max_ratio = 0.0
    max_bound_ratio = 0.0
    for rec in records:
        if rec.action == "reject":
            n_rejected += 1
            continue
        if rec.action == "create" and rec.serving_node != rec.origin:
            n_fallback += 1
            continue
        origin = topology.nodes[rec.origin]
        serving = topology.nodes[rec.serving_node]
        f = catalog[rec.ftype]
        _realized, bound = per_request_bound(
            f, origin, serving, rec.action in ("hit", "offload"), params, topology
        )
        if rec.marginal_cost > bound + 1e-9:
            raise CompetitiveBoundError(
                rec,
                f"request exceeds worst-case bound: realized {rec.marginal_cost!r} "
                f"> bound {bound!r} ({rec})",
            )
        opt = per_request_lower_bound(f, origin, params)
        max_ratio = max(max_ratio, rec.marginal_cost / opt)
        max_bound_ratio = max(max_bound_ratio, bound / opt)
        n_checked += 1
    return CompetitiveReport(
        n_records=len(records),
        n_checked=n_checked,
        n_fallback_creations=n_fallback,
        n_rejected=n_rejected,
        max_ratio=max_ratio,
        max_bound_ratio=max_bound_ratio,
    )


def random_tiny_instance(rng: np.random.Generator) -> TinyInstance:
    """Random enumerable instance where local creation is always feasible.

    Every node gets capacity for one full interval's global demand, which
    rules out the overflow/rejection channel (a rejecting policy could
    otherwise undercut the optimum); caches accumulating across intervals
    still trigger eviction.
    """
    V = int(rng.integers(1, MAX_NODES + 1))
    N = int(rng.integers(1, MAX_TYPES + 1))
    T = int(rng.integers(1, MAX_INTERVALS + 1))
    mems = rng.uniform(50, 350, size=N)
    catalog = tuple(FunctionType(n, float(round(mems[n], 1))) for n in range(N))
    cpus = rng.uniform(0.5, 2.0, size=V)

    # <= 3 requests per interval, <= 2 per type, one per (node, type) slot
    lam = np.zeros((T + 1, V, N), dtype=int)
    for t in range(1, T + 1):
        slots = [(v, n) for v in range(V) for n in range(N)]
        rng.shuffle(slots)
        per_type = [0] * N
        placed = 0
        for v, n in slots:
            if placed >= 3:
                break
            if per_type[n] >= 2:
                continue
            if rng.random() < 0.6:
                lam[t, v, n] = 1
                per_type[n] += 1
                placed += 1

    demand_mb = 0.0
    for t in range(1, T + 1):
        demand_mb = max(demand_mb, sum(lam[t, :, n].sum() * catalog[n].mem_mb for n in range(N)))
    cap = max(demand_mb, max(f.mem_mb for f in catalog)) * float(rng.uniform(1.0, 1.3))

    nodes = [EdgeNode(v, float(round(cap, 1)), float(round(cpus[v], 2))) for v in range(V)]
    dmat = np.zeros((V, V))
    for i in range(V):
        for j in range(i + 1, V):
            dmat[i, j] = dmat[j, i] = float(round(rng.uniform(0.5, 150.0), 2))
    topology = Topology(nodes=nodes, comm_cost=dmat)

    alpha = float(rng.uniform(0.002, 0.02))
    max_cpu = max(n.cpu_ghz for n in nodes)
    run_coeff = float(rng.uniform(0.1, 0.9)) / (alpha * max_cpu**2)
    params = CostParams(alpha=alpha, switch_coeff=1.0, run_coeff=run_coeff)

    batches = []
    for t in range(1, T + 1):
        counts = {
            (v, n): int(lam[t, v, n]) for v in range(V) for n in range(N) if lam[t, v, n]
        }
        batches.append(RequestBatch(interval=t, counts=counts))
    return TinyInstance(topology=topology, catalog=catalog, params=params, horizon=T, batches=batches)


def instance_from_json(obj: dict) -> TinyInstance:
    """Build an instance from the CLI's JSON schema.

    JSON of any other shape (a missing key, a value of the wrong type or
    dimension) is a ConfigError, like every other malformed input.
    """
    try:
        return _instance_from_json(obj)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"malformed instance JSON: missing key {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ConfigError(f"malformed instance JSON: {exc}") from None


def _instance_from_json(obj: dict) -> TinyInstance:
    nodes = [
        EdgeNode(
            id=int(row["id"]),
            capacity_mb=float(row["capacity_mb"]),
            cpu_ghz=float(row["cpu_ghz"]),
            coord=tuple(row["coord"]) if row.get("coord") else None,
        )
        for row in obj["nodes"]
    ]
    if not nodes:
        raise ConfigError("malformed instance JSON: no nodes")
    nodes.sort(key=lambda n: n.id)
    if "comm_cost" in obj:
        comm = np.asarray(obj["comm_cost"], dtype=float)
    else:
        from .model import comm_cost_from_coords

        comm = comm_cost_from_coords(nodes, float(obj.get("comm_scale", 1.0)))
    topology = Topology(nodes=nodes, comm_cost=comm)
    catalog = tuple(
        FunctionType(int(row["id"]), float(row["mem_mb"]), row.get("name", "") or "")
        for row in sorted(obj["types"], key=lambda r: r["id"])
    )
    params = CostParams(
        alpha=float(obj["alpha"]),
        switch_coeff=float(obj.get("switch_coeff", 1.0)),
        run_coeff=float(obj.get("run_coeff", 1.0)),
    )
    horizon = int(obj["horizon"])
    per_interval: dict[int, dict] = {}
    for t, v, n, c in obj.get("requests", []):
        bucket = per_interval.setdefault(int(t), {})
        key = (int(v), int(n))
        bucket[key] = bucket.get(key, 0) + int(c)
    batches = [RequestBatch(interval=t, counts=cts) for t, cts in sorted(per_interval.items())]
    return TinyInstance(topology=topology, catalog=catalog, params=params, horizon=horizon, batches=batches)


def instance_to_json(instance: TinyInstance) -> dict:
    return {
        "nodes": [
            {"id": n.id, "capacity_mb": n.capacity_mb, "cpu_ghz": n.cpu_ghz} for n in instance.topology.nodes
        ],
        "comm_cost": [[float(x) for x in row] for row in instance.topology.comm_cost],
        "types": [{"id": f.id, "mem_mb": f.mem_mb, "name": f.name} for f in instance.catalog],
        "alpha": instance.params.alpha,
        "switch_coeff": instance.params.switch_coeff,
        "run_coeff": instance.params.run_coeff,
        "horizon": instance.horizon,
        "requests": [
            [b.interval, v, n, c] for b in instance.batches for (v, n), c in sorted(b.counts.items())
        ],
    }
