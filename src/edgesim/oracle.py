"""Exact offline solver for tiny instances, plus worst-case bound auditing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CompetitiveBoundError, ConfigError, InfeasibleInstance, InstanceTooLarge, InvariantViolation
from .model import (
    CostParams,
    EdgeNode,
    FunctionType,
    RequestBatch,
    Topology,
    left_sum,
    running_cost,
    switching_cost,
    validate_setup,
)
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


def _estimate_ops(lam, keep_cap, V):
    """Per interval: its routings times the states before it, plus its kept
    states squared; infinite once a count is too large for a float. A group
    of c requests counts max(C(c + V - 1, V - 1), c + 1) routings, so a huge
    count is refused on one node too, where C(c, 0) = 1."""
    est = 0.0
    states_prev = 1.0
    try:
        for t in range(1, len(lam)):
            n_assign = 1.0
            for c in lam[t]:
                if c:
                    n_assign *= max(math.comb(c + V - 1, V - 1), c + 1)
            states_t = 1.0
            for k in keep_cap[t]:
                states_t *= k + 1
            est += states_prev * n_assign + states_t * states_t
            states_prev = states_t
    except OverflowError:
        return math.inf
    return est


# (state, routing) pairs priced per numpy block. A block's temporaries take a
# few hundred bytes per pair; larger blocks pay less per-block overhead but
# raise peak memory. On a 2-vCPU Xeon, 2048 saved a few percent more time
# than 1536 for 0.3 MB more peak RSS, and 4096 ran slower.
_BLOCK_PAIRS = 1536


def _priced_blocks(dp, m_all, comm, u, cap, p_flat, aq_flat):
    """Every (state, routing) pair priced, a numpy block at a time.

    Pairs run state-major, in dp order. Each block with a feasible pair
    yields (its first state's index, pools (size, pairs), its feasible pairs'
    indices, their costs); pair s * A + a is routing a from the block's state
    s, and pool index i is v * N + n. Each cost adds its terms in the order a
    per-pair loop does (the reference in tests/test_properties.py), so
    `_kept_states` agrees with it to the bit.
    """
    A, size = m_all.shape
    V, N = len(cap), len(u)
    states = np.array(list(dp), dtype=np.int64).T[:, :, None]  # (size, S, 1)
    m_cols = m_all.T[:, None, :]  # (size, 1, A)
    cost0 = np.fromiter(dp.values(), dtype=float, count=len(dp))
    step = max(1, _BLOCK_PAIRS // A)
    for first_state in range(0, states.shape[1], step):
        block = states[:, first_state : first_state + step]
        pool = np.maximum(block, m_cols)  # (size, b, A)
        by_node = pool.reshape(V, N, *pool.shape[1:])
        used = 0.0
        for n in range(N):
            used = used + u[n] * by_node[:, n]
        feasible = ~(used > np.reshape(cap, (V, 1, 1))).any(axis=0)
        switched = np.maximum(m_cols - block, 0)
        cost = cost0[first_state : first_state + step, None] + comm
        for i in range(size):
            # adds p * 0 = +0.0 where nothing is switched on: costs are never -0.0
            cost += p_flat[i] * switched[i]
            cost += aq_flat[i] * pool[i]
        flat = np.flatnonzero(feasible)
        if len(flat):
            yield first_state, pool.reshape(size, -1), flat, cost.ravel()[flat]


def _kept_states(dp, m_all, comm, u, cap, p_flat, aq_flat, caps) -> tuple[dict, dict]:
    """Every state an interval can end in after destroying containers:
    (state -> cost, state -> parent pair), where pair s * A + a is routing a
    from the s-th state of dp.

    A pair reaches every state at or below its pool clipped to caps. One pass
    over the priced blocks reduces the pairs into the dense lattice of clipped
    pools, shape caps + 1: each cell keeps its least cost, the earliest pair
    at that cost and the first pair to reach it. Suffix minima over the
    lattice then give each state the least cost of the cells at or above it,
    the earliest pair at that cost as its parent, and its place in dp: by the
    first pair that reaches it, then in C order. That is what a walk over
    every destruction vector of every pair, in order, keeping strictly cheaper
    parents, builds (the reference in tests/test_properties.py). Once every
    cell has its first pair, a block that cannot lower a cell is skipped;
    where no request follows, the lattice is the zero state alone, and the
    pass is a running minimum.
    """
    A = len(m_all)
    shape = tuple(c + 1 for c in caps)
    stride = np.array([math.prod(shape[i + 1 :]) for i in range(len(shape))])  # C order
    caps_col = np.array(caps)[:, None]
    none = len(dp) * A  # past every pair: a cell no pair reaches
    least = np.full(math.prod(shape), np.inf)
    best = np.full(len(least), none)  # the earliest pair of least cost
    first = np.full(len(least), none)  # the first pair to reach the cell
    ceiling = math.inf  # the costliest cell's cost, once every cell is reached
    for first_state, pool, flat, costs in _priced_blocks(dp, m_all, comm, u, cap, p_flat, aq_flat):
        if costs.min() >= ceiling:
            continue
        cells = stride @ np.minimum(pool[:, flat], caps_col)
        pairs = flat + first_state * A
        np.minimum.at(first, cells, pairs)
        held = least[cells]
        np.minimum.at(least, cells, costs)
        now = least[cells]
        best[cells[now < held]] = none  # a lower cost: the cell's earlier pairs lose
        at_min = costs == now
        np.minimum.at(best, cells[at_min], pairs[at_min])
        ceiling = least.max()

    def suffix_min(values):
        lattice = values.reshape(shape)
        for axis in range(len(shape)):
            lattice = np.flip(np.minimum.accumulate(np.flip(lattice, axis), axis=axis), axis)
        return lattice.ravel()

    reached = np.flatnonzero(first < none)
    by_cost = reached[np.lexsort((best[reached], least[reached]))]  # cells by (cost, pair)
    rank = np.full(len(least), len(reached))
    rank[by_cost] = np.arange(len(reached))
    top = suffix_min(rank)
    reach = suffix_min(first)
    kept = np.flatnonzero(reach < none)  # C order
    kept = kept[np.argsort(reach[kept], kind="stable")]
    cell = by_cost[top[kept]]
    states = list(map(tuple, np.stack(np.unravel_index(kept, shape), axis=1).tolist()))
    return dict(zip(states, least[cell].tolist())), dict(zip(states, best[cell].tolist()))


def solve_exact(instance: TinyInstance) -> OracleSolution:
    """Global minimum of the total-cost objective by exhaustive enumeration.

    Dynamic program over the alive-container vector between intervals. Within
    an interval every feasible routing of every request is enumerated, and
    one pass reduces the priced pairs into the dense lattice of states that
    could be kept (pruned to counts that future demand could ever use): every
    state takes the cheapest pool it lies below, by suffix minima over the
    lattice, as walking every destruction vector of every pool would. On an
    exact tie of pools, the earliest (state, routing) pair of least cost wins.
    Where no request follows, the zero state is the only one, and the pass is
    a running minimum. Alive containers, serving or idle, bill one interval of
    running cost, matching the simulator's accounting.
    """
    V, N, T = instance.topology.n_nodes, len(instance.catalog), instance.horizon
    nodes, catalog, params = instance.topology.nodes, instance.catalog, instance.params
    u = [f.mem_mb for f in catalog]
    cap = [node.capacity_mb for node in nodes]
    d = instance.topology.comm_cost
    size = V * N  # flat index i = v * N + n
    p_flat = [switching_cost(node, f, params) for node in nodes for f in catalog]
    aq_flat = [params.alpha * running_cost(node, f, params) for node in nodes for f in catalog]
    lam = [[0] * size for _ in range(T + 1)]  # Python ints: a JSON count can exceed int64
    for b in instance.batches:
        for (v, n), c in b.counts.items():
            lam[b.interval][v * N + n] += c

    # Max containers of a type worth keeping after interval t: the largest
    # single future interval's global demand (a container serves one request
    # per interval), further capped by what fits in the node.
    fits = [int(c // m) for c in cap for m in u]
    keep_cap, future = [None] * (T + 1), [0] * N
    for t in range(T, -1, -1):
        keep_cap[t] = [min(future[i % N], fits[i]) for i in range(size)]
        future = [max(f, sum(lam[t][n::N])) for n, f in enumerate(future)]

    est = _estimate_ops(lam, keep_cap, V)
    if est > MAX_ENUM_OPS:
        raise InstanceTooLarge(
            f"instance needs ~{est:.3g} enumeration steps, cap is {MAX_ENUM_OPS:.0e}"
        )

    dp = {(0,) * size: 0.0}
    parents = {}  # t -> (request groups, routings, the states before t, state -> parent pair)
    for t in range(1, T + 1):
        # Every routing of interval t, one product over its (origin, type)
        # request groups with group 0 outermost: served counts m_all (A, size)
        # and communication costs comm (A,), each added up group by group.
        groups, m_all, comm = [], np.zeros((1, size), dtype=np.int64), np.zeros(1)
        for i, c in enumerate(lam[t]):
            if c:
                v, n = divmod(i, N)
                comps = list(_compositions(c, V))
                served = np.zeros((len(comps), size), dtype=np.int64)
                served[:, n::N] = comps
                ccost = np.array([left_sum(comp[s] * d[v][s] for s in range(V)) for comp in comps])
                m_all = (m_all[:, None] + served).reshape(-1, size)
                comm = (comm[:, None] + ccost).ravel()
                groups.append((v, n, comps))
        prev_states = list(dp)
        dp, parent = _kept_states(dp, m_all, comm, u, cap, p_flat, aq_flat, keep_cap[t])
        if not dp:
            raise InfeasibleInstance(f"no feasible routing for interval {t}")
        parents[t] = (groups, m_all, prev_states, parent)

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
        groups, m_all, prev_states, parent = parents[t]
        prev_index, aidx = divmod(parent[state], len(m_all))
        prev = prev_states[prev_index]
        pool = np.maximum(prev, m_all[aidx]).tolist()
        # the routing index in the product's mixed radix: one pick per group
        picks = np.unravel_index(aidx, [len(comps) for _v, _n, comps in groups])
        routes = [(v, n, comps[k]) for (v, n, comps), k in zip(groups, picks)]
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


def check_witness(instance: TinyInstance, solution: OracleSolution) -> None:
    """Replay an optimum's witness from the model, not from the DP's tables.

    Raises InvariantViolation unless the witness holds one entry per interval
    and, in each, serves every request of the interval's batch exactly once;
    its pool, the element-wise max of the previous kept state and the served
    counts, fits every node; and kept plus destroyed equals that pool. The
    witness's switching (p per container switched on), communication (d per
    offloaded request) and running (alpha*q per pooled container) costs must
    add up to `solution.cost` within a relative 1e-9.
    """
    V, N = instance.topology.n_nodes, len(instance.catalog)
    nodes, catalog, params = instance.topology.nodes, instance.catalog, instance.params
    d = instance.topology.comm_cost
    demand = {b.interval: {key: c for key, c in b.counts.items() if c} for b in instance.batches}
    intervals = [w["interval"] for w in solution.witness]
    if intervals != list(range(1, instance.horizon + 1)):
        raise InvariantViolation(f"witness covers intervals {intervals}, not 1..{instance.horizon}")

    def grid(t, what, rows, node_key):
        counts = [[0] * N for _ in range(V)]
        for row in rows:
            v, n, c = row[node_key], row["ftype"], row["count"]
            if not (0 <= v < V and 0 <= n < N and isinstance(c, int) and c > 0):
                raise InvariantViolation(f"interval {t}: malformed {what} entry {row}")
            counts[v][n] += c
        return counts

    terms = []
    kept = [[0] * N for _ in range(V)]
    for w in solution.witness:
        t = w["interval"]
        served = grid(t, "assignment", w["assignments"], "serve_at")
        routed = {}
        for r in w["assignments"]:
            key = (r["origin"], r["ftype"])
            routed[key] = routed.get(key, 0) + r["count"]
        if routed != demand.get(t, {}):
            raise InvariantViolation(f"interval {t}: witness serves {routed}, the batch asks {demand.get(t, {})}")
        terms += [d[r["origin"]][r["serve_at"]] * r["count"] for r in w["assignments"]]
        pool = [[max(k, m) for k, m in zip(kept_v, served_v)] for kept_v, served_v in zip(kept, served)]
        for v, node in enumerate(nodes):
            used = left_sum(catalog[n].mem_mb * pool[v][n] for n in range(N))
            if used > node.capacity_mb:
                raise InvariantViolation(f"interval {t}: pool {pool[v]} needs {used} MB at node {v}, of {node.capacity_mb}")
            for n, f in enumerate(catalog):
                terms.append(switching_cost(node, f, params) * max(served[v][n] - kept[v][n], 0))
                terms.append(params.alpha * running_cost(node, f, params) * pool[v][n])
        after = grid(t, "kept", w["kept"], "node")
        destroyed = grid(t, "destroyed", w["destroyed"], "node")
        if [[k + x for k, x in zip(*rows)] for rows in zip(after, destroyed)] != pool:
            raise InvariantViolation(f"interval {t}: kept {after} plus destroyed {destroyed} is not the pool {pool}")
        kept = after
    total = left_sum(terms)
    if not math.isclose(total, solution.cost, rel_tol=1e-9):
        raise InvariantViolation(f"the witness costs {total!r}, the solution says {solution.cost!r}")


def per_request_bound(ftype, origin, serving_node, served_from_cache, params, topology):
    """Realized marginal cost of one request and its worst-case bound.

    Costs are attributed in the origin node's frame (p, q at the origin), the
    frame the worst-case analysis is stated in. The bound is
    alpha*q * max{1 + p/(alpha*q), 1 + d/(alpha*q)}. A creation at a remote
    node (the capacity-overflow channel) also pays the remote switching cost
    and can exceed the bound; callers treat that channel separately.
    """
    aq = params.alpha * running_cost(origin, ftype, params)
    p_origin = switching_cost(origin, ftype, params)
    d = float(topology.comm_cost[origin.id][serving_node.id])
    bound = max(aq + p_origin, aq + d)
    if served_from_cache:
        realized = aq if serving_node.id == origin.id else d + aq
    elif serving_node.id == origin.id:
        realized = p_origin + aq
    else:
        realized = d + switching_cost(serving_node, ftype, params) + aq
    return realized, bound


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
    """Verify every logged request against its route, recomputed from `model`.

    The logged marginal cost and bound are the evidence being checked: each
    must equal, bit for bit, the realized cost and the worst-case bound that
    `per_request_bound` recomputes from the record's route, and a route whose
    cost exceeds its bound fails. Remote creations (capacity overflow) sit
    outside the worst-case analysis: their cost and bound are verified, and
    they are counted, not ratio-checked. Rejected requests carry no cost. Each
    route, an (origin, serving node, type, action), is priced once per call.
    Any violation raises with the offending record.
    """
    routes = {}  # route -> whether it is a fallback creation, its realized cost and bound
    n_fallback = 0
    n_rejected = 0
    max_ratio = 0.0
    max_bound_ratio = 0.0
    for rec in records:
        action = rec.action
        if action == "reject":
            n_rejected += 1
            continue
        route = (rec.origin, rec.serving_node, rec.ftype, action)
        priced = routes.get(route)
        if priced is None:
            origin = topology.nodes[rec.origin]
            f = catalog[rec.ftype]
            realized, bound = per_request_bound(
                f, origin, topology.nodes[rec.serving_node], action in ("hit", "offload"), params, topology
            )
            fallback = action == "create" and rec.serving_node != rec.origin
            if not fallback:
                if realized > bound + 1e-9:
                    raise CompetitiveBoundError(
                        rec, f"request exceeds worst-case bound: realized {realized!r} > bound {bound!r} ({rec})"
                    )
                opt = per_request_lower_bound(f, origin, params)
                max_ratio = max(max_ratio, realized / opt)
                max_bound_ratio = max(max_bound_ratio, bound / opt)
            priced = routes[route] = (fallback, realized, bound)
        fallback, realized, bound = priced
        if rec.marginal_cost != realized or rec.bound != bound:
            raise CompetitiveBoundError(
                rec,
                f"logged cost {rec.marginal_cost!r} and bound {rec.bound!r} differ from the route's "
                f"realized {realized!r} and bound {bound!r} ({rec})",
            )
        n_fallback += fallback
    return CompetitiveReport(
        n_records=len(records),
        n_checked=len(records) - n_rejected - n_fallback,
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
        demand_mb = max(demand_mb, left_sum(lam[t, :, n].sum() * catalog[n].mem_mb for n in range(N)))
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
    except (TypeError, ValueError, OverflowError, IndexError, AttributeError) as exc:
        raise ConfigError(f"malformed instance JSON: {exc}") from None


def _integer(x) -> int:
    """An id, interval, count or horizon: a JSON number with no fraction, not
    a boolean or a string, which int() would convert."""
    if isinstance(x, (bool, str)) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _instance_from_json(obj: dict) -> TinyInstance:
    nodes = [
        EdgeNode(
            id=_integer(row["id"]),
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
        FunctionType(_integer(row["id"]), float(row["mem_mb"]), row.get("name", "") or "")
        for row in sorted(obj["types"], key=lambda r: r["id"])
    )
    params = CostParams(
        alpha=float(obj["alpha"]),
        switch_coeff=float(obj.get("switch_coeff", 1.0)),
        run_coeff=float(obj.get("run_coeff", 1.0)),
    )
    horizon = _integer(obj["horizon"])
    per_interval: dict[int, dict] = {}
    for t, v, n, c in obj.get("requests", []):
        bucket = per_interval.setdefault(_integer(t), {})
        key = (_integer(v), _integer(n))
        bucket[key] = bucket.get(key, 0) + _integer(c)
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
            [b.interval, v, n, c] for b in instance.batches for (v, n), c in b.counts.items()
        ],
    }
