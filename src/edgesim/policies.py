"""Cache-eviction policies: probabilistic (pcache), LRU, fixed caching, no-cache."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .model import NodeState, left_sum

POLICY_NAMES = ("pcache", "lru", "fc", "nocache")


@dataclass
class EvictionDistribution:
    """Eviction probability per cached type; sums to one over the support."""

    probs: dict[int, float]

    def __post_init__(self):
        if not self.probs:
            raise ContractError("eviction distribution needs a non-empty support")
        if any(p < 0 for p in self.probs.values()):
            raise ContractError("eviction probabilities must be >= 0")
        s = left_sum(self.probs.values())
        if abs(s - 1.0) > 1e-9:
            raise ContractError(f"eviction probabilities sum to {s!r}, not 1")


def pcache_distribution(state: NodeState, catalog, freq=None, last_used=None) -> EvictionDistribution:
    """Eviction distribution over the node's cached types.

    A type's weight is its memory footprint divided by (invocation count +
    last-invocation interval), so large, rarely and long-ago used containers
    are the likeliest victims. Only types with an idle cached container are in
    the support.
    """
    freq = state.freq if freq is None else freq
    last_used = state.last_used if last_used is None else last_used
    weights = {}
    for f in catalog:
        n = f.id
        if state.cache[n] < 1:
            continue
        denom = freq[n] + last_used[n]
        if denom <= 0:
            raise ContractError(
                f"node {state.node_id}: cached type {n} has freq + last_used = {denom}; "
                "a cached container must have been invoked"
            )
        weights[n] = f.mem_mb / denom
    if not weights:
        raise ContractError(f"node {state.node_id}: no cached containers to evict")
    total = left_sum(weights.values())
    return EvictionDistribution({n: w / total for n, w in sorted(weights.items())})


def pcache_select_victim(state: NodeState, catalog, rng, freq=None, last_used=None) -> int:
    """Sample one victim type by inverse CDF over ascending type id."""
    dist = pcache_distribution(state, catalog, freq, last_used)
    r = rng.random()
    acc = 0.0
    last = None
    for n, p in dist.probs.items():
        acc += p
        last = n
        if r < acc:
            return n
    return last  # guard against accumulated rounding


def lru_select_victim(state: NodeState, catalog, last_used=None) -> int:
    """Cached type with the smallest last-invocation interval; ties to lower id."""
    last_used = state.last_used if last_used is None else last_used
    best = None
    for f in catalog:
        n = f.id
        if state.cache[n] < 1:
            continue
        key = (last_used[n], n)
        if best is None or key < best:
            best = key
    if best is None:
        raise ContractError(f"node {state.node_id}: no cached containers to evict")
    return best[1]


class EvictionPolicy:
    """Behaviour contract shared by all policies.

    The router keeps each node's invocation statistics for a policy that
    holds idle containers (see holds_idle below). select_victim picks
    a cached type to destroy at `state`, one of the lane's `states`, under
    capacity pressure. end_of_interval is called once
    per interval, after service completes and the active containers have
    idled into the cache, with every node's state (`states[v]` is node v)
    and the interval's `IntervalDecision`, which names the cells (node, type)
    the interval created containers in and the nodes it evicted at. It
    returns (node, type, count) triples to destroy, node-major and
    type-minor, each count positive.

    holds_idle says whether the policy can keep an idle container into the
    next interval. One that cannot is never asked for a victim or for its
    end_of_interval sweep: routing only creates for it, and the interval
    closes by destroying what it created, unless routing closed it already
    (`scheduler.distribute_interval`).
    """

    name = "?"
    holds_idle = True

    def __init__(self, n_types: int, global_stats: bool = False):
        self.n_types = n_types
        self.global_stats = global_stats

    def _stats(self, state: NodeState, states: list[NodeState]):
        """(freq, last_used) per type: the node's own or, under `global_stats`,
        the count summed over the lane's nodes and the latest interval at any
        of them, as tables kept request by request would hold them."""
        if not self.global_stats:
            return state.freq, state.last_used
        freq = [sum(c) for c in zip(*(s.freq for s in states))]
        return freq, [max(c) for c in zip(*(s.last_used for s in states))]

    def select_victim(self, state: NodeState, catalog, rng, states: list[NodeState]) -> int:
        raise NotImplementedError

    def end_of_interval(self, states: list[NodeState], now: int, decision) -> list[tuple[int, int, int]]:
        return []


class PCache(EvictionPolicy):
    name = "pcache"

    def select_victim(self, state, catalog, rng, states):
        freq, last_used = self._stats(state, states)
        return pcache_select_victim(state, catalog, rng, freq, last_used)


class LRU(EvictionPolicy):
    name = "lru"

    def select_victim(self, state, catalog, rng, states):
        _, last_used = self._stats(state, states)
        return lru_select_victim(state, catalog, last_used)


class FixedCaching(EvictionPolicy):
    """Keeps a container alive for a fixed number of idle intervals.

    Tracks per-container cache-entry timestamps (oldest first), one log per
    cell (node, type), allocated per node when first visited; hits and
    pressure evictions retire the oldest entries, the end-of-interval sweep
    destroys entries whose idle age reached the ttl. The sweep visits only
    the cells whose log can change: those the interval's decision names and
    those a timer wheel (`_due`, interval -> cells) says fall due.
    """

    name = "fc"

    def __init__(self, n_types: int, ttl: int = 10, global_stats: bool = False):
        super().__init__(n_types, global_stats)
        if isinstance(ttl, bool) or not isinstance(ttl, (int, np.integer)) or ttl < 0:
            raise ConfigError(f"fc ttl must be an int >= 0, got {ttl!r}")
        self.ttl = int(ttl)
        self._entries: defaultdict[int, list[deque]] = defaultdict(lambda: [deque() for _ in range(n_types)])
        self._due: dict[int, list[tuple[int, int]]] = {}

    def select_victim(self, state, catalog, rng, states):
        # Caches only shrink mid-interval, so each log still holds an entry
        # per container cached at the interval start: retire the oldest
        # entries, consumed by hits or destroyed by evictions, then compare.
        best = None
        for n, dq in enumerate(self._entries[state.node_id]):
            cached = state.cache[n]
            while len(dq) > cached:
                dq.popleft()
            if cached and (best is None or dq[0] < best[0]):
                best = (dq[0], n)
        if best is None:
            raise ContractError(f"node {state.node_id}: no cached containers to evict")
        return best[1]

    def end_of_interval(self, states, now, decision):
        # A log holds one entry per container cached at the interval start.
        # `interval_running_cost` has put the served containers back in the
        # cache, so a served cell ends at cache_start - evictions + created
        # and its log is unchanged: a hit does not renew its container's
        # entry (the keep-alive defect, ROADMAP item 1). A log changes only
        # where the interval created containers (fallback creations
        # included), at a node where `select_victim` re-synced every log for
        # a pressure eviction, or where its oldest entries reach the ttl.
        # Once item 1 retires the consumed entries before the flush, the
        # served cells (keys of `local_served`, (server, type) of
        # `offloaded`) must join them.
        cells = set(decision.created)
        if decision.destroyed:
            types = range(self.n_types)
            for v in {v for v, _n in decision.destroyed}:
                cells.update([(v, n) for n in types])
        due = self._due.pop(now, None)
        if due:
            cells.update(due)
        # One pass per log: retire consumed entries, log the containers cached
        # after serving this interval, expire those idle for the ttl. Entries
        # logged at `now` fall due at now + ttl; with ttl 0 they expire in
        # this pass. Each log is visited once, so the visit order is free:
        # only the triples are sorted, node-major and type-minor.
        ttl = self.ttl
        expired = now - ttl
        entries = self._entries
        logged = []
        destroy = []
        for cell in cells:
            v, n = cell
            cached = states[v].cache[n]
            dq = entries[v][n]
            while len(dq) > cached:
                dq.popleft()
            if len(dq) < cached:
                dq.extend([now] * (cached - len(dq)))
                logged.append(cell)
            count = 0
            while dq and dq[0] <= expired:
                dq.popleft()
                count += 1
            if count:
                destroy.append((v, n, count))
        if ttl and logged:
            self._due.setdefault(now + ttl, []).extend(logged)
        destroy.sort()
        return destroy


class NoCache(EvictionPolicy):
    """Destroys every container as soon as service completes (the baseline).

    Its caches are empty whenever requests are routed, so it holds no idle
    container: a run routes its requests by creation alone and closes each
    interval by destroying the created containers (`scheduler.close_created`),
    never through an end-of-interval sweep. An unaudited, unchecked interval
    that fits at every origin comes back from the router closed and priced
    already, with nothing left to close. Nothing reads its invocation
    statistics, so the router keeps none: its nodes carry no state from one
    interval to the next.
    """

    name = "nocache"
    holds_idle = False


def make_policy(name: str, n_types: int, ttl: int = 10, global_stats: bool = False) -> EvictionPolicy:
    if name == "pcache":
        return PCache(n_types, global_stats)
    if name == "lru":
        return LRU(n_types, global_stats)
    if name == "fc":
        return FixedCaching(n_types, ttl=ttl, global_stats=global_stats)
    if name == "nocache":
        return NoCache(n_types, global_stats)
    raise ConfigError(f"unknown policy {name!r}; valid policies: {', '.join(POLICY_NAMES)}")
