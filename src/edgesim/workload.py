"""Synthetic Zipf request generation and invocation-trace ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, MappingError, TraceParseError
from .model import RequestBatch, Topology, open_input

# numpy's Poisson limit: `Generator.poisson` refuses any larger lam
MAX_MEAN_RATE = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ZipfConfig:
    beta: float
    n_types: int
    mean_rate: float
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.n_types, bool) or not isinstance(self.n_types, (int, np.integer)):
            raise ConfigError(f"n_types must be an int, got {self.n_types!r}")
        if self.n_types < 1:
            raise ConfigError("n_types must be >= 1")
        if not 0 < self.beta < math.inf:
            raise ConfigError("zipf beta must be finite and > 0")
        if not 0 <= self.mean_rate <= MAX_MEAN_RATE:
            raise ConfigError(f"mean_rate must be >= 0 and at most numpy's Poisson limit {MAX_MEAN_RATE!r}, got {self.mean_rate!r}")


class TraceRecord(NamedTuple):
    interval: int
    node: int
    ftype: int
    count: int


def zipf_popularity(beta: float, n_types: int) -> np.ndarray:
    """Rank-ordered popularity vector: prob[k] proportional to (k+1)^-beta."""
    if n_types < 1:
        raise ConfigError("n_types must be >= 1")
    if beta <= 0:
        raise ConfigError("zipf beta must be > 0")
    ranks = np.arange(1, n_types + 1, dtype=float)
    weights = ranks**-beta
    return weights / weights.sum()


def node_rank_maps(cfg: ZipfConfig, n_nodes: int, global_ranking: bool = False) -> list[np.ndarray]:
    """Per-node assignment of popularity ranks to type ids.

    Randomized per node (seeded from cfg.seed) so hot spots differ across the
    map; with global_ranking the identity map is shared by every node.
    """
    if global_ranking:
        ident = np.arange(cfg.n_types)
        return [ident] * n_nodes
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    return [rng.permutation(cfg.n_types) for _ in range(n_nodes)]


def zipf_key_table(rank_maps: list[np.ndarray], n_types: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """(gather, keys) for building batches in ascending (node, type) order.

    With T types, `gather[v*T + n]` is the flat multinomial cell `v*T + rank`
    that counts type n at node v, and `keys[v*T + n]` is (v, n).
    """
    gather = np.empty(len(rank_maps) * n_types, dtype=np.intp)
    for v, types in enumerate(rank_maps):
        row = v * n_types
        gather[row + np.asarray(types)] = np.arange(row, row + n_types)
    keys = [(v, n) for v in range(len(rank_maps)) for n in range(n_types)]
    return gather, keys


def generate_batch(
    cfg: ZipfConfig,
    topology: Topology,
    interval: int,
    rng: np.random.Generator,
    pop: np.ndarray,
    table: tuple[np.ndarray, list[tuple[int, int]]],
) -> RequestBatch:
    """Draw one interval of requests: Poisson totals per node, split across
    popularity ranks by `pop` (`zipf_popularity` of cfg), then mapped to
    each node's types through `table` (the `zipf_key_table` of the node rank
    maps). The batch's keys come in ascending (node, type) order."""
    gather, keys = table
    totals = rng.poisson(cfg.mean_rate, size=topology.n_nodes)
    # one call draws every node's split, from the same stream as per-node calls
    splits = rng.multinomial(totals, pop)
    flat = splits.take(gather).tolist()
    # .tolist() counts of nonzero cells: ints >= 1, keyed in ascending order
    return RequestBatch._trusted(interval, dict(zip(compress(keys, flat), filter(None, flat))))


class ZipfSource:
    """Workload source that generates batches on demand; never exhausts."""

    def __init__(self, cfg: ZipfConfig, topology: Topology, global_ranking: bool = False):
        self.cfg = cfg
        self.topology = topology
        self._table = zipf_key_table(node_rank_maps(cfg, topology.n_nodes, global_ranking), cfg.n_types)
        self._pop = zipf_popularity(cfg.beta, cfg.n_types)
        self._rng = np.random.default_rng(cfg.seed)

    def batch(self, interval: int) -> RequestBatch:
        return generate_batch(self.cfg, self.topology, interval, self._rng, pop=self._pop, table=self._table)


class ListSource:
    """Replays a fixed batch list (an ingested trace or a hand-built one);
    returns None past the last interval. Each interval has at most one batch,
    numbered by an int >= 1, the clock's first interval."""

    def __init__(self, batches: list[RequestBatch], n_nodes: int, n_types: int):
        self._by_interval = {}
        for b in batches:
            if type(b.interval) is not int or b.interval < 1:
                raise ConfigError(f"batch interval {b.interval!r} must be an int >= 1")
            for v, n in b.counts:
                if not (0 <= v < n_nodes and 0 <= n < n_types):
                    raise ConfigError(
                        f"batch for interval {b.interval} names node {v}, type {n}; "
                        f"outside 0..{n_nodes - 1} nodes, 0..{n_types - 1} types"
                    )
            if b.interval in self._by_interval:
                raise ConfigError(f"two batches for interval {b.interval}; merge them into one")
            self._by_interval[b.interval] = b
        self._last = max(self._by_interval) if self._by_interval else 0

    def batch(self, interval: int) -> RequestBatch | None:
        if interval > self._last:
            return None
        return self._by_interval.get(interval) or RequestBatch(interval=interval, counts={})


def read_trace(path) -> list[TraceRecord]:
    """Parse a UTF-8 trace CSV with header interval,node,ftype,count.

    Errors name the file and the physical line a row ends on, so a quoted
    field spanning lines does not shift the numbers of later rows.
    """
    records = []
    with open_input(path, "trace") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return records
        if [h.strip() for h in header] != ["interval", "node", "ftype", "count"]:
            raise TraceParseError(path, reader.line_num, f"expected header interval,node,ftype,count, got {header}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise TraceParseError(path, reader.line_num, f"expected 4 fields, got {len(row)}")
            try:
                rec = TraceRecord._make(map(int, row))
            except ValueError:
                raise TraceParseError(path, reader.line_num, f"non-integer field in {row}") from None
            if rec.interval < 1:
                raise TraceParseError(path, reader.line_num, f"interval must be >= 1, got {rec.interval}")
            if rec.count < 0:
                raise TraceParseError(path, reader.line_num, f"count must be >= 0, got {rec.count}")
            records.append(rec)
    return records


def ingest_trace(
    path,
    n_nodes: int,
    n_types: int,
    downscale: int = 1,
    seed: int = 0,
    bin_width: int = 1,
) -> list[RequestBatch]:
    """Turn a trace file into interval-ordered batches.

    Counts are divided by `downscale` with stochastic rounding (floor plus a
    Bernoulli draw on the fractional part) so sparse functions keep their
    expected load. Raw intervals are grouped into bins of `bin_width` ticks.
    """
    if downscale < 1:
        raise ConfigError("downscale must be >= 1")
    if bin_width < 1:
        raise ConfigError("bin_width must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    records = read_trace(path)
    rng = np.random.default_rng(seed)
    totals: dict[int, dict[tuple[int, int], int]] = {}
    for interval, node, ftype, count in records:
        if not 0 <= node < n_nodes:
            raise MappingError(f"trace node {node} outside 0..{n_nodes - 1}")
        if not 0 <= ftype < n_types:
            raise MappingError(f"trace ftype {ftype} outside 0..{n_types - 1}")
        interval = (interval - 1) // bin_width + 1
        bucket = totals.get(interval)
        if bucket is None:
            bucket = totals[interval] = {}
        key = (node, ftype)
        bucket[key] = bucket.get(key, 0) + count
    batches = []
    for interval in sorted(totals):
        bucket = totals[interval]
        if downscale == 1:
            counts = {key: raw for key, raw in sorted(bucket.items()) if raw}
        else:
            counts = {}
            for key, raw in sorted(bucket.items()):
                whole, frac = divmod(raw, downscale)
                scaled = int(whole)
                if frac and rng.random() < frac / downscale:
                    scaled += 1
                if scaled:
                    counts[key] = scaled
        # sums of parsed ints: int counts >= 1, keyed in ascending order
        batches.append(RequestBatch._trusted(interval, counts))
    return batches
