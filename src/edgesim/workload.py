"""Synthetic Zipf request generation and invocation-trace ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MappingError, TraceParseError
from .model import RequestBatch, Topology


@dataclass(frozen=True)
class ZipfConfig:
    beta: float
    n_types: int
    mean_rate: float
    seed: int = 0

    def __post_init__(self):
        if self.n_types < 1:
            raise ConfigError("n_types must be >= 1")
        if not 0 < self.beta < math.inf:
            raise ConfigError("zipf beta must be finite and > 0")
        if not 0 <= self.mean_rate < math.inf:
            raise ConfigError("mean_rate must be finite and >= 0")


@dataclass(frozen=True)
class TraceRecord:
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


def generate_batch(
    cfg: ZipfConfig,
    topology: Topology,
    interval: int,
    rng: np.random.Generator,
    rank_maps: list[np.ndarray] | None = None,
) -> RequestBatch:
    """Draw one interval of requests: Poisson totals per node, split across
    types by the (per-node permuted) Zipf popularity."""
    if rank_maps is None:
        rank_maps = node_rank_maps(cfg, topology.n_nodes)
    pop = zipf_popularity(cfg.beta, cfg.n_types)
    totals = rng.poisson(cfg.mean_rate, size=topology.n_nodes)
    # one call draws every node's split, from the same stream as per-node calls
    splits = rng.multinomial(totals, pop)
    nodes, ranks = np.nonzero(splits)
    counts = {
        (v, int(rank_maps[v][rank])): c
        for v, rank, c in zip(nodes.tolist(), ranks.tolist(), splits[nodes, ranks].tolist())
    }
    return RequestBatch(interval=interval, counts=counts)


class ZipfSource:
    """Workload source that generates batches on demand; never exhausts."""

    def __init__(self, cfg: ZipfConfig, topology: Topology, global_ranking: bool = False):
        self.cfg = cfg
        self.topology = topology
        self._rank_maps = node_rank_maps(cfg, topology.n_nodes, global_ranking)
        self._rng = np.random.default_rng(cfg.seed)

    def batch(self, interval: int) -> RequestBatch:
        return generate_batch(self.cfg, self.topology, interval, self._rng, self._rank_maps)


class ListSource:
    """Replays a fixed batch list (an ingested trace or a hand-built one);
    returns None past the last interval."""

    def __init__(self, batches: list[RequestBatch], n_nodes: int, n_types: int):
        for b in batches:
            for v, n in b.counts:
                if not (0 <= v < n_nodes and 0 <= n < n_types):
                    raise ConfigError(
                        f"batch for interval {b.interval} names node {v}, type {n}; "
                        f"outside 0..{n_nodes - 1} nodes, 0..{n_types - 1} types"
                    )
        self._by_interval = {b.interval: b for b in batches}
        self._last = max(self._by_interval) if self._by_interval else 0

    def batch(self, interval: int) -> RequestBatch | None:
        if interval > self._last:
            return None
        return self._by_interval.get(interval, RequestBatch(interval=interval, counts={}))


def read_trace(path) -> list[TraceRecord]:
    """Parse a trace CSV with header interval,node,ftype,count."""
    records = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read trace file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return records
        if [h.strip() for h in header] != ["interval", "node", "ftype", "count"]:
            raise TraceParseError(1, f"expected header interval,node,ftype,count, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise TraceParseError(line_no, f"expected 4 fields, got {len(row)}")
            try:
                interval, node, ftype, count = (int(x) for x in row)
            except ValueError:
                raise TraceParseError(line_no, f"non-integer field in {row}") from None
            if interval < 1:
                raise TraceParseError(line_no, f"interval must be >= 1, got {interval}")
            if count < 0:
                raise TraceParseError(line_no, f"count must be >= 0, got {count}")
            records.append(TraceRecord(interval, node, ftype, count))
    return records


def ingest_trace(
    path,
    n_nodes: int,
    n_types: int,
    node_map: dict[int, int] | None = None,
    type_map: dict[int, int] | None = None,
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
    records = read_trace(path)
    rng = np.random.default_rng(seed)
    totals: dict[int, dict[tuple[int, int], int]] = {}
    for rec in records:
        node = node_map.get(rec.node, rec.node) if node_map else rec.node
        ftype = type_map.get(rec.ftype, rec.ftype) if type_map else rec.ftype
        if not 0 <= node < n_nodes:
            raise MappingError(f"trace node {rec.node} maps to {node}, outside 0..{n_nodes - 1}")
        if not 0 <= ftype < n_types:
            raise MappingError(f"trace ftype {rec.ftype} maps to {ftype}, outside 0..{n_types - 1}")
        interval = (rec.interval - 1) // bin_width + 1
        bucket = totals.setdefault(interval, {})
        bucket[(node, ftype)] = bucket.get((node, ftype), 0) + rec.count
    batches = []
    for interval in sorted(totals):
        counts = {}
        for key in sorted(totals[interval]):
            raw = totals[interval][key]
            if downscale == 1:
                scaled = raw
            else:
                whole, frac = divmod(raw, downscale)
                scaled = int(whole)
                if frac and rng.random() < frac / downscale:
                    scaled += 1
            if scaled:
                counts[key] = scaled
        batches.append(RequestBatch(interval=interval, counts=counts))
    return batches
