"""Physical network, container catalog, cost coefficients, and per-node runtime state."""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class EdgeNode:
    id: int
    capacity_mb: float
    cpu_ghz: float
    coord: tuple[float, float] | None = None

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.capacity_mb < math.inf:
            raise ConfigError(f"node {self.id}: capacity_mb must be finite and > 0")
        if not 0 < self.cpu_ghz < math.inf:
            raise ConfigError(f"node {self.id}: cpu_ghz must be finite and > 0")


@dataclass(frozen=True)
class FunctionType:
    id: int
    mem_mb: float
    name: str = ""

    def __post_init__(self):
        if not 0 < self.mem_mb < math.inf:
            raise ConfigError(f"function type {self.id}: mem_mb must be finite and > 0")


# Default container catalog: the four application classes used throughout the
# experiments, with their memory footprints in MB.
DEFAULT_CATALOG = (
    FunctionType(0, 55.0, "web-server"),
    FunctionType(1, 158.0, "file-processing"),
    FunctionType(2, 332.0, "checkout"),
    FunctionType(3, 92.0, "image-recognition"),
)


@dataclass(frozen=True)
class CostParams:
    """Trade-off weight and the coefficients the per-node costs derive from."""

    alpha: float
    switch_coeff: float = 1.0
    run_coeff: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "switch_coeff", "run_coeff"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0")


def switching_cost(node: EdgeNode, ftype: FunctionType, params: CostParams) -> float:
    """Cost of instantiating one container of this type at this node.

    Proportional to the container size, inversely proportional to CPU frequency.
    """
    return params.switch_coeff * ftype.mem_mb / node.cpu_ghz


def running_cost(node: EdgeNode, ftype: FunctionType, params: CostParams) -> float:
    """Per-interval cost of keeping one container of this type alive at this node."""
    return params.run_coeff * ftype.mem_mb * node.cpu_ghz


@dataclass
class Topology:
    """Edge nodes plus the symmetric pairwise communication-cost matrix."""

    nodes: list[EdgeNode]
    comm_cost: np.ndarray

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise ConfigError("topology needs at least one node")
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ConfigError("node ids must be dense and ascending from 0")
        d = np.asarray(self.comm_cost, dtype=float)
        v = len(self.nodes)
        if d.shape != (v, v):
            raise ConfigError(f"comm_cost must be {v}x{v}, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ConfigError("comm_cost entries must be finite")
        if np.any(d < 0):
            raise ConfigError("comm_cost entries must be >= 0")
        if np.any(np.diag(d) != 0):
            raise ConfigError("comm_cost diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise ConfigError("comm_cost must be symmetric")
        self.comm_cost = d

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def comm_cost_from_coords(nodes: list[EdgeNode], scale: float = 1.0) -> np.ndarray:
    """Euclidean distance between node coordinates times `scale`."""
    if scale <= 0:
        raise ConfigError("comm-cost scale must be > 0")
    for node in nodes:
        if node.coord is None:
            raise ConfigError(f"node {node.id} has no coordinate; cannot derive comm costs")
    pts = np.array([n.coord for n in nodes], dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return scale * np.sqrt((diff**2).sum(axis=2))


def occupancy(state: NodeState, catalog) -> float:
    """Memory in MB held by this node's alive containers (serving + cached)."""
    return sum(f.mem_mb * (state.active[f.id] + state.cache[f.id]) for f in catalog)


def validate_fit(topology: Topology, catalog) -> None:
    """The alpha-independent half of `validate_setup`: a non-empty catalog
    with dense ids, and every node able to hold the largest container.

    A failure here fails every alpha, so a simulation raises it before any
    lane steps.
    """
    if not catalog:
        raise ConfigError("catalog is empty")
    for i, f in enumerate(catalog):
        if f.id != i:
            raise ConfigError("function type ids must be dense and ascending from 0")
    max_mem = max(f.mem_mb for f in catalog)
    for node in topology.nodes:
        if node.capacity_mb < max_mem:
            raise ConfigError(
                f"node {node.id} capacity {node.capacity_mb} MB cannot hold the "
                f"largest container ({max_mem} MB)"
            )


def validate_setup(topology: Topology, catalog, params: CostParams) -> None:
    """Cross-checks that construction-time validation cannot see.

    `validate_fit` first, then alpha * q <= p for every (type, node) pair,
    otherwise caching can never pay off. Only this second check depends on
    alpha: in a sweep, its failure ends that alpha's cells alone.
    """
    validate_fit(topology, catalog)
    for node in topology.nodes:
        for f in catalog:
            p = switching_cost(node, f, params)
            q = running_cost(node, f, params)
            if params.alpha * q > p:
                raise ConfigError(
                    f"alpha*q > p for type {f.id} at node {node.id} "
                    f"({params.alpha * q:.6g} > {p:.6g}); caching would never pay off"
                )


class NodeState:
    """Mutable per-node container bookkeeping, confined to one simulation run.

    `active` counts containers currently serving, `cache` idle alive ones.
    `freq` and `last_used` are the per-type invocation statistics the caching
    policies read. `used_mb` tracks occupancy incrementally.
    """

    __slots__ = ("node_id", "active", "cache", "freq", "last_used", "used_mb")

    def __init__(self, node_id: int, n_types: int):
        self.node_id = node_id
        self.active = [0] * n_types
        self.cache = [0] * n_types
        self.freq = [0] * n_types
        self.last_used = [0] * n_types  # 0 = never invoked (intervals are 1-based)
        self.used_mb = 0.0

    def consume_cache(self, ftype: int, count: int) -> None:
        """Move cached containers to active (a cache hit); occupancy unchanged."""
        if count > self.cache[ftype]:
            raise ValueError(f"node {self.node_id}: cannot consume {count} cached of type {ftype}")
        self.cache[ftype] -= count
        self.active[ftype] += count

    def add_active(self, ftype: int, mem_mb: float) -> None:
        self.active[ftype] += 1
        self.used_mb += mem_mb

    def admit(self, ftype: int, mem_mb: float, capacity_mb: float, limit: int) -> int:
        """Create up to `limit` active containers, one at a time while each
        fits in `capacity_mb`; returns how many. At least one must fit.

        `used_mb` takes one `+= mem_mb` per container, as `add_active` does,
        so it is bit-identical to creating them one by one.
        """
        used = self.used_mb
        k = 0
        while k < limit and used + mem_mb <= capacity_mb:
            used += mem_mb
            k += 1
        if not k:
            raise ValueError(f"node {self.node_id}: no room for a container of type {ftype}")
        self.used_mb = used
        self.active[ftype] += k
        return k

    def remove_cached(self, ftype: int, mem_mb: float, count: int = 1) -> None:
        """Destroy idle cached containers (eviction or end-of-interval sweep)."""
        if count > self.cache[ftype]:
            raise ValueError(f"node {self.node_id}: cannot destroy {count} cached of type {ftype}")
        self.cache[ftype] -= count
        self.used_mb -= mem_mb * count

    def cache_total(self) -> int:
        return sum(self.cache)


@dataclass
class RequestBatch:
    """Per-interval request counts keyed by (origin node, function type)."""

    interval: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        for (v, n), c in self.counts.items():
            if not isinstance(c, (int, np.integer)) or c < 0:
                raise ConfigError(f"request count for node {v}, type {n} must be a non-negative int")
            if type(c) is not int:
                self.counts[(v, n)] = int(c)

    @classmethod
    def _trusted(cls, interval: int, counts: dict[tuple[int, int], int]) -> RequestBatch:
        """A batch whose counts are already non-negative ints, built without
        re-checking each one."""
        batch = cls.__new__(cls)
        batch.interval = interval
        batch.counts = counts
        return batch

    def total(self) -> int:
        return sum(self.counts.values())


@contextmanager
def open_input(path, what: str):
    """Open the input file `path` (a `what` file) as UTF-8 text for reading.

    A file that cannot be opened, is not UTF-8, or holds a CSV field over the
    csv module's size limit raises ConfigError naming it.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{what} file {path} is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ConfigError(f"{what} file {path}: malformed CSV: {exc}") from None


def load_topology(path, comm_path=None, scale: float = 1.0) -> Topology:
    """Read nodes from a CSV with header id,capacity_mb,cpu_ghz,x,y.

    Communication costs come from `comm_path` (square CSV matrix) when given,
    otherwise from scaled Euclidean distances between the node coordinates.
    """
    nodes = []
    with open_input(path, "topology") as fh:
        reader = csv.DictReader(fh)
        required = {"id", "capacity_mb", "cpu_ghz"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"{path}: topology header must contain id,capacity_mb,cpu_ghz[,x,y]")
        for row in reader:
            try:
                node_id, capacity, cpu = int(row["id"]), float(row["capacity_mb"]), float(row["cpu_ghz"])
                coord = None
                if row.get("x") not in (None, "") and row.get("y") not in (None, ""):
                    coord = (float(row["x"]), float(row["y"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
            nodes.append(EdgeNode(id=node_id, capacity_mb=capacity, cpu_ghz=cpu, coord=coord))
    if not nodes:
        raise ConfigError(f"{path}: topology file lists no nodes")
    nodes.sort(key=lambda n: n.id)
    if comm_path is not None:
        comm = load_comm_matrix(comm_path, len(nodes))
    else:
        comm = comm_cost_from_coords(nodes, scale)
    return Topology(nodes=nodes, comm_cost=comm)


def load_comm_matrix(path, n_nodes: int) -> np.ndarray:
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read comm-cost file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed comm-cost matrix: {exc}") from exc
    if rows.shape != (n_nodes, n_nodes):
        raise ConfigError(f"{path}: comm-cost matrix must be {n_nodes}x{n_nodes}, got {rows.shape}")
    return rows


def load_catalog(path) -> tuple[FunctionType, ...]:
    """Read function types from a CSV with header id,mem_mb[,name]."""
    types = []
    with open_input(path, "catalog") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"id", "mem_mb"}.issubset(reader.fieldnames):
            raise ConfigError(f"{path}: catalog header must contain id,mem_mb[,name]")
        for row in reader:
            try:
                type_id, mem = int(row["id"]), float(row["mem_mb"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
            types.append(FunctionType(type_id, mem, row.get("name", "") or ""))
    types.sort(key=lambda f: f.id)
    return tuple(types)
