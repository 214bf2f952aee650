"""Physical network, container catalog, cost coefficients, and per-node runtime state."""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from operator import add

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


def left_sum(values):
    """Add values left to right from the int 0, as `sum()` does up to Python
    3.11. Python 3.12's `sum()` compensates exact floats, which moves the last
    bits of a total, so no float total in edgesim uses `sum()`."""
    return reduce(add, values, 0)


def validate_fit(topology: Topology, catalog, params: CostParams) -> None:
    """The alpha-independent half of `validate_setup`: a non-empty catalog
    with dense ids, every node able to hold the largest container, and a
    finite switching cost p and running cost q for every (type, node) pair.

    A failure here fails every alpha, so a simulation raises it before any
    lane steps. With p and q finite, an infinite alpha * q fails
    `validate_setup`'s own check.
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
    for node in topology.nodes:
        for f in catalog:
            for coeff, cost, price in (("switch_coeff", "p", switching_cost), ("run_coeff", "q", running_cost)):
                value = price(node, f, params)
                if not math.isfinite(value):
                    raise ConfigError(
                        f"{coeff} {getattr(params, coeff):g} makes {cost} = {value} for type {f.id} "
                        f"at node {node.id}; costs must be finite"
                    )


def validate_setup(topology: Topology, catalog, params: CostParams) -> None:
    """Cross-checks that construction-time validation cannot see.

    `validate_fit` first, then alpha * q <= p for every (type, node) pair,
    otherwise caching can never pay off. Only this second check depends on
    alpha: in a sweep, its failure ends that alpha's cells alone.
    """
    validate_fit(topology, catalog, params)
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
    policies read. `used_mb` tracks occupancy incrementally. The router moves
    containers and, for a policy that holds idle containers, keeps the
    statistics; the state only destroys cached ones. A no-cache lane's nodes
    are all zero between intervals: no container, no statistics.
    """

    __slots__ = ("node_id", "active", "cache", "freq", "last_used", "used_mb")

    def __init__(self, node_id: int, n_types: int):
        self.node_id = node_id
        self.active = [0] * n_types
        self.cache = [0] * n_types
        self.freq = [0] * n_types
        self.last_used = [0] * n_types  # 0 = never invoked (intervals are 1-based)
        self.used_mb = 0.0

    def remove_cached(self, ftype: int, mem_mb: float, count: int = 1) -> None:
        """Destroy idle cached containers (eviction or end-of-interval sweep)."""
        if count > self.cache[ftype]:
            raise ValueError(f"node {self.node_id}: cannot destroy {count} cached of type {ftype}")
        self.cache[ftype] -= count
        self.used_mb -= mem_mb * count


@dataclass
class RequestBatch:
    """Per-interval request counts keyed by (origin node, function type).

    The keys iterate in ascending (node, type) order, the order every lane
    routes them in: the constructor rebuilds `counts` so, whatever order the
    caller's dict holds, and stores every count as a Python int.
    """

    interval: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        counts = self.counts
        ints = (int, np.integer)
        for key, c in counts.items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(x, ints) and not isinstance(x, bool) for x in key)):
                raise ConfigError(f"request key {key!r} must be a (node, type) pair of ints")
            if isinstance(c, bool) or not isinstance(c, ints) or c < 0:
                raise ConfigError(f"request count for node {key[0]}, type {key[1]} must be a non-negative int")
        self.counts = {key: int(counts[key]) for key in sorted(counts)}

    @classmethod
    def _trusted(cls, interval: int, counts: dict[tuple[int, int], int]) -> RequestBatch:
        """A batch whose counts are already non-negative ints with their
        (node, type) keys in ascending order, built without re-checking or
        re-sorting them."""
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
