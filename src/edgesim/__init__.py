"""Discrete time-interval simulator of serverless container caching and
request routing across resource-constrained edge nodes."""

from .costs import CostLedger, IntervalDecision
from .model import (
    DEFAULT_CATALOG,
    CostParams,
    EdgeNode,
    FunctionType,
    NodeState,
    RequestBatch,
    Topology,
    comm_cost_from_coords,
    running_cost,
    switching_cost,
)
from .oracle import TinyInstance, competitive_check, per_request_lower_bound, solve_exact
from .policies import EvictionDistribution, make_policy, pcache_distribution
from .sim import RunResult, SimConfig, SweepGrid, run, sweep
from .workload import TraceRecord, ZipfConfig, generate_batch, ingest_trace, zipf_popularity

__all__ = [
    "CostLedger",
    "CostParams",
    "DEFAULT_CATALOG",
    "EdgeNode",
    "EvictionDistribution",
    "FunctionType",
    "IntervalDecision",
    "NodeState",
    "RequestBatch",
    "RunResult",
    "SimConfig",
    "SweepGrid",
    "TinyInstance",
    "Topology",
    "TraceRecord",
    "ZipfConfig",
    "comm_cost_from_coords",
    "competitive_check",
    "generate_batch",
    "ingest_trace",
    "make_policy",
    "pcache_distribution",
    "per_request_lower_bound",
    "run",
    "running_cost",
    "solve_exact",
    "sweep",
    "switching_cost",
    "zipf_popularity",
]
