"""The benchmark's span tracer (`bench/spans.py`) against the live package.

The tracer wraps edgesim's call boundaries by name from outside `src/`, so a
renamed boundary crashes every benchmark run, and a lane routed around the
wrapped router drops out of the per-layer counts. The module is imported
from its file, unedited.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from edgesim import sim
from edgesim.model import DEFAULT_CATALOG, CostParams
from edgesim.sim import SimConfig

from conftest import desk_topology

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(spans):
    # the untraced CallCounter of bench/run.py resolves every boundary too
    assert all(callable(fn) for *_, fn in spans.resolve(spans.boundaries()))


# desk-shaped: capacity pressure, check off
DESK = SimConfig(
    topology=desk_topology(capacity=1600.0, scale=8.0),
    catalog=DEFAULT_CATALOG,
    params=CostParams(alpha=0.005),
    policy="nocache",
    horizon=50,
    seed=7,
    beta=1.0,
    mean_rate=1.2,
    check="off",
)


def _traced_run(spans, config):
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = sim.run(config)
    finally:
        tracer.restore()
    _spans, counts = tracer.take()
    return result, counts


@pytest.mark.parametrize("policy, lanes", [("pcache", 2), ("nocache", 1)])
def test_tracer_counts_the_requests_of_every_lane(spans, policy, lanes):
    # a pcache run also routes its hidden no-cache baseline
    expected = sim.run(DESK).summary["requests"]
    assert expected > 0
    result, counts = _traced_run(spans, replace(DESK, policy=policy))
    assert result.summary["requests"] == expected
    assert counts["scheduler.requests"] == lanes * expected


@pytest.mark.parametrize("check", ["off", "sample"])
@pytest.mark.parametrize("policy", ["pcache", "nocache"])
def test_tracer_counts_the_creations_of_every_lane(spans, policy, check):
    # every no-cache request is a creation, closed as routed or not; the
    # hidden baseline of a pcache run is its lone no-cache run
    config = replace(DESK, policy=policy, check=check)
    cold_starts = sim.run(replace(DESK, check=check)).summary["cold_starts"]
    result, counts = _traced_run(spans, config)
    if policy != "nocache":
        cold_starts += result.summary["cold_starts"]
    assert counts["scheduler.creations"] == cold_starts > 0
    served = sum(counts[f"scheduler.{name}"] for name in ("hits", "offloads", "creations", "rejections"))
    assert served == counts["scheduler.requests"]
