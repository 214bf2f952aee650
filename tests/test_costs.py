import pytest

from edgesim.costs import (
    CostLedger,
    IntervalDecision,
    interval_comm_cost,
    interval_running_cost,
    interval_switching_cost,
)
from edgesim.errors import InvariantViolation
from edgesim.model import DEFAULT_CATALOG, CostParams, NodeState, RequestBatch
from edgesim.scheduler import RoutingContext

from conftest import make_topology

WEB, FILEPROC, CHECKOUT, IMGREC = DEFAULT_CATALOG


def _params(alpha=0.01, run_coeff=0.01):
    return CostParams(alpha=alpha, switch_coeff=1.0, run_coeff=run_coeff)


def _ctx(topo):
    return RoutingContext(topo, DEFAULT_CATALOG, _params())


def test_switching_cost_no_creations():
    topo = make_topology([4000.0])
    d = IntervalDecision(interval=1)
    assert interval_switching_cost(d, _ctx(topo)) == 0.0


def test_switching_cost_single_web_server():
    topo = make_topology([4000.0])
    d = IntervalDecision(interval=1, created={(0, WEB.id): 1})
    assert interval_switching_cost(d, _ctx(topo)) == 55.0


def test_switching_cost_two_types_one_node():
    topo = make_topology([4000.0])
    d = IntervalDecision(interval=1, created={(0, WEB.id): 1, (0, IMGREC.id): 1})
    assert interval_switching_cost(d, _ctx(topo)) == 147.0


def test_comm_cost_all_local():
    topo = make_topology([4000.0, 4000.0], comm=[[0, 5], [5, 0]])
    d = IntervalDecision(interval=1, local_served={(0, 0): 4, (1, 1): 2})
    assert interval_comm_cost(d, topo) == 0.0


def test_comm_cost_single_link():
    topo = make_topology([4000.0, 4000.0], comm=[[0, 5], [5, 0]])
    d = IntervalDecision(interval=1, offloaded={(0, 1, WEB.id): 3})
    assert interval_comm_cost(d, topo) == 15.0


def test_comm_cost_mixed_links():
    topo = make_topology([4000.0] * 3, comm=[[0, 2, 7], [2, 0, 3], [7, 3, 0]])
    d = IntervalDecision(interval=1, offloaded={(0, 1, 0): 2, (0, 2, 1): 1})
    assert interval_comm_cost(d, topo) == 11.0


def test_running_cost_no_alive():
    topo = make_topology([4000.0])
    states = [NodeState(0, 4)]
    assert interval_running_cost(states, _ctx(topo)) == 0.0


def test_running_cost_one_cached_container():
    topo = make_topology([4000.0])
    states = [NodeState(0, 4)]
    states[0].cache[IMGREC.id] = 1
    assert interval_running_cost(states, _ctx(topo)) == pytest.approx(0.92)


def test_running_cost_two_nodes():
    topo = make_topology([4000.0, 4000.0])
    states = [NodeState(0, 4), NodeState(1, 4)]
    states[0].active[WEB.id] = 1
    states[1].cache[WEB.id] = 1
    assert interval_running_cost(states, _ctx(topo)) == pytest.approx(1.10)


def test_total_cost_empty_ledger():
    ledger = CostLedger(alpha=0.01)
    assert ledger.total_cost() == 0.0


def test_total_cost_single_interval_hand_sum():
    ledger = CostLedger(alpha=0.01)
    ledger.append_interval(1, 55.0, 15.0, 0.92, cold_starts=1, requests=4)
    assert ledger.total_cost() == pytest.approx(70.0092, abs=1e-12)


def test_total_cost_matches_row_recomputation():
    ledger = CostLedger(alpha=0.005)
    rows = [(1, 10.0, 2.0, 40.0, 3, 9), (2, 0.0, 1.5, 42.0, 0, 7)]
    for r in rows:
        ledger.append_interval(*r[:4], cold_starts=r[4], requests=r[5])
    expect = sum(s + c + 0.005 * r for (_, s, c, r, _, _) in rows)
    assert ledger.total_cost() == pytest.approx(expect, rel=1e-15)
    for row, (_, s, c, r, _, _) in zip(ledger.rows, rows):
        assert row.total == pytest.approx(s + c + 0.005 * r, rel=1e-15)


def test_negative_component_rejected():
    ledger = CostLedger(alpha=0.01)
    with pytest.raises(InvariantViolation):
        ledger.append_interval(1, -1.0, 0.0, 0.0, 0, 0)


def test_conservation_check():
    batch = RequestBatch(interval=1, counts={(0, 0): 3, (1, 1): 1})
    good = IntervalDecision(
        interval=1,
        local_served={(0, 0): 2},
        offloaded={(0, 1, 0): 1, (1, 0, 1): 1},
    )
    good.check_conservation(batch)
    bad = IntervalDecision(interval=1, local_served={(0, 0): 2})
    with pytest.raises(InvariantViolation):
        bad.check_conservation(batch)


def test_ledger_csv_roundtrip(tmp_path):
    ledger = CostLedger(alpha=0.01)
    ledger.append_interval(1, 55.0, 15.0, 0.92, cold_starts=1, requests=4)
    path = tmp_path / "ledger.csv"
    ledger.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "interval,switching,communication,running,total,cold_starts,requests"
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert float(fields[4]) == pytest.approx(70.0092)
