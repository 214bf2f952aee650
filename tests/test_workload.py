import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim.errors import ConfigError, MappingError, TraceParseError
from edgesim.model import RequestBatch
from edgesim.workload import (
    ListSource,
    ZipfConfig,
    ZipfSource,
    generate_batch,
    ingest_trace,
    node_rank_maps,
    read_trace,
    zipf_key_table,
    zipf_popularity,
)

from conftest import make_topology


def test_zipf_single_type():
    assert zipf_popularity(0.7, 1).tolist() == [1.0]


def test_zipf_two_types_beta_one():
    pop = zipf_popularity(1.0, 2)
    assert pop[0] == pytest.approx(2 / 3, abs=1e-12)
    assert pop[1] == pytest.approx(1 / 3, abs=1e-12)


def test_zipf_zero_beta_rejected():
    with pytest.raises(ConfigError):
        zipf_popularity(0.0, 4)
    with pytest.raises(ConfigError):
        zipf_popularity(1.0, 0)


@pytest.mark.parametrize("n_types", [2.5, 2.0, True, "2", None])
def test_zipf_config_rejects_a_type_count_that_is_not_an_int(n_types):
    # 2.5 types once built a config whose first source ended in numpy's AxisError
    with pytest.raises(ConfigError, match="n_types must be an int"):
        ZipfConfig(beta=1.0, n_types=n_types, mean_rate=3.0)


def test_zipf_config_refuses_a_mean_rate_numpy_cannot_draw():
    # numpy's Poisson limit: the largest lam `Generator.poisson` accepts
    limit = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)
    assert limit == 9.223372006484771e18
    cfg = ZipfConfig(beta=1.0, n_types=2, mean_rate=limit, seed=1)
    batch = ZipfSource(cfg, make_topology([4000.0])).batch(1)
    assert sum(batch.counts.values()) > 9e18
    for rate in (math.nextafter(limit, math.inf), 1e30):
        with pytest.raises(ConfigError, match="9.223372006484771e\\+18"):
            ZipfConfig(beta=1.0, n_types=2, mean_rate=rate)


def test_zipf_normalized_and_nonincreasing():
    for beta in (0.5, 1.0, 1.5):
        for n in (1, 3, 10, 50):
            pop = zipf_popularity(beta, n)
            assert abs(pop.sum() - 1.0) <= 1e-12
            assert all(pop[i] >= pop[i + 1] for i in range(n - 1))


def test_generate_batch_zero_rate():
    topo = make_topology([4000.0, 4000.0])
    cfg = ZipfConfig(beta=1.0, n_types=4, mean_rate=0.0, seed=3)
    table = zipf_key_table(node_rank_maps(cfg, 2), 4)
    batch = generate_batch(cfg, topo, 1, np.random.default_rng(3), zipf_popularity(1.0, 4), table)
    assert batch.total() == 0


def test_generate_batch_deterministic():
    topo = make_topology([4000.0, 4000.0, 4000.0])
    cfg = ZipfConfig(beta=1.0, n_types=4, mean_rate=6.0, seed=11)
    src_a = ZipfSource(cfg, topo)
    src_b = ZipfSource(cfg, topo)
    for t in range(1, 20):
        assert src_a.batch(t).counts == src_b.batch(t).counts


def test_generate_batch_shares_match_popularity():
    # empirical type shares vs the popularity vector, within 3 standard errors
    topo = make_topology([4000.0])
    cfg = ZipfConfig(beta=1.0, n_types=4, mean_rate=40000.0, seed=5)
    pop = zipf_popularity(1.0, 4)
    table = zipf_key_table(node_rank_maps(cfg, 1, global_ranking=True), 4)
    batch = generate_batch(cfg, topo, 1, np.random.default_rng(5), pop, table)
    total = batch.total()
    for n in range(4):
        share = batch.counts.get((0, n), 0) / total
        se = (pop[n] * (1 - pop[n]) / total) ** 0.5
        assert abs(share - pop[n]) <= 3 * se


def _nonzero_batch(cfg, topology, interval, rng, rank_maps, pop):
    """generate_batch as it was before the key table: the nonzero cells in
    rank order within each node."""
    totals = rng.poisson(cfg.mean_rate, size=topology.n_nodes)
    splits = rng.multinomial(totals, pop)
    nodes, ranks = np.nonzero(splits)
    counts = {
        (v, int(rank_maps[v][rank])): c
        for v, rank, c in zip(nodes.tolist(), ranks.tolist(), splits[nodes, ranks].tolist())
    }
    return RequestBatch._trusted(interval, counts)


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(1, 30),
    n_types=st.integers(1, 8),
    beta=st.floats(0.0, 3.0, exclude_min=True),
    rate=st.sampled_from((0.0, 1.2, 50.0)),
    global_ranking=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_key_table_batches_equal_nonzero_batches(n_nodes, n_types, beta, rate, global_ranking, seed):
    # the same counts from the same draws; only the keys' order moves, to ascending
    topo = make_topology([4000.0] * n_nodes)
    cfg = ZipfConfig(beta=beta, n_types=n_types, mean_rate=rate, seed=seed)
    maps = node_rank_maps(cfg, n_nodes, global_ranking)
    pop = zipf_popularity(beta, n_types)
    table = zipf_key_table(maps, n_types)
    rng_old, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    for t in range(1, 5):
        old = _nonzero_batch(cfg, topo, t, rng_old, maps, pop)
        new = generate_batch(cfg, topo, t, rng_new, pop, table)
        assert new.counts == old.counts
        assert list(new.counts) == sorted(new.counts)
        assert all(type(c) is int and c > 0 for c in new.counts.values())
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_rank_maps_stable_and_permutations():
    cfg = ZipfConfig(beta=1.0, n_types=4, mean_rate=1.0, seed=9)
    maps_a = node_rank_maps(cfg, 10)
    maps_b = node_rank_maps(cfg, 10)
    for a, b in zip(maps_a, maps_b):
        assert a.tolist() == b.tolist()
        assert sorted(a.tolist()) == [0, 1, 2, 3]
    ident = node_rank_maps(cfg, 3, global_ranking=True)
    assert all(m.tolist() == [0, 1, 2, 3] for m in ident)


def test_ingest_empty_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n")
    assert ingest_trace(path, n_nodes=2, n_types=2) == []


def test_ingest_downscale_one_preserves_counts(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "interval,node,ftype,count\n1,0,1,7\n1,1,0,2\n2,0,0,1\n"
    )
    batches = ingest_trace(path, n_nodes=2, n_types=2)
    assert [b.interval for b in batches] == [1, 2]
    assert batches[0].counts == {(0, 1): 7, (1, 0): 2}
    assert batches[1].counts == {(0, 0): 1}


def test_ingest_downscale_stochastic_rounding_mean(tmp_path):
    # count 25 / downscale 10 -> 2 + Bernoulli(0.5); mean 2.5 over many seeds
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,0,0,25\n")
    emitted = []
    for seed in range(2000):
        batches = ingest_trace(path, n_nodes=1, n_types=1, downscale=10, seed=seed)
        emitted.append(batches[0].counts.get((0, 0), 0))
    assert np.mean(emitted) == pytest.approx(2.5, abs=0.1)
    assert set(emitted) <= {2, 3}


def test_ingest_malformed_row_reports_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,0,0,3\n1,0,oops,1\n")
    with pytest.raises(TraceParseError) as err:
        ingest_trace(path, n_nodes=1, n_types=1)
    assert err.value.line_no == 3


def test_trace_error_reports_physical_line(tmp_path):
    # the first row's quoted count spans lines 2-3, so the bad row is line 4
    path = tmp_path / "trace.csv"
    path.write_text('interval,node,ftype,count\n1,0,0,"3\n"\n1,0,oops,1\n')
    with pytest.raises(TraceParseError) as err:
        read_trace(path)
    assert err.value.line_no == 4


def test_ingest_unknown_node_is_mapping_error(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,5,0,3\n")
    with pytest.raises(MappingError):
        ingest_trace(path, n_nodes=2, n_types=1)


def test_ingest_negative_count_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,0,0,-2\n")
    with pytest.raises(TraceParseError):
        read_trace(path)


def test_ingest_orders_intervals_and_bins(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n4,0,0,1\n1,0,0,2\n2,0,0,4\n")
    batches = ingest_trace(path, n_nodes=1, n_types=1)
    assert [b.interval for b in batches] == [1, 2, 4]
    binned = ingest_trace(path, n_nodes=1, n_types=1, bin_width=2)
    assert [b.interval for b in binned] == [1, 2]
    assert binned[0].counts == {(0, 0): 6}
    assert binned[1].counts == {(0, 0): 1}


@pytest.mark.parametrize("downscale", [1, 3])
def test_ingest_builds_sorted_batches_of_positive_ints(tmp_path, downscale):
    # rows out of order, a key repeated within a bin and a zero count
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n3,1,0,5\n1,1,1,4\n1,0,1,2\n2,0,0,0\n1,1,1,3\n4,0,0,7\n")
    batches = ingest_trace(path, n_nodes=2, n_types=2, downscale=downscale, seed=4, bin_width=2)
    assert [b.interval for b in batches] == [1, 2]
    for batch, raw in zip(batches, ({(0, 1): 2, (1, 1): 7}, {(0, 0): 7, (1, 0): 5})):
        assert list(batch.counts) == sorted(batch.counts) and set(batch.counts) <= set(raw)
        for key, c in batch.counts.items():
            assert type(c) is int and 0 < c and raw[key] // downscale <= c <= raw[key] // downscale + 1
        if downscale == 1:
            assert batch.counts == raw


def test_ingest_raises_every_parse_error_before_a_mapping_error(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,9,0,1\n1,0,oops,1\n")
    with pytest.raises(TraceParseError) as err:
        ingest_trace(path, n_nodes=2, n_types=1)
    assert err.value.line_no == 3


def test_trace_source_exhaustion(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,0,0,1\n3,0,0,1\n")
    source = ListSource(ingest_trace(path, n_nodes=1, n_types=1), n_nodes=1, n_types=1)
    assert source.batch(1).counts == {(0, 0): 1}
    assert source.batch(2).counts == {} and source.batch(2).interval == 2
    assert source.batch(3).counts == {(0, 0): 1}
    assert source.batch(4) is None


def test_list_source_rejects_two_batches_for_one_interval():
    batches = [RequestBatch(1, {(0, 0): 1}), RequestBatch(2, {}), RequestBatch(1, {(0, 0): 2})]
    with pytest.raises(ConfigError, match="interval 1"):
        ListSource(batches, n_nodes=1, n_types=1)


@pytest.mark.parametrize("interval", [0, -2, True, 1.0, 2.5])
def test_list_source_rejects_intervals_not_an_int_from_one(interval):
    # the clock starts at interval 1: a batch numbered 0 would never be
    # replayed, and a bool or float interval only equals an interval's number
    batches = [RequestBatch(interval, {(0, 0): 3}), RequestBatch(3, {(0, 0): 1})]
    with pytest.raises(ConfigError, match=f"batch interval {interval!r} must be an int >= 1"):
        ListSource(batches, n_nodes=1, n_types=1)
