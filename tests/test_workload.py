import numpy as np
import pytest

from edgesim.errors import ConfigError, MappingError, TraceParseError
from edgesim.workload import (
    ListSource,
    ZipfConfig,
    ZipfSource,
    generate_batch,
    ingest_trace,
    node_rank_maps,
    read_trace,
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


def test_zipf_normalized_and_nonincreasing():
    for beta in (0.5, 1.0, 1.5):
        for n in (1, 3, 10, 50):
            pop = zipf_popularity(beta, n)
            assert abs(pop.sum() - 1.0) <= 1e-12
            assert all(pop[i] >= pop[i + 1] for i in range(n - 1))


def test_generate_batch_zero_rate():
    topo = make_topology([4000.0, 4000.0])
    cfg = ZipfConfig(beta=1.0, n_types=4, mean_rate=0.0, seed=3)
    batch = generate_batch(cfg, topo, 1, np.random.default_rng(3))
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
    batch = generate_batch(cfg, topo, 1, np.random.default_rng(5), rank_maps=node_rank_maps(cfg, 1, global_ranking=True))
    total = batch.total()
    for n in range(4):
        share = batch.counts.get((0, n), 0) / total
        se = (pop[n] * (1 - pop[n]) / total) ** 0.5
        assert abs(share - pop[n]) <= 3 * se


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


def test_ingest_unknown_node_is_mapping_error(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,5,0,3\n")
    with pytest.raises(MappingError):
        ingest_trace(path, n_nodes=2, n_types=1)
    # a remap fixes it
    batches = ingest_trace(path, n_nodes=2, n_types=1, node_map={5: 1})
    assert batches[0].counts == {(1, 0): 3}


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


def test_trace_source_exhaustion(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("interval,node,ftype,count\n1,0,0,1\n3,0,0,1\n")
    source = ListSource(ingest_trace(path, n_nodes=1, n_types=1), n_nodes=1, n_types=1)
    assert source.batch(1).counts == {(0, 0): 1}
    assert source.batch(2).counts == {}
    assert source.batch(3).counts == {(0, 0): 1}
    assert source.batch(4) is None
