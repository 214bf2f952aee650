import numpy as np
import pytest

from edgesim.costs import IntervalDecision, interval_running_cost
from edgesim.errors import ConfigError, ContractError
from edgesim.model import DEFAULT_CATALOG, CostParams, FunctionType, NodeState
from edgesim.policies import (
    EvictionDistribution,
    FixedCaching,
    LRU,
    PCache,
    lru_select_victim,
    make_policy,
    pcache_distribution,
    pcache_select_victim,
)
from edgesim.scheduler import RoutingContext, end_interval

from conftest import FlushingNoCache, make_topology, route

WEB, FILEPROC, CHECKOUT, IMGREC = DEFAULT_CATALOG


def _state(cache=None, freq=None, last_used=None, n_types=4):
    state = NodeState(0, n_types)
    for n, c in (cache or {}).items():
        state.cache[n] = c
    for n, c in (freq or {}).items():
        state.freq[n] = c
    for n, c in (last_used or {}).items():
        state.last_used[n] = c
    return state


def test_distribution_single_cached_type():
    state = _state(cache={WEB.id: 2}, freq={WEB.id: 3}, last_used={WEB.id: 5})
    dist = pcache_distribution(state, DEFAULT_CATALOG)
    assert dist.probs == {WEB.id: 1.0}


def test_distribution_symmetric_weights():
    catalog = (FunctionType(0, 100.0), FunctionType(1, 100.0))
    state = _state(cache={0: 1, 1: 1}, freq={0: 4, 1: 7}, last_used={0: 6, 1: 3}, n_types=2)
    dist = pcache_distribution(state, catalog)
    assert dist.probs[0] == pytest.approx(0.5)
    assert dist.probs[1] == pytest.approx(0.5)


def test_distribution_checkout_vs_web_sizes():
    # 332 and 55 MB with equal freq + recency denominators
    state = _state(
        cache={WEB.id: 1, CHECKOUT.id: 1},
        freq={WEB.id: 4, CHECKOUT.id: 4},
        last_used={WEB.id: 6, CHECKOUT.id: 6},
    )
    dist = pcache_distribution(state, DEFAULT_CATALOG)
    assert dist.probs[CHECKOUT.id] == pytest.approx(0.858, abs=1e-3)
    assert dist.probs[WEB.id] == pytest.approx(0.142, abs=1e-3)
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_distribution_excludes_uncached_types():
    state = _state(
        cache={WEB.id: 1},
        freq={WEB.id: 1, CHECKOUT.id: 50},
        last_used={WEB.id: 1, CHECKOUT.id: 50},
    )
    dist = pcache_distribution(state, DEFAULT_CATALOG)
    assert set(dist.probs) == {WEB.id}


def test_distribution_empty_cache_rejected():
    state = _state()
    with pytest.raises(ContractError):
        pcache_distribution(state, DEFAULT_CATALOG)


def test_distribution_zero_denominator_guard():
    state = _state(cache={WEB.id: 1})  # freq and last_used both 0: invariant broken
    with pytest.raises(ContractError):
        pcache_distribution(state, DEFAULT_CATALOG)


def test_distribution_monotone_in_size_freq_recency():
    base = dict(cache={0: 1, 1: 1}, n_types=2)
    catalog_small = (FunctionType(0, 100.0), FunctionType(1, 100.0))
    catalog_big = (FunctionType(0, 200.0), FunctionType(1, 100.0))
    s = _state(freq={0: 5, 1: 5}, last_used={0: 5, 1: 5}, **base)
    p_small = pcache_distribution(s, catalog_small).probs[0]
    p_big = pcache_distribution(s, catalog_big).probs[0]
    assert p_big > p_small  # larger memory footprint -> likelier victim

    s_hot = _state(freq={0: 50, 1: 5}, last_used={0: 5, 1: 5}, **base)
    p_hot = pcache_distribution(s_hot, catalog_small).probs[0]
    assert p_hot < p_small  # more invocations -> safer

    s_recent = _state(freq={0: 5, 1: 5}, last_used={0: 50, 1: 5}, **base)
    p_recent = pcache_distribution(s_recent, catalog_small).probs[0]
    assert p_recent < p_small  # more recent -> safer


def test_select_victim_single_type():
    state = _state(cache={IMGREC.id: 1}, freq={IMGREC.id: 1}, last_used={IMGREC.id: 1})
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert pcache_select_victim(state, DEFAULT_CATALOG, rng) == IMGREC.id


def test_select_victim_balanced_frequencies():
    catalog = (FunctionType(0, 100.0), FunctionType(1, 100.0))
    state = _state(cache={0: 1, 1: 1}, freq={0: 3, 1: 3}, last_used={0: 4, 1: 4}, n_types=2)
    rng = np.random.default_rng(7)
    hits = sum(pcache_select_victim(state, catalog, rng) == 0 for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_select_victim_deterministic_sequence():
    state = _state(
        cache={WEB.id: 1, CHECKOUT.id: 1},
        freq={WEB.id: 2, CHECKOUT.id: 2},
        last_used={WEB.id: 3, CHECKOUT.id: 3},
    )
    seq_a = [pcache_select_victim(state, DEFAULT_CATALOG, np.random.default_rng(9)) for _ in range(1)]
    seq_b = [pcache_select_victim(state, DEFAULT_CATALOG, np.random.default_rng(9)) for _ in range(1)]
    rng_a = np.random.default_rng(13)
    rng_b = np.random.default_rng(13)
    seq_a += [pcache_select_victim(state, DEFAULT_CATALOG, rng_a) for _ in range(50)]
    seq_b += [pcache_select_victim(state, DEFAULT_CATALOG, rng_b) for _ in range(50)]
    assert seq_a == seq_b


def test_select_victim_chi_square_fit():
    scipy_stats = pytest.importorskip("scipy.stats")
    state = _state(
        cache={WEB.id: 1, FILEPROC.id: 1, CHECKOUT.id: 1, IMGREC.id: 1},
        freq={0: 9, 1: 2, 2: 5, 3: 1},
        last_used={0: 11, 1: 4, 2: 9, 3: 12},
    )
    dist = pcache_distribution(state, DEFAULT_CATALOG)
    rng = np.random.default_rng(2024)
    draws = 10_000
    observed = [0, 0, 0, 0]
    for _ in range(draws):
        observed[pcache_select_victim(state, DEFAULT_CATALOG, rng)] += 1
    expected = [dist.probs[n] * draws for n in range(4)]
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue >= 0.01


def test_lru_single_and_ordering():
    state = _state(cache={WEB.id: 1}, last_used={WEB.id: 3})
    assert lru_select_victim(state, DEFAULT_CATALOG) == WEB.id
    state = _state(
        cache={WEB.id: 1, CHECKOUT.id: 1},
        last_used={WEB.id: 7, CHECKOUT.id: 3},
    )
    assert lru_select_victim(state, DEFAULT_CATALOG) == CHECKOUT.id


def test_lru_tie_breaks_to_lower_id():
    state = _state(cache={0: 1, 2: 1}, last_used={0: 5, 2: 5})
    assert lru_select_victim(state, DEFAULT_CATALOG) == 0


def test_lru_empty_cache_rejected():
    with pytest.raises(ContractError):
        lru_select_victim(_state(), DEFAULT_CATALOG)


def _decision(now, created=(), destroyed=()):
    """The decision of an interval at node 0 that created one container of
    each type in `created` and evicted one of each type in `destroyed`."""
    return IntervalDecision(
        interval=now, created={(0, n): 1 for n in created}, destroyed={(0, n): 1 for n in destroyed}
    )


def test_fc_fresh_container_survives():
    fc = FixedCaching(n_types=4, ttl=10)
    state = _state()
    state.cache[WEB.id] = 1
    state.freq[WEB.id] = 1
    assert fc.end_of_interval([state], 5, _decision(5, [WEB.id])) == []  # entered at 5, age 0


def test_fc_destroys_at_exact_ttl():
    fc = FixedCaching(n_types=4, ttl=10)
    state = _state(cache={WEB.id: 1}, freq={WEB.id: 1})
    assert fc.end_of_interval([state], 1, _decision(1, [WEB.id])) == []
    for now in range(2, 11):
        assert fc.end_of_interval([state], now, _decision(now)) == []
    assert fc.end_of_interval([state], 11, _decision(11)) == [(0, WEB.id, 1)]


def test_fc_mixed_ages():
    # entries aged 3, 10, 12 with ttl 10: the 10 and 12 go
    fc = FixedCaching(n_types=4, ttl=10)
    state = _state(freq={WEB.id: 3})
    state.cache[WEB.id] = 1
    fc.end_of_interval([state], 1, _decision(1, [WEB.id]))  # entered at 1
    state.cache[WEB.id] = 2
    fc.end_of_interval([state], 3, _decision(3, [WEB.id]))  # second entered at 3
    state.cache[WEB.id] = 3
    fc.end_of_interval([state], 10, _decision(10, [WEB.id]))  # third entered at 10
    destroy = fc.end_of_interval([state], 13, _decision(13))  # ages 12, 10, 3
    assert destroy == [(0, WEB.id, 2)]


def test_fc_victim_is_oldest_entry():
    fc = FixedCaching(n_types=4, ttl=100)
    state = _state(freq={WEB.id: 1, CHECKOUT.id: 1})
    state.cache[CHECKOUT.id] = 1
    fc.end_of_interval([state], 1, _decision(1, [CHECKOUT.id]))
    state.cache[WEB.id] = 1
    fc.end_of_interval([state], 4, _decision(4, [WEB.id]))
    rng = np.random.default_rng(0)
    assert fc.select_victim(state, DEFAULT_CATALOG, rng, [state]) == CHECKOUT.id


def test_fc_ttl_zero_flushes_everything():
    fc = FixedCaching(n_types=4, ttl=0)
    state = _state(cache={WEB.id: 2, IMGREC.id: 1}, freq={WEB.id: 2, IMGREC.id: 1})
    decision = IntervalDecision(interval=3, created={(0, WEB.id): 2, (0, IMGREC.id): 1})
    assert fc.end_of_interval([state], 3, decision) == [(0, WEB.id, 2), (0, IMGREC.id, 1)]


def test_fc_negative_ttl_rejected():
    with pytest.raises(ConfigError):
        FixedCaching(n_types=4, ttl=-1)


def _fc_node(capacity, ttl):
    """One node of `capacity` MB under fc, and a step that routes one
    interval's requests there and closes it as a run does."""
    ctx = RoutingContext(make_topology([capacity]), DEFAULT_CATALOG, CostParams(alpha=0.01))
    fc = FixedCaching(n_types=4, ttl=ttl)
    states = [NodeState(0, 4)]

    def step(t, counts):
        decision = route(states, ctx, fc, t, counts)
        interval_running_cost(states, ctx)
        return end_interval(states, fc, t, ctx.catalog, decision)

    return fc, states, step


def test_fc_untouched_cell_falls_due_at_ttl():
    # nothing touches WEB's cell after t=1: the timer wheel alone brings it
    # back, at 1 + ttl exactly
    fc, _, step = _fc_node(4000.0, ttl=3)
    assert step(1, {(0, WEB.id): 1}) == []
    assert step(2, {(0, FILEPROC.id): 1}) == []
    assert step(3, {}) == []
    assert step(4, {}) == [(0, WEB.id, 1)]
    assert step(5, {}) == [(0, FILEPROC.id, 1)]


def test_fc_eviction_relogs_the_hit_type_at_its_node():
    # at t=3 a WEB hit empties WEB's cache, then an IMGREC creation evicts
    # FILEPROC: select_victim retires WEB's consumed entry, so the flushed
    # WEB container is logged again at 3, as the full scan logs it
    fc, states, step = _fc_node(300.0, ttl=4)
    assert step(1, {(0, WEB.id): 1, (0, FILEPROC.id): 1}) == []
    assert step(3, {(0, WEB.id): 1, (0, IMGREC.id): 1}) == []
    assert states[0].cache == [1, 0, 0, 1]
    assert [list(dq) for dq in fc._entries[0]] == [[3], [], [], [3]]
    assert step(5, {}) == []  # the cells logged at 1 fall due, and keep their entries
    assert step(7, {}) == [(0, WEB.id, 1), (0, IMGREC.id, 1)]


def test_fc_due_cell_retired_by_eviction_destroys_nothing():
    fc, states, step = _fc_node(350.0, ttl=3)
    assert step(1, {(0, WEB.id): 1}) == []
    assert step(2, {(0, CHECKOUT.id): 1}) == []  # evicts the WEB container logged at 1
    assert fc._due[4] == [(0, WEB.id)]
    assert step(4, {}) == []
    assert 4 not in fc._due
    assert step(5, {}) == [(0, CHECKOUT.id, 1)]
    assert states[0].cache == [0, 0, 0, 0]


def test_fc_ttl_zero_registers_nothing():
    fc, states, step = _fc_node(4000.0, ttl=0)
    assert step(1, {(0, WEB.id): 2}) == [(0, WEB.id, 2)]
    assert step(2, {(0, WEB.id): 1, (0, IMGREC.id): 1}) == [(0, WEB.id, 1), (0, IMGREC.id, 1)]
    assert fc._due == {}
    assert states[0].cache == [0, 0, 0, 0]


def test_fc_ttl_at_horizon_destroys_nothing():
    horizon = 5
    _, states, step = _fc_node(4000.0, ttl=horizon)
    for t in range(1, horizon + 1):
        assert step(t, {(0, WEB.id): t}) == []  # every cached one hit, one more created
    assert states[0].cache == [horizon, 0, 0, 0]


def test_nocache_flushes_cache():
    policy = FlushingNoCache(n_types=4)
    state = _state(cache={WEB.id: 2, CHECKOUT.id: 1}, freq={WEB.id: 2, CHECKOUT.id: 1})
    decision = IntervalDecision(interval=1, created={(0, WEB.id): 2, (0, CHECKOUT.id): 1})
    assert policy.end_of_interval([state], 1, decision) == [(0, WEB.id, 2), (0, CHECKOUT.id, 1)]


def _web_stats(state):
    return state.freq[WEB.id], state.last_used[WEB.id]


def test_on_invocation_statistics():
    # the router keeps the statistics: each request served adds one to its
    # serving node's freq, and last_used takes the interval of the last one
    ctx = RoutingContext(make_topology([4000.0, 4000.0], comm=[[0, 1], [1, 0]]), DEFAULT_CATALOG, CostParams(alpha=0.01))
    policy = PCache(n_types=4)
    a, b = states = [NodeState(v, 4) for v in range(2)]
    route(states, ctx, policy, 4, {(0, WEB.id): 1})  # created
    assert _web_stats(a) == (1, 4)
    route(states, ctx, policy, 4, {(0, WEB.id): 1})  # created: the first is busy
    assert _web_stats(a) == (2, 4)
    interval_running_cost(states, ctx)
    assert route(states, ctx, policy, 6, {(0, WEB.id): 1}).local_served == {(0, WEB.id): 1}  # a hit
    assert _web_stats(a) == (3, 6)
    # b's request is offloaded to a's last idle container: a's statistics move
    assert route(states, ctx, policy, 5, {(1, WEB.id): 1}).offloaded == {(1, 0, WEB.id): 1}
    assert _web_stats(a) == (4, 5) and _web_stats(b) == (0, 0)
    assert route(states, ctx, policy, 9, {(0, WEB.id): 1}).created == {(0, WEB.id): 1}
    assert _web_stats(a) == (5, 9)


def test_global_stats_shared_across_nodes():
    catalog = (FunctionType(0, 100.0), FunctionType(1, 100.0))
    ctx = RoutingContext(make_topology([4000.0, 4000.0], comm=[[0, 1], [1, 0]]), catalog, CostParams(alpha=0.01))
    policy = PCache(n_types=2, global_stats=True)
    a, b = states = [NodeState(0, 2), NodeState(1, 2)]
    route(states, ctx, policy, 2, {(0, 0): 1})
    route(states, ctx, policy, 5, {(1, 0): 1, (1, 1): 1})  # a's container is busy: b creates
    assert policy._stats(a, states) == policy._stats(b, states) == ([2, 1], [5, 5])
    assert a.freq == [1, 0] and b.freq == [1, 1]
    interval_running_cost(states, ctx)
    # node b caches both types; with global stats type 0 is busier, so under
    # equal sizes type 1 is the likelier victim
    assert b.cache == [1, 1]
    freq, last = policy._stats(b, states)
    dist = pcache_distribution(b, catalog, freq=freq, last_used=last)
    assert dist.probs[1] > dist.probs[0]
    # an offload from a to b's idle container counts in the global statistics too
    assert route(states, ctx, policy, 6, {(0, 1): 1}).offloaded == {(0, 1, 1): 1}
    assert policy._stats(a, states) == ([2, 2], [5, 6])
    assert a.freq == [1, 0] and b.freq == [1, 2] and b.last_used == [5, 6]


def test_make_policy_names():
    for name in ("pcache", "lru", "fc", "nocache"):
        assert make_policy(name, 4).name == name
    with pytest.raises(ConfigError):
        make_policy("bogus", 4)


def test_eviction_distribution_validation():
    with pytest.raises(ContractError):
        EvictionDistribution({})
    with pytest.raises(ContractError):
        EvictionDistribution({0: 0.4, 1: 0.4})
    with pytest.raises(ContractError):
        EvictionDistribution({0: 1.5, 1: -0.5})
