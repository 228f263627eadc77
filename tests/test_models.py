import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tvgraph.models import (
    Configuration,
    ErParams,
    MarkovParams,
    UnderlyingGraph,
    alternating_average_latency,
    alternating_cut_latency,
    alternating_soa_latency,
    alternating_tgs,
    config_stats,
    edge_update,
    format_model_spec,
    parse_model_spec,
    sample_er_tgs,
    sample_markov_tgs,
    sample_slots,
    shortest_path,
    slot_states,
    stationary_distribution,
)
from tvgraph import simulate
from tvgraph.simulate import EmpiricalPmf, replay_cut, replay_soa, simulate_soa
from tvgraph.temporal import dump_tgs, GraphletSequence


# --- underlying graphs ---------------------------------------------------------


def test_line_and_complete_shapes():
    line = UnderlyingGraph.line(5)
    assert line.nodes == (0, 1, 2, 3, 4)
    assert line.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    k4 = UnderlyingGraph.complete(4)
    assert len(k4.edges) == 6
    assert k4.neighbor_map()[0] == (1, 2, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_builders_equal_the_validating_constructor(n):
    line = UnderlyingGraph(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)), "line")
    assert UnderlyingGraph.line(n) == line
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    assert UnderlyingGraph.complete(n) == UnderlyingGraph(tuple(range(n)), pairs, "complete")


@pytest.mark.parametrize("build", [UnderlyingGraph.line, UnderlyingGraph.complete])
@pytest.mark.parametrize("edges_first", [True, False])
def test_builders_make_edge_tuples_once_on_first_read(build, edges_first):
    gu = build(6)
    assert "edges" not in vars(gu)
    if not edges_first:
        gu._ends.tolist()
        assert "edges" not in vars(gu)  # reading the index arrays builds no tuples
    edges = gu.edges
    assert vars(gu)["edges"] is edges and gu.edges is edges  # built once, on the first read
    assert gu._ends.tolist() == [[u for u, _ in edges], [v for _, v in edges]]
    assert hash(gu) == hash(UnderlyingGraph(gu.nodes, gu.edges, gu.name))


def test_explicit_edges_give_positions_of_their_normalized_ends():
    gu = UnderlyingGraph(("c", "a", "b"), (("b", "a"), ("c", "b")))
    assert gu._ends.tolist() == [[1, 2], [2, 0]]
    assert [(gu.nodes[i], gu.nodes[j]) for i, j in gu._ends.T.tolist()] == [("a", "b"), ("b", "c")]
    assert UnderlyingGraph((0,), ())._ends.shape == (2, 0)


def test_complete_graph_fills_its_int32_ends_in_place():
    # K2000 keeps 1,999,000 pairs of int32 ends, 15 MiB; building them from
    # np.triu_indices' two int64 arrays peaked at 46 MiB
    tracemalloc.start()
    try:
        gu = UnderlyingGraph.complete(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gu._ends.dtype == np.int32
    assert peak < 32 * 2**20
    assert np.array_equal(gu._ends[:, -3:], [[1997, 1997, 1998], [1998, 1999, 1999]])


def test_complete_graph_sampling_builds_no_candidate_tuples():
    # 1,999,000 candidate pairs as tuples take about 140 MiB; one slot's
    # uniforms take 15 MiB, and the index arrays 15 MiB
    tracemalloc.start()
    try:
        tgs = sample_er_tgs(UnderlyingGraph.complete(2000), ErParams(1e-3), 1, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 1_800 < len(tgs[0].edges) < 2_200
    assert peak < 64 * 2**20


def test_underlying_graph_validation():
    with pytest.raises(ValueError):
        UnderlyingGraph((0, 1), ((0, 0),))
    with pytest.raises(ValueError):
        UnderlyingGraph((0, 1), ((0, 2),))
    with pytest.raises(ValueError):
        UnderlyingGraph((0, 1), ((0, 1), (1, 0)))


def test_shortest_path_deterministic():
    gu = UnderlyingGraph((0, 1, 2, 3), ((0, 1), (0, 2), (1, 3), (2, 3)))
    assert shortest_path(gu, 0, 3) == [0, 1, 3]
    assert shortest_path(UnderlyingGraph((0, 1), ()), 0, 1) is None


# --- parameter objects ----------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ErParams(1.5)
    with pytest.raises(ValueError):
        MarkovParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        MarkovParams(0.0, 0.0)  # no stationary default
    assert MarkovParams(0.0, 0.0, p0=0.3).p0 == 0.3


def test_markov_p0_defaults_to_stationary():
    params = MarkovParams(0.5, 0.05)
    assert params.p0 == pytest.approx(10 / 11, abs=1e-15)
    assert params.is_stationary_start()
    assert not MarkovParams(0.5, 0.05, p0=0.005).is_stationary_start()


def test_stationary_distribution():
    pi_on, pi_off = stationary_distribution(MarkovParams(0.5, 0.05))
    assert pi_on == pytest.approx(10 / 11, abs=1e-15)
    assert pi_off == pytest.approx(1 / 11, abs=1e-15)
    assert pi_on + pi_off == pytest.approx(1.0, abs=1e-15)
    # cross-check by chain power iteration
    mat = np.array([[1 - 0.05, 0.05], [0.5, 0.5]])  # states (ON, OFF)
    dist = np.array([1.0, 0.0])
    for _ in range(200):
        dist = dist @ mat
    assert dist[0] == pytest.approx(pi_on, abs=1e-12)
    assert stationary_distribution(MarkovParams(0.5, 0.5)) == (0.5, 0.5)
    assert stationary_distribution(MarkovParams(1.0, 0.0, p0=1.0)) == (1.0, 0.0)
    with pytest.raises(ValueError):
        stationary_distribution(MarkovParams(0.0, 0.0, p0=0.5))


# --- sampling --------------------------------------------------------------------


def test_sample_er_boundaries():
    gu = UnderlyingGraph.line(4)
    always = sample_er_tgs(gu, ErParams(1.0), 3, seed=0)
    assert all(g.edges == frozenset(gu.edges) for g in always)
    never = sample_er_tgs(gu, ErParams(0.0), 3, seed=0)
    assert all(g.edges == frozenset() for g in never)


def test_sample_er_determinism():
    gu = UnderlyingGraph.line(6)
    a = sample_er_tgs(gu, ErParams(0.3), 50, seed=42)
    b = sample_er_tgs(gu, ErParams(0.3), 50, seed=42)
    c = sample_er_tgs(gu, ErParams(0.3), 50, seed=43)
    assert a == b
    assert a != c


def test_sample_er_edge_frequency():
    gu = UnderlyingGraph.line(10)
    horizon = 100_000
    tgs = sample_er_tgs(gu, ErParams(0.25), horizon, seed=5)
    counts = {e: 0 for e in gu.edges}
    for g in tgs:
        for e in g.edges:
            counts[e] += 1
    for e, c in counts.items():
        assert abs(c / horizon - 0.25) < 0.01, (e, c / horizon)


def test_sample_markov_alternates_at_p_q_one():
    gu = UnderlyingGraph.line(5)
    tgs = sample_markov_tgs(gu, MarkovParams(1.0, 1.0, p0=1.0), 6, seed=0)
    for g in tgs:
        expect = frozenset(gu.edges) if g.time % 2 == 1 else frozenset()
        assert g.edges == expect


def test_sample_markov_absorbing_on():
    gu = UnderlyingGraph.line(4)
    tgs = sample_markov_tgs(gu, MarkovParams(0.3, 0.0, p0=1.0), 10, seed=1)
    assert all(g.edges == frozenset(gu.edges) for g in tgs)


def test_sample_markov_reduces_to_independent_when_p_plus_q_is_one():
    gu = UnderlyingGraph.line(2)
    horizon = 100_000
    tgs = sample_markov_tgs(gu, MarkovParams(0.3, 0.7, p0=0.3), horizon, seed=9)
    states = np.array([bool(g.edges) for g in tgs], dtype=float)
    freq = states.mean()
    assert abs(freq - 0.3) < 0.01
    # lag-1 autocorrelation vanishes for an independent process
    x, y = states[:-1], states[1:]
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.01


def test_sample_markov_determinism():
    gu = UnderlyingGraph.complete(4)
    a = sample_markov_tgs(gu, MarkovParams(0.4, 0.2), 30, seed=3)
    b = sample_markov_tgs(gu, MarkovParams(0.4, 0.2), 30, seed=3)
    assert a == b


# node ids whose positions in `nodes` are not their order, so sampling
# must gather ids from positions
STRING_IDS = UnderlyingGraph(
    ("d", "b", "a", "c", "e"),
    (("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("a", "d"), ("b", "e"), ("c", "e")),
)


@pytest.mark.parametrize("params, gu", [
    pytest.param(ErParams(0.3), UnderlyingGraph.complete(5), id="params0"),
    pytest.param(MarkovParams(0.2, 0.4, p0=0.9), UnderlyingGraph.complete(5), id="params1"),
    pytest.param(ErParams(0.3), STRING_IDS, id="params0-strings"),
    pytest.param(MarkovParams(0.2, 0.4, p0=0.9), STRING_IDS, id="params1-strings"),
])
@pytest.mark.parametrize("horizon", [1, 2, 3, 7, 8, 100])
def test_sample_slots_equal_one_draw_per_slot(params, gu, horizon):
    # chunked draws read the stream a per-slot draw reads, slot for slot
    edges = gu.edges
    want, states = [], None
    rng = np.random.default_rng(5)
    for _ in range(horizon):
        states = edge_update(params, states, rng.random(len(edges)))
        want.append([edges[i] for i in states.nonzero()[0]])
    slots = list(sample_slots(gu, params, horizon, np.random.default_rng(5)))
    assert [g.time for g in slots] == list(range(1, horizon + 1))
    assert [g.edges for g in slots] == [frozenset(up) for up in want]


# integer ids 0..n-1 whose positions are not their order, with edges listed
# out of (u, v) order: sampled slots must sort the ids of their index arrays
PERMUTED_IDS = UnderlyingGraph(
    (3, 1, 0, 2, 4),
    ((1, 0), (1, 3), (0, 2), (2, 3), (0, 3), (1, 4), (2, 4)),
)


@pytest.mark.parametrize("gu", [UnderlyingGraph.complete(5), STRING_IDS, PERMUTED_IDS],
                         ids=["complete", "strings", "permuted"])
@pytest.mark.parametrize("params", [ErParams(0.3), MarkovParams(0.2, 0.4, p0=0.9)],
                         ids=["er", "mc"])
def test_sampled_sequences_hold_the_slots_sample_slots_draws(gu, params):
    sampler = sample_er_tgs if isinstance(params, ErParams) else sample_markov_tgs
    tgs = sampler(gu, params, 9, 5)
    for g in tgs:  # whatever the ids: sorted positions into `_ids`, no tuples until read
        assert "edges" not in vars(g)
        assert g._ids == tuple(sorted(gu.nodes)) and g._ends.dtype == np.int32
        pairs = list(zip(*g._ends.tolist()))
        assert pairs == sorted(set(pairs)) and all(u < v for u, v in pairs)
    assert list(tgs) == list(sample_slots(gu, params, 9, np.random.default_rng(5)))


def tuple_sample_slots(gu, params, horizon, rng):
    """The tuple-gathering sampler that yielded each slot's up edges as a
    list of (min, max) id tuples in `gu.edges` order, kept as the reference
    for the one sampler: states from `slot_states` on the one stream `rng`
    in chunks of 1, 2, 4, ... slots, and each chunk's up edges gathered at
    once from an object array of the ids."""
    ends = gu._ends
    ids = np.fromiter(gu.nodes, dtype=object, count=len(gu.nodes))
    states, t = None, 0
    while t < horizon:
        chunk = slot_states(params, states, [rng], min(t + 1, horizon - t), ends.shape[1])
        states = chunk[-1]
        t += len(chunk)
        cells = np.flatnonzero(chunk)
        items = list(zip(*ids[ends[:, cells % ends.shape[1]]].tolist()))
        bounds = np.searchsorted(cells, ends.shape[1] * np.arange(len(chunk) + 1)).tolist()
        for start, stop in zip(bounds, bounds[1:]):
            yield items[start:stop]


def tuple_walk_latency(slots, source, dest, next_hop):
    """Store-or-advance latency (-1 undelivered) of a policy over per-slot
    edge lists, as the walk over the tuple sampler read them."""
    cur = source
    for t, edges in enumerate(slots, start=1):
        move = next_hop(cur, frozenset(v if u == cur else u for u, v in edges if cur in (u, v)))
        if move is not None:
            cur = move
        if cur == dest:
            return t
    return -1


def climb(u, on_neighbors):
    # to the largest up neighbor above u, else wait
    return max((v for v in on_neighbors if v > u), default=None)


@pytest.mark.parametrize("gu", [UnderlyingGraph.complete(6), STRING_IDS, PERMUTED_IDS],
                         ids=["complete", "strings", "permuted"])
@pytest.mark.parametrize("params", [ErParams(0.3), MarkovParams(0.2, 0.4, p0=0.9)],
                         ids=["er", "mc"])
def test_callable_policy_histograms_match_the_tuple_sampler(gu, params):
    # trial i walks the slots SeedSequence(seed, spawn_key=(i,)) draws
    source, dest = min(gu.nodes), max(gu.nodes)
    horizon, trials, seed = 5, 300, 12
    emp = simulate_soa(params, gu, source, dest, horizon=horizon, trials=trials, seed=seed,
                       next_hop=climb)
    lats = [
        tuple_walk_latency(
            tuple_sample_slots(gu, params, horizon, np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i,)))),
            source, dest, climb,
        )
        for i in range(trials)
    ]
    want = EmpiricalPmf.from_latencies(lats, trials)
    assert 0 < want.undelivered < trials
    assert np.array_equal(emp.counts, want.counts) and emp.undelivered == want.undelivered


def test_replays_build_no_edge_sets(monkeypatch):
    # every replay reads a slot's index arrays, never its `edges` set
    gu = UnderlyingGraph.complete(5)
    tgs = sample_er_tgs(gu, ErParams(0.3), 12, 4)
    replay_soa(tgs, 0, 4)
    replay_soa(tgs, 0, 4, next_hop=climb)
    replay_cut(tgs, 0, 4)
    walked = []

    def recording(*args):
        for g in sample_slots(*args):
            walked.append(g)
            yield g

    monkeypatch.setattr(simulate, "sample_slots", recording)
    simulate_soa(ErParams(0.3), gu, 0, 4, horizon=12, trials=20, seed=3, next_hop=climb)
    assert walked
    for g in (*tgs, *walked):
        assert "edges" not in vars(g)


@pytest.mark.parametrize("gu", [
    UnderlyingGraph.complete(5), UnderlyingGraph.line(4), STRING_IDS, PERMUTED_IDS,
    UnderlyingGraph((0, 1, 2), ((1, 2), (0, 2))),
    # unsorted and reversed edges: `_ends` out of (u, v) order takes the full sort
    UnderlyingGraph(tuple(range(6)), ((4, 1), (0, 5), (2, 3), (1, 0), (5, 3), (2, 0), (3, 1))),
])
def test_neighbor_map_lists_neighbors_by_id(gu):
    want = {v: [] for v in gu.nodes}
    for u, v in gu.edges:
        want[u].append(v)
        want[v].append(u)
    assert gu.neighbor_map() == {v: tuple(sorted(ws)) for v, ws in want.items()}
    assert list(gu.neighbor_map()) == list(gu.nodes)


# --- alternating special case ----------------------------------------------------


def test_config_stats_known_values():
    assert config_stats(Configuration("001110011001")) == (5, 0)
    assert config_stats(Configuration("1111")) == (0, 1)
    assert config_stats(Configuration("010101010")) == (8, 0)


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration("")
    with pytest.raises(ValueError):
        Configuration("012")


def test_alternating_latency_known_configs():
    assert alternating_cut_latency(Configuration("1" * 9)) == 0
    assert alternating_cut_latency(Configuration("010101010")) == 9  # n-1 for n=10
    assert alternating_cut_latency(Configuration("001110011001")) == 6
    n = 10
    assert alternating_soa_latency(Configuration("101010101")) == n - 1
    assert alternating_soa_latency(Configuration("0" * 9)) == 2 * (n - 1)


def test_alternating_formulas_match_deterministic_replay():
    # every start configuration up to 7 nodes, replayed on the flip sequence
    for width in range(1, 7):
        for bits in itertools.product("01", repeat=width):
            config = Configuration("".join(bits))
            tgs = alternating_tgs(config, horizon=2 * (width + 1))
            assert replay_cut(tgs, 0, width).latency == alternating_cut_latency(config)
            assert replay_soa(tgs, 0, width).latency == alternating_soa_latency(config)


def test_alternating_metric_sum_identity():
    # (k+1-b) + (2(n-1)-k-b) = 2n - 1 - 2b for every configuration
    for width in range(1, 9):
        for bits in itertools.product("01", repeat=width):
            config = Configuration("".join(bits))
            n = config.n
            _, b = config_stats(config)
            total = alternating_cut_latency(config) + alternating_soa_latency(config)
            assert total == 2 * n - 1 - 2 * b


def test_alternating_average_closed_forms():
    assert alternating_average_latency(10, "cut") == Fraction(9, 2)
    assert alternating_average_latency(10, "soa") == Fraction(27, 2)
    assert alternating_average_latency(2, "cut") == Fraction(1, 2)
    assert alternating_average_latency(2, "soa") == Fraction(3, 2)


def test_alternating_average_matches_replay_mean_exactly():
    for n in (2, 4, 6):
        width = n - 1
        for metric, fn in (("cut", replay_cut), ("soa", replay_soa)):
            total = 0
            for bits in itertools.product("01", repeat=width):
                config = Configuration("".join(bits))
                tgs = alternating_tgs(config, horizon=2 * n)
                total += fn(tgs, 0, width).latency
            assert alternating_average_latency(n, metric) == Fraction(total, 2 ** width)


def test_alternating_average_validation():
    with pytest.raises(ValueError):
        alternating_average_latency(1, "cut")
    with pytest.raises(ValueError):
        alternating_average_latency(25, "cut")
    with pytest.raises(ValueError):
        alternating_average_latency(5, "nope")


# --- model spec strings ------------------------------------------------------------


def test_model_spec_round_trip():
    spec = parse_model_spec("er p=0.25 gu=line n=10")
    assert spec.kind == "er" and spec.params.p == 0.25
    assert spec.gu.name == "line" and len(spec.gu.nodes) == 10
    assert parse_model_spec(format_model_spec(spec)) == spec

    spec = parse_model_spec("mc p=0.5 q=0.05 p0=stationary gu=complete n=20")
    assert spec.params.p0 == pytest.approx(10 / 11)
    assert parse_model_spec(format_model_spec(spec)) == spec

    spec = parse_model_spec("mc p=0.5 q=0.05 p0=0.005 gu=complete n=20")
    assert spec.params.p0 == 0.005
    assert "p0=0.005" in format_model_spec(spec)


def test_model_spec_from_file(tmp_path):
    path = tmp_path / "gu.tgs"
    dump_tgs(
        GraphletSequence.from_slot_edges(range(3), [[(0, 1), (1, 2)]]), path
    )
    spec = parse_model_spec(f"er p=0.5 gu=file:{path}")
    assert spec.gu.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "er gu=line n=5",
        "er p=0.5",
        "er p=0.5 gu=ring n=5",
        "er p=0.5 gu=line",
        "er p=0.5 p=0.5 gu=line n=3",
        "mc p=0.5 gu=line n=5",
        "er p=0.5 q=0.5 gu=line n=5",
        "xx p=0.5 gu=line n=5",
    ],
)
def test_model_spec_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_model_spec(text)
