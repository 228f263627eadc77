"""Property-based differential tests of the METT solver and the adaptive replay."""

import heapq
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.models import ErParams, UnderlyingGraph, edge_step  # noqa: E402
from tvgraph.routing import compute_mett, mett_value_iteration_oracle, prefix_cost  # noqa: E402
from tvgraph.simulate import _adaptive_replay_block, _block_streams, simulate_soa  # noqa: E402

INF = math.inf

churn = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0))


@st.composite
def small_graphs(draw, max_nodes=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return UnderlyingGraph(tuple(range(n)), tuple(e for e, k in zip(pairs, keep) if k))


def seeded_graph(n, density, seed):
    """G(n, density) drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    pairs = itertools.combinations(range(n), 2)
    return UnderlyingGraph(tuple(range(n)), tuple(e for e in pairs if rng.random() < density))


densities = st.sampled_from([0.05, 0.1, 0.3, 0.6, 1.0])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(deadline=None, max_examples=60)
@given(gu=small_graphs(), p=churn, data=st.data())
def test_mett_matches_value_iteration(gu, p, data):
    dest = data.draw(st.sampled_from(gu.nodes))
    table = compute_mett(gu, p, dest)
    oracle = mett_value_iteration_oracle(gu, p, dest)
    for v in gu.nodes:
        if math.isinf(oracle.mett[v]):
            assert math.isinf(table.mett[v])
        else:
            assert table.mett[v] == pytest.approx(oracle.mett[v], rel=0, abs=1e-9)


@settings(deadline=None, max_examples=80)
@given(n=st.integers(min_value=2, max_value=60), density=densities, seed=seeds, p=churn)
# a node that settles after a neighbor of equal METT with a larger id
@example(n=43, density=0.6, seed=177, p=0.5)
@example(n=60, density=0.05, seed=75, p=0.5)
def test_policy_is_sorted_prefix_with_the_node_cost(n, density, seed, p):
    gu = seeded_graph(n, density, seed)
    table = compute_mett(gu, p, 0)
    for u in gu.nodes:
        policy = table.policy[u]
        if u == 0 or math.isinf(table.mett[u]):
            assert policy == ()
            continue
        keys = [(table.mett[v], v) for v in policy]
        assert keys == sorted(keys)
        cost, _ = prefix_cost(p, [m for m, _ in keys])
        assert cost == pytest.approx(table.mett[u], rel=0, abs=1e-9)


def from_scratch_mett(gu, p, dest):
    """Label setting that re-sorts a node's settled neighbors and reruns
    prefix_cost over them on every relaxation: O(V E log V), the reference
    for the incremental update."""
    nbr = gu.neighbor_map()
    mett = {v: INF for v in gu.nodes}
    mett[dest] = 0.0
    settled = set()
    heap = [(0.0, dest)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled or d > mett[u]:
            continue
        settled.add(u)
        for v in nbr[u]:
            if v in settled:
                continue
            cost, _ = prefix_cost(p, sorted(mett[w] for w in nbr[v] if w in settled))
            if cost < mett[v]:
                mett[v] = cost
                heapq.heappush(heap, (cost, v))
    return mett


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=2, max_value=25), density=densities, seed=seeds, p=churn)
def test_incremental_mett_matches_from_scratch_relaxation(n, density, seed, p):
    gu = seeded_graph(n, density, seed)
    table = compute_mett(gu, p, 0)
    want = from_scratch_mett(gu, p, 0)
    for v in gu.nodes:
        if math.isinf(want[v]):
            assert math.isinf(table.mett[v])
        else:
            assert table.mett[v] == pytest.approx(want[v], rel=1e-12, abs=0)


# --- adaptive replay -----------------------------------------------------------------


def scan_every_node_replay(accept_idx, n_ids, source_idx, dest_idx, model, horizon, rng, size):
    """Adaptive replay that visits every node index in every slot, occupied or
    not: the reference for the replay that visits only occupied nodes."""
    pos = np.full(size, source_idx, dtype=np.int64)
    orig = np.arange(size)
    latency = np.full(size, -1, dtype=np.int64)
    t = 0
    while orig.size and t < horizon:
        t += 1
        new_pos = pos.copy()
        for u in range(n_ids):
            cand = accept_idx[u]
            if cand is None or not cand.size:
                continue
            rows = np.nonzero(pos == u)[0]
            if not rows.size:
                continue
            on = edge_step(model, None, rng, (rows.size, cand.size))
            any_on = on.any(axis=1)
            first = on.argmax(axis=1)
            new_pos[rows[any_on]] = cand[first[any_on]]
        pos = new_pos
        done = pos == dest_idx
        latency[orig[done]] = t
        keep = ~done
        orig, pos = orig[keep], pos[keep]
    return latency


def test_occupied_node_replay_draws_like_the_full_scan():
    n, p, trials, seed, horizon = 200, 0.3, 3000, 41, 400
    graph_seeds = itertools.count(40)
    while True:  # a connected graph; a message occupies few of its nodes at a time
        gu = seeded_graph(n, 0.03, next(graph_seeds))
        table = compute_mett(gu, p, 0)
        if not any(math.isinf(m) for m in table.mett.values()):
            break
    source = max(gu.nodes, key=lambda v: table.mett[v])
    accept_idx = [np.array(table.policy[u], dtype=np.int64) for u in range(n)]
    model = ErParams(p)
    want = np.concatenate([
        scan_every_node_replay(accept_idx, n, source, 0, model, horizon, stream, size)
        for stream, size in _block_streams(seed, trials)
    ])
    got = np.concatenate([
        _adaptive_replay_block(accept_idx, n, source, 0, model, horizon, stream, size)
        for stream, size in _block_streams(seed, trials)
    ])
    assert np.array_equal(got, want)
    emp = simulate_soa(model, gu, source, 0, horizon=horizon, trials=trials, seed=seed,
                       next_hop=table.policy)
    assert emp.undelivered == int((want < 0).sum())
    assert np.array_equal(emp.counts, np.bincount(want[want >= 0]))
