"""Property-based differential tests of the METT solver and the adaptive replay."""

import heapq
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_simulate import assert_same_law  # noqa: E402
from tvgraph.models import ErParams, UnderlyingGraph, edge_update  # noqa: E402
from tvgraph.routing import (  # noqa: E402
    MettTable, compute_mett, mett_value_iteration_oracle, prefix_cost,
)
from tvgraph.simulate import (  # noqa: E402
    _acceptance_arrays, _adaptive_block, _block_streams, _candidate_hops, _clamped_log,
    _run_blocks, default_horizon, simulate_soa,
)
from tvgraph.temporal import Graphlet  # noqa: E402

INF = math.inf

churn = st.one_of(st.just(1.0), st.floats(min_value=1e-4, max_value=1.0))


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


def reference_compute_mett(gu, p, dest):
    """The label-setting pass over id-keyed dicts, a settled set and
    `neighbor_map`, which compute_mett replaced with lists over positions:
    the reference for its METT bits, policies and settle order."""
    nbr = gu.neighbor_map()
    mett = {v: INF for v in gu.nodes}
    mett[dest] = 0.0
    sums = {}  # v -> (weight of v's next candidate, prob_sum, weighted), as in prefix_cost
    accepted = {v: [] for v in gu.nodes}
    settled = set()
    order = []
    heap = [(0.0, dest)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        order.append(u)
        for v in nbr[u]:
            if v in settled or not d < mett[v]:
                continue
            weight, prob_sum, weighted = sums.get(v, (p, 0.0, 0.0))
            prob_sum += weight
            weighted += weight * d
            cost = (1.0 + weighted) / prob_sum
            if cost < mett[v]:
                mett[v] = cost
                sums[v] = (weight * (1.0 - p), prob_sum, weighted)
                accepted[v].append(u)
                heapq.heappush(heap, (cost, v))
    policy = {u: tuple(sorted(accepted[u], key=lambda v: (mett[v], v))) for u in gu.nodes}
    return MettTable(dest=dest, p=p, mett=mett, policy=policy, order=tuple(order))


def assert_same_table(got, want):
    assert got == want  # dest, p, METTs, policy tuples and order
    assert {v: m.hex() for v, m in got.mett.items()} == {v: m.hex() for v, m in want.mett.items()}


@st.composite
def relabelled_graphs(draw, max_nodes=9):
    """Graphs whose ids are 0..n-1 in order, a permutation of other ints
    given to the validating constructor in that order, or strings; some
    are complete (every METT ties at 1/p), some keep isolated nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    complete = draw(st.booleans())
    keep = [True] * len(pairs) if complete else draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    kind = draw(st.sampled_from(["builder", "sorted", "permuted", "str"]))
    if kind == "builder":
        return UnderlyingGraph.complete(n) if complete else UnderlyingGraph.from_graphlet(
            Graphlet(1, range(n), [e for e, k in zip(pairs, keep) if k]))
    if kind == "sorted":
        ids = list(range(n))
    elif kind == "permuted":
        ids = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    else:
        ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=n, max_size=n,
                            unique=True))
    edges = [(ids[u], ids[v]) if draw(st.booleans()) else (ids[v], ids[u])
             for (u, v), k in zip(pairs, keep) if k]
    return UnderlyingGraph(tuple(ids), tuple(draw(st.permutations(edges))))


@settings(deadline=None, max_examples=300)
@given(gu=relabelled_graphs(), p=st.sampled_from([1.0, 0.5, 0.3, 0.1, 1e-4]), data=st.data())
def test_mett_equals_the_reference_solver(gu, p, data):
    dest = data.draw(st.sampled_from(gu.nodes))
    assert_same_table(compute_mett(gu, p, dest), reference_compute_mett(gu, p, dest))


@pytest.mark.parametrize("n, density, seed, p", [
    (43, 0.6, 177, 0.5),  # a node settles below the METT of a neighbor settled before it
    (60, 0.05, 75, 0.5),
    (200, 0.03, 40, 0.3),
    (150, 1.0, 1, 0.1),
    (80, 0.2, 3, 1e-4),
])
def test_mett_equals_the_reference_solver_on_seeded_graphs(n, density, seed, p):
    gu = seeded_graph(n, density, seed)
    assert_same_table(compute_mett(gu, p, 0), reference_compute_mett(gu, p, 0))


def test_mett_reads_no_neighbor_map(monkeypatch):
    def refuse(self):
        raise AssertionError("compute_mett read neighbor_map")

    monkeypatch.setattr(UnderlyingGraph, "neighbor_map", refuse)
    for gu in (UnderlyingGraph.complete(6), UnderlyingGraph((2, 0, 1), ((0, 2), (1, 2)))):
        compute_mett(gu, 0.5, 0)


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


def per_slot_adaptive_block(accept_idx, n_ids, source_idx, dest_idx, model, horizon, rng, size):
    """Reference adaptive replay, one step per slot: each slot it draws every
    listed edge of every occupied node (visited in index order) and moves
    each message to the first up one, or leaves it waiting.  accept_idx[u]
    holds node u's acceptance list as an index array, or None."""
    pos = np.full(size, source_idx, dtype=np.int64)
    orig = np.arange(size)
    latency = np.full(size, -1, dtype=np.int64)
    t = 0
    while orig.size and t < horizon:
        t += 1
        new_pos = pos.copy()
        for u in np.bincount(pos, minlength=n_ids).nonzero()[0]:
            cand = accept_idx[u]
            if cand is None or not cand.size:
                continue
            rows = np.nonzero(pos == u)[0]
            on = edge_update(model, None, rng.random((rows.size, cand.size)))
            any_on = on.any(axis=1)
            first = on.argmax(axis=1)
            new_pos[rows[any_on]] = cand[first[any_on]]
        pos = new_pos
        done = pos == dest_idx
        latency[orig[done]] = t
        keep = ~done
        orig, pos = orig[keep], pos[keep]
    return latency


def scan_every_node_replay(accept_idx, n_ids, source_idx, dest_idx, model, horizon, rng, size):
    """Adaptive replay that visits every node index in every slot, occupied or
    not: the reference for the per-slot replay that visits only occupied nodes."""
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
            on = edge_update(model, None, rng.random((rows.size, cand.size)))
            any_on = on.any(axis=1)
            first = on.argmax(axis=1)
            new_pos[rows[any_on]] = cand[first[any_on]]
        pos = new_pos
        done = pos == dest_idx
        latency[orig[done]] = t
        keep = ~done
        orig, pos = orig[keep], pos[keep]
    return latency


def g200_case():
    """A connected G(200, 0.03) graph with its METT table at p = 0.3 and the
    source of largest METT; a message occupies few of its nodes at a time."""
    graph_seeds = itertools.count(40)
    while True:
        gu = seeded_graph(200, 0.03, next(graph_seeds))
        table = compute_mett(gu, 0.3, 0)
        if not any(math.isinf(m) for m in table.mett.values()):
            return gu, table, max(gu.nodes, key=lambda v: table.mett[v])


def test_occupied_node_replay_draws_like_the_full_scan():
    n, p, trials, seed, horizon = 200, 0.3, 3000, 41, 400
    gu, table, source = g200_case()
    accept_idx = [np.array(table.policy[u], dtype=np.int64) for u in range(n)]
    model = ErParams(p)
    want, got = (
        np.concatenate([
            replay(accept_idx, n, source, 0, model, horizon, stream, size)
            for stream, size in _block_streams(seed, trials)
        ])
        for replay in (scan_every_node_replay, per_slot_adaptive_block)
    )
    assert np.array_equal(got, want)


def per_slot_replay(model, gu, source, dest, next_hop, horizon, trials, seed):
    """simulate_soa's adaptive replay of `next_hop`, run by the per-slot reference."""
    index = {v: i for i, v in enumerate(gu.nodes)}
    accept_idx = [None] * len(index)
    for u, cand in next_hop.items():
        accept_idx[index[u]] = np.array([index[v] for v in cand], dtype=np.int64)
    if horizon is None:
        horizon = default_horizon(len(gu.nodes), model.p)
    return _run_blocks(seed, trials, per_slot_adaptive_block,
                       accept_idx, len(index), index[source], index[dest], model, horizon)


def mett_case(gu, p, dest):
    """(model, gu, source, dest, next_hop, horizon) of the METT policy from the
    source of largest finite METT, with the default horizon."""
    table = compute_mett(gu, p, dest)
    source = max((v for v in gu.nodes if not math.isinf(table.mett[v])), key=table.mett.get)
    return ErParams(p), gu, source, dest, dict(table.policy), None


DIAMOND = UnderlyingGraph((0, 1, 2, 3), ((0, 1), (0, 2), (1, 3), (2, 3)))
LAW_CASES = {
    "g200": lambda: mett_case(g200_case()[0], 0.3, 0),
    "diamond": lambda: mett_case(DIAMOND, 0.5, 3),
    "k6-ties": lambda: mett_case(UnderlyingGraph.complete(6), 0.4, 0),  # every METT is 1/p
    "p-0.02": lambda: mett_case(seeded_graph(8, 0.5, 3), 0.02, 0),
    "two-cycle-capped": lambda: (
        ErParams(0.5), UnderlyingGraph.line(4), 0, 3, {0: (1,), 1: (0, 2), 2: (3, 1)}, 12,
    ),
}


@pytest.mark.parametrize("case", LAW_CASES)
def test_event_replay_matches_the_per_slot_replay(case):
    # one uniform per move against every listed edge of every occupied node
    # per slot; fixed beforehand: KS and 5-standard-error bounds, each at a
    # false-alarm rate of about 1e-6, on undelivered counts as well
    model, gu, source, dest, next_hop, horizon = LAW_CASES[case]()
    trials = 20_000 if case == "g200" else 50_000
    got = simulate_soa(model, gu, source, dest, horizon=horizon, trials=trials, seed=51,
                       next_hop=next_hop)
    want = per_slot_replay(model, gu, source, dest, next_hop, horizon, trials, seed=52)
    assert_same_law(got, want)
    pooled = (got.undelivered + want.undelivered) / (2 * trials)
    gap = abs(got.undelivered - want.undelivered) / trials
    assert gap <= 5 * math.sqrt(pooled * (1 - pooled) * 2 / trials)
    if case == "two-cycle-capped":
        assert 0 < got.undelivered < trials


class CountingGenerator:
    """A numpy Generator stand-in that records the size of each `random` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def event_replay(gu, source, dest, next_hop, p, horizon, size, seed=0):
    """(latencies, sizes of the uniform draws) of one block of the event replay."""
    index = {v: i for i, v in enumerate(gu.nodes)}
    flat, start = _acceptance_arrays(gu, index, next_hop)
    rng = CountingGenerator(seed)
    latency = _adaptive_block(flat, start, index[source], index[dest], _clamped_log(1.0 - p),
                              horizon, rng, size)
    return latency, rng.sizes


@pytest.mark.parametrize("p, horizon", [(0.3, 400), (0.3, 6), (0.05, 30), (1.0, 400)])
def test_event_replay_draws_one_uniform_per_live_trial_and_move(p, horizon):
    gu, table, source = g200_case()
    latency, sizes = event_replay(gu, source, 0, table.policy, p, horizon, 2_000)
    assert sizes[0] == 2_000 and sizes == sorted(sizes, reverse=True) and sizes[-1] > 0
    # never more steps than the per-slot replay takes slots on these outcomes
    undelivered = latency < 0
    assert len(sizes) <= (horizon if undelivered.any() else latency.max())
    # and no trial more steps than slots
    assert sum(sizes) <= latency[~undelivered].sum() + horizon * undelivered.sum()
    # one move per hop on a line: every trial draws exactly once per hop
    line = UnderlyingGraph.line(7)
    policy = compute_mett(line, 0.5, 6).policy
    latency, sizes = event_replay(line, 0, 6, policy, p, 10**6, 500)
    assert sizes == [500] * 6 and (latency >= 6).all()


@settings(deadline=None, max_examples=40)
@given(gu=small_graphs(), data=st.data())
def test_event_replay_at_p_one_walks_the_first_entries(gu, data):
    # every listed edge is up, so each slot takes the first entry: METT
    # policies walk BFS distances, any other lists their first-entry walk
    dest, source = data.draw(st.sampled_from(gu.nodes)), data.draw(st.sampled_from(gu.nodes))
    hops = _candidate_hops(gu, dest)[gu.nodes.index(source)]
    if source != dest and hops > 0:
        emp = run_policy(gu, source, dest, compute_mett(gu, 1.0, dest).policy, 1.0, None)
        assert emp.nonzero_items() == [(hops, 50)]
    nbr = gu.neighbor_map()
    lists = {u: data.draw(st.permutations(nbr[u])) for u in gu.nodes}
    walk, u = 0, source
    while u != dest and lists[u] and walk <= 10:
        u, walk = lists[u][0], walk + 1
    if source != dest:
        emp = run_policy(gu, source, dest, lists, 1.0, 10)
        assert emp.nonzero_items() == ([(walk, 50)] if u == dest and walk <= 10 else [])


def run_policy(gu, source, dest, next_hop, p, horizon, trials=50, seed=3):
    return simulate_soa(ErParams(p), gu, source, dest, horizon=horizon, trials=trials, seed=seed,
                        next_hop=next_hop)


def test_event_replay_horizon_edges():
    line = UnderlyingGraph.line(4)
    policy = compute_mett(line, 0.5, 3).policy
    # p = 1: the last move lands exactly at the horizon, or one slot past it
    assert run_policy(line, 0, 3, policy, 1.0, 3).nonzero_items() == [(3, 50)]
    assert run_policy(line, 0, 3, policy, 1.0, 2).undelivered == 50
    latency, sizes = event_replay(line, 0, 3, policy, 1.0, 2, 50)
    assert (latency < 0).all() and sizes == [50, 50]  # ends at the horizon, not past it
    # p = 0: no edge ever comes up; one draw ends every trial
    latency, sizes = event_replay(line, 0, 3, policy, 0.0, 10**9, 50)
    assert (latency < 0).all() and sizes == [50]
    # a move that lands at the horizon away from dest ends the trial
    latency, sizes = event_replay(line, 0, 3, policy, 1.0, 1, 50)
    assert (latency < 0).all() and sizes == [50]


def test_event_replay_empty_list_leaves_the_trial_undelivered():
    line = UnderlyingGraph.line(3)
    latency, sizes = event_replay(line, 0, 2, {0: (1,), 1: ()}, 0.5, 100, 40)
    assert (latency < 0).all() and sizes == [40]  # dropped at once, not run to the horizon
    latency, sizes = event_replay(line, 0, 2, {1: (2,)}, 0.5, 100, 40)
    assert (latency < 0).all() and sizes == []  # the source has no list
    emp = run_policy(line, 0, 2, {0: (1,), 1: ()}, 0.5, 100)
    assert emp.undelivered == 50
