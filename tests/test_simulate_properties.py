"""Property-based checks of the cut-through labelling kernel against
`replay_cut`: its per-trial reference replays exactly each trial's own
sequence, and the block-stream kernel that `simulate_cut` runs replays
exactly the sequence its stream draws when a block holds one trial.
`test_simulate` checks the two kernels against each other in law."""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.models import (  # noqa: E402
    ErParams,
    MarkovParams,
    UnderlyingGraph,
    edge_update,
    sample_er_tgs,
    sample_markov_tgs,
)
from test_simulate import per_trial_simulate_cut  # noqa: E402
from tvgraph.simulate import EmpiricalPmf, replay_cut, simulate_cut  # noqa: E402
from tvgraph.temporal import Graphlet, GraphletSequence  # noqa: E402

INF = math.inf
probs = st.floats(min_value=0.05, max_value=0.95)


@st.composite
def cyclic_cases(draw):
    """(gu, source, dest): dest's component is connected and has a cycle; other
    nodes may form components of their own.  Node ids are drawn ints or
    strings, edges come in a drawn order and orientation."""
    k = draw(st.integers(3, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
    chords = [e for e in itertools.combinations(range(k), 2) if e not in tree]
    extra = draw(st.lists(st.sampled_from(chords), min_size=1, max_size=4, unique=True))
    outside = draw(st.integers(0, 3))
    others = [e for e in itertools.combinations(range(k, k + outside), 2) if draw(st.booleans())]
    ids = draw(st.one_of(
        st.permutations(range(k + outside)),
        st.permutations([f"v{i}" for i in range(k + outside)]),
    ))
    edges = draw(st.permutations(tree + extra + others))
    edges = [(ids[v], ids[u]) if draw(st.booleans()) else (ids[u], ids[v]) for u, v in edges]
    source, dest = draw(st.lists(st.sampled_from(ids[:k]), min_size=2, max_size=2, unique=True))
    return UnderlyingGraph(tuple(ids), tuple(edges)), source, dest


models = st.one_of(
    st.builds(ErParams, probs),
    st.builds(MarkovParams, probs, probs, p0=st.one_of(st.none(), st.floats(0.0, 1.0))),
)


def hop_ranks(gu, dest):
    """Hop distance to dest over gu's edges (inf when cut off)."""
    dist, frontier = {dest: 0}, [dest]
    while frontier:
        reached = []
        for u, v in gu.edges:
            for a, b in ((u, v), (v, u)):
                if a in frontier and b not in dist:
                    dist[b] = dist[a] + 1
                    reached.append(b)
        frontier = reached
    return {v: dist.get(v, INF) for v in gu.nodes}


def block_stream_sequence(model, gu, dest, horizon, seed):
    """The slots a one-trial block of the labelling kernel draws: slot t
    holds the edges of dest's component, in `gu.edges` order, that row t of
    SeedSequence(seed, spawn_key=(1, 0))'s uniforms turns ON."""
    comp = {v for v, h in hop_ranks(gu, dest).items() if h < INF}
    edges = [e for e in gu.edges if e[0] in comp]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, 0)))
    states, slots = None, []
    for t, u in enumerate(rng.random((horizon, len(edges))), start=1):
        states = edge_update(model, states, u)
        slots.append(Graphlet(t, gu.nodes, [e for e, on in zip(edges, states) if on]))
    return GraphletSequence(slots)


RANKS = st.one_of(st.none(), st.lists(st.sampled_from([0, 1, 2, INF]), min_size=10, max_size=10))
STRING_IDS_CASE = (
    (UnderlyingGraph(("a", "b", "c", "d", "x", "y"),
                     (("a", "b"), ("c", "b"), ("a", "c"), ("c", "d"), ("x", "y"))), "a", "d"),
    ErParams(0.3), [1, 1, 0, 2, INF, 0], 8, 5,
)


@settings(deadline=None, max_examples=60)
@given(cyclic_cases(), models, RANKS, st.integers(1, 12), st.integers(0, 2**32 - 1))
@example(*STRING_IDS_CASE)
def test_simulate_cut_replays_each_trial_stream(case, model, ranks, horizon, seed):
    # explicit ranks tie, reach inf, and cover nodes outside dest's component
    gu, source, dest = case
    rank = None if ranks is None else dict(zip(gu.nodes, ranks))
    trials = 25
    emp = per_trial_simulate_cut(model, gu, source, dest, horizon, trials, seed, rank=rank)
    sampler = sample_er_tgs if isinstance(model, ErParams) else sample_markov_tgs
    want_rank = hop_ranks(gu, dest) if rank is None else rank
    lats = []
    for i in range(trials):
        tgs = sampler(gu, model, horizon, np.random.SeedSequence(seed, spawn_key=(i,)))
        lats.append(replay_cut(tgs, source, dest, rank=want_rank).latency)
    want = EmpiricalPmf.from_latencies([-1 if x is None else x for x in lats], trials)
    assert np.array_equal(emp.counts, want.counts)
    assert emp.undelivered == want.undelivered


@settings(deadline=None, max_examples=60)
@given(cyclic_cases(), models, RANKS, st.integers(1, 12), st.integers(0, 2**32 - 1))
@example(*STRING_IDS_CASE)
def test_block_stream_kernel_replays_its_stream_on_one_trial(case, model, ranks, horizon, seed):
    # one trial is one block: its stream's uniforms, slot-major over the
    # component's edges, are the sequence it replays, however it is chunked
    gu, source, dest = case
    rank = None if ranks is None else dict(zip(gu.nodes, ranks))
    emp = simulate_cut(model, gu, source, dest, horizon=horizon, trials=1, seed=seed, rank=rank)
    tgs = block_stream_sequence(model, gu, dest, horizon, seed)
    want_rank = hop_ranks(gu, dest) if rank is None else rank
    latency = replay_cut(tgs, source, dest, rank=want_rank).latency
    assert emp.nonzero_items() == ([] if latency is None else [(latency, 1)])
