import math
import tracemalloc

import numpy as np
import pytest

from tvgraph.analytics import (
    LatencyPmf,
    er_cut_latency_pmf,
    er_soa_latency_pmf,
    mc_cut_latency_pmf,
    mc_smashed_reach_cdf,
    mc_soa_latency_pmf,
    reach_curve,
    smashed_reach_cdf,
)
from tvgraph.models import (
    ErParams,
    MarkovParams,
    UnderlyingGraph,
    edge_update,
    sample_er_tgs,
    sample_markov_tgs,
    slot_states,
)
from tvgraph import simulate
from tvgraph.simulate import (
    BLOCK_TRIALS,
    CUT_CELLS,
    PAIR_CELLS,
    _block_streams,
    _candidate_hops,
    _graph_labels,
    _pairs,
    _path_block,
    _run_blocks,
    _steady_slot,
    _trial_stream,
    EmpiricalPmf,
    close,
    default_horizon,
    empirical_reachable_pairs,
    labels,
    reachable_pairs_samples,
    replay_cut,
    replay_soa,
    simulate_cut,
    simulate_soa,
)
from tvgraph.temporal import (
    Graphlet,
    GraphletSequence,
    SmashedGraph,
    m_smash,
    reachable_pairs_fraction,
    smash,
    t_reachable,
)


# --- single-trial replays -------------------------------------------------------


def test_replay_soa_fixed_pattern():
    # line 0-1-2; edge (0,1) up at slot 2, edge (1,2) up at slot 4
    tgs = GraphletSequence.from_slot_edges(
        range(3), [[], [(0, 1)], [], [(1, 2)]]
    )
    out = replay_soa(tgs, 0, 2)
    assert out.latency == 4
    assert out.trajectory == ((0, 0), (0, 1), (1, 2), (1, 3), (2, 4))


def test_replay_cut_fixed_pattern():
    tgs = GraphletSequence.from_slot_edges(
        range(3), [[], [(0, 1), (1, 2)]]
    )
    out = replay_cut(tgs, 0, 2)
    assert out.latency == 1  # one wait slot, then cut straight through
    assert out.trajectory[-1] == (2, 2)


def test_replay_cut_initial_component_counts_zero():
    tgs = GraphletSequence.from_slot_edges(range(3), [[(0, 1), (1, 2)]])
    assert replay_cut(tgs, 0, 2).latency == 0


@pytest.mark.parametrize("replay", [replay_soa, replay_cut])
@pytest.mark.parametrize("source, dest", [(0, 7), (9, 2), (7, 7)])
def test_replays_reject_unknown_nodes(replay, source, dest):
    # replay_cut once read an unknown dest as undelivered and an unknown
    # source as a KeyError; both replays once delivered 7 to 7 at once
    tgs = GraphletSequence.from_slot_edges(range(3), [[(0, 1)], [(1, 2)]])
    with pytest.raises(ValueError, match=f"unknown node {source} or {dest}"):
        replay(tgs, source, dest)


def test_replay_undelivered_is_none():
    # the union connects 0 to 2, but the horizon ends mid-journey
    tgs = GraphletSequence.from_slot_edges(range(3), [[(1, 2)], [(0, 1)]])
    assert replay_soa(tgs, 0, 2).latency is None
    assert replay_cut(tgs, 0, 2).latency is None


def test_replay_requires_union_path():
    tgs = GraphletSequence.from_slot_edges(range(3), [[], []])
    with pytest.raises(ValueError):
        replay_soa(tgs, 0, 2)
    # cut-through with an explicit rank still just never delivers
    assert replay_cut(tgs, 0, 2, rank={0: 2, 1: 1, 2: 0}).latency is None


def test_replay_soa_trajectory_one_entry_per_slot():
    gu = UnderlyingGraph.line(5)
    tgs = sample_er_tgs(gu, ErParams(0.4), 40, seed=3)
    out = replay_soa(tgs, 0, 4)
    slots = [s for _, s in out.trajectory]
    assert slots == list(range(len(slots)))


def test_paired_replay_cut_never_slower_than_soa():
    gu = UnderlyingGraph.line(6)
    for trial in range(200):
        tgs = sample_er_tgs(gu, ErParams(0.35), 200, seed=trial)
        soa = replay_soa(tgs, 0, 5).latency
        cut = replay_cut(tgs, 0, 5).latency
        assert cut is not None and soa is not None
        assert cut <= soa
        assert soa >= 5  # one slot per hop minimum
    for trial in range(100):
        tgs = sample_markov_tgs(gu, MarkovParams(0.5, 0.25), 200, seed=trial)
        soa = replay_soa(tgs, 0, 5).latency
        cut = replay_cut(tgs, 0, 5).latency
        assert cut <= soa


# --- empirical histogram container ----------------------------------------------


def test_empirical_pmf_accounting():
    emp = EmpiricalPmf.from_latencies(np.array([0, 1, 1, -1, 3]), 5)
    assert emp.undelivered == 1
    assert emp.nonzero_items() == [(0, 1), (1, 2), (3, 1)]
    assert emp.delivered() == 4
    assert emp.mean() == pytest.approx(1.25)
    with pytest.raises(ValueError):
        EmpiricalPmf(np.array([1]), 5, 1)


def test_default_horizon():
    assert default_horizon(10, 0.25) == 720
    with pytest.raises(ValueError):
        default_horizon(10, 0.0)
    # 20 (n-1) / p overflows: a ValueError that asks for a horizon, not an OverflowError
    with pytest.raises(ValueError, match="pass a horizon"):
        default_horizon(3, 1e-308)


# --- vectorized engines vs analytics ----------------------------------------------


def test_simulate_soa_deterministic_at_p_one():
    gu = UnderlyingGraph.line(7)
    emp = simulate_soa(ErParams(1.0), gu, 0, 6, trials=500, seed=1)
    assert emp.nonzero_items() == [(6, 500)]


def test_simulate_cut_zero_at_p_one():
    gu = UnderlyingGraph.line(7)
    emp = simulate_cut(ErParams(1.0), gu, 0, 6, trials=500, seed=1)
    assert emp.nonzero_items() == [(0, 500)]


def test_simulate_soa_matches_analytic_small_line():
    emp = simulate_soa(ErParams(0.5), UnderlyingGraph.line(3), 0, 2, trials=60_000, seed=2)
    pmf = er_soa_latency_pmf(3, 0.5)
    assert emp.total_variation(pmf) < 0.01


def test_simulate_cut_matches_analytic_small_line():
    emp = simulate_cut(ErParams(0.5), UnderlyingGraph.line(3), 0, 2, trials=60_000, seed=3)
    pmf = er_cut_latency_pmf(3, 0.5)
    assert emp.total_variation(pmf) < 0.01


def test_simulate_er_means():
    gu = UnderlyingGraph.line(10)
    emp = simulate_soa(ErParams(0.25), gu, 0, 9, trials=30_000, seed=4)
    assert emp.mean() == pytest.approx(36.0, abs=0.3)
    emp = simulate_cut(ErParams(0.5), gu, 0, 9, trials=30_000, seed=5)
    assert emp.mean() == pytest.approx(9.0, abs=0.1)


def test_simulate_markov_matches_analytic():
    gu = UnderlyingGraph.line(6)
    params = MarkovParams(0.5, 0.25)
    emp = simulate_cut(params, gu, 0, 5, trials=80_000, seed=6)
    assert emp.total_variation(mc_cut_latency_pmf(6, params)) < 0.01
    emp = simulate_soa(params, gu, 0, 5, trials=80_000, seed=7)
    assert emp.total_variation(mc_soa_latency_pmf(6, params)) < 0.01


def test_simulate_markov_zero_wait_atom():
    gu = UnderlyingGraph.line(4)
    params = MarkovParams(0.5, 0.25)
    emp = simulate_cut(params, gu, 0, 3, trials=40_000, seed=8)
    pi_on = 0.5 / 0.75
    assert emp.fraction(0) == pytest.approx(pi_on ** 3, abs=0.01)


def test_simulate_interior_endpoints_on_line():
    # traversing 3 hops of a longer line matches the 4-node closed form
    gu = UnderlyingGraph.line(8)
    emp = simulate_soa(ErParams(0.5), gu, 2, 5, trials=30_000, seed=9)
    assert emp.total_variation(er_soa_latency_pmf(4, 0.5)) < 0.015
    emp = simulate_cut(ErParams(0.5), gu, 2, 5, trials=30_000, seed=10)
    assert emp.total_variation(er_cut_latency_pmf(4, 0.5)) < 0.015


def test_simulate_source_equals_dest():
    gu = UnderlyingGraph.line(4)
    assert simulate_soa(ErParams(0.5), gu, 1, 1, trials=10, seed=0).nonzero_items() == [(0, 10)]
    assert simulate_cut(ErParams(0.5), gu, 1, 1, trials=10, seed=0).nonzero_items() == [(0, 10)]


def test_simulate_vectorized_agrees_with_replay_loop():
    # same distribution from the block engine and the per-trial python replay;
    # 17,000 trials keep the per-trial side's chance of a TV of 0.02 or more
    # near 6.5e-5 (multinomial samples of the exact law)
    gu = UnderlyingGraph.line(4)
    fast = simulate_soa(ErParams(0.5), gu, 0, 3, trials=20_000, seed=11)
    lats = []
    for trial in range(17_000):
        tgs = sample_er_tgs(gu, ErParams(0.5), 240, seed=(11, trial))
        out = replay_soa(tgs, 0, 3)
        lats.append(-1 if out.latency is None else out.latency)
    slow = EmpiricalPmf.from_latencies(np.array(lats), 17_000)
    pmf = er_soa_latency_pmf(4, 0.5)
    assert fast.total_variation(pmf) < 0.02
    assert slow.total_variation(pmf) < 0.02


def full_process_path_block(model, n_edges, metric, horizon, rng, size):
    """Reference path replay that draws the state of every path edge in every
    slot, the whole edge process, where the engine draws only the edge at the
    message; returns latencies (-1 undelivered)."""
    states = None
    pos = np.zeros(size, dtype=np.int64)
    orig = np.arange(size)
    latency = np.full(size, -1, dtype=np.int64)
    t = 0
    while orig.size and t < horizon:
        t += 1
        states = edge_update(model, states, rng.random((orig.size, n_edges)))
        if metric == "soa":
            on = states[np.arange(orig.size), pos]
            pos += on
            done = pos == n_edges
            latency[orig[done]] = t
        else:
            rows = np.arange(orig.size)
            while rows.size:
                on = states[rows, pos[rows]]
                moved = rows[on]
                pos[moved] += 1
                at_dest = pos[moved] == n_edges
                latency[orig[moved[at_dest]]] = t - 1
                rows = moved[~at_dest]
            done = pos == n_edges
        keep = ~done
        orig, pos, states = orig[keep], pos[keep], states[keep]
    return latency


def ks_distance(a, b):
    """Largest gap between the latency CDFs of two histograms (undelivered
    trials sit past every latency)."""
    top = max(len(a.counts), len(b.counts))
    cdf = [np.cumsum(np.pad(e.counts, (0, top - len(e.counts)))) / e.trials for e in (a, b)]
    return float(np.abs(cdf[0] - cdf[1]).max()) if top else 0.0


def assert_same_law(a, b):
    """Two-sample check at a false-alarm rate of about 1e-6 per statistic: the
    Kolmogorov-Smirnov bound (conservative on a discrete law) on the latency
    CDFs, and five standard errors on the difference of the means."""
    scale = math.sqrt(1 / a.trials + 1 / b.trials)
    assert ks_distance(a, b) <= math.sqrt(math.log(2e6) / 2) * scale
    if a.delivered() and b.delivered():
        se = math.sqrt(a.variance() / a.delivered() + b.variance() / b.delivered())
        assert abs(a.mean() - b.mean()) <= 5 * se + 1e-12


PATH_CASES = [  # (model, nodes, horizon)
    (ErParams(0.25), 10, None),
    (MarkovParams(0.5, 0.25), 6, None),
    (MarkovParams(0.3, 0.2, p0=0.05), 8, None),  # non-stationary start
    (MarkovParams(0.9, 0.8, p0=0.1), 6, None),  # marginal oscillates: 1 - p - q < 0
    (MarkovParams(0.02, 0.05), 5, None),  # slow chain
    (MarkovParams(1.0, 1.0, p0=1.0), 7, None),  # alternating: deterministic
    (MarkovParams(0.0, 0.0, p0=0.6), 4, 30),  # frozen: p + q = 0
]


@pytest.mark.parametrize("metric", ["soa", "cut"])
@pytest.mark.parametrize("model, n, horizon", PATH_CASES)
def test_path_engine_matches_the_full_process_replay(model, n, horizon, metric):
    # the engine draws only the edge at the message; the reference draws
    # every edge of the path in every slot
    run = simulate_soa if metric == "soa" else simulate_cut
    trials, seed = 100_000, 31
    got = run(model, UnderlyingGraph.line(n), 0, n - 1, horizon=horizon, trials=trials, seed=seed)
    if horizon is None:
        horizon = default_horizon(n, model.p)
    want = _run_blocks(seed + 1, trials, full_process_path_block, model, n - 1, metric, horizon)
    assert_same_law(got, want)


@pytest.mark.parametrize("metric", ["soa", "cut"])
def test_path_engine_matches_per_trial_replays(metric):
    # second reference: replay_* over the sequences sample_markov_tgs draws
    model, n, horizon, trials = MarkovParams(0.3, 0.2, p0=0.05), 5, 12, 1_500
    gu = UnderlyingGraph.line(n)
    lats = []
    for i in range(trials):
        tgs = sample_markov_tgs(gu, model, horizon, np.random.SeedSequence(8, spawn_key=(i,)))
        if metric == "soa":  # along the line: a short sequence may leave its union cut
            out = replay_soa(tgs, 0, n - 1, next_hop=lambda u, on: u + 1 if u + 1 in on else None)
        else:
            out = replay_cut(tgs, 0, n - 1)
        lats.append(out.latency)
    want = EmpiricalPmf.from_latencies([-1 if x is None else x for x in lats], trials)
    run = simulate_soa if metric == "soa" else simulate_cut
    got = run(model, gu, 0, n - 1, horizon=horizon, trials=40_000, seed=8)
    assert want.undelivered > 0
    assert_same_law(got, want)


class CountingRng:
    """A generator that counts its `random` calls and the uniforms they draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = self.drawn = 0

    def random(self, shape):
        u = self.rng.random(shape)
        self.calls += 1
        self.drawn += u.size
        return u


@pytest.mark.parametrize("model", [
    ErParams(0.3), MarkovParams(0.5, 0.25), MarkovParams(0.3, 0.2, p0=0.05),
    MarkovParams(0.9, 0.8, p0=0.1), MarkovParams(0.0, 0.0, p0=0.6),
])
def test_path_engine_draws_one_uniform_per_event(model):
    # store-or-advance: one uniform per trial and hop, in at most one call per
    # hop; cut-through: one per trial in slot 1, then two per stop, and each
    # stop is at a new edge and in a later slot; so neither takes more calls
    # than the per-slot engine takes slots
    size, n_edges = 500, 12
    for horizon in (400, 6):
        rng = CountingRng(5)
        lat = _path_block(model, n_edges, "soa", horizon, rng, size)
        if horizon >= n_edges:
            assert rng.drawn == size * n_edges and rng.calls <= n_edges
        else:  # no trial can arrive in time
            assert rng.drawn == 0 and (lat == -1).all()
        rng = CountingRng(5)
        _path_block(model, n_edges, "cut", horizon, rng, size)
        assert rng.drawn <= 2 * size * (n_edges + 1)
        assert rng.calls <= 1 + min(n_edges, horizon - 1)


@pytest.mark.parametrize("metric", ["soa", "cut"])
def test_path_engine_degenerate_marginals_are_exact(metric):
    # marginals and rates of exactly 0 or 1 give fixed latencies
    n = 6
    cases = {  # model: (soa latency, cut latency); None: never delivered
        ErParams(0.0): (None, None),
        ErParams(1.0): (n - 1, 0),
        MarkovParams(1.0, 0.0, p0=1.0): (n - 1, 0),  # ON for good
        MarkovParams(1.0, 0.0, p0=0.0): (n, 1),  # OFF in slot 1, then ON for good
        MarkovParams(1.0, 1.0, p0=0.0): (2 * (n - 1), 1),  # OFF in odd slots, ON in even ones
        MarkovParams(0.0, 1.0, p0=1.0): (None, 0),  # ON in slot 1 only
    }
    run = simulate_soa if metric == "soa" else simulate_cut
    for model, want in cases.items():
        emp = run(model, UnderlyingGraph.line(n), 0, n - 1, horizon=200, trials=3_000, seed=4)
        latency = want[metric == "cut"]
        assert emp.nonzero_items() == ([] if latency is None else [(latency, 3_000)])


def test_path_engine_horizon_edges():
    # soa is delivered iff its latency is at most the horizon, cut-through iff
    # it reaches dest by slot horizon, i.e. latency at most horizon - 1
    n = 7
    gu, model = UnderlyingGraph.line(n), ErParams(1.0)
    assert simulate_soa(model, gu, 0, n - 1, horizon=n - 1, trials=400, seed=1).undelivered == 0
    assert simulate_soa(model, gu, 0, n - 1, horizon=n - 2, trials=400, seed=1).undelivered == 400
    emp = simulate_cut(model, gu, 0, n - 1, horizon=1, trials=400, seed=1)
    assert emp.nonzero_items() == [(0, 400)]


def test_path_engine_frozen_chain():
    # p = q = 0: every edge keeps its slot-1 state, ON with p0, so a trial is
    # delivered only if all n - 1 edges start ON, at the least latency
    model, n, trials = MarkovParams(0.0, 0.0, p0=0.6), 5, 40_000
    miss = 1 - 0.6 ** (n - 1)
    tol = 5 * math.sqrt(trials * miss * (1 - miss))
    for run, latency in ((simulate_soa, n - 1), (simulate_cut, 0)):
        emp = run(model, UnderlyingGraph.line(n), 0, n - 1, horizon=50, trials=trials, seed=12)
        assert [v for v, _ in emp.nonzero_items()] == [latency]
        assert abs(emp.undelivered - trials * miss) < tol


@pytest.mark.parametrize("model", [
    MarkovParams(0.3, 0.2, p0=0.05), MarkovParams(0.9, 0.8, p0=0.1), MarkovParams(0.02, 0.05, p0=1.0),
    MarkovParams(0.5, 0.5, p0=0.0), MarkovParams(1e-6, 0.3, p0=0.9), MarkovParams(0.4, 0.3),
])
def test_steady_slot_is_where_the_marginal_settles(model):
    # from the steady slot on, the engine draws every first watch with pi;
    # the marginal as the engine computes it must be exactly pi there
    p, q, p0 = model.p, model.q, model.p0
    pi, r = p / (p + q), 1.0 - p - q
    e = _steady_slot(pi, p0, r)
    assert all(pi + (p0 - pi) * r ** k == pi for k in range(e, e + 300))


def test_block_streams_are_not_trial_streams():
    # block k and trial k of one seed used to draw the very same stream
    for seed in (0, 7):
        blocks = [rng.random(8) for rng, _ in _block_streams(seed, 4 * BLOCK_TRIALS)]
        trials = [_trial_stream(seed, i).random(8) for i in range(4)]
        assert not np.isin(np.concatenate(blocks), np.concatenate(trials)).any()


def per_trial_cut_block(model, n_edges, cols, ends, n, source, dest, horizon, rngs):
    """The labelling kernel on per-trial streams, kept as the reference for
    the block-stream kernel: each trial draws all n_edges candidate edges per
    slot from its own stream (`slot_states`), in chunks of at most t+1 slots
    and about CUT_CELLS cells, and keeps the columns `cols`, whose ends are
    `ends`; returns latencies (-1 undelivered)."""
    size = len(rngs)
    offset = np.arange(size, dtype=np.int32)[:, None] * n
    head, tail = (offset + ends[0]).ravel(), (offset + ends[1]).ravel()
    orig = np.arange(size)
    cur = np.full(size, source, dtype=np.int32)
    latency = np.full(size, -1, dtype=np.int64)
    states, t = None, 0
    while orig.size and t < horizon:
        span = min(t + 1, horizon - t, max(1, CUT_CELLS // (orig.size * n_edges)))
        slots = slot_states(model, states, rngs, span, n_edges)
        states = slots[-1]
        if len(cols) < n_edges:
            slots = slots[:, :, cols]
        rows = np.arange(orig.size)
        for k in range(span):
            t += 1
            lab = _graph_labels(slots[k, rows], n, head, tail)
            base = offset[:rows.size, 0]
            jump = lab[base + cur]
            done = jump == lab[base + dest]
            latency[orig[done]] = t - 1
            keep = ~done
            cur, orig, rows = (jump - base)[keep], orig[keep], rows[keep]
            if not orig.size:
                break
        rngs, states = [rngs[i] for i in rows], states[rows]
    return latency


def per_trial_simulate_cut(model, gu, source, dest, horizon, trials, seed, rank=None):
    """Cut-through by the per-trial reference kernel: trial i replays the
    sequence sample_*_tgs(gu, model, horizon, SeedSequence(seed,
    spawn_key=(i,))) draws, with the nodes of dest's component in (rank, id)
    order (default rank: hop distance to dest)."""
    hops = _candidate_hops(gu, dest)
    if rank is None:
        rank = dict(zip(gu.nodes, hops))
    comp = [v for v, h in zip(gu.nodes, hops) if h >= 0]
    index = {v: i for i, v in enumerate(sorted(comp, key=lambda v: (rank[v], v)))}
    ends = np.array([index.get(v, -1) for v in gu.nodes], dtype=np.int32)[gu._ends]
    cols = np.flatnonzero(ends[0] >= 0)
    n_edges = ends.shape[1]
    block = max(1, CUT_CELLS // n_edges)
    parts = [
        per_trial_cut_block(
            model, n_edges, cols, ends[:, cols], len(index), index[source], index[dest], horizon,
            [_trial_stream(seed, trial) for trial in range(start, min(start + block, trials))],
        )
        for start in range(0, trials, block)
    ]
    return EmpiricalPmf.from_latencies(np.concatenate(parts), trials)


def test_per_trial_engines_replay_the_per_trial_streams():
    # trial i replays the sequence sample_*_tgs draws from SeedSequence(seed, spawn_key=(i,));
    # the cut half runs the per-trial reference of the labelling kernel
    gu = UnderlyingGraph(tuple(range(6)), ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)))
    rank = {0: 5, 1: 3, 2: 4, 3: 1, 4: 2, 5: 0}  # not hop distance: 1 outranks 2

    def next_hop(u, on_neighbors):
        better = [v for v in on_neighbors if rank[v] < rank[u]]
        return min(better, key=rank.get, default=None)

    horizon, trials, seed = 10, 80, 33
    for model, sampler in (
        (ErParams(0.35), sample_er_tgs),
        (MarkovParams(0.3, 0.2, p0=0.1), sample_markov_tgs),
    ):
        cut = per_trial_simulate_cut(model, gu, 0, 5, horizon, trials, seed, rank=rank)
        soa = simulate_soa(
            model, gu, 0, 5, horizon=horizon, trials=trials, seed=seed, next_hop=next_hop
        )
        cut_lats, soa_lats = [], []
        for i in range(trials):
            tgs = sampler(gu, model, horizon, np.random.SeedSequence(seed, spawn_key=(i,)))
            cut_lats.append(replay_cut(tgs, 0, 5, rank=rank).latency)
            soa_lats.append(replay_soa(tgs, 0, 5, next_hop=next_hop).latency)
        for emp, lats in ((cut, cut_lats), (soa, soa_lats)):
            want = EmpiricalPmf.from_latencies([-1 if x is None else x for x in lats], trials)
            assert 0 < want.undelivered < trials
            assert np.array_equal(emp.counts, want.counts)
            assert emp.undelivered == want.undelivered


# two triangles joined by (2, 3), and a triangle dest's component never meets
TWO_TRIANGLES = UnderlyingGraph(
    tuple(range(9)),
    ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)),
)
NOT_HOPS = {0: 5, 1: 3, 2: 4, 3: 1, 4: 2, 5: 0}  # 1 outranks 2
BLOCK_CUT_CASES = {  # model, gu, source, dest, horizon, rank
    "er-K6": (ErParams(0.2), UnderlyingGraph.complete(6), 0, 5, None, None),
    "er-K20": (ErParams(0.05), UnderlyingGraph.complete(20), 0, 19, None, None),
    "mc-K5-p0": (MarkovParams(0.05, 0.1, p0=0.02), UnderlyingGraph.complete(5), 0, 4, None, None),
    "er-rank": (ErParams(0.35), TWO_TRIANGLES, 0, 5, None, NOT_HOPS),
    "mc-rank-capped": (MarkovParams(0.3, 0.2, p0=0.1), TWO_TRIANGLES, 0, 5, 10, NOT_HOPS),
}


@pytest.mark.parametrize("case", BLOCK_CUT_CASES)
def test_block_stream_kernel_matches_the_per_trial_kernel(case):
    # one stream per block of trials, drawing dest's component only, against
    # one stream per trial drawing every candidate edge; fixed beforehand:
    # KS and 5-standard-error bounds, each at a false-alarm rate of about
    # 1e-6, on undelivered counts as well
    model, gu, source, dest, horizon, rank = BLOCK_CUT_CASES[case]
    if horizon is None:
        horizon = default_horizon(len(gu.nodes), model.p)
    trials = 20_000
    got = simulate_cut(model, gu, source, dest, horizon=horizon, trials=trials, seed=61,
                       rank=rank)
    want = per_trial_simulate_cut(model, gu, source, dest, horizon, trials, 62, rank=rank)
    assert_same_law(got, want)
    pooled = (got.undelivered + want.undelivered) / (2 * trials)
    gap = abs(got.undelivered - want.undelivered) / trials
    assert gap <= 5 * math.sqrt(pooled * (1 - pooled) * 2 / trials)
    if case == "mc-rank-capped":
        assert 0 < got.undelivered < trials


def test_simulate_determinism_and_seed_sensitivity():
    gu = UnderlyingGraph.line(5)
    a = simulate_soa(ErParams(0.3), gu, 0, 4, trials=5_000, seed=12)
    b = simulate_soa(ErParams(0.3), gu, 0, 4, trials=5_000, seed=12)
    c = simulate_soa(ErParams(0.3), gu, 0, 4, trials=5_000, seed=13)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_stderr_shrinks_with_more_trials():
    # loose convergence sanity: quadrupling trials should land near half the
    # standard error, not a strict assertion of the exact ratio
    gu = UnderlyingGraph.line(8)
    small = simulate_soa(ErParams(0.4), gu, 0, 7, trials=4_000, seed=17)
    big = simulate_soa(ErParams(0.4), gu, 0, 7, trials=16_000, seed=18)
    ratio = small.stderr_mean() / big.stderr_mean()
    assert 1.5 < ratio < 2.7


def test_simulate_undelivered_accounted():
    gu = UnderlyingGraph.line(10)
    emp = simulate_soa(ErParams(0.1), gu, 0, 9, horizon=12, trials=2_000, seed=14)
    assert emp.undelivered > 0
    assert int(emp.counts.sum()) + emp.undelivered == 2_000


def test_simulate_validation():
    gu = UnderlyingGraph((0, 1, 2), ((0, 1),))
    with pytest.raises(ValueError):
        simulate_soa(ErParams(0.5), gu, 0, 2, trials=10, seed=0)  # unreachable
    with pytest.raises(ValueError):
        simulate_cut(ErParams(0.5), gu, 0, 2, trials=10, seed=0)
    with pytest.raises(ValueError):
        simulate_soa(ErParams(0.5), UnderlyingGraph.line(3), 0, 2, trials=0, seed=0)
    with pytest.raises(ValueError):
        simulate_soa(ErParams(0.5), UnderlyingGraph.line(3), 0, 7, trials=5, seed=0)


@pytest.mark.parametrize("run", [simulate_soa, simulate_cut])
@pytest.mark.parametrize("horizon", [0, -2])
def test_simulate_rejects_horizon_below_one(run, horizon):
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        run(ErParams(0.5), UnderlyingGraph.line(4), 0, 3, horizon=horizon, trials=10, seed=0)


def test_simulate_cut_general_graph_matches_line_shape():
    # a path given as a generic graph agrees with the line closed form
    gu = UnderlyingGraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    emp = simulate_cut(ErParams(0.5), gu, 0, 3, trials=8_000, seed=15)
    assert emp.total_variation(er_cut_latency_pmf(4, 0.5)) < 0.03


def test_simulate_cut_engine_follows_shape_not_name():
    # a line built without its name, or read back from a graphlet, takes the
    # same forest engine and streams as UnderlyingGraph.line
    named = UnderlyingGraph.line(10)
    unnamed = UnderlyingGraph(named.nodes, named.edges)
    from_graphlet = UnderlyingGraph.from_graphlet(Graphlet(1, named.nodes, named.edges))
    for model in (ErParams(0.25), MarkovParams(0.4, 0.3)):
        want = simulate_cut(model, named, 0, 9, trials=3_000, seed=21).counts
        for gu in (unnamed, from_graphlet):
            got = simulate_cut(model, gu, 0, 9, trials=3_000, seed=21).counts
            assert np.array_equal(got, want)


def test_simulate_cut_engine_looks_at_the_destination_component():
    # a triangle the message can never enter leaves the path engine in charge
    line = UnderlyingGraph.line(10)
    with_cycle = UnderlyingGraph(tuple(range(13)), line.edges + ((10, 11), (10, 12), (11, 12)))
    for model in (ErParams(0.25), MarkovParams(0.4, 0.3)):
        want = simulate_cut(model, line, 0, 9, horizon=400, trials=3_000, seed=27)
        got = simulate_cut(model, with_cycle, 0, 9, horizon=400, trials=3_000, seed=27)
        assert np.array_equal(got.counts, want.counts)
        assert got.undelivered == want.undelivered


def test_simulate_cut_tree_with_branches_matches_path_law():
    # spine 0-1-2-3-4 with leaves 5, 6 and a two-edge branch 2-7-8; side
    # branches never help on a tree, so the law is that of the path
    gu = UnderlyingGraph(
        tuple(range(9)),
        ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6), (2, 7), (7, 8)),
    )
    emp = simulate_cut(ErParams(0.4), gu, 0, 4, trials=20_000, seed=22)
    assert emp.total_variation(er_cut_latency_pmf(5, 0.4)) < 0.02
    emp = simulate_cut(ErParams(0.4), gu, 5, 8, trials=20_000, seed=23)
    assert emp.total_variation(er_cut_latency_pmf(5, 0.4)) < 0.02


def test_simulate_cut_complete_graph_default_rank_is_geometric():
    # K4 has cycles, so trials run in the labelling kernel; every non-dest
    # node has rank 1, so each slot delivers with the chance r that the
    # message's node and dest are connected in G(4, p), r found by enumeration
    gu = UnderlyingGraph.complete(4)
    p = 0.3
    r = 0.0
    for mask in range(1 << len(gu.edges)):
        on = [e for i, e in enumerate(gu.edges) if mask >> i & 1]
        if SmashedGraph(gu.nodes, on).connected(0, 3):
            r += p ** len(on) * (1 - p) ** (len(gu.edges) - len(on))
    masses = tuple(r * (1 - r) ** t for t in range(60))
    pmf = LatencyPmf(0, masses, 1.0 - math.fsum(masses))
    emp = simulate_cut(ErParams(p), gu, 0, 3, trials=10_000, seed=26)
    assert emp.total_variation(pmf) < 0.03


def test_simulate_cut_names_a_node_missing_from_rank():
    # node 2 lies in dest's component: an error before any draw, not a
    # KeyError on the draws where the message meets it; nodes outside that
    # component need no rank
    gu = UnderlyingGraph(tuple(range(6)), ((0, 1), (1, 2), (0, 2), (2, 3), (4, 5)))
    with pytest.raises(ValueError, match="node 2 "):
        simulate_cut(ErParams(1e-9), gu, 0, 3, trials=10, seed=0, rank={0: 2, 1: 1, 3: 0})
    emp = simulate_cut(ErParams(0.5), gu, 0, 3, trials=10, seed=0, rank={0: 2, 1: 1, 2: 1, 3: 0})
    assert emp.trials == 10


@pytest.mark.parametrize("run", [simulate_soa, simulate_cut])
def test_hop_ranks_build_no_edge_tuples(run):
    # the hop ranks come from the index arrays; K400 as tuples is 79,800 of them
    gu = UnderlyingGraph.complete(400)
    emp = run(ErParams(0.05), gu, 0, 399, trials=2, seed=0)
    assert emp.trials == 2
    assert "edges" not in vars(gu)


def test_simulate_cut_memory_is_bounded_by_the_cell_budget():
    # K40 has 780 candidate edges: 20,000 trials' uniforms of one slot alone
    # would take 125 MB, a block of CUT_CELLS cells takes 1 MB
    gu = UnderlyingGraph.complete(40)
    tracemalloc.start()
    try:
        emp = simulate_cut(ErParams(0.1), gu, 0, 39, trials=20_000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emp.undelivered == 0
    assert peak < 64 * CUT_CELLS


def test_reachable_pairs_memory_is_bounded_by_the_cell_budget():
    # K70 has 2,415 candidate edges: 200 trials' uniforms of one slot alone
    # would take 3.9 MB, a block of PAIR_CELLS cells takes 0.5 MB
    gu = UnderlyingGraph.complete(70)
    trials = 200
    assert trials > PAIR_CELLS // gu._ends.shape[1]  # more trials than one block holds
    tracemalloc.start()
    try:
        samples = reachable_pairs_samples(ErParams(0.01), gu, [1, 2, 5], trials, 3, ms=(2,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples["stacked"].shape == (trials, 3)
    assert peak < 64 * PAIR_CELLS


def test_simulate_soa_callable_policy():
    gu = UnderlyingGraph.line(4)

    def toward_dest(u, on_neighbors):
        want = u + 1
        return want if want in on_neighbors else None

    emp = simulate_soa(
        ErParams(0.5), gu, 0, 3, horizon=200, trials=8_000, seed=16, next_hop=toward_dest
    )
    assert emp.total_variation(er_soa_latency_pmf(4, 0.5)) < 0.03


@pytest.mark.parametrize("next_hop, message", [
    ({9: (1,)}, "key 9 is not a node"),
    ({0: (99,)}, "of 0 names unknown node 99"),
    ({0: (5,)}, "of 0 names 5, which is not its neighbor"),  # would jump across a non-edge
    ({0: (1, 1, 1)}, "of 0 repeats"),  # would draw the one edge three times a slot
    # the first fault in key order, and in list order within a key, wins
    ({0: (1, 5), 9: (1,)}, "of 0 names 5, which is not its neighbor"),
    ({9: (1,), 0: (5,)}, "key 9 is not a node"),
    ({1: (2, 0), 2: (3, 3)}, "of 2 repeats"),
    ({1: (2, 7, 4)}, "of 1 names unknown node 7"),
    ({1: (2, 4, 7)}, "of 1 names 4, which is not its neighbor"),
    ({3: (2, 2, 9)}, "of 3 names unknown node 9"),
])
def test_simulate_soa_rejects_malformed_acceptance_lists(next_hop, message):
    with pytest.raises(ValueError, match=message):
        simulate_soa(ErParams(0.5), UnderlyingGraph.line(6), 0, 5, trials=10, seed=0,
                     next_hop=next_hop)


# --- reachable-pairs curves -------------------------------------------------------


def test_reachable_pairs_zero_horizon():
    gu = UnderlyingGraph.complete(5)
    rows = empirical_reachable_pairs(ErParams(0.3), gu, [0], trials=5, seed=0)
    assert rows == [(0, 0.0, 0.0)]


def test_reachable_pairs_smashed_dominates_pointwise():
    gu = UnderlyingGraph.complete(6)
    grid = [1, 2, 4, 8]
    samples = reachable_pairs_samples(ErParams(0.1), gu, grid, trials=60, seed=1)
    assert (samples["smashed"] >= samples["stacked"]).all()
    samples = reachable_pairs_samples(
        MarkovParams(0.5, 0.05, p0=0.005), gu, grid, trials=60, seed=2
    )
    assert (samples["smashed"] >= samples["stacked"]).all()


def test_reachable_pairs_coarsened_between():
    gu = UnderlyingGraph.complete(6)
    grid = [2, 4, 8]
    samples = reachable_pairs_samples(ErParams(0.08), gu, grid, trials=80, seed=3, ms=(2,))
    mid = samples[("msmg", 2)]
    assert (samples["stacked"] <= mid).all()
    assert (mid <= samples["smashed"]).all()


def _cycles_and_an_isolated_node():
    # two cyclic blocks joined by a bridge; node 14 has no candidate edge
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (5, 6), (6, 7), (5, 7), (7, 8),
             (8, 9), (9, 10), (10, 11), (11, 12), (8, 12), (2, 9)]
    return UnderlyingGraph(tuple(range(15)), tuple(edges))


def test_reachable_pairs_columns_match_per_trial_sequences():
    # row i is the sequence sample_*_tgs draws from SeedSequence(seed, spawn_key=(i,))
    k70 = UnderlyingGraph.complete(70)  # two 64-bit words per bitset row
    assert 30 > PAIR_CELLS // len(k70.edges)  # more trials than one block holds
    cases = (
        (UnderlyingGraph.complete(7), ErParams(0.08), sample_er_tgs, 24, [0, 1, 3, 4, 7], 15, (2,)),
        (UnderlyingGraph.complete(7), MarkovParams(0.3, 0.4, p0=0.1), sample_markov_tgs, 25,
         [0, 1, 3, 4, 7], 15, (2,)),
        # a repeated horizon, and a block longer than every horizon
        (_cycles_and_an_isolated_node(), MarkovParams(0.2, 0.3), sample_markov_tgs, 26,
         [0, 2, 5, 5, 9], 20, (2, 3, 12)),
        (k70, ErParams(0.01), sample_er_tgs, 27, [0, 2, 5], 30, (2,)),
    )
    for gu, model, sampler, seed, grid, trials, ms in cases:
        n = len(gu.nodes)
        samples = reachable_pairs_samples(model, gu, grid, trials, seed, ms=ms)
        for i in range(trials):
            stream = np.random.SeedSequence(seed, spawn_key=(i,))
            full = sampler(gu, model, max(grid), stream)
            for j, t in enumerate(grid):
                if t == 0:
                    assert all(samples[key][i, j] == 0.0 for key in samples)
                    continue
                tgs = GraphletSequence(full.graphlets[:t])
                assert tgs == sampler(gu, model, t, stream)
                assert samples["stacked"][i, j] == float(reachable_pairs_fraction(tgs))
                pairs = sum(len(c) * (len(c) - 1) for c in smash(tgs).components())
                assert samples["smashed"][i, j] == pairs / (n * (n - 1))
                for m in ms:  # complete m-slot blocks only
                    blocks = GraphletSequence(full.graphlets[:t - t % m]) if t >= m else None
                    coarse = float(reachable_pairs_fraction(m_smash(blocks, m))) if blocks else 0.0
                    assert samples[("msmg", m)][i, j] == coarse


def _unstopped_pairs_block(model, ends, n, t_max, rngs, slot_of, ms):
    """`_pairs_block` drawing every slot up to t_max, as it did before it
    learned to stop once every view is full: the reference for that stop."""
    size, n_edges = len(rngs), ends.shape[1]
    nodes = np.arange(size * n, dtype=np.int32)
    v = nodes % n
    ident = np.zeros((size * n, (n + 63) // 64), dtype=np.uint64)
    ident[nodes, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)
    reach = ident.copy()
    union = nodes
    coarse = {m: ident.copy() for m in ms}
    pending = {m: np.zeros((size, n_edges), dtype=bool) for m in ms}
    coarse_pairs = {m: np.zeros(size, dtype=np.int64) for m in ms}
    views = ["stacked", "smashed"] + [("msmg", m) for m in ms]
    pairs = {view: np.zeros((len(slot_of), size), dtype=np.int64) for view in views}
    chunk = max(1, min(t_max, PAIR_CELLS // (size * max(n, n_edges))))
    offset = np.arange(chunk * size, dtype=np.int32)[:, None] * n
    head, tail = (offset + ends[0]).ravel(), (offset + ends[1]).ravel()
    states = None
    for t0 in range(0, t_max, chunk):
        span = min(chunk, t_max - t0)
        slots = simulate.slot_states(model, states, rngs, span, n_edges)
        states = slots[-1]
        keys = _graph_labels(slots.reshape(span * size, n_edges), n, head, tail)
        keys = keys.reshape(span, size * n) - offset[:span] * size
        for k in range(span):
            t = t0 + k + 1
            reach = close(reach, keys[k])
            moved = keys[k] != nodes
            union = labels(size * n, union[moved], union[keys[k][moved]])[union]
            for m in ms:
                pending[m] |= slots[k]
                if t % m == 0:
                    coarse[m] = close(coarse[m], _graph_labels(pending[m], n, head, tail))
                    coarse_pairs[m] = _pairs(coarse[m], n)
                    pending[m][:] = False
            row = slot_of.get(t)
            if row is not None:
                classes = np.bincount(union, minlength=size * n)
                pairs["stacked"][row] = _pairs(reach, n)
                pairs["smashed"][row] = (classes * classes).reshape(size, n).sum(axis=1) - n
                for m in ms:
                    pairs[("msmg", m)][row] = coarse_pairs[m]
    return pairs


@pytest.mark.parametrize("gu, model, grid, trials, ms, unfilled, stops", [
    # far past saturation, with a t = 0 row, a repeated horizon and an m
    # that does not divide t_max; 400 trials of K7 label 7 slots a chunk
    (UnderlyingGraph.complete(7), ErParams(0.6), [0, 1, 3, 3, 10, 40], 400, (2, 3), 0, True),
    (UnderlyingGraph.complete(7), MarkovParams(0.3, 0.4, p0=0.1), [0, 2, 2, 40], 400, (3,), 0, True),
    # an m greater than t_max never fills its view
    (UnderlyingGraph.complete(7), ErParams(0.6), [0, 5, 20], 400, (3, 25), 0, False),
    # node 14 has no candidate edge, so no trial fills
    (_cycles_and_an_isolated_node(), MarkovParams(0.2, 0.3), [0, 5, 30], 400, (2,), 400, False),
    # one block, 3 slots a chunk: one of the 3,000 trials is not full at t = 20
    (UnderlyingGraph.line(6), ErParams(0.5), [0, 4, 20], 3000, (), 1, False),
    # the last bitset word is partly used, and 30 trials take two blocks
    (UnderlyingGraph.complete(70), ErParams(0.05), [0, 1, 5, 30, 60], 30, (2, 7), 0, True),
])
def test_reachable_pairs_stop_matches_the_unstopped_kernel(monkeypatch, gu, model, grid, trials,
                                                           ms, unfilled, stops):
    # unfilled: trials whose stacked view is not full at t_max
    drawn = []

    def counting(*args):
        slots = slot_states(*args)
        drawn[-1] += len(slots)
        return slots

    monkeypatch.setattr(simulate, "slot_states", counting)
    out = []
    for kernel in (simulate._pairs_block, _unstopped_pairs_block):
        monkeypatch.setattr(simulate, "_pairs_block", kernel)
        drawn.append(0)
        out.append(reachable_pairs_samples(model, gu, grid, trials, seed=5, ms=ms))
    got, want = out
    assert got.keys() == want.keys()
    for view in want:
        assert np.array_equal(got[view], want[view])
    assert (want["stacked"][:, -1] < 1.0).sum() == unfilled
    assert (drawn[0] < drawn[1]) == stops


@pytest.mark.parametrize("model, chunks", [
    (ErParams(1.0), [1]),  # every view full from slot 1
    (MarkovParams(1.0, 0.0, p0=0.0), [1, 2]),  # no edge in slot 1, every edge from slot 2
])
def test_reachable_pairs_chunks_double_from_one_slot(monkeypatch, model, chunks):
    # chunks of 1, 2, 4, ... slots: a block full at slot t draws fewer than 2t slots
    drawn = []

    def counting(*args):
        slots = slot_states(*args)
        drawn.append(len(slots))
        return slots

    monkeypatch.setattr(simulate, "slot_states", counting)
    out = reachable_pairs_samples(model, UnderlyingGraph.complete(6), [1, 10, 40], 20, seed=2,
                                  ms=(1,))
    assert drawn == chunks
    assert all((m[:, -1] == 1.0).all() for m in out.values())


def test_labels_give_each_component_its_lowest_member():
    rng = np.random.default_rng(3)
    graphs = [(30, [(29, v) for v in range(29)]), (4, [])]  # a star hooked at its highest id
    for _ in range(40):
        size = int(rng.integers(1, 40))
        graphs.append((size, rng.integers(0, size, (int(rng.integers(0, 2 * size)), 2)).tolist()))
    for size, edges in graphs:
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        want = np.arange(size)
        for comp in SmashedGraph(range(size), [(u, v) for u, v in edges if u != v]).components():
            want[list(comp)] = min(comp)
        assert np.array_equal(labels(size, ends[:, 0], ends[:, 1]), want)


def test_close_ors_the_rows_of_each_group():
    rng = np.random.default_rng(4)
    size = 50
    key = labels(size, rng.integers(0, size, 30), rng.integers(0, size, 30))
    reach = rng.integers(0, 2**63, (size, 2), dtype=np.uint64)
    want = np.array([np.bitwise_or.reduce(reach[key == k], axis=0) for k in key])
    assert np.array_equal(close(reach.copy(), key), want)


def test_reachable_pairs_separate_calls_share_samples():
    gu = UnderlyingGraph.complete(5)
    grid = [1, 3, 5]
    a = empirical_reachable_pairs(ErParams(0.2), gu, grid, trials=40, seed=4, representation="stacked")
    b = reachable_pairs_samples(ErParams(0.2), gu, grid, trials=40, seed=4)
    for (t, mean, _), j in zip(a, range(len(grid))):
        assert mean == pytest.approx(float(b["stacked"][:, j].mean()), abs=1e-15)


def test_reachable_pairs_smashed_matches_closed_form():
    # fraction restricted to the (0, n-1) pair equals the union closed form;
    # here check the mean smashed fraction against sampling the union directly
    gu = UnderlyingGraph.line(5)
    t = 4
    samples = reachable_pairs_samples(ErParams(0.3), gu, [t], trials=4_000, seed=5)
    # P(0 reaches 4 in the union) from the closed form; the empirical analog is
    # the fraction of samples whose union connects the line ends
    connected_ends = 0
    for trial in range(4_000):
        tgs = sample_er_tgs(gu, ErParams(0.3), t, seed=(5, trial))
        from tvgraph.temporal import smash

        connected_ends += smash(tgs).connected(0, 4)
    want = smashed_reach_cdf(5, 0.3, t)
    assert connected_ends / 4_000 == pytest.approx(want, abs=0.025)


def test_mc_smashed_closed_form_vs_sampling():
    gu = UnderlyingGraph.line(6)
    params = MarkovParams(0.5, 0.05)
    t = 10
    connected = 0
    trials = 20_000
    for trial in range(trials):
        tgs = sample_markov_tgs(gu, params, t, seed=(6, trial))
        from tvgraph.temporal import smash

        connected += smash(tgs).connected(0, 5)
    assert connected / trials == pytest.approx(mc_smashed_reach_cdf(6, params, t), abs=0.005)


def test_coarsened_chain_reach_vs_sampling():
    # sampled chain lines, smashed in blocks of m, their ends joined by a journey
    n, params, m, blocks, trials = 5, MarkovParams(0.3, 0.2), 3, 6, 4_000
    curve = reach_curve(n, params, m, blocks)
    gu = UnderlyingGraph.line(n)
    reached = [0] * (blocks + 1)
    for trial in range(trials):
        coarse = m_smash(sample_markov_tgs(gu, params, m * blocks, seed=(8, trial)), m)
        for b in range(1, blocks + 1):
            reached[b] += t_reachable(GraphletSequence(coarse.graphlets[:b]), 0, n - 1)[0]
    for b in range(1, blocks + 1):
        se = math.sqrt(curve[b] * (1.0 - curve[b]) / trials)
        assert abs(reached[b] / trials - curve[b]) <= 4 * se


def test_reachable_pairs_validation():
    gu = UnderlyingGraph.complete(4)
    with pytest.raises(ValueError):
        reachable_pairs_samples(ErParams(0.5), gu, [1], trials=0, seed=0)
    with pytest.raises(ValueError):
        reachable_pairs_samples(ErParams(0.5), gu, [-1], trials=5, seed=0)
    with pytest.raises(ValueError):
        empirical_reachable_pairs(ErParams(0.5), gu, [1], trials=5, seed=0, representation="x")
    for ms in ((0,), (True,), (2.0,)):
        with pytest.raises(ValueError):
            reachable_pairs_samples(ErParams(0.5), gu, [1], trials=5, seed=0, ms=ms)
    with pytest.raises(ValueError):  # no ordered pairs to count
        reachable_pairs_samples(ErParams(0.5), UnderlyingGraph.complete(1), [1], trials=5, seed=0)


@pytest.mark.parametrize("grid", [[1.5, 3], [2.0], [True, 2], [3, "4"]])
def test_reachable_pairs_rejects_non_integer_horizons(grid):
    # 1.5 used to give an all-0.0 column, and a float t_max a bare TypeError
    with pytest.raises(ValueError, match="horizons must be integers, got"):
        reachable_pairs_samples(ErParams(0.5), UnderlyingGraph.complete(4), grid, trials=5, seed=0)


def test_reachable_pairs_takes_numpy_integer_horizons():
    gu = UnderlyingGraph.complete(4)
    got = reachable_pairs_samples(ErParams(0.5), gu, np.arange(4), trials=5, seed=0)
    want = reachable_pairs_samples(ErParams(0.5), gu, [0, 1, 2, 3], trials=5, seed=0)
    assert all(np.array_equal(got[view], want[view]) for view in want)


def test_empirical_reachable_pairs_needs_two_trials():
    # one trial has no standard error; it used to come back as an exact-looking 0.0
    gu = UnderlyingGraph.complete(5)
    for trials in (0, 1):
        with pytest.raises(ValueError, match="standard errors need two trials"):
            empirical_reachable_pairs(ErParams(0.3), gu, [1, 3], trials, 0)
    assert [t for t, _, _ in empirical_reachable_pairs(ErParams(0.3), gu, [1, 3], 2, 0)] == [1, 3]
