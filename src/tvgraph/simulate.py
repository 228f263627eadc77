"""Monte Carlo replay of message forwarding over sampled edge processes.

Per trial the engine walks the slots of a sampled (or supplied) sequence
and applies the forwarding discipline: store-or-advance moves one hop
when the next edge is up and the hop consumes that slot; cut-through
jumps the whole currently-connected stretch for free and only waiting
costs slots.  Delivery inside the very first cut-through component
counts as latency zero.

Engines: the path engine (`_path_block`) replays store-or-advance along
its fixed shortest path, and cut-through with the default rank when the
destination's component is a tree, by deferred decisions and one event per
step: store-or-advance draws one uniform per hop, the slots that hop takes;
cut-through draws two per stop at an edge seen OFF, the wait there and the
run of ON edges crossed after it.  Its cost follows the number of waits,
not the latency in slots.  The adaptive engine (`_adaptive_block`) replays
acceptance-list policies under independent churn the same way, one event
per move: one uniform per trial and move counts the OFF (slot, list entry)
cells before the first ON one, which gives both the slots the move takes
and the neighbor it reaches.  The cut-through labelling kernel
(`_cut_block`) replays every other cut-through as array code over blocks
of trials: each slot it draws every edge of dest's component, labels the
slot's components with `labels` and jumps each message to its component's
lowest node in (rank, id) order.  A per-trial python walk replays callable
policies over lazily sampled slots.

Reproducibility: draws come from numpy PCG64 streams.  The path and
adaptive engines give each fixed block of 8192 trials its own child
stream, SeedSequence(seed, spawn_key=(1, block)), and the labelling kernel
does the same for each block of about CUT_CELLS / (component edges)
trials, so results are deterministic and independent of how blocks would
be scheduled.  The per-trial walk and the reachable-pairs kernel give each
trial SeedSequence(seed, spawn_key=(trial,)), a disjoint key space, so no
block replays a trial's stream.  A replay caps each trial at a horizon of
at least one slot.  Undelivered trials are reported, never dropped.

Every edge state comes from `models.slot_states`: the reachable-pairs
kernel draws a block of trials' slots through it, one stream per trial;
the per-trial walk through `models.sample_slots`, which calls it with one
stream and yields each slot as a `Graphlet` of index arrays; and the
labelling kernel draws each chunk of slots of a block's live trials with
one call on the block stream.  So trial i sees the same edge states in
slot t in every view that reads its stream.  The walks read each slot's
edges as an index array into sorted ids and build no edge set: the
per-trial walk the `_ends` of each sampled slot, and `replay_soa` and
`replay_cut` each slot's run of the given sequence's slot table, beside
the slot union they take from that table, so they build no slot object.

Reachable-pair curves are array code over blocks of trials that keep the
per-trial streams: each trial's slots are exactly the ones
sample_*_tgs(gu, model, T, SeedSequence(seed, spawn_key=(trial,))) draws.
One numpy component labeller (`labels`) and one closure step on uint64
reach bitsets (`close`) serve the stacked, smashed and m-smashed views,
and PAIR_CELLS candidate-edge cells per draw and labelling call bound the
working memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import LatencyPmf
from .models import (ErParams, MarkovParams, UnderlyingGraph, _candidate_hops, sample_slots, shortest_path,
                     slot_states)
from .temporal import _block_unions, _id_pairs, adjacency, bfs

__all__ = [
    "TrialResult",
    "EmpiricalPmf",
    "default_horizon",
    "replay_soa",
    "replay_cut",
    "simulate_soa",
    "simulate_cut",
    "empirical_reachable_pairs",
    "reachable_pairs_samples",
]

BLOCK_TRIALS = 8192
# Candidate-edge cells per block of cut-through trials: uniforms drawn per
# chunk of slots, and edge states labelled per slot.  A sweep of 2^14 ..
# 2^18 put the K20 cut-through of the mesh bench at its fastest here.  The
# path engine draws the settled hops of store-or-advance in chunks of as
# many uniforms.
CUT_CELLS = 1 << 17


@dataclass(frozen=True)
class TrialResult:
    """One replayed trial: latency in slots (None if undelivered) and the
    per-slot (node, slot) trajectory starting at (source, 0)."""

    latency: int | None
    trajectory: tuple


@dataclass(eq=False)
class EmpiricalPmf:
    """Latency histogram over a fixed trial count, undelivered kept separate."""

    counts: np.ndarray
    trials: int
    undelivered: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if int(self.counts.sum()) + self.undelivered != self.trials:
            raise ValueError("counts plus undelivered must equal the trial count")

    @classmethod
    def from_latencies(cls, latencies, trials):
        """latencies: integer array with -1 marking undelivered trials."""
        latencies = np.asarray(latencies)
        delivered = latencies[latencies >= 0]
        counts = np.bincount(delivered) if delivered.size else np.zeros(0, dtype=np.int64)
        return cls(counts, trials, int(trials - delivered.size))

    def fraction(self, latency):
        if 0 <= latency < len(self.counts):
            return self.counts[latency] / self.trials
        return 0.0

    def delivered(self):
        return self.trials - self.undelivered

    def mean(self):
        d = self.delivered()
        if d == 0:
            raise ValueError("no delivered trials")
        values = np.arange(len(self.counts))
        return float((values * self.counts).sum() / d)

    def variance(self):
        mean = self.mean()
        values = np.arange(len(self.counts))
        return float((((values - mean) ** 2) * self.counts).sum() / self.delivered())

    def stderr_mean(self):
        d = self.delivered()
        if d < 2:
            raise ValueError("need at least two delivered trials")
        return math.sqrt(self.variance() / d)

    def nonzero_items(self):
        return [(int(v), int(c)) for v, c in enumerate(self.counts) if c]

    def total_variation(self, pmf: LatencyPmf):
        """TV distance to an analytic PMF, comparing the shared integer support
        plus one tail bucket (undelivered vs. analytic mass past the histogram)."""
        top = len(self.counts)
        diff = 0.0
        analytic_tail = pmf.truncation_mass
        for latency, mass in zip(pmf.support(), pmf.masses):
            if latency < top:
                diff += abs(self.fraction(latency) - mass)
            else:
                analytic_tail += mass
        for latency in range(min(top, pmf.offset)):
            diff += self.fraction(latency)
        for latency in range(pmf.offset + len(pmf.masses), top):
            diff += self.fraction(latency)
        diff += abs(self.undelivered / self.trials - analytic_tail)
        return 0.5 * diff


def default_horizon(n, p):
    """Default trial cap: 20 (n-1) / p slots, and at least one."""
    if p <= 0.0:
        raise ValueError("p must be positive")
    horizon = 20 * (n - 1) / p
    if math.isinf(horizon):
        raise ValueError(f"p = {p!r} gives no finite default horizon; pass a horizon")
    return max(1, math.ceil(horizon))


# --- single-trial replays on a materialized sequence -------------------------


def replay_soa(tgs, source, dest, next_hop=None):
    """Replay store-or-advance forwarding over one sequence.

    With no policy the message follows a fixed shortest path of the slot
    union, waiting at each hop for its edge.  A callable policy
    next_hop(node, on_neighbors) may return the neighbor to move to, or
    None to wait.  An unknown source or dest is a ValueError.  The walk
    reads each slot's run of the sequence's slot table (`_slot_ends`) and
    builds no slot.
    """
    union = _slot_union(tgs, source, dest)
    if union is None:
        return TrialResult(0, ((source, 0),))
    if next_hop is None:
        path = shortest_path(union, source, dest)
        if path is None:
            raise ValueError(f"{dest!r} is not connected to {source!r} in the slot union")
        hops = {path[i]: path[i + 1] for i in range(len(path) - 1)}

        def next_hop(u, on_neighbors):
            want = hops[u]
            return want if want in on_neighbors else None

    latency, trajectory = _soa_walk(union.nodes, tgs._slot_ends(), source, dest, next_hop)
    return TrialResult(latency, tuple(trajectory))


def _slot_union(tgs, source, dest):
    """The replays' preamble: after checking that source and dest are ids of
    `tgs`, None when they are equal, else the union of its slots as a
    candidate graph on the sorted ids its slot table indexes."""
    if source not in tgs.node_ids or dest not in tgs.node_ids:
        raise ValueError(f"unknown node {source!r} or {dest!r}")
    if source == dest:
        return None
    ids, _, pairs = _block_unions(tgs, tgs.horizon)
    return UnderlyingGraph._from_ends(ids, pairs, None)


def _soa_walk(ids, slot_ends, source, dest, next_hop):
    """Store-or-advance walk over the slots whose edges `slot_ends` gives as
    index arrays into the sorted ids `ids`: (latency or None, trajectory)."""
    cur = source
    trajectory = [(source, 0)]
    for t, ends in enumerate(slot_ends, start=1):
        pairs = _id_pairs(ids, ends)
        on_neighbors = frozenset(v if u == cur else u for u, v in pairs if cur in (u, v))
        move = next_hop(cur, on_neighbors)
        if move is not None:
            if move not in on_neighbors:
                raise ValueError(f"policy chose {move!r}, not an up neighbor of {cur!r}")
            cur = move
        trajectory.append((cur, t))
        if cur == dest:
            return t, trajectory
    return None, trajectory


def replay_cut(tgs, source, dest, rank=None):
    """Replay cut-through forwarding over one sequence.

    Each slot the message jumps, for free, to the best node of its current
    component (lowest rank, ties by id; default rank is hop distance to
    dest in the slot union); if dest is in the component the trial ends at
    latency slot-1.  Otherwise the slot is spent waiting.  An unknown source
    or dest is a ValueError.  The walk reads each slot's run of the
    sequence's slot table (`_slot_ends`) and builds no slot.
    """
    union = _slot_union(tgs, source, dest)
    if union is None:
        return TrialResult(0, ((source, 0),))
    if rank is None:
        rank = {v: math.inf if h < 0 else h for v, h in zip(union.nodes, _candidate_hops(union, dest))}
    cur = source
    trajectory = [(source, 0)]
    for t, ends in enumerate(tgs._slot_ends(), start=1):
        comp = bfs(adjacency(_id_pairs(union.nodes, ends)), [cur])
        if dest in comp:
            trajectory.append((dest, t))
            return TrialResult(t - 1, tuple(trajectory))
        cur = min(comp, key=lambda v: (rank[v], v))
        trajectory.append((cur, t))
    return TrialResult(None, tuple(trajectory))


# --- vectorized engines -------------------------------------------------------


def _block_streams(seed, trials, block=BLOCK_TRIALS):
    """Each block's stream and size, `block` trials a block but the last;
    keys (1, block) never meet a trial's (trial,)."""
    for k, start in enumerate(range(0, trials, block)):
        size = min(block, trials - start)
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, k))), size


def _run_blocks(seed, trials, replay_block, *args, block=BLOCK_TRIALS):
    """Run `replay_block(*args, rng, size)` on each block stream and pool the
    latencies (-1 undelivered) of all `trials` trials."""
    parts = [replay_block(*args, rng, size) for rng, size in _block_streams(seed, trials, block)]
    return EmpiricalPmf.from_latencies(np.concatenate(parts), trials)


def _trial_stream(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _log_uniforms(rng, shape):
    """log(1 - u) of uniforms u in [0, 1), each in [-36.8, -8.7e-19].  Adding
    2**-60 to u keeps every value below zero, so even at u = 0 a count with
    an infinite mean comes out huge, never 0 or nan (see _clamped_log)."""
    u = rng.random(shape)
    return np.log1p(np.subtract(-(2.0 ** -60), u, out=u), out=u)


def _clamped_log(x):
    """log(x) of probabilities x, clamped to [log 1e-290, -1e-290].  For y from
    _log_uniforms, ceil(y / _clamped_log(x)) is a geometric count on 1, 2, ...
    with P(count > j) = x^j: 1 at x <= 0, and 1e271 or more, past any
    horizon, at x >= 1; sums of fewer than 1e15 such counts stay finite."""
    return np.minimum(np.log(np.clip(x, 1e-290, 1.0)), -1e-290)


def _steady_slot(pi, p0, r):
    """An e >= 0 with pi + (p0 - pi) r^k == pi in floating point for every
    k >= e, so that every edge first watched in slot e+1 or later is ON with
    pi; inf when the marginal never settles (|r| = 1, or pi = 0)."""
    if p0 == pi:
        return 0
    if r == 0.0:
        return 1
    if abs(r) >= 1.0 or pi < 1e-290:
        return math.inf
    # |p0 - pi| |r|^e <= pi 2^-56 is below half the spacing of doubles at pi
    return max(1, math.ceil(math.log(pi * 2.0 ** -56 / abs(p0 - pi)) / math.log(abs(r))) + 1)


def _hop_slots(y, m, log_q):
    """Slots a store-or-advance hop takes, given y from _log_uniforms and the
    marginal m of its edge when first watched: 1 with chance m (y above
    log(1 - m)), else 1 + Geometric(p), with log_q = _clamped_log(1 - p).
    Overwrites y."""
    y -= _clamped_log(1.0 - m)
    np.ceil(np.divide(y, log_q, out=y), out=y)
    return np.maximum(y, 0.0, out=y) + 1.0


def _path_block(model, n_edges, metric, horizon, rng, size):
    """Replay `size` trials along a fixed path of n_edges edges; returns
    latencies (-1 undelivered).

    Deferred decisions, one event per step: edges are independent, and a
    message watches one edge at a time, so only the waits at the edges it
    meets need drawing.  An edge first watched in slot t is ON with its
    marginal m(t) = pi + (p0 - pi) r^(t-1), r = 1 - p - q (p under
    independent churn, p0 when p + q = 0); once seen OFF it comes up after
    Geometric(p) slots.  Every count is one uniform, inverted
    (_log_uniforms, _clamped_log), so p = 0, p = 1 and marginals of 0 or 1
    need no branch.

    Store-or-advance takes one step per hop: the hop takes 1 slot with
    chance m(t), else 1 + Geometric(p).  From the slot where every trial's
    marginal has settled to pi (_steady_slot), hop times are independent of
    the past, so the remaining hops are drawn as arrays of about CUT_CELLS
    uniforms and summed; either way hop k of trial i uses uniform
    k * size + i.  Cut-through takes one step per stop: in slot 1 the
    message crosses the run of ON edges from the source, geometric with
    parameter p0; at each stop, an edge seen OFF, it waits Geometric(p)
    slots and then crosses that edge and the run of fresh ON edges after
    it, geometric with parameter m at that slot: two uniforms.  A
    store-or-advance trial is delivered when its latency is at most the
    horizon, a cut-through trial when it reaches dest by slot horizon.
    """
    p, r = model.p, 0.0
    pi = p0 = p
    if isinstance(model, MarkovParams):
        p0, r = model.p0, 1.0 - p - model.q
        pi = p0 if p + model.q == 0.0 else p / (p + model.q)
    steady = _steady_slot(pi, p0, r)
    log_q = _clamped_log(1.0 - p)
    if metric == "soa":
        if horizon < n_edges:  # every hop takes a slot at least
            return np.full(size, -1, dtype=np.int64)
        steady = min(steady, n_edges)
        t = np.zeros(size)  # slots spent
        for _ in range(steady):
            t += _hop_slots(_log_uniforms(rng, size), pi + (p0 - pi) * r ** t, log_q)
        rows = max(1, CUT_CELLS // size)
        for k in range(steady, n_edges, rows):
            t += _hop_slots(_log_uniforms(rng, (min(rows, n_edges - k), size)), pi, log_q).sum(axis=0)
        return np.where(t <= horizon, t, -1).astype(np.int64)
    latency = np.full(size, -1, dtype=np.int64)
    edge = np.floor(_log_uniforms(rng, size) / _clamped_log(p0))  # first OFF edge in slot 1
    latency[edge >= n_edges] = 0
    orig = np.flatnonzero((edge < n_edges) & (horizon > 1))  # else it would arrive too late
    state = np.stack([np.ones(orig.size), edge[orig]])  # (slot, edge) of each stop
    limit = np.array([[horizon], [n_edges]])  # a stop in slot horizon is too late
    logs = np.array([[log_q], [_clamped_log(pi)]])
    step = 0
    while orig.size:
        step += 1
        y = _log_uniforms(rng, (2, orig.size))
        if step < steady:
            state[0] += np.ceil(y[0] / log_q)
            m = pi + (p0 - pi) * r ** (state[0] - 1.0)
            state[1] += np.ceil(y[1] / _clamped_log(m))
        else:
            state += np.ceil(np.divide(y, logs, out=y), out=y)
        done = state >= limit
        if done.any():
            late, arrived = done
            delivered = arrived & (state[0] <= horizon)
            latency[orig[delivered]] = state[0][delivered] - 1
            keep = ~(late | arrived)
            orig, state = orig[keep], state.compress(keep, axis=1)
    return latency


def _adaptive_block(flat, start, source, dest, log_q, horizon, rng, size):
    """Replay `size` trials of the policy "move to the first currently-up
    neighbor in your acceptance list, else wait"; returns latencies (-1
    undelivered).  Node u's list is flat[start[u]:start[u + 1]], as indices.

    Deferred decisions, one event per move: under independent churn the
    cells (slot, list position) that a message at a node with a k-long list
    watches are iid ON with p in slot-major order, so the number G of OFF
    cells before the first ON one is Geometric(p) on 0, 1, ...: one uniform
    y per live trial and move, G = floor(y / log_q) with
    log_q = _clamped_log(1 - p), so p = 1 gives G = 0 and p = 0 a G past any
    horizon.  The move takes G // k + 1 slots and goes to list entry G % k;
    the next node's edges are fresh.  Every live trial has made one move
    per step, so its slot is the slots it waited plus the step.  A trial
    ends undelivered when its move lands past the horizon, or away from
    dest at the horizon or at a node with an empty list; so no trial takes
    more steps than slots.
    """
    length = np.diff(start)
    # per list entry: where the listed node's own list starts, its length,
    # and whether a move there ends the trial
    head, k_next = start[flat], length[flat].astype(float)
    stops = (flat == dest) | (k_next == 0)
    latency = np.full(size, -1, dtype=np.int64)
    orig = np.arange(size if length[source] else 0)
    base = np.full(orig.size, start[source])
    k = np.full(orig.size, float(length[source]))
    wait = np.zeros(orig.size)
    step = 0
    while orig.size:
        step += 1
        y = _log_uniforms(rng, orig.size)
        y /= log_q
        slots = np.floor(y / k)
        wait += slots
        y -= k * slots  # G % k; the clip guards the rounding of a G past 2**52
        entry = base + np.clip(y, 0.0, k - 1.0, out=y).astype(np.int64)
        ended = stops[entry] | (wait >= horizon - step)  # no later move lands in time
        if ended.any():
            arrived = ended & (flat[entry] == dest) & (wait <= horizon - step)
            latency[orig[arrived]] = wait[arrived] + step
            keep = ~ended
            orig, entry, wait = orig[keep], entry[keep], wait[keep]
        base, k = head[entry], k_next[entry]
    return latency


def _run_trial_walks(next_hop, model, gu, source, dest, horizon, trials, seed):
    """Per-trial python store-or-advance replay of a callable policy over
    lazily sampled slots, one stream per trial (any edge model)."""
    latencies = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        slots = sample_slots(gu, model, horizon, _trial_stream(seed, trial))
        latency, _ = _soa_walk(gu.nodes, (g._ends for g in slots), source, dest, next_hop)
        latencies[trial] = -1 if latency is None else latency
    return EmpiricalPmf.from_latencies(latencies, trials)


def _cut_block(model, ends, n, source, dest, horizon, rng, size):
    """Cut-through latencies (-1 undelivered) of `size` trials drawn by the
    block stream `rng`, over n nodes indexed in (rank, id) order.

    Each chunk of at most t+1 slots and about CUT_CELLS cells is one
    `slot_states` call on `rng` over the live trials' cells of the
    candidate edges whose ends are `ends`, read as (slots, live trials,
    edges): the uniforms of `rng.random((span, live trials, edges))`.
    `labels` gives each node its component's lowest index, which is the
    node a message there jumps to; it is delivered once that label is
    dest's.  States drawn past a trial's delivery go unused.
    """
    n_edges = ends.shape[1]
    offset = np.arange(size, dtype=np.int32)[:, None] * n
    head, tail = (offset + ends[0]).ravel(), (offset + ends[1]).ravel()
    orig = np.arange(size)
    cur = np.full(size, source, dtype=np.int32)
    latency = np.full(size, -1, dtype=np.int64)
    states, t = None, 0
    while orig.size and t < horizon:
        span = min(t + 1, horizon - t, max(1, CUT_CELLS // (orig.size * n_edges)))
        slots = slot_states(model, states, [rng], span, orig.size * n_edges)
        slots = slots.reshape(span, orig.size, n_edges)
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
        states = slots[-1, rows].ravel()
    return latency


def _acceptance_arrays(gu, index, next_hop):
    """The acceptance lists {node: ordered neighbors} as CSR arrays over
    `index`, each node's position in `gu.nodes`: node i's list is
    flat[start[i]:start[i + 1]].
    Raises ValueError at the first list, in key order, whose key is not a
    node, naming the key; else its first entry, in list order, that is not
    a node or not a candidate neighbor of the key (`gu._adjacency`); else
    its repeats."""
    tails, start = gu._adjacency
    lists = [()] * len(index)
    for u, cand in next_hop.items():
        if u not in index:
            raise ValueError(f"acceptance list key {u!r} is not a node")
        i, cand = index[u], tuple(cand)
        near = set(tails[start[i]:start[i + 1]])
        for v in cand:
            if v not in index:
                raise ValueError(f"acceptance list of {u!r} names unknown node {v!r}")
            if index[v] not in near:
                raise ValueError(f"acceptance list of {u!r} names {v!r}, which is not its neighbor")
        if len(set(cand)) < len(cand):
            raise ValueError(f"acceptance list of {u!r} repeats an entry: {cand!r}")
        lists[i] = [index[v] for v in cand]
    return np.array([j for row in lists for j in row], dtype=np.int64), np.cumsum([0, *map(len, lists)])


def _check_replay(model, gu, source, dest, horizon, trials):
    """The horizon of a replay, after checking its endpoints, trials >= 1 and
    horizon >= 1.  None means default_horizon, unless source == dest: a
    message already at dest needs no cap."""
    if source not in gu.nodes or dest not in gu.nodes:
        raise ValueError(f"unknown node {source!r} or {dest!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon is None and source != dest:
        horizon = default_horizon(len(gu.nodes), model.p)
    return horizon


def _adaptive_replay(model, gu, source, dest, horizon, trials, seed, acceptance):
    """The adaptive replay's one entry: `_adaptive_block` on block streams,
    over the CSR acceptance arrays `acceptance(index)` returns, where index
    maps each node to its position in `gu.nodes` (see `_acceptance_arrays`).
    The endpoints, trials and horizon are checked (`_check_replay`) before
    `acceptance` is called, and a message already at dest needs no lists."""
    horizon = _check_replay(model, gu, source, dest, horizon, trials)
    if source == dest:
        return EmpiricalPmf(np.array([trials]), trials, 0)
    if not isinstance(model, ErParams):
        raise ValueError("adaptive acceptance lists assume the independent-churn model")
    index = {v: i for i, v in enumerate(gu.nodes)}
    flat, start = acceptance(index)
    return _run_blocks(
        seed, trials, _adaptive_block,
        flat, start, index[source], index[dest], _clamped_log(1.0 - model.p), horizon,
    )


def simulate_soa(model, gu, source, dest, horizon=None, trials=10_000, seed=0, next_hop=None):
    """Empirical store-or-advance latency distribution.

    next_hop=None forwards along a fixed BFS shortest path of the
    candidate graph (on a line: hop by hop toward dest).  A dict
    {node: ordered acceptance tuple} replays the adaptive policy "move to
    the first currently-up listed neighbor" (independent-churn model
    only), one event per move on block streams; a node without a list, or
    with an empty one, never moves.  Each key must be a node and each list
    distinct candidate neighbors of its key, else ValueError.  A
    callable(node, on_neighbors) is replayed per trial.
    """
    if isinstance(next_hop, dict):
        return _adaptive_replay(model, gu, source, dest, horizon, trials, seed,
                                lambda index: _acceptance_arrays(gu, index, next_hop))
    horizon = _check_replay(model, gu, source, dest, horizon, trials)
    if source == dest:
        return EmpiricalPmf(np.array([trials]), trials, 0)
    if next_hop is None:
        hops = _candidate_hops(gu, dest)[gu.nodes.index(source)]
        if hops < 0:
            raise ValueError(f"{dest!r} is unreachable from {source!r} in the candidate graph")
        return _run_blocks(seed, trials, _path_block, model, hops, "soa", horizon)
    if callable(next_hop):
        return _run_trial_walks(next_hop, model, gu, source, dest, horizon, trials, seed)
    raise TypeError("next_hop must be None, a dict of acceptance tuples, or a callable")


def simulate_cut(model, gu, source, dest, horizon=None, trials=10_000, seed=0, rank=None):
    """Empirical cut-through latency distribution.

    Each slot the message jumps to the node of minimum rank (default: hop
    distance to dest; ties by id) in its current component.  The message
    never leaves dest's component of gu, so an explicit rank must cover
    that component.  When the component is a tree and the rank is the
    default, the node jumped to lies on the one source-dest path and the
    trials replay that path with the path engine, on per-block streams.
    Otherwise blocks of about CUT_CELLS / (component edges) trials replay
    every edge of the component as array code, each block on its own stream
    (`_cut_block`): the nodes are indexed in (rank, id) order, so the
    lowest index `labels` gives a component is the node jumped to.
    """
    horizon = _check_replay(model, gu, source, dest, horizon, trials)
    if source == dest:
        return EmpiricalPmf(np.array([trials]), trials, 0)
    hops = _candidate_hops(gu, dest)
    source_hops = hops[gu.nodes.index(source)]
    if source_hops < 0:
        raise ValueError(f"{dest!r} is unreachable from {source!r} in the candidate graph")
    comp = [v for v, h in zip(gu.nodes, hops) if h >= 0]
    if rank is None:
        in_comp = np.array(hops) >= 0
        if np.count_nonzero(in_comp[gu._ends[0]]) == len(comp) - 1:  # a tree
            return _run_blocks(seed, trials, _path_block, model, source_hops, "cut", horizon)
        rank = dict(zip(gu.nodes, hops))
    for v in comp:
        if v not in rank:
            raise ValueError(f"rank has no entry for node {v!r} of {dest!r}'s component")
    index = {v: i for i, v in enumerate(sorted(comp, key=lambda v: (rank[v], v)))}
    ends = np.array([index.get(v, -1) for v in gu.nodes], dtype=np.int32)[gu._ends]
    ends = ends[:, ends[0] >= 0]  # the component's edges
    return _run_blocks(
        seed, trials, _cut_block, model, ends, len(index), index[source], index[dest], horizon,
        block=max(1, CUT_CELLS // ends.shape[1]),
    )


# --- reachable-pairs curves ---------------------------------------------------

# Reachable-pair work per array call: candidate-edge cells drawn and
# labelled, and bitset words of each view per block of trials.  A sweep of
# 2^14 .. 2^18 put the mesh compare ops at their fastest from 2^15 to 2^17;
# 2^16 holds a slot of every trial of a K50 compare in one labelling call,
# at half the working memory of 2^17.
PAIR_CELLS = 1 << 16
_BITS = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def labels(size, a, b):
    """Connected components of the graph on nodes 0..size-1 with edges (a, b).

    Returns each node's lowest-index component member, in the dtype of `a`.
    Each round every edge between two trees offers the smaller root to the
    larger, and each root hooks to the smallest root offered
    (`np.minimum.at`), then pointers jump until every node points at its
    root.  Edges inside one tree drop out for good.  Taking the minimum
    makes the round count independent of which write lands last: a star
    whose hub has the highest index closes in two rounds (the hub hooks to
    leaf 0, then every other leaf does), where a last-write-wins hook can
    take one leaf per round.
    """
    lab = np.arange(size, dtype=a.dtype)
    la, lb = a, b
    while True:
        live = la != lb
        if not live.any():
            return lab
        a, b, la, lb = a[live], b[live], la[live], lb[live]
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = lab[lab]
            if (up == lab).all():
                break
            lab = up
        la, lb = lab[a], lab[b]


def close(reach, key):
    """One closure step on bitset rows: every row takes the OR of the rows
    that share its key, and the new rows are returned.  Each key is the
    lowest row index of its group (as `labels` gives), so each group is
    ORed into its key row in place (`np.bitwise_or.at`) and gathered from
    there.  A key row ORs in only itself and rows that are not keys,
    which are never written, so the order of the scattered writes does
    not matter."""
    np.bitwise_or.at(reach, key, reach)
    return reach[key]


def _graph_labels(on, n, head, tail):
    """Lowest-member labels of the graphs `on` (graphs x candidate edges,
    bool) over n nodes each, as indices into the flattened (graphs x n);
    head and tail hold both ends of every cell of `on`, flattened."""
    cells = np.flatnonzero(on)
    return labels(on.shape[0] * n, head[cells], tail[cells])


def _pairs(reach, n):
    """Per-trial count of ordered pairs u != v with bit u set in row v."""
    bits = _BITS[reach.view(np.uint8)].reshape(-1, n * reach.shape[1] * 8)
    return bits.sum(axis=1, dtype=np.int64) - n


def _pairs_block(model, ends, n, t_max, rngs, slot_of, ms):
    """Ordered reachable pairs (u != v) of every view for the trials drawn by
    `rngs`: {view: (horizons x trials)}, row slot_of[t] at horizon t.

    Node v of trial i is row i*n + v.  In the bitsets of the stacked and
    m-smashed views bit u of row v is set when u reaches v; the smashed
    view keeps each row's union class as its lowest row.

    Slots are drawn and labelled in chunks of at most t+1 slots (1, 2, 4,
    ...) and about PAIR_CELLS cells.  A view only gains pairs, so the scan
    stops after the chunk of slots in which every stacked and every
    m-smashed bitset row is full, fewer than 2t slots for a block full at
    slot t, and every later grid row takes n(n-1).  The smashed view needs
    no check of its own: each stacked pair is a smashed pair of the same
    sample, so a full stacked view makes each trial one union class.
    """
    size, n_edges = len(rngs), ends.shape[1]
    nodes = np.arange(size * n, dtype=np.int32)
    v = nodes % n
    ident = np.zeros((size * n, (n + 63) // 64), dtype=np.uint64)
    ident[nodes, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)
    full = np.bitwise_or.reduce(ident[:n])
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
    states, t = None, 0
    while t < t_max:
        span = min(t + 1, chunk, t_max - t)
        slots = slot_states(model, states, rngs, span, n_edges)
        states = slots[-1]
        keys = _graph_labels(slots.reshape(span * size, n_edges), n, head, tail)
        keys = keys.reshape(span, size * n) - offset[:span] * size
        for k in range(span):
            t += 1
            reach = close(reach, keys[k])
            # merge the union classes that a slot component joins
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
        if (reach == full).all() and all((c == full).all() for c in coarse.values()):
            done = sum(s <= t for s in slot_of)  # rows are in horizon order
            for p in pairs.values():
                p[done:] = n * (n - 1)
            break
    return pairs


def reachable_pairs_samples(model, gu, horizon_grid, trials, seed, ms=()):
    """Per-trial reachable-pair fractions on shared samples.

    Returns {"stacked": M, "smashed": M, ("msmg", m): M ...} where M is a
    (trials x grid) array; row i of every matrix is computed from the same
    sampled sequence, the one sample_*_tgs(gu, model, T,
    SeedSequence(seed, spawn_key=(i,))) draws, so stacked <= coarsened <=
    smashed holds per sample.  The graph needs n >= 2 nodes, of any ids
    that compare: pair counts read positions in the sorted ids.  Grid
    entries are horizons; a coarsened column reflects floor(T/m) complete
    blocks.

    Trials run in blocks as array code: each slot's components come from
    `labels` (slots labelled in chunks of about PAIR_CELLS candidate-edge
    cells, which bounds the working memory), the stacked journey closure
    and each m-smashed one are `close` steps on reach bitsets (one row of
    ceil(n/64) uint64 words per trial and node), and the smashed union
    classes are relabelled each slot from the old classes and the slot's
    components.

    A block stops drawing slots after the chunk in which every view of
    every one of its trials holds all n(n-1) pairs; its later grid rows
    then read 1.0, which is what the remaining slots would give, as a view
    never loses a pair.  Each block's trial streams are its own and are
    dropped after it, so the slots left undrawn change no other block's
    draws and the output keeps its bytes.
    """
    grid = list(horizon_grid)
    for t in grid:
        if not isinstance(t, (int, np.integer)) or isinstance(t, bool):
            raise ValueError(f"horizons must be integers, got {t!r}")
    if any(t < 0 for t in grid):
        raise ValueError("horizons must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(gu.nodes)
    if n < 2:
        raise ValueError("reachable-pair fractions need at least two nodes")
    for m in ms:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError("block sizes must be positive integers")
    slot_of = {t: row for row, t in enumerate(sorted(set(grid)))}
    column = [slot_of[t] for t in grid]
    t_max = max(grid, default=0)
    ends = gu._ends  # positions in the sorted ids gu.nodes
    # a block draws at most PAIR_CELLS cells per slot (unless one trial's
    # slot is larger) and holds about PAIR_CELLS bitset words per view
    block = max(1, PAIR_CELLS // max(ends.shape[1], n * ((n + 63) // 64)))
    out = {}
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        rngs = [_trial_stream(seed, trial) for trial in range(start, stop)]
        for view, pairs in _pairs_block(model, ends, n, t_max, rngs, slot_of, ms).items():
            if view not in out:
                out[view] = np.zeros((trials, len(grid)))
            out[view][start:stop] = pairs[column].T / (n * (n - 1))
    return out


def empirical_reachable_pairs(model, gu, horizon_grid, trials, seed, representation="stacked"):
    """Mean fraction of journey-reachable ordered pairs per horizon, with the
    standard error of the mean (so trials >= 2).  representation: 'stacked'
    or 'smashed'."""
    if representation not in ("stacked", "smashed"):
        raise ValueError("representation must be 'stacked' or 'smashed'")
    if trials < 2:
        raise ValueError("trials must be >= 2: standard errors need two trials")
    samples = reachable_pairs_samples(model, gu, horizon_grid, trials, seed)[representation]
    means, ses = _column_stats(samples)
    return [(t, float(mean), float(se)) for t, mean, se in zip(horizon_grid, means, ses)]


def _column_stats(samples):
    """Each column's mean and standard error of the mean, over the rows of
    `samples`: one reduction along the rows of the contiguous transpose,
    where each row sums in the order a reduction of its column alone would
    take."""
    rows = np.ascontiguousarray(samples.T)
    return rows.mean(axis=1), rows.std(axis=1, ddof=1) / math.sqrt(samples.shape[0])
