"""Monte Carlo replay of message forwarding over sampled edge processes.

Per trial the engine walks the slots of a sampled (or supplied) sequence
and applies the forwarding discipline: store-or-advance moves one hop
when the next edge is up and the hop consumes that slot; cut-through
jumps the whole currently-connected stretch for free and only waiting
costs slots.  Delivery inside the very first cut-through component
counts as latency zero.

Reproducibility: draws come from numpy PCG64 streams.  The vectorized
engines (store-or-advance along a path, cut-through on a forest, the
adaptive replay) give each fixed block of 8192 trials its own child
stream (SeedSequence(seed, spawn_key=(block,))), so results are
deterministic and independent of how blocks would be scheduled; per-trial
python engines (cut-through on other graphs, callable policies,
reachable-pair curves) use SeedSequence(seed, spawn_key=(trial,)).
Undelivered trials are reported, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import LatencyPmf
from .models import ErParams, edge_step, sample_slots, shortest_path
from .temporal import SmashedGraph, adjacency, bfs, close, component_masks, smash

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
        d = self.delivered()
        if d == 0:
            raise ValueError("no delivered trials")
        values = np.arange(len(self.counts))
        mean = (values * self.counts).sum() / d
        return float((((values - mean) ** 2) * self.counts).sum() / d)

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
    """Default trial cap: 20 (n-1) / p slots."""
    if p <= 0.0:
        raise ValueError("p must be positive")
    return math.ceil(20 * (n - 1) / p)


# --- single-trial replays on a materialized sequence -------------------------


def _hop_ranks(adj, nodes, dest):
    """Hop distance to dest over `adj` for each of `nodes`; inf when cut off."""
    dist = {}
    for v, u in bfs(adj, [dest]).items():
        dist[v] = 0 if u is None else dist[u] + 1
    return {v: dist.get(v, math.inf) for v in nodes}


def _union_path(tgs, source, dest):
    adj = adjacency(smash(tgs).edges)
    rank = _hop_ranks(adj, tgs.node_ids, dest)
    if rank.get(source, math.inf) == math.inf:
        raise ValueError(f"{dest!r} is not connected to {source!r} in the slot union")
    path = [source]
    while path[-1] != dest:
        cur = path[-1]
        path.append(min(w for w in adj[cur] if rank[w] == rank[cur] - 1))
    return path


def replay_soa(tgs, source, dest, next_hop=None):
    """Replay store-or-advance forwarding over one sequence.

    With no policy the message follows a fixed shortest path of the slot
    union, waiting at each hop for its edge.  A callable policy
    next_hop(node, on_neighbors) may return the neighbor to move to, or
    None to wait.
    """
    if source == dest:
        return TrialResult(0, ((source, 0),))
    if next_hop is None:
        path = _union_path(tgs, source, dest)
        hops = {path[i]: path[i + 1] for i in range(len(path) - 1)}

        def next_hop(u, on_neighbors):
            want = hops[u]
            return want if want in on_neighbors else None

    latency, trajectory = _soa_walk((g.edges for g in tgs), source, dest, next_hop)
    return TrialResult(latency, tuple(trajectory))


def _soa_walk(slots, source, dest, next_hop):
    """Store-or-advance walk over per-slot edge lists: (latency or None, trajectory)."""
    cur = source
    trajectory = [(source, 0)]
    for t, edges in enumerate(slots, start=1):
        on_neighbors = frozenset(v if u == cur else u for u, v in edges if cur in (u, v))
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
    latency slot-1.  Otherwise the slot is spent waiting.
    """
    if source == dest:
        return TrialResult(0, ((source, 0),))
    if rank is None:
        rank = _hop_ranks(adjacency(smash(tgs).edges), tgs.node_ids, dest)
    latency, trajectory = _cut_walk((g.edges for g in tgs), source, dest, rank)
    return TrialResult(latency, tuple(trajectory))


def _cut_walk(slots, source, dest, rank):
    """Cut-through walk over per-slot edge lists: (latency or None, trajectory)."""
    cur = source
    trajectory = [(source, 0)]
    for t, edges in enumerate(slots, start=1):
        comp = bfs(adjacency(edges), [cur])
        if dest in comp:
            trajectory.append((dest, t))
            return t - 1, trajectory
        cur = min(comp, key=lambda v: (rank[v], v))
        trajectory.append((cur, t))
    return None, trajectory


# --- vectorized engines -------------------------------------------------------


def _block_streams(seed, trials):
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        size = min(BLOCK_TRIALS, trials - start)
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,))), size


def _trial_stream(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _path_replay_block(model, n_edges, metric, horizon, rng, size):
    """Replay `size` trials along a fixed edge path; returns latencies (-1 undelivered)."""
    states = None
    pos = np.zeros(size, dtype=np.int64)
    orig = np.arange(size)
    latency = np.full(size, -1, dtype=np.int64)
    t = 0
    while orig.size and t < horizon:
        t += 1
        states = edge_step(model, states, rng, (orig.size, n_edges))
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


def _run_path_trials(model, n_edges, metric, horizon, trials, seed):
    parts = []
    for rng, size in _block_streams(seed, trials):
        parts.append(_path_replay_block(model, n_edges, metric, horizon, rng, size))
    return EmpiricalPmf.from_latencies(np.concatenate(parts), trials)


def _adaptive_replay_block(accept_idx, n_ids, source_idx, dest_idx, model, horizon, rng, size):
    """Replay trials that, each slot, move to the first currently-up neighbor in
    the node's acceptance list (or wait).  Independent-churn model only;
    nodes are pre-mapped to integer indices, and the occupied ones are visited
    in index order."""
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


def _run_trial_walks(walk, policy, model, gu, source, dest, horizon, trials, seed):
    """Per-trial python replay: `walk(slots, source, dest, policy)` over lazily
    sampled slots, one stream per trial (any edge model)."""
    latencies = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        slots = sample_slots(gu, model, horizon, _trial_stream(seed, trial))
        latency, _ = walk(slots, source, dest, policy)
        latencies[trial] = -1 if latency is None else latency
    return EmpiricalPmf.from_latencies(latencies, trials)


def _validate_endpoints(gu, source, dest):
    if source not in gu.nodes or dest not in gu.nodes:
        raise ValueError(f"unknown node {source!r} or {dest!r}")


def simulate_soa(model, gu, source, dest, horizon=None, trials=10_000, seed=0, next_hop=None):
    """Empirical store-or-advance latency distribution.

    next_hop=None forwards along a fixed BFS shortest path of the
    candidate graph (on a line: hop by hop toward dest).  A dict
    {node: ordered acceptance tuple} replays the adaptive policy "move to
    the first currently-up listed neighbor" (independent-churn model
    only); a callable(node, on_neighbors) is replayed per trial.
    """
    _validate_endpoints(gu, source, dest)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if source == dest:
        return EmpiricalPmf(np.array([trials]), trials, 0)
    if horizon is None:
        horizon = default_horizon(len(gu.nodes), model.p)
    if next_hop is None:
        path = shortest_path(gu, source, dest)
        if path is None:
            raise ValueError(f"{dest!r} is unreachable from {source!r} in the candidate graph")
        return _run_path_trials(model, len(path) - 1, "soa", horizon, trials, seed)
    if isinstance(next_hop, dict):
        if not isinstance(model, ErParams):
            raise ValueError("adaptive acceptance lists assume the independent-churn model")
        order = sorted(gu.nodes)
        index = {v: i for i, v in enumerate(order)}
        accept_idx = [None] * len(order)
        for u, cand in next_hop.items():
            accept_idx[index[u]] = np.array([index[v] for v in cand], dtype=np.int64)
        parts = []
        for rng, size in _block_streams(seed, trials):
            parts.append(
                _adaptive_replay_block(
                    accept_idx, len(order), index[source], index[dest], model, horizon, rng, size
                )
            )
        return EmpiricalPmf.from_latencies(np.concatenate(parts), trials)
    if callable(next_hop):
        return _run_trial_walks(_soa_walk, next_hop, model, gu, source, dest, horizon, trials, seed)
    raise TypeError("next_hop must be None, a dict of acceptance tuples, or a callable")


def simulate_cut(model, gu, source, dest, horizon=None, trials=10_000, seed=0, rank=None):
    """Empirical cut-through latency distribution.

    Each slot the message jumps to the node of minimum rank (default: hop
    distance to dest) in its current component.  On a forest with the
    default rank that node lies on the one source-dest path, so the trials
    replay that path vectorized, with per-block streams; other graphs, or
    an explicit rank, replay per trial with per-trial streams.
    """
    _validate_endpoints(gu, source, dest)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if source == dest:
        return EmpiricalPmf(np.array([trials]), trials, 0)
    if horizon is None:
        horizon = default_horizon(len(gu.nodes), model.p)
    path = shortest_path(gu, source, dest)
    if path is None:
        raise ValueError(f"{dest!r} is unreachable from {source!r} in the candidate graph")
    if rank is None:
        components = SmashedGraph(gu.nodes, gu.edges).components()
        if len(gu.edges) == len(gu.nodes) - len(components):  # a forest
            return _run_path_trials(model, len(path) - 1, "cut", horizon, trials, seed)
        rank = _hop_ranks(gu.neighbor_map(), gu.nodes, dest)
    return _run_trial_walks(_cut_walk, rank, model, gu, source, dest, horizon, trials, seed)


# --- reachable-pairs curves ---------------------------------------------------


def _reach_fraction(reach):
    n = len(reach)
    hits = sum(r.bit_count() - 1 for r in reach)
    return hits / (n * (n - 1))


def reachable_pairs_samples(model, gu, horizon_grid, trials, seed, ms=()):
    """Per-trial reachable-pair fractions on shared samples.

    Returns {"stacked": M, "smashed": M, ("msmg", m): M ...} where M is a
    (trials x grid) array; row i of every matrix is computed from the same
    sampled sequence, so stacked <= coarsened <= smashed holds per sample.
    Node ids must be 0..n-1.  Grid entries are horizons; a coarsened column
    reflects floor(T/m) complete blocks.
    """
    grid = list(horizon_grid)
    if any(t < 0 for t in grid):
        raise ValueError("horizons must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(gu.nodes)
    if set(gu.nodes) != set(range(n)):
        raise ValueError("reachable-pairs sampling expects node ids 0..n-1")
    for m in ms:
        if not isinstance(m, int) or m < 1:
            raise ValueError("block sizes must be positive integers")
    t_max = max(grid, default=0)
    index = {v: v for v in range(n)}
    out = {"stacked": np.zeros((trials, len(grid))), "smashed": np.zeros((trials, len(grid)))}
    for m in ms:
        out[("msmg", m)] = np.zeros((trials, len(grid)))
    grid_by_t = {}
    for j, t in enumerate(grid):
        grid_by_t.setdefault(t, []).append(j)
    for trial in range(trials):
        rng = _trial_stream(seed, trial)
        reach = [1 << i for i in range(n)]
        smashed = list(reach)
        block_reach = {m: list(reach) for m in ms}
        block_edges = {m: set() for m in ms}
        for t, on in enumerate(sample_slots(gu, model, t_max, rng), start=1):
            masks = component_masks(on, index)
            close(reach, masks)
            for comp in masks:
                # merge every union component the slot component touches
                merged = comp
                for r in smashed:
                    if r & comp:
                        merged |= r
                close(smashed, [merged])
            for m in ms:
                block_edges[m].update(on)
                if t % m == 0:
                    close(block_reach[m], component_masks(block_edges[m], index))
                    block_edges[m].clear()
            for j in grid_by_t.get(t, ()):
                out["stacked"][trial, j] = _reach_fraction(reach)
                out["smashed"][trial, j] = _reach_fraction(smashed)
                for m in ms:
                    out[("msmg", m)][trial, j] = _reach_fraction(block_reach[m])
    return out


def empirical_reachable_pairs(model, gu, horizon_grid, trials, seed, representation="stacked"):
    """Mean fraction of journey-reachable ordered pairs per horizon, with the
    standard error of the mean.  representation: 'stacked' or 'smashed'."""
    if representation not in ("stacked", "smashed"):
        raise ValueError("representation must be 'stacked' or 'smashed'")
    samples = reachable_pairs_samples(model, gu, horizon_grid, trials, seed)[representation]
    rows = []
    for j, t in enumerate(horizon_grid):
        col = samples[:, j]
        mean = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        rows.append((t, mean, se))
    return rows
