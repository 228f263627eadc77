"""Stochastic edge-process models over a fixed candidate-edge graph.

Two edge dynamics are available: independent per-slot presence with
probability p, and a two-state chain per edge (OFF->ON probability p,
ON->OFF probability q, initial ON probability p0).  Sampling is
deterministic given the seed: draws come from numpy's PCG64 seeded with
SeedSequence(seed), slot-major over the candidate edges in sorted (u, v)
order.

Every edge state, sampled or replayed, comes from `slot_states`: given
streams, it reads each stream's uniforms slot-major over the cells it is
asked for and returns the ON states of the next slots, and it is the one
caller of `edge_update`.  So trial i's states in slot t are the same
whether `sample_slots` draws them for one sequence or the reachable-pairs
kernel draws them for a block of trials, however the slots are chunked.
The cut-through labelling kernel passes it one block stream and the cells
of all live trials of the block.

A candidate graph, whichever builder made it, holds its nodes as the
sorted tuple of ids and its edges as an index array (`_ends`: positions
in `nodes` of both ends of each edge, sorted by (u, v)); its edge tuples
are made on the first read of `edges`, and `neighbor_map`, equality and
hashing work from the array.  The validating constructor checks its edges
through the edge check every static graph of `temporal` shares.  One BFS
walks a candidate graph, `_candidate_hops` over the cached adjacency
`_adjacency`; `shortest_path` and every replay and routing search that
needs hop distances read it.  `sample_slots` is the one sampler: it draws
every candidate cell of every slot and yields each slot as a `Graphlet`
holding its up columns of `_ends`, which index the same sorted ids.
`sample_er_tgs` and `sample_markov_tgs` collect its slots into a
sequence.

The alternating special case (p=q=1) on a line admits exact per-start
latencies, computed here from the slot-1 configuration bit string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .temporal import (Graphlet, GraphletSequence, _checked_edges, _id_pairs, _sorted_ends, _sorted_ids,
                       load_tgs)

__all__ = [
    "UnderlyingGraph",
    "ErParams",
    "MarkovParams",
    "ModelSpec",
    "stationary_distribution",
    "sample_er_tgs",
    "sample_markov_tgs",
    "shortest_path",
    "Configuration",
    "config_stats",
    "alternating_cut_latency",
    "alternating_soa_latency",
    "alternating_average_latency",
    "alternating_tgs",
    "parse_model_spec",
    "format_model_spec",
]

MAX_ENUM_NODES = 24
# How far p0 may lie from p/(p+q) for a chain to count as starting stationary.
STATIONARY_TOL = 1e-12


@dataclass(frozen=True, init=False)
class UnderlyingGraph:
    """Candidate-edge graph the stochastic processes act on.

    Every graph holds its nodes as the sorted tuple of ids and its edges as
    a private (2, E) int32 index array `_ends` of positions in `nodes`,
    sorted by (u, v) with u < v, and builds the `edges` tuple of (min, max)
    pairs from it on its first read.  `UnderlyingGraph(nodes, edges, name)`
    checks its input: no duplicate ids, then the edge check every static
    graph shares (`temporal._checked_edges`: no self-loops, then both
    endpoints in `nodes`), then no duplicate edges in either orientation;
    ids that do not compare with each other are a TypeError.  The builders
    `line`, `complete` and `from_graphlet` skip that check, as their edges
    are valid by construction.  Equality and hashing read the ids, the name
    and the index array, so neither builds the edge tuples.
    """

    nodes: tuple
    edges: tuple
    name: str | None = None

    def __init__(self, nodes, edges, name=None):
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids")
        ids = _sorted_ids(nodes)
        seen = set()
        for key in _checked_edges(frozenset(ids), edges):
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        vars(self).update(nodes=ids, name=name, _ends=_sorted_ends(ids, seen))

    @classmethod
    def _from_ends(cls, nodes, ends, name):
        """The graph on the sorted tuple `nodes` whose edge j joins
        nodes[ends[0][j]] and nodes[ends[1][j]], which the caller guarantees
        valid and sorted by (u, v) with ends[0] < ends[1]."""
        gu = object.__new__(cls)
        vars(gu).update(nodes=nodes, name=name,
                        _ends=np.asarray(ends, dtype=np.int32).reshape(2, -1))
        return gu

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.nodes, self.name) == (other.nodes, other.name)
                and np.array_equal(self._ends, other._ends))

    def __hash__(self):
        return hash((self.nodes, self.name, self._ends.tobytes()))

    def __getattr__(self, name):
        # the edge tuples, on first read
        if name != "edges":
            raise AttributeError(name)
        edges = vars(self)["edges"] = tuple(_id_pairs(self.nodes, self._ends))
        return edges

    @classmethod
    def line(cls, n):
        if n < 1:
            raise ValueError("a line needs at least one node")
        heads = np.arange(n - 1)
        return cls._from_ends(tuple(range(n)), (heads, heads + 1), "line")

    @classmethod
    def complete(cls, n):
        if n < 1:
            raise ValueError("a complete graph needs at least one node")
        # the order of itertools.combinations(range(n), 2), filled in place
        # as int32: row i holds (i, i+1) ... (i, n-1), and each end steps by
        # one along its row, so both are cumulative sums of their steps
        ends = np.zeros((2, n * (n - 1) // 2), dtype=np.int32)
        firsts = np.cumsum(np.arange(n - 1, 1, -1))  # where rows 1 .. n-2 start
        ends[0, firsts] = 1
        ends[1] = 1
        ends[1, firsts] = np.arange(3 - n, 1)  # from n-1 back to i+1
        np.cumsum(ends, axis=1, out=ends)
        return cls._from_ends(tuple(range(n)), ends, "complete")

    @classmethod
    def from_graphlet(cls, g, name=None):
        # A graphlet's index arrays are sorted, unique and inside its ids.
        return cls._from_ends(g._ids, g._ends, name)

    @cached_property
    def _adjacency(self):
        """Adjacency over positions in `nodes`, from `_ends`, as two lists:
        position i's neighbors are tails[start[i]:start[i + 1]], in position
        order.

        The heads are laid out as `_ends[::-1]`, so each edge is listed
        first from its higher end.  As `_ends` is sorted by (u, v) with
        u < v, a stable sort of the heads alone then lists each node's lower
        neighbors in order before its higher ones."""
        n = len(self.nodes)
        heads, tails = self._ends[::-1].ravel(), self._ends.ravel()
        order = np.argsort(heads, kind="stable")
        start = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=n))])
        return tails[order].tolist(), start.tolist()

    def neighbor_map(self):
        """{node: its neighbors sorted by id}."""
        tails, start = self._adjacency
        nodes = self.nodes
        return {v: tuple(map(nodes.__getitem__, tails[start[i]:start[i + 1]]))
                for i, v in enumerate(nodes)}


def _candidate_hops(gu, dest):
    """Hop distance to dest over gu's candidate edges, as a list in `gu.nodes`
    order (-1 when cut off): one BFS over `gu._adjacency`, built from
    `gu._ends`, so a graph held as index arrays never builds its edge tuples.
    Every search of a candidate graph (`shortest_path`, the replays' default
    rank and path, the routing oracles' first policy) walks these lists."""
    tails, start = gu._adjacency
    dist = [-1] * len(gu.nodes)
    queue = [gu.nodes.index(dest)]
    dist[queue[0]] = 0
    for v in queue:  # the loop reads what it appends
        for w in tails[start[v]:start[v + 1]]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class ErParams:
    """Independent per-slot edge presence with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class MarkovParams:
    """Two-state per-edge chain: OFF->ON prob p, ON->OFF prob q, initial ON prob p0.

    p0 defaults to the stationary ON probability p/(p+q).
    """

    p: float
    q: float
    p0: float | None = None

    def __post_init__(self):
        for name in ("p", "q"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.p0 is None:
            if self.p + self.q <= 0.0:
                raise ValueError("p0 has no stationary default when p = q = 0")
            object.__setattr__(self, "p0", self.p / (self.p + self.q))
        elif not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")

    def is_stationary_start(self):
        return self.p + self.q > 0.0 and abs(self.p0 - self.p / (self.p + self.q)) <= STATIONARY_TOL


def stationary_distribution(params):
    """Stationary (ON, OFF) probabilities of the two-state edge chain."""
    p, q = params.p, params.q
    if p + q <= 0.0:
        raise ValueError("p = q = 0 leaves every distribution stationary")
    return p / (p + q), q / (p + q)


def edge_update(params, states, u):
    """Edge states of the next slot from uniforms `u` on [0, 1).

    `states` holds the previous slot (None before slot 1); the independent
    model ignores it.
    """
    if isinstance(params, ErParams):
        return u < params.p
    if states is None:
        return u < params.p0
    return np.where(states, u >= params.q, u < params.p)


def slot_states(params, states, rngs, span, n_edges):
    """ON states of n_edges cells (candidate edges, or a block's trials times
    them) in the next `span` slots of each stream in `rngs`, as a
    (span, streams, cells) bool array.

    `states` holds each stream's last slot (None before slot 1); a caller
    carries the last row forward.  Each stream gives span * n_edges
    uniforms, slot-major, so a stream's states do not depend on how its
    slots are chunked or which other streams are drawn with it.
    """
    u = np.empty((len(rngs), span, n_edges))
    for i, rng in enumerate(rngs):
        rng.random(out=u[i])
    if isinstance(params, ErParams):
        return edge_update(params, None, u).transpose(1, 0, 2)
    out = np.empty((span, len(rngs), n_edges), dtype=bool)
    for k in range(span):
        out[k] = states = edge_update(params, states, u[:, k])
    return out


def sample_slots(gu, params, horizon, rng):
    """Lazily yield the slots 1..horizon of `gu` under `params`, each holding
    its up edges as the up columns of `gu._ends`: a sorted index array into
    gu's sorted ids `gu.nodes` (see `Graphlet`).

    States are drawn by `slot_states` on the one trial stream `rng` in
    chunks of 1, 2, 4, ... slots, one cell per column of `gu._ends`: the
    same stream as one draw per slot, so a caller that stops early leaves
    at most as many slots drawn and unused as it used.  A chunk's up edges
    are gathered at once, without building a tuple.
    """
    ids, ends = gu.nodes, gu._ends
    nodes = frozenset(ids)
    n_edges = ends.shape[1]
    states, t = None, 0
    while t < horizon:
        chunk = slot_states(params, states, [rng], min(t + 1, horizon - t), n_edges)
        states = chunk[-1]
        cells = np.flatnonzero(chunk)
        up = ends[:, cells % n_edges]
        bounds = np.searchsorted(cells, n_edges * np.arange(len(chunk) + 1)).tolist()
        for start, stop in zip(bounds, bounds[1:]):
            t += 1
            yield Graphlet._from_ends(t, nodes, ids, up[:, start:stop])


def sample_er_tgs(gu, params, horizon, seed):
    """Sample a sequence with each candidate edge present independently per slot.

    seed may be an int or a numpy SeedSequence.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return GraphletSequence(sample_slots(gu, params, horizon, np.random.default_rng(seed)))


def sample_markov_tgs(gu, params, horizon, seed):
    """Sample a sequence of per-edge two-state chains, independent across edges.

    seed may be an int or a numpy SeedSequence.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return GraphletSequence(sample_slots(gu, params, horizon, np.random.default_rng(seed)))


def shortest_path(gu, source, dest):
    """The lexicographically smallest shortest path (list of nodes, by id)
    from source to dest over gu's candidate edges, or None when dest is cut
    off: from source, each step goes to the lowest neighbor one hop closer
    to dest by `_candidate_hops`, which is the path a BFS from source with
    neighbors in id order returns."""
    if source not in gu.nodes or dest not in gu.nodes:
        raise ValueError(f"unknown node {source!r} or {dest!r}")
    hops = _candidate_hops(gu, dest)
    tails, start = gu._adjacency
    path = [gu.nodes.index(source)]
    while hops[path[-1]] > 0:
        v = path[-1]
        path.append(next(w for w in tails[start[v]:start[v + 1]] if hops[w] < hops[v]))
    return None if hops[path[0]] < 0 else [gu.nodes[v] for v in path]


# --- the alternating (p = q = 1) special case on a line ---------------------


@dataclass(frozen=True)
class Configuration:
    """Slot-1 edge states of a line, as a bit string; bit i = edge (i, i+1)."""

    bits: str

    def __post_init__(self):
        if not self.bits:
            raise ValueError("a configuration needs at least one bit")
        if set(self.bits) - {"0", "1"}:
            raise ValueError("configuration bits must be 0 or 1")

    @property
    def n(self):
        """Number of line nodes (one more than the edge count)."""
        return len(self.bits) + 1


def config_stats(config):
    """(k, b): count of adjacent unequal bit pairs, and the first bit."""
    bits = config.bits
    k = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    return k, int(bits[0])


def alternating_cut_latency(config):
    """Slots to cross the alternating line under cut-through forwarding."""
    k, b = config_stats(config)
    return k + 1 - b


def alternating_soa_latency(config):
    """Slots to cross the alternating line when each hop costs one slot.

    Equal to 2(n-1) - k - b: each of the n-1 hops costs one slot when its
    edge is up on arrival and two slots otherwise, and arrival parities
    make hop i cheap exactly when bit i extends a change run (or bit 1 is
    set).  The uniform average over configurations is 3(n-1)/2.
    """
    k, b = config_stats(config)
    return 2 * (config.n - 1) - k - b


def alternating_average_latency(n, metric):
    """Exact average latency over all 2^(n-1) slot-1 configurations."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if n > MAX_ENUM_NODES:
        raise ValueError(f"enumeration capped at {MAX_ENUM_NODES} nodes")
    if metric not in ("cut", "soa"):
        raise ValueError("metric must be 'cut' or 'soa'")
    width = n - 1
    change_mask = (1 << (width - 1)) - 1
    total = 0
    for x in range(1 << width):
        k = ((x ^ (x >> 1)) & change_mask).bit_count()
        b = x & 1
        total += (k + 1 - b) if metric == "cut" else (2 * width - k - b)
    return Fraction(total, 1 << width)


def alternating_tgs(config, horizon):
    """The deterministic flip-every-slot line sequence starting from `config`."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = config.n
    nodes = range(n)
    graphlets = []
    for t in range(1, horizon + 1):
        want = "1" if t % 2 == 1 else "0"
        edges = [(i, i + 1) for i, bit in enumerate(config.bits) if bit == want]
        graphlets.append(Graphlet(t, nodes, edges))
    return GraphletSequence(graphlets)


# --- model spec text format --------------------------------------------------
#
#   er p=<float> gu=<line|complete|file:PATH> n=<int>
#   mc p=<float> q=<float> p0=<float|stationary> gu=<...> n=<int>


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    params: object
    gu: UnderlyingGraph

    def __post_init__(self):
        if self.kind not in ("er", "mc"):
            raise ValueError("model kind must be 'er' or 'mc'")


def _load_underlying(gu_token, n_token):
    if gu_token.startswith("file:"):
        path = gu_token[len("file:"):]
        tgs = load_tgs(path)
        if tgs.horizon != 1:
            raise ValueError(f"underlying-graph file {path!r} must hold exactly one slot")
        return UnderlyingGraph.from_graphlet(tgs[0])
    if n_token is None:
        raise ValueError("n=<int> is required with gu=line or gu=complete")
    n = int(n_token)
    if gu_token == "line":
        return UnderlyingGraph.line(n)
    if gu_token == "complete":
        return UnderlyingGraph.complete(n)
    raise ValueError(f"unknown underlying graph {gu_token!r}")


def parse_model_spec(text):
    parts = text.split()
    if not parts:
        raise ValueError("empty model spec")
    kind = parts[0]
    kv = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValueError(f"bad token {tok!r}; expected key=value")
        key, val = tok.split("=", 1)
        if key in kv:
            raise ValueError(f"duplicate key {key!r}")
        kv[key] = val
    if "gu" not in kv:
        raise ValueError("model spec needs gu=<line|complete|file:PATH>")
    gu = _load_underlying(kv.pop("gu"), kv.pop("n", None))
    if kind == "er":
        if set(kv) != {"p"}:
            raise ValueError("er spec takes exactly p=<float> (plus gu/n)")
        return ModelSpec("er", ErParams(float(kv["p"])), gu)
    if kind == "mc":
        if not {"p", "q"} <= set(kv) or set(kv) - {"p", "q", "p0"}:
            raise ValueError("mc spec takes p=<float> q=<float> [p0=<float|stationary>] (plus gu/n)")
        p0_tok = kv.get("p0", "stationary")
        p0 = None if p0_tok == "stationary" else float(p0_tok)
        return ModelSpec("mc", MarkovParams(float(kv["p"]), float(kv["q"]), p0), gu)
    raise ValueError(f"unknown model kind {kind!r}")


def format_model_spec(spec):
    gu = spec.gu
    if gu.name in ("line", "complete"):
        gu_part = f"gu={gu.name} n={len(gu.nodes)}"
    else:
        raise ValueError("only line/complete underlying graphs have a canonical spec string")
    if spec.kind == "er":
        return f"er p={spec.params.p!r} {gu_part}"
    params = spec.params
    if params.p + params.q > 0 and params.p0 == stationary_distribution(params)[0]:
        p0_part = "p0=stationary"
    else:
        p0_part = f"p0={params.p0!r}"
    return f"mc p={params.p!r} q={params.q!r} {p0_part} {gu_part}"
