"""Deterministic model of time-varying graphs.

A :class:`GraphletSequence` is an ordered list of undirected snapshots
("graphlets"), one per time slot.  This module provides the two static
views of such a sequence -- the time-expanded stacked graph and the
collapsed smashed graph -- together with slot-aware reachability,
connectivity, and clique queries.

Every slot holds its sorted node ids and its edges as a sorted int32
index array into them, and builds its edge set only when read.  The text
format reads and writes those arrays directly, and the smashed views are
one sort over them.  So the ids of a slot must compare with each
other, and so must all ids of a sequence that is smashed or whose
reachable pairs are counted (`reachable_pairs_fraction`,
`t_k_connected`, and `t_clique`, which reads the smashed union); ids
that do not are a TypeError.  Every static graph -- a slot, the smashed
union and the candidate graph of `models` -- checks its listed edges
through one helper, `_checked_edges`: a self-loop anywhere is named
first, then the first listed edge with an endpoint outside the node set.

The stacked graph is a lazy view: it keeps the sequence and builds its
vertex and arc sets only when they are read.  Reachability queries never
build them; they scan the slots forward once, spreading the message over
each slot's edges.  Journey semantics: a message may traverse any number
of edges inside a single slot and may wait at a node present in the
slots it waits through, but it never moves to an earlier slot.  The
clique and k-connectivity queries search over node subsets.  Every
operation is a pure function and the containers are never changed after
construction (a view only caches what it builds), so everything here is
safe to use concurrently.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Graphlet",
    "GraphletSequence",
    "StackedGraph",
    "SmashedGraph",
    "build_stacked",
    "stacked_reachable",
    "smash",
    "m_smash",
    "t_adjacent",
    "t_reachable",
    "t_clique",
    "t_k_connected",
    "reachable_pairs_fraction",
    "parse_tgs",
    "format_tgs",
    "load_tgs",
    "dump_tgs",
]


def _sorted_ids(nodes):
    """The sorted tuple of the distinct ids `nodes`; ids that do not compare
    with each other are a TypeError."""
    try:
        return tuple(sorted(nodes))
    except TypeError:
        raise TypeError("node ids must compare with each other (all int, or all str, ...)") from None


def _id_pairs(ids, ends):
    """The (ids[u], ids[v]) pairs of the (2, E) index array `ends`."""
    u, v = ends.tolist()
    return zip(map(ids.__getitem__, u), map(ids.__getitem__, v))


def _sorted_ends(ids, edges):
    """The (2, E) int32 index array of the (min, max) pairs `edges`: the
    positions in the sorted tuple `ids` of both ends of each, sorted by
    (u, v)."""
    pos = {v: i for i, v in enumerate(ids)}
    return np.array(sorted((pos[u], pos[v]) for u, v in edges), dtype=np.int32).reshape(-1, 2).T


def _checked_edges(nodes, edges):
    """The edges `edges` as (min, max) pairs, in listed order, checked against
    the set `nodes`: a ValueError names the first self-loop, or else the
    first edge with an endpoint outside `nodes`.  Every constructor of a
    static graph (`Graphlet`, `SmashedGraph`, `models.UnderlyingGraph`)
    checks its edges here."""
    edges = [(u, v) if u <= v else (v, u) for u, v in edges]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on node {u!r}")
    for u, v in edges:
        if u not in nodes or v not in nodes:
            raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the node set")
    return edges


def adjacency(edges):
    """Undirected adjacency lists {node: [neighbors]} of an edge iterable."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def bfs(adj, starts):
    """Breadth-first search over `adj` from every node of `starts` at once.

    Returns {node: parent} in visit order; starts map to None.  Nodes
    absent from `adj` have no neighbors.
    """
    parent = dict.fromkeys(starts)
    queue = deque(parent)
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return parent


def components(adj):
    """Yield the bfs map of each connected component of `adj`, started from
    its first node in `adj`'s key order; nodes that are not keys of `adj`
    belong to no component."""
    seen = set()
    for start in adj:
        if start not in seen:
            comp = bfs(adj, [start])
            seen.update(comp)
            yield comp


class Graphlet:
    """One slot of a dynamic network: an undirected snapshot with a slot index.

    `Graphlet(time, nodes, edges)` normalizes every edge to (min, max) and
    checks it (`_checked_edges`): no self-loops, then both endpoints in
    `nodes`; a repeated edge is kept once.  A slot's node ids must compare
    with each other (all int, or all str, ...), as the slot keeps them
    sorted; mixed ids that do not are a TypeError.

    Every slot holds its ids as the sorted tuple `_ids` and its edges as a
    private (2, E) int32 index array `_ends` of positions in `_ids`, sorted
    by (u, v) with u < v and no repeats.  Builders whose slots are valid by
    construction (`parse_tgs`, `m_smash`, the samplers in `models`) make
    those arrays directly, and such a slot builds the `edges` frozenset
    from them on its first read; the constructor keeps the frozenset it
    checked.  Equality, hashing and `repr` go through `edges`.
    """

    def __init__(self, time, nodes, edges=()):
        if time < 1:
            raise ValueError("slot index must be >= 1")
        self.time, self.nodes = time, frozenset(nodes)
        self._ids = _sorted_ids(self.nodes)
        self.edges = frozenset(_checked_edges(self.nodes, edges))
        self._ends = _sorted_ends(self._ids, self.edges)

    @classmethod
    def _from_ends(cls, time, nodes, ids, ends):
        """The slot on the frozenset `nodes`, whose sorted tuple is `ids`,
        with edge j joining ids[ends[0][j]] and ids[ends[1][j]]; the caller
        guarantees ends sorted by (u, v), u < v < len(ids), and no repeats."""
        g = object.__new__(cls)
        g.time, g.nodes, g._ids, g._ends = time, nodes, ids, ends
        return g

    @cached_property
    def edges(self):
        """The frozenset of (min, max) edges, built from `_ends` on first read."""
        return frozenset(_id_pairs(self._ids, self._ends))

    def has_edge(self, u, v):
        return (u, v) in self.edges or (v, u) in self.edges

    def __eq__(self, other):
        if not isinstance(other, Graphlet):
            return NotImplemented
        return (self.time, self.nodes, self.edges) == (other.time, other.nodes, other.edges)

    def __hash__(self):
        return hash((self.time, self.nodes, self.edges))

    def __repr__(self):
        return f"Graphlet(time={self.time}, nodes={sorted(self.nodes)!r}, edges={sorted(self.edges)!r})"


class GraphletSequence:
    """Ordered sequence of graphlets on contiguous slots 1..T."""

    __slots__ = ("graphlets", "_node_ids")

    def __init__(self, graphlets):
        gs = tuple(graphlets)
        if not gs:
            raise ValueError("a graphlet sequence needs at least one slot")
        for i, g in enumerate(gs, start=1):
            if g.time != i:
                raise ValueError(f"slot {i} carries time index {g.time}; slots must be contiguous from 1")
        self.graphlets = gs
        self._node_ids = None

    @classmethod
    def from_slot_edges(cls, nodes, slot_edges):
        """Build a sequence with a constant node set from per-slot edge lists."""
        nodes = frozenset(nodes)
        return cls(Graphlet(t, nodes, edges) for t, edges in enumerate(slot_edges, start=1))

    @property
    def horizon(self):
        return len(self.graphlets)

    @property
    def node_ids(self):
        """Every node id present in some slot, computed on first read."""
        if self._node_ids is None:
            self._node_ids = frozenset().union(*(g.nodes for g in self.graphlets))
        return self._node_ids

    def __len__(self):
        return len(self.graphlets)

    def __iter__(self):
        return iter(self.graphlets)

    def __getitem__(self, i):
        return self.graphlets[i]

    def __eq__(self, other):
        if not isinstance(other, GraphletSequence):
            return NotImplemented
        return self.graphlets == other.graphlets

    def __hash__(self):
        return hash(self.graphlets)

    def __repr__(self):
        return f"GraphletSequence(T={self.horizon}, n={len(self.node_ids)})"


class StackedGraph:
    """Time-expanded directed view of a graphlet sequence.

    Vertices are (node id, slot) pairs, one for each id present in a slot.
    Every slot edge contributes one arc in each direction inside its slot; a
    cross arc ties the same node id across consecutive slots (the "wait"
    action) whenever the id is present in both slots, so a message can wait
    only at a node that stays present.

    The view is lazy: it keeps the sequence, answers vertex membership
    against one slot, and builds `nodes`, the arc sets and the successor map
    on first use only (each is then cached; a race on first use builds equal
    values twice).
    """

    def __init__(self, tgs):
        self.tgs = tgs

    def __contains__(self, vertex):
        if not (isinstance(vertex, tuple) and len(vertex) == 2):
            return False
        v, t = vertex
        return isinstance(t, int) and 1 <= t <= self.tgs.horizon and v in self.tgs[t - 1].nodes

    @cached_property
    def nodes(self):
        return frozenset((v, g.time) for g in self.tgs for v in g.nodes)

    @cached_property
    def slot_arcs(self):
        arcs = set()
        for g in self.tgs:
            for u, v in g.edges:
                arcs.add(((u, g.time), (v, g.time)))
                arcs.add(((v, g.time), (u, g.time)))
        return frozenset(arcs)

    @cached_property
    def cross_arcs(self):
        gs = self.tgs.graphlets
        return frozenset(((v, g.time), (v, h.time))
                         for g, h in zip(gs, gs[1:]) for v in g.nodes & h.nodes)

    @cached_property
    def arcs(self):
        return self.slot_arcs | self.cross_arcs

    @cached_property
    def _succ(self):
        succ = {v: [] for v in self.nodes}
        for a, b in itertools.chain(self.slot_arcs, self.cross_arcs):
            succ[a].append(b)
        return succ

    def successors(self, v):
        return tuple(self._succ.get(v, ()))


class SmashedGraph:
    """Union of all graphlets into one static undirected graph.

    The constructor checks its edges as `Graphlet` does and keeps a
    repeated edge once; a query about an id outside `nodes` is a
    ValueError."""

    __slots__ = ("nodes", "edges", "_adj")

    def __init__(self, nodes, edges):
        self.nodes = frozenset(nodes)
        self.edges = frozenset(_checked_edges(self.nodes, edges))
        adj = {v: set() for v in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj

    def neighbors(self, u):
        if u not in self.nodes:
            raise ValueError(f"unknown node {u!r}")
        return frozenset(self._adj[u])

    def connected(self, u, v):
        if u not in self.nodes or v not in self.nodes:
            raise ValueError(f"unknown node {u!r} or {v!r}")
        return v in bfs(self._adj, [u])

    def components(self):
        return [frozenset(comp) for comp in components(self._adj)]


def build_stacked(tgs):
    """Stack a sequence into its directed time-expanded graph (a lazy view)."""
    return StackedGraph(tgs)


def stacked_reachable(stg, src, dst):
    """Directed reachability between two (node, slot) vertices of a stacked graph."""
    if src not in stg or dst not in stg:
        raise ValueError(f"unknown stacked vertex {src!r} or {dst!r}")
    return _journey(stg.tgs, src[0], dst[0], src[1], dst[1]) is not None


def _block_unions(graphlets, m):
    """The sorted id table of `graphlets` and the union of each block of m
    consecutive slots, as sorted (2, E) int32 positions in that table.

    One sort of (block, u, v) keys takes every union.  A slot's own
    `_ends` are positions in the table when it holds all of the table's ids;
    otherwise (node sets that vary) they are remapped.
    """
    ids = graphlets[0]._ids
    ends = [g._ends for g in graphlets]
    if any(g._ids is not ids and g._ids != ids for g in graphlets):
        ids = _sorted_ids(frozenset().union(*(g.nodes for g in graphlets)))
        pos = {v: i for i, v in enumerate(ids)}
        ends = [g._ends if g._ids == ids else np.array([pos[v] for v in g._ids], dtype=np.int32)[g._ends]
                for g in graphlets]
    blocks = -(-len(graphlets) // m)
    n = max(len(ids), 1)
    if blocks * n * n > 2 ** 63:  # keys run up to blocks * n * n - 1
        raise ValueError(f"{blocks} blocks over {n} node ids overflow the int64 union key")
    u, v = np.concatenate(ends, axis=1, dtype=np.int64)
    key = u * n + v
    if blocks > 1:  # the block index goes above u and v
        key += np.repeat(np.arange(len(graphlets)) // m * (n * n), [e.shape[1] for e in ends])
    # a sort, not np.unique: numpy 2.4's np.unique hashes int64 keys, which
    # took 0.40 ms on 2,400 keys where the sort took 0.03 ms (2-core host)
    key = np.sort(key)
    first = np.ones(key.size, dtype=bool)  # each key once
    np.not_equal(key[1:], key[:-1], out=first[1:])
    block, key = np.divmod(key[first], n * n)
    pairs = np.array(np.divmod(key, n), dtype=np.int32)
    bounds = np.searchsorted(block, np.arange(blocks + 1)).tolist()
    return ids, [pairs[:, a:b] for a, b in zip(bounds, bounds[1:])]


def smash(tgs):
    """Collapse a sequence into the union of its slots."""
    g = m_smash(tgs, tgs.horizon)[0]
    return SmashedGraph(g.nodes, _id_pairs(g._ids, g._ends))


def m_smash(tgs, m):
    """Smash every block of m consecutive slots, keeping the blocks stacked.

    m=1 returns an equivalent copy; m >= T collapses the whole sequence
    into a single graphlet equal to smash(tgs).  Each block's slot holds
    the ids present in some slot of the block.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("block size m must be a positive integer")
    gs = tgs.graphlets
    ids, unions = _block_unions(gs, m)
    table = frozenset(ids)
    out = []
    for t, ends in enumerate(unions, start=1):
        members = gs[(t - 1) * m:t * m]
        if all(len(g.nodes) < len(ids) for g in members):  # the block may lack some ids
            out.append(Graphlet(t, frozenset().union(*(g.nodes for g in members)), _id_pairs(ids, ends)))
        else:
            out.append(Graphlet._from_ends(t, table, ids, ends))
    return GraphletSequence(out)


def _require_known(tgs, *ids):
    known = tgs.node_ids
    for v in ids:
        if v not in known:
            raise ValueError(f"unknown node id {v!r}")


def t_adjacent(tgs, u, v):
    """True iff the edge (u, v) is present in at least one slot."""
    _require_known(tgs, u, v)
    return any(g.has_edge(u, v) for g in tgs)


def t_reachable(tgs, source, target):
    """Journey reachability from source to target within the horizon.

    `source` reaches `target` iff some vertex (source, s) reaches some
    (target, t) in the stacked view, s <= t: a message may wait only at a
    node present in the slots it waits through.  Returns (reachable,
    journey); the witness journey is a list of ((from, to), slot) steps with
    non-decreasing slots, empty for source == target, and None when
    unreachable.
    """
    _require_known(tgs, source, target)
    journey = _journey(tgs, source, target)
    return journey is not None, journey


def _journey(tgs, source, target, first=None, last=None):
    """Slot-forward journey scan over the stacked view of `tgs` (the
    one-pass scan of Wu et al., "Path problems in temporal graphs", VLDB
    2014, over slots instead of an edge stream).

    With `first` and `last` the message starts at vertex (source, first) and
    must be at (target, last).  Without them it may start at any slot where
    `source` is present and arrive at any slot.  Within a slot it spreads
    over that slot's edges; before each later slot it is dropped at ids
    absent from that slot, as a cross arc needs the id in both slots.
    Returns the witness [((from, to), slot), ...], or None when unreachable.
    """
    pinned = first is not None
    here = {}  # node holding the message -> witness: None or (step, witness of step's tail)
    for g in tgs.graphlets[(first or 1) - 1:last]:
        if not here.keys() <= g.nodes:
            here = {v: w for v, w in here.items() if v in g.nodes}
        if source in g.nodes and (g.time == first or not pinned):
            here.setdefault(source, None)
        if len(here) < len(g.nodes):  # else every present id already holds it
            adj = adjacency(g.edges)
            for y, x in bfs(adj, [v for v in here if v in adj]).items():
                if x is not None:
                    here[y] = (((x, y), g.time), here[x])
        if not pinned and target in here:
            break
    if target not in here:
        return None
    journey = []
    w = here[target]
    while w is not None:
        step, w = w
        journey.append(step)
    journey.reverse()
    return journey


def _journey_masks(tgs, removed=frozenset()):
    """{node: mask} of journey reachability, with `removed` ids deleted from
    every slot.  The masks run into each node: bit i of v's mask is set when
    the i-th id in sorted order reaches v.

    held[v] holds the origins whose message is at v in the current slot; each
    slot component ORs its members' held masks once and writes the result
    back to every member.  When node sets vary, an absent id holds nothing
    and a present id takes its own origin back; the reachable sets are then
    the union of held over the slots.  On a constant node set no slot drops
    a bit, so that union is the last held.

    The scan stops after the first slot at which every mask of `reach` is
    full: `reach` only gains bits, so the remaining slots would return the
    same masks, whether node sets vary or not.
    """
    own = {v: 1 << i for i, v in enumerate(_sorted_ids(tgs.node_ids - removed))}
    full = (1 << len(own)) - 1
    held = reach = dict(own)
    varying = any(not own.keys() <= g.nodes for g in tgs)
    for g in tgs:
        if varying:
            held = {v: h | own[v] if v in g.nodes else 0 for v, h in held.items()}
        adj = adjacency((u, v) for u, v in g.edges if u in own and v in own)
        for comp in components(adj):
            mask = 0
            for x in comp:
                mask |= held[x]
            held.update(dict.fromkeys(comp, mask))
        if varying:
            reach = {v: r | held[v] for v, r in reach.items()}
        if all(r == full for r in reach.values()):
            break
    return reach


def t_clique(tgs):
    """A maximum node set of V(1) that is pairwise adjacent somewhere in time.

    Adjacency is read from the smashed union.  Exhaustive search; ties
    resolved toward the lexicographically smallest clique by sorted node
    id.  Desk scale only.
    """
    v1 = sorted(tgs.graphlets[0].nodes)
    if not v1:
        return ()
    adj = smash(tgs)._adj
    for size in range(len(v1), 0, -1):
        for combo in itertools.combinations(v1, size):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                return tuple(combo)
    return ()


def t_k_connected(tgs, k):
    """True iff every (k-1)-subset of node ids can be removed from all slots
    without breaking journey reachability between any remaining ordered pair."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = _sorted_ids(tgs.node_ids)
    if k - 1 >= len(ids):
        raise ValueError(f"cannot remove {k - 1} nodes from a {len(ids)}-node sequence")
    for removed in itertools.combinations(ids, k - 1):
        reach = _journey_masks(tgs, frozenset(removed)).values()
        full = (1 << len(reach)) - 1
        if any(r != full for r in reach):
            return False
    return True


def reachable_pairs_fraction(tgs):
    """Exact fraction of ordered pairs (u, v), u != v, with u -> v journey-reachable."""
    reach = _journey_masks(tgs).values()
    n = len(reach)
    if n < 2:
        return Fraction(0)
    hits = sum(r.bit_count() - 1 for r in reach)
    return Fraction(hits, n * (n - 1))


# --- text format -----------------------------------------------------------
#
# Line-oriented sequence format over contiguous 0-based integer node ids:
#
#   tgs <n> <T>
#   t <slot>
#   e <u> <v>
#   ...
#
# Every slot has node set {0, .., n-1}; slots without a `t` block are empty.
# Lines are stripped, blank lines and lines starting with '#' are skipped,
# and fields are split at any whitespace.  Numbers are ASCII decimal digits,
# with an optional '-' that every field's range check then refuses.
# format_tgs refuses a sequence with any other slot node set.  A text in the
# form format_tgs writes (`_WRITTEN_HEAD`, `_UNWRITTEN`) has no line to
# strip or skip and none that is neither a slot line nor an edge line, so
# parse_tgs reads it without the strip and without the `_ODD_LINE` search.

_MAX_NODES = 2 ** 31  # slots hold int32 ids
_INT = re.compile(r"-?[0-9]+")
# the form format_tgs writes: the header, then slot and edge lines, each of
# ASCII digits with one space between fields and ended by "\n".  After the
# header matches, the first "\n" not followed by a written slot or edge line
# is the text's last character exactly when the text is in that form.  The
# search fails at the first line not in the form, and it backtracks into no
# earlier line and holds no state per line, as a repeated group would.
_WRITTEN_HEAD = re.compile(r"tgs [0-9]+ [0-9]+\n")
_UNWRITTEN = re.compile(r"\n(?!t [0-9]+\n|e [0-9]+ [0-9]+\n)")
# on stripped lines that each follow a "\n" ([^\S\n] is whitespace inside a
# line): the first line that is neither a slot line nor an edge line, and
# each slot line
_ODD_LINE = re.compile(r"\n(?!(?:t[^\S\n]+-?[0-9]+|e[^\S\n]+-?[0-9]+[^\S\n]+-?[0-9]+)(?:\n|\Z))")
_SLOT_LINE = re.compile(r"\nt[^\S\n]+(-?[0-9]+)")
# every character of an edge run but digits, '-' and the whitespace that
# np.fromstring skips, as a space: "e" and the rest of what str.split skips
_TO_SPACE = str.maketrans(dict.fromkeys(
    "e\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000", " "))
_NO_ENDS = np.zeros((2, 0), dtype=np.int32)
_NO_ENDS.flags.writeable = False


def _kept_lines(text):
    """The lines of `text` that hold more than a comment or whitespace,
    stripped and joined by "\n"."""
    return "\n".join(ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#"))


def _line_fault(line, declared):
    """The message for a line that is neither a slot line nor an edge line."""
    kind = line.split()[0]
    if kind == "t":
        return f"bad slot line {line!r}"
    if kind == "e":
        return f"bad edge line {line!r}" if declared else "edge line before any 't <slot>' line"
    return f"unrecognized line {line!r}"


def _run_ends(runs, run_slots, n):
    """Per run of edge-line text, its edges as a sorted (2, E) int32 array;
    raises ValueError for the first edge line with an id out of 0..n-1, a
    self-loop, or an edge already in its slot."""
    counts = [run.count("\n") for run in runs]
    text = "".join(runs).translate(_TO_SPACE)
    u, v = np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2).T
    run_of = np.repeat(np.arange(len(runs)), counts)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    outside = (lo < 0) | (hi >= n)
    key = np.where(outside, -1, lo * n + hi)  # an outside line is refused before a repeat
    order = np.lexsort((key, run_of))
    repeat = np.zeros(key.size, dtype=bool)
    repeat[order[1:]] = (key[order[1:]] == key[order[:-1]]) & (run_of[order[1:]] == run_of[order[:-1]])
    bad = outside | (u == v) | repeat
    if bad.any():
        i = int(bad.argmax())
        r = int(run_of[i])
        line = runs[r].split("\n")[i - sum(counts[:r]) + 1]
        if outside[i]:
            raise ValueError(f"node id out of range 0..{n - 1} in {line!r}")
        if u[i] == v[i]:
            raise ValueError(f"self-loop on node {int(u[i])!r}")
        raise ValueError(f"duplicate edge {(int(lo[i]), int(hi[i]))} in slot {run_slots[r]}")
    ends = np.stack([lo, hi])[:, order].astype(np.int32)
    bounds = np.cumsum([0, *counts]).tolist()
    return [ends[:, a:b] for a, b in zip(bounds, bounds[1:])]


def parse_tgs(text):
    """The sequence written in the text format; a malformed file raises
    ValueError naming its first bad line in file order.

    A text in the form `format_tgs` writes, which one header match and one
    line search recognise, is read as it is.  Any other text is first cut
    to its kept lines (`_kept_lines`), and one regular-expression search
    finds the first line that is neither a slot line nor an edge line.  The edge
    lines of all slots are read as one integer array and checked for range,
    self-loops and repeats within a slot with array operations, on both
    paths.  Each slot holds its edges as a sorted index array (see
    `Graphlet`).
    """
    head = _WRITTEN_HEAD.match(text)
    written = head is not None and _UNWRITTEN.search(text, head.end() - 1).start() == len(text) - 1
    text = text[:-1] if written else _kept_lines(text)
    if not text:
        raise ValueError("empty sequence file")
    first = text.partition("\n")[0]
    head = first.split()
    if len(head) != 3 or head[0] != "tgs":
        raise ValueError(f"bad header {first!r}; expected 'tgs <n> <T>'")
    if not all(map(_INT.fullmatch, head[1:])):
        raise ValueError(f"bad header {first!r}; node count and horizon must be integers")
    n, horizon = int(head[1]), int(head[2])
    if n < 0 or horizon < 1:
        raise ValueError("node count must be >= 0 and horizon >= 1")
    if n > _MAX_NODES:
        raise ValueError(f"node count {n} is above the format's limit of {_MAX_NODES}")
    body = text[len(first):]  # each line after the header follows a "\n"
    odd = None if written else _ODD_LINE.search(body)
    stop = len(body) if odd is None else odd.start()  # well-formed lines end here
    slot_lines = list(_SLOT_LINE.finditer(body, 0, stop))
    if stop and (not slot_lines or slot_lines[0].start()):
        raise ValueError("edge line before any 't <slot>' line")
    runs, run_slots = [], []  # the edge lines of each declared slot that has some
    declared = set()
    fault = None  # a line that is malformed on its own; the edge lines before it are checked first
    for m, end in zip(slot_lines, [m.start() for m in slot_lines[1:]] + [stop]):
        slot = int(m[1])
        if not 1 <= slot <= horizon:
            fault = f"slot {slot} out of range 1..{horizon}"
            break
        if slot in declared:
            fault = f"slot {slot} declared twice"
            break
        declared.add(slot)
        if m.end() < end:
            runs.append(body[m.end():end])
            run_slots.append(slot)
    else:
        if odd is not None:
            fault = _line_fault(body[stop + 1:].partition("\n")[0], declared)
    slot_ends = dict(zip(run_slots, _run_ends(runs, run_slots, n))) if runs else {}
    if fault is not None:
        raise ValueError(fault)
    ids = tuple(range(n))
    nodes = frozenset(ids)
    return GraphletSequence(
        Graphlet._from_ends(t, nodes, ids, slot_ends.get(t, _NO_ENDS)) for t in range(1, horizon + 1)
    )


def format_tgs(tgs):
    """The text of `tgs`; raises ValueError unless every slot's node set is
    exactly 0..n-1, as the format cannot hold any other.  Every slot's edges
    are written from its index array, through one string per node id."""
    ids = tgs.node_ids
    for v in ids:
        if not isinstance(v, int) or v < 0:
            raise ValueError("the text format requires non-negative integer node ids")
    n = max(ids) + 1 if ids else 0
    if any(len(g.nodes) != n for g in tgs):
        raise ValueError(f"the text format requires node set 0..{n - 1} in every slot")
    ends = [g._ends for g in tgs]  # positions in 0..n-1 are the ids
    sizes = np.array([e.shape[1] for e in ends])
    lines = np.empty(tgs.horizon + sizes.sum(), dtype=object)
    slot_lines = np.arange(tgs.horizon) + np.concatenate([[0], np.cumsum(sizes[:-1])])
    lines[slot_lines] = [f"t {t}\n" for t in range(1, tgs.horizon + 1)]
    heads = np.array([f"e {v} " for v in range(n)], dtype=object)
    tails = np.array([f"{v}\n" for v in range(n)], dtype=object)
    u, v = np.concatenate(ends, axis=1)
    edge_lines = np.ones(lines.size, dtype=bool)
    edge_lines[slot_lines] = False
    lines[edge_lines] = heads[u] + tails[v]
    return f"tgs {n} {tgs.horizon}\n" + "".join(lines.tolist())


def load_tgs(path):
    return parse_tgs(Path(path).read_text())


def dump_tgs(tgs, path):
    Path(path).write_text(format_tgs(tgs))
