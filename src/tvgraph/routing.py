"""Optimal adaptive next-hop routing on independent-churn graphs.

Each slot every candidate edge is up with probability p; moving across an
up edge consumes the slot it was observed in, so a single edge to the
destination costs 1/p expected slots.  The minimum expected traversal
time (METT) of every node is the cost of its best *prefix policy*: accept
whichever of its k cheapest neighbors comes up first, with k chosen to
minimize the expected remaining time.

compute_mett finds every METT in one destination-out label-setting pass in
the style of Dijkstra.  Neighbors settle in nondecreasing METT order, so
each settling extends the acceptance prefix of its unsettled neighbors by
one candidate, an O(1) update of running sums.  A prefix stops growing at
the first candidate whose METT is not below the current cost: the cost of
the longer prefix is the mediant of the current cost and that METT, so no
longer prefix can do better, and ties go to the shorter prefix.  The pass
costs O(E log V).

Two oracles, independent of the solver, check it.  Each builds a
table of weighted node sets for every node u, and one kernel finds the
least fixed point of V(u) = sum_j w_uj (1 + min over S_uj of V) by
whole-array value iteration upward from zero.  The store-or-advance
oracle takes one row per subset of u's edges that is up (exponential in
degree, desk scale only); the cut-through oracle takes one row per
component of u without the destination, over all edge subsets.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .models import ErParams
from .simulate import simulate_soa
from .temporal import adjacency, bfs

__all__ = [
    "MettTable",
    "prefix_cost",
    "compute_mett",
    "adaptive_next_hop",
    "run_adaptive_route",
    "mett_value_iteration_oracle",
    "cut_mett_small",
]

INF = math.inf


@dataclass(frozen=True)
class MettTable:
    """Per-node minimum expected traversal times plus the next-hop policy.

    policy[u] is the ordered acceptance prefix: u's neighbors sorted by
    METT, cut at the length that minimizes u's expected remaining time.
    order is the extraction order that produced the values.
    """

    dest: object
    p: float
    mett: dict
    policy: dict
    order: tuple = ()

    def to_json_dict(self):
        nodes = {}
        for v in sorted(self.mett):
            m = self.mett[v]
            nodes[str(v)] = {
                "mett": "inf" if math.isinf(m) else m,
                "policy": list(self.policy.get(v, ())),
            }
        return {"p": self.p, "dest": self.dest, "nodes": nodes}


def prefix_cost(p, sorted_metts):
    """Expected slots of the best acceptance prefix over sorted candidate METTs.

    Taking the k cheapest candidates, some accepted edge is up with
    probability s_k = 1-(1-p)^k per slot; the crossing slot is included, so

        cost(k) = (1 + sum_i p (1-p)^(i-1) m_i) / s_k

    cost(k) is the mediant of cost(k-1) and m_k, so it falls below cost(k-1)
    only when m_k does; the scan stops at the first m_k not below the current
    cost, and no longer prefix does better.  Returns (cost, k) minimizing over
    k, ties toward smaller k; an empty or all-infinite candidate list yields
    (inf, 0).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    ms = list(sorted_metts)
    for a, b in zip(ms, ms[1:]):
        if b < a:
            raise ValueError("candidate METTs must be sorted ascending")
    best_cost, best_k = INF, 0
    weight = p
    prob_sum = 0.0
    weighted = 0.0
    for k, m in enumerate(ms, start=1):
        if m >= best_cost:
            break
        prob_sum += weight
        weighted += weight * m
        cost = (1.0 + weighted) / prob_sum
        if not cost < best_cost:  # a weight too small to move the rounded cost
            break
        best_cost, best_k = cost, k
        weight *= 1.0 - p
    return best_cost, best_k


def _check_query(gu, p, dest):
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if dest not in gu.nodes:
        raise ValueError(f"destination {dest!r} not in the graph")


def compute_mett(gu, p, dest):
    """Destination-out extraction of every node's minimum expected traversal time.

    Settling order is by (value, node id), so each node's neighbors settle
    in its candidates' sorted order.  When u settles with value d, each
    unsettled neighbor v whose current cost is strictly above d takes u as
    the next candidate of its acceptance prefix: running sums of the
    candidates' weights and weighted METTs give v's new cost in O(1).  A
    neighbor whose METT is not below v's cost is never taken (prefix_cost's
    stopping rule), so ties go to the shorter prefix.  The pass costs
    O(E log V).  policy[v] is the accepted neighbors sorted by (METT, node
    id).  Unreachable nodes keep METT = inf and an empty policy.
    """
    _check_query(gu, p, dest)
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
            if cost < mett[v]:  # as in prefix_cost, a candidate must move the rounded cost
                mett[v] = cost
                sums[v] = (weight * (1.0 - p), prob_sum, weighted)
                accepted[v].append(u)
                heapq.heappush(heap, (cost, v))
    policy = {u: tuple(sorted(accepted[u], key=lambda v: (mett[v], v))) for u in gu.nodes}
    return MettTable(dest=dest, p=p, mett=mett, policy=policy, order=tuple(order))


def adaptive_next_hop(table, u, on_neighbors):
    """Greedy move: the lowest-METT currently-up neighbor that strictly improves
    on u's METT (ties by node id), or None to stay.  Memoryless by construction."""
    here = table.mett.get(u, INF)
    best = None
    for v in on_neighbors:
        m = table.mett.get(v, INF)
        if m < here and (best is None or (m, v) < best):
            best = (m, v)
    return None if best is None else best[1]


def run_adaptive_route(gu, p, source, dest, horizon=None, trials=10_000, seed=0):
    """Empirical latency of the greedy METT policy; its mean converges to
    METT[source]."""
    table = compute_mett(gu, p, dest)
    if source not in gu.nodes:
        raise ValueError(f"source {source!r} not in the graph")
    if math.isinf(table.mett[source]):
        raise ValueError(f"{dest!r} is unreachable from {source!r}")
    return simulate_soa(
        ErParams(p), gu, source, dest, horizon=horizon, trials=trials, seed=seed,
        next_hop=dict(table.policy),
    )


# --- oracles ------------------------------------------------------------------


def _least_fixed_point(gu, p, dest, owner, weight, member, tol, max_iter):
    """Least fixed point of V(u) = sum_j w_uj (1 + min over x in S_uj of V(x)).

    Table row j belongs to the node at position owner[j] of sorted(gu.nodes),
    weighs weight[j] and marks the set S_uj in the boolean row member[j];
    every S_uj lies in u's component of gu.  dest is pinned at 0 and nodes
    cut off from it at infinity; the rest iterate upward from zero in
    Jacobi sweeps, every node updated from the previous sweep's values,
    until no value moves by more than tol.  Raises after max_iter sweeps
    without convergence.
    """
    nodes = sorted(gu.nodes)
    reachable = bfs(gu.neighbor_map(), [dest])
    live = np.array([v in reachable and v != dest for v in nodes])
    keep = live[owner]  # no live set holds a cut-off node, so those may sit at 0 until the end
    owner, weight, member = owner[keep], weight[keep], member[keep]
    value = np.zeros(len(nodes))
    for _ in range(max_iter):
        nearest = np.where(member, value, INF).min(axis=1)
        new = np.bincount(owner, weight * (1.0 + nearest), minlength=len(nodes))
        delta = np.abs(new - value).max()
        value = new
        if delta <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not converge within {max_iter} sweeps")
    mett = {v: (x if v in reachable else INF) for v, x in zip(nodes, value.tolist())}
    return MettTable(dest=dest, p=p, mett=mett, policy=_improving_policy(gu, mett, dest))


def mett_value_iteration_oracle(gu, p, dest, tol=1e-12, max_iter=100_000):
    """Fixed point of the one-slot lookahead over every edge-observation subset.

    V(u) = 1 + E[min(min over up neighbors of V, V(u))], expectation taken by
    enumerating all 2^deg up-sets: each up-set S of u's edges is one table
    row, the set S + {u} weighted by P(S).  Exponential in degree; desk
    scale only.  Raises on non-convergence.
    """
    _check_query(gu, p, dest)
    nodes = sorted(gu.nodes)
    nbr = gu.neighbor_map()
    owner, weight, member = [], [], []
    for i, u in enumerate(nodes):
        degree = len(nbr[u])
        up = np.arange(1 << degree)[:, None] >> np.arange(degree) & 1
        bits = up.sum(axis=1)
        sets = np.zeros((1 << degree, len(nodes)), dtype=bool)
        sets[:, [nodes.index(w) for w in nbr[u]]] = up
        sets[:, i] = True
        owner.append(np.full(1 << degree, i))
        weight.append(p ** bits * (1.0 - p) ** (degree - bits))
        member.append(sets)
    return _least_fixed_point(
        gu, p, dest, np.concatenate(owner), np.concatenate(weight), np.concatenate(member),
        tol, max_iter,
    )


def _improving_policy(gu, value, dest):
    nbr = gu.neighbor_map()
    policy = {}
    for u in gu.nodes:
        if u == dest or math.isinf(value[u]):
            policy[u] = ()
            continue
        cands = sorted((value[v], v) for v in nbr[u] if value[v] < value[u])
        policy[u] = tuple(v for _, v in cands)
    return policy


def cut_mett_small(gu, p, dest, tol=1e-12, max_iter=100_000, max_edges=16):
    """Cut-through METT by exact enumeration of all per-slot edge subsets.

    Each slot the whole current component is reachable for free; if it holds
    the destination the trial ends, otherwise the message jumps to the
    component's best node and the slot is spent waiting:

        V(u) = sum over up-sets P(S) * (0 if dest in comp(u, S)
                                        else 1 + min over comp(u, S) of V)

    Each table row is one component without the destination, weighted by
    the summed probability of the up-sets that give u that component.
    Feasible only for graphs with at most `max_edges` candidate edges;
    beyond that, use the Monte Carlo cut-through simulator instead.
    """
    _check_query(gu, p, dest)
    n_edges = len(gu.edges)
    if n_edges > max_edges:
        raise ValueError(
            f"{n_edges} candidate edges exceeds the {max_edges}-edge enumeration cap; "
            "evaluate cut-through routing by Monte Carlo instead"
        )
    nodes = sorted(gu.nodes)
    buckets = {}  # (owner position, component row) -> probability
    for mask in range(1 << n_edges):
        bits = mask.bit_count()
        prob = p ** bits * (1.0 - p) ** (n_edges - bits)
        adj = adjacency(e for i, e in enumerate(gu.edges) if mask >> i & 1)
        row_of = {}
        for u in nodes:
            if u not in row_of:
                comp = bfs(adj, [u])
                row = None if dest in comp else tuple(v in comp for v in nodes)
                row_of.update(dict.fromkeys(comp, row))
        for i, u in enumerate(nodes):
            if row_of[u] is not None:
                buckets[i, row_of[u]] = buckets.get((i, row_of[u]), 0.0) + prob
    return _least_fixed_point(
        gu, p, dest,
        np.array([i for i, _ in buckets], dtype=np.int64),
        np.array(list(buckets.values())),
        np.array([row for _, row in buckets], dtype=bool).reshape(len(buckets), len(nodes)),
        tol, max_iter,
    )
