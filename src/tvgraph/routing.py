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

Two independent oracles back the solver: a value iteration over the full
per-slot edge-observation model (exponential in degree, desk scale only),
and a cut-through variant that enumerates all edge subsets to build the
per-slot component distribution.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .models import ErParams
from .simulate import default_horizon, simulate_soa
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
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if dest not in gu.nodes:
        raise ValueError(f"destination {dest!r} not in the graph")
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
    if math.isinf(table.mett[source]):
        raise ValueError(f"{dest!r} is unreachable from {source!r}")
    if horizon is None:
        horizon = default_horizon(len(gu.nodes), p)
    return simulate_soa(
        ErParams(p), gu, source, dest, horizon=horizon, trials=trials, seed=seed,
        next_hop=dict(table.policy),
    )


# --- oracles ------------------------------------------------------------------


def _subset_tables(degree, p):
    """(probabilities, membership) over all subsets of a `degree`-sized set."""
    masks = np.arange(1 << degree)
    member = (masks[:, None] >> np.arange(degree)) & 1
    bits = member.sum(axis=1)
    probs = p ** bits * (1.0 - p) ** (degree - bits)
    return probs, member.astype(bool)


def mett_value_iteration_oracle(gu, p, dest, tol=1e-12, max_iter=100_000):
    """Fixed point of the one-slot lookahead over every edge-observation subset.

    V(u) = 1 + E[min(min over up neighbors of V, V(u))], expectation taken by
    enumerating all 2^deg up-sets.  Nodes disconnected from dest are pinned at
    infinity; the rest iterate upward from zero to the least fixed point.
    Exponential in degree; desk scale only.  Raises on non-convergence.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if dest not in gu.nodes:
        raise ValueError(f"destination {dest!r} not in the graph")
    nbr = gu.neighbor_map()
    reachable = bfs(nbr, [dest])
    sweep = sorted(v for v in reachable if v != dest)
    tables = {}
    for u in sweep:
        probs, member = _subset_tables(len(nbr[u]), p)
        keep = probs > 0.0
        tables[u] = (probs[keep], member[keep], list(nbr[u]))
    value = {v: (0.0 if v in reachable else INF) for v in gu.nodes}
    for _ in range(max_iter):
        delta = 0.0
        new_value = dict(value)
        for u in sweep:
            probs, member, neighbors = tables[u]
            vals = np.array([value[w] for w in neighbors])
            subset_min = np.where(member, vals[None, :], INF).min(axis=1, initial=INF)
            best = np.minimum(subset_min, value[u])
            nv = 1.0 + float((probs * best).sum())
            new_value[u] = nv
            delta = max(delta, abs(nv - value[u]))
        value = new_value
        if delta <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not converge within {max_iter} sweeps")
    policy = _improving_policy(gu, value, dest)
    return MettTable(dest=dest, p=p, mett=value, policy=policy)


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

    Feasible only for graphs with at most `max_edges` candidate edges;
    beyond that, use the Monte Carlo cut-through simulator instead.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if dest not in gu.nodes:
        raise ValueError(f"destination {dest!r} not in the graph")
    n_edges = len(gu.edges)
    if n_edges > max_edges:
        raise ValueError(
            f"{n_edges} candidate edges exceeds the {max_edges}-edge enumeration cap; "
            "evaluate cut-through routing by Monte Carlo instead"
        )
    nodes = sorted(gu.nodes)
    buckets = {u: {} for u in nodes if u != dest}
    for mask in range(1 << n_edges):
        bits = mask.bit_count()
        prob = p ** bits * (1.0 - p) ** (n_edges - bits)
        if prob <= 0.0:
            continue
        adj = adjacency(e for i, e in enumerate(gu.edges) if mask >> i & 1)
        comp_of = {}
        for u in nodes:
            if u not in comp_of:
                comp = tuple(sorted(bfs(adj, [u])))
                comp_of.update(dict.fromkeys(comp, comp))
            comp = comp_of[u]
            if dest not in comp:
                buckets[u][comp] = buckets[u].get(comp, 0.0) + prob
    transitions = {
        u: [(prob, comp) for comp, prob in sorted(bucket.items())]
        for u, bucket in buckets.items()
    }
    reachable = bfs(gu.neighbor_map(), [dest])
    value = {v: (0.0 if v in reachable else INF) for v in nodes}
    sweep = sorted(v for v in reachable if v != dest)
    for _ in range(max_iter):
        delta = 0.0
        new_value = dict(value)
        for u in sweep:
            nv = 0.0
            for prob, comp in transitions[u]:
                nv += prob * (1.0 + min(value[w] for w in comp))
            new_value[u] = nv
            delta = max(delta, abs(nv - value[u]))
        value = new_value
        if delta <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not converge within {max_iter} sweeps")
    policy = _improving_policy(gu, value, dest)
    return MettTable(dest=dest, p=p, mett=value, policy=policy)
