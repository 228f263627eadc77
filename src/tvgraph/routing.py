"""Optimal adaptive next-hop routing on independent-churn graphs.

Each slot every candidate edge is up with probability p; moving across an
up edge consumes the slot it was observed in, so a single edge to the
destination costs 1/p expected slots.  The minimum expected traversal
time (METT) of every node is the cost of its best *prefix policy*: accept
whichever of its k cheapest neighbors comes up first, with k chosen to
minimize the expected remaining time.

compute_mett finds every METT in one destination-out label-setting pass in
the style of Dijkstra, over the candidate graph's adjacency arrays and
lists indexed by node position.  Neighbors settle in nondecreasing METT
order, so each settling extends the acceptance prefix of its unsettled
neighbors by one candidate, an O(1) update of running sums.  A prefix
stops growing at the first candidate whose METT is not below the current
cost: the cost of the longer prefix is the mediant of the current cost and
that METT, so no longer prefix can do better, and ties go to the shorter
prefix.  The pass costs O(E log V).

Two oracles, independent of the solver, check it.  Each builds a
table of weighted node sets for every node u, and one kernel finds the
least fixed point of V(u) = sum_j w_uj (1 + min over S_uj of V) exactly,
by policy iteration: a finite number of linear solves, with no tolerance
and no sweep count.  The store-or-advance oracle takes one row per subset
of u's edges that is up (exponential in degree, desk scale only); the
cut-through oracle takes one row per component of u, over all edge
subsets.  Every METT is at most (n-1)/p, so a p at which n/p overflows a
float is refused up front.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .models import ErParams, _candidate_hops
from .simulate import simulate_soa
from .temporal import adjacency, components

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
MAX_CUT_EDGES = 16  # cut_mett_small enumerates 2^edges up-sets


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
    if math.isinf(len(gu.nodes) / p):  # n/p bounds every METT and every cost on the way
        raise ValueError(f"p = {p!r} is too small: expected traversal times overflow a float")
    if dest not in gu.nodes:
        raise ValueError(f"destination {dest!r} not in the graph")


def compute_mett(gu, p, dest):
    """Destination-out extraction of every node's minimum expected traversal time.

    The pass runs over the cached adjacency `gu._adjacency`, whose
    positions are those of the sorted ids `gu.nodes`.  METTs, running sums
    and accepted candidates are lists indexed by position, so positions
    stand for ids and every tie below breaks by id.

    Settling order is by (value, node id), so each node's neighbors settle
    in its candidates' sorted order.  When u settles with value d, each
    unsettled neighbor v whose current cost is strictly above d takes u as
    the next candidate of its acceptance prefix: running sums of the
    candidates' weights and weighted METTs give v's new cost in O(1).  A
    neighbor whose METT is not below v's cost is never taken (prefix_cost's
    stopping rule), so ties go to the shorter prefix; this test also skips
    every settled neighbor, whose METT is at most d.  A heap entry whose key
    is no longer its node's METT is stale and is skipped.  The pass costs
    O(E log V).  policy[v] is the accepted neighbors sorted by (METT, node
    id), which is not always their settle order: rounding can bring a cost
    down to exactly the METT of a node with a larger id settled before it.
    Unreachable nodes keep METT = inf and an empty policy.  `mett` and
    `policy` list the ids in sorted order.
    """
    _check_query(gu, p, dest)
    ids = gu.nodes
    tails, start = gu._adjacency
    n = len(ids)
    mett = [INF] * n
    weight = [p] * n  # the weight of each node's next candidate, as in prefix_cost
    prob_sum = [0.0] * n
    weighted = [0.0] * n
    accepted = [[] for _ in range(n)]
    order = []
    stay = 1.0 - p
    at = ids.index(dest)
    mett[at] = 0.0
    heap = [(0.0, at)]
    while heap:
        d, u = heapq.heappop(heap)
        if d != mett[u]:
            continue
        order.append(u)
        for v in tails[start[u]:start[u + 1]]:
            if not d < mett[v]:
                continue
            w = weight[v]
            total = prob_sum[v] + w
            sum_m = weighted[v] + w * d
            cost = (1.0 + sum_m) / total
            if cost < mett[v]:  # as in prefix_cost, a candidate must move the rounded cost
                mett[v] = cost
                weight[v], prob_sum[v], weighted[v] = w * stay, total, sum_m
                accepted[v].append(u)
                heapq.heappush(heap, (cost, v))
    for acc in accepted:  # by (METT, id), with C-level keys
        acc.sort()
        acc.sort(key=mett.__getitem__)
    if ids != tuple(range(n)):  # positions are not the ids
        accepted = [[ids[v] for v in acc] for acc in accepted]
        order = [ids[u] for u in order]
    return MettTable(dest=dest, p=p, mett=dict(zip(ids, mett)),
                     policy=dict(zip(ids, map(tuple, accepted))), order=tuple(order))


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


def _least_fixed_point(gu, dest, owner, weight, member):
    """Least fixed point of V(u) = sum_j w_uj (1 + min over x in S_uj of V(x)).

    Table row j belongs to the node at position owner[j] of gu.nodes, weighs
    weight[j] and marks the set S_uj in the boolean row member[j]; every
    S_uj lies in u's component of gu.  dest is pinned at 0 and nodes cut
    off from it at infinity.  The rest are solved by policy iteration
    (Howard 1960): a policy picks one member of every row, its values are
    the exact solution of one linear system, and each row then switches to
    its cheapest member where that is strictly cheaper than its pick.  The
    first policy picks the member fewest hops from dest, which is proper,
    so every system is nonsingular and every later policy is proper too
    (Bertsekas and Tsitsiklis 1991).  Strict improvement never returns to
    a policy in exact arithmetic, so the loop stops when a policy repeats:
    at once when no row improves, or on a tie that rounding breaks both ways.
    Returns {node: V}.
    """
    n = len(gu.nodes)
    hops = np.array(_candidate_hops(gu, dest))  # -1 when cut off
    live = hops > 0
    keep = live[owner]
    owner, weight, member = owner[keep], weight[keep], member[keep]
    choice = np.where(member, hops, n).argmin(axis=1)  # a live row holds no cut-off node
    pinned = np.flatnonzero(~live)
    seen = set()
    while choice.tobytes() not in seen:
        seen.add(choice.tobytes())
        # u's equation: sum over its rows j that leave u of w_j (V(u) - V(pick_j))
        # = u's total weight.  A (1 - w_stay) diagonal would cancel digits at small p.
        go = choice != owner
        at = np.concatenate([owner[go] * (n + 1), owner[go] * n + choice[go]])
        system = np.bincount(at, np.concatenate([weight[go], -weight[go]]), minlength=n * n)
        system = system.reshape(n, n)
        system[:, pinned] = 0.0  # V = 0 there, so each pinned value solves to an exact 0
        system[pinned, pinned] = 1.0
        value = np.linalg.solve(system, np.bincount(owner, weight, minlength=n))
        cost = np.where(member, value, INF)
        choice = np.where(cost.min(axis=1) < value[choice], cost.argmin(axis=1), choice)
    return dict(zip(gu.nodes, np.where(hops < 0, INF, value).tolist()))


def mett_value_iteration_oracle(gu, p, dest):
    """Fixed point of the one-slot lookahead over every edge-observation subset.

    V(u) = 1 + E[min(min over up neighbors of V, V(u))], expectation taken by
    enumerating all 2^deg up-sets: each up-set S of u's edges is one table
    row, the set S + {u} weighted by P(S).  Solved exactly by policy
    iteration (`_least_fixed_point`), independently of compute_mett's
    settling order and prefix rule.  Exponential in degree; desk scale only.
    """
    _check_query(gu, p, dest)
    n = len(gu.nodes)
    tails, start = gu._adjacency
    owner, weight, member = [], [], []
    for i in range(n):
        degree = start[i + 1] - start[i]
        up = np.arange(1 << degree)[:, None] >> np.arange(degree) & 1
        bits = up.sum(axis=1)
        sets = np.zeros((1 << degree, n), dtype=bool)
        sets[:, tails[start[i]:start[i + 1]]] = up
        sets[:, i] = True
        owner.append(np.full(1 << degree, i))
        weight.append(p ** bits * (1.0 - p) ** (degree - bits))
        member.append(sets)
    mett = _least_fixed_point(gu, dest, *map(np.concatenate, (owner, weight, member)))
    return MettTable(dest=dest, p=p, mett=mett, policy=_improving_policy(gu, mett, dest))


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


def cut_mett_small(gu, p, dest):
    """Cut-through METT by exact enumeration of all per-slot edge subsets.

    Each slot the whole current component is reachable for free; if it holds
    the destination the trial ends, otherwise the message jumps to the
    component's best node and the slot is spent waiting:

        V(u) = sum over up-sets P(S) * (0 if dest in comp(u, S)
                                        else 1 + min over comp(u, S) of V)

    With W = V + 1 off dest and W(dest) = 0 this is W(u) = 1 + E[min over
    comp(u, S) of W], the form `_least_fixed_point` solves: each table row
    is one component of u, dest's included, weighted by the summed
    probability of the up-sets that give u that component.  Feasible only
    for graphs with at most MAX_CUT_EDGES candidate edges; beyond that, use
    the Monte Carlo cut-through simulator instead.
    """
    _check_query(gu, p, dest)
    n_edges = len(gu.edges)
    if n_edges > MAX_CUT_EDGES:
        raise ValueError(
            f"{n_edges} candidate edges exceeds the {MAX_CUT_EDGES}-edge enumeration cap; "
            "evaluate cut-through routing by Monte Carlo instead"
        )
    nodes = gu.nodes
    isolated = dict.fromkeys(nodes, ())  # adjacency() lists only nodes with an up edge
    buckets = {}  # component -> summed probability of the up-sets that give it
    for mask in range(1 << n_edges):
        bits = mask.bit_count()
        prob = p ** bits * (1.0 - p) ** (n_edges - bits)
        adj = adjacency(e for i, e in enumerate(gu.edges) if mask >> i & 1)
        for comp in map(frozenset, components(isolated | adj)):
            buckets[comp] = buckets.get(comp, 0.0) + prob
    sets = np.array([[v in comp for v in nodes] for comp in buckets])
    at, owner = np.nonzero(sets)  # each component is one table row of each of its members
    w = _least_fixed_point(gu, dest, owner, np.array(list(buckets.values()))[at], sets[at])
    mett = {v: x if v == dest else x - 1.0 for v, x in w.items()}
    return MettTable(dest=dest, p=p, mett=mett, policy=_improving_policy(gu, mett, dest))
