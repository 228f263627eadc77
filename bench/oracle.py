"""Independent reference values for the benchmark's output checks.

Nothing here imports tvgraph.  The closed forms are evaluated in log space
with `math.lgamma`, and the CLI's text outputs are parsed by hand. A
defect in the library therefore cannot hide in the oracle.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

# A statistical check fails by chance with probability about 1e-9 (TV bound)
# or 6e-7 (a 5-sigma mean test); the benchmark makes a few dozen such checks
# per seed, so a miss is a defect, not noise.
Z_MEAN = 5.0
TV_DELTA = 1e-9


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binom_pmf(n, theta, k):
    if not 0 <= k <= n:
        return 0.0
    if theta == 0.0:
        return 1.0 if k == 0 else 0.0
    if theta == 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(_log_comb(n, k) + k * math.log(theta) + (n - k) * math.log1p(-theta))


def negbin(r, p, k):
    """P(k failures before the r-th success), success probability p."""
    if k < 0:
        return 0.0
    if r == 0 or p == 1.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(
        math.lgamma(r + k) - math.lgamma(k + 1) - math.lgamma(r)
        + r * math.log(p) + k * math.log1p(-p)
    )


def er_cut_mass(n, p, latency):
    """Cut-through on an n-node line, independent churn: each of the n-1
    edges costs a Geometric(p) number of waiting slots, so the latency is
    the failure count of a negative binomial with n-1 successes."""
    return negbin(n - 1, p, latency)


def er_soa_mass(n, p, latency):
    """Store-or-advance: every hop also consumes its crossing slot."""
    return negbin(n - 1, p, latency - (n - 1))


def chain_cut_mass(n, p, q, latency):
    """Cut-through on a line of stationary two-state edge chains.

    The message meets each edge at a time independent of that edge's chain,
    so m ~ Binomial(n-1, q/(p+q)) edges are found OFF, and each OFF edge
    costs a Geometric(p) >= 1 wait: given m the latency is m + NegBin(m, p).
    """
    off = q / (p + q)
    total = 0.0
    for m in range(0, min(n - 1, latency) + 1):
        wait = (1.0 if latency == 0 else 0.0) if m == 0 else negbin(m, p, latency - m)
        if wait:
            total += binom_pmf(n - 1, off, m) * wait
    return total


def chain_soa_mass(n, p, q, latency):
    return chain_cut_mass(n, p, q, latency - (n - 1))


def er_cut_mean(n, p):
    return (n - 1) * (1.0 - p) / p


def er_soa_mean(n, p):
    return (n - 1) / p


def chain_cut_mean(n, p, q):
    return (n - 1) * q / (p * (p + q))


def chain_soa_mean(n, p, q):
    return (n - 1) + chain_cut_mean(n, p, q)


def masses_until(mass_at, tail=1e-13, start=0):
    """Masses from `start` until the remaining tail drops below `tail`."""
    masses, cum, t = [], 0.0, start
    while 1.0 - cum >= tail:
        m = mass_at(t)
        masses.append(m)
        cum += m
        t += 1
    return masses


def er_connected_pair_prob(n, p):
    """P(two fixed nodes of G(n, p) lie in one component).

    c[k] = P(G(k, p) connected) by the standard recursion on the size of the
    component of one node; the pair probability sums over that component's
    size when it holds both nodes.  The recursion subtracts from 1 values
    that can be far smaller than 1, so it runs in 60-digit decimals.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        s = 1 - Decimal(p)
        c = [Decimal(0), Decimal(1)]
        for k in range(2, n + 1):
            c.append(1 - sum(math.comb(k - 1, j - 1) * c[j] * s ** (j * (k - j))
                             for j in range(1, k)))
        return float(sum(math.comb(n - 2, k - 2) * c[k] * s ** (k * (n - k))
                         for k in range(2, n + 1)))


def tv_bound(masses, trials):
    """A total-variation distance between a `trials`-sample histogram and its
    true pmf `masses` exceeds this with probability below TV_DELTA.

    E|f_i - p_i| <= sqrt(p_i (1 - p_i) / N) gives the mean, and one trial
    moves the distance by at most 1/N, so McDiarmid's inequality gives the
    deviation term.
    """
    tail = max(0.0, 1.0 - math.fsum(masses))
    expected = 0.5 * math.fsum(math.sqrt(m * (1.0 - m) / trials) for m in [*masses, tail])
    return expected + math.sqrt(math.log(1.0 / TV_DELTA) / (2.0 * trials))


def tv_distance(counts, undelivered, masses):
    """TV distance between a latency histogram (index = latency) and a pmf
    starting at latency 0; undelivered trials meet the pmf's tail."""
    trials = sum(counts) + undelivered
    top = max(len(counts), len(masses))
    diff = 0.0
    for t in range(top):
        f = counts[t] / trials if t < len(counts) else 0.0
        m = masses[t] if t < len(masses) else 0.0
        diff += abs(f - m)
    diff += abs(undelivered / trials - max(0.0, 1.0 - math.fsum(masses)))
    return 0.5 * diff


def histogram_moments(counts):
    """(trials, mean, variance) of a latency histogram."""
    n = sum(counts)
    mean = sum(t * c for t, c in enumerate(counts)) / n
    var = sum((t - mean) ** 2 * c for t, c in enumerate(counts)) / n
    return n, mean, var


def mean_problem(label, mean, variance, trials, expected):
    """A problem string when `mean` misses `expected` by more than Z_MEAN stderr."""
    se = math.sqrt(variance / trials)
    if abs(mean - expected) > Z_MEAN * se + 1e-12:
        return [f"{label}: mean {mean} vs closed form {expected} (stderr {se})"]
    return []


# --- parsers for the CLI's text outputs ---------------------------------------


def parse_csv(text):
    """(header, rows) of a CSV the CLI wrote; numeric cells become floats."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


def columns(text):
    header, rows = parse_csv(text)
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def histogram(text):
    """latency,count CSV -> counts list indexed by latency."""
    _, rows = parse_csv(text)
    counts = [0] * (int(rows[-1][0]) + 1 if rows else 0)
    for latency, count in rows:
        counts[int(latency)] = int(count)
    return counts


def parse_tgs_text(text):
    """(n, [frozenset of (u, v) edges per slot]) of the sequence text format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    _, n, horizon = lines[0]
    slots = [set() for _ in range(int(horizon))]
    current = None
    for parts in lines[1:]:
        if parts[0] == "t":
            current = slots[int(parts[1]) - 1]
        else:
            u, v = int(parts[1]), int(parts[2])
            current.add((min(u, v), max(u, v)))
    return int(n), [frozenset(s) for s in slots]


# --- graph oracles --------------------------------------------------------------


def components(n, edges):
    """Component label per node 0..n-1 (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return [find(x) for x in range(n)]


def connected_pair_fraction(n, edges):
    sizes = {}
    for label in components(n, edges):
        sizes[label] = sizes.get(label, 0) + 1
    return sum(k * (k - 1) for k in sizes.values()) / (n * (n - 1))


def journey_reach(slots, source):
    """Nodes journey-reachable from `source` over the slot edge sets in order
    (edges chain freely within a slot, never backward in time)."""
    reached = {source}
    for edges in slots:
        adj = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        stack = [x for x in reached if x in adj]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return reached


def journey_problems(slots, source, target, journey):
    """Problems with a witness journey [((x, y), slot), ...] from source to target."""
    at, last = source, 1
    for (x, y), slot in journey:
        if x != at or slot < last or (min(x, y), max(x, y)) not in slots[slot - 1]:
            return [f"journey {journey} breaks at step ({x}, {y}) slot {slot}"]
        at, last = y, slot
    return [] if at == target else [f"journey ends at {at}, not {target}"]


def prefix_costs(p, metts):
    """Expected slots of accepting the k cheapest candidates, k = 1, 2, ...:
    (1 + sum_{i<=k} p (1-p)^(i-1) m_i) / (1 - (1-p)^k) over the sorted
    finite candidate METTs.  The minimum is a node's optimality equation."""
    costs, weighted, weight = [], 0.0, p
    for k, m in enumerate(sorted(x for x in metts if math.isfinite(x)), start=1):
        weighted += weight * m
        costs.append((1.0 + weighted) / (1.0 - (1.0 - p) ** k))
        weight *= 1.0 - p
    return costs


def mett_problems(n, edges, p, dest, nodes):
    """Check a routing table {node: {"mett", "policy"}} against the optimality
    equation on the candidate graph, and the policy against the METTs."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    mett = {int(k): (math.inf if e["mett"] == "inf" else e["mett"]) for k, e in nodes.items()}
    reach = components(n, edges)
    problems = []
    for u in range(n):
        want_finite = reach[u] == reach[dest]
        if math.isfinite(mett[u]) != want_finite:
            problems.append(f"node {u}: METT {mett[u]} but reachable={want_finite}")
            continue
        if u == dest or not want_finite:
            continue
        best = min(prefix_costs(p, [mett[v] for v in adj[u]]), default=math.inf)
        if abs(best - mett[u]) > 1e-9 * max(1.0, best):
            problems.append(f"node {u}: METT {mett[u]} vs optimality equation {best}")
        policy = nodes[str(u)]["policy"]
        cost = prefix_costs(p, [mett[v] for v in policy])[-1] if policy else math.inf
        if abs(cost - mett[u]) > 1e-9 * max(1.0, cost) or any(v not in adj[u] for v in policy):
            problems.append(f"node {u}: policy {policy} costs {cost}, METT {mett[u]}")
        if len(problems) >= 5:
            break
    return problems
