"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts the
criterion at its stated tolerance.  Everything is deterministic: Monte Carlo
runs use fixed seeds.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from tvgraph.analytics import (
    er_cut_latency_pmf,
    er_soa_latency_pmf,
    er_soa_location_pmf,
    m_smashed_reach_cdf,
    mc_cut_latency_pmf,
    mc_soa_latency_pmf,
    pmf_moments,
    smashed_reach_cdf,
    stacked_reach_cdf,
)
from tvgraph.models import (
    ErParams,
    MarkovParams,
    UnderlyingGraph,
    alternating_average_latency,
    shortest_path,
)
from tvgraph.routing import compute_mett, mett_value_iteration_oracle, run_adaptive_route
from tvgraph.simulate import reachable_pairs_samples, simulate_cut, simulate_soa
from tvgraph.temporal import (
    GraphletSequence,
    build_stacked,
    stacked_reachable,
    t_k_connected,
    t_reachable,
)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_soa_mean_closed_form():
    worst = 0.0
    for n in (3, 5, 10):
        for p in (0.1, 0.25, 0.5):
            pmf = er_soa_latency_pmf(n, p)
            mean, _, trunc = pmf_moments(pmf)
            assert trunc < 1e-9
            worst = max(worst, abs(mean - (n - 1) / p))
    report(1, worst < 1e-5, f"store-or-advance mean = (n-1)/p, worst |err| {worst:.2e}")


def test_criterion_02_cut_moments_closed_form():
    worst = 0.0
    for n in (3, 5, 10):
        for p in (0.1, 0.25, 0.5):
            mean, var, trunc = pmf_moments(er_cut_latency_pmf(n, p))
            assert trunc < 1e-9
            worst = max(worst, abs(mean - (n - 1) * (1 - p) / p))
            worst = max(worst, abs(var - (n - 1) * (1 - p) / p ** 2))
    report(2, worst < 1e-5, f"cut-through mean/variance closed forms, worst |err| {worst:.2e}")


def test_criterion_03_markov_reduces_to_independent():
    worst = 0.0
    for n in range(2, 13):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            params = MarkovParams(p, 1 - p)
            mc = mc_cut_latency_pmf(n, params, max_latency=199)
            er = er_cut_latency_pmf(n, p, max_latency=199)
            worst = max(worst, max(abs(a - b) for a, b in zip(mc.masses, er.masses)))
            mc = mc_soa_latency_pmf(n, params, max_latency=n - 1 + 199)
            er = er_soa_latency_pmf(n, p, max_latency=n - 1 + 199)
            worst = max(worst, max(abs(a - b) for a, b in zip(mc.masses, er.masses)))
    report(3, worst < 1e-12, f"q=1-p chain equals independent model pointwise, worst {worst:.2e}")


def test_criterion_04_alternation_limit():
    params = MarkovParams(0.999, 0.999)
    cut_mean = pmf_moments(mc_cut_latency_pmf(10, params))[0]
    soa_mean = pmf_moments(mc_soa_latency_pmf(10, params))[0]
    cut_err = abs(cut_mean - 4.5) / 4.5
    soa_err = abs(soa_mean - 13.5) / 13.5
    report(
        4,
        cut_err < 0.01 and soa_err < 0.01,
        f"p=q=0.999 means {cut_mean:.4f}/{soa_mean:.4f} vs 4.5/13.5 "
        f"(rel err {cut_err:.2%}/{soa_err:.2%})",
    )


def test_criterion_05_alternating_exact_enumeration():
    ok = True
    for n in range(2, 15):
        ok = ok and alternating_average_latency(n, "cut") == Fraction(n - 1, 2)
        ok = ok and alternating_average_latency(n, "soa") == Fraction(3 * (n - 1), 2)
    report(5, ok, "all 2^(n-1) start configurations average (n-1)/2 and 3(n-1)/2, n <= 14")


def test_criterion_06_monte_carlo_vs_analytic():
    gu10 = UnderlyingGraph.line(10)
    results = []
    emp = simulate_soa(ErParams(0.25), gu10, 0, 9, trials=400_000, seed=0)
    results.append(("er soa", emp.total_variation(er_soa_latency_pmf(10, 0.25))))
    emp = simulate_cut(ErParams(0.25), gu10, 0, 9, trials=400_000, seed=0)
    results.append(("er cut", emp.total_variation(er_cut_latency_pmf(10, 0.25))))
    gu6 = UnderlyingGraph.line(6)
    params = MarkovParams(0.5, 0.25)
    emp = simulate_soa(params, gu6, 0, 5, trials=400_000, seed=0)
    results.append(("mc soa", emp.total_variation(mc_soa_latency_pmf(6, params))))
    emp = simulate_cut(params, gu6, 0, 5, trials=400_000, seed=0)
    results.append(("mc cut", emp.total_variation(mc_cut_latency_pmf(6, params))))
    worst = max(tv for _, tv in results)
    detail = ", ".join(f"{name} tv {tv:.4f}" for name, tv in results)
    report(6, worst < 0.01, f"400k-trial replays vs analytic: {detail}")


def test_criterion_07_location_distribution():
    n, p, t = 10, 0.25, 20
    loc = er_soa_location_pmf(n, p, t)

    # independent oracle: position = 1 + Binomial(t, p), absorbed at the end
    # once n-1 successes have occurred
    def binom(k):
        return math.comb(t, k) * p ** k * (1 - p) ** (t - k)

    oracle_mean = sum(k * binom(k - 1) for k in range(1, n)) + n * sum(
        binom(k) for k in range(n - 1, t + 1)
    )
    err = abs(loc.mean_position() - oracle_mean)
    centered = abs(loc.mean_position() - 6.0) <= 0.5
    report(
        7,
        err < 0.05 and centered,
        f"20-slot position mean {loc.mean_position():.4f} vs oracle {oracle_mean:.4f} "
        f"(err {err:.2e}), centered near node 6",
    )


def test_criterion_08_smashing_order():
    n, p = 10, 0.1
    ok = True
    strict = 0
    for m in (1, 2, 5):
        for t in range(m, 101, m):
            stg = stacked_reach_cdf(n, p, t)
            mid = m_smashed_reach_cdf(n, p, t, m)
            smg = smashed_reach_cdf(n, p, t)
            if m == 1:
                ok = ok and mid == stg
            ok = ok and stg <= mid + 1e-12 and mid <= smg + 1e-12
            if stg + 1e-12 < mid and mid + 1e-12 < smg:
                strict += 1
    report(
        8,
        ok and strict > 0,
        f"stacked <= coarsened <= smashed on the divisible grid (strict at {strict} points), "
        "m=1 exactly equal",
    )


def test_criterion_09_representation_reducibility():
    triangle = GraphletSequence.from_slot_edges(
        "abc", [[("a", "b")], [("b", "c")], [("c", "a")]]
    )
    two_connected = t_k_connected(triangle, 2)

    stg = build_stacked(triangle)
    nodes = sorted(stg.nodes)
    adj = {v: set() for v in nodes}
    for a, b in stg.arcs:
        adj[a].add(b)
        adj[b].add(a)

    def undirected_two_connected():
        for removed in nodes:
            rest = [v for v in nodes if v != removed]
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y != removed and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != len(rest):
                return False
        return True

    stacked_two_connected = undirected_two_connected()

    rng = random.Random(1234)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        horizon = rng.randint(1, 6)
        slots = []
        for _ in range(horizon):
            p_edge = rng.uniform(0.05, 0.5)
            slots.append(
                [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
            )
        tgs = GraphletSequence.from_slot_edges(range(n), slots)
        stacked = build_stacked(tgs)
        for u, v in itertools.permutations(range(n), 2):
            direct = t_reachable(tgs, u, v)[0]
            via_stack = stacked_reachable(stacked, (u, 1), (v, horizon))
            if direct != via_stack:
                mismatches += 1
    report(
        9,
        two_connected and not stacked_two_connected and mismatches == 0,
        f"temporal triangle splits 2-connectivity (sequence True / stacked False); "
        f"{mismatches} journey-vs-stacked mismatches over 1000 instances",
    )


def _connected_graphs(n):
    all_edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(all_edges)):
        edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
        gu = UnderlyingGraph(tuple(range(n)), edges)
        if all(shortest_path(gu, 0, v) is not None for v in range(1, n)):
            yield gu


def _random_connected(n, p_edge, rng):
    while True:
        edges = tuple(
            e for e in itertools.combinations(range(n), 2) if rng.random() < p_edge
        )
        gu = UnderlyingGraph(tuple(range(n)), edges)
        if all(shortest_path(gu, 0, v) is not None for v in range(1, n)):
            return gu


def test_criterion_10_routing_correctness():
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 5):
        for gu in _connected_graphs(n):
            for p in (0.2, 0.5, 0.8):
                table = compute_mett(gu, p, 0)
                oracle = mett_value_iteration_oracle(gu, p, 0)
                worst = max(
                    worst, max(abs(table.mett[v] - oracle.mett[v]) for v in gu.nodes)
                )
                count += 1
    for i in range(100):
        gu = _random_connected(8, 0.35, np.random.default_rng(1000 + i))
        table = compute_mett(gu, 0.5, 0)
        oracle = mett_value_iteration_oracle(gu, 0.5, 0)
        worst = max(worst, max(abs(table.mett[v] - oracle.mett[v]) for v in gu.nodes))
        count += 1

    # dyadic p keeps the per-hop accumulation exact in floats
    line_exact = all(
        compute_mett(UnderlyingGraph.line(n), p, n - 1).mett[0] == (n - 1) / p
        for n in (5, 10)
        for p in (0.25, 0.5)
    )

    emp = run_adaptive_route(UnderlyingGraph.line(10), 0.25, 0, 9, trials=400_000, seed=0)
    gap_se = abs(emp.mean() - 36.0) / emp.stderr_mean()

    report(
        10,
        worst < 1e-6 and line_exact and gap_se <= 4.0,
        f"solver vs oracle on {count} graphs (worst {worst:.2e}); line value exact; "
        f"adaptive mean {emp.mean():.3f} within {gap_se:.2f} standard errors of 36",
    )


def test_criterion_11_reachable_pairs_contrast():
    gu = UnderlyingGraph.complete(20)
    grid = list(range(1, 41))
    trials = 200
    mc = reachable_pairs_samples(
        MarkovParams(0.5, 0.05, p0=0.005), gu, grid, trials=trials, seed=11
    )
    er = reachable_pairs_samples(ErParams(0.05), gu, grid, trials=trials, seed=11)
    pointwise = bool((mc["smashed"] >= mc["stacked"]).all())
    mc_gap = float((mc["smashed"] - mc["stacked"]).mean())
    er_gap = float((er["smashed"] - er["stacked"]).mean())
    report(
        11,
        pointwise and mc_gap < er_gap,
        f"collapsed view dominates pointwise on shared samples; mean gap "
        f"{mc_gap:.4f} (chain) < {er_gap:.4f} (independent)",
    )
