import itertools
import math

import numpy as np
import pytest

from tvgraph.models import ErParams, UnderlyingGraph, sample_er_tgs, shortest_path
from tvgraph.routing import (
    MettTable,
    adaptive_next_hop,
    compute_mett,
    cut_mett_small,
    mett_value_iteration_oracle,
    prefix_cost,
    run_adaptive_route,
)
from tvgraph.simulate import replay_soa, simulate_cut

INF = math.inf


def connected_graphs(n):
    all_edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(all_edges)):
        edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
        gu = UnderlyingGraph(tuple(range(n)), edges)
        if all(shortest_path(gu, 0, v) is not None for v in range(1, n)):
            yield gu


def random_connected(n, p_edge, rng):
    while True:
        edges = tuple(
            e for e in itertools.combinations(range(n), 2) if rng.random() < p_edge
        )
        gu = UnderlyingGraph(tuple(range(n)), edges)
        if all(shortest_path(gu, 0, v) is not None for v in range(1, n)):
            return gu


# --- prefix cost -----------------------------------------------------------------


def test_prefix_cost_single_candidate():
    assert prefix_cost(0.5, [0.0]) == (2.0, 1)


def test_prefix_cost_certain_edge_takes_best():
    cost, k = prefix_cost(1.0, [3.0, 5.0, 9.0])
    assert (cost, k) == (4.0, 1)


def test_prefix_cost_rejects_expensive_second_choice():
    cost, k = prefix_cost(0.5, [2.0, 10.0])
    assert cost == pytest.approx(4.0, abs=1e-12)
    assert k == 1
    # taking both would cost 1/0.75 + (0.5*2 + 0.25*10)/0.75 = 6
    both = (1.0 + 0.5 * 2.0 + 0.25 * 10.0) / 0.75
    assert both == pytest.approx(6.0, abs=1e-12)


def test_prefix_cost_accepts_close_second_choice():
    cost, k = prefix_cost(0.5, [2.0, 3.9])
    assert k == 2
    assert cost == pytest.approx((1.0 + 0.5 * 2.0 + 0.25 * 3.9) / 0.75, abs=1e-12)


def test_prefix_cost_empty_or_infinite():
    assert prefix_cost(0.5, []) == (INF, 0)
    assert prefix_cost(0.5, [INF]) == (INF, 0)
    cost, k = prefix_cost(0.5, [1.0, INF])
    assert (cost, k) == (3.0, 1)


def test_prefix_cost_validation():
    with pytest.raises(ValueError):
        prefix_cost(0.0, [1.0])
    with pytest.raises(ValueError):
        prefix_cost(0.5, [2.0, 1.0])


def test_prefix_cost_matches_two_arm_value_iteration():
    # independent check of the (2, 10) example: iterate the waiting recurrence
    # V = min over accept sets of 1 + E[continuation]
    p = 0.5
    m1, m2 = 2.0, 10.0
    v = 0.0
    for _ in range(200):
        best = INF
        for accept in ((m1,), (m2,), (m1, m2)):
            s = 0.0
            cont = 0.0
            w = p
            for m in accept:
                s += w
                cont += w * m
                w *= 1 - p
            cost = 1.0 + cont + (1 - s) * v
            best = min(best, cost)
        v = best
    assert prefix_cost(p, [m1, m2])[0] == pytest.approx(v, abs=1e-9)


# --- compute_mett -----------------------------------------------------------------


def test_mett_on_line_closed_form():
    for n in (4, 10):
        for p in (0.25, 0.5):
            table = compute_mett(UnderlyingGraph.line(n), p, n - 1)
            for j in range(n):
                assert table.mett[j] == (n - 1 - j) / p  # dyadic p: exact
    assert compute_mett(UnderlyingGraph.line(10), 0.25, 9).mett[0] == 36.0


def test_mett_two_nodes():
    table = compute_mett(UnderlyingGraph.complete(2), 0.4, 1)
    assert table.mett[0] == pytest.approx(1 / 0.4, abs=1e-12)
    assert table.policy[0] == (1,)


def test_mett_unreachable_is_infinite():
    gu = UnderlyingGraph((0, 1, 2), ((0, 1),))
    table = compute_mett(gu, 0.5, 0)
    assert table.mett[1] == pytest.approx(2.0)
    assert math.isinf(table.mett[2])
    assert table.policy[2] == ()


def test_mett_validation():
    with pytest.raises(ValueError):
        compute_mett(UnderlyingGraph.line(3), 0.0, 2)
    with pytest.raises(ValueError):
        compute_mett(UnderlyingGraph.line(3), 0.5, 7)


def test_mett_table_invariants():
    rng = np.random.default_rng(20)
    for _ in range(25):
        gu = random_connected(7, 0.4, rng)
        p = rng.choice([0.2, 0.5, 0.8])
        table = compute_mett(gu, p, 0)
        nbr = gu.neighbor_map()
        assert table.mett[0] == 0.0
        # extraction order is non-decreasing in value
        values = [table.mett[v] for v in table.order]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        for u in gu.nodes:
            if u == 0 or math.isinf(table.mett[u]):
                continue
            assert table.policy[u], "finite node needs a non-empty acceptance prefix"
            cands = sorted((table.mett[v], v) for v in nbr[u] if table.mett[v] < table.mett[u])
            k = len(table.policy[u])
            assert table.policy[u] == tuple(v for _, v in cands[:k])
            cost, best_k = prefix_cost(p, [m for m, _ in cands])
            assert best_k == k
            assert cost == pytest.approx(table.mett[u], abs=1e-9)


@pytest.mark.parametrize("p", [0.01, 0.1, 0.25, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("n", [2, 3, 5, 20, 50, 150])
def test_mett_complete_graph_ties_are_exact(n, p):
    # every other node ties at 1/p, and a tied candidate never joins a prefix
    table = compute_mett(UnderlyingGraph.complete(n), p, n - 1)
    for v in range(n - 1):
        assert table.mett[v] == 1.0 / p
        assert table.policy[v] == (n - 1,)


def test_mett_json_export():
    table = compute_mett(UnderlyingGraph((0, 1, 2), ((0, 1),)), 0.5, 0)
    d = table.to_json_dict()
    assert d["nodes"]["2"]["mett"] == "inf"
    assert d["nodes"]["1"]["mett"] == pytest.approx(2.0)
    assert d["nodes"]["1"]["policy"] == [0]


# --- value-iteration oracle ----------------------------------------------------------


def test_oracle_line_closed_form():
    table = mett_value_iteration_oracle(UnderlyingGraph.line(4), 0.5, 3)
    for j in range(4):
        assert table.mett[j] == pytest.approx((3 - j) / 0.5, abs=1e-9)
    k2 = mett_value_iteration_oracle(UnderlyingGraph.complete(2), 0.3, 1)
    assert k2.mett[0] == pytest.approx(1 / 0.3, abs=1e-9)


def test_oracle_agrees_exhaustively_small():
    for n in (2, 3, 4):
        for gu in connected_graphs(n):
            for p in (0.2, 0.5, 0.8):
                a = compute_mett(gu, p, 0)
                b = mett_value_iteration_oracle(gu, p, 0)
                for v in gu.nodes:
                    assert a.mett[v] == pytest.approx(b.mett[v], rel=0, abs=1e-9)


def test_oracle_agrees_on_random_graphs():
    rng = np.random.default_rng(21)
    for i in range(30):
        gu = random_connected(6, 0.4, rng)
        for p in (0.3, 0.7):
            a = compute_mett(gu, p, 0)
            b = mett_value_iteration_oracle(gu, p, 0)
            for v in gu.nodes:
                assert a.mett[v] == pytest.approx(b.mett[v], rel=0, abs=1e-9)


def test_oracle_unreachable_nodes():
    gu = UnderlyingGraph((0, 1, 2), ((0, 1),))
    table = mett_value_iteration_oracle(gu, 0.5, 0)
    assert math.isinf(table.mett[2])


@pytest.mark.parametrize("p", [5e-4, 1e-4])
def test_oracles_are_exact_at_small_p(p):
    # an oracle that stops once a sweep moves less than tol ends about tol (1-p)/p short
    k2 = mett_value_iteration_oracle(UnderlyingGraph.complete(2), p, 1)
    assert k2.mett[0] == pytest.approx(1 / p, rel=0, abs=1e-9)
    cut = cut_mett_small(UnderlyingGraph.line(4), p, 3)
    assert cut.mett[0] == pytest.approx(3 * (1 - p) / p, rel=0, abs=1e-9)


def test_oracle_stops_on_rounding_ties():
    # nodes 1 and 3 are symmetric: their values tie to within one ulp, and a
    # loop that stopped only when no row improves switched between them forever
    gu = UnderlyingGraph((0, 1, 2, 3), ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3)))
    a, b = compute_mett(gu, 0.2, 0), mett_value_iteration_oracle(gu, 0.2, 0)
    for v in gu.nodes:
        assert a.mett[v] == pytest.approx(b.mett[v], rel=0, abs=1e-9)


@pytest.mark.parametrize("solver", [compute_mett, mett_value_iteration_oracle, cut_mett_small])
def test_overflowing_mett_is_an_error(solver):
    # the METT of node 0, 2/p, overflows: not "unreachable"
    with pytest.raises(ValueError, match="1e-308"):
        solver(UnderlyingGraph.line(3), 1e-308, 2)
    # n/p bounds every cost: a finite bound solves
    assert solver(UnderlyingGraph.line(3), 1e-307, 2).mett[0] == pytest.approx(2e307)


# --- adaptive next hop ------------------------------------------------------------


def make_table(mett):
    return MettTable(dest=0, p=0.5, mett=mett, policy={}, order=())


def test_next_hop_waits_with_nothing_up():
    table = make_table({0: 0.0, 1: 2.0, 2: 4.0})
    assert adaptive_next_hop(table, 2, frozenset()) is None


def test_next_hop_takes_destination():
    table = make_table({0: 0.0, 1: 2.0, 2: 4.0})
    assert adaptive_next_hop(table, 1, frozenset({0})) == 0
    assert adaptive_next_hop(table, 2, frozenset({0, 1})) == 0


def test_next_hop_ignores_non_improving():
    # acceptance prefix is {v1}; v2 up alone is worse than waiting
    table = make_table({10: 4.0, 1: 2.0, 2: 10.0})
    assert adaptive_next_hop(table, 10, frozenset({2})) is None
    assert adaptive_next_hop(table, 10, frozenset({1, 2})) == 1


def test_next_hop_tie_breaks_by_id():
    table = make_table({9: 5.0, 3: 2.0, 7: 2.0})
    assert adaptive_next_hop(table, 9, frozenset({3, 7})) == 3


# --- adaptive routing end to end -----------------------------------------------------


def test_adaptive_route_line_mean():
    emp = run_adaptive_route(UnderlyingGraph.line(5), 0.5, 0, 4, trials=80_000, seed=30)
    want = compute_mett(UnderlyingGraph.line(5), 0.5, 4).mett[0]
    assert abs(emp.mean() - want) <= 4 * emp.stderr_mean()


def test_adaptive_route_p_one_is_bfs_distance():
    gu = UnderlyingGraph((0, 1, 2, 3, 4), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    emp = run_adaptive_route(gu, 1.0, 2, 0, trials=200, seed=23)
    assert emp.nonzero_items() == [(2, 200)]


def test_adaptive_route_diamond_beats_fixed_path():
    # two disjoint 2-hop routes: adaptive mean < per-path expectation 2/p
    p = 0.5
    gu = UnderlyingGraph((0, 1, 2, 3), ((0, 1), (0, 2), (1, 3), (2, 3)))
    table = compute_mett(gu, p, 3)
    fixed_best = 2 / p
    assert table.mett[0] < fixed_best
    emp = run_adaptive_route(gu, p, 0, 3, trials=160_000, seed=24)
    assert abs(emp.mean() - table.mett[0]) <= 4 * emp.stderr_mean()
    assert emp.mean() + 2 * emp.stderr_mean() < fixed_best


def test_adaptive_route_unreachable_raises():
    gu = UnderlyingGraph((0, 1, 2), ((0, 1),))
    with pytest.raises(ValueError):
        run_adaptive_route(gu, 0.5, 2, 0, trials=10, seed=0)


def test_adaptive_route_rejects_unknown_source():
    with pytest.raises(ValueError, match="42"):
        run_adaptive_route(UnderlyingGraph.line(10), 0.3, 42, 9)


def test_adaptive_trajectories_never_backtrack():
    rng = np.random.default_rng(25)
    gu = random_connected(6, 0.45, rng)
    p = 0.4
    table = compute_mett(gu, p, 0)

    def policy(u, on_neighbors):
        return adaptive_next_hop(table, u, on_neighbors)

    source = max(gu.nodes, key=lambda v: table.mett[v])
    for trial in range(300):
        tgs = sample_er_tgs(gu, ErParams(p), 200, seed=(26, trial))
        out = replay_soa(tgs, source, 0, next_hop=policy)
        assert out.latency is not None
        values = [table.mett[v] for v, _ in out.trajectory]
        for a, b in zip(values, values[1:]):
            assert b <= a  # waits keep it equal
            if b != a:
                assert b < a  # moves strictly improve


def test_adaptive_route_mean_matches_oracle_value():
    rng = np.random.default_rng(27)
    gu = random_connected(5, 0.5, rng)
    p = 0.5
    oracle = mett_value_iteration_oracle(gu, p, 0)
    source = max(gu.nodes, key=lambda v: oracle.mett[v])
    emp = run_adaptive_route(gu, p, source, 0, trials=160_000, seed=28)
    assert abs(emp.mean() - oracle.mett[source]) <= 4 * emp.stderr_mean()


# --- cut-through expected times --------------------------------------------------------


def test_cut_mett_line_closed_form():
    for n in (3, 5, 8):
        for p in (0.3, 0.5, 0.8):
            table = cut_mett_small(UnderlyingGraph.line(n), p, n - 1)
            assert table.mett[0] == pytest.approx((n - 1) * (1 - p) / p, abs=1e-9)


def test_cut_mett_p_one_is_zero_everywhere_connected():
    table = cut_mett_small(UnderlyingGraph.complete(4), 1.0, 0)
    assert all(table.mett[v] == 0.0 for v in range(4))


def test_cut_mett_edge_cap():
    with pytest.raises(ValueError):
        cut_mett_small(UnderlyingGraph.complete(7), 0.5, 0)  # 21 edges


def test_cut_mett_rejects_p_outside_unit_interval():
    # p = 0 never delivers: it must fail up front, before any table is built
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            cut_mett_small(UnderlyingGraph.line(4), p, 3)


def test_cut_mett_triangle_with_pendant_vs_simulation():
    gu = UnderlyingGraph((0, 1, 2, 3), ((0, 1), (0, 2), (1, 2), (2, 3)))
    p = 0.5
    table = cut_mett_small(gu, p, 3)
    emp = simulate_cut(
        ErParams(p), gu, 0, 3, trials=160_000, seed=29, rank=dict(table.mett)
    )
    assert abs(emp.mean() - table.mett[0]) <= 4 * emp.stderr_mean()


def test_cut_mett_unreachable():
    gu = UnderlyingGraph((0, 1, 2), ((0, 1),))
    table = cut_mett_small(gu, 0.5, 0)
    assert math.isinf(table.mett[2])
    assert table.mett[1] == pytest.approx(1.0)  # (1-p)/p at p=0.5
