"""Property-based tests of the lazy stacked view and the journey queries
against BFS over the materialized time-expanded graph."""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.temporal import (  # noqa: E402
    Graphlet,
    GraphletSequence,
    build_stacked,
    reachable_pairs_fraction,
    stacked_reachable,
    t_k_connected,
    t_reachable,
)


@st.composite
def sequences(draw, max_nodes=6, max_slots=6):
    """Random sequences over ids 0..n-1; unless `constant` is drawn, every
    slot keeps a random subset of the ids."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    horizon = draw(st.integers(min_value=1, max_value=max_slots))
    constant = draw(st.booleans())
    slots = []
    for t in range(1, horizon + 1):
        present = range(n) if constant else draw(st.sets(st.integers(0, n - 1)))
        pairs = list(itertools.combinations(sorted(present), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        slots.append(Graphlet(t, present, [e for e, k in zip(pairs, keep) if k]))
    return GraphletSequence(slots)


def eager_stacked(tgs):
    """(nodes, slot_arcs, cross_arcs) built slot by slot, as the time-expanded
    graph is defined."""
    nodes = {(v, g.time) for g in tgs for v in g.nodes}
    slot_arcs = {((u, g.time), (v, g.time)) for g in tgs for a, b in g.edges
                 for u, v in ((a, b), (b, a))}
    cross_arcs = {((v, g.time), (v, h.time))
                  for g, h in zip(tgs, tgs.graphlets[1:]) for v in g.nodes & h.nodes}
    return nodes, slot_arcs, cross_arcs


def stacked_closure(stg, starts):
    """Vertices reachable from `starts` by DFS over the view's successors."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in stg.successors(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def stacked_pair_reach(stg, u, v):
    """u reaches v iff some (u, s) reaches some (v, t) in the stacked graph."""
    return any(w[0] == v for w in stacked_closure(stg, [x for x in stg.nodes if x[0] == u]))


@settings(deadline=None, max_examples=150)
@given(tgs=sequences())
def test_lazy_view_matches_the_eager_time_expanded_graph(tgs):
    stg = build_stacked(tgs)
    nodes, slot_arcs, cross_arcs = eager_stacked(tgs)
    assert stg.nodes == nodes
    assert stg.slot_arcs == slot_arcs
    assert stg.cross_arcs == cross_arcs
    assert stg.arcs == slot_arcs | cross_arcs
    for x in nodes:
        assert x in stg
        assert sorted(stg.successors(x)) == sorted(b for a, b in slot_arcs | cross_arcs if a == x)
    for v, t in itertools.product(range(7), range(tgs.horizon + 2)):
        assert ((v, t) in stg) == ((v, t) in nodes)


@settings(deadline=None, max_examples=150)
@given(tgs=sequences(), data=st.data())
def test_stacked_reachable_matches_bfs_over_the_materialized_view(tgs, data):
    stg = build_stacked(tgs)
    vertices = sorted(eager_stacked(tgs)[0])
    if not vertices:
        return
    pick = st.sampled_from(vertices)
    for _ in range(8):
        src, dst = data.draw(pick), data.draw(pick)  # src after dst included
        # a fresh view, so the query cannot lean on the materialized one
        assert stacked_reachable(build_stacked(tgs), src, dst) == (dst in stacked_closure(stg, [src]))


@settings(deadline=None, max_examples=100)
@given(tgs=sequences())
def test_journey_queries_match_the_stacked_definition(tgs):
    stg = build_stacked(tgs)
    ids = sorted(tgs.node_ids)
    hits = 0
    for u, v in itertools.permutations(ids, 2):
        want = stacked_pair_reach(stg, u, v)
        reachable, journey = t_reachable(tgs, u, v)
        assert reachable == want
        hits += want
        if reachable:  # the witness is a path of the stacked graph
            at, slot = (u, journey[0][1]), journey[0][1]
            for (x, y), t in journey:
                assert x == at[0] and t >= slot and tgs[t - 1].has_edge(x, y)
                assert (x, t) in stg and (x, t) in stacked_closure(stg, [at])
                at, slot = (y, t), t
            assert at[0] == v
    if len(ids) >= 2:
        assert reachable_pairs_fraction(tgs) == Fraction(hits, len(ids) * (len(ids) - 1))
        assert t_k_connected(tgs, 1) == (hits == len(ids) * (len(ids) - 1))


def without(tgs, removed):
    """`tgs` with the ids of `removed` deleted from every slot."""
    return GraphletSequence(
        Graphlet(g.time, g.nodes - removed, [e for e in g.edges if not removed & set(e)])
        for g in tgs
    )


@settings(deadline=None, max_examples=150)
@given(tgs=sequences())
def test_t_k_connected_matches_the_definition(tgs):
    ids = sorted(tgs.node_ids)
    for k in (2, 3):
        if k - 1 >= len(ids):
            with pytest.raises(ValueError):
                t_k_connected(tgs, k)
            continue
        want = True
        for removed in itertools.combinations(ids, k - 1):
            stg = build_stacked(without(tgs, set(removed)))
            rest = [v for v in ids if v not in removed]
            want = want and all(stacked_pair_reach(stg, u, v)
                                for u, v in itertools.permutations(rest, 2))
        assert t_k_connected(tgs, k) == want
