"""Property-based tests of the lazy stacked view and the journey queries
against BFS over the materialized time-expanded graph, and of the smashed
views against the set union of the slots."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.models import ErParams, UnderlyingGraph, sample_er_tgs  # noqa: E402
from tvgraph.temporal import (  # noqa: E402
    Graphlet,
    GraphletSequence,
    _journey_masks,
    _sorted_ids,
    adjacency,
    build_stacked,
    components,
    format_tgs,
    m_smash,
    parse_tgs,
    reachable_pairs_fraction,
    smash,
    stacked_reachable,
    t_adjacent,
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


def unstopped_journey_masks(tgs, removed=frozenset()):
    """`_journey_masks` scanning every slot, as it did before it learned to
    stop once every mask is full: the reference for that stop."""
    own = {v: 1 << i for i, v in enumerate(_sorted_ids(tgs.node_ids - removed))}
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
    return reach


@settings(deadline=None, max_examples=300)
@given(tgs=sequences(max_nodes=5, max_slots=10), data=st.data())
def test_journey_masks_stop_matches_the_full_scan(tgs, data):
    # up to 10 slots of at most 5 nodes: about 6 draws in 10 fill before
    # their last slot, so the stop fires, on varying node sets too
    removed = frozenset(data.draw(st.sets(st.integers(0, 4), max_size=2)))
    assert _journey_masks(tgs, removed) == unstopped_journey_masks(tgs, removed)


def set_union(graphlets):
    """Frozen (nodes, edges) of the union of `graphlets` by set union: how
    smash and m_smash took it before they read index arrays, kept as their
    reference."""
    nodes, edges = set(), set()
    for g in graphlets:
        nodes |= g.nodes
        edges |= g.edges
    return frozenset(nodes), frozenset(edges)


@st.composite
def labelled_sequences(draw, max_nodes=6, max_slots=8):
    """Sequences over ids drawn as strings, as a permutation of 0..n-1 or as
    scattered ints, on a constant or a varying node set; slots may be empty,
    and each lists some of its edges twice and reversed."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    ids = draw(st.one_of(
        st.lists(st.text(max_size=2), min_size=n, max_size=n, unique=True),
        st.permutations(range(n)),
        st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True),
    ))
    constant = draw(st.booleans())
    slots = []
    for t in range(1, draw(st.integers(min_value=1, max_value=max_slots)) + 1):
        present = ids if constant or not ids else draw(st.lists(st.sampled_from(ids), unique=True))
        pairs = list(itertools.combinations(present, 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, k in zip(pairs, keep) if k]
        slots.append(Graphlet(t, present, edges + [(v, u) for u, v in edges[::2]]))
    return GraphletSequence(slots)


def assert_one_form(g):
    """`g` holds its sorted ids and a sorted, repeat-free int32 index array
    into them, which gives its edges."""
    assert g._ids == tuple(sorted(g.nodes)) and g._ends.dtype == np.int32
    pairs = list(zip(*g._ends.tolist()))
    assert pairs == sorted(set(pairs)) and all(u < v for u, v in pairs)
    assert {(g._ids[u], g._ids[v]) for u, v in pairs} == g.edges


@settings(deadline=None, max_examples=300)
@given(tgs=labelled_sequences(), data=st.data())
def test_smash_and_m_smash_match_the_set_union(tgs, data):
    for g in tgs:
        assert_one_form(g)
    nodes, edges = set_union(tgs)
    smg = smash(tgs)
    assert (smg.nodes, smg.edges) == (nodes, edges)
    m = data.draw(st.integers(min_value=1, max_value=tgs.horizon + 2))  # m >= T, and m not dividing T
    coarse = m_smash(tgs, m)
    want = [Graphlet(i, *set_union(tgs.graphlets[start:start + m]))
            for i, start in enumerate(range(0, tgs.horizon, m), start=1)]
    assert coarse.horizon == len(want)
    for got, ref in zip(coarse, want):
        assert_one_form(got)
        # a slot whose edges come from its index array, beside one built from a frozenset
        assert got.edges == ref.edges and got.nodes == ref.nodes
        assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref)


def test_public_constructor_checks_and_merges_repeats():
    with pytest.raises(ValueError, match=r"^self-loop on node 'b'$"):
        Graphlet(1, "ab", [("a", "c"), ("b", "b")])  # a self-loop is named before an outside endpoint
    with pytest.raises(ValueError, match=r"^edge \('a', 'c'\) has an endpoint outside the node set$"):
        Graphlet(1, "ab", [("c", "a")])
    g = Graphlet(1, "cab", [("b", "a"), ("a", "b"), ("c", "b"), ("b", "a")])
    assert g.edges == {("a", "b"), ("b", "c")} and g._ends.tolist() == [[0, 1], [1, 2]]
    assert g.has_edge("b", "a") and g.has_edge("b", "c") and not g.has_edge("a", "c")
    assert not g.has_edge("a", "a") and not g.has_edge("a", "z")
    assert g == Graphlet(1, "abc", [("a", "b"), ("b", "c")])


def test_ids_that_do_not_compare_are_one_named_error():
    message = "^node ids must compare with each other"
    with pytest.raises(TypeError, match=message):
        Graphlet(1, [0, "a"])
    with pytest.raises(TypeError, match=message):
        Graphlet(1, [0, "a"], [(0, "a")])  # the ids, not the edge, are refused
    # each slot's ids compare, but the union of both does not
    tgs = GraphletSequence([Graphlet(1, [0, 1], [(0, 1)]), Graphlet(2, ["a", "b"], [("a", "b")])])
    for query in (smash, lambda s: m_smash(s, 1), reachable_pairs_fraction,
                  lambda s: t_k_connected(s, 1)):
        with pytest.raises(TypeError, match=message):
            query(tgs)
    with pytest.raises(TypeError, match=message):
        UnderlyingGraph((0, "a"), ())  # a candidate graph refuses them at construction
    # asking about a pair of ids of two kinds is no edge, not an error
    assert not tgs[0].has_edge(0, "a") and not t_adjacent(tgs, 1, "b")


def test_union_keys_past_int64_are_an_error():
    # a range stands in for a sorted id tuple too long to build: the union
    # reads only its length, and 2^32 ids make keys past int64
    no_ends = np.zeros((2, 0), dtype=np.int32)
    tgs = GraphletSequence(Graphlet._from_ends(t, frozenset(), range(2 ** 32), no_ends) for t in (1, 2))
    for query in (smash, lambda s: m_smash(s, 1)):
        with pytest.raises(ValueError, match="node ids overflow the int64 union key"):
            query(tgs)


@st.composite
def full_sequences(draw, max_nodes=6, max_slots=8):
    """Sequences whose every slot holds ids 0..n-1, as the text format does."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    slots = draw(st.lists(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]),
                          min_size=1, max_size=max_slots))
    return GraphletSequence.from_slot_edges(range(n), slots)


@settings(deadline=None, max_examples=200)
@example(tgs=GraphletSequence.from_slot_edges(range(3), [[(0, 1)], [], []]))
@example(tgs=GraphletSequence.from_slot_edges(range(4), [[], [(1, 3), (0, 2)], [], [(2, 3)], [], []]))
@given(tgs=full_sequences())
def test_the_slot_table_gives_what_the_slots_give(tgs):
    # parse_tgs makes a sequence from its slot table alone; every reader must
    # give on it what it gives on the same sequence made from its slots
    text = format_tgs(tgs)
    table = parse_tgs(text)
    for m in {1, 2, 3, tgs.horizon}:
        assert m_smash(table, m) == m_smash(tgs, m)
    assert smash(table).edges == smash(tgs).edges
    assert format_tgs(table) == text
    assert reachable_pairs_fraction(table) == reachable_pairs_fraction(tgs)
    assert table == tgs and hash(table) == hash(tgs)


def test_slot_blocks_out_of_order_parse_as_in_order():
    # the text format_tgs writes for this sequence
    in_order = "tgs 4 4\nt 1\ne 0 1\ne 2 3\nt 2\nt 3\ne 1 2\nt 4\n"
    for text in ("tgs 4 4\nt 3\ne 1 2\nt 1\ne 2 3\ne 0 1\n", "tgs 4 4\nt 3\ne 2 1\nt 1\ne 3 2\ne 1 0\n"):
        assert parse_tgs(text) == parse_tgs(in_order)
        assert format_tgs(parse_tgs(text)) == in_order
