import itertools
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tvgraph import temporal
from tvgraph.temporal import (
    Graphlet,
    GraphletSequence,
    SmashedGraph,
    build_stacked,
    dump_tgs,
    format_tgs,
    load_tgs,
    m_smash,
    parse_tgs,
    reachable_pairs_fraction,
    smash,
    stacked_reachable,
    t_adjacent,
    t_clique,
    t_k_connected,
    t_reachable,
)

NODES = "abcdef"


def demo_sequence():
    """Six nodes over three slots; every slot is disconnected, yet a reaches f.

    Collapsing everything makes e->b and e->d look reachable (they are not);
    coarsening the first two slots into one removes those but still fakes
    c->b, whose union path runs backward in time.
    """
    return GraphletSequence.from_slot_edges(
        NODES,
        [
            [("a", "b"), ("b", "d")],
            [("c", "d"), ("d", "f")],
            [("c", "e")],
        ],
    )


def temporal_triangle():
    return GraphletSequence.from_slot_edges(
        "abc", [[("a", "b")], [("b", "c")], [("c", "a")]]
    )


def random_sequence(rng, n, horizon, p=0.3):
    nodes = range(n)
    slots = []
    for _ in range(horizon):
        slots.append(
            [(i, j) for i in nodes for j in range(i + 1, n) if rng.random() < p]
        )
    return GraphletSequence.from_slot_edges(nodes, slots)


# --- construction & validation ------------------------------------------------


def test_graphlet_rejects_self_loop():
    with pytest.raises(ValueError):
        Graphlet(1, "ab", [("a", "a")])


def test_graphlet_rejects_foreign_endpoint():
    with pytest.raises(ValueError):
        Graphlet(1, "ab", [("a", "c")])


def test_sequence_requires_contiguous_slots():
    with pytest.raises(ValueError):
        GraphletSequence([Graphlet(2, "ab", [])])
    with pytest.raises(ValueError):
        GraphletSequence([])


def test_node_ids_is_computed_once_and_read_only():
    tgs = GraphletSequence([Graphlet(1, "ab", [("a", "b")]), Graphlet(2, "bc", [])])
    assert tgs.node_ids == frozenset("abc")
    assert tgs.node_ids is tgs.node_ids
    with pytest.raises(AttributeError):
        tgs.node_ids = frozenset()


# --- stacked graph -------------------------------------------------------------


def test_build_stacked_demo_counts():
    stg = build_stacked(demo_sequence())
    assert len(stg.nodes) == 18
    assert len(stg.cross_arcs) == 12
    # two directed arcs per slot edge (5 edges total)
    assert len(stg.slot_arcs) == 10
    for (u, t), (v, t2) in stg.cross_arcs:
        assert u == v and t2 == t + 1


def test_build_stacked_single_slot_has_no_cross_arcs():
    stg = build_stacked(GraphletSequence.from_slot_edges("abc", [[("a", "b")]]))
    assert stg.cross_arcs == frozenset()
    assert len(stg.slot_arcs) == 2


def test_build_stacked_empty_slots_are_disjoint_paths():
    tgs = GraphletSequence.from_slot_edges(range(4), [[], [], []])
    stg = build_stacked(tgs)
    assert len(stg.slot_arcs) == 0
    assert len(stg.cross_arcs) == 4 * 2


def test_cross_arcs_only_when_node_persists():
    tgs = GraphletSequence(
        [Graphlet(1, "ab", []), Graphlet(2, "b", []), Graphlet(3, "ab", [])]
    )
    stg = build_stacked(tgs)
    assert (("a", 1), ("a", 2)) not in stg.cross_arcs
    assert (("b", 1), ("b", 2)) in stg.cross_arcs
    assert (("a", 2), ("a", 3)) not in stg.cross_arcs


def test_stacked_view_membership_without_materializing():
    tgs = GraphletSequence(
        [Graphlet(1, "ab", [("a", "b")]), Graphlet(2, "b", []), Graphlet(3, "ab", [])]
    )
    stg = build_stacked(tgs)
    assert ("a", 1) in stg and ("b", 2) in stg
    for v in (("a", 2), ("a", 0), ("a", 4), ("c", 1), ("a", 1.5), "a", ("a", 1, 2), None):
        assert v not in stg
    assert stacked_reachable(stg, ("a", 1), ("b", 3))
    assert not stacked_reachable(stg, ("a", 1), ("a", 3))
    assert not stacked_reachable(stg, ("b", 3), ("b", 1))  # never back in time
    assert stacked_reachable(stg, ("b", 2), ("b", 2))
    for bad in [(("a", 2), ("b", 3)), (("a", 1), ("z", 1)), ("a", ("b", 3)), (("a", 1), ("b", 3, 0))]:
        with pytest.raises(ValueError):
            stacked_reachable(stg, *bad)
    # the queries above read the slots only; no vertex or arc set was built
    assert not {"nodes", "slot_arcs", "cross_arcs", "arcs", "_succ"} & vars(stg).keys()


# --- smash / m_smash -----------------------------------------------------------


def test_smash_is_slot_union():
    smg = smash(demo_sequence())
    assert smg.edges == frozenset(
        {("a", "b"), ("b", "d"), ("c", "d"), ("d", "f"), ("c", "e")}
    )


def test_smash_of_repeated_graphlet_is_that_graphlet():
    tgs = GraphletSequence.from_slot_edges("abc", [[("a", "b")]] * 4)
    assert smash(tgs).edges == frozenset({("a", "b")})


def test_m_smash_demo_blocks():
    out = m_smash(demo_sequence(), 2)
    assert out.horizon == 2
    assert out[0].edges == frozenset({("a", "b"), ("b", "d"), ("c", "d"), ("d", "f")})
    assert out[1].edges == frozenset({("c", "e")})


def test_m_smash_identity_and_full_collapse():
    tgs = demo_sequence()
    assert m_smash(tgs, 1) == tgs
    full = m_smash(tgs, tgs.horizon)
    assert full.horizon == 1
    assert full[0].edges == smash(tgs).edges
    assert m_smash(tgs, 99).horizon == 1


def test_m_smash_rejects_bad_m():
    for m in (0, -1, 1.5, True):
        with pytest.raises((ValueError, TypeError)):
            m_smash(demo_sequence(), m)


# --- adjacency -----------------------------------------------------------------


def test_t_adjacent_demo():
    tgs = demo_sequence()
    assert t_adjacent(tgs, "c", "e")
    assert t_adjacent(tgs, "e", "c")
    assert not t_adjacent(tgs, "a", "f")
    assert not t_adjacent(tgs, "a", "a")


def test_t_adjacent_unknown_node():
    with pytest.raises(ValueError):
        t_adjacent(demo_sequence(), "a", "z")


def test_t_adjacent_edgeless():
    tgs = GraphletSequence.from_slot_edges("ab", [[], []])
    assert not t_adjacent(tgs, "a", "b")


# --- reachability ---------------------------------------------------------------


def check_journey(tgs, source, target, journey):
    cur = source
    last_slot = 0
    for (u, v), slot in journey:
        assert u == cur
        assert slot >= max(last_slot, 1)
        assert tgs[slot - 1].has_edge(u, v)
        cur = v
        last_slot = slot
    assert cur == target


def test_t_reachable_demo_a_to_f():
    tgs = demo_sequence()
    ok, journey = t_reachable(tgs, "a", "f")
    assert ok
    check_journey(tgs, "a", "f", journey)


def test_t_reachable_demo_false_positives_of_smashing():
    tgs = demo_sequence()
    smg = smash(tgs)
    for u, v in [("e", "b"), ("e", "d"), ("c", "b")]:
        ok, journey = t_reachable(tgs, u, v)
        assert not ok and journey is None
        assert smg.connected(u, v)  # the collapsed view gets these wrong


def test_m_smash_demo_false_positive_structure():
    coarse = m_smash(demo_sequence(), 2)
    assert not t_reachable(coarse, "e", "b")[0]
    assert not t_reachable(coarse, "e", "d")[0]
    assert t_reachable(coarse, "c", "b")[0]  # still faked after coarsening


def test_t_reachable_self_is_empty_journey():
    ok, journey = t_reachable(demo_sequence(), "d", "d")
    assert ok and journey == []


def test_t_reachable_reversed_pair_regression():
    tgs = GraphletSequence.from_slot_edges("abc", [[("b", "c")], [("a", "b")]])
    assert not t_reachable(tgs, "a", "c")[0]
    assert smash(tgs).connected("a", "c")


def test_waiting_needs_the_node_present_regression():
    # b carries the message out of slot 1 but is absent from slot 2, so it
    # cannot hand it to c in slot 3; waiting used to ignore presence
    tgs = GraphletSequence(
        [Graphlet(1, "ab", [("a", "b")]), Graphlet(2, "a", []), Graphlet(3, "bc", [("b", "c")])]
    )
    assert t_reachable(tgs, "a", "c") == (False, None)
    assert not stacked_reachable(build_stacked(tgs), ("a", 1), ("c", 3))
    assert t_reachable(tgs, "b", "c") == (True, [(("b", "c"), 3)])
    assert reachable_pairs_fraction(tgs) == Fraction(4, 6)  # a<->b, b<->c
    assert not t_k_connected(tgs, 1)


def test_t_reachable_unknown_node():
    with pytest.raises(ValueError):
        t_reachable(demo_sequence(), "z", "a")


# --- clique ----------------------------------------------------------------------


def brute_force_clique(tgs):
    v1 = sorted(tgs[0].nodes)
    best = ()
    for size in range(len(v1), 0, -1):
        for combo in itertools.combinations(v1, size):
            if all(t_adjacent(tgs, a, b) for a, b in itertools.combinations(combo, 2)):
                return tuple(combo)
    return best


def test_t_clique_demo_matches_oracle():
    tgs = demo_sequence()
    got = t_clique(tgs)
    assert got == brute_force_clique(tgs)
    assert len(got) == 2  # no triple is pairwise adjacent across time here


def test_t_clique_complete_graphlet():
    n = 5
    edges = list(itertools.combinations(range(n), 2))
    tgs = GraphletSequence.from_slot_edges(range(n), [edges])
    assert t_clique(tgs) == tuple(range(n))


def test_t_clique_edgeless_is_single_node():
    tgs = GraphletSequence.from_slot_edges("cab", [[], []])
    assert t_clique(tgs) == ("a",)


def test_t_clique_random_matches_oracle_and_smash():
    rng = random.Random(4)
    for _ in range(30):
        tgs = random_sequence(rng, n=6, horizon=3, p=0.25)
        got = t_clique(tgs)
        assert got == brute_force_clique(tgs)
        # clique of the collapsed union has the same size (constant node set)
        smg = smash(tgs)
        best = 0
        for size in range(6, 0, -1):
            for combo in itertools.combinations(sorted(smg.nodes), size):
                if all(
                    smg.connected(a, b) and b in smg.neighbors(a)
                    for a, b in itertools.combinations(combo, 2)
                ):
                    best = size
                    break
            if best:
                break
        assert len(got) == best


# --- k-connectivity ---------------------------------------------------------------


def undirected_two_connected(stg):
    """Brute 2-connectivity of the stacked graph viewed as undirected."""
    nodes = sorted(stg.nodes)
    adj = {v: set() for v in nodes}
    for a, b in stg.arcs:
        adj[a].add(b)
        adj[b].add(a)
    if len(nodes) < 3:
        return False
    for removed in nodes:
        remaining = [v for v in nodes if v != removed]
        start = remaining[0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y != removed and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(remaining):
            return False
    return True


def test_temporal_triangle_two_connected_but_stacked_is_not():
    tgs = temporal_triangle()
    assert t_k_connected(tgs, 2)
    assert not undirected_two_connected(build_stacked(tgs))


def test_isolated_node_breaks_one_connectivity():
    tgs = GraphletSequence.from_slot_edges("abc", [[("a", "b")], [("a", "b")]])
    assert not t_k_connected(tgs, 1)


def test_single_complete_graphlet_k_connectivity():
    edges = list(itertools.combinations(range(4), 2))
    tgs = GraphletSequence.from_slot_edges(range(4), [edges])
    assert t_k_connected(tgs, 3)

    def oracle(k):
        for removed in itertools.combinations(range(4), k - 1):
            keep = [v for v in range(4) if v not in removed]
            for u, v in itertools.permutations(keep, 2):
                sub = GraphletSequence.from_slot_edges(
                    keep, [[(a, b) for a, b in edges if a in keep and b in keep]]
                )
                if not t_reachable(sub, u, v)[0]:
                    return False
        return True

    for k in (1, 2, 3, 4):
        assert t_k_connected(tgs, k) == oracle(k)


def test_one_connectivity_is_strong_pairwise_reachability():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 6)
        tgs = random_sequence(rng, n, rng.randint(1, 5), p=rng.uniform(0.1, 0.6))
        all_pairs = all(
            t_reachable(tgs, u, v)[0] for u, v in itertools.permutations(range(n), 2)
        )
        assert t_k_connected(tgs, 1) == all_pairs


def test_t_k_connected_validation():
    tgs = temporal_triangle()
    with pytest.raises(ValueError):
        t_k_connected(tgs, 0)
    with pytest.raises(ValueError):
        t_k_connected(tgs, 4)


# --- reachable pairs fraction -------------------------------------------------


def test_fraction_complete_static():
    edges = list(itertools.combinations(range(5), 2))
    tgs = GraphletSequence.from_slot_edges(range(5), [edges])
    assert reachable_pairs_fraction(tgs) == 1


def test_fraction_edgeless():
    tgs = GraphletSequence.from_slot_edges(range(4), [[], []])
    assert reachable_pairs_fraction(tgs) == 0


def test_fraction_demo_matches_pairwise_queries():
    tgs = demo_sequence()
    count = sum(
        t_reachable(tgs, u, v)[0]
        for u, v in itertools.permutations(NODES, 2)
    )
    frac = reachable_pairs_fraction(tgs)
    assert frac == Fraction(count, 30)
    assert isinstance(frac, Fraction)


# --- representation-level properties -------------------------------------------


def test_stacked_reducibility_of_reachability():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 8)
        tgs = random_sequence(rng, n, rng.randint(1, 6), p=rng.uniform(0.1, 0.5))
        stg = build_stacked(tgs)
        for u, v in itertools.permutations(range(n), 2):
            direct = t_reachable(tgs, u, v)[0]
            stacked = stacked_reachable(stg, (u, 1), (v, tgs.horizon))
            assert direct == stacked, (n, tgs.horizon, u, v)


def test_smash_is_sound_for_negatives():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(2, 7)
        tgs = random_sequence(rng, n, rng.randint(1, 5), p=0.25)
        smg = smash(tgs)
        for u, v in itertools.permutations(range(n), 2):
            if t_reachable(tgs, u, v)[0]:
                assert smg.connected(u, v)


def test_m_smash_only_adds_reachability():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        tgs = random_sequence(rng, n, rng.randint(1, 6), p=0.25)
        for m in range(1, tgs.horizon + 1):
            coarse = m_smash(tgs, m)
            for u, v in itertools.permutations(range(n), 2):
                if t_reachable(tgs, u, v)[0]:
                    assert t_reachable(coarse, u, v)[0]


def test_m_smash_one_preserves_properties():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(2, 6)
        tgs = random_sequence(rng, n, rng.randint(1, 5), p=0.3)
        copy = m_smash(tgs, 1)
        assert t_clique(copy) == t_clique(tgs)
        for u, v in itertools.permutations(range(n), 2):
            assert t_adjacent(copy, u, v) == t_adjacent(tgs, u, v)
            assert t_reachable(copy, u, v)[0] == t_reachable(tgs, u, v)[0]


def test_full_smash_reachability_equals_union_connectivity():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(2, 6)
        tgs = random_sequence(rng, n, rng.randint(1, 5), p=0.25)
        coarse = m_smash(tgs, tgs.horizon)
        smg = smash(tgs)
        for u, v in itertools.permutations(range(n), 2):
            assert t_reachable(coarse, u, v)[0] == smg.connected(u, v)


def test_smashed_graph_refuses_unknown_ids():
    # an edge end outside the node set was a bare KeyError, and so was a
    # neighbor query for an unknown id; both are the named ValueError
    # that `connected` raises
    with pytest.raises(ValueError, match=r"^edge \(1, 3\) has an endpoint outside the node set$"):
        SmashedGraph({1, 2}, [(1, 3)])
    smg = SmashedGraph({1, 2, 4}, [(2, 1)])
    assert smg.neighbors(1) == {2} and smg.neighbors(4) == frozenset()
    for query in (lambda: smg.neighbors(3), lambda: smg.connected(3, 1)):
        with pytest.raises(ValueError, match=r"^unknown node 3"):
            query()


def test_smashed_components_partition_nodes():
    tgs = GraphletSequence.from_slot_edges(range(7), [[(0, 1)], [(2, 3), (3, 4)], [(1, 0)]])
    comps = smash(tgs).components()
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3, 4], [5], [6]]
    assert all(isinstance(c, frozenset) for c in comps)
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(1, 7)
        smg = smash(random_sequence(rng, n, rng.randint(1, 4), p=0.15))
        comps = smg.components()
        assert sorted(v for c in comps for v in c) == list(range(n))
        for u, v in itertools.permutations(range(n), 2):
            same = any(u in c and v in c for c in comps)
            assert same == smg.connected(u, v)


# --- text format ------------------------------------------------------------------


def test_format_parse_round_trip(tmp_path):
    tgs = GraphletSequence.from_slot_edges(
        range(4), [[(0, 1), (2, 3)], [], [(1, 2)]]
    )
    text = format_tgs(tgs)
    assert text.splitlines()[0] == "tgs 4 3"
    again = parse_tgs(text)
    assert again == tgs
    path = tmp_path / "seq.tgs"
    dump_tgs(tgs, path)
    assert load_tgs(path) == tgs


# each malformed text and the message it must raise
MALFORMED = {
    "": "empty sequence file",
    "tgs 2\nt 1\n": "bad header 'tgs 2'; expected 'tgs <n> <T>'",
    "nope 2 1\n": "bad header 'nope 2 1'; expected 'tgs <n> <T>'",
    "tgs x 1\n": "bad header 'tgs x 1'; node count and horizon must be integers",
    "tgs -1 1\n": "node count must be >= 0 and horizon >= 1",
    "tgs 2 0\n": "node count must be >= 0 and horizon >= 1",
    # header numbers past the format's limits are refused before any slot is built
    "tgs 12345678901234567890 1\n":
        f"node count 12345678901234567890 is above the format's limit of {2 ** 31}",
    "tgs 2 12345678901234567890\nt 1\n":
        f"horizon 12345678901234567890 is above the format's limit of {sys.maxsize}",
    "tgs 2 1\nt 2\n": "slot 2 out of range 1..1",
    "tgs 2 1\nt 0\n": "slot 0 out of range 1..1",
    "tgs 2 1\nt -1\n": "slot -1 out of range 1..1",
    "tgs 2 2\nt 1\nt 1\n": "slot 1 declared twice",
    "tgs 3 1\nt 1\ne 0 1\ne 1 0\n": "duplicate edge (0, 1) in slot 1",
    "tgs 3 1\nt 1\ne 1 1\n": "self-loop on node 1",
    "tgs 2 1\nt 1\ne 0 2\n": "node id out of range 0..1 in 'e 0 2'",
    "tgs 2 1\nt 1\ne -1 0\n": "node id out of range 0..1 in 'e -1 0'",
    "tgs 2 1\ne 0 1\n": "edge line before any 't <slot>' line",
    "tgs 2 1\ne 0\n": "edge line before any 't <slot>' line",
    "tgs 2 1\nt 1\nx 0 1\n": "unrecognized line 'x 0 1'",
    "tgs 2 1\nt 1\ne 0\n": "bad edge line 'e 0'",
    "tgs 3 1\nt 1\ne 0 1 2\n": "bad edge line 'e 0 1 2'",
    "tgs 2 1\nt\n": "bad slot line 't'",
    "tgs 2 2\nt 1 2\n": "bad slot line 't 1 2'",
    # comment and blank lines are skipped; messages quote the stripped line
    "# head\n\ntgs 2 1\n  # note\n\nt 1\n  e 0 2  \n": "node id out of range 0..1 in 'e 0 2'",
    "tgs 2 1\nt 1\ne\t0   2\n": "node id out of range 0..1 in 'e\\t0   2'",
    "tgs 3 1\r\nt 1\r\ne 1 1\r\n": "self-loop on node 1",
    # slots may come in any order, but each once
    "tgs 3 3\nt 2\ne 0 1\nt 1\ne 1 2\nt 2\n": "slot 2 declared twice",
    "tgs 3 3\nt 3\ne 0 1\nt 1\ne 0 1\ne 0 1\n": "duplicate edge (0, 1) in slot 1",
    # two faults: the earlier line's message wins
    "tgs 3 1\nt 1\ne 1 1\ne 0 5\n": "self-loop on node 1",
    "tgs 3 1\nt 1\ne 0 5\ne 1 1\n": "node id out of range 0..2 in 'e 0 5'",
    "tgs 3 1\nt 1\ne 0 1\ne 1 0\nfoo\n": "duplicate edge (0, 1) in slot 1",
    "tgs 3 2\nt 1\ne 0 1 2\ne 1 1\n": "bad edge line 'e 0 1 2'",
    "tgs 3 2\nt 1\ne 0 5\nt 3\n": "node id out of range 0..2 in 'e 0 5'",
    "tgs 3 2\nt 3\ne 0 5\n": "slot 3 out of range 1..2",
    # numbers are ASCII decimal digits, not whatever int() reads
    "tgs 2 1\nt x\n": "bad slot line 't x'",
    "tgs 2 1\nt 1\ne a 1\n": "bad edge line 'e a 1'",
    "tgs 11 1\nt 1\ne 1_0 2\n": "bad edge line 'e 1_0 2'",
    "tgs 3 1\nt +1\ne +0 \u0662\n": "bad slot line 't +1'",
    "tgs 3 1\nt 1\ne +0 2\n": "bad edge line 'e +0 2'",
    "tgs 3 1\nt 1\ne 0 \u0662\n": "bad edge line 'e 0 \u0662'",
    "tgs \uff13 1\n": "bad header 'tgs \uff13 1'; node count and horizon must be integers",
    "tgs 2 1\nt 1\ne 0 1\nt 1_0\n": "bad slot line 't 1_0'",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError, match=f"^{re.escape(MALFORMED[text])}$"):
        parse_tgs(text)


def test_a_written_text_skips_the_strip_and_the_line_search(monkeypatch):
    # a text in the form format_tgs writes is read as it is; a text with a
    # comment, a blank line, a tab, a doubled space or no final newline is not
    calls = []
    kept_lines, odd_line = temporal._kept_lines, temporal._ODD_LINE

    class Spy:
        def search(self, *args):
            calls.append("search")
            return odd_line.search(*args)

    monkeypatch.setattr(temporal, "_kept_lines", lambda text: calls.append("strip") or kept_lines(text))
    monkeypatch.setattr(temporal, "_ODD_LINE", Spy())
    tgs = GraphletSequence.from_slot_edges(range(12), [[(0, 1), (3, 11)], [], [(2, 10)]])
    text = format_tgs(tgs)
    assert parse_tgs(text) == tgs and calls == []
    for other in [text + "# end\n", "# head\n" + text, text.replace("\ne 3", "\n\ne 3"),
                  text.replace("e 3", "e\t3"), text.replace("e 3", "e  3"), text[:-1]]:
        calls.clear()
        assert parse_tgs(other) == tgs and calls == ["strip", "search"]


def test_parse_reads_any_whitespace_and_leading_zeros():
    tgs = parse_tgs("tgs 003 1\nt\u30001\ne\xa00\u2003\u2003002\x1f\ne\t1 2\n")
    assert tgs == GraphletSequence.from_slot_edges(range(3), [[(0, 2), (1, 2)]])


def test_edge_runs_read_every_whitespace_that_split_skips():
    # parse_tgs reads edge ids with np.fromstring, which skips only ASCII
    # whitespace; every other character str.split skips is turned into a space
    odd = [chr(c) for c in range(0x110000) if chr(c).isspace() and chr(c) not in " \t\n\r\x0b\x0c"]
    assert sorted(k for k in temporal._TO_SPACE if k != ord("e")) == list(map(ord, odd))
    for c in odd:
        if len(f"e{c}0".splitlines()) == 1:  # whitespace inside a line
            assert parse_tgs(f"tgs 3 1\nt 1\ne{c}0 2{c}\ne 1{c}{c}2\n")[0].edges == {(0, 2), (1, 2)}


def test_parse_refuses_node_counts_past_int32():
    with pytest.raises(ValueError, match="node count 2147483649 is above"):
        parse_tgs("tgs 2147483649 1\n")


def test_parsed_slots_hold_index_arrays_and_compare_as_edge_sets():
    text = "tgs 4 2\nt 1\ne 2 1\ne 0 3\ne 0 1\n"
    tgs = parse_tgs(text)
    g = tgs[0]
    assert "edges" not in vars(g)
    assert g._ends.dtype == np.int32 and g._ends.tolist() == [[0, 0, 1], [1, 3, 2]]
    want = GraphletSequence.from_slot_edges(range(4), [[(0, 1), (0, 3), (1, 2)], []])
    assert hash(tgs) == hash(want)  # reads edges
    assert tgs == want and repr(tgs[0]) == repr(want[0]) and repr(tgs[1]) == repr(want[1])
    assert format_tgs(tgs) == format_tgs(want) == "tgs 4 2\nt 1\ne 0 1\ne 0 3\ne 1 2\nt 2\n"


def test_parse_normalizes_reversed_edges():
    tgs = parse_tgs("tgs 3 1\nt 1\ne 1 0\ne 2 1\n")
    assert tgs[0].edges == frozenset({(0, 1), (1, 2)})


def test_format_refuses_slots_that_lack_some_ids(tmp_path):
    # read back, every slot would hold all of 0..2, so a message from 2 could
    # wait at 1 through slot 2 and reach 0 in slot 3
    tgs = GraphletSequence([
        Graphlet(1, {1, 2}, [(1, 2)]), Graphlet(2, {0, 2}), Graphlet(3, {0, 1}, [(0, 1)]),
    ])
    assert not t_reachable(tgs, 2, 0)[0]
    assert reachable_pairs_fraction(tgs) == Fraction(2, 3)
    with pytest.raises(ValueError, match="node set 0..2 in every slot"):
        format_tgs(tgs)
    path = tmp_path / "seq.tgs"
    with pytest.raises(ValueError):
        dump_tgs(tgs, path)
    assert not path.exists()


def test_format_refuses_gaps_in_the_ids():
    # ids {0, 3} would come back with the isolated nodes 1 and 2
    tgs = GraphletSequence.from_slot_edges({0, 3}, [[(0, 3)], []])
    with pytest.raises(ValueError, match="node set 0..3 in every slot"):
        format_tgs(tgs)


def test_parse_missing_slots_are_empty():
    tgs = parse_tgs("tgs 3 3\nt 2\ne 0 1\n")
    assert tgs[0].edges == frozenset()
    assert tgs[1].edges == frozenset({(0, 1)})
    assert tgs[2].edges == frozenset()


def test_parse_memory_follows_the_file_not_the_horizon():
    # a header-only file declaring 100,000 slots: one Graphlet per slot, but
    # no edge set for slots the file never names
    tracemalloc.start()
    try:
        tgs = parse_tgs("tgs 2 100000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tgs.horizon == 100_000 and all(not g.edges for g in tgs)
    assert peak < 30_000_000


def test_parse_of_the_largest_horizon_returns():
    # a parsed sequence holds its slot table only: no slot object is built
    # for a slot the file does not name
    tgs = parse_tgs("tgs 2 9223372036854775807\nt 1\n")
    assert tgs.horizon == len(tgs) == sys.maxsize and tgs.node_ids == {0, 1}
    with pytest.raises((MemoryError, OverflowError, ValueError)):  # its slots, not an empty tuple
        tgs[0]


def test_parse_and_smash_memory_follow_the_file_not_the_horizon():
    tracemalloc.start()
    try:
        tgs = parse_tgs("tgs 2 1000000000000\nt 7\ne 0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert smash(tgs).edges == {(0, 1)}
    assert m_smash(tgs, 1).horizon == 10 ** 12
