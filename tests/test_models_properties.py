"""Property-based checks that the builders which skip the per-edge check
build the graph the validating constructor builds."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.models import UnderlyingGraph  # noqa: E402
from tvgraph.temporal import Graphlet  # noqa: E402


@st.composite
def graphlets(draw, ids):
    """A slot over a drawn set of `ids`, each edge given in a drawn orientation."""
    nodes = draw(st.sets(ids, max_size=8))
    pairs = list(itertools.combinations(sorted(nodes), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    flip = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(v, u) if f else (u, v) for (u, v), k, f in zip(pairs, keep, flip) if k]
    return Graphlet(draw(st.integers(1, 5)), nodes, edges)


@settings(deadline=None, max_examples=100)
@given(st.one_of(graphlets(st.integers(-5, 30)), graphlets(st.text(max_size=3))),
       st.sampled_from([None, "g"]))
def test_from_graphlet_equals_the_validating_constructor(g, name):
    gu = UnderlyingGraph.from_graphlet(g, name=name)
    assert gu == UnderlyingGraph(tuple(sorted(g.nodes)), tuple(sorted(g.edges)), name)
    # its edges come normalized, and the index arrays give their ends
    assert all(u < v for u, v in gu.edges)
    assert [(gu.nodes[i], gu.nodes[j]) for i, j in gu._ends.T.tolist()] == list(gu.edges)
