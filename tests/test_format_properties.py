"""Property-based round trips of the sequence text format and the model spec."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.models import (  # noqa: E402
    ErParams,
    MarkovParams,
    ModelSpec,
    UnderlyingGraph,
    format_model_spec,
    parse_model_spec,
)
from tvgraph.temporal import Graphlet, GraphletSequence, format_tgs, parse_tgs  # noqa: E402


@st.composite
def integer_sequences(draw, max_nodes=8, max_slots=6):
    """Sequences over ids 0..n-1 in every slot, the sets the text format holds."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    slot = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    slots = draw(st.lists(slot, min_size=1, max_size=max_slots))
    return GraphletSequence.from_slot_edges(
        range(n), [[e for e, k in zip(pairs, keep) if k] for keep in slots])


unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def model_specs(draw):
    gu = draw(st.sampled_from([UnderlyingGraph.line, UnderlyingGraph.complete]))(
        draw(st.integers(min_value=1, max_value=12)))
    if draw(st.booleans()):
        return ModelSpec("er", ErParams(draw(unit)), gu)
    p, q = draw(unit), draw(unit)
    stationary = p + q > 0 and draw(st.booleans())
    return ModelSpec("mc", MarkovParams(p, q, None if stationary else draw(unit)), gu)


@settings(deadline=None, max_examples=100)
@given(integer_sequences())
def test_sequence_text_round_trip(tgs):
    assert parse_tgs(format_tgs(tgs)) == tgs


@settings(deadline=None, max_examples=100)
@given(model_specs())
def test_model_spec_text_round_trip(spec):
    text = format_model_spec(spec)
    assert parse_model_spec(text) == spec
    assert format_model_spec(parse_model_spec(text)) == text


@st.composite
def varying_sequences(draw, max_nodes=6, max_slots=4):
    """Sequences whose slots each keep a drawn subset of the ids 0..n-1."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    graphlets = []
    for t in range(1, draw(st.integers(min_value=1, max_value=max_slots)) + 1):
        present = draw(st.sets(st.integers(0, n - 1)))
        pairs = list(itertools.combinations(sorted(present), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        graphlets.append(Graphlet(t, present, [e for e, k in zip(pairs, keep) if k]))
    return GraphletSequence(graphlets)


@settings(deadline=None, max_examples=100)
@given(varying_sequences())
def test_format_holds_a_sequence_or_refuses_it(tgs):
    ids = tgs.node_ids
    holdable = all(g.nodes == set(range(max(ids, default=-1) + 1)) for g in tgs)
    if holdable:
        assert parse_tgs(format_tgs(tgs)) == tgs
    else:
        with pytest.raises(ValueError):
            format_tgs(tgs)
