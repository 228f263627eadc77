"""Property-based checks of the text formats: sequence and model-spec round
trips, and the route JSON layout."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.cli import _json_text, _route_json_text  # noqa: E402
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


@st.composite
def route_payloads(draw):
    """Route payloads: METT tables with infinite METTs and empty policies,
    ids past 9 (so that "10" sorts before "9"), with or without trials."""
    ids = draw(st.sets(st.integers(min_value=0, max_value=120), max_size=15))
    mett = st.one_of(st.just("inf"), st.floats(min_value=0.0, allow_infinity=False))
    nodes = {
        str(v): {"mett": draw(mett), "policy": draw(st.lists(st.sampled_from(sorted(ids))))}
        for v in ids
    }
    payload = {"spec_version": "1", "command": "route", "p": draw(unit),
               "dest": draw(st.integers(0, 120)), "nodes": nodes}
    if draw(st.booleans()):
        payload.update(trials=draw(st.integers(0, 10**6)), seed=draw(st.integers(0, 99)),
                       undelivered=draw(st.integers(0, 10)), mett_source=draw(mett),
                       empirical_mean=draw(st.none() | st.floats(0.0, 1e6)),
                       empirical_stderr=draw(st.none() | st.floats(0.0, 1e3)))
    return payload


@settings(deadline=None, max_examples=200)
@given(route_payloads())
@example({"spec_version": "1", "command": "route", "p": 0.5, "dest": 9, "nodes": {}})
@example({"spec_version": "1", "command": "route", "p": 0.5, "dest": 9, "nodes": {
    "9": {"mett": 0.0, "policy": []}, "10": {"mett": "inf", "policy": []},
    "11": {"mett": 2.0000000000000004, "policy": [10, 9]}}})
def test_route_json_is_the_indented_json_layout(payload):
    assert _route_json_text(payload) == _json_text(payload)
