"""Property-based checks of the text formats: sequence and model-spec round
trips, the CSV tables and the route JSON layout."""

import itertools
import re
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tvgraph.cli import _csv, _json_text, _route_json_text  # noqa: E402
from tvgraph.models import (  # noqa: E402
    ErParams,
    MarkovParams,
    ModelSpec,
    UnderlyingGraph,
    format_model_spec,
    parse_model_spec,
    sample_er_tgs,
    sample_markov_tgs,
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


def _reference_parse_tgs(text):
    """The line-by-line parser that parse_tgs replaced, kept as its reference."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty sequence file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "tgs":
        raise ValueError(f"bad header {lines[0]!r}; expected 'tgs <n> <T>'")
    try:
        n, horizon = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}; node count and horizon must be integers") from None
    if n < 0 or horizon < 1:
        raise ValueError("node count must be >= 0 and horizon >= 1")
    if n > 2 ** 31:
        raise ValueError(f"node count {n} is above the format's limit of {2 ** 31}")
    if horizon > sys.maxsize:
        raise ValueError(f"horizon {horizon} is above the format's limit of {sys.maxsize}")
    slot_edges = {}  # declared slot -> its edge set; undeclared slots stay empty
    current = edges = None  # the open slot and its edge set
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "t":
            if len(parts) != 2:
                raise ValueError(f"bad slot line {ln!r}")
            slot = int(parts[1])
            if not 1 <= slot <= horizon:
                raise ValueError(f"slot {slot} out of range 1..{horizon}")
            if slot in slot_edges:
                raise ValueError(f"slot {slot} declared twice")
            current = slot
            edges = slot_edges[slot] = set()
        elif parts[0] == "e":
            if current is None:
                raise ValueError("edge line before any 't <slot>' line")
            if len(parts) != 3:
                raise ValueError(f"bad edge line {ln!r}")
            u, v = int(parts[1]), int(parts[2])
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"node id out of range 0..{n - 1} in {ln!r}")
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise ValueError(f"duplicate edge {e} in slot {current}")
            edges.add(e)
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    return GraphletSequence(
        Graphlet(t, range(n), slot_edges.get(t, ())) for t in range(1, horizon + 1)
    )


def assert_parses_as_the_reference(text, message=None):
    """parse_tgs reads `text` as the reference parser does, or raises its
    error; or raises `message`, when one is given for a number that is not
    ASCII decimal digits."""
    if message is None:
        try:
            want = _reference_parse_tgs(text)
        except ValueError as exc:
            message = str(exc)
        else:
            got = parse_tgs(text)
            assert got == want and hash(got) == hash(want)
            assert list(map(repr, got)) == list(map(repr, want))
            return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_tgs(text)


GAPS = [" ", "  ", "\t", " \t ", "\xa0", "\u3000", "\x1f", "\u2009"]
SKIPPED_LINES = ["", "   ", "# note", "  # e 0 1", "#t 1"]  # lines both parsers skip
# every line break of str.splitlines, the ASCII ones beside "\n" among them
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# ASCII numbers, which both parsers read alike, and number tokens that are
# not ASCII decimal digits, which parse_tgs refuses where int() may read them
NUMBERS = ["-1", "0", "1", "2", "3", "5", "007", "-0", "99", "12345678901234567890"]
ODD_NUMBERS = ["x", "1.5", "+1", "1_0", "\u0662", "\uff13", "0x1", "--1", "1e3", "\U0001d7d9"]


@st.composite
def tgs_texts(draw):
    """(text, message): a sequence text, written well-formed, then perhaps
    reordered, spaced, commented and given one mutated line.  message is
    what parse_tgs must raise when the mutation put a number that is not
    ASCII decimal digits in a line, else None."""
    tgs = draw(integer_sequences(max_nodes=6, max_slots=4))
    blocks = []  # (slot line, its edge lines), as token lists
    for g in tgs:
        edges = [["e", *map(str, draw(st.permutations(e)))] for e in sorted(g.edges)]
        if edges or draw(st.booleans()):
            blocks.append((["t", str(g.time)], draw(st.permutations(edges))))
    rows = [["tgs", str(len(tgs.node_ids)), str(tgs.horizon)]]
    for slot, edges in draw(st.permutations(blocks)):
        rows += [slot, *edges]
    odd_row = None  # the row given a number that is not ASCII decimal digits
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        kind = draw(st.sampled_from(["number", "odd number", "kind", "drop", "add", "repeat"]))
        at = draw(st.integers(0, len(row) - 1))
        if kind in ("number", "odd number") and at > 0:
            row[at] = draw(st.sampled_from(NUMBERS if kind == "number" else ODD_NUMBERS))
            odd_row = row if kind == "odd number" else None
        elif kind == "kind":
            row[0] = draw(st.sampled_from(["t", "e", "x", "tgs", "E"]))
        elif kind == "drop" and len(row) > 1:
            del row[at]
        elif kind == "add":
            row.insert(at + 1, draw(st.sampled_from(["1", "e", "t"])))
        elif kind == "repeat":
            rows.insert(draw(st.integers(1, len(rows))), row)
        rows[i] = row
    lines, message = [], None
    # skipped lines, and unless a line holds an odd number, lines with a "#"
    # after their start, which both parsers refuse alike
    extra = st.sampled_from(SKIPPED_LINES + (["e 0 1 # note", "t#"] if odd_row is None else []))
    for row in rows:
        gaps = [draw(st.sampled_from(GAPS)) for _ in row[1:]]
        line = row[0] + "".join(g + tok for g, tok in zip(gaps, row[1:]))
        if row is odd_row:
            what = {"tgs": "header", "t": "slot line"}.get(row[0], "edge line")
            message = (f"bad header {line!r}; node count and horizon must be integers"
                       if what == "header" else f"bad {what} {line!r}")
        pad = st.sampled_from(["", " ", "\t", "\xa0 ", "\x1f", "\u3000"])
        lines.append(draw(pad) + line + draw(pad))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(extra))
    if draw(st.integers(0, 4)) == 0:  # before the header
        lines.insert(0, draw(extra))
    text = draw(st.sampled_from(BREAKS)).join(lines) + draw(st.sampled_from(["", "\n", " ", "\n\n"]))
    return text, message


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


@settings(deadline=None, max_examples=400)
@given(tgs_texts())
@example(("tgs 3 1\nt 1\ne 0 1\ne 1 +2\n", "bad edge line 'e 1 +2'"))
@example(("tgs 3 1\nt 1\ne 0 1\ne 1 0\ne 0 x\n", None))
@example(("# c\r\n  tgs\t3  2 \r\n\r\nt 2\r\n e\xa02 1\r\n", None))
@example(("tgs 2 12345678901234567890\nt 1\n", None))
@example(("tgs 12345678901234567890 1\nt 1\n", None))
def test_parse_matches_the_reference_parser(case):
    assert_parses_as_the_reference(*case)


@pytest.mark.parametrize("model, n, horizon", [
    (MarkovParams(0.005, 0.5), 30, 600),
    (ErParams(1.0), 150, 1),
    (ErParams(0.03), 500, 1),
])
def test_sampled_texts_parse_as_the_reference_parser_reads_them(model, n, horizon):
    sampler = sample_er_tgs if isinstance(model, ErParams) else sample_markov_tgs
    tgs = sampler(UnderlyingGraph.complete(n), model, horizon, 7)
    text = format_tgs(tgs)
    assert parse_tgs(text) == tgs
    assert_parses_as_the_reference(text)
    assert_parses_as_the_reference(text.removesuffix("\n"))


@st.composite
def written_texts(draw):
    """Texts in the form format_tgs writes: a written sequence, perhaps with
    one line after the header replaced by another slot or edge line of ASCII
    digits, repeated or moved, so that the form holds texts parse_tgs must
    still refuse."""
    lines = format_tgs(draw(integer_sequences())).splitlines(keepends=True)
    if draw(st.booleans()):
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 1
        number = st.sampled_from([n for n in NUMBERS if not n.startswith("-")])
        kind = draw(st.sampled_from(["slot", "edge", "repeat", "move"]))
        if kind == "slot":
            lines.insert(i, f"t {draw(number)}\n")
        elif kind == "edge":
            lines.insert(i, f"e {draw(number)} {draw(number)}\n")
        elif len(lines) > 1:
            line = lines[i] if kind == "repeat" else lines.pop(i)
            lines.insert(draw(st.integers(1, len(lines))), line)
    return "".join(lines)


def parse_outcome(text):
    """parse_tgs(text) as (the sequence and its slots' reprs, None), or
    (None, the message) when it raises."""
    try:
        tgs = parse_tgs(text)
    except ValueError as exc:
        return None, str(exc)
    return (tgs, list(map(repr, tgs))), None


@settings(deadline=None, max_examples=300)
@given(st.one_of(tgs_texts().map(lambda case: case[0]), written_texts()))
@example("tgs 3 2\nt 1\ne 0 1\ne 1 0\n")
@example("tgs 3 2\nt 3\n")
@example("tgs 3 2\ne 0 1\nt 1\n")
def test_a_written_text_parses_as_the_general_path_reads_it(text):
    # a comment line takes any text off the written form, onto the strip and
    # the line search; the lines and so the sequence or the message stay
    general = text + ("" if text.endswith("\n") else "\n") + "# end\n"
    assert parse_outcome(text) == parse_outcome(general)


@pytest.mark.parametrize("model, n, horizon", [
    (MarkovParams(0.005, 0.5), 30, 600),
    (ErParams(1.0), 150, 1),
    (ErParams(0.03), 500, 1),
    (ErParams(0.4), 12, 50),
])
def test_sampled_written_texts_parse_as_the_general_path_reads_them(model, n, horizon):
    sampler = sample_er_tgs if isinstance(model, ErParams) else sample_markov_tgs
    text = format_tgs(sampler(UnderlyingGraph.complete(n), model, horizon, 7))
    assert parse_outcome(text) == parse_outcome(text + "# end\n")


CLEAN = "tgs 4 3\nt 1\ne 0 1\ne 1 2\nt 3\ne 2 3\n"


@pytest.mark.parametrize("char", [
    "#", "\t", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",  # what a text read as it is lacks
    "\x85", "\u2028", "\u3000",  # not ASCII: a line break, a line break, a space
    "\n", " ",  # a blank line, or a space at the end of a line
])
@pytest.mark.parametrize("where", ["line start", "line end", "gap", "text start", "text end"])
def test_texts_that_are_not_clean_parse_as_the_reference_parser_reads_them(char, where):
    text = {
        "line start": CLEAN.replace("\ne 1 2", "\n" + char + "e 1 2"),
        "line end": CLEAN.replace("e 1 2\n", "e 1 2" + char + "\n"),
        "gap": CLEAN.replace("e 1 2", "e" + char + "1 2"),
        "text start": char + CLEAN,
        "text end": CLEAN + char,
    }[where]
    message = "bad edge line 'e 1 2#'" if (char, where) == ("#", "line end") else None
    assert_parses_as_the_reference(text, message)
    assert_parses_as_the_reference(text.removesuffix("\n"), message)


@pytest.mark.parametrize("text", [
    CLEAN, CLEAN[:-1], "\n" + CLEAN, " " + CLEAN, CLEAN + " ", CLEAN[:-1] + " ", CLEAN + "\n",
    CLEAN.replace("\nt 3", "\n \nt 3"), CLEAN.replace("\nt 3", " \nt 3"),
    CLEAN.replace("\nt 3", "\n t 3"), "", "\n", " ", "tgs 4 3", "tgs 4 3\ne 0 1\n",
    "tgs 4 3\nt 1\ne 0 9\n", "tgs 4 3\nt 1\ne 0 1\ne 1 0\n", "tgs 4 3\nt 4\n", "x\n",
])
def test_clean_and_nearly_clean_texts_parse_as_the_reference_parser_reads_them(text):
    assert_parses_as_the_reference(text)


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


def _reference_csv(rows, header):
    """The cell-by-cell writer that _csv replaced, kept as its reference."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else f"{c:.12g}" for c in row))
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e300, float("inf"), float("-inf"), float("nan")]
INTS = st.integers() | st.sampled_from([10**12, 10**18 + 1, -(10**19), 2**64, 10**30])
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
# each kind of cell the writer takes, and a column that mixes ints and floats
CELLS = [
    INTS,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    FLOATS,
    FLOATS.map(np.float64),
    st.booleans(),
    st.text(max_size=3),
    INTS | FLOATS,
    st.one_of(INTS, FLOATS.map(np.float64), st.booleans(), st.text(max_size=3)),
]


@st.composite
def csv_tables(draw):
    """(columns, header): one to four columns of one length, zero rows
    among them, each drawn from one entry of CELLS."""
    rows = draw(st.integers(0, 6))
    width = draw(st.integers(1, 4))
    columns = [draw(st.lists(draw(st.sampled_from(CELLS)), min_size=rows, max_size=rows))
               for _ in range(width)]
    return columns, draw(st.lists(st.text(max_size=4), min_size=width, max_size=width))


@settings(deadline=None, max_examples=300)
@given(csv_tables())
@example(([[1, 2.5, 10**13, float("nan"), np.int64(7), True, -0.0]], ["mixed"]))
@example(([[], []], ["latency", "count"]))
def test_csv_matches_the_cell_by_cell_writer(table):
    columns, header = table
    assert _csv(columns, header) == _reference_csv(zip(*columns), header)
