from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c4free import ParseError, build_graph, cycle_power, parse_graph, serialize_graph
from c4free import edgelist
from helpers import (
    component_graphs,
    cycle,
    raw_graphs,
    reference_edge_lines,
    reference_parse_graph,
    relabelled,
    relabelled_w5_blowup,
)

C5_TEXT = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0"
C5_CANONICAL = "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"


class TestParse:
    def test_c5(self):
        assert parse_graph(C5_TEXT) == cycle(5)

    def test_single_vertex(self):
        g = parse_graph("1 0")
        assert g.n == 1 and g.edge_count == 0

    def test_out_of_range_vertex_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("3 1\n0 3")
        assert exc.value.line_no == 2

    def test_comments_ignored(self):
        text = "# a comment\n3 2\n0 1\n# another\n1 2\n"
        g = parse_graph(text)
        assert g.edge_count == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("2 1\n0 1\n0 1")
        assert exc.value.line_no == 3

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("3 1\n0 x")
        assert exc.value.line_no == 2

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("# only comments\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("3 1\n1 1")

    def test_vertex_limit_enforced(self):
        with pytest.raises(ParseError):
            parse_graph("5000 0")
        g = parse_graph("5000 0", max_n=None)
        assert g.n == 5000

    def test_duplicate_edge_lines_rejected(self):
        # A repeated pair, in either orientation, names its own line; the
        # header count would otherwise disagree with the serialized one.
        with pytest.raises(ParseError) as exc:
            parse_graph("4 3\n0 1\n0 1\n2 3")
        assert exc.value.line_no == 3
        with pytest.raises(ParseError) as exc:
            parse_graph("# c\n3 3\n0 1\n# c\n1 2\n1 0\n")
        assert exc.value.line_no == 6


# Every ParseError text and line number, taken from the line-by-line parser
# before the bulk path existed; the bulk path must leave them all unchanged.
PINNED_ERRORS = [
    ("", {}, 1, "missing header line 'n m'"),
    ("# only comments\n", {}, 2, "missing header line 'n m'"),
    ("-1 0\n", {}, 1, "negative counts in header: -1 0"),
    ("3 -2\n", {}, 1, "negative counts in header: 3 -2"),
    ("5000 0", {}, 1, "n=5000 exceeds the vertex limit 4096"),
    ("# c\n7 0\n", {"max_n": 6}, 2, "n=7 exceeds the vertex limit 6"),
    ("3\n", {}, 1, "expected 2 integers, got '3'"),
    ("3 1\n0 1 2\n", {}, 2, "expected 2 integers, got '0 1 2'"),
    ("3 1\n\n0 1\n", {}, 2, "expected 2 integers, got ''"),
    ("3 y\n", {}, 1, "not an integer: 'y'"),
    ("3 1\n0 x\n", {}, 2, "not an integer: 'x'"),
    ("3 1\n0 3", {}, 2, "vertex out of range 0..2 in edge 0 3"),
    ("3 1\n-1 2\n", {}, 2, "vertex out of range 0..2 in edge -1 2"),
    ("3 1\n1 1", {}, 2, "self-loop at vertex 1"),
    ("2 1\n0 1\n0 1", {}, 3, "trailing garbage after 1 edges: '0 1'"),
    ("3 2\n0 1", {}, 3, "header declared 2 edges, found 1"),
    ("3 2\n0 1\n", {}, 3, "header declared 2 edges, found 1"),
    ("4 3\n0 1\n0 1\n2 3", {}, 3, "duplicate edge 0 1"),
    ("# c\n3 3\n0 1\n# c\n1 2\n1 0\n", {}, 6, "duplicate edge 1 0"),
    # More than one fault: a duplicate is reported only when nothing else is.
    ("4 3\n0 1\n0 1\n", {}, 4, "header declared 3 edges, found 2"),
    ("4 3\n1 0\n0 1\n0 9\n", {}, 4, "vertex out of range 0..3 in edge 0 9"),
    ("4 2\n0 1\n1 0\n2 3\n", {}, 4, "trailing garbage after 2 edges: '2 3'"),
    ("# c\n4 4\n0 1\n1 0\n2 3\n0 1\n", {}, 4, "duplicate edge 1 0"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, kwargs, line_no, message", PINNED_ERRORS)
    def test_message_and_line_are_pinned(self, text, kwargs, line_no, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(text, **kwargs)
        assert exc.value.line_no == line_no
        assert str(exc.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize("text, kwargs, line_no, message", PINNED_ERRORS)
    def test_reference_gives_the_same_error(self, text, kwargs, line_no, message):
        with pytest.raises(ParseError) as exc:
            reference_parse_graph(text, **kwargs)
        assert (exc.value.line_no, str(exc.value)) == (line_no, f"line {line_no}: {message}")


def _outcome(parse, text, max_n):
    """The parsed graph, or the error's text and line number."""
    try:
        return parse(text, max_n)
    except ParseError as exc:
        return str(exc), exc.line_no


def _recount(lines, delta):
    n, m = lines[0].split()
    lines[0] = f"{n} {int(m) + delta}"


def _insert_counted(lines, pos, line):
    lines.insert(pos, line)
    _recount(lines, 1)


def _drop_counted(lines, pos):
    del lines[pos]
    _recount(lines, -1)


def _reversed_duplicate(lines, pos):
    if len(lines) > 1:
        u, v = lines[1 + pos % (len(lines) - 1)].split()
        _insert_counted(lines, pos, f"{v} {u}")


def _edit(rewrite):
    """A mutation that rewrites the line before the insertion point."""
    def mutate(lines, pos, extra):
        lines[pos - 1] = rewrite(lines[pos - 1])
    return mutate


# Edits of an edge list, by name: (lines, insertion point >= 1, extra line "u v").
MUTATIONS = {
    "none": lambda lines, pos, extra: None,
    "comment": lambda lines, pos, extra: lines.insert(pos, "# note"),
    "blank": lambda lines, pos, extra: lines.insert(pos, ""),
    "tab": _edit(lambda line: line.replace(" ", "\t")),
    "leading space": _edit(" ".__add__),
    "trailing space": _edit(lambda line: line + " "),
    "plus sign": _edit("+".__add__),
    "leading zeros": _edit("00".__add__),
    "underscore": _edit(lambda line: line.replace(" ", " 1_")),
    "not a number": _edit(lambda line: line.replace(" ", " x")),
    "line added": lambda lines, pos, extra: lines.insert(pos, extra),
    "counted line added": lambda lines, pos, extra: _insert_counted(lines, pos, extra),
    "line dropped": lambda lines, pos, extra: lines.pop(pos) if pos < len(lines) else None,
    "counted line dropped": lambda lines, pos, extra: (
        _drop_counted(lines, pos) if pos < len(lines) else None
    ),
    "self-loop": lambda lines, pos, extra: (
        _insert_counted(lines, pos, " ".join([extra.split()[0]] * 2))
    ),
    "reversed duplicate": lambda lines, pos, extra: _reversed_duplicate(lines, pos),
}


@st.composite
def edge_list_cases(draw):
    """Serialized random graphs, shuffled or edited, with a vertex limit."""
    g = draw(raw_graphs(max_n=12))
    lines = serialize_graph(g).splitlines()
    if draw(st.booleans()):
        lines[1:] = draw(st.permutations(lines[1:]))
    pos = draw(st.integers(min_value=1, max_value=len(lines)))
    extra = draw(st.tuples(*[st.integers(min_value=0, max_value=g.n + 1)] * 2))
    MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))](lines, pos, " ".join(map(str, extra)))
    text = "\n".join(lines) + "\n"
    text = draw(st.sampled_from([text, text.replace("\n", "\r\n"), text[:-1]]))
    max_n = draw(st.sampled_from([None, edgelist.CLI_VERTEX_LIMIT, g.n, max(g.n - 1, 0)]))
    return text, max_n


class TestBulkPathAgainstReference:
    """``parse_graph`` against a verbatim copy of the line-by-line parser."""

    @settings(max_examples=400, deadline=None)
    @given(edge_list_cases())
    def test_same_graph_or_same_error(self, case):
        text, max_n = case
        assert _outcome(parse_graph, text, max_n) == _outcome(reference_parse_graph, text, max_n)

    @pytest.mark.parametrize("text", [
        "0 0\n", "1 0\n", "3 1\n2 0\n", "3 1\n0 03\n", "3 0\n\n", "\n", " \n",
        "3 1\n 1\n", "3 1\n1 \n", "3 2\n0 1 2\n", "4 2\n0 1 2\n3\n", "3 1\n0 ٢\n",
        "2 1\n0 1\n\n", "3 1\n0 1\n1 0\n", "5000 0\n", "2 " + "9" * 5000 + "\n",
    ])
    @pytest.mark.parametrize("max_n", [None, edgelist.CLI_VERTEX_LIMIT, 2])
    def test_edge_cases(self, text, max_n):
        assert _outcome(parse_graph, text, max_n) == _outcome(reference_parse_graph, text, max_n)

    def test_canonical_text_skips_the_line_loop(self, monkeypatch):
        def refuse(text, max_n):
            raise AssertionError("the line loop ran on a canonical edge list")

        monkeypatch.setattr(edgelist, "_parse_lines", refuse)
        for g in (relabelled(cycle_power(60), 1), relabelled_w5_blowup((30,) * 6, 1)):
            assert parse_graph(serialize_graph(g)) == g


class TestSerialize:
    def test_c5_canonical(self):
        assert serialize_graph(cycle(5)) == C5_CANONICAL

    def test_empty_graph(self):
        assert serialize_graph(build_graph(0, [])) == "0 0\n"

    def test_round_trip_from_messy_input(self):
        # Parsing unordered input and reserializing yields the canonical
        # text, which then round-trips byte-exactly.
        canonical = serialize_graph(parse_graph(C5_TEXT))
        assert canonical == C5_CANONICAL
        assert serialize_graph(parse_graph(canonical)) == canonical

    @settings(max_examples=100, deadline=None)
    @given(raw_graphs(max_n=12))
    def test_round_trip_any_graph(self, g):
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert serialize_graph(parse_graph(text)) == text

    # The writer picks each row's later neighbours in one C-level pass; the
    # per-edge generator it replaced must give the same bytes.

    @settings(max_examples=200, deadline=None)
    @given(component_graphs(max_n=60))
    @example(relabelled(cycle_power(60), 1))
    @example(relabelled_w5_blowup((30,) * 6, 1))
    def test_bytes_match_reference(self, g):
        text = serialize_graph(g)
        assert text == "".join(reference_edge_lines(g))
        assert parse_graph(text) == g
