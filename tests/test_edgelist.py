from __future__ import annotations

import pytest
from hypothesis import given, settings

from c4free import ParseError, build_graph, parse_graph, serialize_graph
from helpers import cycle, raw_graphs

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
