"""Plain-text edge list format.

First non-comment line is ``n m``, followed by exactly m lines ``u v``
with 0-indexed endpoints. Lines starting with ``#`` are ignored.
Serialization is canonical (edges with u < v in ascending lexicographic
order, one per line, trailing newline) and round-trips byte-exactly.
"""

from __future__ import annotations

from typing import Optional

from .graph import Graph, GraphInputError, build_graph

CLI_VERTEX_LIMIT = 4096


class ParseError(GraphInputError):
    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_ints(line: str, count: int, line_no: int) -> list[int]:
    tokens = line.split()
    if len(tokens) != count:
        raise ParseError(f"expected {count} integers, got {line!r}", line_no)
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"not an integer: {tok!r}", line_no) from None
    return values


def parse_graph(text: str, max_n: Optional[int] = CLI_VERTEX_LIMIT) -> Graph:
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    last_line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line_no = line_no
        if raw.lstrip().startswith("#"):
            continue
        if header is None:
            n, m = _parse_ints(raw, 2, line_no)
            if n < 0 or m < 0:
                raise ParseError(f"negative counts in header: {n} {m}", line_no)
            if max_n is not None and n > max_n:
                raise ParseError(f"n={n} exceeds the vertex limit {max_n}", line_no)
            header = (n, m)
            continue
        if len(edges) >= header[1]:
            raise ParseError(f"trailing garbage after {header[1]} edges: {raw!r}", line_no)
        u, v = _parse_ints(raw, 2, line_no)
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range 0..{n - 1} in edge {u} {v}", line_no)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line_no)
        edges.append((u, v))
    if header is None:
        raise ParseError("missing header line 'n m'", last_line_no + 1)
    if len(edges) != header[1]:
        raise ParseError(
            f"header declared {header[1]} edges, found {len(edges)}",
            last_line_no + 1,
        )
    g = build_graph(header[0], edges)
    if g.edge_count != header[1]:
        # Error path only: the data lines after the header are the edges.
        lines = [no for no, raw in enumerate(text.splitlines(), start=1)
                 if not raw.lstrip().startswith("#")]
        seen: set[frozenset[int]] = set()
        for line_no, (u, v) in zip(lines[1:], edges):
            if frozenset((u, v)) in seen:
                raise ParseError(f"duplicate edge {u} {v}", line_no)
            seen.add(frozenset((u, v)))
    return g


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
