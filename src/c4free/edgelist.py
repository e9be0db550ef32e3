"""Plain-text edge list format.

First non-comment line is ``n m``, followed by exactly m lines ``u v``
with 0-indexed endpoints. Lines starting with ``#`` are ignored.
Serialization is canonical (edges with u < v in ascending lexicographic
order, one per line, trailing newline) and round-trips byte-exactly.

A text made only of newline-terminated lines ``u v`` in plain decimal with
one space, as serialization writes it, is parsed in bulk. Any other text,
and any mismatch on the bulk path, goes through the line-by-line parser,
which alone reports errors.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Optional

from .graph import Graph, GraphInputError, _graph_of

# At the cap, `check c4free` on a relabelled cycle_power(1023) (n = 4093,
# 4 187 139 edges, 39.6 MB; Python 3.11.7, 2 shared vCPUs) parses in 1.5-2.5 s
# (10.4 s line by line) and scans in 2.6-3.0 s, peaking at 92 MiB RSS (872 MiB
# line by line). Kept at 4096, with no work budget: no workload needs more.
CLI_VERTEX_LIMIT = 4096

_NO_DIGITS = str.maketrans("", "", "0123456789")
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_SLICE = 1 << 14


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
    g = _parse_bulk(text, max_n)
    return g if g is not None else _parse_lines(text, max_n)


def _parse_bulk(text: str, max_n: Optional[int]) -> Optional[Graph]:
    """The graph, or None to leave the text to the line loop.

    Every line must be two runs of ASCII digits, one space apart, ending
    in a newline. None also when n exceeds max_n or the CLI limit (the bit
    table takes n^2/16 bytes), the line count is not m + 1, a token is not
    the plain decimal of a vertex below n, or the rows hold other than 2m
    bits: a self-loop, a repeated edge or an empty token leaves fewer.
    """
    lines = text.count("\n")
    if not lines or text.translate(_NO_DIGITS) != " \n" * lines:
        return None
    head = text.index("\n")
    try:
        n, m = map(int, text[:head].split(" "))
    except ValueError:  # an empty number, or one too long for int()
        return None
    limit = CLI_VERTEX_LIMIT if max_n is None else min(max_n, CLI_VERTEX_LIMIT)
    if n > limit or m != lines - 1:
        return None
    vertex = {str(v): v for v in range(n)}
    bits = [1 << v for v in range(n)]
    adj = [0] * n
    start = head + 1
    try:
        # Slices cut at newlines keep one slice's tokens alive at a time.
        while start < len(text):
            stop = text.index("\n", min(start + _SLICE, len(text) - 1)) + 1
            ends = map(vertex.__getitem__, text[start:stop].split())
            for u, v in zip(ends, ends):
                adj[u] |= bits[v]
                adj[v] |= bits[u]
            start = stop
    except KeyError:
        return None
    g = _graph_of(adj)
    return g if g.edge_count == m else None


def _parse_lines(text: str, max_n: Optional[int]) -> Graph:
    header: Optional[tuple[int, int]] = None
    # Rows by vertex, so a huge n with max_n=None costs nothing until the
    # whole text has passed every check.
    rows: dict[int, int] = {}
    count = 0
    duplicate: Optional[ParseError] = None
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
        if count >= header[1]:
            raise ParseError(f"trailing garbage after {header[1]} edges: {raw!r}", line_no)
        u, v = _parse_ints(raw, 2, line_no)
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range 0..{n - 1} in edge {u} {v}", line_no)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line_no)
        row = rows.get(u, 0)
        if row >> v & 1 and duplicate is None:
            # Reported only when the text has no other fault.
            duplicate = ParseError(f"duplicate edge {u} {v}", line_no)
        rows[u] = row | 1 << v
        rows[v] = rows.get(v, 0) | 1 << u
        count += 1
    if header is None:
        raise ParseError("missing header line 'n m'", last_line_no + 1)
    if count != header[1]:
        raise ParseError(
            f"header declared {header[1]} edges, found {count}",
            last_line_no + 1,
        )
    if duplicate is not None:
        raise duplicate
    return _graph_of([rows.get(v, 0) for v in range(header[0])])


def _edge_lines(g: Graph) -> Iterator[str]:
    # The header, then the edges of each row with an edge to a later vertex.
    # The binary digits of the row's upper part, reversed and read as 0/1
    # bytes, pick its later neighbours from the names in one C-level pass.
    yield f"{g.n} {g.edge_count}\n"
    names = [f"{v}\n" for v in range(g.n)]
    for u, row in enumerate(g.adj):
        if upper := row >> u + 1:
            flags = format(upper, "b").encode().translate(_FLAGS)[::-1]
            yield f"{u} " + f"{u} ".join(compress(names[u + 1:], flags))


def serialize_graph(g: Graph) -> str:
    return "".join(_edge_lines(g))
