"""Line-oriented text format for graphs with capacities.

    # comment
    g <n> <m> <W>
    b <v> <b_v>          (optional; capacity defaults to 1)
    e <u> <v> <w>        (m lines, in stream order)

The ``e`` lines define edge ids 0..m-1 in file order, which is also the
order used when a stream is replayed "as-is".
"""

from __future__ import annotations

import io
import os
import stat
from typing import TextIO

import numpy as np

from .graph import Capacities, MultiGraph, Subgraph, _triple_columns

__all__ = ["GraphFormatError", "read_graph", "write_graph", "parse_graph", "format_graph"]


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str) -> tuple[MultiGraph, Capacities]:
    return _parse(text, None)


#: The suffixes of the files that ``np.loadtxt`` decompresses.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def read_graph(source: TextIO | str) -> tuple[MultiGraph, Capacities]:
    """Parse a graph file from a path or open text stream.

    Lines go one at a time up to the first edge line.  From there on the
    edge lines of a well-formed file are read as arrays in one pass: from
    the file itself, by ``np.loadtxt``'s block reader, when ``source`` names
    a regular file that numpy would not decompress by its name, else from
    a copy of the text.  If that pass meets anything but plain
    ``e <u> <v> <w>`` lines, or the file cannot be opened again, the rest
    of the text is parsed line by line instead, which accepts exactly the
    same files and reports the line number of an error.
    """
    if not isinstance(source, str):
        return _parse(source.read(), None)
    with open(source, "r", encoding="utf-8") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        text = fh.read()
    reread = regular and not source.endswith(_COMPRESSED)
    return _parse(text, source if reread else None)


def _parse(text: str, path: str | None) -> tuple[MultiGraph, Capacities]:
    """The graph in ``text``; ``path`` names a file that numpy may read
    the same text from, or is None."""
    state = _ParseState()
    columns = None  # the edge columns, when read as arrays
    tried = False
    pos, line_no = 0, 0
    while pos < len(text):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        line_no += 1
        line = text[pos:end]
        if not tried and state.header is not None and line.split()[:1] == ["e"]:
            tried = True
            columns = _edge_columns(text, pos, line_no - 1, path)
            if columns is not None:
                break
        state.parse(line_no, line)
        pos = end + 1

    if state.header is None:
        raise GraphFormatError(1, "missing header line 'g <n> <m> <W>'")
    n, m, W = state.header
    if columns is None:
        columns = _triple_columns(state.triples)
    if len(columns[0]) != m:
        raise GraphFormatError(
            1, f"header declares m={m} but file has {len(columns[0])} edge lines")
    try:
        graph = MultiGraph.from_columns(n, *columns, W=W)
    except ValueError as exc:
        raise GraphFormatError(1, str(exc)) from exc
    b = Capacities([state.caps.get(v, 1) for v in range(n)])
    return graph, b


class _ParseState:
    """Header, capacities and edge triples read so far, one line at a time."""

    def __init__(self):
        self.header: tuple[int, int, int] | None = None
        self.caps: dict[int, int] = {}
        self.triples: list[tuple[int, int, int]] = []

    def parse(self, line_no: int, raw: str) -> None:
        line = raw.strip()
        if not line or line.startswith("#"):
            return
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            values = [int(a) for a in args]
        except ValueError:
            raise GraphFormatError(line_no, f"non-integer field in {line!r}")
        if kind == "g":
            if self.header is not None:
                raise GraphFormatError(line_no, "duplicate header")
            if len(values) != 3:
                raise GraphFormatError(line_no, "header needs exactly: g <n> <m> <W>")
            self.header = (values[0], values[1], values[2])
        elif kind == "b":
            if self.header is None:
                raise GraphFormatError(line_no, "capacity line before header")
            if len(values) != 2:
                raise GraphFormatError(line_no, "capacity line needs: b <v> <b_v>")
            v, bv = values
            if not (0 <= v < self.header[0]):
                raise GraphFormatError(line_no, f"vertex {v} out of range")
            if bv < 1:
                raise GraphFormatError(line_no, "capacity must be >= 1")
            self.caps[v] = bv
        elif kind == "e":
            if self.header is None:
                raise GraphFormatError(line_no, "edge line before header")
            if len(values) != 3:
                raise GraphFormatError(line_no, "edge line needs: e <u> <v> <w>")
            self.triples.append((values[0], values[1], values[2]))
        else:
            raise GraphFormatError(line_no, f"unknown record type {kind!r}")


#: One edge line read as a record; "U2" keeps any kind longer than "e"
#: distinct from it.
_EDGE_LINE = np.dtype([("kind", "U2"), ("u", np.int64), ("v", np.int64), ("w", np.int64)])


def _edge_columns(text: str, pos: int, skip: int,
                  path: str | None) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``u``, ``v`` and ``w`` of the lines from ``text[pos]`` on, which
    start at line ``skip + 1``, when they are ``e <u> <v> <w>`` lines and
    blank lines only, or None for any other text.

    ``np.loadtxt`` splits lines and fields much as the line parser does;
    a carriage return, which it may take for a line break, sends the text
    to the line parser.  Given the ``path`` of a regular file that holds
    ``text``, numpy's C reader pulls the file in blocks, past its first
    ``skip`` lines.  Otherwise it reads a ``StringIO`` copy of the lines,
    one at a time, at about 4 bytes a character."""
    if text.find("\r", pos) >= 0:
        return None
    source, skip = (path, skip) if path is not None else (io.StringIO(text[pos:]), 0)
    try:
        rows = np.loadtxt(source, dtype=_EDGE_LINE, comments=None, ndmin=1,
                          skiprows=skip, encoding="utf-8")
    except (ValueError, OSError):
        return None
    if not (rows["kind"] == "e").all():
        return None
    return rows["u"], rows["v"], rows["w"]


def format_graph(G: MultiGraph, b: Capacities | None = None) -> str:
    """Render a graph (and non-default capacities) in the file format."""
    out = [f"g {G.n} {G.m} {G.W}\n"]
    if b is not None:
        for v in range(G.n):
            if b[v] != 1:
                out.append(f"b {v} {b[v]}\n")
    out.append(_edge_lines(G.u, G.v, G.w))
    return "".join(out)


def _edge_lines(*columns: np.ndarray) -> str:
    """The ``e <u> <v> <w>`` lines of the non-negative ``u``, ``v`` and
    ``w`` columns.

    The digits go into one byte buffer by array steps, one step per digit
    position; the steps are exact on object columns too (weights beyond
    int64 under a huge cap)."""
    if not len(columns[0]):
        return ""
    widths = [_decimal_widths(col) for col in columns]
    at = np.cumsum(5 + sum(widths), dtype=np.int64)
    buf = np.full(at[-1], ord(" "), dtype=np.uint8)
    # walk each line from its end: newline, then each field's digits right
    # to left and the space before them, then the "e"
    at -= 1
    buf[at] = ord("\n")
    for col, width in zip(reversed(columns), reversed(widths)):
        at -= 1
        _put_digits(buf, col, at)
        at -= width
    buf[at - 1] = ord("e")
    return buf.tobytes().decode("ascii")


def _decimal_widths(values: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each non-negative integer."""
    width = np.ones(len(values), dtype=np.int32)
    top, power = int(values.max()), 10
    while power <= top:
        width += values >= power
        power *= 10
    return width


def _put_digits(buf: np.ndarray, values: np.ndarray, last: np.ndarray) -> None:
    """Write the decimal digits of each non-negative integer into ``buf``,
    its last digit at ``last``."""
    while len(values):
        buf[last] = values % 10 + ord("0")
        values = values // 10
        more = values > 0
        values, last = values[more], last[more] - 1


def write_graph(path: str, G: MultiGraph, b: Capacities | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(G, b))


def write_subgraph(path: str, H: Subgraph, b: Capacities | None = None) -> None:
    """Write a subgraph as a standalone graph file (same n and W)."""
    G = H.parent
    restricted, _ = G.restrict(H.members)
    write_graph(path, restricted, b)


def match_subgraph_edges(G: MultiGraph, S: MultiGraph) -> list[int]:
    """Map each edge of ``S`` onto a distinct edge of ``G`` with the same
    endpoints and weight, preferring smaller ids.

    Raises ValueError when ``S`` is not a sub-multiset of ``G``'s edges;
    used to re-anchor a subgraph file onto its parent graph.
    """
    if S.n != G.n:
        raise ValueError(f"vertex count mismatch: parent has {G.n}, subgraph file has {S.n}")
    pool: dict[tuple[int, int, int], list[int]] = {}
    for eid, key in enumerate(_pair_weight_keys(G)):
        pool.setdefault(key, []).append(eid)
    for ids in pool.values():
        ids.reverse()  # pop() then yields smallest id first
    matched: list[int] = []
    for eid, key in enumerate(_pair_weight_keys(S)):
        ids = pool.get(key)
        if not ids:
            u, v, w = S.triple(eid)
            raise ValueError(
                f"subgraph edge ({u}, {v}, w={w}) has no unused counterpart in the parent graph"
            )
        matched.append(ids.pop())
    return matched


def _pair_weight_keys(G: MultiGraph):
    """(min(u, v), max(u, v), w) of every edge, in id order."""
    return zip(np.minimum(G.u, G.v).tolist(), np.maximum(G.u, G.v).tolist(), G.w.tolist())
