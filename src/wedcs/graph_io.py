"""Line-oriented text format for graphs with capacities.

    # comment
    g <n> <m> <W>
    b <v> <b_v>          (optional; capacity defaults to 1)
    e <u> <v> <w>        (m lines, in stream order)

The ``e`` lines define edge ids 0..m-1 in file order, which is also the
order used when a stream is replayed "as-is".

Fields may be separated by any whitespace, and blank lines and comments
may come anywhere.  Edge lines as :func:`format_graph` writes them, ``e``
and three fields of 1 to 18 digits, each after one blank, are read with
array steps over their bytes; an edge block with any other line in it is
read one line at a time, to the same graph and the same errors.

The header's ``n`` is at most 2**31 - 1, so that every vertex id fits
int32; a larger ``n`` fails on the header's line, before anything is
sized by it.
"""

from __future__ import annotations

import os
from typing import TextIO

import numpy as np

from .graph import Capacities, MultiGraph, Subgraph, _triple_columns

__all__ = ["GraphFormatError", "read_graph", "write_graph", "parse_graph", "format_graph"]


#: The largest vertex count a header may declare.
_MAX_VERTICES = 2**31 - 1


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str) -> tuple[MultiGraph, Capacities]:
    return _parse(text)


def read_graph(source: TextIO | str | os.PathLike) -> tuple[MultiGraph, Capacities]:
    """Parse a graph file from a path (``str`` or ``os.PathLike``) or an
    open text stream.

    The text is read once and parsed as :func:`parse_graph` parses it:
    lines go one at a time up to the first edge line, and from there on
    the edge lines in the layout :func:`format_graph` writes are read as
    arrays, a bounded chunk at a time.  A file with anything else among
    its edge lines is parsed line by line from its first edge line, which
    accepts the same files and reports the line number of an error.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    return _parse(text)


def _parse(text: str) -> tuple[MultiGraph, Capacities]:
    """The graph and capacities in ``text``, the whole of a file."""
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
            columns = _edge_columns(text, pos, state.header[1])
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
            if values[0] > _MAX_VERTICES:
                raise GraphFormatError(
                    line_no, f"vertex count {values[0]} exceeds {_MAX_VERTICES}")
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


#: The characters of edge-line text read as arrays at a time, cut back
#: to the last line end: about 64 KiB a chunk.
_CHUNK = 1 << 16

#: The bytes other than digits of every line ``format_graph`` writes, and
#: which of them end a field, so that digits come right before them.
_LAYOUT = b"e   \n"
_ENDS_FIELD = bytes([0, 0, 1, 1, 1])

#: The most digits of a field read as an array; 18 digits always fit int64.
_MAX_DIGITS = 18


def _edge_columns(text: str, pos: int,
                  m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``u``, ``v`` and ``w`` of the lines from ``text[pos]`` on, when they
    are at most ``m`` edge lines in the layout ``format_graph`` writes (the
    last newline may be missing), or None for any other text.

    The text goes a chunk of about ``_CHUNK`` characters at a time.  The
    int64 columns are sized from what the text can hold, 8 or more
    characters a line, so a header's ``m`` sizes nothing beyond that."""
    cap = max(0, min(m, (len(text) - pos + 1) // 8))
    out = np.empty((3, cap), dtype=np.int64)
    count = 0
    while pos < len(text):
        if len(text) - pos <= _CHUNK:
            end = len(text)
        else:
            end = text.rfind("\n", pos, pos + _CHUNK) + 1
            if end <= pos:
                return None  # a line longer than a chunk
        try:
            chunk = text[pos:end].encode("ascii")
        except UnicodeEncodeError:
            return None
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        rows = _edge_rows(np.frombuffer(chunk, dtype=np.uint8))
        if rows is None or count + len(rows) > cap:
            return None
        out[:, count:count + len(rows)] = rows.T
        count += len(rows)
        pos = end
        del chunk, rows  # before the next chunk's
    return out[0, :count], out[1, :count], out[2, :count]


def _edge_rows(text: np.ndarray) -> np.ndarray | None:
    """The ``(u, v, w)`` rows of ASCII bytes that are whole
    ``e <u> <v> <w>`` lines, with one blank before each field and 1 to
    ``_MAX_DIGITS`` digits in it, or None for any other bytes.

    The bytes other than digits, the marks, must run ``e``, blank, blank,
    blank, newline, line after line, with digits right before each of
    the last three only.  Each mark gets the value of the digits between
    it and the mark before it, read two digits at a time."""
    other = text - ord("0") > 9
    marks = np.flatnonzero(other)
    if len(marks) % 5:
        return None
    gaps = np.diff(marks, prepend=-1)
    lines = len(marks) // 5
    if (text[marks].tobytes() != _LAYOUT * lines
            or (gaps > 1).tobytes() != _ENDS_FIELD * lines
            or gaps.max() > _MAX_DIGITS + 1):
        return None
    width = (gaps - 1).astype(np.uint8)  # the digits before each mark
    del gaps
    digits = (text - ord("0")) * ~other  # 0 at the marks
    pairs = digits[:-1] * np.uint8(10) + digits[1:]  # from the digits at i, i + 1
    del other, digits
    # Horner's rule over the pairs that end k + 1 bytes before each mark,
    # k = ..., 2, 0: a pair that starts on the mark before holds its 0
    # there, and one wholly before it (width <= k, or before the chunk,
    # which wraps) is masked to 0
    k = 2 * ((int(width.max()) - 1) // 2)
    at = np.subtract(marks, 2 + k, out=marks)
    values = (pairs.take(at, mode="wrap") * (width > k)).astype(np.int64)
    while k:
        k -= 2
        at += 2
        values *= 100
        values += pairs.take(at, mode="wrap") * (width > k)
    return values.reshape(-1, 5)[:, 2:]


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


def write_graph(path: str | os.PathLike, G: MultiGraph, b: Capacities | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(G, b))


def write_subgraph(path: str | os.PathLike, H: Subgraph, b: Capacities | None = None) -> None:
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
