import os
import sys
import tracemalloc

import numpy as np
import pytest

from wedcs import Capacities, GraphFormatError, MultiGraph, format_graph, parse_graph, read_graph
import wedcs.graph_io as graph_io
from wedcs.graph_io import match_subgraph_edges

from helpers import make_random, triples


def test_round_trip():
    G = MultiGraph(4, [(0, 1, 2), (1, 2, 1), (0, 3, 4)], W=4)
    b = Capacities([1, 2, 1, 3])
    text = format_graph(G, b)
    G2, b2 = parse_graph(text)
    assert G2.n == 4 and G2.W == 4
    assert triples(G2) == triples(G)
    assert b2 == b


def test_comments_and_default_capacity():
    G, b = parse_graph("# a comment\ng 2 1 3\ne 0 1 2\n")
    assert G.m == 1 and b[0] == 1 and b[1] == 1


def test_header_mismatch_reports_error():
    with pytest.raises(GraphFormatError):
        parse_graph("g 2 2 3\ne 0 1 2\n")


def test_malformed_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("g 2 1 3\ne 0 one 2\n")
    assert exc.value.line_no == 2


def test_unknown_record():
    with pytest.raises(GraphFormatError):
        parse_graph("g 1 0 1\nz 0\n")


def test_edge_before_header():
    with pytest.raises(GraphFormatError):
        parse_graph("e 0 1 1\ng 2 1 1\n")


def test_match_subgraph_edges_smallest_ids():
    G = MultiGraph(2, [(0, 1, 2), (0, 1, 2), (0, 1, 1)])
    S = MultiGraph(2, [(0, 1, 2)])
    assert match_subgraph_edges(G, S) == [0]
    S2 = MultiGraph(2, [(0, 1, 2), (0, 1, 2)])
    assert match_subgraph_edges(G, S2) == [0, 1]


def test_match_subgraph_edges_rejects_foreign_edge():
    G = MultiGraph(2, [(0, 1, 2)])
    S = MultiGraph(2, [(0, 1, 3)])
    with pytest.raises(ValueError):
        match_subgraph_edges(G, S)


# --------------------------------------------------- error paths, pinned
# Line numbers and messages below are the line-by-line parser's; a parser
# that reads the edge lines as arrays must report exactly the same ones.

def _big_file(m: int = 12_000, n: int = 50) -> list[str]:
    """A valid graph file as lines: a comment, the header, three capacity
    lines and ``m`` edge lines, so edge ``k`` sits on line ``k + 6``."""
    lines = ["# generated for the error-path tests", f"g {n} {m} 3",
             "b 0 2", "b 1 3", "b 7 2"]
    lines += [f"e {k % 25} {25 + k % 25} {1 + k % 3}" for k in range(m)]
    return lines


def _parse_error(lines: list[str]) -> GraphFormatError:
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("\n".join(lines) + "\n")
    return exc.value


def test_big_file_parses():
    G, b = parse_graph("\n".join(_big_file()) + "\n")
    assert (G.n, G.m, G.W) == (50, 12_000, 3)
    assert [b[0], b[1], b[2], b[7]] == [2, 3, 1, 2]
    assert G.u.tolist() == [k % 25 for k in range(12_000)]
    assert G.v.tolist() == [25 + k % 25 for k in range(12_000)]
    assert G.w.tolist() == [1 + k % 3 for k in range(12_000)]


@pytest.mark.parametrize("bad, line_no, message", [
    ("e 3 x 1", 11_006, "non-integer field in 'e 3 x 1'"),
    ("e 3 4", 11_006, "edge line needs: e <u> <v> <w>"),
    ("e 3 4 1 9", 11_006, "edge line needs: e <u> <v> <w>"),
    ("e 3 4 1 # trailing comment", 11_006, "non-integer field in 'e 3 4 1 # trailing comment'"),
    ("e 3 4 1.0", 11_006, "non-integer field in 'e 3 4 1.0'"),
    ("f 3 4 1", 11_006, "unknown record type 'f'"),
    ("ee 3 4 1", 11_006, "unknown record type 'ee'"),
    ("g 50 12000 3", 11_006, "duplicate header"),
])
def test_malformed_edge_line_deep_in_a_big_file(bad, line_no, message):
    lines = _big_file()
    lines[line_no - 1] = bad
    err = _parse_error(lines)
    assert (err.line_no, str(err)) == (line_no, f"line {line_no}: {message}")


@pytest.mark.parametrize("text, line_no, message", [
    ("g 3 1 2\ne 0 1 two\n", 2, "non-integer field in 'e 0 1 two'"),
    ("g 3 1 2\ne 0 1 2.5\n", 2, "non-integer field in 'e 0 1 2.5'"),
    ("g 3 x 2\n", 1, "non-integer field in 'g 3 x 2'"),
    ("g 3 1 2\nb 0 z\ne 0 1 2\n", 2, "non-integer field in 'b 0 z'"),
    ("g 3 1 2\ne 0 1\n", 2, "edge line needs: e <u> <v> <w>"),
    ("g 3 1 2\n\n# c\ne 0 1 2 2\n", 4, "edge line needs: e <u> <v> <w>"),
    ("g 3 1\n", 1, "header needs exactly: g <n> <m> <W>"),
    ("g 3 1 2\nb 0\n", 2, "capacity line needs: b <v> <b_v>"),
    ("g 3 1 2\ne 0 1 2\ne 1", 3, "edge line needs: e <u> <v> <w>"),
])
def test_field_errors(text, line_no, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert (exc.value.line_no, str(exc.value)) == (line_no, f"line {line_no}: {message}")


@pytest.mark.parametrize("edit, message", [
    ((9_000, "e 3 50 1"), "edge 8994: endpoint out of range"),
    ((9_000, "e -1 30 1"), "edge 8994: endpoint out of range"),
    ((9_000, "e 30 30 1"), "edge 8994: self-loops are not allowed"),
    ((9_000, "e 3 99 99"), "edge 8994: endpoint out of range"),
    ((9_000, "e 3 30 4"), "edge 8994: weight 4 outside [1, 3]"),
    ((9_000, "e 3 30 0"), "edge 8994: weight 0 outside [1, 3]"),
    ((9_000, "e 3 30 99999999999999999999999"),
     "edge 8994: weight 99999999999999999999999 outside [1, 3]"),
    ((9_000, "e 3 99999999999999999999999 2"), "edge 8994: endpoint out of range"),
])
def test_edge_value_errors_name_the_first_bad_edge(edit, message):
    lines = _big_file()
    line_no, bad = edit
    lines[line_no - 1] = bad
    lines[11_000] = "e 3 30 7"  # a later bad edge is not the one reported
    err = _parse_error(lines)
    assert (err.line_no, str(err)) == (1, f"line 1: {message}")


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "header declares m=12000 but file has 11999 edge lines"),
    (lambda lines: lines + ["e 0 25 1"], "header declares m=12000 but file has 12001 edge lines"),
    (lambda lines: lines[:1] + ["g 50 0 3"] + lines[2:],
     "header declares m=0 but file has 12000 edge lines"),
    # more and fewer lines than declared, by more than one chunk of text
    (lambda lines: lines[:1] + ["g 50 2000 3"] + lines[2:],
     "header declares m=2000 but file has 12000 edge lines"),
    (lambda lines: lines[:1] + ["g 50 30000 3"] + lines[2:],
     "header declares m=30000 but file has 12000 edge lines"),
    (lambda lines: lines[:1] + ["g 50 10000000000000 3"] + lines[2:],
     "header declares m=10000000000000 but file has 12000 edge lines"),
])
def test_edge_count_mismatch(edit, message):
    err = _parse_error(edit(_big_file()))
    assert (err.line_no, str(err)) == (1, f"line 1: {message}")


@pytest.mark.parametrize("text, message", [
    ("g 3 10000000000000 1\ne 0 1 1\n",
     "header declares m=10000000000000 but file has 1 edge lines"),
    ("g 3 -1 1\ne 0 1 1\n", "header declares m=-1 but file has 1 edge lines"),
])
def test_header_m_sizes_nothing(text, message):
    # the edge columns are sized from the text, so a huge m is no
    # MemoryError but the count error
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert (exc.value.line_no, str(exc.value)) == (1, f"line 1: {message}")


@pytest.mark.parametrize("text, line_no", [
    ("g 99999999999999999999 0 1\n", 1),
    ("# n one past the limit\ng 2147483648 0 1\n", 2),
])
def test_header_n_past_the_vertex_limit_fails_at_once(text, line_no):
    # nothing is sized by such an n: the header's own line reports it
    n = text.split()[-3]
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert (exc.value.line_no, str(exc.value)) == (
        line_no, f"line {line_no}: vertex count {n} exceeds 2147483647")


def test_large_n_without_edges_reads():
    G, b = parse_graph("g 1000000 0 1\nb 999999 3\n")
    assert (G.n, G.m, len(b), b[999_999], b[0]) == (1_000_000, 0, 1_000_000, 3, 1)


def test_missing_header_and_bad_header_values():
    for text, message in [("", "missing header line 'g <n> <m> <W>'"),
                          ("# only a comment\n", "missing header line 'g <n> <m> <W>'"),
                          ("g -1 0 1\n", "vertex count must be non-negative"),
                          ("g 2 1 0\ne 0 1 1\n", "weight cap W must be at least 1")]:
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert (exc.value.line_no, str(exc.value)) == (1, f"line 1: {message}")


@pytest.mark.parametrize("text", [
    "g 3 2 2\ne 0 1 2\n# comment between edges\ne 1 2 1\n",
    "g 3 2 2\ne 0 1 2\n\n   \ne 1 2 1",
    "g 3 2 2\ne 0 1 2\nb 2 4\ne 1 2 1\n",
    "g 3 2 2\r\ne 0 1 2\r\ne 1 2 1\r\n",
    "g 3 2 2\n  e\t0  1 2  \ne 1 2 +1\n",
    "g 3 2 2\ne 0 1 0_2\ne 1 2 001\n",
    "  # comment\n\ng 3 2 2\nb 2 4\ne 0 1 2\ne 1 2 1\n",
])
def test_unusual_but_valid_layouts(text):
    G, b = parse_graph(text)
    assert triples(G) == [(0, 1, 2), (1, 2, 1)]
    assert b[2] == (4 if "b 2 4" in text else 1)


def _write_file(path, text: str) -> str:
    """Write ``text`` byte for byte (no newline translation) and return the path."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


class TestReadGraphFromAFile:
    """The error-path and layout cases above, through ``read_graph(path)``
    on a file that holds the same bytes, which reads the text once and
    parses it as ``parse_graph`` does."""

    @pytest.fixture(autouse=True)
    def _from_a_file(self, tmp_path, monkeypatch):
        def parse(text):
            return read_graph(_write_file(tmp_path / "g.txt", text))
        monkeypatch.setattr(sys.modules[__name__], "parse_graph", parse)

    test_malformed_edge_line_deep_in_a_big_file = staticmethod(
        test_malformed_edge_line_deep_in_a_big_file)
    test_field_errors = staticmethod(test_field_errors)
    test_edge_value_errors_name_the_first_bad_edge = staticmethod(
        test_edge_value_errors_name_the_first_bad_edge)
    test_edge_count_mismatch = staticmethod(test_edge_count_mismatch)
    test_header_m_sizes_nothing = staticmethod(test_header_m_sizes_nothing)
    test_unusual_but_valid_layouts = staticmethod(test_unusual_but_valid_layouts)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_file_with_a_compressed_name(tmp_path, suffix):
    # a compressed file's name does not change how the plain text is read
    text = "\n".join(_big_file(m=300)) + "\n"
    G, b = read_graph(_write_file(tmp_path / f"g.txt{suffix}", text))
    G0, b0 = parse_graph(text)
    assert triples(G) == triples(G0) and b == b0


def test_read_graph_takes_a_path_object(tmp_path):
    text = "\n".join(_big_file(m=300)) + "\n"
    path = tmp_path / "g.txt"
    _write_file(path, text)
    G, b = read_graph(path)
    G0, b0 = read_graph(str(path))
    assert triples(G) == triples(G0) and b == b0
    assert (G.n, G.W) == (G0.n, G0.W)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_graph_from_a_pipe():
    # a pipe can be read once, so its edge lines must not be read again by name
    text = "\n".join(_big_file(m=300)) + "\n"
    r, w = os.pipe()
    try:
        os.write(w, text.encode())
        os.close(w)
        G, b = read_graph(f"/dev/fd/{r}")
    finally:
        os.close(r)
    G0, b0 = parse_graph(text)
    assert triples(G) == triples(G0) and b == b0


# ------------------------------------------- the writer's layout, as arrays
# ``read_graph`` reads the edge lines that ``format_graph`` writes with
# array steps and sends any other text to the line parser; both routes
# must give the same columns, dtypes and errors.

#: Each side of a new digit, and the largest value read as an array.
_WIDTH_EDGES = [0, 1, 9, 10, 99, 100, 10**17 - 1, 10**17, 10**18 - 1]


def _writer_text(seed: int, m: int, n: int = 10**18, W: int = 10**18 - 1) -> str:
    """A graph file from ``format_graph`` whose ``m`` edges have fields of
    1 to 18 digits (fewer where ``n`` or ``W`` cap them), the width edges
    first.  Its header's n is too large to build capacities for, so the
    edge lines are compared as columns."""
    rng = np.random.default_rng(seed)
    cols = []
    for top in (n - 1, n - 1, W):
        digits = rng.integers(1, len(str(top)) + 1, m)
        low = np.where(digits == 1, 0, 10 ** (digits - 1))
        col = np.minimum(rng.integers(low, 10**digits), top)
        ends = [x for x in _WIDTH_EDGES if x <= top]
        col[:len(ends)] = ends[:m]
        cols.append(col)
    u, v, w = cols
    v = np.where(u == v, (v + 1) % n, v)
    w = np.maximum(w, 1)
    return format_graph(MultiGraph.from_columns(n, u, v, w, W=W))


def _line_parser_columns(lines: str) -> list:
    """The line parser's edge columns of edge lines, as dtype and values."""
    state = graph_io._ParseState()
    state.header = (0, 0, 1)
    for line_no, line in enumerate(lines.split("\n"), 1):
        state.parse(line_no, line)
    return [(col.dtype, col.tolist()) for col in graph_io._triple_columns(state.triples)]


def _array_columns(lines: str, m: int) -> list | None:
    """The array path's edge columns of edge lines, as dtype and values, or
    None when it declines them."""
    columns = graph_io._edge_columns(lines, 0, m)
    return None if columns is None else [(col.dtype, col.tolist()) for col in columns]


@pytest.mark.parametrize("seed, m", [(0, 1), (1, 2), (2, 9), (3, 1_000), (4, 8_000)])
def test_array_path_matches_the_line_parser(seed, m):
    lines = _writer_text(seed, m).split("\n", 1)[1]
    expected = _line_parser_columns(lines)
    assert expected[0][0] == np.int64
    assert _array_columns(lines, m) == expected
    assert _array_columns(lines.rstrip("\n"), m) == expected  # no final newline
    assert _array_columns(lines, m - 1) is None  # more lines than m


def test_array_path_reads_leading_zeros():
    lines = "e 007 1 2\ne 000000000000000001 0 000000000000000000\ne 0 00 9\n"
    assert _array_columns(lines, 3) == _line_parser_columns(lines)
    assert _array_columns(lines, 3)[0][1] == [7, 1, 0]


def test_array_path_cuts_chunks_at_every_line_offset(monkeypatch):
    # lines of 8 to 23 characters; over these chunk sizes, some chunk's
    # window ends at each offset of a line of each length
    lines = _writer_text(8, 600, n=10**6, W=10**5).split("\n", 1)[1]
    expected = _line_parser_columns(lines)
    longest = max(map(len, lines.split("\n"))) + 1
    for chunk in range(longest, 2 * longest + 1):
        monkeypatch.setattr(graph_io, "_CHUNK", chunk)
        assert _array_columns(lines, 600) == expected
    monkeypatch.setattr(graph_io, "_CHUNK", longest - 1)
    assert _array_columns(lines, 600) is None  # a line longer than a chunk


@pytest.mark.parametrize("value", [10**18, 2**63 - 1, 10**22 + 7])
def test_array_path_declines_over_18_digits(value):
    lines = f"e 0 1 2\ne 3 4 {value}\ne {value} 5 6\n"
    assert _array_columns(lines, 3) is None
    expected = _line_parser_columns(lines)
    assert expected[2][1] == [2, value, 6]
    assert expected[2][0] == (np.int64 if value < 2**63 else object)


def _outcome(text: str):
    """What ``parse_graph`` makes of ``text``: the graph's fields and
    columns with their dtypes, or its error."""
    try:
        G, b = parse_graph(text)
    except GraphFormatError as exc:
        return exc.line_no, str(exc)
    return (G.n, G.W, list(b), [(col.dtype, col.tolist()) for col in (G.u, G.v, G.w)])


def _both_routes(monkeypatch, text: str):
    """``parse_graph``'s outcome on ``text``, whether the array path gave
    the edge columns each time it was tried, and the outcome with the
    array path turned off, which is the line parser's."""
    real = graph_io._edge_columns
    gave = []

    def spy(*args):
        columns = real(*args)
        gave.append(columns is not None)
        return columns
    monkeypatch.setattr(graph_io, "_edge_columns", spy)
    outcome = _outcome(text)
    monkeypatch.setattr(graph_io, "_edge_columns", lambda *args: None)
    line_parsed = _outcome(text)
    monkeypatch.setattr(graph_io, "_edge_columns", real)
    return outcome, gave, line_parsed


@pytest.mark.parametrize("seed, m", [(6, 1), (7, 3_000)])
def test_writer_files_take_the_array_path(monkeypatch, seed, m):
    G, b = make_random(seed, n=2000, m=m, W=10**18 - 1, b_max=3)
    text = format_graph(G, b)
    outcome, gave, line_parsed = _both_routes(monkeypatch, text)
    assert gave == [True]
    assert outcome == line_parsed
    assert outcome[3] == [(col.dtype, col.tolist()) for col in (G.u, G.v, G.w)]


def test_a_file_without_edge_lines_never_tries_arrays(monkeypatch):
    outcome, gave, line_parsed = _both_routes(monkeypatch, "g 5 0 3\nb 1 2\n")
    assert gave == [] and outcome == line_parsed
    assert outcome[:3] == (5, 3, [1, 2, 1, 1, 1])


@pytest.mark.parametrize("odd", [
    "e 3\t30 1", "e 3  30 1", " e 3 30 1", "e 3 30 1 ", "", "# a comment", "e 3 30 +1",
    "e 3 30 1\r", "e 3 30 \u0661", "e 3 30 1_0", "b 3 2", "e 3 30", "e 3 30 x",
    "e 3 30 0000000000000000001", "e 3 30 10000000000000000000000",
    "e 3 30 \x0be 3 30 1", "e 3 30 1\x0ce 3 30 1", "e 3 30 1\x1c", "e\x00 3 30 1",
])
def test_any_other_line_sends_the_edge_block_to_the_line_parser(monkeypatch, odd):
    lines = _big_file(m=20_000)
    lines[12_000] = odd  # in mid-file, chunks after the first
    outcome, gave, line_parsed = _both_routes(monkeypatch, "\n".join(lines) + "\n")
    assert gave == [False]
    assert outcome == line_parsed


@pytest.mark.parametrize("bad", ["e 3 99 1", "e 30 30 1", "e 3 30 0", "e 3 30 4"])
def test_bad_values_in_the_writer_layout_fail_alike(monkeypatch, bad):
    lines = _big_file(m=20_000)
    lines[12_000] = bad
    outcome, gave, line_parsed = _both_routes(monkeypatch, "\n".join(lines) + "\n")
    assert gave == [True]
    assert outcome == line_parsed and outcome[0] == 1


# ------------------------------------------------------------ the writer

def _format_reference(G: MultiGraph, b: Capacities | None = None) -> str:
    """The writer as one ``str.format`` call per edge line."""
    out = [f"g {G.n} {G.m} {G.W}\n"]
    if b is not None:
        out += [f"b {v} {b[v]}\n" for v in range(G.n) if b[v] != 1]
    out += map("e {} {} {}\n".format, G.u.tolist(), G.v.tolist(), G.w.tolist())
    return "".join(out)


@pytest.mark.parametrize("n, W, dtype", [
    (100, 3, np.int8),
    (30_000, 20_000, np.int16),
    (100_000, 2**31 - 1, np.int32),
    (50, 2**70, object),
])
def test_format_graph_matches_the_reference(n, W, dtype):
    rng = np.random.default_rng(n)
    m = 3_000
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n
    w = rng.integers(1, min(W, 2**62), m, endpoint=True).astype(object)
    # each side of a new digit, and the cap
    ends = [x for x in (1, 9, 10, 99, 100, 10**20, W - 1, W) if x <= W]
    w[:len(ends)] = ends
    G = MultiGraph.from_columns(n, u, v, w, W=W)
    assert G.w.dtype == dtype
    b = Capacities([1 + x % 3 for x in range(n)])
    for caps in (None, b):
        assert format_graph(G, caps) == _format_reference(G, caps)


def test_format_graph_edge_cases():
    for G, b in [(MultiGraph(3, []), None), (MultiGraph(3, []), Capacities([2, 1, 1])),
                 (MultiGraph(1, []), Capacities([5])),
                 (MultiGraph(11, [(0, 10, 1), (9, 10, 1)]), None)]:
        assert format_graph(G, b) == _format_reference(G, b)
    top = np.iinfo(np.int64).max  # 19 digits in every column
    G = MultiGraph.from_columns(top, [0, 9, top - 1], [top - 1, 10, 1], [top, 1, 10], W=top)
    assert G.u.dtype == G.w.dtype == np.int64
    assert format_graph(G) == _format_reference(G)


def test_format_graph_peak_memory():
    # traced peak at m=2e5 (n=100, W=3): 9.9 MB, against 18.2 MB for the
    # reference writer's strings
    rng = np.random.default_rng(7)
    m = 200_000
    u = rng.integers(0, 50, m)
    G = MultiGraph.from_columns(100, u, u + 50, rng.integers(1, 4, m), W=3)
    peaks = []
    for writer in (format_graph, _format_reference):
        tracemalloc.start()
        writer(G)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= peaks[1]
