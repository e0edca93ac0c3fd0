"""Traced-memory bounds for graph construction, reading its file and the
stream pass on a 2e5-edge raw-multiplicity graph (n=100, W=3, b <= 3, the
stream-multiplicity shape), for what a solved graph keeps, and for the
offline build on the offline-build shape.

Each bound sits between two measurements taken with numpy 2.4 and noted
at the test: the peak of the per-edge and per-position forms the package
first shipped, and that of the per-pair forms that replaced them.  A bound
fails when an m-length int64 temporary (1.6 MB here) comes back.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np

import wedcs.streaming as streaming
from wedcs import (Capacities, EdcsParams, GenSpec, MultiGraph, build_wb_edcs, make_stream,
                   max_weight_b_matching_exact, random_instance, read_graph, write_graph)

from helpers import make_random, traced_peak

MB = 2**20


def _graph() -> tuple[MultiGraph, Capacities]:
    rng = np.random.default_rng(5)
    m, n = 200_000, 100
    u, v = rng.integers(0, 50, m), rng.integers(50, 100, m)
    G = MultiGraph.from_columns(n, u, v, rng.integers(1, 4, m), W=3)
    return G, Capacities(rng.integers(1, 4, n).tolist())


def test_first_pair_numbering_peak():
    # 4.77 MB per edge (int64 keys), 3.05 MB with int32 keys and pair ends,
    # 3.06 MB with the packed int64 key that also ranks each pair's edges
    G, _ = _graph()
    assert traced_peak(lambda: G.pair) < 3.9 * MB


def test_first_relevant_ids_peak():
    # 3.82 MB with the lexsort by (pair, -w) over the numbered pairs,
    # 0.38 MB reading the ranks that come with the numbering
    from wedcs.graph import _relevant_ids

    G, b = _graph()
    G.pair
    assert traced_peak(lambda: _relevant_ids(G, b)) < 1.0 * MB


def test_make_stream_peak():
    # 5.53 MB with the swaps resolved in sorted space, 2.29 MB with numpy's
    # permutation narrowed to int32
    G, _ = _graph()
    assert traced_peak(lambda: make_stream(G, 3)) < 3.2 * MB


def test_two_phase_pass_with_surviving_store_peak():
    # 2.60 MB with the per-edge mask and the m-length store series,
    # 1.56 MB with per-pair thresholds and the store read for phase 1 only
    G, b = _graph()
    stream = make_stream(G, 3)
    G.pair
    params = EdcsParams(W=3, beta=3, beta_minus=1)
    out = []
    peak = traced_peak(lambda: out.append(streaming._two_phase_pass(
        stream, b, params, Fraction(49, 100), 3, False, 10**9)))
    _, X, stats, alive = out[0]
    assert alive and stats.phase1_edges_consumed > 0 and len(X) > 0
    assert peak < 2.1 * MB


def test_graph_construction_peak():
    # 8.78 MB with the CSR adjacency built at construction, 1.15 MB for
    # the narrowed columns alone
    rng = np.random.default_rng(5)
    m, n = 200_000, 100
    u, v, w = rng.integers(0, 50, m), rng.integers(50, 100, m), rng.integers(1, 4, m)
    assert traced_peak(lambda: MultiGraph.from_columns(n, u, v, w, W=3)) < 3 * MB


def test_read_graph_peak(tmp_path):
    # reading the graph's file (bipartite random_instance, b <= 3, 1.96 MB
    # of text): 9.08 MB with np.loadtxt over a copy of the edge lines,
    # 7.38 MB with array steps over 2^16-character chunks
    G, b = make_random(5, n=100, m=200_000, W=3, b_max=3, bipartite=True, allow_parallel=True)
    path = tmp_path / "g.txt"
    write_graph(path, G, b)
    assert traced_peak(lambda: read_graph(path)) < 8 * MB


def test_solved_graph_retains():
    # what G keeps after its exact solve (bipartite, n=4000, m=2e5, raw
    # multiplicities, W=1, b <= 4): 4.77 MB with the relevant ids cached
    # beside the answer, 3.26 MB with the pair numbering, caps and answer
    G, b = make_random(7, n=4000, m=200_000, W=1, b_max=4, bipartite=True, allow_parallel=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        max_weight_b_matching_exact(G, b)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 3.8 * MB


def test_build_peak():
    # the offline-build shape (bipartite random_instance, seed 7, n=2000,
    # m=5e4, W=3, b <= 4, beta 12/10): 9.98 MB with the one-edge loop over
    # Python lists, 4.63 MB with rounds over candidate columns that take
    # the mutual proposals, 4.69 MB with rounds that take the greedy
    # matching, 5.38 MB with prefix sums over each round's pool.  Rounds
    # number 361 with mutual proposals, 130 with greedy matchings and 23
    # with the prefix rule; the round bound, about twice 23, fails if
    # rounds go back to one edge per vertex
    G, b = random_instance(GenSpec(seed=7, n=2000, m=50_000, W=3, b_max=4, bipartite=True))
    G.pair
    params = EdcsParams(W=3, beta=12, beta_minus=10)
    built = []
    assert traced_peak(lambda: built.append(build_wb_edcs(G, b, params))) < 7.5 * MB
    assert built[0][1].rounds <= 50
