"""Traced-memory bounds for ``random_instance`` at three benchmark shapes,
and for the graph constructor it ends with.

Each bound sits between two measurements taken with numpy 2.4 and noted
at the test: the peak of the generator the package first shipped (every
vertex pair's ends, an int64 running slot count and ``permutation`` over
every slot, one 2m-long int64 draw for raw multiplicities), and that of
the chunked draws that replaced it.  A bound fails when an all-pairs
endpoint array, an int64 slot array or an m-length int64 draw comes back.
"""

from __future__ import annotations

import numpy as np

from wedcs import GenSpec, MultiGraph, random_instance

from helpers import traced_peak

MB = 2**20


def test_capped_bipartite_peak():
    # the stream-fallback and offline-build shape: 26.4 MB with the pair
    # ends and the int64 slots, 13.2 MB with int32 slot counts and slots
    spec = GenSpec(seed=7, n=2000, m=50_000, W=3, b_max=4, bipartite=True)
    assert traced_peak(lambda: random_instance(spec)) < 16 * MB


def test_raw_multiplicities_peak():
    # the stream-multiplicity shape: 9.2 MB with the 4e5-long int64 draw,
    # 4.6 MB drawing a chunk at a time
    spec = GenSpec(seed=7, n=100, m=200_000, W=3, b_max=3, bipartite=True,
                   allow_parallel=True)
    assert traced_peak(lambda: random_instance(spec)) < 7 * MB


def test_raw_multiplicities_at_ten_million_edges_peak():
    # 473 MB with the 2e7-long int64 draw and the pairs' ends, 125 MB
    # drawing a chunk at a time (the returned columns and their checks)
    spec = GenSpec(seed=7, n=4000, m=10_000_000, W=1, b_max=4, bipartite=True,
                   allow_parallel=True)
    assert traced_peak(lambda: random_instance(spec)) < 200 * MB


def test_from_columns_at_ten_million_edges_peak():
    # 76.3 MB with four m-long bool masks for the checks, 47.7 MB testing
    # them with reductions first (the narrow copies of the columns)
    rng = np.random.Generator(np.random.PCG64(7))
    u = rng.integers(0, 2000, size=10_000_000, dtype=np.int16)
    v = u + 2000
    w = np.ones(len(u), dtype=np.int8)
    assert traced_peak(lambda: MultiGraph.from_columns(4000, u, v, w, W=1)) < 60 * MB
