"""The stream pass's order, phase-2 mask and relevant-store series, pinned
to independent references.

The order is pinned to ``helpers.scalar_fisher_yates``, a pure-Python
Fisher-Yates draw over PCG64's raw words that shares no code with numpy's
``Generator``.  ``reference_store_sizes`` and ``reference_phase2_keep``
are the per-edge and per-position forms the package first shipped, kept
verbatim, with the per-edge ``_pair_limits`` they used and a chunk size
of their own (so monkeypatching the package's does not reach them).
Every test here asserts that the package's code gives exactly their
output: the same order, the same mask, the same store size after every
position and the same survival, and through ``_two_phase_pass`` the same
H, X, stats and peak as the edge-at-a-time reference run.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import helpers
import wedcs.streaming as streaming
from wedcs import Capacities, EdcsParams, MultiGraph, Subgraph, relevant_subgraph
from wedcs.edcs import _degree_terms
from wedcs.graph import _int_type, _rank_in_runs
from wedcs.streaming import PRNG_ID, _order_type, make_stream

from helpers import ScalarRelevantStore, make_random, scalar_stream_run

_CHUNK = 1 << 15


def _pair_limits(G: MultiGraph, b: Capacities) -> np.ndarray:
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    caps = np.asarray(b.b, dtype=_int_type(max(b.b, default=1)))
    return np.minimum(caps[G.u], caps[G.v])


def reference_store_sizes(G: MultiGraph, b: Capacities, order: np.ndarray,
                          cap: float) -> tuple[np.ndarray, bool]:
    m = len(order)
    sizes = np.zeros(m, dtype=np.int32)
    if cap < 1:
        return sizes, False
    limit = _pair_limits(G, b)
    seen = np.zeros(int(G.pair.max()) + 1 if m else 0, dtype=np.int64)
    size = 0
    for lo in range(0, m, _CHUNK):
        ids = order[lo:lo + _CHUNK]
        pair = G.pair[ids]
        # rank of each arrival among its pair's arrivals so far
        by = np.argsort(pair, kind="stable")
        rank = np.empty(len(ids), dtype=np.int64)
        rank[by] = _rank_in_runs(pair[by])
        rank += seen[pair]
        np.add.at(seen, pair, 1)
        run = size + np.cumsum(rank < limit[ids])
        full = np.flatnonzero(run >= cap)
        if full.size:
            sizes[lo:lo + full[0]] = run[:full[0]]
            return sizes, False
        sizes[lo:lo + len(ids)] = run
        size = int(run[-1])
    return sizes, True


def reference_phase2_keep(G: MultiGraph, b: Capacities, H: Subgraph, params: EdcsParams,
                          collect_all: bool) -> np.ndarray:
    m = G.m
    if collect_all:
        return np.ones(m, dtype=bool)
    pair = G.pair
    beta_minus = params.beta_minus
    terms = _degree_terms(H.wdeg, b, beta_minus * params.W)
    # per pair id: the lightest weight H holds at a full pair, else 0
    held = H.members
    held_pair = pair[held]
    caps = np.asarray(b.b)
    full = np.bincount(held_pair)[held_pair] >= np.minimum(caps[G.u[held]], caps[G.v[held]])
    held_pair, held_w = held_pair[full], G.w[held[full]]
    full_lightest = np.zeros(int(pair.max()) + 1, dtype=G.w.dtype)
    full_lightest[held_pair] = held_w  # some held weight, lowered to the lightest next
    np.minimum.at(full_lightest, held_pair, held_w)
    keep = np.empty(m, dtype=bool)
    for lo in range(0, m, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        w = G.w[part]
        lhs, scaled = terms(G.u[part], G.v[part], w)
        lightest = full_lightest[pair[part]]
        keep[part] = np.where(lightest > 0, lightest < w,
                              np.asarray(lhs < scaled * beta_minus, dtype=bool))
    return keep


def store_series(G: MultiGraph, b: Capacities, order: np.ndarray,
                 cap: float) -> tuple[list[int], bool]:
    """The package's store size after every position, and survival."""
    store = streaming._RelevantStore(G, b, order, cap)
    return [store.size_at(k) for k in range(len(order))], store.alive


def _graph(m: int) -> MultiGraph:
    return MultiGraph.from_columns(2, np.zeros(m, dtype=np.int8), np.ones(m, dtype=np.int8),
                                   np.ones(m, dtype=np.int8))


def _raw_instance(seed: int, W: int, b_max: int, n: int = 9, m: int = 600):
    """A raw-multiplicity graph with weights up to ``W`` (Python integers
    beyond int64) and capacities in [1, b_max]."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n
    # weights in [1, 8] and, under a larger cap, in [W - 7, W] too
    w = [x if low else W + 1 - x for x, low in
         zip(rng.integers(1, min(W, 8) + 1, m).tolist(), rng.random(m) < 0.5)]
    G = MultiGraph.from_columns(n, u, v, w, W=W)
    return G, Capacities(rng.integers(1, b_max + 1, n).tolist())


# ------------------------------------------------------------- make_stream

@pytest.mark.parametrize("chunk", [5, 1 << 15])
def test_make_stream_matches_reference(monkeypatch, chunk):
    # the order does not depend on the pass's chunk size
    monkeypatch.setattr(streaming, "_CHUNK", chunk)
    for m in (0, 1, 2, 3, 4, 5, 6, 17, 100, 1000, (1 << 15) + 3):
        G = _graph(m)
        for seed in range(4 if m < 2000 else 1):
            got = make_stream(G, seed)
            assert got.order.dtype == _order_type(m) and got.prng == PRNG_ID
            assert tuple(got.order.tolist()) == helpers.scalar_fisher_yates(m, seed), (m, seed)


def test_make_stream_matches_reference_beyond_two_chunks():
    G = _graph(70_001)
    for seed in (0, 7, 2**40):
        assert tuple(make_stream(G, seed).order.tolist()) == \
            helpers.scalar_fisher_yates(G.m, seed)


# ------------------------------------------------------------ phase 2 mask

@pytest.mark.parametrize("W", [1, 3, 127, 2**70])
@pytest.mark.parametrize("beta_minus", [0, 1, 10])
def test_phase2_keep_matches_reference(W, beta_minus):
    params = EdcsParams(W=W, beta=beta_minus + 3, beta_minus=beta_minus)
    for seed in range(6):
        G, b = _raw_instance(seed, W, b_max=1 + seed % 8)
        rng = np.random.default_rng(100 + seed)
        for share in (0.0, 0.05, 0.3, 1.0):
            H = Subgraph(G, np.flatnonzero(rng.random(G.m) < share))
            got = streaming._phase2_keep(G, b, H, params)
            want = reference_phase2_keep(G, b, H, params, False)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), (seed, share)


def test_phase2_keep_matches_reference_on_variant3_full_pairs():
    # raw multiplicities: phase 1 of variant 3 leaves pairs in H that hold
    # min(b_u, b_v) copies, whose later copies face the lightest held one
    light_full = 0
    params = EdcsParams(W=2, beta=3, beta_minus=1)
    for seed in range(6):
        G, b = make_random(seed, n=6, m=8000, W=2, b_max=4, bipartite=True, allow_parallel=True)
        H = streaming._two_phase_pass(make_stream(G, seed), b, params, Fraction(49, 100), 3,
                                      False, None)[0]
        held = H.members
        full = np.bincount(G.pair[held])[G.pair[held]] >= _pair_limits(G, b)[held]
        light_full += int((G.w[held[full]] == 1).sum())
        want = reference_phase2_keep(G, b, H, params, False)
        assert streaming._phase2_keep(G, b, H, params).tolist() == want.tolist()
    assert light_full > 0


# ---------------------------------------------------------- relevant store

def _store_case(seed: int, beta_minus: int = 1):
    G, b = make_random(seed, n=10, m=3000, W=1, b_min=6, b_max=8, bipartite=True,
                       allow_parallel=True)
    return G, b, EdcsParams(W=1, beta=3, beta_minus=beta_minus), make_stream(G, seed)


def _caps(G, b, order, pos):
    """0.5, 1, a cap the store reaches in phase 1 (which reads ``pos``
    positions), one it reaches in phase 2, and one it never reaches."""
    sizes, _ = reference_store_sizes(G, b, order, 10**9)
    final = len(relevant_subgraph(G, b))
    assert 2 < int(sizes[pos - 1]) < final
    return {"half": 0.5, "one": 1, "phase 1": int(sizes[pos - 1]) - 1,
            "phase 2": final, "survives": final + 0.5}


@pytest.mark.parametrize("chunk", [4, 64, 1 << 15])
def test_store_series_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(streaming, "_CHUNK", chunk)
    for seed in range(3):
        G, b, params, stream = _store_case(seed)
        pos = streaming._two_phase_pass(stream, b, params, Fraction(49, 100), 3, False,
                                         None)[2].phase1_edges_consumed
        for name, cap in _caps(G, b, stream.order, pos).items():
            sizes, alive = reference_store_sizes(G, b, stream.order, cap)
            assert store_series(G, b, stream.order, cap) == (sizes.tolist(), alive), name


def _pass_matches_reference(monkeypatch, stream, b, params, cap) -> bool:
    """Runs ``_two_phase_pass`` with its store at ``cap`` against the
    edge-at-a-time run with its store at that cap; returns whether the
    store survived."""
    monkeypatch.setattr(helpers, "ScalarRelevantStore",
                        lambda G, b, _: ScalarRelevantStore(G, b, cap))
    want = scalar_stream_run(stream, b, params, "0.49", variant=3, with_store=True)
    G, eps = stream.graph, Fraction(49, 100)
    H, X, stats, alive = streaming._two_phase_pass(stream, b, params, eps, 3, False, cap)
    assert alive == (want.stats.fallback_used == "small_output")
    stats.fallback_used = want.stats.fallback_used
    stats.result_weight = want.stats.result_weight
    assert stats == want.stats
    assert H.edge_ids() == want.H.edge_ids()
    rest = stream.order[stats.phase1_edges_consumed:]
    collect_all = stats.fallback_used == "alpha_zero"
    assert X.tolist() == rest[reference_phase2_keep(G, b, H, params, collect_all)[rest]].tolist()
    assert sorted(X.tolist()) == sorted(want.X.tolist())
    return alive


@pytest.mark.parametrize("chunk", [4, 1 << 15])
def test_two_phase_pass_matches_reference_at_every_cap(monkeypatch, chunk):
    # phase 1 reads past the first chunk of 4 positions; the store dies at
    # once, in phase 1, in phase 2, or survives, and H, X, the stats and
    # the peak match the edge-at-a-time run with its store at that cap
    # (with beta_minus = 0, X is empty and the store alone sets the peak)
    monkeypatch.setattr(streaming, "_CHUNK", chunk)
    ends = set()
    for seed, beta_minus in ((0, 1), (1, 1), (0, 0)):
        G, b, params, stream = _store_case(seed, beta_minus)
        pos = streaming._two_phase_pass(stream, b, params, Fraction(49, 100), 3, False,
                                        None)[2].phase1_edges_consumed
        assert pos > chunk or chunk > 4 or beta_minus == 0
        for name, cap in _caps(G, b, stream.order, pos).items():
            ends.add((name, _pass_matches_reference(monkeypatch, stream, b, params, cap)))
    assert ends == {("half", False), ("one", False), ("phase 1", False), ("phase 2", False),
                    ("survives", True)}


@pytest.mark.parametrize("chunk", [4, 1 << 15])
def test_two_phase_pass_matches_reference_under_alpha_zero(monkeypatch, chunk):
    # phase 2 starts at position 0, where a store capped at 1 dies at once;
    # phase 1 reads no edge, so the pass never enters it
    monkeypatch.setattr(streaming, "_CHUNK", chunk)
    monkeypatch.setattr(streaming, "_phase1", None)
    G, b = make_random(2, n=10, m=600, W=3, b_max=4, bipartite=True, allow_parallel=True)
    params = EdcsParams(W=3, beta=3, beta_minus=1)
    stream = make_stream(G, 2)
    stats = streaming._two_phase_pass(stream, b, params, Fraction(49, 100), 3, False, None)[2]
    assert stats.fallback_used == "alpha_zero"
    final = len(relevant_subgraph(G, b))
    alive = [_pass_matches_reference(monkeypatch, stream, b, params, cap)
             for cap in (0.5, 1, 2, final // 2, final, final + 1)]
    assert alive == [False] * 5 + [True]
