import concurrent.futures
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from wedcs import (
    Capacities,
    EdcsParams,
    EdgeStream,
    GenSpec,
    MultiGraph,
    Subgraph,
    build_wb_edcs,
    file_order_stream,
    make_stream,
    max_weight_b_matching_exact,
    random_instance,
    run_single_pass,
    run_with_fallbacks,
    validate,
)
from wedcs.edcs import _Ledger
from wedcs.streaming import StreamInvariantError

from helpers import (
    ScalarRelevantStore,
    _excess,
    make_random,
    pair_count,
    scalar_fisher_yates,
    scalar_stream_run,
    triples,
)

P41 = EdcsParams(W=1, beta=6, beta_minus=4)


# ----------------------------------------------------------------- stream

def test_make_stream_deterministic():
    G, _ = make_random(0, n=20, m=100, W=2)
    s1 = make_stream(G, 7)
    s2 = make_stream(G, 7)
    s3 = make_stream(G, 8)
    assert s1.order.tolist() == s2.order.tolist()
    assert s1.order.tolist() != s3.order.tolist()
    assert s1.prng == "pcg64-permutation"


def test_make_stream_tiny():
    G1 = MultiGraph(2, [(0, 1, 1)])
    assert make_stream(G1, 123).order.tolist() == [0]
    G0 = MultiGraph(3, [])
    assert make_stream(G0, 5).order.tolist() == []


@pytest.mark.parametrize("seed", [5, 2024])
def test_make_stream_matches_scalar_draws_across_chunks(seed):
    # 70,001 edges: draws under masks of every bit length up to 17
    G = MultiGraph(2, [(0, 1, 1)] * 70_001)
    assert tuple(make_stream(G, seed).order.tolist()) == scalar_fisher_yates(G.m, seed)


def test_make_stream_is_not_the_high_half_first_draw():
    # mutation check: the scalar draw that reads each raw word's high half
    # first gives other orders, so the pins below see the word split
    for m in (257, 5000):
        for seed in range(4):
            assert tuple(make_stream(_parallel_edges(m), seed).order.tolist()) != \
                scalar_fisher_yates(m, seed, high_first=True)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 10, 1000])
def test_make_stream_matches_scalar_draws(m):
    G = MultiGraph(2, [(0, 1, 1)] * m)
    for seed in range(5):
        assert tuple(make_stream(G, seed).order.tolist()) == scalar_fisher_yates(m, seed)


def _parallel_edges(m):
    return MultiGraph.from_columns(2, np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64),
                                   np.ones(m, dtype=np.int64), W=1)


def test_make_stream_matches_scalar_swaps_small():
    # every length up to 300: self-swaps and rejections under every mask
    # up to 9 bits
    for m in range(301):
        G = _parallel_edges(m)
        for seed in range(5):
            assert tuple(make_stream(G, seed).order.tolist()) == scalar_fisher_yates(m, seed), m


# lengths at the 2**15 and 2**16 mask edges, two seeds each, and the
# benchmark's stream length
@pytest.mark.parametrize("m, seed", [(m, seed) for m in (2**15 - 1, 2**15, 2**15 + 1, 2**16 + 1)
                                     for seed in (3, 77)] + [(200_000, 8101)])
def test_make_stream_matches_scalar_swaps_large(m, seed):
    assert tuple(make_stream(_parallel_edges(m), seed).order.tolist()) == \
        scalar_fisher_yates(m, seed)


def test_stream_rejects_non_permutation():
    G = MultiGraph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        EdgeStream(G, (0, 0), 1, "x")


@pytest.mark.parametrize("order", [
    (0, 2, 2, 3),       # duplicate id (and a missing one)
    (0, 1, 2, 4),       # id out of range
    (0, 1, -1, 3),      # negative id
    (0, 1, 2),          # too short
    (0, 1, 2, 3, 0),    # too long
    (),                 # empty
    (0, 1, 2, 2**70),   # beyond any integer array
])
def test_stream_rejects_each_kind_of_non_permutation(order):
    G = MultiGraph(2, [(0, 1, 1)] * 4)
    with pytest.raises(ValueError, match="order must be a permutation of all edge ids"):
        EdgeStream(G, order, 1, "x")


def test_stream_accepts_any_permutation():
    G = MultiGraph(2, [(0, 1, 1)] * 4)
    assert EdgeStream(G, (3, 1, 0, 2), 1, "x").m == 4
    assert EdgeStream(MultiGraph(2, []), (), 1, "x").m == 0


def test_file_order_stream():
    G = MultiGraph(3, [(0, 1, 1), (1, 2, 1)])
    s = file_order_stream(G)
    assert s.order.tolist() == [0, 1] and s.prng == "as-is"


# -------------------------------------------------------------- underfull

def _is_underfull(H, b, eid, params) -> bool:
    """The degree rule's sign: E_beta_minus < 0."""
    u, v, w = H.parent.triple(eid)
    return _excess(H.wdeg[u], H.wdeg[v], b[u], b[v], w, params.beta_minus) < 0


def _underfull_direct(H, b, eid, params) -> bool:
    """wdeg(u)/b_u + wdeg(v)/b_v < beta_minus * w, in rationals."""
    u, v, w = H.parent.triple(eid)
    return Fraction(H.wdeg[u], b[u]) + Fraction(H.wdeg[v], b[v]) < params.beta_minus * w


def test_is_underfull_empty_H():
    G = MultiGraph(2, [(0, 1, 1)])
    H = Subgraph(G)
    assert _is_underfull(H, Capacities.uniform(2), 0, P41)


def test_is_underfull_boundary_strict():
    # wdeg(u) = wdeg(v) = beta_minus * w / 2 exactly: not underfull
    G = MultiGraph(4, [(0, 2, 2), (1, 3, 2), (0, 1, 1)])
    H = Subgraph(G, [0, 1])
    params = EdcsParams(W=2, beta=6, beta_minus=4)
    assert _excess(H.wdeg[0], H.wdeg[1], 1, 1, 1, params.beta_minus) == 0
    assert not _is_underfull(H, Capacities.uniform(4), 2, params)


@pytest.mark.parametrize("seed", range(10))
def test_is_underfull_matches_direct_formula(seed):
    G, b = make_random(seed, n=8, m=20, W=3, b_max=3)
    H = Subgraph(G, [eid for eid in range(G.m) if eid % 3 == 0])
    params = EdcsParams(W=3, beta=8, beta_minus=5)
    for eid, (u, v, w) in enumerate(triples(G)):
        over = (Fraction(H.wdeg[u], b[u]) + Fraction(H.wdeg[v], b[v]) > params.beta * w)
        assert (_excess(H.wdeg[u], H.wdeg[v], b[u], b[v], w, params.beta) > 0) == over
        assert _is_underfull(H, b, eid, params) == _underfull_direct(H, b, eid, params)


# ------------------------------------------------------------------- runs

def test_run_empty_stream():
    G = MultiGraph(4, [])
    res = run_single_pass(make_stream(G, 1), Capacities.uniform(4), P41, "0.4")
    assert res.matching.weight == 0
    assert res.stats.peak_stored_edges == 0
    assert res.stats.fallback_used == "none"


def test_run_single_edge_returns_it():
    G = MultiGraph(2, [(0, 1, 1)])
    res = run_single_pass(make_stream(G, 9), Capacities.uniform(2), P41, "0.4")
    assert res.matching.edge_ids == [0] and res.matching.weight == 1


def test_deterministic_replay():
    G, b = make_random(3, n=16, m=60, W=2, b_max=2)
    params = EdcsParams(W=2, beta=6, beta_minus=4)
    r1 = run_single_pass(make_stream(G, 42), b, params, "0.3")
    r2 = run_single_pass(make_stream(G, 42), b, params, "0.3")
    assert r1.H.members == r2.H.members
    assert set(r1.X.tolist()) == set(r2.X.tolist())
    assert r1.matching.edge_ids == r2.matching.edge_ids
    assert r1.stats.to_json_dict() == r2.stats.to_json_dict()


@pytest.mark.parametrize("seed, runner, check_invariants", [
    pytest.param(seed, runner, check, id=f"{seed}{suffix}")
    for seed in range(8)
    for runner, check, suffix in ((run_single_pass, False, ""),
                                  (run_with_fallbacks, False, "-fallbacks"),
                                  (run_single_pass, True, "-checked"),
                                  (run_with_fallbacks, True, "-fallbacks-checked"))])
def test_variants_agree_without_parallel_edges(seed, runner, check_invariants):
    G, b = make_random(seed, n=14, m=50, W=3, b_max=3)
    params = EdcsParams(W=3, beta=8, beta_minus=6)
    r1, r3 = (runner(make_stream(G, seed), b, params, "0.3", variant=variant,
                     check_invariants=check_invariants) for variant in (1, 3))
    assert r1.H.members == r3.H.members
    assert set(r1.X.tolist()) == set(r3.X.tolist())
    assert r1.matching.edge_ids == r3.matching.edge_ids
    d1, d3 = r1.stats.to_json_dict(), r3.stats.to_json_dict()
    d1.pop("variant"), d3.pop("variant")
    assert d1 == d3


@pytest.mark.parametrize("seed, runner, check_invariants", [
    pytest.param(seed, runner, check, id=f"{seed}{suffix}")
    for seed in range(8)
    for runner, check, suffix in ((run_single_pass, False, ""),
                                  (run_with_fallbacks, False, "-fallbacks"),
                                  (run_single_pass, True, "-checked"),
                                  (run_with_fallbacks, True, "-fallbacks-checked"))])
def test_variants_agree_through_phase_1(seed, runner, check_invariants):
    # long enough a stream for a positive interval size: both variants run
    # phase 1 on an uncrowded graph and must agree on everything
    G, b = make_random(seed, n=100, m=1500, W=1, b_max=3, bipartite=True)
    params = EdcsParams(W=1, beta=3, beta_minus=1)
    r1, r3 = (runner(make_stream(G, seed), b, params, "0.3", variant=variant,
                     check_invariants=check_invariants) for variant in (1, 3))
    assert r1.stats.phase1_edges_consumed > 0 and r3.stats.phase1_edges_consumed > 0
    if runner is run_single_pass:
        assert r1.stats.fallback_used == "none"
    assert r1.H.members == r3.H.members
    assert set(r1.X.tolist()) == set(r3.X.tolist())
    assert r1.matching.edge_ids == r3.matching.edge_ids
    d1, d3 = r1.stats.to_json_dict(), r3.stats.to_json_dict()
    d1.pop("variant"), d3.pop("variant")
    assert d1 == d3


def test_variant3_replacement_trace():
    # lighter parallel edge (0,1,1) arrives first, heavier (0,1,3) replaces
    # it; the stream is padded with duplicates on a disjoint pair so that
    # the interval size stays positive and phase 1 reaches both edges
    triples = [(0, 1, 1), (0, 1, 3)] + [(2, 3, 3)] * 19998
    G = MultiGraph(4, triples, W=3)
    params = EdcsParams(W=3, beta=4, beta_minus=2)
    res = run_single_pass(file_order_stream(G), Capacities.uniform(4), params,
                          "0.49", variant=3, check_invariants=True)
    assert res.stats.fallback_used == "none"
    assert res.stats.replacement_count == 1
    assert sorted(res.H.members) == [1, 2]
    assert 0 not in set(res.X.tolist())
    assert res.matching.weight == 6


def test_variant3_replacement_evicts_the_smaller_id_on_equal_weights():
    # pair (0, 1) at capacities 2 fills with two weight-1 copies; the
    # weight-3 copy then replaces the lighter one with the smaller id,
    # edge 0; padded on a disjoint pair as above (alpha_0 = 1)
    triples = [(0, 1, 1), (0, 1, 1), (0, 1, 3)] + [(2, 3, 3)] * 19997
    G = MultiGraph(4, triples, W=3)
    params = EdcsParams(W=3, beta=4, beta_minus=2)
    res = run_single_pass(file_order_stream(G), Capacities([2, 2, 1, 1]), params,
                          "0.49", variant=3, check_invariants=True)
    assert res.stats.fallback_used == "none"
    assert res.stats.replacement_count == 1
    assert sorted(res.H.members) == [1, 2, 3]


def test_variant1_rejects_raw_multiplicity():
    G = MultiGraph(2, [(0, 1, 1), (0, 1, 2)], W=2)
    with pytest.raises(ValueError):
        run_single_pass(make_stream(G, 0), Capacities.uniform(2),
                        EdcsParams(W=2, beta=6, beta_minus=4), "0.3", variant=1)


@pytest.mark.parametrize("runner", [run_single_pass, run_with_fallbacks])
@pytest.mark.parametrize("epsilon", [0, "0", "1/2", -0.1])
def test_epsilon_out_of_range_is_a_value_error(runner, epsilon):
    G = MultiGraph(2, [(0, 1, 1)])
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1/2\)"):
        runner(make_stream(G, 0), Capacities.uniform(2), P41, epsilon)


def _ascending_parallel_stream(pairs: int, W: int, m: int) -> MultiGraph:
    """Disjoint pairs fed weights 1..W in rounds, then weight-W duplicates.

    In file order every round-w edge beyond the first replaces the held
    w-1 copy, and the trailing duplicates are ignored as irrelevant."""
    triples = [(2 * i, 2 * i + 1, w) for w in range(1, W + 1) for i in range(pairs)]
    triples += [(2 * (j % pairs), 2 * (j % pairs) + 1, W)
                for j in range(m - len(triples))]
    return MultiGraph(2 * pairs, triples, W=W)


def test_variant3_replacements_increase_potential():
    # alpha_0 = floor(.49*20000 / (15*577)) = 1, so phase 1 runs one edge per
    # epoch: 50 insertions, then 100 replacements (weight 2 and 3 rounds),
    # then the first duplicate yields a quiet epoch; check_invariants asserts
    # every replacement gains at least 1 in potential
    G = _ascending_parallel_stream(pairs=50, W=3, m=20000)
    b = Capacities.uniform(G.n)
    params = EdcsParams(W=3, beta=4, beta_minus=2)
    res = run_single_pass(file_order_stream(G), b, params, "0.49",
                          variant=3, check_invariants=True)
    stats = res.stats
    assert stats.fallback_used == "none"
    assert stats.replacement_count == 100
    assert stats.phase1_edges_consumed == 151
    # H holds exactly the heaviest copy of every pair
    assert res.H.members == set(range(100, 150))
    # the late duplicates are irrelevant (pair full, not heavier): none kept
    assert len(res.X) == 0
    assert res.matching.weight == 50 * 3


@pytest.mark.parametrize("seed", range(3))
def test_variant3_random_raw_stream_respects_pair_caps(seed):
    G, b = make_random(seed, n=8, m=400, W=2, b_max=2, bipartite=True,
                       allow_parallel=True)
    params = EdcsParams(W=2, beta=6, beta_minus=4)
    res = run_single_pass(make_stream(G, seed + 100), b, params, "0.4",
                          variant=3, check_invariants=True)
    held: dict[tuple[int, int], int] = {}
    for eid in res.H.members:
        u, v, _ = G.triple(eid)
        pair = (min(u, v), max(u, v))
        held[pair] = held.get(pair, 0) + 1
        assert held[pair] <= min(b[pair[0]], b[pair[1]])


def test_phase1_runs_for_real_at_small_parameters():
    # four unit-capacity hubs saturate within level 0's epoch budget, so the
    # run stops on a quiet epoch with a positive interval size:
    # alpha_0 = floor(.4*5000 / (13*145)) = 1
    G = MultiGraph(4 + 1250, [(i % 4, 4 + i // 4, 1) for i in range(5000)], W=1)
    b = Capacities.uniform(G.n)
    res = run_single_pass(make_stream(G, 1234), b, P41, "0.4", check_invariants=True)
    stats = res.stats
    assert stats.fallback_used == "none"
    assert stats.phase1_edges_consumed >= 1
    assert len(res.H) >= 1  # the very first edge is always kept
    assert stats.epoch_count >= 1
    # phase-1 budget: at most ceil(eps * m) edges
    assert stats.phase1_edges_consumed <= -((-2 * G.m) // 5)
    # H keeps the membership bound (no upper violations)
    assert validate(G, b, res.H, P41).upper_violations == []
    # X is exactly the underfull part of the late stream w.r.t. the final H
    late = make_stream(G, 1234).order[stats.phase1_edges_consumed:]
    expected = {eid for eid in late
                if _underfull_direct(res.H, b, eid, P41)}
    assert set(res.X.tolist()) == expected
    assert stats.peak_stored_edges >= len(res.H) + len(res.X)
    assert stats.extraction == "exact"


def test_sandwich_property_on_matched_collection():
    G, b = make_random(5, n=12, m=40, W=3, b_max=3, bipartite=True)
    params = EdcsParams(W=3, beta=8, beta_minus=6)
    res = run_single_pass(make_stream(G, 11), b, params, "0.3")
    best = max_weight_b_matching_exact(G, b)
    xm = set(res.X.tolist()) & set(best.edge_ids)
    combined = Subgraph(G, res.H.members | xm)
    for v in range(G.n):
        assert res.H.wdeg[v] <= combined.wdeg[v] <= res.H.wdeg[v] + b[v] * G.W


def _offline_combination(seed: int, params: EdcsParams, n: int, m: int, W: int,
                         b_max: int) -> tuple[int, int]:
    """Build H on the first half of the edges only (so it keeps the
    membership bound but misses exclusion guarantees), collect every
    underfull edge of the rest, and return (optimum, combined optimum)."""
    G, b = make_random(seed, n=n, m=m, W=W, b_max=b_max, bipartite=True)
    first_half, _ = G.restrict(range(G.m // 2))
    H_half, _ = build_wb_edcs(first_half, b, params)
    H = Subgraph(G, H_half.members)  # same ids: restriction preserved prefix ids
    X = {eid for eid in range(G.m)
         if eid not in H.members and _underfull_direct(H, b, eid, params)}
    union, _ = G.restrict(H.members | X)
    got = max_weight_b_matching_exact(union, b).weight
    opt = max_weight_b_matching_exact(G, b).weight
    return opt, got


@pytest.mark.parametrize("seed", range(6))
def test_combination_bound_theorem_scale(seed):
    # at theorem-scale beta nothing is ever evicted and everything left out
    # is underfull, so H | X is the whole graph and the bound is trivial
    params = EdcsParams(W=2, beta=10**6, beta_minus=10**6 - 2)
    opt, got = _offline_combination(seed, params, n=10, m=24, W=2, b_max=2)
    assert (2 - Fraction(1, 4) + Fraction(1, 2)) * got >= opt
    assert got == opt


@pytest.mark.parametrize("seed", range(10))
def test_combination_bound_practical_scale(seed):
    # empirical check at practical parameters with the slackened threshold
    params = EdcsParams(W=3, beta=12, beta_minus=10)
    opt, got = _offline_combination(seed, params, n=20, m=80, W=3, b_max=3)
    assert (2 - Fraction(1, 6) + Fraction(1, 2)) * got >= opt


# -------------------------------------------------------------- fallbacks

def test_relevant_store_tracks_relevant_subgraph(monkeypatch):
    # the store's size after each arrival is the count over pairs of
    # min(arrivals so far, min(b_u, b_v)); fed the whole stream, the
    # edge-at-a-time store holds exactly the relevant subgraph (heaviest
    # min(b_u, b_v) per pair, smaller ids first), which the runner solves
    # when its store survives
    import wedcs.streaming as streaming
    from wedcs import relevant_subgraph

    monkeypatch.setattr(streaming, "_CHUNK", 7)
    for G, b in (make_random(13, n=6, m=60, W=3, b_max=2, allow_parallel=True),
                 make_random(21, n=10, m=300, W=3, b_max=3, bipartite=True,
                             allow_parallel=True),
                 make_random(5, n=9, m=40, W=2, b_max=3)):
        order = make_stream(G, 4).order
        series = streaming._RelevantStore(G, b, order, cap=10**9)
        assert series.alive
        store = ScalarRelevantStore(G, b, cap=10**9)
        seen: dict[tuple[int, int], int] = {}
        for t, eid in enumerate(order):
            u, v, _ = G.triple(eid)
            pair = (min(u, v), max(u, v))
            seen[pair] = seen.get(pair, 0) + 1
            store.observe(eid)
            assert series.size_at(t) == store.size == sum(min(k, b[p], b[q])
                                                          for (p, q), k in seen.items())
        assert store.edge_ids() == sorted(relevant_subgraph(G, b).members)


@pytest.mark.parametrize("cap", [0.5, 1, 7, 23.5, 40])
def test_store_size_series_dies_like_the_scalar_store(monkeypatch, cap):
    import wedcs.streaming as streaming

    monkeypatch.setattr(streaming, "_CHUNK", 5)
    G, b = make_random(3, n=6, m=80, W=3, b_max=3, allow_parallel=True)
    order = make_stream(G, 1).order
    series = streaming._RelevantStore(G, b, order, cap)
    store = ScalarRelevantStore(G, b, cap)
    expected = []
    for eid in order:
        store.observe(eid)
        expected.append(store.size)
    assert [series.size_at(t) for t in range(len(order))] == expected
    assert series.alive == store.alive


def test_surviving_store_computes_no_phase2_chunk(monkeypatch):
    # a store that survives is known to end at the relevant subgraph's
    # size, so phase 2 reads none of its chunks; one that dies does
    import wedcs.streaming as streaming
    from wedcs import relevant_subgraph

    monkeypatch.setattr(streaming, "_CHUNK", 4)
    computed = []
    kernel = streaming._RelevantStore._next_chunk

    def spy(self):
        computed.append(self.hi)
        kernel(self)

    monkeypatch.setattr(streaming._RelevantStore, "_next_chunk", spy)
    G, b = make_random(1, n=10, m=3000, W=1, b_min=6, b_max=8, bipartite=True,
                       allow_parallel=True)
    params = EdcsParams(W=1, beta=3, beta_minus=1)
    stream = make_stream(G, 1)
    got = run_with_fallbacks(stream, b, params, "0.49", variant=3)
    pos = got.stats.phase1_edges_consumed
    assert got.stats.fallback_used == "small_output" and pos > 8
    assert computed == list(range(0, pos, 4))
    computed.clear()
    final = len(relevant_subgraph(G, b))
    *_, alive = streaming._two_phase_pass(stream, b, params, Fraction(49, 100), 3, False, final)
    assert not alive and computed[-1] >= pos


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the stream runner's calls of the exact solver."""
    import wedcs.streaming as streaming

    calls = []
    solve = streaming.max_weight_b_matching_exact

    def counted(*args, **kwargs):
        calls.append(args[0].m)
        return solve(*args, **kwargs)

    monkeypatch.setattr(streaming, "max_weight_b_matching_exact", counted)
    return calls


def test_small_output_fallback_tiny_graph(exact_calls):
    G, b = make_random(2, n=6, m=5, W=2, b_max=2)
    params = EdcsParams(W=2, beta=6, beta_minus=4)
    res = run_with_fallbacks(make_stream(G, 3), b, params, "0.2")
    assert res.stats.fallback_used == "small_output"
    assert res.matching.weight == max_weight_b_matching_exact(G, b).weight
    # one extraction per stream: the store's graph, never H | X as well
    assert len(exact_calls) == 1


def test_streams_share_a_cold_graph_across_threads():
    # four threads race on G's first pair numbering, pair caps and exact
    # solve, with no lock: each may build them, and each stream must
    # still match its run on a fresh copy of G, one at a time
    G, b = make_random(11, n=400, m=10000, W=3, b_max=2, bipartite=True, allow_parallel=True)
    fresh = MultiGraph.from_columns(G.n, G.u, G.v, G.w, W=G.W)
    assert G._pairs is None and G._entry is None
    params = EdcsParams(W=3, beta=6, beta_minus=4)
    start = threading.Barrier(4)

    def run(G, seed):
        return run_with_fallbacks(make_stream(G, seed), b, params, "0.2", variant=3)

    def raced(seed):
        start.wait()
        return run(G, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(raced, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    serial = [run(fresh, seed) for seed in range(4)]
    assert {res.stats.fallback_used for res in serial} == {"small_output"}
    for got, want in zip(shared, serial):
        assert got.stats.to_json_dict() == want.stats.to_json_dict()
        assert got.matching == want.matching


def test_general_small_output_streams_search_per_seed(monkeypatch):
    # non-bipartite G keeps no answer: every small_output stream runs
    # branch-and-bound on G's relevant subgraph, as on a fresh graph
    import wedcs.matching as matching
    from wedcs.graph import _relevant_ids

    G, b = make_random(3, n=12, m=60, W=3, b_max=2, allow_parallel=True)
    relevant = len(_relevant_ids(G, b))
    assert relevant < G.m
    params = EdcsParams(W=3, beta=6, beta_minus=4)
    searched = []
    search = matching.branch_and_bound_b_matching
    monkeypatch.setattr(matching, "branch_and_bound_b_matching",
                        lambda G, *args: searched.append(G.m) or search(G, *args))

    def run(G, seed):
        return run_with_fallbacks(make_stream(G, seed), b, params, "0.2", variant=3)

    shared = [run(G, seed) for seed in range(3)]
    assert searched == [relevant] * 3
    for seed, got in enumerate(shared):
        want = run(MultiGraph.from_columns(G.n, G.u, G.v, G.w, W=G.W), seed)
        assert got.stats.fallback_used == "small_output"
        assert got.stats.to_json_dict() == want.stats.to_json_dict()
        assert got.matching == want.matching


def test_a_solve_that_raises_keeps_nothing():
    # past the bipartite route's int64 limit every call raises alike and
    # G's entry keeps no answer; a stream whose relevant subgraph is within
    # the limit still solves that subgraph, as before answers were kept
    b = Capacities.uniform(4)
    G = MultiGraph(4, [(0, 1, 2**70), (1, 2, 5), (2, 3, 7)])
    params = EdcsParams(W=G.W, beta=6, beta_minus=4)
    message = rf"needs m \* W < 2\*\*62, got m=3, W={2**70}"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            max_weight_b_matching_exact(G, b)
        assert G._entry[2] is None
    with pytest.raises(ValueError, match=message):
        run_with_fallbacks(make_stream(G, 0), b, params, "0.2", variant=3)
    assert G._entry[2] is None
    G = MultiGraph(4, [(0, 1, 2**61)] * 2)
    params = EdcsParams(W=G.W, beta=6, beta_minus=4)
    with pytest.raises(ValueError, match="needs m"):
        max_weight_b_matching_exact(G, b)
    res = run_with_fallbacks(make_stream(G, 0), b, params, "0.2", variant=3)
    assert res.stats.fallback_used == "small_output"
    assert res.matching.edge_ids == [0] and res.matching.weight == 2**61
    assert G._entry[2] is None


def test_alpha_zero_on_dense_high_capacity_graph(exact_calls):
    # capacities equal to n make the optimum huge relative to m/polylog(m);
    # the interval size floors to zero and the run stores the whole stream
    G, b = make_random(8, n=8, m=120, W=2, b_max=8, b_min=8, bipartite=True)
    params = EdcsParams(W=2, beta=6, beta_minus=4)
    res = run_single_pass(make_stream(G, 21), b, params, "0.1")
    assert res.stats.fallback_used == "alpha_zero"
    assert len(exact_calls) == 1
    opt = max_weight_b_matching_exact(G, b).weight
    assert res.matching.weight >= (1 - 2 * Fraction(1, 10)) * opt


@pytest.mark.parametrize("runner", [run_single_pass, run_with_fallbacks])
def test_alpha_zero_stream_builds_no_ledger(monkeypatch, runner):
    # alpha_0 floors to zero, so phase 1 reads no edge: the pass builds no
    # ledger, and X is an owned copy of the whole order, as the
    # edge-at-a-time reference keeps it
    import wedcs.streaming as streaming

    def no_ledger(*args):
        raise AssertionError("an alpha_zero stream built a ledger")

    monkeypatch.setattr(streaming, "_Ledger", no_ledger)
    cases = [(make_random(8, n=8, m=120, W=2, b_max=8, b_min=8, bipartite=True),
              EdcsParams(W=2, beta=6, beta_minus=4), "0.1", 1),
             (make_random(2, n=10, m=600, W=3, b_max=4, bipartite=True, allow_parallel=True),
              EdcsParams(W=3, beta=3, beta_minus=1), "0.49", 3)]
    for (G, b), params, epsilon, variant in cases:
        stream = make_stream(G, 21)
        got = runner(stream, b, params, epsilon, variant=variant)
        want = scalar_stream_run(stream, b, params, epsilon, variant=variant,
                                 with_store=runner is run_with_fallbacks)
        assert got.stats.fallback_used in ("alpha_zero", "small_output")
        assert got.stats.phase1_edges_consumed == 0 and len(got.H) == 0
        assert _outcome(got) == _outcome(want), variant
        assert got.X.tolist() == stream.order.tolist()
        assert not np.shares_memory(got.X, stream.order)


@pytest.mark.parametrize("runner", [run_single_pass, run_with_fallbacks])
def test_stream_through_phase_1_builds_one_ledger(monkeypatch, runner):
    import wedcs.streaming as streaming

    built = []

    class CountedLedger(_Ledger):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(streaming, "_Ledger", CountedLedger)
    G, b = make_random(3, n=100, m=1500, W=1, b_max=3, bipartite=True)
    res = runner(make_stream(G, 3), b, EdcsParams(W=1, beta=3, beta_minus=1), "0.3")
    assert res.stats.phase1_edges_consumed > 0
    assert built == [1]


def test_fallback_none_on_standard_instance(exact_calls):
    # large enough that the relevant-graph store dies (cap ~ 39700 < m) and
    # phase 1 goes quiet while its interval size is still positive
    G, b = make_random(40, n=200, m=40000, W=1, b_max=4, b_min=4, bipartite=True)
    res = run_with_fallbacks(make_stream(G, 2), b, P41, "0.4")
    assert res.stats.fallback_used == "none"
    assert exact_calls == [len(res.H) + len(res.X)]


@pytest.mark.parametrize("seed", range(20))
def test_twenty_trials_meet_adjusted_threshold(seed):
    # random bipartite instances around n=40, m=300, W=3: the guarantee with
    # the late-fraction loss (1 - 2*eps) factored in
    G, b = make_random(1000 + seed, n=40, m=300, W=3, b_max=3, bipartite=True)
    params = EdcsParams(W=3, beta=12, beta_minus=10)
    res = run_single_pass(make_stream(G, seed), b, params, "0.1")
    opt = max_weight_b_matching_exact(G, b).weight
    threshold = (1 - 2 * Fraction(1, 10)) * Fraction(opt) / (2 - Fraction(1, 6) + Fraction(1, 2))
    assert res.matching.weight >= threshold


def test_stats_json_fields():
    G = MultiGraph(2, [(0, 1, 1)])
    res = run_single_pass(make_stream(G, 0), Capacities.uniform(2), P41, "0.4")
    d = res.stats.to_json_dict()
    for key in ("seed", "m", "variant", "prng", "alpha_log_mode",
                "phase1_edges_consumed", "final_guess_i", "epoch_count",
                "underfull_collected", "peak_stored_edges", "replacement_count",
                "fallback_used", "extraction", "result_weight"):
        assert key in d


# ------------------------------------------- array pass vs scalar reference

def _differential_case(seed: int):
    """A seeded (graph, capacities, params, epsilon, runner, variant, chunk).

    ``seed % 4`` picks a regime: 0 tiny graphs, general ones included;
    1 beta = W + 2 with W <= 2, so phase 1 runs and variant 3 replaces
    edges at pairs of capacity 1; 2 high capacities at eps = 0.49, so the
    relevant store dies part-way through the stream; 3 a mix.  Runners
    alternate, raw-multiplicity graphs run variant 3, and the chunk size
    ranges from 5 positions to the real one."""
    rng = np.random.default_rng(seed)
    regime, k = seed % 4, seed // 4
    raw = bool(rng.integers(0, 2))
    beta, slack, epsilon = int(rng.integers(3, 6)), int(rng.integers(0, 2)), "0.3"
    if regime == 0:
        n, m, W, b_min, b_max = 4 + k % 8, k % 40, 1 + k % 3, 1, 1 + k % 5
        epsilon = ["0.3", "1/10"][k % 2]
    elif regime == 1:
        n = int(rng.integers(8, 40)) if raw else 200
        W, b_min, b_max = 1 + k % 2, 1, 1 + k % 3
        # level 0's interval is positive from m ~ 800 (W = 1) or 6800 (W = 2)
        m = int(rng.integers(2000, 6000) if W == 1 else rng.integers(7000, 9000))
        beta, slack, epsilon = 2 + W, 0, "0.49"
    elif regime == 2:
        n, m, W = int(rng.integers(10, 24)), int(rng.integers(2000, 5000)), 1
        b_min = int(rng.integers(20, 40))
        b_max = int(rng.integers(b_min, 60))
        beta, slack, epsilon = 3, 0, "0.49"
    else:
        n, m, W = int(rng.integers(8, 40)), int(rng.integers(2000, 8000)), 1 + k % 3
        b_min, b_max = 1, int(rng.integers(1, 6))
    bipartite = regime != 0 or k % 2 == 0
    if not raw:
        m = min(m, pair_count(n, bipartite) * b_min)
    G, b = make_random(seed, n=n, m=m, W=W, b_min=b_min, b_max=b_max, bipartite=bipartite,
                       allow_parallel=raw)
    params = EdcsParams(W=W, beta=beta, beta_minus=beta - 2 - slack)
    runner = run_with_fallbacks if regime == 2 or k % 2 else run_single_pass
    variant = 3 if raw or k % 3 == 0 else 1
    chunk = [5, 64, 777, 1 << 15][k % 4]
    return G, b, params, epsilon, runner, variant, chunk


def _outcome(result):
    return (result.stats.to_json_dict(), sorted(result.H.members), sorted(result.X.tolist()),
            result.matching.edge_ids, result.matching.weight)


def test_array_pass_matches_scalar_reference(monkeypatch):
    import wedcs.streaming as streaming

    reached, replaced = set(), False
    for seed in range(100):
        G, b, params, epsilon, runner, variant, chunk = _differential_case(seed)
        monkeypatch.setattr(streaming, "_CHUNK", chunk)
        stream = make_stream(G, seed)
        assert tuple(stream.order.tolist()) == scalar_fisher_yates(G.m, seed)
        got = runner(stream, b, params, epsilon, variant=variant)
        want = scalar_stream_run(stream, b, params, epsilon, variant=variant,
                                 with_store=runner is run_with_fallbacks)
        assert _outcome(got) == _outcome(want), seed
        reached.add((runner.__name__, variant, got.stats.fallback_used))
        replaced = replaced or got.stats.replacement_count > 0
    # random orders of these cases seldom replace; ascending parallel pairs
    # in file order replace at every round
    stream = file_order_stream(_ascending_parallel_stream(pairs=50, W=3, m=20000))
    b, params = Capacities.uniform(stream.graph.n), EdcsParams(W=3, beta=4, beta_minus=2)
    for runner in (run_single_pass, run_with_fallbacks):
        got = runner(stream, b, params, "0.49", variant=3)
        want = scalar_stream_run(stream, b, params, "0.49", variant=3,
                                 with_store=runner is run_with_fallbacks)
        assert _outcome(got) == _outcome(want), runner.__name__
        replaced = replaced or got.stats.replacement_count > 0
    for end in ("none", "alpha_zero"):
        for variant in (1, 3):
            assert ("run_single_pass", variant, end) in reached
            assert ("run_with_fallbacks", variant, end) in reached
    assert ("run_with_fallbacks", 3, "small_output") in reached
    assert replaced


def test_array_pass_degree_test_beyond_int64():
    # an isolated vertex of capacity 2**35 puts beta_minus * w * b_u * b_v
    # out of int64 range, so phase 2 tests degrees in Python integers
    triples = [(i % 4, 4 + i // 4, 1) for i in range(5000)]
    G = MultiGraph(4 + 1250 + 1, triples, W=1)
    b = Capacities([1] * (G.n - 1) + [2**35])
    stream = make_stream(G, 1234)
    got = run_single_pass(stream, b, P41, "0.4")
    want = scalar_stream_run(stream, b, P41, "0.4", variant=1, with_store=False)
    assert got.stats.fallback_used == "none" and len(got.X) > 0
    assert _outcome(got) == _outcome(want)


def test_array_pass_matches_scalar_reference_beyond_two_chunks():
    # 70,001 positions are three chunks of 2**15; phase 1 runs first
    G, b = make_random(17, n=400, m=70_001, W=2, b_min=2, b_max=3, bipartite=True)
    params = EdcsParams(W=2, beta=4, beta_minus=2)
    stream = make_stream(G, 17)
    got = run_single_pass(stream, b, params, "0.49", variant=1)
    want = scalar_stream_run(stream, b, params, "0.49", variant=1, with_store=False)
    assert got.stats.phase1_edges_consumed > 0
    assert _outcome(got) == _outcome(want)


def test_phase1_repair_rechecks_each_member_at_its_turn():
    # a stream where a repair removal brings a later member at the same
    # vertex back within its bound before that member's turn: removing
    # every member over the bound right after the insertion keeps too few
    G, b = make_random(0, n=16, m=30_000, W=3, b_max=3, bipartite=True, allow_parallel=True)
    params = EdcsParams(W=3, beta=5, beta_minus=3)
    stream = make_stream(G, 0)
    got = run_single_pass(stream, b, params, "0.49", variant=3, check_invariants=True)
    want = scalar_stream_run(stream, b, params, "0.49", variant=3, with_store=False)
    assert got.stats.phase1_edges_consumed > 0
    assert _outcome(got) == _outcome(want)


def test_invariant_check_fires_without_repair(monkeypatch):
    # alpha_0 = floor(.49*10000 / (14*325)) = 1: the weight-2 edge joins at
    # vertex 0 in the second epoch and pushes the weight-1 member (0, 1) one
    # over its bound, 3 + 1 > beta * 1, which repair removes; with repair
    # switched off, check_invariants must catch it
    G = MultiGraph(3, [(0, 1, 1), (0, 2, 2)] + [(1, 2, 1)] * 9998, W=3)
    b, params = Capacities.uniform(3), EdcsParams(W=3, beta=3, beta_minus=1)
    stream = file_order_stream(G)
    res = run_single_pass(stream, b, params, "0.49", variant=3, check_invariants=True)
    assert res.stats.phase1_edges_consumed >= 2 and 0 not in res.H
    monkeypatch.setattr(_Ledger, "repair", lambda self, u, v: [])
    with pytest.raises(StreamInvariantError, match="bounded weighted edge-degree at edge 0"):
        run_single_pass(stream, b, params, "0.49", variant=3, check_invariants=True)


def test_general_graph_too_deep_for_branch_and_bound_falls_back_to_greedy():
    # alpha_0 floors to zero, so all 2,000 edges are solved at once; the
    # graph is not bipartite, and branch-and-bound nests one call per edge
    G, b = random_instance(GenSpec(seed=11, n=100, m=2000, W=3, b_max=3, allow_parallel=True))
    res = run_single_pass(make_stream(G, 1), b, EdcsParams(W=3, beta=3, beta_minus=1),
                          Fraction(49, 100), variant=3)
    assert res.stats.extraction == "greedy"
    assert res.matching.verify(G, b)
