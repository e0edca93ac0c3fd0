from fractions import Fraction

import pytest

from wedcs import (
    Capacities,
    EdcsParams,
    EdgeStream,
    MultiGraph,
    Subgraph,
    build_wb_edcs,
    file_order_stream,
    is_underfull,
    make_stream,
    max_weight_b_matching_exact,
    run_single_pass,
    run_with_fallbacks,
    validate,
)

from helpers import make_random

P41 = EdcsParams(W=1, beta=6, beta_minus=4)


# ----------------------------------------------------------------- stream

def test_make_stream_deterministic():
    G, _ = make_random(0, n=20, m=100, W=2)
    s1 = make_stream(G, 7)
    s2 = make_stream(G, 7)
    s3 = make_stream(G, 8)
    assert s1.order == s2.order
    assert s1.order != s3.order
    assert s1.prng == "pcg64-fisher-yates"


def test_make_stream_tiny():
    G1 = MultiGraph(2, [(0, 1, 1)])
    assert make_stream(G1, 123).order == (0,)
    G0 = MultiGraph(3, [])
    assert make_stream(G0, 5).order == ()


def test_stream_rejects_non_permutation():
    G = MultiGraph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        EdgeStream(G, (0, 0), 1, "x")


def test_file_order_stream():
    G = MultiGraph(3, [(0, 1, 1), (1, 2, 1)])
    s = file_order_stream(G)
    assert s.order == (0, 1) and s.prng == "as-is"


# -------------------------------------------------------------- underfull

def test_is_underfull_empty_H():
    G = MultiGraph(2, [(0, 1, 1)])
    H = Subgraph(G)
    assert is_underfull(H, Capacities.uniform(2), G.edges[0], P41)


def test_is_underfull_boundary_strict():
    # wdeg(u) = wdeg(v) = beta_minus * w / 2 exactly: not underfull
    G = MultiGraph(4, [(0, 2, 2), (1, 3, 2), (0, 1, 1)])
    H = Subgraph(G, [0, 1])
    params = EdcsParams(W=2, beta=6, beta_minus=4)
    assert not is_underfull(H, Capacities.uniform(4), G.edges[2], params)


def test_is_underfull_rejects_member():
    G = MultiGraph(2, [(0, 1, 1)])
    H = Subgraph(G, [0])
    with pytest.raises(ValueError):
        is_underfull(H, Capacities.uniform(2), G.edges[0], P41)


@pytest.mark.parametrize("seed", range(10))
def test_is_underfull_matches_direct_formula(seed):
    G, b = make_random(seed, n=8, m=20, W=3, b_max=3)
    H = Subgraph(G, [eid for eid in range(G.m) if eid % 3 == 0])
    params = EdcsParams(W=3, beta=8, beta_minus=5)
    for e in G.edges:
        if e.id in H.members:
            continue
        direct = (Fraction(H.wdeg[e.u], b[e.u]) + Fraction(H.wdeg[e.v], b[e.v])
                  < params.beta_minus * e.w)
        assert is_underfull(H, b, e, params) == direct


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
    assert r1.X.members == r2.X.members
    assert r1.matching.edge_ids == r2.matching.edge_ids
    assert r1.stats.to_json_dict() == r2.stats.to_json_dict()


@pytest.mark.parametrize("seed", range(8))
def test_variants_agree_without_parallel_edges(seed):
    G, b = make_random(seed, n=14, m=50, W=3, b_max=3)
    params = EdcsParams(W=3, beta=8, beta_minus=6)
    r1 = run_single_pass(make_stream(G, seed), b, params, "0.3", variant=1)
    r3 = run_single_pass(make_stream(G, seed), b, params, "0.3", variant=3)
    assert r1.H.members == r3.H.members
    assert r1.X.members == r3.X.members
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
    assert 0 not in res.X.members
    assert res.matching.weight == 6


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
        pair = G.edges[eid].pair()
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
                if is_underfull(res.H, b, G.edges[eid], P41)}
    assert res.X.members == expected
    assert stats.peak_stored_edges >= len(res.H) + len(res.X)
    assert stats.extraction == "exact"


def test_sandwich_property_on_matched_collection():
    G, b = make_random(5, n=12, m=40, W=3, b_max=3, bipartite=True)
    params = EdcsParams(W=3, beta=8, beta_minus=6)
    res = run_single_pass(make_stream(G, 11), b, params, "0.3")
    best = max_weight_b_matching_exact(G, b)
    xm = res.X.members & set(best.edge_ids)
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
    X = {e.id for e in G.edges
         if e.id not in H.members and is_underfull(H, b, e, params)}
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

def test_relevant_store_tracks_relevant_subgraph():
    # the auxiliary store, fed the whole stream, must hold exactly the
    # relevant subgraph (heaviest min(b_u, b_v) per pair, smaller ids first)
    from wedcs.streaming import _RelevantStore
    from wedcs import relevant_subgraph

    G, b = make_random(13, n=6, m=60, W=3, b_max=2, allow_parallel=True)
    store = _RelevantStore(G, b, cap=10**9)
    for eid in make_stream(G, 4).order:
        store.observe(eid)
    assert store.alive
    assert store.edge_ids() == sorted(relevant_subgraph(G, b).members)


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
