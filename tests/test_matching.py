import os
import subprocess
import sys

import numpy as np
import pytest

import wedcs

from wedcs import (
    BMatching,
    Capacities,
    EdcsParams,
    MultiGraph,
    OracleBudgetExceeded,
    Subgraph,
    bipartition_sides,
    branch_and_bound_b_matching,
    build_wb_edcs,
    max_weight_b_matching_exact,
    max_weight_b_matching_greedy,
)
from wedcs.matching import _proven

from helpers import (
    brute_force_b_matching_weight,
    brute_force_min_cover_weight,
    check_distribution_properties,
    distribute_edges,
    make_random,
    pair_count,
    primal_dual_cover,
    random_distribution_input,
    split_vertices,
)


# ----------------------------------------------------------------- exact

def test_exact_empty():
    G = MultiGraph(3, [])
    best = max_weight_b_matching_exact(G, Capacities.uniform(3))
    assert best.edge_ids == [] and best.weight == 0


def test_exact_single_edge():
    G = MultiGraph(2, [(0, 1, 5)])
    assert max_weight_b_matching_exact(G, Capacities.uniform(2)).weight == 5


def test_exact_triangle_capacities():
    G = MultiGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    assert max_weight_b_matching_exact(G, Capacities.uniform(3)).weight == 1
    assert max_weight_b_matching_exact(G, Capacities.uniform(3, 2)).weight == 3


@pytest.mark.parametrize("ids,weight,ok", [
    ([1], 3, True), ([0, 1], 4, True), ([], 0, True),
    ([-1], 3, False), ([2], 0, False), ([0, 0], 2, False), ([1, 1], 6, False), ([0], 3, False),
], ids=["one", "both", "none", "negative", "past-m", "repeat", "repeat-fit", "weight"])
def test_verify_checks_edge_ids(ids, weight, ok):
    # an id outside [0, m) names no edge: -1 must not wrap round to the
    # last one, and m must not raise; a repeated id is one edge used twice,
    # even where capacity would allow it
    G = MultiGraph(3, [(0, 1, 1), (1, 2, 3)], W=3)
    assert BMatching(ids, weight).verify(G, Capacities.uniform(3, 2)) is ok


@pytest.mark.parametrize("seed", range(40))
def test_branch_and_bound_matches_enumeration(seed):
    G, b = make_random(seed, n=6, m=8, W=4, b_max=3, allow_parallel=True)
    got = branch_and_bound_b_matching(G, b, budget=10**6)
    assert got.verify(G, b)
    assert got.weight == brute_force_b_matching_weight(G, b)


@pytest.mark.parametrize("seed", range(50))
def test_flow_matches_branch_and_bound(seed):
    # weights up to 5, capacities up to 5, raw multiplicities on odd seeds
    G, b = make_random(seed, n=8, m=14, W=1 + seed % 5, b_max=1 + seed // 10,
                       bipartite=True, allow_parallel=seed % 2 == 1)
    assert bipartition_sides(G) is not None
    flow = max_weight_b_matching_exact(G, b)
    bnb = branch_and_bound_b_matching(G, b, budget=10**6)
    assert flow.verify(G, b)
    assert flow.weight == bnb.weight


def test_bipartite_long_augmenting_path():
    # left L_i = 2(k-1-i), right R_i = 2i+1; the first phase matches every
    # L_{i+1} to R_i, leaving one augmenting path through all 2k vertices
    k = 3000
    left = [2 * (k - 1 - i) for i in range(k)]
    right = [2 * i + 1 for i in range(k)]
    triples = [(left[i + 1], right[i], 1) for i in range(k - 1)]
    triples += [(left[i], right[i], 1) for i in range(k)]
    G = MultiGraph(2 * k, triples)
    best = max_weight_b_matching_exact(G, Capacities.uniform(G.n))
    assert best.weight == k and best.verify(G, Capacities.uniform(G.n))


# left vertex 0 (capacity 1) and two weight-2 edges to right vertices 1, 2
CERT_GRAPH = MultiGraph(3, [(0, 1, 2), (0, 2, 2)])


def test_certificate_accepts_optimal_pair():
    found = _proven(CERT_GRAPH, Capacities.uniform(3), np.array([0]), np.array([2, 0, 0]))
    assert (found.edge_ids, found.weight) == ([0], 2)


@pytest.mark.parametrize("x, y, message", [
    ([0], [1, 0, 0], "dual bound 3 does not certify matching weight 2"),  # y_0 one short
    ([0, 0], [2, 0, 0], "fails verification"),      # an edge taken twice
    ([0, 1], [2, 0, 0], "fails verification"),      # vertex 0 over its capacity
    ([0], [3, -1, 0], "negative label"),
    # the edge terms alone reject it: without them the dual would be 0
    ([], [0, 0, 0], "dual bound 4 does not certify matching weight 0"),
])
def test_certificate_rejects(x, y, message):
    with pytest.raises(RuntimeError, match=message):
        _proven(CERT_GRAPH, Capacities.uniform(3), np.array(x, dtype=np.int64), np.array(y))


def test_export_list_resolves_and_keeps_one_exact_entry():
    # every exported name exists; the splitting device lives in the
    # tests, and the primal-dual route is reached only through the
    # exact solver
    assert all(hasattr(wedcs, name) for name in wedcs.__all__)
    gone = {"bipartite_b_matching", "split_vertices", "distribute_edges", "SplitResult"}
    assert not gone & set(wedcs.__all__)
    assert not gone & set(wedcs.matching.__all__)


def test_import_leaves_networkx_out():
    # the import footprint: numpy is the only heavy dependency.  scipy is
    # installed too, and scipy.sparse.csgraph would be a tempting way to
    # walk the graph, but importing it peaks at 59 MB of resident memory
    # against 29 MB for `import wedcs` (ru_maxrss, Linux x86-64)
    src = os.path.dirname(os.path.dirname(wedcs.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wedcs; print(sorted({'networkx', 'scipy'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_exact_dispatch_prefers_flow_for_bipartite():
    # a bipartite instance too large for a tiny budget still solves exactly
    G, b = make_random(5, n=20, m=60, W=3, b_max=3, bipartite=True)
    best = max_weight_b_matching_exact(G, b, budget=10)
    assert best.verify(G, b)


def test_bipartite_solver_names_its_int64_limit():
    # m * W must stay below 2**62, checked before any solving; general
    # input runs branch-and-bound and greedy in Python integers, at any
    # weight
    b = Capacities.uniform(4)
    for G in (MultiGraph(4, [(0, 1, 2**61)] * 2),
              MultiGraph(4, [(0, 1, 2**70), (1, 2, 5), (2, 3, 7)])):
        with pytest.raises(ValueError, match=rf"needs m \* W < 2\*\*62, got m={G.m}, W={G.W}"):
            max_weight_b_matching_exact(G, b)
    triangle = MultiGraph(3, [(0, 1, 2**70), (1, 2, 5), (0, 2, 7)])
    assert max_weight_b_matching_exact(triangle, Capacities.uniform(3)).weight == 2**70
    assert max_weight_b_matching_greedy(triangle, Capacities.uniform(3)).edge_ids == [0]


def test_branch_and_bound_budget_error():
    G, b = make_random(2, n=10, m=30, W=4, b_max=2)  # contains odd cycles
    assert bipartition_sides(G) is None
    with pytest.raises(OracleBudgetExceeded):
        branch_and_bound_b_matching(G, b, budget=5)


def test_branch_and_bound_search_deeper_than_the_stack_exceeds_the_budget():
    # per gadget a-b and c-d of weight 2, then b-c of weight 3: in id order
    # the search takes both 2s while greedy takes the 3, so its first path
    # runs to full depth, one nested call per edge; a triangle at the end
    # makes the graph general
    gadgets = sys.getrecursionlimit() // 3 + 1
    triples = [t for g in range(gadgets)
               for t in ((4 * g, 4 * g + 1, 2), (4 * g + 2, 4 * g + 3, 2), (4 * g + 1, 4 * g + 2, 3))]
    n = 4 * gadgets
    G = MultiGraph(n + 3, triples + [(n, n + 1, 1), (n + 1, n + 2, 1), (n, n + 2, 1)])
    with pytest.raises(OracleBudgetExceeded, match="recursion limit"):
        branch_and_bound_b_matching(G, Capacities.uniform(G.n), budget=10**6)


def test_branch_and_bound_prunes_a_large_easy_graph_without_going_deep():
    # a triangle and more disjoint edges than the interpreter has frames:
    # greedy is optimal, so the bounds prune at once
    pairs = sys.getrecursionlimit()
    triples = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    triples += [(3 + 2 * i, 4 + 2 * i, 1) for i in range(pairs)]
    G = MultiGraph(3 + 2 * pairs, triples)
    assert branch_and_bound_b_matching(G, Capacities.uniform(G.n), budget=10**6).weight == 1 + pairs


# ----------------------------------------------------------------- greedy

def test_greedy_shared_vertex_path():
    G = MultiGraph(3, [(0, 1, 3), (1, 2, 3)])
    got = max_weight_b_matching_greedy(G, Capacities.uniform(3))
    assert got.edge_ids == [0] and got.weight == 3  # tie broken by id


def test_greedy_empty():
    G = MultiGraph(2, [])
    assert max_weight_b_matching_greedy(G, Capacities.uniform(2)).weight == 0


def test_greedy_star_with_capacity():
    G = MultiGraph(4, [(0, 1, 5), (0, 2, 1), (0, 3, 1)])
    got = max_weight_b_matching_greedy(G, Capacities([2, 1, 1, 1]))
    assert got.weight == 6


@pytest.mark.parametrize("seed", range(15))
def test_greedy_half_of_optimum(seed):
    G, b = make_random(seed, n=7, m=14, W=4, b_max=3)
    greedy = max_weight_b_matching_greedy(G, b)
    assert greedy.verify(G, b)
    assert 2 * greedy.weight >= branch_and_bound_b_matching(G, b, budget=10**6).weight


# ----------------------------------------------------------------- cover

def _covers(G, alpha) -> bool:
    alpha = np.asarray(alpha)
    return bool((alpha >= 0).all() and (G.w <= alpha[G.u] + alpha[G.v]).all())


def test_cover_single_edge():
    G = MultiGraph(2, [(0, 1, 3)])
    alpha = primal_dual_cover(G, [0, 1])
    assert sum(alpha) == 3 and _covers(G, alpha)


def test_cover_path():
    G = MultiGraph(3, [(0, 1, 2), (1, 2, 2)])
    alpha = primal_dual_cover(G, [0, 1, 0])
    assert alpha == [0, 2, 0]  # all weight on the middle vertex
    assert _covers(G, alpha)


def test_cover_rejects_non_bipartite_labeling():
    G = MultiGraph(2, [(0, 1, 1)])
    with pytest.raises(ValueError, match="does not cross"):
        primal_dual_cover(G, [0, 0])


@pytest.mark.parametrize("seed", range(25))
def test_koenig_egervary_duality(seed):
    G, _ = make_random(seed, n=8, m=12, W=4, bipartite=True)
    alpha = primal_dual_cover(G, bipartition_sides(G))
    assert _covers(G, alpha)
    matching = branch_and_bound_b_matching(G, Capacities.uniform(G.n), budget=10**6)
    assert sum(alpha) == matching.weight
    assert sum(alpha) == brute_force_min_cover_weight(G)


# ------------------------------------------------------------- distribute

def test_distribute_single_unmatched_edge():
    buckets = distribute_edges([[(0, 3, False)]], 1)
    assert buckets == [[(0, 3, False)]]


def test_distribute_worked_example():
    # one neighbor holding (4, matched) then (1, unmatched) over two buckets
    buckets = distribute_edges([[(0, 4, True), (1, 1, False)]], 2)
    assert buckets == [[(0, 4, True)], [(1, 1, False)]]
    weights = [sum(w for _, w, _ in bucket) for bucket in buckets]
    assert max(weights) - min(weights) == 3  # within 2W for W = 4


def test_distribute_precondition_errors():
    with pytest.raises(ValueError):
        distribute_edges([[(0, 1, False), (1, 2, False)]], 2)  # weights increase
    with pytest.raises(ValueError):
        distribute_edges([[(0, 2, False), (1, 1, True)]], 2)  # matched not a prefix
    with pytest.raises(ValueError):
        distribute_edges([[(0, 1, False)] * 3], 2)  # group too large
    with pytest.raises(ValueError):
        distribute_edges([[(0, 2, True)], [(1, 2, True)]], 1)  # too many matched


@pytest.mark.parametrize("seed", range(60))
def test_distribute_random_properties(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    bucket_count = int(rng.integers(1, 6))
    W = int(rng.integers(1, 5))
    groups, in_h = random_distribution_input(rng, bucket_count, W)
    buckets = distribute_edges(groups, bucket_count)
    check_distribution_properties(groups, in_h, buckets, bucket_count, W)


# ------------------------------------------------------------------ split

def test_split_unit_capacities_is_identity_shaped():
    G, b = make_random(4, n=6, m=9, W=3)
    H, _ = build_wb_edcs(G, b, EdcsParams(W=3, beta=6, beta_minus=4))
    M = max_weight_b_matching_exact(G, b)
    result = split_vertices(G, b, H, M)
    assert result.graph.n == G.n
    assert result.vertex_map == [(v, 0) for v in range(G.n)]
    assert sorted(result.edge_origin) == sorted(set(H) | set(M.edge_ids))


def test_split_triangle_capacity_two():
    G = MultiGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    b = Capacities.uniform(3, 2)
    H = Subgraph(G, [0, 1, 2])
    M = max_weight_b_matching_exact(G, b)
    result = split_vertices(G, b, H, M)  # built-in simplicity/window checks run
    assert result.graph.n == 6
    assert max(len(ids) for ids in result.graph.pair_groups().values()) == 1


@pytest.mark.parametrize("seed", range(12))
def test_split_oracle_relations(seed):
    G, b = make_random(seed, n=6, m=12, W=3, b_max=2)
    params = EdcsParams(W=3, beta=6, beta_minus=4)
    H, _ = build_wb_edcs(G, b, params)
    M = branch_and_bound_b_matching(G, b, budget=10**6)
    result = split_vertices(G, b, H, M)
    Gp, Hp = result.graph, result.subgraph
    ones = Capacities.uniform(Gp.n)

    # the (normalized) matching survives as a simple matching of equal weight
    mapped_weight = sum(Gp.triple(j)[2] for j in result.matched_split_ids)
    assert mapped_weight == M.weight
    assert BMatching(result.matched_split_ids, mapped_weight).verify(Gp, ones)

    # matchings of the split subgraph fold back into b-matchings of H
    h_graph, _ = G.restrict(H.members)
    best_h = branch_and_bound_b_matching(h_graph, b, budget=10**6).weight
    hp_graph, _ = Gp.restrict(Hp.members)
    best_hp = branch_and_bound_b_matching(hp_graph, ones, budget=10**6).weight
    assert best_hp <= best_h

    # and the split graph's optimum is the matching we fed in (M optimal)
    assert branch_and_bound_b_matching(Gp, ones, budget=10**6).weight == M.weight

    # split-side weighted degrees of the kept subgraph: within 3W of the
    # capacity-normalized original
    W = G.W
    for x in range(Gp.n):
        v, _ = result.vertex_map[x]
        got = Hp.wdeg[x]
        assert H.wdeg[v] - 3 * W * b[v] <= got * b[v] <= H.wdeg[v] + 3 * W * b[v]


def test_split_rejects_bad_matching():
    G = MultiGraph(2, [(0, 1, 1)])
    b = Capacities.uniform(2)
    with pytest.raises(ValueError):
        split_vertices(G, b, Subgraph(G), BMatching([0, 0], 2))


# ------------------------------------------------------- the exact oracle

def _oracle_cases(bipartite: bool, count: int, simple: tuple[int, int],
                  raw: tuple[int, int]):
    """Seeded instances for the exact solver, alternately simple
    graphs of up to ``simple`` = (n, m) vertices and edges and raw
    multiplicities of up to ``raw`` = (n, m), whose crowded pairs make
    the relevant subgraph drop edges."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n_max, m_max = raw if seed % 2 == 0 else simple
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        if seed % 2:
            m = min(m, pair_count(n, bipartite))
        yield seed, make_random(seed, n=n, m=m, W=int(rng.integers(1, 5)),
                                b_max=int(rng.integers(1, 6)), bipartite=bipartite,
                                allow_parallel=seed % 2 == 0)


#: 300 simple and 300 raw-multiplicity bipartite instances
BIPARTITE_CASES = dict(bipartite=True, count=600, simple=(60, 800), raw=(30, 300))


def _lift_counts(monkeypatch) -> list[int]:
    """Per call of ``_lifted_labels`` from now on, how many labels it raised."""
    import wedcs.matching as matching

    lifted = matching._lifted_labels
    lifts = []

    def spy(G, b, keep, y):
        raised = lifted(G, b, keep, y)
        lifts.append(int((raised > y).sum()))
        return raised

    monkeypatch.setattr(matching, "_lifted_labels", spy)
    return lifts


def _direct_solve(G: MultiGraph, b: Capacities) -> tuple[list[int], int]:
    """The primal-dual method run on G's own classes, each taking its x
    lowest ids: the ids and weight of a solve that never forms the
    relevant subgraph."""
    from wedcs.matching import _classes, _primal_dual

    classes, cls, rank = _classes(G, bipartition_sides(G))
    x, _ = _primal_dual(classes, b, G.n)
    return np.flatnonzero(rank < x[cls]).tolist(), int((classes[:, 2] * x).sum())


def test_exact_solver_matches_a_direct_solve_of_the_graph(monkeypatch):
    # the same ids, not only the same weight, on crowded and simple input;
    # every crowded instance lifts its labels, and some lifts are positive
    from wedcs.graph import _relevant_ids

    lifts = _lift_counts(monkeypatch)
    crowded = 0
    for seed, (G, b) in _oracle_cases(**BIPARTITE_CASES):
        got = max_weight_b_matching_exact(G, b)
        assert (got.edge_ids, got.weight) == _direct_solve(G, b), seed
        crowded += len(_relevant_ids(G, b)) < G.m
    assert crowded == len(lifts) > 250
    assert sum(1 for k in lifts if k) >= 15


def test_exact_solver_matches_branch_and_bound_on_general_graphs():
    # general input searches G itself: the same ids under a full budget,
    # and a small budget runs out exactly where branch-and-bound on G does
    from wedcs.graph import _relevant_ids

    def ids_and_weight(solve):
        found = _outcome(solve)
        return found and (found.edge_ids, found.weight)

    checked = crowded = ran_out = 0
    for seed, (G, b) in _oracle_cases(False, 120, simple=(12, 30), raw=(12, 30)):
        if bipartition_sides(G) is not None:
            continue
        for budget in (10**7, 40):
            got = ids_and_weight(lambda: max_weight_b_matching_exact(G, b, budget))
            assert got == ids_and_weight(lambda: branch_and_bound_b_matching(G, b, budget)), seed
        checked += 1
        crowded += len(_relevant_ids(G, b)) < G.m
        ran_out += got is None and len(_relevant_ids(G, b)) < G.m
    assert checked > 50 and crowded > 20 and ran_out > 5


def test_optimum_weight_fails_its_check_without_the_lift(monkeypatch):
    # the exact solver's weight on crowded input is proven on G only with
    # the lifted labels: only instances that take a positive lift can fail
    # without it, and some do
    import wedcs.matching as matching

    lifts = _lift_counts(monkeypatch)
    needs_lift = set()
    for seed, (G, b) in _oracle_cases(**BIPARTITE_CASES):
        max_weight_b_matching_exact(G, b)
        if lifts and lifts.pop():
            needs_lift.add(seed)
    monkeypatch.setattr(matching, "_lifted_labels", lambda G, b, keep, y: y.astype(np.int64))
    failed = set()
    for seed, (G, b) in _oracle_cases(**BIPARTITE_CASES):
        try:
            max_weight_b_matching_exact(G, b)
        except RuntimeError as exc:
            assert "does not certify" in str(exc)
            failed.add(seed)
    assert failed <= needs_lift and len(failed) >= 5


def test_lifted_labels_add_every_lift_at_a_shared_endpoint():
    # vertex 0 is the smaller-capacity end of two crowded pairs: (0, 1)
    # needs a lift of 3 and (0, 2), listed after it, one of 0; a fancy
    # ``+=`` would keep the second write and lose the first
    from wedcs.matching import _lifted_labels, _relevant_ids

    G = MultiGraph(3, [(0, 1, 3), (0, 1, 3), (0, 2, 1), (0, 2, 1)], W=3)
    b = Capacities([1, 2, 2])
    keep = _relevant_ids(G, b)
    assert keep.tolist() == [0, 2]
    y = np.array([0, 0, 1], dtype=np.int8)
    assert _lifted_labels(G, b, keep, y).tolist() == [3, 0, 1]


def test_lifted_labels_raise_the_smaller_id_on_equal_capacities():
    from wedcs.matching import _lifted_labels, _relevant_ids

    G = MultiGraph(2, [(1, 0, 2), (0, 1, 1)], W=2)
    b = Capacities([1, 1])
    y = np.zeros(2, dtype=np.int8)
    assert _lifted_labels(G, b, _relevant_ids(G, b), y).tolist() == [2, 0]
    b = Capacities([2, 1])
    assert _lifted_labels(G, b, _relevant_ids(G, b), y).tolist() == [0, 2]


def _outcome(solve):
    try:
        return solve()
    except OracleBudgetExceeded:
        return None


def test_optimum_weight_raises_on_a_wrong_relevant_set(monkeypatch):
    # a relevant set that drops a heavier copy than it keeps agrees with
    # nothing on G: the lifted labels cover only the kept weight
    import wedcs.matching as matching

    G = MultiGraph(2, [(0, 1, 1), (0, 1, 3)], W=3)
    b = Capacities([1, 1])
    assert max_weight_b_matching_exact(G, b).weight == 3
    # G keeps its proven answer, so the patched solve runs on a fresh copy
    fresh = MultiGraph.from_columns(G.n, G.u, G.v, G.w, W=G.W)
    monkeypatch.setattr(matching, "_relevant_ids", lambda G, b: np.array([0]))
    with pytest.raises(RuntimeError, match="does not certify"):
        max_weight_b_matching_exact(fresh, b)


def _counted_primal_dual(monkeypatch) -> list:
    """The capacities of every primal-dual solve from now on."""
    import wedcs.matching as matching

    solves = []
    primal_dual = matching._primal_dual
    monkeypatch.setattr(matching, "_primal_dual",
                        lambda *args: solves.append(args[1]) or primal_dual(*args))
    return solves


def test_exact_answer_is_kept_per_capacities(monkeypatch):
    # one G under two capacity vectors gets each vector's own answer, equal
    # to a fresh graph's; a repeated vector reads G's entry, and going back
    # to the first vector, which the second replaced, solves it again
    G, b1 = make_random(5, n=30, m=200, W=3, b_max=3, bipartite=True, allow_parallel=True)
    b2 = Capacities.uniform(G.n)
    solves = _counted_primal_dual(monkeypatch)
    answers = [max_weight_b_matching_exact(G, b) for b in (b1, b2, b2, b1)]
    assert solves == [b1, b2, b1]
    assert answers[0].weight != answers[1].weight
    for b, got in zip((b1, b2, b2, b1), answers):
        assert got == max_weight_b_matching_exact(MultiGraph.from_columns(G.n, G.u, G.v, G.w), b)
        assert got.verify(G, b)


def test_exact_answer_is_a_fresh_matching_per_call(monkeypatch):
    # the kept answer is a read-only id array: what a caller does to the
    # BMatching it got never reaches the next caller
    G, b = make_random(6, n=30, m=200, W=3, b_max=3, bipartite=True, allow_parallel=True)
    solves = _counted_primal_dual(monkeypatch)
    first = max_weight_b_matching_exact(G, b)
    want = BMatching(list(first.edge_ids), first.weight)
    first.edge_ids[0] = -1
    first.edge_ids.append(G.m)
    first.weight = 0
    assert max_weight_b_matching_exact(G, b) == want
    assert len(solves) == 1
    ids = G._entry[2][0]
    with pytest.raises(ValueError, match="read-only"):
        ids[0] = -1


def test_optimum_weight_budget_applies_on_general_graphs():
    G, b = make_random(2, n=10, m=30, W=4, b_max=2)  # contains odd cycles
    with pytest.raises(OracleBudgetExceeded):
        max_weight_b_matching_exact(G, b, budget=5)
    assert max_weight_b_matching_exact(G, b).weight == branch_and_bound_b_matching(G, b, 10**7).weight
    assert max_weight_b_matching_exact(MultiGraph(4, []), Capacities.uniform(4)).weight == 0


# ------------------------------------------- weights and capacities near 2**62

def test_exact_single_edge_near_the_int64_limit_solves_in_one_round():
    # label moves that repeat a failed search are taken at once, so the
    # round count follows the searches, not W
    import time

    G = MultiGraph(2, [(0, 1, 2**62 - 1)])
    start = time.perf_counter()
    best = max_weight_b_matching_exact(G, Capacities([2, 1]))
    assert time.perf_counter() - start < 1
    assert (best.edge_ids, best.weight) == ([0], 2**62 - 1)


@pytest.mark.parametrize("seed", range(12))
def test_bipartite_solver_scales_with_the_weights(seed):
    # weights times 2**40 plus a small offset: the optimum scales with
    # them, and the solve takes as many rounds as its searches need
    G, b = make_random(seed, n=12, m=40, W=4, b_max=3, bipartite=True, allow_parallel=True)
    big = MultiGraph.from_columns(G.n, G.u, G.v, G.w.astype(np.int64) << 40)
    small = max_weight_b_matching_exact(G, b)
    found = max_weight_b_matching_exact(big, b)
    assert found.weight == small.weight << 40
    assert found.verify(big, b)


def test_label_term_leaves_int64_when_it_could_wrap():
    from wedcs.matching import _label_term

    assert _label_term(Capacities([3, 1, 2]), np.array([2, 0, 5], dtype=np.int8)) == 16
    # an int64 dot product would wrap 2**64 to 0
    assert _label_term(Capacities([2**62, 2**62]), np.array([2, 2])) == 2**64


def test_exact_solver_with_a_capacity_near_2_62(monkeypatch):
    # sum(b) * max(y) passes 2**63: the label term is summed in Python
    # integers, and the answer is that of capacities cut to the degrees
    import wedcs.matching as matching

    G, b = make_random(3, n=10, m=20, W=5, b_max=2, bipartite=True)
    huge = Capacities([2**62 - 7] + list(b.b[1:]))
    beyond = []
    label_term = matching._label_term

    def spy(b, y):
        beyond.append(sum(b.b) * int(y.max()) >= 2**63)
        return label_term(b, y)

    monkeypatch.setattr(matching, "_label_term", spy)
    found = max_weight_b_matching_exact(G, huge)
    assert beyond == [True]
    cut = max_weight_b_matching_exact(G, Capacities([min(cap, G.m) for cap in huge.b]))
    assert (found.edge_ids, found.weight) == (cut.edge_ids, cut.weight)


def test_exact_solver_restricts_once(monkeypatch):
    # the relevant subgraph is cut out once, coloured, and solved
    calls = []
    restrict = MultiGraph.restrict

    def spy(self, ids):
        calls.append(self)
        return restrict(self, ids)

    monkeypatch.setattr(MultiGraph, "restrict", spy)
    G, b = make_random(0, n=8, m=200, W=3, b_max=2, bipartite=True, allow_parallel=True)
    max_weight_b_matching_exact(G, b)
    assert calls == [G]
