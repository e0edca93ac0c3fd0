"""The columnar graph: CSR adjacency, the lazy object views, and the
guarantee that workload paths build no per-edge objects.

``WeightedEdge``, ``G.edges`` and ``G.adjacency`` remain for callers of the
API, built on first use.  The guard tests count ``WeightedEdge``
constructions along each workload path and require none.  The reference
implementations below are the package's earlier object-per-edge code,
kept here to check the array code against.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from wedcs import (
    Capacities,
    EdcsParams,
    GenSpec,
    MultiGraph,
    WeightedEdge,
    bipartite_b_matching,
    bipartition_sides,
    build_wb_edcs,
    make_stream,
    max_weight_b_matching_exact,
    random_instance,
    read_graph,
    relevant_subgraph,
    run_with_fallbacks,
    validate,
    write_graph,
)
from wedcs.cli import main
from wedcs.matching import BMatching, _check_certificate, _primal_dual

from helpers import make_random


@pytest.fixture
def edge_objects(monkeypatch):
    """The number of ``WeightedEdge`` objects built so far, as a list that
    grows by one per construction."""
    built: list[int] = []
    init = WeightedEdge.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedEdge, "__init__", counting)
    return built


# ------------------------------------------------------------ guard tests

def test_offline_path_builds_no_edge_objects(tmp_path, edge_objects):
    G0, b0 = make_random(8, n=60, m=500, W=3, b_max=4, bipartite=True)
    path = str(tmp_path / "g.txt")
    write_graph(path, G0, b0)
    params = EdcsParams(W=3, beta=12, beta_minus=10)
    G, b = read_graph(path)
    relevant = relevant_subgraph(G, b)
    H, _ = build_wb_edcs(G, b, params)
    report = validate(G, b, H, params)
    HG, _ = G.restrict(H.members)
    M = max_weight_b_matching_exact(HG, b)
    assert len(relevant) == G.m and report.is_clean and M.verify(HG, b)
    assert edge_objects == []


@pytest.mark.parametrize("variant", [1, 3])
def test_stream_path_builds_no_edge_objects(variant, edge_objects):
    if variant == 1:
        # four unit-capacity hubs: phase 1 runs and stops on a quiet epoch
        G = MultiGraph(4 + 1250, [(i % 4, 4 + i // 4, 1) for i in range(5000)], W=1)
        b, params, epsilon = Capacities.uniform(G.n), EdcsParams(W=1, beta=6, beta_minus=4), "0.4"
    else:
        # 50 disjoint pairs, each with 200, 100 and 2 copies of weights 1, 2, 3
        triples = [(2 * (j % 50), 2 * (j % 50) + 1, w)
                   for w, copies in ((1, 200), (2, 100), (3, 2)) for j in range(50 * copies)]
        G = MultiGraph(100, triples, W=3)
        b, params, epsilon = Capacities.uniform(G.n), EdcsParams(W=3, beta=3, beta_minus=1), "0.49"
    result = run_with_fallbacks(make_stream(G, 7), b, params, epsilon, variant=variant,
                                check_invariants=True)
    record = result.matching.to_json_dict(G)
    assert result.stats.phase1_edges_consumed > 0 and len(result.X) > 0
    assert record["weight"] == result.matching.weight
    assert edge_objects == []


def test_cli_builds_no_edge_objects(tmp_path, capsys, edge_objects):
    G, b = make_random(9, n=30, m=200, W=3, b_max=3, bipartite=True)
    graph, sub = str(tmp_path / "g.txt"), str(tmp_path / "h.txt")
    write_graph(graph, G, b)
    flags = ["--beta", "6", "--epsilon", "0.2"]
    assert main(["stream", graph, *flags, "--seeds", "1-3", "--jobs", "1"]) == 0
    assert main(["build", graph, *flags, "--out", sub]) == 0
    assert main(["verify", graph, sub, *flags]) == 0
    capsys.readouterr()
    assert edge_objects == []


def test_views_build_edge_objects_once(edge_objects):
    G = MultiGraph(3, [(0, 1, 2), (1, 2, 1)])
    assert edge_objects == []
    assert [(e.id, e.u, e.v, e.w) for e in G.edges] == [(0, 0, 1, 2), (1, 1, 2, 1)]
    assert G.edge(1) is G.edges[1] and G.incident(1) == (0, 1)
    assert len(edge_objects) == 2


# ----------------------------------------------------------------- layout

@pytest.mark.parametrize("seed", range(6))
def test_csr_lists_incident_edges_in_id_order(seed):
    G, _ = make_random(seed, n=30, m=300, W=4, b_max=3, allow_parallel=seed % 2 == 1)
    for x in range(G.n):
        lo, hi = G.indptr[x], G.indptr[x + 1]
        ids = G.adj_edges[lo:hi].tolist()
        expected = [i for i in range(G.m) if x in (G.u[i], G.v[i])]
        assert ids == expected
        assert G.adj_nbrs[lo:hi].tolist() == [int(G.u[i] + G.v[i] - x) for i in ids]
    assert G.indptr[-1] == 2 * G.m


def test_from_columns_checks_as_the_constructor_does():
    for triples, W, message in [
        ([(0, 1, 1), (2, 2, 1), (0, 5, 1)], None, "edge 1: self-loops are not allowed"),
        ([(0, 1, 1), (0, 5, 1), (2, 2, 1)], None, "edge 1: endpoint out of range"),
        ([(0, 1, 1), (0, -1, 1)], None, "edge 1: endpoint out of range"),
        ([(0, 1, 4), (0, 1, 5)], 4, "edge 1: weight 5 outside [1, 4]"),
        ([(0, 1, 1), (0, 1, 0)], None, "edge 1: weight 0 outside [1, 1]"),
        ([(0, 1, 1)], 0, "weight cap W must be at least 1"),
        ([(0, 1, 2**70)], 3, f"edge 0: weight {2**70} outside [1, 3]"),
    ]:
        with pytest.raises(ValueError) as built:
            MultiGraph(3, triples, W=W)
        assert str(built.value) == message
        if max(max(t) for t in triples) < 2**63:
            with pytest.raises(ValueError) as direct:
                u, v, w = np.array(triples).T
                MultiGraph.from_columns(3, u, v, w, W=W)
            assert str(direct.value) == message


def test_columns_use_the_smallest_integer_types():
    G = MultiGraph(300, [(0, 299, 1), (5, 6, 200)])
    assert (G.u.dtype, G.v.dtype, G.w.dtype) == (np.int16, np.int16, np.int16)
    assert MultiGraph(3, [(0, 1, 2)]).w.dtype == np.int8


# ------------------------------------------------- object-code references

def reference_bipartition_sides(G: MultiGraph) -> list[int] | None:
    """The depth-first 2-coloring over ``WeightedEdge.other``."""
    color = [-1] * G.n
    for start in range(G.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for eid in G.adjacency[x]:
                y = G.edges[eid].other(x)
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    return color


def reference_bipartite_b_matching(G: MultiGraph, b: Capacities, sides) -> BMatching:
    """Classes grouped in a dict in order of first appearance."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for e in G.edges:
        u, v = (e.u, e.v) if sides[e.u] == 0 else (e.v, e.u)
        groups.setdefault((u, v, e.w), []).append(e.id)
    classes = [(u, v, w, len(ids)) for (u, v, w), ids in groups.items()]
    x, y = _primal_dual(np.array(classes, dtype=np.int64), b, G.n)
    weight = _check_certificate(classes, x, y, b)
    chosen = [i for ids, taken in zip(groups.values(), x) for i in ids[:taken]]
    return BMatching(sorted(chosen), weight)


def _path_and_cycles(k: int) -> MultiGraph:
    # a long path 0..k-1 and a triangle on three more vertices
    triples = [(i, i + 1, 1 + i % 3) for i in range(k - 1)]
    return MultiGraph(k + 3, triples + [(k, k + 1, 1), (k + 1, k + 2, 1), (k, k + 2, 1)])


def test_bipartition_matches_the_depth_first_coloring():
    graphs = [make_random(s, n=40, m=60, W=3, b_max=2, bipartite=s % 2 == 0)[0]
              for s in range(20)]
    graphs += [make_random(s, n=30, m=10, W=2)[0] for s in range(10)]  # many components
    graphs += [MultiGraph(5, []), MultiGraph(0, []), _path_and_cycles(400),
               MultiGraph(400, [(i, i + 1, 1) for i in range(399)])]
    colored = 0
    for G in graphs:
        sides = bipartition_sides(G)
        assert sides == reference_bipartition_sides(G)
        colored += sides is not None
    assert 0 < colored < len(graphs)


@pytest.mark.parametrize("seed", range(30))
def test_class_grouping_matches_the_dict_reference(seed):
    # raw multiplicities give classes of many parallel equal-weight edges
    parallel = seed % 3 != 0
    G, b = make_random(seed, n=20 + seed, m=40 * (seed + 1) if parallel else 90,
                       W=1 + seed % 4, b_max=1 + seed % 5, bipartite=True,
                       allow_parallel=parallel)
    sides = bipartition_sides(G)
    got = bipartite_b_matching(G, b, sides)
    want = reference_bipartite_b_matching(G, b, sides)
    assert (got.edge_ids, got.weight) == (want.edge_ids, want.weight)


def test_matching_json_holds_python_ints():
    G, b = make_random(4, n=20, m=80, W=3, b_max=2, bipartite=True)
    record = max_weight_b_matching_exact(G, b).to_json_dict(G)
    assert json.loads(json.dumps(record)) == record
    for e in record["edges"]:
        assert all(type(e[k]) is int for k in ("u", "v", "w", "id"))
        assert (e["u"], e["v"], e["w"]) == G.triple(e["id"])


def test_random_instance_keeps_its_arrays():
    G, _ = random_instance(GenSpec(seed=3, n=50, m=400, W=3, b_max=3, bipartite=True))
    assert G.m == 400 and G.u.dtype == np.int8 and G.indptr[-1] == 800
