"""The columnar graph: construction checks, narrow column types, and the
array code that reads the columns.

The reference implementations below are the package's earlier
object-per-edge code, kept here, over the columns, to check the array
code against.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from wedcs import (
    Capacities,
    GenSpec,
    MultiGraph,
    bipartition_sides,
    max_weight_b_matching_exact,
    random_instance,
)
from wedcs.matching import BMatching, _primal_dual, _proven

from helpers import incident_ids, make_random, triples


# ----------------------------------------------------------------- layout

def test_from_columns_checks_as_the_constructor_does():
    for triples, W, message in [
        ([(0, 1, 1), (2, 2, 1), (0, 5, 1)], None, "edge 1: self-loops are not allowed"),
        ([(0, 1, 1), (0, 5, 1), (2, 2, 1)], None, "edge 1: endpoint out of range"),
        ([(0, 1, 1), (0, -1, 1)], None, "edge 1: endpoint out of range"),
        ([(0, 1, 4), (0, 1, 5)], 4, "edge 1: weight 5 outside [1, 4]"),
        ([(0, 1, 1), (0, 1, 0)], None, "edge 1: weight 0 outside [1, 1]"),
        ([(0, 1, 1)], 0, "weight cap W must be at least 1"),
        ([(0, 1, 2**70)], 3, f"edge 0: weight {2**70} outside [1, 3]"),
        ([(0, 1, 1.5), (1, 2, 2)], None, "edge 0: weight 1.5 is not an integer"),
        ([(0, 1, 2.9), (1, 2, 1.0)], None, "edge 0: weight 2.9 is not an integer"),
        ([(0, 1, 2), (1, 2.5, 2)], None, "edge 1: endpoint 2.5 is not an integer"),
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
    """The depth-first 2-coloring over per-vertex incident edge lists."""
    at = incident_ids(G)
    color = [-1] * G.n
    for start in range(G.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for eid in at[x]:
                u, v, _ = G.triple(eid)
                y = v if x == u else u
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    return color


def reference_bipartite_b_matching(G: MultiGraph, b: Capacities, sides) -> BMatching:
    """Classes grouped in a dict in order of first appearance."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for eid, (u, v, w) in enumerate(triples(G)):
        u, v = (u, v) if sides[u] == 0 else (v, u)
        groups.setdefault((u, v, w), []).append(eid)
    classes = [(u, v, w, len(ids)) for (u, v, w), ids in groups.items()]
    x, y = _primal_dual(np.array(classes, dtype=np.int64), b, G.n)
    chosen = [i for ids, taken in zip(groups.values(), x) for i in ids[:taken]]
    return _proven(G, b, np.array(sorted(chosen), dtype=np.int64), y)


def _path_and_cycles(k: int) -> MultiGraph:
    # a long path 0..k-1 and a triangle on three more vertices
    triples = [(i, i + 1, 1 + i % 3) for i in range(k - 1)]
    return MultiGraph(k + 3, triples + [(k, k + 1, 1), (k + 1, k + 2, 1), (k, k + 2, 1)])


def test_bipartition_matches_the_depth_first_coloring():
    graphs = [make_random(s, n=40, m=60, W=3, b_max=2, bipartite=s % 2 == 0)[0]
              for s in range(20)]
    graphs += [make_random(s, n=30, m=10, W=2)[0] for s in range(10)]  # many components
    graphs += [make_random(s, n=30, m=300, W=4, b_max=3, allow_parallel=s % 2 == 1)[0]
               for s in range(6)]
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
    got = max_weight_b_matching_exact(G, b)
    want = reference_bipartite_b_matching(G, b, bipartition_sides(G))
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
    assert G.m == 400 and G.u.dtype == np.int8
