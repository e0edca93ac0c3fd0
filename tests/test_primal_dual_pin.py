"""The bipartite solver's class counts x and labels y, pinned to the
list-based search the package first shipped.

``reference_primal_dual`` is that search, kept verbatim (per-vertex Python
lists of tight classes, a level-by-level BFS, and a depth-first blocking
flow with current-arc pointers).  Every test here asserts that
``matching._primal_dual`` returns exactly its (x, y): the same maximum
b-matching, class by class, and the same König–Egerváry labels.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import wedcs.matching as matching
from wedcs import (Capacities, EdcsParams, MultiGraph, bipartition_sides, build_wb_edcs,
                   make_stream, max_weight_b_matching_exact, run_single_pass,
                   run_with_fallbacks, write_graph)
from wedcs.cli import main as cli_main
from wedcs.graph import _int_type
from wedcs.matching import _classes, _primal_dual

from helpers import make_random


def reference_primal_dual(classes: np.ndarray, b: Capacities, n: int) -> tuple[list[int], list[int]]:
    cap = [b[v] for v in range(n)]
    # endpoints through one shared int object per vertex (tolist would
    # make one per class) and class ids likewise, one per class
    vertex = np.array(range(n), dtype=object)
    cu, cv = vertex[classes[:, 0]].tolist(), vertex[classes[:, 1]].tolist()
    mult = classes[:, 3].tolist()
    class_id = np.array(range(len(classes)), dtype=object)
    x = [0] * len(cu)
    y = [0] * n
    load = [0] * n
    lefts = np.flatnonzero(np.bincount(classes[:, 0], minlength=n)).tolist()
    w_max = int(classes[:, 2].max())
    for u in lefts:
        y[u] = w_max

    # the classes by left and by right endpoint, in class order at each
    ends = [classes[:, k] for k in (0, 1)]
    by_end = [np.argsort(end.astype(_int_type(n)), kind="stable") for end in ends]

    for _ in range(w_max):
        # labels are fixed within a round, so the tight classes are too;
        # tight[a] lists them at vertex a in class order
        labels = np.asarray(y)
        is_tight = labels[ends[0]] + labels[ends[1]] == classes[:, 2]
        tight: list = [()] * n
        for end, order in zip(ends, by_end):
            ids = order[is_tight[order]]
            grouped = class_id[ids].tolist()
            lo = 0
            for a, hi in enumerate(np.cumsum(np.bincount(end[ids], minlength=n)).tolist()):
                if hi > lo:
                    tight[a] = grouped[lo:hi]
                lo = hi
        while True:
            # BFS layers over the tight residual graph: left vertices at even
            # depth (forward arcs, x < mult), right ones at odd (backward, x > 0)
            dist = [-1] * n
            frontier = [u for u in lefts if load[u] < cap[u]]
            for u in frontier:
                dist[u] = 0
            sources = frontier
            reached = list(frontier)
            depth = 0
            found = False
            while frontier:
                rights: list[int] = []
                for u in frontier:
                    for c in tight[u]:
                        v = cv[c]
                        if dist[v] < 0 and x[c] < mult[c]:
                            dist[v] = depth + 1
                            rights.append(v)
                            if load[v] < cap[v]:
                                found = True
                reached += rights
                if found:
                    break
                frontier = []
                for v in rights:
                    for c in tight[v]:
                        u = cu[c]
                        if dist[u] < 0 and x[c] > 0:
                            dist[u] = depth + 2
                            frontier.append(u)
                reached += frontier
                depth += 2
            if not found:
                break
            _reference_blocking_flow(sources, dist, tight, cu, cv, mult, x, load, cap)
        for a in reached:
            y[a] += 1 if dist[a] & 1 else -1
    return x, y


def _reference_blocking_flow(sources: list[int], dist: list[int], tight: list[list[int]],
                             cu: list[int], cv: list[int], mult: list[int], x: list[int],
                             load: list[int], cap: list[int]) -> None:
    ptr = [0] * len(dist)
    for s in sources:
        while load[s] < cap[s]:
            stack = [s]
            path: list[int] = []
            while stack:
                a = stack[-1]
                da = dist[a]
                if da & 1 and load[a] < cap[a]:
                    break  # a right vertex with room: the sink
                arcs = tight[a]
                i = ptr[a]
                nxt = -1
                if da & 1:
                    while i < len(arcs):
                        c = arcs[i]
                        if x[c] > 0 and dist[cu[c]] == da + 1:
                            nxt = cu[c]
                            break
                        i += 1
                else:
                    while i < len(arcs):
                        c = arcs[i]
                        if x[c] < mult[c] and dist[cv[c]] == da + 1:
                            nxt = cv[c]
                            break
                        i += 1
                ptr[a] = i
                if nxt < 0:
                    dist[a] = -2
                    stack.pop()
                    if path:
                        path.pop()
                else:
                    stack.append(nxt)
                    path.append(arcs[i])
            if not stack:
                break
            t = stack[-1]
            delta = min(cap[s] - load[s], cap[t] - load[t])
            for j, c in enumerate(path):
                delta = min(delta, x[c] if j & 1 else mult[c] - x[c])
            for j, c in enumerate(path):
                x[c] += -delta if j & 1 else delta
            load[s] += delta
            load[t] += delta


def assert_pinned(classes: np.ndarray, b: Capacities, n: int) -> None:
    x, y = _primal_dual(classes, b, n)
    ref_x, ref_y = reference_primal_dual(classes, b, n)
    assert x.tolist() == ref_x
    assert y.tolist() == ref_y


def assert_graph_pinned(G: MultiGraph, b: Capacities) -> None:
    classes, _, _ = _classes(G, bipartition_sides(G))
    assert_pinned(classes, b, G.n)


W_CHOICES = (1, 2, 3, 5, 127)


@pytest.mark.parametrize("block", range(5))
def test_random_instances_match_the_reference(block):
    # 260 instances: every weight range, b up to 8, half with raw
    # multiplicities, and n often above what m edges can touch
    for seed in range(block * 52, (block + 1) * 52):
        W = W_CHOICES[seed % 5]
        b_max = 1 + seed % 8
        n = 4 + seed % 37
        m = 1 + (seed * 7) % min(90, n // 2 * (n - n // 2))  # at most one edge a pair
        G, b = make_random(seed, n=n, m=m, W=W, b_max=b_max, b_min=1 + seed % 2 * (b_max > 2),
                           bipartite=True, allow_parallel=seed % 2 == 1)
        if G.m:
            assert_graph_pinned(G, b)


@pytest.mark.parametrize("b_left, b_right, copies", [(2, 3, 5), (1, 1, 4), (4, 2, 3)])
def test_one_class_above_its_capacities(b_left, b_right, copies):
    G = MultiGraph(3, [(0, 1, 4)] * copies)  # vertex 2 is isolated
    assert_graph_pinned(G, Capacities([b_left, b_right, 1]))


def test_long_augmenting_path_matches_the_reference():
    # the graph of test_matching.test_bipartite_long_augmenting_path
    k = 3000
    left = [2 * (k - 1 - i) for i in range(k)]
    right = [2 * i + 1 for i in range(k)]
    triples = [(left[i + 1], right[i], 1) for i in range(k - 1)]
    triples += [(left[i], right[i], 1) for i in range(k)]
    G = MultiGraph(2 * k, triples)
    assert_graph_pinned(G, Capacities.uniform(G.n))


# Left vertices are even, right ones odd; classes are numbered by first
# edge.  At W = 1 the first phase gives left 0 right 1 and left 2 right 3
# and leaves left 4 free (both its classes lead to full vertices).  The
# second phase reaches right 3 and left 2 from left 4, but left 2 has no
# residual arc onward, so neither has a layered path to the free right 5
# at level 3; the search must still reach 5 through 1 and 0.
DEAD_BRANCH = [(0, 1, 1), (2, 3, 1), (4, 3, 1), (4, 1, 1), (0, 5, 1)]


@pytest.mark.parametrize("triples, n, caps", [
    (DEAD_BRANCH, 6, None),
    # right 7 at the last level is full (left 6 holds it), so it is reached but dead
    (DEAD_BRANCH + [(6, 7, 1), (2, 7, 1)], 8, None),
    # the second phase ends at level 5 (4 -> 1 -> 0 -> 7 -> 6 -> 5) and its
    # dead branch 4 -> 3 -> 2 -> 9 -> 8 is four levels deep
    ([(0, 1, 1), (2, 3, 1), (6, 7, 1), (8, 9, 1), (4, 3, 1), (4, 1, 1), (0, 7, 1), (6, 5, 1),
      (2, 9, 1)], 10, None),
    # capacity two at a source and at a sink
    ([(0, 1, 1), (2, 1, 1), (2, 3, 1), (0, 3, 1)], 4, [2, 1, 1, 2]),
    # weights 2 and 1: the dead branches appear in the second round
    ([(0, 1, 2), (2, 3, 2), (4, 3, 2), (4, 1, 1), (0, 5, 1), (2, 5, 2), (6, 5, 1)], 7, None),
])
def test_dead_branches_match_the_reference(triples, n, caps):
    G = MultiGraph(n, triples)
    assert_graph_pinned(G, Capacities(caps) if caps else Capacities.uniform(n))


@pytest.mark.parametrize("seed", range(6))
def test_unit_weight_grids_match_the_reference(seed):
    # dense unit-weight graphs at unit capacity: long phases, many dead ends
    G, b = make_random(1000 + seed, n=60, m=150, W=1, bipartite=True)
    assert_graph_pinned(G, b)


@pytest.fixture
def recorded(monkeypatch):
    """The (classes, b, n) of every exact bipartite solve while active."""
    calls = []

    def spy(classes, b, n):
        calls.append((classes.copy(), b, n))
        return _primal_dual(classes, b, n)

    monkeypatch.setattr(matching, "_primal_dual", spy)
    return calls


def _check_recorded(calls, count: int) -> None:
    assert len(calls) == count
    for classes, b, n in calls:
        assert_pinned(classes, b, n)


# the smoke sizes of the four benchmark workloads (perfbench/bench_workloads.py)
def test_offline_build_solves_match_the_reference(recorded):
    G, b = make_random(11, n=40, m=150, W=3, b_max=4, bipartite=True)
    max_weight_b_matching_exact(G, b)
    H, _ = build_wb_edcs(G, b, EdcsParams(W=3, beta=12, beta_minus=10))
    max_weight_b_matching_exact(G.restrict(H.members)[0], b)
    _check_recorded(recorded, 2)    # G and H, each its own graph


def test_stream_fallback_solves_match_the_reference(recorded):
    G, b = make_random(12, n=40, m=150, W=3, b_max=4, bipartite=True)
    max_weight_b_matching_exact(G, b)
    params = EdcsParams(W=3, beta=12, beta_minus=10)
    run_with_fallbacks(make_stream(G, 5), b, params, Fraction(1, 10), variant=1)
    # the stream ends in small_output and reads G's solved answer
    _check_recorded(recorded, 1)


def test_stream_multiplicity_solves_match_the_reference(recorded):
    G, b = make_random(13, n=12, m=600, W=3, b_max=3, bipartite=True, allow_parallel=True)
    max_weight_b_matching_exact(G, b)
    params = EdcsParams(W=3, beta=3, beta_minus=1)
    for seed in (5, 6):
        run_single_pass(make_stream(G, seed), b, params, Fraction(49, 100), variant=3)
    # both streams end in alpha_zero with H | X all of G, which is G itself
    _check_recorded(recorded, 1)


def test_cli_stream_solves_match_the_reference(recorded, tmp_path):
    G, b = make_random(14, n=12, m=600, W=3, b_max=3, bipartite=True, allow_parallel=True)
    path = tmp_path / "graph.txt"
    write_graph(str(path), G, b)
    code = cli_main(["stream", str(path), "--beta", "3", "--beta-minus", "1",
                     "--epsilon", "0.49", "--seeds", "5,6", "--variant", "3",
                     "--out", str(tmp_path / "report")])
    assert code == 0
    # the oracle and both small_output streams share G's one solve
    _check_recorded(recorded, 1)
