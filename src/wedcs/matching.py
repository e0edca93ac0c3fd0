"""Maximum-weight b-matching solvers and supporting constructions.

The exact solver is the yardstick the rest of the package is measured
against.  Non-bipartite instances go through a budgeted branch-and-bound;
bipartite instances (detected by 2-coloring) go through a weight-level
primal-dual method that stays exact at sizes branch-and-bound cannot
reach and proves each answer with a König–Egerváry dual certificate,
checked in integers.  Both are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import Capacities, MultiGraph, Subgraph, _first_crowded_pair, _int_type, _pair_limits

__all__ = [
    "BMatching",
    "OracleBudgetExceeded",
    "DEFAULT_ORACLE_BUDGET",
    "bipartition_sides",
    "max_weight_b_matching_exact",
    "branch_and_bound_b_matching",
    "bipartite_b_matching",
    "max_weight_b_matching_greedy",
    "distribute_edges",
    "split_vertices",
    "SplitResult",
]

DEFAULT_ORACLE_BUDGET = 2_000_000


class OracleBudgetExceeded(RuntimeError):
    """Raised when a search-based solver hits its node budget."""


@dataclass
class BMatching:
    """An edge multiset respecting the capacities, with its total weight."""

    edge_ids: list[int]
    weight: int

    def verify(self, G: MultiGraph, b: Capacities) -> bool:
        ids = np.asarray(self.edge_ids, dtype=np.int64)
        if len(np.unique(ids)) != len(ids):
            return False
        load = np.bincount(G.u[ids], minlength=G.n) + np.bincount(G.v[ids], minlength=G.n)
        total = int(G.w[ids].sum(dtype=np.int64))
        return total == self.weight and bool((load <= np.asarray(b.b)).all())

    def to_json_dict(self, G: MultiGraph) -> dict:
        ids = np.asarray(self.edge_ids, dtype=np.int64)
        return {
            "edges": [
                {"u": u, "v": v, "w": w, "id": i}
                for u, v, w, i in zip(G.u[ids].tolist(), G.v[ids].tolist(),
                                      G.w[ids].tolist(), self.edge_ids)
            ],
            "weight": self.weight,
        }


def bipartition_sides(G: MultiGraph) -> list[int] | None:
    """2-coloring of the vertices, or None if some component is odd.

    The smallest vertex of every component gets color 0, and the rest the
    parity of their distance from it.  Breadth-first search over the CSR
    adjacency, one array step per level: every vertex of a level has the
    same color, so an edge inside a level is an odd cycle."""
    ptr, nbrs = G.indptr, G.adj_nbrs
    color = np.full(G.n, -1, dtype=np.int8)
    color[ptr[1:] == ptr[:-1]] = 0  # isolated vertices
    for start in np.flatnonzero(color < 0).tolist():
        if color[start] >= 0:
            continue
        color[start] = c = 0
        level = np.array([start])
        while level.size:
            lo, count = ptr[level], ptr[level + 1] - ptr[level]
            starts = np.cumsum(count) - count
            near = nbrs[np.repeat(lo - starts, count) + np.arange(starts[-1] + count[-1])]
            seen = color[near]
            if (seen == c).any():
                return None
            c ^= 1
            fresh = near[seen < 0]
            color[fresh] = c
            level = np.flatnonzero(np.bincount(fresh, minlength=G.n))
    return color.tolist()


def max_weight_b_matching_exact(G: MultiGraph, b: Capacities,
                                budget: int = DEFAULT_ORACLE_BUDGET) -> BMatching:
    """Exact maximum-weight b-matching.

    Bipartite inputs are solved by the certified primal-dual method
    regardless of size; everything else by branch-and-bound within ``budget`` search
    nodes (raising :class:`OracleBudgetExceeded` beyond it).
    """
    sides = bipartition_sides(G)
    if sides is not None:
        return bipartite_b_matching(G, b, sides)
    return branch_and_bound_b_matching(G, b, budget)


def max_weight_b_matching_greedy(G: MultiGraph, b: Capacities) -> BMatching:
    """Scan edges by descending weight (ties by id), keep those with
    residual capacity at both endpoints.  At least half the optimum."""
    residual = list(b.b)
    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()
    chosen: list[int] = []
    weight = 0
    for eid in np.argsort(-G.w.astype(np.int64), kind="stable").tolist():
        u, v = eu[eid], ev[eid]
        if residual[u] > 0 and residual[v] > 0:
            residual[u] -= 1
            residual[v] -= 1
            chosen.append(eid)
            weight += ew[eid]
    return BMatching(sorted(chosen), weight)


def branch_and_bound_b_matching(G: MultiGraph, b: Capacities, budget: int) -> BMatching:
    """Include/exclude search over edges in id order.

    Prunes with two admissible bounds: the plain suffix weight, and half
    the capacity-truncated incident weight sum (each vertex can absorb at
    most its residual capacity of heaviest remaining edges, each edge is
    counted at both endpoints).  The greedy solution seeds the incumbent.
    """
    m = G.m
    if m == 0:
        return BMatching([], 0)
    incumbent = max_weight_b_matching_greedy(G, b)
    best_weight = incumbent.weight
    best_set = list(incumbent.edge_ids)
    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()

    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ew[i]

    residual = list(b.b)
    chosen: list[int] = []
    nodes = 0

    def truncated_bound(k: int) -> int:
        per_vertex: dict[int, list[int]] = {}
        for i in range(k, m):
            u, v = eu[i], ev[i]
            if residual[u] > 0 and residual[v] > 0:
                per_vertex.setdefault(u, []).append(ew[i])
                per_vertex.setdefault(v, []).append(ew[i])
        total = 0
        for v, ws in per_vertex.items():
            r = residual[v]
            if len(ws) > r:
                ws.sort(reverse=True)
                total += sum(ws[:r])
            else:
                total += sum(ws)
        return total // 2

    def dfs(k: int, cur: int) -> None:
        nonlocal nodes, best_weight, best_set
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(
                f"instance too large for exact oracle (budget {budget} nodes)")
        if k == m:
            if cur > best_weight:
                best_weight = cur
                best_set = sorted(chosen)
            return
        if cur + suffix[k] <= best_weight:
            return
        if cur + truncated_bound(k) <= best_weight:
            return
        u, v = eu[k], ev[k]
        if residual[u] > 0 and residual[v] > 0:
            residual[u] -= 1
            residual[v] -= 1
            chosen.append(k)
            dfs(k + 1, cur + ew[k])
            chosen.pop()
            residual[u] += 1
            residual[v] += 1
        dfs(k + 1, cur)

    dfs(0, 0)
    return BMatching(best_set, best_weight)


def bipartite_b_matching(G: MultiGraph, b: Capacities,
                         sides: Sequence[int] | None = None) -> BMatching:
    """Exact solver for bipartite multigraphs by a weight-level primal-dual
    method that checks its own König–Egerváry certificate.

    Edges collapse into the classes of :func:`_classes`; a class may
    take at most its multiplicity of edges, and takes its lowest ids.
    Every left vertex with an edge starts at label W (the heaviest class
    weight), every right vertex at 0.  Each of W rounds augments a
    maximum flow along shortest paths of tight classes (y_u + y_v = w),
    then lowers the labels of the left vertices the last search reached
    and raises those of the right vertices it reached.  The labels y, with
    z = max(0, w - y_u - y_v) per class, are the certificate: a dual
    solution whose value sum(b_v * y_v) + sum(mult * z) equals the
    matching's weight, checked in integers before returning.
    """
    if sides is None:
        sides = bipartition_sides(G)
        if sides is None:
            raise ValueError("graph is not bipartite")
    classes, cls, rank = _classes(G, sides)
    if G.m == 0:
        return BMatching([], 0)
    x, y = _primal_dual(classes, b, G.n)
    weight = _check_certificate(classes, x, y, b)
    # each class takes its x lowest ids
    result = BMatching(np.flatnonzero(rank < np.asarray(x)[cls]).tolist(), weight)
    if not result.verify(G, b):
        raise RuntimeError("primal-dual solution failed verification")  # pragma: no cover
    return result


def _classes(G: MultiGraph, sides: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G's edges collapsed into (u, v, w) classes with u on the left
    (``sides[u] == 0``), grouped by one sort of the columns.

    Returns one row (left vertex, right vertex, weight, multiplicity) per
    class, classes numbered in order of their smallest edge id, and per
    edge id its class and its rank among its class's ids.  Raises
    ``ValueError`` when an edge does not cross the bipartition.
    """
    side = np.asarray(sides)
    on_left = side[G.u] == 0
    crossing = np.flatnonzero(side[G.u] == side[G.v])
    if crossing.size:
        raise ValueError(f"edge {int(crossing[0])} does not cross the given bipartition")
    m = G.m
    left = np.where(on_left, G.u, G.v)
    right = np.where(on_left, G.v, G.u)
    # sorted by class, ids ascending within each (lexsort is stable)
    by = np.lexsort((G.w, right, left))
    keys = (left[by], right[by], G.w[by])
    fresh = np.zeros(m, dtype=bool)
    fresh[:1] = True
    for key in keys:
        fresh[1:] |= key[1:] != key[:-1]
    heads = np.flatnonzero(fresh)           # each class's first position
    appear = np.argsort(by[heads])          # classes by their smallest edge id
    mult = np.diff(np.append(heads, m))
    classes = np.column_stack([key[heads] for key in keys] + [mult]).astype(np.int64)[appear]
    number = np.empty(len(heads), dtype=np.int64)
    number[appear] = np.arange(len(heads))
    at = np.cumsum(fresh) - 1               # class of each sorted position, by sort order
    cls = np.empty(m, dtype=_int_type(len(heads)))
    cls[by] = number[at]
    rank = np.empty(m, dtype=_int_type(int(mult.max(initial=0))))
    rank[by] = np.arange(m) - heads[at]
    return classes, cls, rank


def _primal_dual(classes: np.ndarray, b: Capacities, n: int) -> tuple[list[int], list[int]]:
    """Class counts x and vertex labels y for :func:`bipartite_b_matching`;
    row c of ``classes`` is (left vertex, right vertex, weight,
    multiplicity).

    Invariants: a class below its multiplicity has y_u + y_v >= w, a class
    in use has y_u + y_v <= w, a right vertex with a positive label is
    full, and left loads never fall.  A free left vertex is a source of
    every search, so it loses one unit per round and ends at 0; the
    invariants then are complementary slackness.
    """
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
            _blocking_flow(sources, dist, tight, cu, cv, mult, x, load, cap)
        for a in reached:
            y[a] += 1 if dist[a] & 1 else -1
    return x, y


def _blocking_flow(sources: list[int], dist: list[int], tight: list[list[int]],
                   cu: list[int], cv: list[int], mult: list[int], x: list[int],
                   load: list[int], cap: list[int]) -> None:
    """Augment along layered shortest paths until none is left.

    Iterative depth-first search with a current-arc pointer per vertex
    (paths can be as long as the graph); a vertex with no way forward is
    marked dead (``dist = -2``) for the rest of the phase.
    """
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


def _check_certificate(classes, x: Sequence[int], y: Sequence[int], b: Capacities) -> int:
    """The matching's weight, once (x, y) is proven optimal in integers.

    ``classes`` holds one row (u, v, w, multiplicity) per class.  x must be
    feasible (0 <= x <= mult per class, load <= b per vertex) and y
    non-negative; with z = max(0, w - y_u - y_v) per class, (y, z) is then
    a feasible dual, so sum(b_v * y_v) + sum(mult * z) bounds every
    b-matching's weight, and equality with x's weight proves x optimal.
    The class terms are summed in int64, where they are bounded by
    m * W; the label term in Python integers.  Raises ``RuntimeError`` on
    any mismatch.
    """
    u, v, w, mult = np.asarray(classes, dtype=np.int64).reshape(-1, 4).T
    taken = np.asarray(x, dtype=np.int64)
    labels = np.asarray(y, dtype=np.int64)
    bad = np.flatnonzero((taken < 0) | (taken > mult))
    if bad.size:
        c = bad[0]
        raise RuntimeError(f"class ({u[c]}, {v[c]}, {w[c]}) takes {taken[c]} of its {mult[c]} edges")
    n = len(y)
    load = np.bincount(u, taken, minlength=n) + np.bincount(v, taken, minlength=n)
    bad = np.flatnonzero((load > np.asarray(b.b[:n])) | (labels < 0))
    if bad.size:
        a = bad[0]
        if load[a] > b[a]:
            raise RuntimeError(f"vertex {a} carries {int(load[a])} edges, capacity {b[a]}")
        raise RuntimeError(f"vertex {a} has negative label {y[a]}")
    primal = int((w * taken).sum())
    dual = sum(bv * yv for bv, yv in zip(b.b, y))
    dual += int((mult * np.maximum(0, w - labels[u] - labels[v])).sum())
    if dual != primal:
        raise RuntimeError(f"dual bound {dual} does not certify matching weight {primal}")
    return primal


def distribute_edges(groups: Sequence[Sequence[tuple[int, int, bool]]],
                     bucket_count: int) -> list[list[tuple[int, int, bool]]]:
    """Distribute grouped incident edges into ``bucket_count`` buckets.

    ``groups`` holds one list per neighboring vertex; each item is
    ``(edge_id, weight, is_matched)`` with the matched edges first and
    weights non-increasing.  Two greedy passes per group: matched edges go
    to the lightest buckets that never received a matched edge, remaining
    edges to the lightest other buckets.  The result satisfies

      * at most one matched edge per bucket,
      * at most one edge per (bucket, group) pair,
      * bucket weights spread over at most twice the maximum edge weight.
    """
    if bucket_count < 1:
        raise ValueError("bucket_count must be >= 1")
    total_matched = 0
    for g in groups:
        if len(g) > bucket_count:
            raise ValueError(f"group of size {len(g)} exceeds bucket count {bucket_count}")
        past_matched = False
        for j, (eid, w, matched) in enumerate(g):
            if j > 0 and g[j - 1][1] < w:
                raise ValueError("group weights must be non-increasing")
            if matched and past_matched:
                raise ValueError("matched edges must form a prefix of their group")
            if not matched:
                past_matched = True
        total_matched += sum(1 for item in g if item[2])
    if total_matched > bucket_count:
        raise ValueError("more matched edges than buckets")

    buckets: list[list[tuple[int, int, bool]]] = [[] for _ in range(bucket_count)]
    load = [0] * bucket_count
    used_for_matching = [False] * bucket_count
    for g in groups:
        m_u = sum(1 for item in g if item[2])
        fresh = sorted((i for i in range(bucket_count) if not used_for_matching[i]),
                       key=lambda i: (load[i], i))[:m_u]
        for j in range(m_u):
            i = fresh[j]
            buckets[i].append(g[j])
            load[i] += g[j][1]
            used_for_matching[i] = True
        taken = set(fresh)
        rest = sorted((i for i in range(bucket_count) if i not in taken),
                      key=lambda i: (load[i], i))[:len(g) - m_u]
        for j in range(m_u, len(g)):
            i = rest[j - m_u]
            buckets[i].append(g[j])
            load[i] += g[j][1]
    return buckets


@dataclass
class SplitResult:
    """Outcome of :func:`split_vertices`.

    ``vertex_map[x]`` gives ``(original vertex, copy index)`` for split
    vertex ``x``; ``edge_origin[j]`` the original edge id behind split
    edge ``j``; ``matched_split_ids`` the split edges carrying the
    (normalized) input matching, which form a simple matching.
    """

    graph: MultiGraph
    subgraph: Subgraph
    vertex_map: list[tuple[int, int]]
    edge_origin: list[int]
    matched_split_ids: list[int] = field(default_factory=list)


def split_vertices(G: MultiGraph, b: Capacities, H: Subgraph, M: BMatching) -> SplitResult:
    """Expand each vertex v into b_v copies and spread H and M's edges
    over the copies so that the result is a simple graph.

    Any matching of the split subgraph folds back to a b-matching of H of
    equal weight, and the input matching survives as a simple matching.
    Within each parallel class the matched labels are first normalized
    onto the heaviest edges (a swap between same-endpoint edges, so for a
    maximum-weight M this keeps the weight unchanged).
    """
    if H.parent is not G:
        raise ValueError("H must be a subgraph of G")
    if not M.verify(G, b):
        raise ValueError("M is not a b-matching of G")
    crowded = _first_crowded_pair(G, _pair_limits(G, b))
    if crowded is not None:
        u, v, _ = G.triple(crowded[0])
        raise ValueError(f"pair ({min(u, v)}, {max(u, v)}) exceeds min(b_u, b_v) parallel edges")

    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()
    union_ids = sorted(H.members | set(M.edge_ids))
    in_matching = set(M.edge_ids)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid in union_ids:
        by_pair.setdefault((min(eu[eid], ev[eid]), max(eu[eid], ev[eid])), []).append(eid)
    matched_norm: set[int] = set()
    for ids in by_pair.values():
        k = sum(1 for i in ids if i in in_matching)
        ranked = sorted(ids, key=lambda i: (-ew[i], i))
        matched_norm.update(ranked[:k])

    union_at: list[list[int]] = [[] for _ in range(G.n)]
    for eid in union_ids:
        union_at[eu[eid]].append(eid)
        union_at[ev[eid]].append(eid)

    copy_of: dict[tuple[int, int], int] = {}
    for v in range(G.n):
        by_neighbor: dict[int, list[int]] = {}
        for eid in union_at[v]:
            by_neighbor.setdefault(eu[eid] + ev[eid] - v, []).append(eid)
        groups = []
        for u in sorted(by_neighbor):
            ids = sorted(by_neighbor[u],
                         key=lambda i: (i not in matched_norm, -ew[i], i))
            groups.append([(i, ew[i], i in matched_norm) for i in ids])
        buckets = distribute_edges(groups, b[v])
        for i, bucket in enumerate(buckets):
            for eid, _, _ in bucket:
                copy_of[(eid, v)] = i

    offsets = [0] * (G.n + 1)
    for v in range(G.n):
        offsets[v + 1] = offsets[v] + b[v]
    vertex_map = [(v, i) for v in range(G.n) for i in range(b[v])]
    triples = []
    edge_origin = []
    for eid in union_ids:
        u, v = eu[eid], ev[eid]
        triples.append((offsets[u] + copy_of[(eid, u)], offsets[v] + copy_of[(eid, v)], ew[eid]))
        edge_origin.append(eid)
    split_graph = MultiGraph(offsets[-1], triples, W=G.W)
    split_sub = Subgraph(split_graph,
                         [j for j, eid in enumerate(edge_origin) if eid in H.members])
    matched_split = [j for j, eid in enumerate(edge_origin) if eid in matched_norm]

    if _first_crowded_pair(split_graph, 1) is not None:
        raise RuntimeError("split graph is not simple")
    if max(Subgraph(split_graph, matched_split).deg, default=0) > 1:
        raise RuntimeError("matching did not map to a simple matching")
    W = G.W
    split_wdeg = Subgraph(split_graph, range(split_graph.m)).wdeg
    for x, total in enumerate(split_wdeg):
        v, _ = vertex_map[x]
        # full distributed weight: wdeg_H(v)/b_v - 2W <= . <= wdeg_H(v)/b_v + 3W
        if not (H.wdeg[v] - 2 * W * b[v] <= total * b[v] <= H.wdeg[v] + 3 * W * b[v]):
            raise RuntimeError(f"split copy {x} outside its weighted-degree window")

    return SplitResult(split_graph, split_sub, vertex_map, edge_origin, matched_split)
