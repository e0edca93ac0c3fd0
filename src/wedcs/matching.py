"""Maximum-weight b-matching solvers.

The exact solver, :func:`max_weight_b_matching_exact`, is the yardstick
the rest of the package is measured against, and the one entry into both
exact routes.  Non-bipartite instances go through a budgeted
branch-and-bound; bipartite instances (detected by 2-coloring) go through
a weight-level primal-dual method that stays exact at sizes
branch-and-bound cannot reach.  It solves the input's relevant subgraph,
lifts the labels of its König–Egerváry dual until they cover every edge
of the input, and proves each answer with them over the caller's graph,
in integers.  Both are deterministic.

The primal-dual method keeps one CSR of arcs over its classes, built
once, runs its breadth-first searches as array steps over the round's
tight arcs, and leaves to Python only the depth-first augmentations,
over the layered arcs that lead to a free vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Capacities, MultiGraph, _int_type, _kept_answer, _pair_caps, _relevant_ids

__all__ = [
    "BMatching",
    "OracleBudgetExceeded",
    "DEFAULT_ORACLE_BUDGET",
    "bipartition_sides",
    "max_weight_b_matching_exact",
    "branch_and_bound_b_matching",
    "max_weight_b_matching_greedy",
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
    parity of their distance from it.  Breadth-first search over the
    neighbour lists, built here from the columns (a stable sort of the
    endpoint slots), one array step per level: every vertex of a level has
    the same color, so an edge inside a level is an odd cycle."""
    ends = np.concatenate((G.u, G.v))
    nbrs = np.concatenate((G.v, G.u))[np.argsort(ends, kind="stable")]
    ptr = np.zeros(G.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=G.n), out=ptr[1:])
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

    G's relevant subgraph R (:func:`_relevant_ids`) keeps at least one
    edge of every pair of G, so its 2-coloring is G's; it is found on R.
    Non-bipartite inputs run branch-and-bound on G within ``budget``
    search nodes (raising :class:`OracleBudgetExceeded` beyond it).

    Bipartite inputs, whatever their size, run a weight-level primal-dual
    method on R and are proven on G.  R's edges collapse into the classes
    of :func:`_classes`; a class may take at most its multiplicity of
    edges, and takes its lowest ids.  Every left vertex with an edge
    starts at label W (the heaviest class weight), every right vertex at
    0.  Each of W rounds augments a maximum flow along shortest paths of
    tight classes (y_u + y_v = w), then lowers the labels of the left
    vertices the last search reached and raises those of the right
    vertices it reached; rounds that would repeat that search are taken
    at once (:func:`_primal_dual`).  When R is not G, the ids map back
    through R's ids and the labels are lifted to cover G's other edges
    (:func:`_lifted_labels`).  The labels are the certificate, checked by
    :func:`_proven` over every edge of G before returning.  The method
    works in int64, so it needs m * W < 2**62 on G, and raises
    ``ValueError`` beyond that.

    G's capacity entry keeps the answer (:func:`_bipartite_answer`): G is
    solved once per capacities vector, each call gets a fresh BMatching.
    """
    found = _bipartite_answer(G, b)
    return (BMatching(found[0].tolist(), found[1]) if found
            else branch_and_bound_b_matching(G, b, budget))


def _bipartite_answer(G: MultiGraph, b: Capacities) -> tuple[np.ndarray, int] | bool:
    """The bipartite route's answer on G as a read-only id array and the
    weight, False when G is not bipartite; solved once per graph and
    capacities (:func:`_kept_answer`)."""
    return _kept_answer(G, b, lambda: _solve_bipartite(G, b))


def _solve_bipartite(G: MultiGraph, b: Capacities) -> tuple[np.ndarray, int] | bool:
    """:func:`_bipartite_answer`, solved and proven."""
    keep = _relevant_ids(G, b)
    R = G if len(keep) == G.m else G.restrict(keep)[0]
    sides = bipartition_sides(R)
    if sides is None:
        return False
    if not _fits_int64(G):
        raise ValueError(f"the bipartite solver needs m * W < 2**62, got m={G.m}, W={G.W}")
    if R.m == 0:
        return keep, 0
    classes, cls, rank = _classes(R, sides)
    x, y = _primal_dual(classes, b, R.n)
    ids = np.flatnonzero(rank < x[cls])     # each class takes its x lowest ids
    if R is not G:
        ids, y = keep[ids], _lifted_labels(G, b, keep, y)
    ids.flags.writeable = False
    return ids, _proven(G, b, ids, y).weight


def _fits_int64(G: MultiGraph) -> bool:
    """Whether the bipartite route's int64 arithmetic holds G: m * W < 2**62."""
    return G.m * G.W < 2**62


def _lifted_labels(G: MultiGraph, b: Capacities, keep: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Optimal labels y of the relevant subgraph R (edge ids ``keep``),
    raised so that they cover the edges G has outside R; as int64.

    G has edges outside R at the pairs with more than min(b_u, b_v)
    edges.  At each, let w_min be the lightest weight R keeps of it, that
    of its kept edge of :attr:`~wedcs.graph.MultiGraph.pair_rank`
    min(b_u, b_v) - 1 (no dropped edge is heavier), and s the endpoint of
    smaller capacity (the smaller id on equal ones).  s is raised by
    delta = max(0, w_min - y_u - y_v).  The dual value does not change:
    delta > 0 means every kept copy has y_u + y_v < w, so by
    complementary slackness all min(b_u, b_v) = b_s of them are taken,
    s is full with this pair alone and no other class at s carries flow.
    The label term grows by b_s * delta and the b_s kept copies' slacks
    fall by delta each; no other slack at s was positive.  So at most
    one pair lifts a vertex, but the lifts are added with ``np.add.at``
    all the same: a fancy ``+=`` keeps one write per vertex, and a zero
    lift of another pair at s could overwrite the real one."""
    caps = _pair_caps(G, b)
    kept_pair = G.pair[keep]
    # the pairs with edges outside R, each by its lightest kept edge
    last = (G.pair_rank[keep] == caps[kept_pair] - 1) & (G.pair_count > caps)[kept_pair]
    lightest, pair = keep[last], kept_pair[last]
    lo, hi = (end[pair] for end in G.pair_ends)
    y = y.astype(np.int64)
    delta = np.maximum(G.w[lightest] - y[lo] - y[hi], 0)
    cap = np.asarray(b.b)
    s = np.where(cap[hi] < cap[lo], hi, lo)
    np.add.at(y, s, delta)
    return y


def _proven(G: MultiGraph, b: Capacities, ids: np.ndarray, y: np.ndarray) -> BMatching:
    """The b-matching of G on edge ``ids``, once labels y prove it maximum.

    The ids must pass :meth:`BMatching.verify` on G and y must be
    non-negative; with z = max(0, w_e - y_u - y_v) per edge of G, (y, z)
    is then a feasible dual, so sum(b_v * y_v) + sum(z) bounds every
    b-matching's weight, and equality with the ids' weight proves them
    optimal.  Each w_e - y_u - y_v is formed in the smallest type that
    holds it, the edge terms are summed in int64, where the bipartite
    route's limit in :func:`max_weight_b_matching_exact` keeps them, and
    the label term by :func:`_label_term`.  Raises ``RuntimeError`` on
    any mismatch."""
    found = BMatching(ids.tolist(), int(G.w[ids].sum(dtype=np.int64)))
    if not found.verify(G, b):
        raise RuntimeError("the matching fails verification on G")
    if (y < 0).any():
        raise RuntimeError(f"vertex {int(np.flatnonzero(y < 0)[0])} has a negative label")
    y = y.astype(_int_type(G.W + 2 * int(y.max(initial=0))))
    slack = G.w - y[G.u]
    slack -= y[G.v]
    dual = _label_term(b, y)
    dual += int(np.maximum(slack, 0, out=slack).sum(dtype=np.int64))
    if dual != found.weight:
        raise RuntimeError(
            f"dual bound {dual} does not certify matching weight {found.weight} on G")
    return found


def _label_term(b: Capacities, y: np.ndarray) -> int:
    """sum(b_v * y_v) for non-negative labels y: an int64 dot product
    where sum(b) * max(y) < 2**63 makes it exact, Python integers
    beyond."""
    if sum(b.b) * max(int(y.max(initial=0)), 1) < 2**63:
        return int(np.dot(np.asarray(b.b, dtype=np.int64), y.astype(np.int64)))
    return sum(bv * yv for bv, yv in zip(b.b, y.tolist()))


def max_weight_b_matching_greedy(G: MultiGraph, b: Capacities) -> BMatching:
    """Scan edges by descending weight (ties by id), keep those with
    residual capacity at both endpoints.  At least half the optimum."""
    residual = list(b.b)
    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()
    chosen: list[int] = []
    weight = 0
    for eid in np.argsort(-G.w, kind="stable").tolist():
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
    The search nests one call per edge it has decided, so a search that
    runs deeper than the interpreter's recursion limit also raises
    :class:`OracleBudgetExceeded`; one that prunes early stays shallow
    however many edges the graph has.
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

    try:
        dfs(0, 0)
    except RecursionError:
        raise OracleBudgetExceeded(
            f"search deeper than the interpreter's recursion limit ({m} edges)") from None
    return BMatching(best_set, best_weight)


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


def _primal_dual(classes: np.ndarray, b: Capacities, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Class counts x and vertex labels y, as arrays, for the bipartite
    route of :func:`max_weight_b_matching_exact`; row c of ``classes`` is
    (left vertex, right vertex, weight, multiplicity).

    Invariants: a class below its multiplicity has y_u + y_v >= w, a class
    in use has y_u + y_v <= w, a right vertex with a positive label is
    full, and left loads never fall.  A free left vertex is a source of
    every search, so it loses one unit per round and ends at 0; the
    invariants then are complementary slackness.

    Every class is an arc at both its endpoints: forward (residual
    mult - x) at its left vertex, backward (residual x) at its right one.
    A vertex is on one side only, so one CSR over all vertices, in class
    order at each, holds both roles; each round selects its tight arcs
    with one mask.  The BFS runs a level at a time in array steps, left
    vertices at even depth and right ones at odd, and scans a level in
    full before it tests for a right vertex with room, so the depths and
    the reached set that moves the labels do not depend on scan order.

    A move keeps every arc inside the reached set as tight as it was and
    brings each arc out of it one unit closer to tight: a forward class
    from a reached left vertex to an unreached right one with spare room,
    at gap y_u + y_v - w, or a backward class from a reached right vertex
    to an unreached left one in use, at gap w - y_u - y_v.  Each such gap
    is at least 1, else the search would have crossed the arc, and until
    one reaches 0 every round repeats the last failed search and its move.
    So a round moves the labels min(gap) times at once, at most as many
    times as rounds are left, and weights up to 2**62 take as many rounds
    as the searches need, not W.
    """
    u, v, w, mult = (classes[:, k] for k in range(4))
    w_max = int(w.max())
    mult = mult.astype(_int_type(int(mult.max())))
    x = np.zeros_like(mult)
    y = np.zeros(n, dtype=_int_type(2 * w_max))     # a type that holds y_u + y_v
    lefts = np.flatnonzero(np.bincount(u, minlength=n))
    y[lefts] = w_max
    u, v, w = u.astype(_int_type(n)), v.astype(_int_type(n)), w.astype(y.dtype)
    cap = np.array(b.b[:n], dtype=np.int64)
    load = np.zeros(n, dtype=np.int64)

    # the arcs by tail, class order at each (argsort is stable)
    tails = np.concatenate([u, v])
    order = np.argsort(tails, kind="stable")
    arc_head = np.concatenate([v, u])[order]
    arc_cls = order.astype(np.int32)
    arc_cls[arc_cls >= len(u)] -= len(u)
    del order
    arc_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=arc_ptr[1:])
    del tails

    rounds = w_max
    while rounds:
        # labels are fixed within a round, so the tight arcs are too
        on = (y.take(u) + y.take(v) == w).take(arc_cls).nonzero()[0]
        t_cls, t_head = arc_cls[on], arc_head[on]
        t_ptr = np.searchsorted(on, arc_ptr)
        t_end, t_cnt = t_ptr[1:], np.diff(t_ptr)
        while True:
            room, spare = cap - load, mult - x
            dist = np.full(n, -1, dtype=np.int64)
            f = lefts[room[lefts].nonzero()[0]]
            dist[f] = 0
            levels = []     # per level: tails, their arc counts, arcs' class, head, residual
            found = False
            while f.size:
                depth = len(levels)
                cnt = t_cnt[f]
                at = (t_end[f] - np.add.accumulate(cnt)).repeat(cnt)
                at += np.arange(len(at))
                c, h = t_cls[at].astype(np.intp), t_head[at].astype(np.intp)
                r = (x if depth & 1 else spare)[c]
                fresh = h[(r.astype(bool) & (dist[h] < 0)).nonzero()[0]]
                dist[fresh] = depth + 1
                levels.append((f, cnt, c, h, r))
                f = np.bincount(fresh, minlength=n).nonzero()[0]
                if not depth & 1 and np.count_nonzero(room[f]):
                    found = True
                    break
            if not found:
                break
            load = cap - _blocking_flow(levels, dist, room, x)
        reached = (dist >= 0).nonzero()[0]
        moves = 1
        if rounds > 1:
            # the rounds that repeat this failed search and its move: min
            # gap of an arc out of the reached set, at most the rounds left
            seen = dist >= 0
            s = y.take(u) + y.take(v) - w
            gap = np.concatenate((s[seen[u] & ~seen[v] & (x < mult)],
                                  -s[seen[v] & ~seen[u] & (x > 0)]))
            moves = min(int(gap.min(initial=rounds)), rounds)
        y[reached] += ((dist[reached] & 1) * 2 - 1) * moves
        rounds -= moves
    return x, y


def _blocking_flow(levels: list, dist: np.ndarray, room: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Augment along layered shortest paths until none is left; updates x
    and returns the vertices' room after the phase.

    ``levels`` is the BFS of the phase, one (tails, arc counts, class,
    head, residual) tuple per level, each tail's arcs in class order.  The
    search gets only layered arcs, those with residual into the next
    level.  A BFS level is complete, so an arc with residual never skips
    a level: it leads one level deeper or back.  Residuals and the room
    of the free right vertices of the last level (the sinks) only fall
    during a phase, so a vertex with no layered path to a sink at the
    start never gets one.  When the last level is deeper than 1, one
    backward pass marks the sinks, then level by level every vertex with
    an arc into a marked vertex, and keeps only the arcs into marked
    vertices: the layered arcs, less those into vertices that a
    depth-first search would enter, find no way on from and leave.  Given
    only the rest, the search below makes the same choices.  When the last
    level is 1, every arc with residual is layered.

    The search is iterative (paths can be as long as the graph), with a
    current-arc pointer per vertex, over flat lists of heads and pointers;
    it lowers the residual and room arrays in place through memoryviews.
    A vertex is dead once its pointer has passed its last arc, and a sink
    once its room is gone.  Each class leads one level deeper in at most
    one direction, so x takes the phase's flow back in one fancy-indexed
    step.
    """
    f, cnt, c, h, r = (np.concatenate(col) for col in zip(*levels))
    tail = f.repeat(cnt)
    padded = np.zeros(len(h) + 1, dtype=bool)
    keep = padded[1:]                   # the arcs the search gets
    np.not_equal(r, 0, out=keep)
    alive = room.astype(bool)           # at last level 1, the sinks are the vertices with room
    if len(levels) > 1:
        alive &= dist == len(levels)
        hi = len(h)
        for lev in reversed(levels):
            lo = hi - len(lev[2])
            ok = keep[lo:hi]
            ok &= alive[h[lo:hi]]
            alive[tail[lo:hi][ok.nonzero()[0]]] = True
            hi = lo
    # vertex a's arcs are head[ptr[a]:end[a]], in class order
    before = np.add.accumulate(padded, dtype=np.int64)     # kept arcs before each position
    ends = np.add.accumulate(cnt)
    ptr, end = np.zeros((2, len(dist)), dtype=np.int64)
    ptr[f], end[f] = before[ends - cnt], before[ends]
    keep = keep.nonzero()[0]
    c, r, level = c[keep], r[keep].astype(np.int64), dist[tail[keep]]
    residual = r.copy()                 # lowered in place by the search, through res
    first = levels[0][0]
    sources = first[(ptr[first] < end[first]).nonzero()[0]].tolist()
    ptr, end, alive, head = ptr.tolist(), end.tolist(), alive.tolist(), h[keep].tolist()
    res, free = memoryview(residual), memoryview(room)
    flow = 0
    for s in sources:
        while free[s]:
            path: list[int] = []
            a = s
            while True:
                i, e = ptr[a], end[a]
                while i < e and not (res[i] and alive[head[i]]):
                    i += 1
                ptr[a] = i
                if i < e:
                    path.append(i)
                    a = head[i]
                    if free[a]:
                        break  # a free right vertex of the last level: the sink
                else:
                    alive[a] = False  # for the rest of the phase
                    if not path:
                        break
                    path.pop()
                    a = head[path[-1]] if path else s
            if not path:
                break
            delta = min(free[s], free[a])
            for i in path:
                if res[i] < delta:
                    delta = res[i]
            for i in path:
                res[i] -= delta
            free[s] -= delta
            free[a] -= delta
            alive[a] = free[a] > 0
            flow += delta
    if not flow:
        # the BFS found a shortest augmenting path, so the search must too
        raise RuntimeError("a primal-dual phase augmented nothing")  # pragma: no cover
    used = r - residual
    x[c] += np.where(level & 1, -used, used)
    return room
