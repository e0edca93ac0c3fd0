"""Shared test utilities: brute-force oracles, instance shorthands,
reference implementations (the degree rule and step gain over each
edge's b_u * b_v, and the generator, builder and stream run as first
written), a traced-memory probe, and the vertex-splitting reduction of
b-matching to simple matching (the paper's analysis device, which no run
of the package needs).

The brute-force solvers here are deliberately independent of the package's
solvers (plain subset enumeration) so they can act as ground truth.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from wedcs import BMatching, Capacities, GenSpec, MultiGraph, Subgraph, random_instance
from wedcs.edcs import BuildTrace, EdcsParams, LocalSearchError, potential, validate
from wedcs.graph import _int_type, _reject_crowded


def brute_force_b_matching_weight(G: MultiGraph, b: Capacities) -> int:
    """Maximum b-matching weight by enumerating all edge subsets."""
    best = 0
    m = G.m
    assert m <= 20, "enumeration oracle is for tiny instances"
    for mask in range(1 << m):
        load = [0] * G.n
        weight = 0
        ok = True
        for i in range(m):
            if mask >> i & 1:
                u, v, w = G.triple(i)
                load[u] += 1
                load[v] += 1
                if load[u] > b[u] or load[v] > b[v]:
                    ok = False
                    break
                weight += w
        if ok and weight > best:
            best = weight
    return best


def brute_force_min_cover_weight(G: MultiGraph) -> int:
    """Minimum w-vertex-cover weight by enumerating all label vectors.

    Exponential in n; keep n tiny.  Labels range over 0..(heaviest
    incident weight), which is enough for an optimal cover.
    """
    assert G.n <= 8, "cover enumeration is for tiny instances"
    max_w = [0] * G.n
    edges = triples(G)
    for u, v, w in edges:
        max_w[u] = max(max_w[u], w)
        max_w[v] = max(max_w[v], w)

    best = sum(max_w)  # certainly a cover

    def rec(v: int, total: int, alpha: list[int]) -> None:
        nonlocal best
        if total >= best:
            return
        if v == G.n:
            if all(w <= alpha[u] + alpha[v] for u, v, w in edges):
                best = total
            return
        for value in range(max_w[v] + 1):
            alpha[v] = value
            rec(v + 1, total + value, alpha)
        alpha[v] = 0

    rec(0, 0, [0] * G.n)
    return best


def primal_dual_cover(G: MultiGraph, sides) -> list[int]:
    """A w-vertex cover read off the primal-dual solver's labels at unit
    capacities: alpha = y, plus z = max(0, w - y_u - y_v) of every class
    added to its left vertex.  When G is simple, sum(alpha) is the dual
    value the solver certifies; callers check the cover property
    themselves."""
    from wedcs.matching import _classes, _primal_dual

    classes, _, _ = _classes(G, sides)
    y = _primal_dual(classes, Capacities.uniform(G.n), G.n)[1].tolist()
    alpha = list(y)
    for u, v, w, _ in classes.tolist():
        alpha[u] += max(0, w - y[u] - y[v])
    return alpha


def add_edge(H: Subgraph, eid: int) -> None:
    """Add edge ``eid`` to H, keeping its degree caches; the package's
    own writer is the builder's ledger."""
    if eid in H.members:
        raise ValueError(f"edge {eid} already in subgraph")
    u, v, w = H.parent.triple(eid)
    H.members.add(eid)
    H.wdeg[u] += w
    H.wdeg[v] += w
    H.deg[u] += 1
    H.deg[v] += 1


def remove_edge(H: Subgraph, eid: int) -> None:
    """Remove edge ``eid`` from H, keeping its degree caches."""
    if eid not in H.members:
        raise ValueError(f"edge {eid} not in subgraph")
    u, v, w = H.parent.triple(eid)
    H.members.remove(eid)
    H.wdeg[u] -= w
    H.wdeg[v] -= w
    H.deg[u] -= 1
    H.deg[v] -= 1


def triples(G: MultiGraph) -> list[tuple[int, int, int]]:
    """Every edge as a (u, v, w) tuple of Python ints, in id order."""
    return list(zip(G.u.tolist(), G.v.tolist(), G.w.tolist()))


def incident_ids(G: MultiGraph) -> list[list[int]]:
    """Ids of the edges at every vertex, in id order, read off the columns."""
    at: list[list[int]] = [[] for _ in range(G.n)]
    for eid, (u, v) in enumerate(zip(G.u.tolist(), G.v.tolist())):
        at[u].append(eid)
        at[v].append(eid)
    return at


def make_random(seed: int, n: int, m: int, W: int, b_max: int = 1, *,
                b_min: int = 1, bipartite: bool = False,
                allow_parallel: bool = False) -> tuple[MultiGraph, Capacities]:
    spec = GenSpec(kind="random", seed=seed, n=n, m=m, W=W,
                   b_min=b_min, b_max=b_max, bipartite=bipartite,
                   allow_parallel=allow_parallel)
    return random_instance(spec)


def reference_random_instance(spec: GenSpec) -> tuple[MultiGraph, Capacities]:
    """``random_instance`` as first written, kept as the reference for the
    bounded-memory generator: every vertex pair's ends as an array, the
    capacity slots' int64 running count, one int64 ``permutation`` over
    every slot, and one generator call for all raw-multiplicity draws."""
    if spec.kind != "random":
        raise ValueError("random_instance needs a spec with kind='random'")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, m = spec.n, spec.m
    b = Capacities([int(x) for x in rng.integers(spec.b_min, spec.b_max + 1, size=n)]) \
        if n else Capacities([])

    # every vertex pair, in the graph's smallest vertex type
    vertex = _int_type(n)
    if spec.bipartite:
        half = n // 2
        us = np.repeat(np.arange(half, dtype=vertex), n - half)
        vs = np.tile(np.arange(half, n, dtype=vertex), half)
    else:
        us, vs = (ends.astype(vertex) for ends in np.triu_indices(n, 1))

    if spec.allow_parallel:
        if m > 0 and not len(us):
            raise ValueError("no vertex pairs available for the requested edges")
        draws = rng.integers(np.tile([0, 1], m), np.tile([len(us), spec.W + 1], m))
        picked, weights = draws[0::2], draws[1::2]
    else:
        # pair p owns capacity slots [cum[p-1], cum[p]), in pair order
        caps = np.asarray(b.b, dtype=_int_type(spec.b_max))
        cum = np.cumsum(np.minimum(caps[us], caps[vs]), dtype=np.int64)
        total = int(cum[-1]) if len(cum) else 0
        if m > total:
            raise ValueError(
                f"infeasible spec: {m} edges requested but only {total} "
                "capacity-respecting slots exist")
        picked = np.searchsorted(cum, rng.permutation(total)[:m], side="right")
        weights = rng.integers(1, np.full(m, spec.W + 1))
    return MultiGraph.from_columns(n, us[picked], vs[picked], weights, W=spec.W), b


def traced_peak(f) -> int:
    """Peak traced memory while ``f()`` runs, above what was traced before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def scalar_fisher_yates(m: int, seed: int, *, high_first: bool = False) -> tuple[int, ...]:
    """The stream order of ``make_stream`` drawn one index at a time, in
    pure Python over ``PCG64(seed).random_raw()``: for i = m-1 down to 1,
    swap position i with j <= i, where j is the next 32-bit half of the
    raw words (low half first), masked to i's bit length, until j <= i.
    ``high_first`` takes each word's high half first, for mutation checks;
    only m <= 2**32 is covered."""
    bits = np.random.PCG64(seed)

    def halves():
        while True:
            for word in bits.random_raw(1024).tolist():
                low, high = word & 0xFFFFFFFF, word >> 32
                yield from ((high, low) if high_first else (low, high))

    u32 = halves().__next__
    order = list(range(m))
    for i in range(m - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = u32() & mask
        while j > i:
            j = u32() & mask
        order[i], order[j] = order[j], order[i]
    return tuple(order)


def random_distribution_input(rng, bucket_count: int, W: int):
    """Random grouped-edge input for the bucket distribution procedure,
    with per-edge in-H flags (unmatched edges are always in H)."""
    groups = []
    in_h = {}
    matched_left = bucket_count
    eid = 0
    for _ in range(int(rng.integers(0, 7))):
        size = int(rng.integers(1, bucket_count + 1))
        m_u = int(rng.integers(0, min(size, matched_left) + 1))
        matched_left -= m_u
        weights = sorted((int(rng.integers(1, W + 1)) for _ in range(size)), reverse=True)
        group = []
        for j, w in enumerate(weights):
            matched = j < m_u
            group.append((eid, w, matched))
            in_h[eid] = (not matched) or bool(rng.integers(0, 2))
            eid += 1
        groups.append(group)
    return groups, in_h


def check_distribution_properties(groups, in_h, buckets, bucket_count: int, W: int):
    """Assert the three bucket-distribution guarantees."""
    group_of = {item[0]: gi for gi, group in enumerate(groups) for item in group}
    all_items = [item for group in groups for item in group]
    assert sorted(i for bucket in buckets for i, _, _ in bucket) == \
        sorted(i for i, _, _ in all_items)
    for bucket in buckets:
        assert sum(1 for _, _, matched in bucket if matched) <= 1
        gids = [group_of[i] for i, _, _ in bucket]
        assert len(gids) == len(set(gids))
    loads = [sum(w for _, w, _ in bucket) for bucket in buckets]
    if loads:
        assert max(loads) - min(loads) <= 2 * W
    wdeg_h = sum(w for i, w, _ in all_items if in_h[i])
    for load in loads:
        assert wdeg_h - 2 * W * bucket_count <= load * bucket_count \
            <= wdeg_h + 3 * W * bucket_count


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
    _reject_crowded(G, b, "reduce to the relevant subgraph first")

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

    if (split_graph.pair_count > 1).any():
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


def pair_count(n: int, bipartite: bool) -> int:
    if bipartite:
        half = n // 2
        return half * (n - half)
    return n * (n - 1) // 2


class ScalarRelevantStore:
    """Edge-at-a-time store of the heaviest min(b_u, b_v) edges per pair,
    the reference for the stream runner's store-size series: it dies once
    its size reaches ``cap``, and while alive holds the relevant subgraph
    of the edges seen so far."""

    def __init__(self, G: MultiGraph, b: Capacities, cap: float):
        self.G, self.b, self.cap = G, b, cap
        self.alive = cap >= 1
        self.groups: dict[int, list[int]] = {}
        self.size = 0

    def observe(self, eid: int) -> None:
        if not self.alive:
            return
        u, v, _ = self.G.triple(eid)
        group = self.groups.setdefault(int(self.G.pair[eid]), [])
        group.append(eid)
        self.size += 1
        if len(group) > min(self.b[u], self.b[v]):
            # evict the lightest stored edge, dropping larger ids first on ties
            group.remove(min(group, key=lambda i: (self.G.triple(i)[2], -i)))
            self.size -= 1
        if self.size >= self.cap:
            self.alive, self.groups, self.size = False, {}, 0

    def edge_ids(self) -> list[int]:
        return sorted(i for group in self.groups.values() for i in group)


def scalar_stream_run(stream, b: Capacities, params, epsilon, *, variant: int,
                      with_store: bool):
    """Both phases of the stream runner, one edge at a time: the reference
    for ``run_single_pass`` (``with_store=False``) and ``run_with_fallbacks``
    (``with_store=True``).  Phase 1 follows the runner's level and epoch
    schedule; phase 2 tests every later edge against the frozen H, and
    the peak counts |H| + |X| + the store's size after every tracked step.
    Returns the same ``StreamRunResult`` the runner does, with X as its
    ids in ascending order."""
    import math
    from wedcs import StreamRunStats, Subgraph
    from wedcs.edcs import _checked_epsilon
    from wedcs.matching import DEFAULT_ORACLE_BUDGET
    from wedcs.streaming import _extract

    G, m, order = stream.graph, stream.m, stream.order
    eps = _checked_epsilon(epsilon)
    beta, beta_minus, W = params.beta, params.beta_minus, params.W
    store = None
    if with_store:
        cap = 2 * G.n * (3 * W ** 2 / (2 * float(eps) ** 2)) * math.log(max(m, 2))
        store = ScalarRelevantStore(G, b, cap)
    stats = StreamRunStats(seed=stream.seed, m=m, variant=variant, prng=stream.prng)
    H = Subgraph(G)
    wdeg = H.wdeg
    X: set[int] = set()
    pair, ew, at = G.pair.tolist(), G.w.tolist(), incident_ids(G)
    pair_h: dict[int, set[int]] = {}
    peak = 0

    def track():
        nonlocal peak
        peak = max(peak, len(H.members) + len(X) + (store.size if store else 0))

    def h_add(eid):
        add_edge(H, eid)
        pair_h.setdefault(pair[eid], set()).add(eid)

    def h_remove(eid):
        remove_edge(H, eid)
        pair_h[pair[eid]].discard(eid)

    def degree_underfull(eid):
        u, v, w = G.triple(eid)
        bu, bv = b[u], b[v]
        return wdeg[u] * bv + wdeg[v] * bu < beta_minus * w * bu * bv

    def full_pair_lightest(eid):
        held = pair_h.get(pair[eid]) if variant == 3 else None
        u, v, _ = G.triple(eid)
        if held and len(held) >= min(b[u], b[v]):
            return min(ew[i] for i in held)
        return None

    def repair_upper(u0, v0):
        pending = deque(sorted(i for i in set(at[u0]) | set(at[v0]) if i in H.members))
        queued = set(pending)
        while pending:
            cand = pending.popleft()
            queued.discard(cand)
            if cand not in H.members:
                continue
            cu, cv, cw = G.triple(cand)
            cbu, cbv = b[cu], b[cv]
            if wdeg[cu] * cbv + wdeg[cv] * cbu <= beta * cw * cbu * cbv:
                continue
            h_remove(cand)
            for i in sorted(x for x in set(at[cu]) | set(at[cv])
                            if x in H.members and x not in queued):
                pending.append(i)
                queued.add(i)

    def phase1_edge(eid):
        u, v, w = G.triple(eid)
        if not degree_underfull(eid):
            return False
        if full_pair_lightest(eid) is not None:
            held = pair_h[pair[eid]]
            lightest = min(held, key=lambda i: (ew[i], i))
            if w <= ew[lightest]:
                return False
            h_remove(lightest)
            stats.replacement_count += 1
        h_add(eid)
        repair_upper(u, v)
        track()
        return True

    pos = 0
    collect_all = False
    if m > 0:
        levels, logden = m.bit_length() - 1, (m - 1).bit_length()
        bw2 = beta * beta * W * W
        i = 0
        stopped = False
        while not stopped and pos < m and i <= levels:
            alpha_i = 0 if logden == 0 else \
                (eps.numerator * m) // (eps.denominator * logden * ((1 << (i + 2)) * bw2 + 1))
            stats.final_guess_i = i
            if alpha_i == 0:
                stats.fallback_used = "alpha_zero"
                collect_all = True
                break
            for _ in range((1 << (i + 2)) * bw2 + 1):
                if pos >= m:
                    break
                stats.epoch_count += 1
                found = False
                for _ in range(alpha_i):
                    if pos >= m:
                        break
                    eid = order[pos]
                    pos += 1
                    stats.phase1_edges_consumed += 1
                    if store:
                        store.observe(eid)
                        track()
                    found = phase1_edge(eid) or found
                if not found:
                    stopped = True
                    break
            i += 1

    for eid in order[pos:]:
        if store:
            store.observe(eid)
            track()
        lightest = full_pair_lightest(eid)
        if collect_all or (degree_underfull(eid) if lightest is None else lightest < ew[eid]):
            X.add(eid)
            track()

    stats.underfull_collected = len(X)
    stats.peak_stored_edges = peak
    if store and store.alive:
        stats.fallback_used = "small_output"
        edge_ids = store.edge_ids()
    else:
        edge_ids = sorted(H.members | X)
    return _extract(H, np.array(sorted(X), dtype=np.int64), stats, b, edge_ids,
                    DEFAULT_ORACLE_BUDGET)


def _excess(wdeg_u: int, wdeg_v: int, bu: int, bv: int, w: int, k: int) -> int:
    """The degree rule for one edge (u, v, w): the scaled excess
    b_u * b_v * (wdeg_u/b_u + wdeg_v/b_v - k * w), an integer.

    At k = beta a positive excess breaks property (i); at k = beta_minus a
    negative one breaks property (ii) (the edge is underfull).  Zero
    breaks neither."""
    return wdeg_u * bv + wdeg_v * bu - k * w * bu * bv


def _step_gain(params: EdcsParams, insert: bool, excess: int, w: int, bu: int, bv: int) -> int:
    """b_u * b_v times the change of :func:`potential` when an edge
    (u, v, w) enters H (``insert``) or leaves it, given its
    :func:`_excess` before the step: over beta_minus for an insertion,
    over beta for a removal.

    Insertion gains w^2 ((2 beta - 2 - 2 beta_minus) b_u b_v - b_u - b_v)
    - 2w E, removal w^2 (2 b_u b_v - b_u - b_v) + 2w E.  A step that fixes
    a violation has E <= -1 or E >= 1, and beta_minus <= beta - 2, so it
    gains at least w^2 (2 b_u b_v - b_u - b_v) + 2w, the per-step floor."""
    if insert:
        c = 2 * params.beta - 2 - 2 * params.beta_minus
        return w * w * (c * bu * bv - bu - bv) - 2 * w * excess
    return w * w * (2 * bu * bv - bu - bv) + 2 * w * excess


_PRIORITY_MULTIPLIER = 0x9E3779B97F4A7C15


def reference_round_search(G: MultiGraph, b: Capacities, params, *, check_invariants: bool,
                           rounds_out: list | None = None):
    """The builder's rounds one edge at a time, in ``_excess`` and
    ``Fraction`` arithmetic: the reference for ``wedcs.edcs._local_search``.

    Edge i has priority i * 0x9E3779B97F4A7C15 mod 2**64.  An insertion
    round's pool is every non-member underfull at the degrees before it.
    The pool is walked by ascending priority, and an edge is taken when it
    is still underfull with the weights of every earlier pool edge at its
    ends, taken or not, added to the degrees before the round; a taken
    edge enters H at once and is priced at the degrees of that moment.
    Removal sub-rounds follow, over the members at the inserted edges'
    ends that are over their bound: the same walk, with the earlier pool
    edges' weights taken off, removes those still over it, and the rest are
    re-tested, until none is over.  The search ends when no non-member is
    underfull.  Returns ``(H, trace)`` exactly as the builder does; with
    ``rounds_out``, appends to it per round the kind (``"insert"`` or
    ``"remove"``), the ids stepped on, ascending, the members and weighted
    degrees after it and the gains summed so far."""
    beta, beta_minus = params.beta, params.beta_minus
    m = G.m
    H = Subgraph(G)
    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()
    caps = b.b
    wdeg, deg, members = H.wdeg, H.deg, H.members
    prio = [i * _PRIORITY_MULTIPLIER % 2**64 for i in range(m)]
    steps = insertions = removals = rounds = 0
    # per denominator b_u * b_v: the summed and the smallest scaled gain
    gain_sum: dict[int, int] = {}
    gain_min: dict[int, int] = {}

    def excess(i: int, k: int) -> int:
        u, v = eu[i], ev[i]
        return _excess(wdeg[u], wdeg[v], caps[u], caps[v], ew[i], k)

    def play(pool: list[int], insert: bool) -> list[int]:
        nonlocal steps
        k = beta_minus if insert else beta
        sign = 1 if insert else -1
        before = list(wdeg)
        passed: dict[int, int] = {}  # the weight of the pool walked so far, per vertex
        picked = []
        for i in sorted(pool, key=prio.__getitem__):
            u, v, w = eu[i], ev[i], ew[i]
            bu, bv = caps[u], caps[v]
            rule = _excess(before[u] + sign * passed.get(u, 0), before[v] + sign * passed.get(v, 0),
                           bu, bv, w, k)
            passed[u] = passed.get(u, 0) + w
            passed[v] = passed.get(v, 0) + w
            if (rule >= 0) if insert else (rule <= 0):
                continue
            e = excess(i, k)  # at this step's moment
            denom = bu * bv
            if check_invariants and ((e >= 0) if insert else (e <= 0)):
                raise LocalSearchError(f"step on edge {i} fixes no violation at its moment")
            gain = _step_gain(params, insert, e, w, bu, bv)
            gain_sum[denom] = gain_sum.get(denom, 0) + gain
            if gain < gain_min.get(denom, gain + 1):
                gain_min[denom] = gain
            floor = w * w * (2 * denom - bu - bv) + 2 * w
            if check_invariants and gain < floor:
                raise LocalSearchError(
                    f"potential gain {Fraction(gain, denom)} below the per-step floor "
                    f"w^2(2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) = {Fraction(floor, denom)} "
                    f"for w={w}, b_u={bu}, b_v={bv}")
            (members.add if insert else members.remove)(i)
            for x in (u, v):
                wdeg[x] += sign * w
                deg[x] += sign
            picked.append(i)
        picked.sort()
        steps += len(picked)
        if rounds_out is not None:
            phi = sum((Fraction(t, d) for d, t in gain_sum.items()), Fraction(0))
            rounds_out.append(("insert" if insert else "remove", picked, set(members),
                               list(wdeg), phi))
        return picked

    while True:
        under = [i for i in range(m) if i not in members and excess(i, beta_minus) < 0]
        if not under:
            break
        picked = play(under, True)
        rounds += 1
        insertions += len(picked)
        ends = {x for i in picked for x in (eu[i], ev[i])}
        if check_invariants:
            for x in sorted(ends):
                cap = (beta_minus * caps[x] + 1) * G.W - 1
                if wdeg[x] > cap:
                    raise LocalSearchError(
                        f"mid-build weighted degree {wdeg[x]} at vertex {x} exceeds {cap}")
        over = sorted(i for i in members if {eu[i], ev[i]} & ends)
        while True:
            over = [i for i in over if excess(i, beta) > 0]
            if not over:
                break
            picked = play(over, False)
            rounds += 1
            removals += len(picked)
            over = [i for i in over if i in members]

    phi = sum((Fraction(total, denom) for denom, total in gain_sum.items()), Fraction(0))
    min_seen = min((Fraction(low, denom) for denom, low in gain_min.items()), default=None)
    trace = BuildTrace(steps=steps, insertions=insertions, removals=removals,
                       phi_final=phi, min_gain=min_seen, rounds=rounds)
    if check_invariants:
        report = validate(G, b, H, params)
        if not report.is_clean:
            raise LocalSearchError(f"construction left violations: {report}")
        if phi != potential(H, b, params):
            raise LocalSearchError("incremental potential diverged from recount")
    return H, trace
