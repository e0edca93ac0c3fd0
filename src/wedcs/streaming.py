"""Single-pass b-matching over randomly ordered edge streams.

Phase 1 grows a subgraph H that keeps only the membership degree bound
(every kept edge has capacity-normalized weighted endpoint degrees summing
to at most beta times its weight).  Because the right interval size
depends on the unknown optimal matching size, the phase tries levels
i = 0, 1, ... with geometrically growing epoch budgets; one full interval
without a single insertion ends the phase.  Phase 2 freezes H and collects
every remaining "underfull" edge (one that would still be worth inserting)
into a side set X.  The answer is a maximum-weight b-matching of H | X.

Two degenerate regimes are handled explicitly:

* ``alpha_zero``  -- the interval size floors to zero (the stream is too
  short for the parameters); all remaining edges are stored verbatim.
* ``small_output`` -- a parallel store of the relevant subgraph never
  exceeded its cap, so the stored graph is solved in place of H | X
  (:func:`run_with_fallbacks` only; each stream is still solved once).

Everything is deterministic given (graph, seed, parameters).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .edcs import EdcsParams, _as_fraction
from .graph import Capacities, MultiGraph, Subgraph, WeightedEdge
from .matching import (
    BMatching,
    OracleBudgetExceeded,
    DEFAULT_ORACLE_BUDGET,
    max_weight_b_matching_exact,
    max_weight_b_matching_greedy,
)

__all__ = [
    "EdgeStream",
    "StreamRunStats",
    "StreamRunResult",
    "StreamInvariantError",
    "PRNG_ID",
    "make_stream",
    "file_order_stream",
    "is_underfull",
    "run_single_pass",
    "run_with_fallbacks",
]

#: Stream permutations come from an explicit Fisher-Yates shuffle driven by
#: numpy's PCG64 so that seeds replay identically across platforms.
PRNG_ID = "pcg64-fisher-yates"


class StreamInvariantError(RuntimeError):
    """A runtime self-check of the stream algorithm failed."""


@dataclass(frozen=True)
class EdgeStream:
    """A fixed permutation of a graph's edge ids with a declared length."""

    graph: MultiGraph
    order: tuple[int, ...]
    seed: int | None
    prng: str

    @property
    def m(self) -> int:
        return len(self.order)

    def __post_init__(self):
        if sorted(self.order) != list(range(self.graph.m)):
            raise ValueError("order must be a permutation of all edge ids")

    def edges(self) -> Iterator[WeightedEdge]:
        for eid in self.order:
            yield self.graph.edges[eid]


def make_stream(G: MultiGraph, seed: int) -> EdgeStream:
    """Uniformly random edge order from a seeded generator; same seed,
    same order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = list(range(G.m))
    for i in range(G.m - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return EdgeStream(G, tuple(order), seed, PRNG_ID)


def file_order_stream(G: MultiGraph) -> EdgeStream:
    """Edges in input order; for adversarial-order experiments, which the
    approximation guarantees do not cover."""
    return EdgeStream(G, tuple(range(G.m)), None, "as-is")


@dataclass
class StreamRunStats:
    """Per-run instrumentation; everything needed to audit a run."""

    seed: int | None
    m: int
    variant: int
    prng: str
    alpha_log_mode: str = "ceil-log2"
    phase1_edges_consumed: int = 0
    final_guess_i: int = 0
    epoch_count: int = 0
    underfull_collected: int = 0
    peak_stored_edges: int = 0
    replacement_count: int = 0
    fallback_used: str = "none"
    extraction: str = "exact"
    result_weight: int = 0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "m": self.m,
            "variant": self.variant,
            "prng": self.prng,
            "alpha_log_mode": self.alpha_log_mode,
            "phase1_edges_consumed": self.phase1_edges_consumed,
            "final_guess_i": self.final_guess_i,
            "epoch_count": self.epoch_count,
            "underfull_collected": self.underfull_collected,
            "peak_stored_edges": self.peak_stored_edges,
            "replacement_count": self.replacement_count,
            "fallback_used": self.fallback_used,
            "extraction": self.extraction,
            "result_weight": self.result_weight,
        }


class StreamRunResult(NamedTuple):
    H: Subgraph
    X: Subgraph
    matching: BMatching
    stats: StreamRunStats


def is_underfull(H: Subgraph, b: Capacities, edge: WeightedEdge, params: EdcsParams) -> bool:
    """Whether a non-member edge's endpoints are still light enough that
    the edge must be kept: wdeg(u)/b_u + wdeg(v)/b_v < beta_minus * w,
    compared exactly by cross-multiplying."""
    if edge.id in H.members:
        raise ValueError(f"edge {edge.id} is a member of H")
    bu, bv = b[edge.u], b[edge.v]
    return H.wdeg[edge.u] * bv + H.wdeg[edge.v] * bu < params.beta_minus * edge.w * bu * bv


class _RelevantStore:
    """Streaming store of the heaviest min(b_u, b_v) edges per pair.

    Kills itself once its size reaches ``cap`` (meaning the graph is too
    big for the store-everything shortcut); while alive its content equals
    the relevant subgraph of the edges seen so far.
    """

    def __init__(self, G: MultiGraph, b: Capacities, cap: float):
        self.G = G
        self.b = b
        self.cap = cap
        self.alive = cap >= 1
        self.groups: dict[tuple[int, int], list[int]] = {}
        self.size = 0

    def observe(self, eid: int) -> None:
        if not self.alive:
            return
        e = self.G.edges[eid]
        pair = e.pair()
        limit = min(self.b[e.u], self.b[e.v])
        group = self.groups.setdefault(pair, [])
        group.append(eid)
        self.size += 1
        if len(group) > limit:
            # evict the lightest stored edge, dropping larger ids first on ties
            victim = min(group, key=lambda i: (self.G.edges[i].w, -i))
            group.remove(victim)
            self.size -= 1
        if self.size >= self.cap:
            self.alive = False
            self.groups = {}
            self.size = 0

    def edge_ids(self) -> list[int]:
        return sorted(i for group in self.groups.values() for i in group)


def _extract(H: Subgraph, X: set[int], stats: StreamRunStats, b: Capacities,
             edge_ids: list[int], oracle_budget: int) -> StreamRunResult:
    """Best b-matching restricted to ``edge_ids``, recorded in ``stats``:
    exact when the solver budget allows, greedy otherwise."""
    G = H.parent
    sub, old_ids = G.restrict(edge_ids)
    try:
        found = max_weight_b_matching_exact(sub, b, oracle_budget)
        stats.extraction = "exact"
    except OracleBudgetExceeded:
        found = max_weight_b_matching_greedy(sub, b)
        stats.extraction = "greedy"
    matching = BMatching(sorted(old_ids[j] for j in found.edge_ids), found.weight)
    stats.result_weight = matching.weight
    return StreamRunResult(H, Subgraph(G, X), matching, stats)


def run_single_pass(stream: EdgeStream, b: Capacities, params: EdcsParams, epsilon, *,
                    variant: int = 1, oracle_budget: int = DEFAULT_ORACLE_BUDGET,
                    check_invariants: bool = False) -> StreamRunResult:
    """One pass over the stream; the core two-phase algorithm.

    ``variant=1`` assumes at most min(b_u, b_v) parallel edges per pair.
    ``variant=3`` drops that assumption: when a pair already holds its full
    complement of parallel edges in H, an arriving underfull edge is
    ignored unless strictly heavier than the lightest held copy, which it
    then replaces; phase 2 applies the matching two-case test.

    Interval sizes use ceil(log2 m) in the denominator (recorded in the
    stats as ``alpha_log_mode``) and level i runs at most
    2^(i+2) * beta^2 * W^2 + 1 epochs.  An insertion later undone by the
    repair loop still counts as the epoch having found an underfull edge.
    The answer is extracted once, from H | X.
    """
    H, X, stats = _two_phase_pass(stream, b, params, epsilon, variant, check_invariants, None)
    return _extract(H, X, stats, b, sorted(H.members | X), oracle_budget)


def _checked_epsilon(epsilon) -> Fraction:
    eps = _as_fraction(epsilon)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError(f"epsilon must be in (0, 1/2), got {eps}")
    return eps


def _two_phase_pass(stream: EdgeStream, b: Capacities, params: EdcsParams, epsilon,
                    variant: int, check_invariants: bool,
                    observer: _RelevantStore | None) -> tuple[Subgraph, set[int], StreamRunStats]:
    """Phases 1 and 2 of :func:`run_single_pass`, feeding every edge to
    ``observer`` as it arrives; returns H, X and the stats without an
    extraction."""
    if variant not in (1, 3):
        raise ValueError("variant must be 1 or 3")
    G = stream.graph
    eps = _checked_epsilon(epsilon)
    if G.W > params.W:
        raise ValueError(f"graph weight cap {G.W} exceeds parameter W={params.W}")
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    beta, beta_minus, W = params.beta, params.beta_minus, params.W
    m = stream.m

    stats = StreamRunStats(seed=stream.seed, m=m, variant=variant, prng=stream.prng)
    H = Subgraph(G)
    X: set[int] = set()
    pair_h: dict[tuple[int, int], set[int]] = {}
    order = stream.order
    wdeg = H.wdeg
    peak = 0

    def track() -> None:
        nonlocal peak
        size = len(H.members) + len(X) + (observer.size if observer is not None else 0)
        if size > peak:
            peak = size

    if variant == 1:
        for (u, v), ids in G.pair_groups().items():
            if len(ids) > min(b[u], b[v]):
                raise ValueError(
                    f"pair ({u}, {v}) has more than min(b_u, b_v) parallel edges; "
                    "use variant=3 for raw multiplicity streams")

    def h_add(eid: int) -> None:
        H.add(eid)
        if variant == 3:
            pair_h.setdefault(G.edges[eid].pair(), set()).add(eid)

    def h_remove(eid: int) -> None:
        H.remove(eid)
        if variant == 3:
            pair_h[G.edges[eid].pair()].discard(eid)

    def phi_delta_remove(eid: int) -> Fraction:
        e = G.edges[eid]
        bu, bv = b[e.u], b[e.v]
        return (-Fraction((2 * beta - 2) * e.w * e.w)
                + Fraction(2 * wdeg[e.u] * e.w - e.w * e.w, bu)
                + Fraction(2 * wdeg[e.v] * e.w - e.w * e.w, bv))

    def phi_delta_add(eid: int) -> Fraction:
        e = G.edges[eid]
        bu, bv = b[e.u], b[e.v]
        return (Fraction((2 * beta - 2) * e.w * e.w)
                - Fraction(2 * wdeg[e.u] * e.w + e.w * e.w, bu)
                - Fraction(2 * wdeg[e.v] * e.w + e.w * e.w, bv))

    def repair_upper(u0: int, v0: int) -> None:
        # fix membership-bound violations in FIFO id order; only edges at
        # vertices whose degree changed can newly violate
        pending = deque(sorted(
            i for i in set(G.incident(u0)) | set(G.incident(v0)) if i in H.members))
        queued = set(pending)
        while pending:
            cand = pending.popleft()
            queued.discard(cand)
            if cand not in H.members:
                continue
            ce = G.edges[cand]
            cbu, cbv = b[ce.u], b[ce.v]
            if wdeg[ce.u] * cbv + wdeg[ce.v] * cbu <= beta * ce.w * cbu * cbv:
                continue
            h_remove(cand)
            for i in sorted(
                    x for x in set(G.incident(ce.u)) | set(G.incident(ce.v))
                    if x in H.members and x not in queued):
                pending.append(i)
                queued.add(i)

    def assert_bounded() -> None:
        for eid in H.members:
            e = G.edges[eid]
            bu, bv = b[e.u], b[e.v]
            if wdeg[e.u] * bv + wdeg[e.v] * bu > beta * e.w * bu * bv:
                raise StreamInvariantError(
                    f"H lost its bounded weighted edge-degree at edge {eid}")
        if variant == 3:
            for (u, v), ids in pair_h.items():
                if len(ids) > min(b[u], b[v]):
                    raise StreamInvariantError(
                        f"H holds too many parallel edges between {u} and {v}")

    def process_phase1_edge(eid: int) -> bool:
        """Returns True when the edge triggered an insertion (or replacement)."""
        e = G.edges[eid]
        bu, bv = b[e.u], b[e.v]
        if not (wdeg[e.u] * bv + wdeg[e.v] * bu < beta_minus * e.w * bu * bv):
            return False
        if variant == 3:
            held = pair_h.get(e.pair())
            if held and len(held) >= min(bu, bv):
                lightest = min(held, key=lambda i: (G.edges[i].w, i))
                if e.w <= G.edges[lightest].w:
                    return False  # irrelevant duplicate, ignore
                delta = phi_delta_remove(lightest) if check_invariants else None
                h_remove(lightest)
                if check_invariants:
                    delta += phi_delta_add(eid)
                h_add(eid)
                stats.replacement_count += 1
                if check_invariants and delta < 1:
                    raise StreamInvariantError(
                        f"replacement changed the potential by {delta} < 1")
                repair_upper(e.u, e.v)
                if check_invariants:
                    assert_bounded()
                track()
                return True
        h_add(eid)
        repair_upper(e.u, e.v)
        if check_invariants:
            assert_bounded()
        track()
        return True

    # ---- phase 1 -----------------------------------------------------
    pos = 0
    collect_all = False
    if m > 0:
        levels = m.bit_length() - 1          # floor(log2 m)
        logden = (m - 1).bit_length()        # ceil(log2 m); 0 only for m = 1
        bw2 = beta * beta * W * W
        i = 0
        stopped = False
        while not stopped and pos < m:
            if i > levels:
                break
            if logden == 0:
                alpha_i = 0
            else:
                denom = logden * ((1 << (i + 2)) * bw2 + 1)
                alpha_i = (eps.numerator * m) // (eps.denominator * denom)
            stats.final_guess_i = i
            if alpha_i == 0:
                stats.fallback_used = "alpha_zero"
                collect_all = True
                break
            epoch_limit = (1 << (i + 2)) * bw2 + 1
            for _ in range(epoch_limit):
                if pos >= m:
                    break
                stats.epoch_count += 1
                found_underfull = False
                for _ in range(alpha_i):
                    if pos >= m:
                        break
                    eid = order[pos]
                    pos += 1
                    stats.phase1_edges_consumed += 1
                    if observer is not None:
                        observer.observe(eid)
                        track()
                    if process_phase1_edge(eid):
                        found_underfull = True
                if not found_underfull:
                    stopped = True
                    break
            i += 1

    if check_invariants and stats.fallback_used == "none":
        budget = -((-eps.numerator * m) // eps.denominator)  # ceil(eps * m)
        if stats.phase1_edges_consumed > budget:
            raise StreamInvariantError(
                f"phase 1 consumed {stats.phase1_edges_consumed} edges, beyond ceil(eps*m)={budget}")

    # ---- phase 2: H is frozen ----------------------------------------
    while pos < m:
        eid = order[pos]
        pos += 1
        if observer is not None:
            observer.observe(eid)
            track()
        if collect_all:
            X.add(eid)
            track()
            continue
        e = G.edges[eid]
        bu, bv = b[e.u], b[e.v]
        if variant == 3:
            held = pair_h.get(e.pair())
            if held and len(held) >= min(bu, bv):
                underfull = min(G.edges[i].w for i in held) < e.w
            else:
                underfull = wdeg[e.u] * bv + wdeg[e.v] * bu < beta_minus * e.w * bu * bv
        else:
            underfull = wdeg[e.u] * bv + wdeg[e.v] * bu < beta_minus * e.w * bu * bv
        if underfull:
            X.add(eid)
            track()

    stats.underfull_collected = len(X)
    stats.peak_stored_edges = peak
    return H, X, stats


def run_with_fallbacks(stream: EdgeStream, b: Capacities, params: EdcsParams, epsilon, *,
                       variant: int = 1, oracle_budget: int = DEFAULT_ORACLE_BUDGET,
                       check_invariants: bool = False) -> StreamRunResult:
    """The full product: the single-pass runner plus the store-everything
    shortcut for small outputs, with one extraction per stream.

    A relevant-subgraph store runs alongside the main pass, capped at
    2n * (3 W^2 / (2 eps^2)) * ln(m) edges.  At the end of the stream one
    decision picks what to solve: the stored graph if the store survived
    (``fallback_used = small_output``), otherwise H | X as in
    :func:`run_single_pass`.  Peak memory counts both structures.
    """
    G = stream.graph
    eps = _checked_epsilon(epsilon)
    cap = 2 * G.n * (3 * params.W ** 2 / (2 * float(eps) ** 2)) * math.log(max(stream.m, 2))
    store = _RelevantStore(G, b, cap)
    H, X, stats = _two_phase_pass(stream, b, params, epsilon, variant, check_invariants, store)
    if store.alive:
        stats.fallback_used = "small_output"
        edge_ids = store.edge_ids()
    else:
        edge_ids = sorted(H.members | X)
    return _extract(H, X, stats, b, edge_ids, oracle_budget)
