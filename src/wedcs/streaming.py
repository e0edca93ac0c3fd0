"""Single-pass b-matching over randomly ordered edge streams.

Phase 1 grows a subgraph H that keeps only the membership degree bound
(every kept edge has capacity-normalized weighted endpoint degrees summing
to at most beta times its weight).  Because the right interval size
depends on the unknown optimal matching size, the phase tries levels
i = 0, 1, ... with geometrically growing epoch budgets; one full interval
without a single insertion ends the phase.  Phase 2 freezes H and collects
every remaining "underfull" edge (one that would still be worth inserting)
into a side set X.  The answer is a maximum-weight b-matching of H | X.

Every stream runs one replacement rule that keeps at most min(b_u, b_v)
copies of a pair in H (:func:`run_single_pass`); ``variant`` is an input
contract, not a second algorithm.

Phase 1 is sequential, one loop over levels read edge by edge.  Against
the frozen H an edge's fate depends only on its pair and weight, so
phase 2 is one threshold per pair.  The relevant store of
:func:`run_with_fallbacks` only grows, so whether it survives is known up
front; its size series is computed over chunks of stream positions only
where the peak needs it.  Outcome, counters and peak are those of an
edge-at-a-time pass.  :func:`make_stream` draws each order with numpy's
own seeded Fisher-Yates shuffle.

Two degenerate regimes are handled explicitly:

* ``alpha_zero``  -- the interval size floors to zero (the stream is too
  short for the parameters); all remaining edges are stored verbatim.
* ``small_output`` -- a parallel store of the relevant subgraph never
  exceeded its cap, so the stored graph is solved in place of H | X
  (:func:`run_with_fallbacks` only).  It is G's relevant subgraph for
  every seed: on bipartite G, streams and oracle share one cached solve.

Everything is deterministic given (graph, seed, parameters).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .edcs import EdcsParams, _checked_epsilon, _degree_terms, _scaled_gain
from .graph import (
    Capacities,
    MultiGraph,
    Subgraph,
    _pair_caps,
    _rank_in_runs,
    _reject_crowded,
    _relevant_ids,
)
from .matching import (
    BMatching,
    OracleBudgetExceeded,
    DEFAULT_ORACLE_BUDGET,
    _bipartite_answer,
    _fits_int64,
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
    "run_single_pass",
    "run_with_fallbacks",
]

#: Stream permutations come from numpy's ``Generator.permutation`` over
#: PCG64: a Fisher-Yates shuffle that, for i = m-1 down to 1, swaps
#: position i with j <= i drawn by masked rejection from PCG64's 32-bit
#: output halves, low half first.  Seeds replay identically across
#: platforms.  Runs recorded as ``pcg64-fisher-yates`` drew j by Lemire's
#: method instead; replaying them needs the package from before this id.
PRNG_ID = "pcg64-permutation"

#: Stream positions per array step of the relevant store: the first step
#: takes ``_FIRST_CHUNK`` of them, each later one as many as came before
#: it, up to ``_CHUNK``; a store read only for a short phase 1 ranks few.
_CHUNK = 1 << 15
_FIRST_CHUNK = 1 << 10


class StreamInvariantError(RuntimeError):
    """A runtime self-check of the stream algorithm failed."""


@dataclass(frozen=True, eq=False)
class EdgeStream:
    """A fixed permutation of a graph's edge ids with a declared length.

    ``order`` is kept as an int32 array (int64 from 2**31 edges on),
    whatever sequence of ids it was given as."""

    graph: MultiGraph
    order: np.ndarray
    seed: int | None
    prng: str

    @property
    def m(self) -> int:
        return len(self.order)

    def __post_init__(self):
        m = self.graph.m
        ids = np.asarray(self.order)
        if ids.ndim != 1 or len(ids) != m or m > 0 and not (
                ids.dtype.kind in "iu" and ids.min() >= 0 and ids.max() < m
                and _hits_all(ids, m)):
            raise ValueError("order must be a permutation of all edge ids")
        object.__setattr__(self, "order", ids.astype(_order_type(m), copy=False))


def _hits_all(ids: np.ndarray, m: int) -> bool:
    """Whether ids, all in [0, m), hit every id of [0, m): one bool
    scatter, where a count would take m int64s."""
    hit = np.zeros(m, dtype=bool)
    hit[ids] = True
    return bool(hit.all())


def _order_type(m: int) -> type:
    return np.int32 if m < 2**31 else np.int64


def make_stream(G: MultiGraph, seed: int) -> EdgeStream:
    """Uniformly random edge order from a seeded generator; same seed,
    same order: numpy's Fisher-Yates ``permutation`` of the edge ids over
    PCG64 (see :data:`PRNG_ID`).  The int64 permutation is freed before
    the narrowed order is checked.  ``shuffle`` of an int32 ``arange``
    would draw the same order in half the memory, but numpy swaps 8-byte
    items on a specialised path: at 2e5 ids the int32 shuffle took 5.4 ms
    against 3.1 ms for the int64 permutation (numpy 2.4, 2-CPU host)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return EdgeStream(G, rng.permutation(G.m).astype(_order_type(G.m), copy=False), seed,
                      PRNG_ID)


def file_order_stream(G: MultiGraph) -> EdgeStream:
    """Edges in input order; for adversarial-order experiments, which the
    approximation guarantees do not cover."""
    return EdgeStream(G, np.arange(G.m, dtype=_order_type(G.m)), None, "as-is")


@dataclass
class StreamRunStats:
    """Per-run instrumentation; everything needed to audit a run.

    ``peak_stored_edges`` is the most edges the pass holds at once: |H|,
    plus |X|, plus the relevant store's size for
    :func:`run_with_fallbacks`.  Under ``alpha_zero`` X holds every edge,
    and a store that survives (``small_output``) holds the relevant
    subgraph besides, so the peak reads about 2m.  Both count because a
    one-pass run holds both: whether the store survives is known only at
    the end of the stream, and this package knows it sooner only because
    it holds all of G."""

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
        return asdict(self)


class StreamRunResult(NamedTuple):
    """H as a subgraph (empty when phase 1 read no edge); X as the int
    array of its edge ids, in stream order."""

    H: Subgraph
    X: np.ndarray
    matching: BMatching
    stats: StreamRunStats


class _RelevantStore:
    """The relevant store's size after each stream position, computed a
    chunk of positions at a time when first read (see :data:`_CHUNK`).

    The store keeps the heaviest min(b_u, b_v) edges seen so far of every
    pair, so an arrival grows it by one exactly when fewer than
    min(b_u, b_v) edges of its pair arrived before it.  It dies at the
    first position where its size reaches ``cap`` (at once when
    ``cap < 1``) and has size 0 from there on.  Its size only grows, to
    ``final`` = |relevant subgraph|, the sum of min(edge count, cap) over
    the pairs, so it survives (``alive``) exactly when cap >= 1 and
    final < cap.  It reads G's pair numbering and pair caps alone, so a
    pass can run while another thread solves G."""

    def __init__(self, G: MultiGraph, b: Capacities, order: np.ndarray, cap: float):
        self.pair, self.order, self.cap = G.pair, order, cap
        self.limit = _pair_caps(G, b)
        self.final = int(np.minimum(G.pair_count, self.limit).sum())
        self.alive = cap >= 1 and self.final < cap
        self.death = 0 if cap < 1 else len(order)  # the first position of size 0
        self.seen = np.zeros(len(self.limit), dtype=np.int64)
        self.lo = self.hi = 0  # the positions of ``sizes``
        self.sizes = np.zeros(0, dtype=np.int64)

    def _next_chunk(self) -> None:
        lo = self.hi
        pair = self.pair[self.order[lo:lo + min(_CHUNK, max(_FIRST_CHUNK, lo))]]
        # rank of each arrival among its pair's arrivals so far
        by = np.argsort(pair, kind="stable")
        rank = np.empty(len(pair), dtype=np.int64)
        rank[by] = _rank_in_runs(pair[by])
        rank += self.seen[pair]
        np.add.at(self.seen, pair, 1)
        run = np.cumsum(rank < self.limit[pair])
        run += self.sizes[-1] if len(self.sizes) else 0
        full = np.flatnonzero(run >= self.cap)
        if full.size:
            self.death = lo + int(full[0])
        self.lo, self.hi, self.sizes = lo, lo + len(pair), run

    def size_at(self, k: int) -> int:
        """The store's size after the arrival at position ``k``; positions
        are read in ascending order."""
        while self.hi <= k < self.death:
            self._next_chunk()
        return int(self.sizes[k - self.lo]) if k < self.death else 0

    def peak_with(self, pos: int, kept: np.ndarray | None) -> int:
        """max over positions t >= ``pos`` before the store's death of its
        size plus ``kept[:t - pos + 1].sum()``, where ``kept`` None keeps
        every position; 0 when there is none.

        Before the death both terms only grow, so the maximum is at the
        last position before it, where the size is ceil(cap) - 1: one
        arrival later it first reaches cap."""
        while self.hi < self.death:
            self._next_chunk()
        if self.death <= pos:
            return 0
        before = self.death - pos
        return math.ceil(self.cap) - 1 + (before if kept is None else int(kept[:before].sum()))


def _phase2_keep(G: MultiGraph, b: Capacities, H: Subgraph, params: EdcsParams) -> np.ndarray:
    """Per edge id, whether phase 2 adds the edge to X if it arrives after
    a phase 1 that ended by itself: when its weight exceeds its pair's
    threshold against the frozen H.

    At a pair that H holds min(b_u, b_v) copies of, the threshold is the
    lightest held weight.  Elsewhere an edge joins when underfull,
    lhs < beta_minus * b_u * b_v * w, which for an integer w is
    w > floor(lhs / (beta_minus * b_u * b_v)); with beta_minus = 0 no edge
    is.  Thresholds are clipped to [0, W], in w's type."""
    lo, hi = G.pair_ends
    if params.beta_minus:
        lhs, scaled = _degree_terms(H.wdeg, b, params.beta_minus * params.W)(lo, hi, 1)
        thr = np.minimum(lhs // (scaled * params.beta_minus), G.W).astype(G.w.dtype)
    else:
        thr = np.full(len(lo), G.W, dtype=G.w.dtype)
    held_pair = G.pair[H.members]
    full = np.bincount(held_pair, minlength=len(lo))[held_pair] >= _pair_caps(G, b)[held_pair]
    held_pair, held_w = held_pair[full], G.w[H.members[full]]
    thr[held_pair] = held_w  # some held weight, lowered to the lightest next
    np.minimum.at(thr, held_pair, held_w)
    return np.asarray(G.w > thr[G.pair], dtype=bool)


def _with_members(H: Subgraph, X: np.ndarray) -> np.ndarray:
    """The ids of H | X in one array: H's members, then X."""
    return np.concatenate((H.members, X))


def _extract(H: Subgraph, X: np.ndarray, stats: StreamRunStats, b: Capacities,
             edge_ids: Iterable[int] | None, oracle_budget: int) -> StreamRunResult:
    """Best b-matching restricted to ``edge_ids`` (G itself when None),
    recorded in ``stats``: exact when the solver budget allows, greedy
    otherwise.  ``X``, the side set's id array, is returned as given.  The
    solver's ids map back to G's through ``restrict``'s id array."""
    sub, old_ids = (H.parent, None) if edge_ids is None else H.parent.restrict(edge_ids)
    try:
        matching = max_weight_b_matching_exact(sub, b, oracle_budget)
        stats.extraction = "exact"
    except OracleBudgetExceeded:
        matching = max_weight_b_matching_greedy(sub, b)
        stats.extraction = "greedy"
    if old_ids is not None:
        ids = np.sort(old_ids[np.asarray(matching.edge_ids, dtype=np.int64)])
        matching = BMatching(ids.tolist(), matching.weight)
    stats.result_weight = matching.weight
    return StreamRunResult(H, X, matching, stats)


def run_single_pass(stream: EdgeStream, b: Capacities, params: EdcsParams, epsilon, *,
                    variant: int = 1, oracle_budget: int = DEFAULT_ORACLE_BUDGET,
                    check_invariants: bool = False) -> StreamRunResult:
    """One pass over the stream; the core two-phase algorithm.

    H holds at most min(b_u, b_v) copies of a pair: when the pair is full,
    an arriving underfull edge is ignored unless strictly heavier than the
    lightest held copy, which it then replaces; phase 2 applies the
    matching two-case test.  Both variants run this rule; ``variant`` is
    an input contract.  ``variant=1`` promises at most min(b_u, b_v)
    parallel edges per pair, rejects input that breaks it, and so never
    fires the rule: a pair is full in H only once its last copy arrived.
    ``variant=3`` takes raw multiplicities.

    Interval sizes use ceil(log2 m) in the denominator (recorded in the
    stats as ``alpha_log_mode``) and level i runs at most
    2^(i+2) * beta^2 * W^2 + 1 epochs.  An insertion later undone by the
    repair loop still counts as the epoch having found an underfull edge.
    The answer is extracted once, from H | X.

    Two O(1) self-checks run on every stream: each replacement raises the
    potential by at least 1, and a phase 1 that ends by itself consumes
    at most ceil(eps * m) edges.  ``check_invariants`` adds an O(|H|)
    re-check of H's degree bound and pair counts after every insertion.
    A failed check raises :class:`StreamInvariantError`.
    """
    H, X, stats, _ = _two_phase_pass(stream, b, params, _checked_epsilon(epsilon), variant,
                                     check_invariants, None)
    return _extract(H, X, stats, b, _with_members(H, X), oracle_budget)


def _two_phase_pass(stream: EdgeStream, b: Capacities, params: EdcsParams, eps: Fraction,
                    variant: int, check_invariants: bool, store_cap: float | None,
                    ) -> tuple[Subgraph, np.ndarray, StreamRunStats, bool]:
    """Phases 1 and 2 of :func:`run_single_pass` at the checked epsilon
    ``eps``, with a relevant store capped at ``store_cap`` alongside when
    that is not None; returns H, X, the stats without an extraction, and
    whether the store survived.

    ``variant`` only selects the up-front rejection of crowded pairs and
    is recorded in the stats.  Phase 1 (:func:`_phase1`) is one loop over
    levels, each a run of epochs of alpha_i edges.  alpha_i never grows
    with i, so when alpha_0 is 0 phase 1 reads no edge: such an
    ``alpha_zero`` stream never enters :func:`_phase1`, H is empty, and X
    is a copy of the whole order.  Once H is frozen, whether an edge joins X depends
    only on the edge, so phase 2 is one mask over G's edge ids
    (:func:`_phase2_keep`) read at the remaining stream positions, and X
    is an array of ids in stream order; after an ``alpha_zero`` end every
    remaining edge joins, without a mask.  The peak is |H| plus the
    running |X| plus the store's size.  In phase 2 all three only grow
    until the store dies, so the peak there is at the end, or, for a store
    that dies, possibly before its death."""
    if variant not in (1, 3):
        raise ValueError("variant must be 1 or 3")
    G = stream.graph
    if G.W > params.W:
        raise ValueError(f"graph weight cap {G.W} exceeds parameter W={params.W}")
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    m = stream.m
    stats = StreamRunStats(seed=stream.seed, m=m, variant=variant, prng=stream.prng)
    order = stream.order

    if variant == 1:
        _reject_crowded(G, b, "use variant=3 for raw multiplicity streams")

    store = None if store_cap is None else _RelevantStore(G, b, order, store_cap)

    if _interval(params, eps, m, 0):
        H, pos, peak = _phase1(stream, b, params, eps, stats, store, check_invariants)
    else:  # phase 1 stops at level 0 before it reads an edge
        H, pos, peak = Subgraph(G), 0, 0
        if m:
            stats.fallback_used = "alpha_zero"

    # ---- phase 2: H is frozen ----------------------------------------
    store_alive = store is not None and store.alive
    X = order[:0]
    if pos < m:
        rest = order[pos:]
        if stats.fallback_used == "alpha_zero":
            kept, X = None, rest.copy()
        else:
            kept = _phase2_keep(G, b, H, params)[rest]
            X = rest[kept]
        h_size = len(H)
        peak = max(peak, h_size + len(X) + (store.final if store_alive else 0))
        if store is not None and not store_alive:
            peak = max(peak, h_size + store.peak_with(pos, kept))

    stats.underfull_collected = len(X)
    stats.peak_stored_edges = peak
    return H, X, stats, store_alive


def _interval(params: EdcsParams, eps: Fraction, m: int, i: int) -> int:
    """alpha_i, level i's interval size, with ceil(log2 m) in the
    denominator; 0 for m <= 1."""
    logden = (m - 1).bit_length() if m else 0  # ceil(log2 m)
    if not logden:
        return 0
    return (eps.numerator * m) // (eps.denominator * logden * _epoch_limit(params, i))


def _epoch_limit(params: EdcsParams, i: int) -> int:
    """The most epochs level i runs: 2^(i+2) * beta^2 * W^2 + 1."""
    return (1 << (i + 2)) * (params.beta * params.W) ** 2 + 1


def _phase1(stream: EdgeStream, b: Capacities, params: EdcsParams, eps: Fraction,
            stats: StreamRunStats, store: _RelevantStore | None, check_invariants: bool,
            ) -> tuple[Subgraph, int, int]:
    """Phase 1 of :func:`_two_phase_pass` on a stream whose alpha_0 is
    positive; returns H, the positions read and the peak so far, and
    records its counters in ``stats``.

    H is held as ``at[x]``, each member at x mapped to its other end,
    ``weight``, each member's weight, and ``wdeg``, the weighted degrees;
    the :class:`Subgraph` is built once, at the end.  An arriving edge
    (u, v, w) is underfull when wdeg_u b_v + wdeg_v b_u is below
    beta_minus * b_u * b_v * w, and a replacement's two steps are priced
    over b_u * b_v (:func:`~wedcs.edcs._scaled_gain`).  After every
    insertion :func:`_repair` restores property (i)."""
    G = stream.graph
    beta, beta_minus, m, order = params.beta, params.beta_minus, stream.m, stream.order
    caps = b.b
    grow = 2 * beta - 2 - 2 * beta_minus  # an insertion's c in _scaled_gain
    at: list[dict[int, int]] = [{} for _ in range(G.n)]
    weight: dict[int, int] = {}
    wdeg = [0] * G.n
    peak = 0

    def track(k: int) -> None:
        # in phase 1, where X is empty, after the edge at position k arrived
        nonlocal peak
        size = len(weight) + (store.size_at(k) if store is not None else 0)
        if size > peak:
            peak = size

    def assert_bounded() -> None:
        ids = np.fromiter(weight, dtype=np.int64, count=len(weight))
        lhs, scaled = _degree_terms(wdeg, b, beta * G.W)(G.u[ids], G.v[ids], G.w[ids])
        over = ids[np.asarray(lhs > scaled * beta, dtype=bool)]
        if over.size:
            raise StreamInvariantError(
                f"H lost its bounded weighted edge-degree at edge {over.min()}")
        limits = _pair_caps(G, b)
        crowded = np.flatnonzero(np.bincount(G.pair[ids], minlength=len(limits)) > limits)
        if crowded.size:
            lo, hi = G.pair_ends
            raise StreamInvariantError(f"H holds too many parallel edges between "
                                       f"{lo[crowded[0]]} and {hi[crowded[0]]}")

    def insert(eid: int, u: int, v: int, w: int) -> None:
        at[u][eid] = v
        at[v][eid] = u
        weight[eid] = w
        wdeg[u] += w
        wdeg[v] += w

    def process_phase1_edge(eid: int, k: int) -> bool:
        """Returns True when the edge at position k triggered an insertion
        (or replacement)."""
        u, v, w = G.triple(eid)
        bu, bv = caps[u], caps[v]
        lhs = wdeg[u] * bv + wdeg[v] * bu
        if lhs >= beta_minus * bu * bv * w:
            return False
        # the pair's copies in H: at most beta * b_u + 1 members at u
        held = [i for i, y in at[u].items() if y == v]
        if len(held) < min(bu, bv):
            insert(eid, u, v, w)
        else:
            lightest = min(held, key=lambda i: (weight[i], i))
            lw = weight[lightest]
            if w <= lw:
                return False  # irrelevant duplicate, ignore
            # the held copy leaves, then the edge enters: the two steps'
            # gains over b_u * b_v together
            gain = _scaled_gain(lw, 2, bu, bv, lhs - beta * bu * bv * lw)
            _drop(at, weight, wdeg, lightest, u, v)
            lhs = wdeg[u] * bv + wdeg[v] * bu
            gain += _scaled_gain(w, grow, bu, bv, beta_minus * bu * bv * w - lhs)
            insert(eid, u, v, w)
            if gain < bu * bv:
                raise StreamInvariantError(
                    f"replacement changed the potential by {Fraction(gain, bu * bv)} < 1")
            stats.replacement_count += 1
        _repair(at, weight, wdeg, caps, beta, u, v)
        if check_invariants:
            assert_bounded()
        track(k)
        return True

    # levels i = 0 .. floor(log2 m)
    pos = 0
    for i in range(m.bit_length()):
        alpha_i = _interval(params, eps, m, i)
        stats.final_guess_i = i
        if alpha_i == 0:
            stats.fallback_used = "alpha_zero"
            break
        for _ in range(_epoch_limit(params, i)):
            stats.epoch_count += 1
            found_underfull = False
            batch = order[pos:pos + alpha_i].tolist()
            for k, eid in enumerate(batch, pos):
                if store is not None:
                    track(k)
                if process_phase1_edge(eid, k):
                    found_underfull = True
            pos += len(batch)
            if not found_underfull or pos == m:
                break
        else:
            continue  # every epoch found an underfull edge: next level
        break
    stats.phase1_edges_consumed = pos

    budget = -((-eps.numerator * m) // eps.denominator)  # ceil(eps * m)
    if stats.fallback_used == "none" and pos > budget:
        raise StreamInvariantError(
            f"phase 1 consumed {pos} edges, beyond ceil(eps*m)={budget}")
    return Subgraph(G, weight.keys()), pos, peak


def _drop(at: list[dict[int, int]], weight: dict[int, int], wdeg: list[int], eid: int,
          x: int, y: int) -> None:
    """Remove member ``eid``, at x and y, from phase 1's H."""
    del at[x][eid], at[y][eid]
    w = weight.pop(eid)
    wdeg[x] -= w
    wdeg[y] -= w


def _repair(at: list[dict[int, int]], weight: dict[int, int], wdeg: list[int],
            caps: tuple[int, ...], beta: int, u: int, v: int) -> list[int]:
    """After an insertion at (u, v) into phase 1's H, remove the members at
    u or v over their bound in ascending id order, each re-tested at its
    turn, and return their ids.

    A member (x, y, w) is over its bound exactly when
    wdeg_x b_y + wdeg_y b_x > beta * b_x * b_y * w.  Before the insertion
    every member was within its bound, so only members at u or v can be
    over it now, and removals only lower degrees: one pass leaves every
    member within it.  A parallel (u, v) member is tested from both ends,
    hence the set."""
    over = [i for x in (u, v) for i, y in at[x].items()
            if wdeg[x] * caps[y] + wdeg[y] * caps[x] > beta * caps[x] * caps[y] * weight[i]]
    removed = []
    for i in sorted(set(over)):
        x = u if i in at[u] else v
        y = at[x][i]
        if wdeg[x] * caps[y] + wdeg[y] * caps[x] > beta * caps[x] * caps[y] * weight[i]:
            _drop(at, weight, wdeg, i, x, y)
            removed.append(i)
    return removed


def run_with_fallbacks(stream: EdgeStream, b: Capacities, params: EdcsParams, epsilon, *,
                       variant: int = 1, oracle_budget: int = DEFAULT_ORACLE_BUDGET,
                       check_invariants: bool = False, solved=None) -> StreamRunResult:
    """The full product: the single-pass runner plus the store-everything
    shortcut for small outputs, with one extraction per stream.

    A relevant-subgraph store runs alongside the main pass, capped at
    2n * (3 W^2 / (2 eps^2)) * ln(m) edges.  At the end of the stream one
    decision picks what to solve: the stored graph if the store survived
    (``fallback_used = small_output``), otherwise H | X as in
    :func:`run_single_pass`.  Peak memory counts both structures.

    ``solved``, if given, is a ``concurrent.futures.Future`` that another
    thread completes once it has solved G; a stream whose store survived
    waits for it before it reads G's answer, and raises if it is cancelled.
    """
    G = stream.graph
    eps = _checked_epsilon(epsilon)
    cap = 2 * G.n * (3 * params.W ** 2 / (2 * float(eps) ** 2)) * math.log(max(stream.m, 2))
    H, X, stats, store_alive = _two_phase_pass(stream, b, params, eps, variant,
                                               check_invariants, cap)
    if store_alive:
        stats.fallback_used = "small_output"
        if solved is not None:
            solved.result()
        # the store is the R that G's exact solve solves: on bipartite G,
        # read its kept answer (past the int64 limit on G, R may fit it);
        # otherwise compute R, one compare over the edges, and solve it
        edge_ids = None if _fits_int64(G) and _bipartite_answer(G, b) else _relevant_ids(G, b)
    else:
        edge_ids = _with_members(H, X)
    return _extract(H, X, stats, b, edge_ids, oracle_budget)
