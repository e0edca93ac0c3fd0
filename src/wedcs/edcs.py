"""Degree-constrained sparsifiers for weighted b-matching.

A subgraph H of a weighted multigraph G with capacities b is kept "tight"
through two properties, for integer parameters beta >= 3 and
beta_minus <= beta - 2:

  (i)  every member edge (u, v, w) satisfies
       wdeg_H(u)/b_u + wdeg_H(v)/b_v <= beta * w
  (ii) every non-member edge satisfies
       wdeg_H(u)/b_u + wdeg_H(v)/b_v >= beta_minus * w

Property (i) keeps H sparse (each vertex ends up with degree at most
beta * b_v); property (ii) guarantees H retains a near-optimal b-matching.
Both are one comparison in exact integer arithmetic; the termination
argument lives on slacks of 1/(b_u * b_v) that floating point would
destroy.  Per edge, and over edge columns, the comparison is
cross-multiplied by b_u * b_v; it and the potential's change per step are
written once, here, for the builder, the validator and the stream runner:
:func:`_excess` per edge, :func:`_degree_terms` over edge columns, and
:func:`_step_gain`.  The builder and the stream runner's phase 1 change H
only through one :class:`_Ledger`, which inserts, removes, and after an
insertion repairs the members pushed over their bound.  The ledger also
keeps every weighted degree over one common denominator L = lcm(b), as
the integer load wdeg_H(x) * (L // b_x).  An edge's two loads summed and
compared with k * w * L give the sign of its :func:`_excess` at k, so the
builder's queue pops, phase 1's underfull test and the repair's search for
members over their bound test an edge with two list reads and an add;
:func:`_excess` itself runs only where a step's gain needs its value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import Capacities, MultiGraph, Subgraph, _first_crowded_pair, _reject_crowded

__all__ = [
    "EdcsParams",
    "ViolationReport",
    "BuildTrace",
    "LocalSearchError",
    "parameters_for",
    "validate",
    "potential",
    "build_w_edcs",
    "build_wb_edcs",
]

#: Upper end of the parameter search; beyond this the epsilon requested is
#: considered unreasonable.
BETA_SEARCH_CAP = 2**32


class LocalSearchError(RuntimeError):
    """A builder self-check failed (potential gain or degree cap)."""


@dataclass(frozen=True)
class EdcsParams:
    """Sparsifier parameters.

    ``epsilon`` and ``lam`` are only populated when the parameters were
    derived from an approximation target; hand-picked (beta, beta_minus)
    pairs leave them None.
    """

    W: int
    beta: int
    beta_minus: int
    epsilon: Fraction | None = None
    lam: Fraction | None = None

    def __post_init__(self):
        if self.W < 1:
            raise ValueError("weight cap W must be >= 1")
        if self.beta < 3:
            raise ValueError("beta must be >= 3")
        if not (0 <= self.beta_minus <= self.beta - 2):
            raise ValueError("beta_minus must lie in [0, beta - 2]")


@dataclass
class ViolationReport:
    """Outcome of a validation pass.

    ``upper_violations`` lists member edges breaking the membership bound
    (i); ``lower_violations`` lists non-member edges breaking the exclusion
    bound (ii).  Both empty means H is a valid sparsifier for the given
    parameters.
    """

    upper_violations: list[int] = field(default_factory=list)
    lower_violations: list[int] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.upper_violations and not self.lower_violations

    def to_json_dict(self) -> dict:
        return {
            "clean": self.is_clean,
            "upper_violations": list(self.upper_violations),
            "lower_violations": list(self.lower_violations),
        }


@dataclass
class BuildTrace:
    """Summary of one local-search construction."""

    steps: int
    insertions: int
    removals: int
    phi_final: Fraction
    min_gain: Fraction | None  # smallest potential increase over all steps

    def to_json_dict(self) -> dict:
        return {
            "steps": self.steps,
            "insertions": self.insertions,
            "removals": self.removals,
            "phi_final": str(self.phi_final),
            "min_gain": None if self.min_gain is None else str(self.min_gain),
        }


def _checked_epsilon(epsilon) -> Fraction:
    """epsilon as a ``Fraction`` in (0, 1/2), or ``ValueError``."""
    if isinstance(epsilon, float):
        # accept floats through their decimal spelling so 0.4 means 2/5
        epsilon = str(epsilon)
    eps = Fraction(epsilon)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError(f"epsilon must be in (0, 1/2), got {eps}")
    return eps


def parameters_for(epsilon, W: int) -> EdcsParams:
    """Pick (beta, beta_minus) for an approximation target epsilon.

    Returns the smallest beta such that, with lambda = epsilon / (100 W),

        (beta + 8W) / ln(beta + 8W) >= 2 W^2 / lambda^2, and
        some integer beta_minus <= beta - 2 has
        beta_minus - 6W >= (1 - lambda) * (beta + 8W),

    with the smallest admissible beta_minus.  Both conditions only turn
    from false to true as beta grows: x / ln x increases for
    x = beta + 8W >= 11, and the second reduces exactly to
    lambda * (beta + 8W) >= 14W + 2.  So a bisection over
    [3, BETA_SEARCH_CAP] finds beta.  The resulting values are polynomial
    in W and 1/epsilon but far too large for desk-scale graphs (around
    1.8e6 already for epsilon=0.4, W=1); to pin beta directly for
    experiments, construct :class:`EdcsParams` (``--beta`` on the command
    line).
    """
    eps = _checked_epsilon(epsilon)
    if W < 1:
        raise ValueError("W must be >= 1")
    lam = eps / (100 * W)
    target = float(Fraction(2 * W * W) / (lam * lam))

    def beta_minus(beta: int) -> int:
        return math.ceil((1 - lam) * (beta + 8 * W) + 6 * W)

    def admissible(beta: int) -> bool:
        x = beta + 8 * W
        return x / math.log(x) >= target and beta_minus(beta) <= beta - 2

    if not admissible(BETA_SEARCH_CAP):
        raise ValueError(f"no admissible parameters with beta <= {BETA_SEARCH_CAP}")
    lo, hi = 3, BETA_SEARCH_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if admissible(mid):
            hi = mid
        else:
            lo = mid + 1
    return EdcsParams(W=W, epsilon=eps, lam=lam, beta=lo, beta_minus=beta_minus(lo))


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


class _Ledger:
    """H with a per-vertex member map, kept under property (i): the only
    code that changes the H of the builder or of the stream's phase 1.

    ``at[x]`` maps each member at x to its other endpoint.  ``weight[i]``
    is member i's weight, from a mapping the caller keeps: the builder's
    weight column, or the dict phase 1 fills at each insertion.

    ``load[x]`` is wdeg_H(x) * (L // b_x), with L = lcm of all capacities:
    the weighted degrees over one common denominator.  An edge's
    :func:`_excess` at k is (b_u * b_v / L) * (load[u] + load[v] - k * w * L),
    so ``load[u] + load[v]`` compared with ``k * w * L`` has the sign of
    that excess: property (i) is ``load[u] + load[v] > beta * w * L``
    broken, and the edge is underfull when the sum is below
    ``beta_minus * w * L``.  That is two list reads and an add per test.
    L can be wide; Python integers just grow.
    """

    __slots__ = ("H", "at", "weight", "caps", "beta", "L", "unit", "load")

    def __init__(self, G: MultiGraph, b: Capacities, beta: int, weight):
        self.H = Subgraph(G)
        self.at: list[dict[int, int]] = [{} for _ in range(G.n)]
        self.weight = weight
        self.caps = b.b
        self.beta = beta
        self.L = math.lcm(*b.b)
        self.unit = [self.L // c for c in b.b]
        self.load = [0] * G.n

    def insert(self, eid: int, u: int, v: int, w: int) -> None:
        H = self.H
        H.members.add(eid)
        self.at[u][eid] = v
        self.at[v][eid] = u
        wdeg, deg, load, unit = H.wdeg, H.deg, self.load, self.unit
        wdeg[u] += w
        wdeg[v] += w
        deg[u] += 1
        deg[v] += 1
        load[u] += w * unit[u]
        load[v] += w * unit[v]

    def remove(self, eid: int, u: int, v: int, w: int) -> None:
        H = self.H
        H.members.remove(eid)
        del self.at[u][eid], self.at[v][eid]
        wdeg, deg, load, unit = H.wdeg, H.deg, self.load, self.unit
        wdeg[u] -= w
        wdeg[v] -= w
        deg[u] -= 1
        deg[v] -= 1
        load[u] -= w * unit[u]
        load[v] -= w * unit[v]

    def repair(self, u: int, v: int) -> list[tuple[int, int, int, int, int]]:
        """After an insertion at (u, v), remove the members at u or v over
        their bound in ascending id order, each re-checked with
        :func:`_excess` at its turn, and return (id, x, y, w, excess) per
        removal, x its end at u or v.

        The candidates are found with the loads: a member (x, y, w) is
        over its bound exactly when load[x] + load[y] > beta * w * L, the
        sign of its excess.  Before the insertion every member was within
        its bound, so only members at u or v can be over it now, and
        removals only lower degrees: one pass leaves every member within
        it.  A parallel (u, v) member is tested from both ends, hence the
        set."""
        load, at, weight = self.load, self.at, self.weight
        limit = self.beta * self.L
        lu, lv = load[u], load[v]
        over = [i for i, y in at[u].items() if lu + load[y] > limit * weight[i]]
        over += [i for i, y in at[v].items() if lv + load[y] > limit * weight[i]]
        if not over:
            return []
        wdeg, caps, beta = self.H.wdeg, self.caps, self.beta
        removed = []
        for i in sorted(set(over)):
            x = u if i in at[u] else v
            y, w = at[x][i], weight[i]
            e = _excess(wdeg[x], wdeg[y], caps[x], caps[y], w, beta)
            if e > 0:
                self.remove(i, x, y, w)
                removed.append((i, x, y, w, e))
        return removed


def _degree_terms(wdeg: list[int], b: Capacities, coef: int):
    """The degree rule over edge columns, for the degrees ``wdeg``.

    Returns a function of column arrays (u, v, w) that gives
    wdeg_u * b_v + wdeg_v * b_u and b_u * b_v * w per edge; property (i)
    or (ii) compares the first with beta or beta_minus times the second.
    Given ``coef`` >= k * w for every edge and every k compared with, the
    arrays are int64 unless a term could reach 2**62, and Python integers
    (``object``) beyond that.  ``wdeg`` and ``b`` are converted once, here.
    """
    b_max = max(b.b, default=1)
    big = max(2 * max(wdeg, default=0), coef * b_max) * b_max >= 2**62
    dtype = object if big else np.int64
    caps = np.asarray(b.b, dtype=dtype)
    wd = np.asarray(wdeg, dtype=dtype)

    def terms(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bu, bv = caps[u], caps[v]
        return wd[u] * bv + wd[v] * bu, bu * bv * w

    return terms


def validate(G: MultiGraph, b: Capacities, H: Subgraph, params: EdcsParams) -> ViolationReport:
    """Check both degree properties for every edge of G; exact arithmetic.

    Returns every violating edge id, member edges under
    ``upper_violations`` and non-member edges under ``lower_violations``.
    The test runs over G's columns at once, in int64 or, where a term
    could overflow that, in Python integers.
    """
    if H.parent is not G:
        raise ValueError("H must be a subgraph of G")
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    lhs, scaled = _degree_terms(H.wdeg, b, params.beta * G.W)(G.u, G.v, G.w)
    member = np.zeros(G.m, dtype=bool)
    member[np.fromiter(H.members, dtype=np.int64, count=len(H.members))] = True
    upper = np.flatnonzero(member & np.asarray(lhs > scaled * params.beta, dtype=bool))
    lower = np.flatnonzero(~member & np.asarray(lhs < scaled * params.beta_minus, dtype=bool))
    return ViolationReport(upper.tolist(), lower.tolist())


def potential(H: Subgraph, b: Capacities, params: EdcsParams) -> Fraction:
    """(2 beta - 2) * sum of squared member weights, minus the
    capacity-normalized sum of squared weighted degrees.

    Strictly increases with every local-search step, which is what bounds
    construction time.  The degree sum is taken in integers per distinct
    capacity, one ``Fraction`` per capacity value.
    """
    G = H.parent
    ids = np.fromiter(H.members, dtype=np.int64, count=len(H.members))
    sq = sum(w * w for w in G.w[ids].tolist())
    by_cap: dict[int, int] = {}
    for d, c in zip(H.wdeg, b.b, strict=True):
        if d:
            by_cap[c] = by_cap.get(c, 0) + d * d
    return Fraction((2 * params.beta - 2) * sq) - sum(
        (Fraction(total, c) for c, total in by_cap.items()), Fraction(0))


def build_w_edcs(G: MultiGraph, params: EdcsParams):
    """Local-search construction for a simple weighted graph (all b_v = 1).

    Returns ``(H, trace)`` where H validates with zero violations.  Every
    step increases the potential by at least 2, so the step count is at
    most half the final potential (and at most beta^2 W^2 n overall).
    """
    if _first_crowded_pair(G, 1) is not None:
        raise ValueError("graph must be simple (parallel edges found)")
    b = Capacities.uniform(G.n)
    return _local_search(G, b, params)


def build_wb_edcs(G: MultiGraph, b: Capacities, params: EdcsParams):
    """Local-search construction for a capacitated multigraph.

    Requires at most min(b_u, b_v) parallel edges per vertex pair (reduce
    with :func:`wedcs.graph.relevant_subgraph` first).  Returns
    ``(H, trace)``.  Every step on an edge (u, v, w) increases the
    potential by at least g = w^2 (2 - 1/b_u - 1/b_v) + 2w / (b_u * b_v),
    which the builder checks per step.  So every step gains at least
    1 + 1/(b_u * b_v), at least 3/2 unless a w = 1 edge joins a
    unit-capacity endpoint to a capacity >= 3 one, and 2w in the all-unit
    case; termination follows because the potential is bounded.
    """
    _reject_crowded(G, b, "reduce to the relevant subgraph first")
    return _local_search(G, b, params)


def _local_search(G: MultiGraph, b: Capacities, params: EdcsParams):
    """Fix violations until none remain.

    One FIFO queue of edges to test for property (ii), each re-verified on
    pop.  A pop that finds its edge underfull inserts it, and
    :meth:`_Ledger.repair` at once removes the members it pushed over their
    bound, so vertex degrees stay within beta * b_v + 1 at all times.
    These are the removals a second queue for property (i), drained before
    every pop, would make, in its order: an insertion would find that
    queue empty and fill it with exactly the members ``repair`` walks,
    ascending, and removals would add nothing to it.  Each removal queues,
    in id order, only the edges whose status can have changed: those
    incident to the removed edge's endpoints.

    Every edge is in one of three states: a member of H, queued
    (``in_lower``), or idle, which is an edge popped and found not
    underfull.  A queued edge is never a member, since insertions happen
    only at pops; so an edge turns idle only at a pop, and stops being
    idle only when a refill at one of its endpoints queues it again.
    ``idle[x]``, a plain list, tracks this: a pop that finds its edge not
    underfull appends it at both endpoints.  Entries go stale (the edge
    was queued from its other end, or is a member by now) and are cleaned
    lazily: a refill at x skips them and empties the list.

    After a removal of (u, v) the queue gets the removed edge and every
    entry of ``idle[u]`` and ``idle[v]`` that is neither queued nor a
    member, marked ``in_lower`` as it is collected so that parallel edges
    and stale copies come once, sorted.  An idle edge at x is always in
    ``idle[x]`` (it was appended at its pop, and only a refill at x, which
    queues it, empties the list), so this is exactly the set a scan of all
    edges at u and v for those neither queued nor members would find.

    Each pop tests its edge with the ledger's loads, load[u] + load[v]
    against beta_minus * w * L, which has the sign of the edge's
    :func:`_excess` over beta_minus (see :class:`_Ledger`); an insertion
    takes its gain from that excess (:func:`_step_gain`).  The potential
    is summed in integers, one sum per denominator b_u * b_v, and becomes
    a single ``Fraction`` at the end.
    """
    beta, beta_minus = params.beta, params.beta_minus
    m = G.m
    q_lower: deque[int] = deque(range(m))
    in_lower = bytearray(b"\x01") * m

    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()
    caps = b.b
    ledger = _Ledger(G, b, beta, ew)
    H = ledger.H
    wdeg, deg, members, load = H.wdeg, H.deg, H.members, ledger.load
    minus_L = beta_minus * ledger.L  # underfull: load[u] + load[v] < minus_L * w
    idle: list[list[int]] = [[] for _ in range(G.n)]
    steps = insertions = removals = 0
    # per denominator b_u * b_v: the summed and the smallest scaled gain
    gain_sum: dict[int, int] = {}
    gain_min: dict[int, int] = {}

    def note_gain(gain_scaled: int, w: int, bu: int, bv: int):
        # a step on edge (u, v, w) gains at least the floor
        # g = w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v), scaled here by b_u b_v
        # (see _step_gain); at unit capacities g = 2w, the classic 2
        denom = bu * bv
        gain_sum[denom] = gain_sum.get(denom, 0) + gain_scaled
        if gain_scaled < gain_min.get(denom, gain_scaled + 1):
            gain_min[denom] = gain_scaled
        floor_scaled = w * w * (2 * denom - bu - bv) + 2 * w
        if gain_scaled < floor_scaled:
            raise LocalSearchError(
                f"potential gain {Fraction(gain_scaled, denom)} below the per-step floor "
                f"w^2(2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) = {Fraction(floor_scaled, denom)} "
                f"for w={w}, b_u={bu}, b_v={bv}")

    while q_lower:
        eid = q_lower.popleft()
        in_lower[eid] = 0
        u, v, w = eu[eid], ev[eid], ew[eid]
        if load[u] + load[v] >= minus_L * w:
            idle[u].append(eid)
            idle[v].append(eid)
            continue
        bu, bv = caps[u], caps[v]
        e = _excess(wdeg[u], wdeg[v], bu, bv, w, beta_minus)
        ledger.insert(eid, u, v, w)
        steps += 1
        insertions += 1
        note_gain(_step_gain(params, True, e, w, bu, bv), w, bu, bv)
        for x in (u, v):
            cap = beta * caps[x] + 1
            if deg[x] > cap:
                raise LocalSearchError(f"mid-build degree {deg[x]} at vertex {x} exceeds {cap}")
        removed = ledger.repair(u, v)
        # each removed edge is queued by its own refill; marked now, an
        # earlier removal's refill skips it, as it skipped a member
        for r in removed:
            in_lower[r[0]] = 1
        for eid, u, v, w, e in removed:
            bu, bv = caps[u], caps[v]
            steps += 1
            removals += 1
            note_gain(_step_gain(params, False, e, w, bu, bv), w, bu, bv)
            # the removed edge and every idle edge at u or v, each once
            fresh = [eid]
            for x in (u, v):
                for i in idle[x]:
                    if not in_lower[i] and i not in members:
                        in_lower[i] = 1
                        fresh.append(i)
                idle[x].clear()
            fresh.sort()
            q_lower.extend(fresh)

    phi = sum((Fraction(total, denom) for denom, total in gain_sum.items()), Fraction(0))
    min_seen = min((Fraction(low, denom) for denom, low in gain_min.items()), default=None)
    trace = BuildTrace(steps=steps, insertions=insertions, removals=removals,
                       phi_final=phi, min_gain=min_seen)
    report = validate(G, b, H, params)
    if not report.is_clean:
        raise LocalSearchError(f"construction left violations: {report}")
    if phi != potential(H, b, params):
        raise LocalSearchError("incremental potential diverged from recount")
    return H, trace
