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
destroy.  The builder and the stream runner's phase 1 change H only
through one :class:`_Ledger`, which inserts, removes, and after an
insertion repairs the members pushed over their bound.  The ledger keeps
every weighted degree over one common denominator L = lcm(b), as the
integer load wdeg_H(x) * (L // b_x), and is the one place that tests the
rule for one edge and prices a step: an edge's two loads summed and
compared with k * w * L decide the builder's queue pops, phase 1's
underfull test and the repair's removals, and each insertion or removal
returns L times its change of :func:`potential`.  Over edge columns,
:func:`_degree_terms` cross-multiplies the rule by b_u * b_v instead,
which keeps its arrays within int64 where L would not; :func:`validate`,
phase 2 and the stream's invariant check use it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import Capacities, MultiGraph, Subgraph, _reject_crowded

__all__ = [
    "EdcsParams",
    "ViolationReport",
    "BuildTrace",
    "LocalSearchError",
    "parameters_for",
    "validate",
    "potential",
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


class _Ledger:
    """H with a per-vertex member map, kept under property (i): the only
    code that changes the H of the builder or of the stream's phase 1, and
    the one place that tests the degree rule for one edge and prices a
    step.

    ``at[x]`` maps each member at x to its other endpoint.  ``weight[i]``
    is member i's weight, which :meth:`insert` records in a mapping the
    caller gives: the builder's weight column, or a dict phase 1 reads its
    held copies' weights from.

    ``load[x]`` is wdeg_H(x) * (L // b_x), with L = lcm of all capacities:
    the weighted degrees over one common denominator.  For an edge
    (u, v, w), E = load[u] + load[v] - k * w * L is L times
    wdeg_u/b_u + wdeg_v/b_v - k * w: property (i) is broken when E > 0 at
    k = beta, and the edge is underfull when E < 0 at k = beta_minus.
    That is two list reads and an add per test.

    :meth:`insert` and :meth:`remove` return L times the step's change of
    :func:`potential`, from E taken before the step, at beta_minus for an
    insertion and at beta for a removal.  An insertion gains
    w^2 ((2 beta - 2 - 2 beta_minus) L - L/b_u - L/b_v) - 2w E, a removal
    w^2 (2L - L/b_u - L/b_v) + 2w E.  A step that fixes a violation has
    |E| >= L / (b_u * b_v), and beta_minus <= beta - 2, so it gains at
    least L times w^2 (2 - 1/b_u - 1/b_v) + 2w / (b_u * b_v), the
    per-step floor.  L can be wide; Python integers just grow.
    """

    __slots__ = ("H", "at", "weight", "L", "unit", "load", "beta_L", "minus_L", "grow_L")

    def __init__(self, G: MultiGraph, b: Capacities, params: EdcsParams, weight):
        self.H = Subgraph(G)
        self.at: list[dict[int, int]] = [{} for _ in range(G.n)]
        self.weight = weight
        L = self.L = math.lcm(*set(b.b))
        self.unit = [L // c for c in b.b]
        self.load = [0] * G.n
        self.beta_L = params.beta * L
        self.minus_L = params.beta_minus * L
        self.grow_L = (2 * params.beta - 2 - 2 * params.beta_minus) * L

    def insert(self, eid: int, u: int, v: int, w: int) -> int:
        H = self.H
        H.members.add(eid)
        self.at[u][eid] = v
        self.at[v][eid] = u
        self.weight[eid] = w
        wdeg, deg, load, unit = H.wdeg, H.deg, self.load, self.unit
        e = load[u] + load[v] - self.minus_L * w
        wdeg[u] += w
        wdeg[v] += w
        deg[u] += 1
        deg[v] += 1
        load[u] += w * unit[u]
        load[v] += w * unit[v]
        return w * (w * (self.grow_L - unit[u] - unit[v]) - 2 * e)

    def remove(self, eid: int, u: int, v: int, w: int) -> int:
        H = self.H
        H.members.remove(eid)
        del self.at[u][eid], self.at[v][eid]
        wdeg, deg, load, unit = H.wdeg, H.deg, self.load, self.unit
        e = load[u] + load[v] - self.beta_L * w
        wdeg[u] -= w
        wdeg[v] -= w
        deg[u] -= 1
        deg[v] -= 1
        load[u] -= w * unit[u]
        load[v] -= w * unit[v]
        return w * (w * (2 * self.L - unit[u] - unit[v]) + 2 * e)

    def repair(self, u: int, v: int) -> list[tuple[int, int, int, int, int]]:
        """After an insertion at (u, v), remove the members at u or v over
        their bound in ascending id order, each re-checked with the loads
        at its turn, and return (id, x, y, w, gain) per removal, x its end
        at u or v and gain as :meth:`remove` returns it.

        A member (x, y, w) is over its bound exactly when
        load[x] + load[y] > beta * w * L.  Before the insertion every
        member was within its bound, so only members at u or v can be over
        it now, and removals only lower degrees: one pass leaves every
        member within it.  A parallel (u, v) member is tested from both
        ends, hence the set."""
        load, at, weight, limit = self.load, self.at, self.weight, self.beta_L
        lu, lv = load[u], load[v]
        over = [i for i, y in at[u].items() if lu + load[y] > limit * weight[i]]
        over += [i for i, y in at[v].items() if lv + load[y] > limit * weight[i]]
        if not over:
            return []
        removed = []
        for i in sorted(set(over)):
            x = u if i in at[u] else v
            y, w = at[x][i], weight[i]
            if load[x] + load[y] > limit * w:
                removed.append((i, x, y, w, self.remove(i, x, y, w)))
        return removed


def _degree_terms(wdeg: list[int], b: Capacities, coef: int):
    """The degree rule over edge columns, for the degrees ``wdeg``.

    Returns a function of column arrays (u, v, w) that gives
    wdeg_u * b_v + wdeg_v * b_u and b_u * b_v * w per edge; property (i)
    or (ii) compares the first with beta or beta_minus times the second.
    The rule is cross-multiplied by each edge's own b_u * b_v, not by the
    ledger's L = lcm(b), because these arrays must fit int64: L can be
    hundreds of bits wide where every b_u * b_v is small.  Given ``coef``
    >= k * w for every edge and every k compared with, the arrays are
    int64 unless a term could reach 2**62, and Python integers
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
    construction time.  The whole sum is taken in integers over the
    ledger's denominator L = lcm(b), each squared degree times L // b_x,
    and becomes one ``Fraction``.
    """
    G = H.parent
    ids = np.fromiter(H.members, dtype=np.int64, count=len(H.members))
    sq = sum(w * w for w in G.w[ids].tolist())
    L = math.lcm(*set(b.b))
    degrees = sum(d * d * (L // c) for d, c in zip(H.wdeg, b.b, strict=True) if d)
    return Fraction((2 * params.beta - 2) * sq * L - degrees, L)


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
    against beta_minus * w * L (see :class:`_Ledger`), and every step's
    gain is the one its ledger insertion or removal returns, over L.  The
    gains are summed, and their minimum kept, as integers over L; each is
    checked against its edge's per-step floor by cross-multiplying, and
    the sum becomes one ``Fraction`` at the end.
    """
    beta, m = params.beta, G.m
    q_lower: deque[int] = deque(range(m))
    in_lower = bytearray(b"\x01") * m

    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()
    caps = b.b
    ledger = _Ledger(G, b, params, ew)
    H, L = ledger.H, ledger.L
    deg, members, load = H.deg, H.members, ledger.load
    minus_L = ledger.minus_L  # underfull: load[u] + load[v] < minus_L * w
    idle: list[list[int]] = [[] for _ in range(G.n)]
    insertions = removals = 0
    gain_sum, gain_min = 0, None  # over L: the summed and the smallest gain

    def note_gain(gain: int, w: int, bu: int, bv: int):
        # a step on edge (u, v, w) gains at least the floor
        # g = w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v), here scaled by b_u b_v
        # and compared with the gain over L; at unit capacities g = 2w,
        # the classic 2
        nonlocal gain_sum, gain_min
        gain_sum += gain
        if gain_min is None or gain < gain_min:
            gain_min = gain
        denom = bu * bv
        floor_scaled = w * w * (2 * denom - bu - bv) + 2 * w
        if gain * denom < floor_scaled * L:
            raise LocalSearchError(
                f"potential gain {Fraction(gain, L)} below the per-step floor "
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
        insertions += 1
        note_gain(ledger.insert(eid, u, v, w), w, caps[u], caps[v])
        for x in (u, v):
            cap = beta * caps[x] + 1
            if deg[x] > cap:
                raise LocalSearchError(f"mid-build degree {deg[x]} at vertex {x} exceeds {cap}")
        removed = ledger.repair(u, v)
        # each removed edge is queued by its own refill; marked now, an
        # earlier removal's refill skips it, as it skipped a member
        for r in removed:
            in_lower[r[0]] = 1
        removals += len(removed)
        for eid, u, v, w, gain in removed:
            note_gain(gain, w, caps[u], caps[v])
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

    phi = Fraction(gain_sum, L)
    trace = BuildTrace(steps=insertions + removals, insertions=insertions, removals=removals,
                       phi_final=phi, min_gain=None if gain_min is None else Fraction(gain_min, L))
    report = validate(G, b, H, params)
    if not report.is_clean:
        raise LocalSearchError(f"construction left violations: {report}")
    if phi != potential(H, b, params):
        raise LocalSearchError("incremental potential diverged from recount")
    return H, trace
