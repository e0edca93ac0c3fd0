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
destroy.  The rule has two kernels, one per scale.  Over edge columns,
:func:`_degree_terms` cross-multiplies it by each edge's b_u * b_v, which
keeps its arrays within int64; the offline builder's rounds,
:func:`validate`, phase 2 and the stream's invariant check use it.  For
one edge at a time, the stream runner's phase 1 changes H only through a
:class:`_Ledger`, which keeps every weighted degree over one common
denominator L = lcm(b), inserts, removes, and after an insertion repairs
the members pushed over their bound, pricing each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import Capacities, MultiGraph, Subgraph, _reject_crowded

__all__ = [
    "BUILDER_ID",
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


#: Names the offline builder in every :class:`BuildTrace`: the local search
#: takes its steps in rounds, and a round takes, in priority order
#: id * 0x9E3779B97F4A7C15 mod 2**64, each violating edge that still
#: violates with every earlier violating edge at its ends stepped on.
BUILDER_ID = "prefix-rounds-fib64"

#: An odd multiplier, so id -> id * _SCRAMBLE mod 2**64 is a bijection and
#: no two edges share a priority.
_SCRAMBLE = np.uint64(0x9E3779B97F4A7C15)


@dataclass
class BuildTrace:
    """Summary of one local-search construction.

    ``rounds`` counts insertion rounds and removal sub-rounds together;
    ``builder`` is :data:`BUILDER_ID`."""

    steps: int
    insertions: int
    removals: int
    phi_final: Fraction
    min_gain: Fraction | None  # smallest potential increase over all steps
    rounds: int = 0
    builder: str = BUILDER_ID

    def to_json_dict(self) -> dict:
        return {
            "steps": self.steps,
            "insertions": self.insertions,
            "removals": self.removals,
            "phi_final": str(self.phi_final),
            "min_gain": None if self.min_gain is None else str(self.min_gain),
            "rounds": self.rounds,
            "builder": self.builder,
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
    code that changes the H of the stream's phase 1, and the one place that
    tests the degree rule for one edge and prices a step.

    ``at[x]`` maps each member at x to its other endpoint, and
    ``weight[i]`` is member i's weight, which :meth:`insert` records and
    phase 1 reads its held copies' weights from.

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

    def __init__(self, G: MultiGraph, b: Capacities, params: EdcsParams):
        self.H = Subgraph(G)
        self.at: list[dict[int, int]] = [{} for _ in range(G.n)]
        self.weight: dict[int, int] = {}
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


def _degree_terms(wdeg, b: Capacities, coef: int = 0):
    """The degree rule over edge columns, for the degrees ``wdeg``.

    Returns a function of column arrays (u, v, w) that gives
    wdeg_u * b_v + wdeg_v * b_u and b_u * b_v * w per edge; property (i)
    or (ii) compares the first with beta or beta_minus times the second.
    The rule is cross-multiplied by each edge's own b_u * b_v, not by the
    ledger's L = lcm(b), because these arrays must fit int64: L can be
    hundreds of bits wide where every b_u * b_v is small.

    ``wdeg`` is either a list of Python ints, converted once, here, or an
    integer or ``object`` array, which the function reads in place, so
    that its terms follow the caller's later updates.  For a list, given
    ``coef`` >= k * w for every edge and every k compared with, the
    arrays are int64 unless a term could reach 2**62, and Python integers
    (``object``) beyond that.  An array keeps its own dtype, and its
    caller answers for the range of every term.
    """
    if isinstance(wdeg, np.ndarray):
        dtype = wdeg.dtype
    else:
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
    and becomes one ``Fraction``; each of its two sums is an int64 dot
    product where every term and the sum fit, and a Python sum beyond.
    """
    G = H.parent
    ids = np.fromiter(H.members, dtype=np.int64, count=len(H.members))
    w = G.w[ids]
    if G.W**2 * ids.size < 2**63:
        w = w.astype(np.int64)
        sq = int(w @ w)
    else:
        sq = sum(x * x for x in w.tolist())
    L = math.lcm(*set(b.b))
    if max(max(H.wdeg, default=0), 1) ** 2 * L * G.n < 2**63:
        d = np.asarray(H.wdeg, dtype=np.int64)
        degrees = int(d * d @ (L // np.asarray(b.b, dtype=np.int64)))
    else:
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
    case; termination follows because the potential is bounded.  The
    steps are taken in rounds (:data:`BUILDER_ID`): in priority order, a
    round takes each edge that violates a property and still would with
    every earlier violating edge at its ends stepped on, so each step
    fixes a violation at its own moment, as if taken one by one.
    """
    _reject_crowded(G, b, "reduce to the relevant subgraph first")
    return _local_search(G, b, params)


def _priority(ids: np.ndarray) -> np.ndarray:
    """The edges' priorities: id * 0x9E3779B97F4A7C15 mod 2**64."""
    return ids.astype(np.uint64) * _SCRAMBLE


def _earlier(x: np.ndarray, y: np.ndarray, sum_type):
    """For a pool of p edges (x, y) listed in priority order: a function
    of per-edge values c that returns, for every edge, the sums of c over
    the earlier edges of the pool at its x end and at its y end, as
    ``sum_type``; an earlier edge parallel to it counts at both.

    The 2p ends are sorted once by (vertex, rank), and each call is an
    exclusive prefix sum over that order, restarted at every vertex."""
    p = x.size
    ends = np.empty(2 * p, dtype=np.int64)
    ends[0::2], ends[1::2] = x, y  # entry 2r + j is end j of the r-th edge
    order = np.arange(2 * p)
    order += ends * (2 * p)
    order = np.argsort(order).astype(np.int32 if 2 * p < 2**31 else np.int64)
    ends = ends[order]
    first = np.flatnonzero(np.r_[p > 0, ends[1:] != ends[:-1]])  # each vertex's first entry

    def sums(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(c, dtype=sum_type)[order >> 1]
        # each vertex's first entry also takes off the total of the vertex
        # before it, so one running sum restarts at every vertex
        c[first[1:]] -= np.add.reduceat(c, first)[:-1]
        np.cumsum(c, out=c)
        out = np.empty(2 * p, dtype=sum_type)
        out[order[1:]] = c[:-1]
        out[order[first]] = 0
        return out[0::2], out[1::2]

    return sums


def _local_search(G: MultiGraph, b: Capacities, params: EdcsParams):
    """Fix violations in rounds until none remain.

    A round's pool is its violating edges in priority order.  An insertion
    round's pool is the underfull non-members at the degrees before it, and
    it takes each edge (u, v, w) that stays underfull when the weights A_u
    and A_v of all earlier pool edges at u and at v, taken or not, are
    added to those degrees: lhs + A_u b_v + A_v b_u < beta_minus * scaled
    (:func:`_earlier`).  The taken edges enter H together.  Degrees only
    rise within the round, so were it played one edge at a time in
    priority order, each taken edge would be underfull at its own moment,
    when only the earlier taken edges at its ends count: a round is that
    many single steps, each fixing a violation, and the potential argument
    holds step by step.  Each step is priced at that moment, from a second
    prefix sum over the taken edges alone, and checked to violate then.
    An edge taken at x had wdeg_x + A_x < beta_minus * W * b_x, A_x
    counting every edge taken at x before it, so weighted degrees stay
    within (beta_minus b_x + 1) W - 1, checked after every insertion round.

    Only members at the round's endpoints can then be over their bound.
    Removal sub-rounds play the mirrored rule on those: a member leaves if
    it is still over its bound with every earlier over-member at its ends
    removed, and the rest are re-tested at the new degrees, until none is
    over; degrees only fall there, so no member joins that set.  The next
    round's candidates are the underfull edges left out and the
    non-members that a removal at one of their ends made underfull, since
    elsewhere degrees only rose.  The search ends when no candidate is
    underfull, and then no member is over its bound.

    The priority of edge i is i * 0x9E3779B97F4A7C15 mod 2**64, a fixed
    scramble, so the order of the input's edge list does not set the
    rounds.  The rule is tested and the steps priced over b_u * b_v through
    :func:`_degree_terms`.  With gap how far an edge violates at its
    moment, beta_minus * scaled - lhs for an insertion and
    lhs - beta * scaled for a removal, a step gains
    w (c scaled + 2 gap - w (b_u + b_v)) / (b_u b_v), c = 2 beta - 2 -
    2 beta_minus for an insertion and 2 for a removal, and each gain is
    checked against its edge's floor as it is taken.  A round's arithmetic
    is int32 where every term fits, int64 where it fits that, and Python
    integers beyond.  At the end the gains are summed per denominator
    b_u * b_v, exactly, and the sums become one ``Fraction``.
    """
    n, m, W, beta, beta_minus = G.n, G.m, G.W, params.beta, params.beta_minus
    b_max = max(b.b, default=1)
    # degrees stay within beta * W * b, and the earlier pool weights are
    # clipped below that, so every term of a round stays within top; the
    # gains summed over the edges of one denominator, and the prefix sums
    # of pool weights, stay within m * top
    top = 12 * beta * W**2 * b_max**2
    dtype = np.int32 if top < 2**31 else np.int64 if top < 2**62 else object
    sum_type = np.int64 if top * (m + 1) < 2**62 else object
    wdeg = np.zeros(n, dtype=dtype)
    terms = _degree_terms(wdeg, b)
    caps = np.asarray(b.b, dtype=dtype)
    eu, ev, ew = G.u, G.v, G.w
    member = np.zeros(m, dtype=bool)
    index = np.int32 if m < 2**31 else np.int64  # for the long arrays of edge ids
    # the ids of the edges at each vertex x, at[start[x]:start[x + 1]]
    at = (np.argsort(np.concatenate((eu, ev)), kind="stable") % max(m, 1)).astype(index)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n), out=start[1:])
    # the candidates in priority order: every underfull non-member, and
    # edges that were underfull when last tested; listed marks them
    cid = np.argsort(_priority(np.arange(m))).astype(index)
    cu, cv, cw = eu[cid].astype(np.intp), ev[cid].astype(np.intp), ew[cid].astype(dtype)
    listed = np.ones(m, dtype=bool)
    hid = hu = hv = np.zeros(0, dtype=np.intp)  # the members and their ends
    taken = []  # per round, the edges stepped on and their scaled gains
    insertions = removals = rounds = 0

    def play(ids, u, v, w, lhs, scaled, insert):
        # steps on the edges of a pool in priority order, (u, v, w) with
        # their terms before the round, that pass the rule; returns which
        k = beta_minus if insert else beta
        gap = k * scaled - lhs if insert else lhs - k * scaled
        bu, bv = caps[u], caps[v]
        earlier = _earlier(u, v, sum_type)
        # k * W * b_x of earlier weight at an end x stops an insertion by
        # itself, and a removal's never reaches it, so the clip decides nothing
        au, av = (np.minimum(a, k * W * c).astype(dtype) for a, c in zip(earlier(w), (bu, bv)))
        go = gap > au * bv + av * bu
        if not go[0]:  # nothing comes before it, so a round always makes progress
            raise LocalSearchError(f"a round left out its pool's first edge {int(ids[0])}")
        tu, tv = (a[go].astype(dtype) for a in earlier(np.where(go, w, 0)))
        ids, w, bu, bv = ids[go], w[go], bu[go], bv[go]
        gap = gap[go] - tu * bv - tv * bu
        c = 2 * beta - 2 - 2 * beta_minus if insert else 2
        gain = w * (c * scaled[go] + 2 * gap - w * (bu + bv))
        # a step on edge (u, v, w) that fixes a violation gains at least the
        # floor g = w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v), here scaled by
        # b_u b_v; at unit capacities g = 2w, the classic 2
        floor = w * (w * (2 * bu * bv - bu - bv) + 2)
        low = np.flatnonzero((gap <= 0) | (gain < floor))
        if low.size:
            j = low[0]
            denom, fw, fb_u, fb_v = int(bu[j] * bv[j]), int(w[j]), int(bu[j]), int(bv[j])
            if gap[j] <= 0:
                raise LocalSearchError(f"step on edge {int(ids[j])} fixes no violation at its moment")
            raise LocalSearchError(
                f"potential gain {Fraction(int(gain[j]), denom)} below the per-step floor "
                f"w^2(2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) = {Fraction(int(floor[j]), denom)} "
                f"for w={fw}, b_u={fb_u}, b_v={fb_v}")
        taken.append((ids, gain))
        return go

    while True:
        lhs, scaled = terms(cu, cv, cw)
        under = lhs < scaled * beta_minus
        listed[cid[~under]] = False
        pool = np.flatnonzero(under)
        if not pool.size:
            break
        cid, cu, cv, cw, lhs, scaled = (a[pool] for a in (cid, cu, cv, cw, lhs, scaled))
        del pool  # before play allocates
        go = play(cid, cu, cv, cw, lhs, scaled, True)
        ids, u, v, w = cid[go], cu[go], cv[go], cw[go]
        cid, cu, cv, cw = (a[~go] for a in (cid, cu, cv, cw))
        listed[ids] = False
        member[ids] = True
        hid, hu, hv = np.concatenate((hid, ids)), np.concatenate((hu, u)), np.concatenate((hv, v))
        np.add.at(wdeg, u, w)
        np.add.at(wdeg, v, w)
        rounds += 1
        insertions += ids.size
        touched = np.concatenate((u, v))
        cap = (beta_minus * caps[touched] + 1) * W - 1
        bad = np.flatnonzero(wdeg[touched] > cap)
        if bad.size:
            x = touched[bad[0]]
            raise LocalSearchError(
                f"mid-build weighted degree {wdeg[x]} at vertex {x} exceeds {cap[bad[0]]}")

        # only members at the touched vertices can be over their bound
        hit = np.zeros(n, dtype=bool)
        hit[touched] = True
        at_hit = np.flatnonzero(hit[hu] | hit[hv])
        over, u, v = hid[at_hit], hu[at_hit], hv[at_hit]
        freed = []
        while True:
            w = ew[over].astype(dtype)
            lhs, scaled = terms(u, v, w)
            still = np.flatnonzero(lhs > scaled * beta)
            if not still.size:
                break
            still = still[np.argsort(_priority(over[still]))]
            over, u, v, w, lhs, scaled = (a[still] for a in (over, u, v, w, lhs, scaled))
            go = play(over, u, v, w, lhs, scaled, False)
            x, y, w = u[go], v[go], w[go]
            member[over[go]] = False
            np.subtract.at(wdeg, x, w)
            np.subtract.at(wdeg, y, w)
            rounds += 1
            removals += x.size
            freed += (x, y)
            over, u, v = over[~go], u[~go], v[~go]
        if freed:
            keep = np.flatnonzero(member[hid])
            hid, hu, hv = hid[keep], hu[keep], hv[keep]
            # list the underfull non-members at the freed vertices that have
            # no entry, each once, in priority order among the candidates
            xs = np.flatnonzero(np.bincount(np.concatenate(freed), minlength=n))
            lo = start[xs]
            size = start[xs + 1] - lo
            first = np.cumsum(size) - size
            near = at[np.repeat(lo - first, size) + np.arange(first[-1] + size[-1])]
            near = near[np.flatnonzero(~(listed[near] | member[near]))]
            lhs, scaled = terms(eu[near], ev[near], ew[near])
            near = near[lhs < scaled * beta_minus]
            near = near[np.argsort(_priority(near))]
            near = near[np.flatnonzero(np.diff(near, prepend=-1))]  # an edge met at both ends
            listed[near] = True
            spot = np.searchsorted(_priority(cid), _priority(near))
            cid, cu, cv, cw = (np.insert(col, spot, values) for col, values in
                               ((cid, near), (cu, eu[near]), (cv, ev[near]), (cw, ew[near])))

    del cid, cu, cv, cw, listed, at  # before the final checks allocate
    ids = np.concatenate([ids for ids, _ in taken]) if taken else np.zeros(0, dtype=np.intp)
    gains = np.concatenate([gain for _, gain in taken]) if taken else np.zeros(0, dtype=dtype)
    gains = gains.astype(sum_type)
    denoms, group = np.unique(caps[eu[ids]] * caps[ev[ids]], return_inverse=True)
    sums = np.zeros(len(denoms), dtype=sum_type)
    np.add.at(sums, group, gains)
    lows = np.full(len(denoms), top, dtype=sum_type)
    np.minimum.at(lows, group, gains)
    denoms = denoms.tolist()
    phi = sum(map(Fraction, sums.tolist(), denoms), Fraction(0))
    H = Subgraph(G, np.flatnonzero(member))
    trace = BuildTrace(steps=insertions + removals, insertions=insertions, removals=removals,
                       phi_final=phi, min_gain=min(map(Fraction, lows.tolist(), denoms),
                                                   default=None),
                       rounds=rounds)
    report = validate(G, b, H, params)
    if not report.is_clean:
        raise LocalSearchError(f"construction left violations: {report}")
    if phi != potential(H, b, params):
        raise LocalSearchError("incremental potential diverged from recount")
    return H, trace
