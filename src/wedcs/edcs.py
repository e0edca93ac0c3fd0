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
destroy.  The rule has one kernel: it is cross-multiplied by each edge's
b_u * b_v, wdeg_u * b_v + wdeg_v * b_u against k * b_u * b_v * w, and
every step is priced over the same b_u * b_v by :func:`_scaled_gain`.
:func:`_degree_terms` gives the terms over edge columns, within int64,
for :func:`validate`, phase 2 and the stream's invariant check; the
offline builder's rounds hold the same terms as columns that they
compute once, and the stream's phase 1 takes them one edge at a time.
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
#: Its inverse mod 2**64, which maps a priority back to its edge's id.
_UNSCRAMBLE = np.uint64(pow(0x9E3779B97F4A7C15, -1, 2**64))


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


def _scaled_gain(w, c, bu, bv, gap):
    """b_u * b_v times the change of :func:`potential` when an edge
    (u, v, w) enters H (c = 2 beta - 2 - 2 beta_minus) or leaves it
    (c = 2), given ``gap``: beta_minus * scaled - lhs before an insertion,
    lhs - beta * scaled before a removal, with lhs = wdeg_u b_v + wdeg_v b_u
    and scaled = b_u b_v w.  A step that fixes a violation has gap >= 1.
    Works on Python integers and on arrays alike."""
    return w * (c * bu * bv * w + 2 * gap - w * (bu + bv))


def _degree_terms(wdeg, b: Capacities, coef: int = 0):
    """The degree rule over edge columns, for the degrees ``wdeg``.

    Returns a function of column arrays (u, v, w) that gives
    wdeg_u * b_v + wdeg_v * b_u and b_u * b_v * w per edge; property (i)
    or (ii) compares the first with beta or beta_minus times the second.
    The rule is cross-multiplied by each edge's own b_u * b_v, which is
    small where a common denominator of all capacities can be hundreds of
    bits wide, so these arrays fit int64.

    ``wdeg`` is a list of Python ints, converted once, here.  Given
    ``coef`` >= k * w for every edge and every k compared with, the
    arrays are int64 unless a term could reach 2**62, and Python integers
    (``object``) beyond that.
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
    member[H.members] = True
    upper = np.flatnonzero(member & np.asarray(lhs > scaled * params.beta, dtype=bool))
    lower = np.flatnonzero(~member & np.asarray(lhs < scaled * params.beta_minus, dtype=bool))
    return ViolationReport(upper.tolist(), lower.tolist())


def potential(H: Subgraph, b: Capacities, params: EdcsParams) -> Fraction:
    """(2 beta - 2) * sum of squared member weights, minus the
    capacity-normalized sum of squared weighted degrees.

    Strictly increases with every local-search step, which is what bounds
    construction time.  The squared degrees are summed per capacity value,
    exactly, and each sum over its value becomes one ``Fraction``, as the
    builder sums its gains per denominator.  The sums are int64 where every
    term and sum fits, and Python integers beyond.
    """
    G = H.parent
    w = G.w[H.members]
    if G.W**2 * w.size < 2**63:
        w = w.astype(np.int64)
        sq = int(w @ w)
    else:
        sq = sum(x * x for x in w.tolist())
    values, group = np.unique(np.asarray(b.b), return_inverse=True)
    big = max(H.wdeg, default=0) ** 2 * G.n >= 2**63
    d = np.asarray(H.wdeg, dtype=object if big else np.int64)
    degrees = np.zeros(len(values), dtype=d.dtype)
    np.add.at(degrees, group, d * d)
    return (2 * params.beta - 2) * sq - sum(map(Fraction, degrees.tolist(), values.tolist()),
                                            Fraction(0))


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


def _earlier(x: np.ndarray, y: np.ndarray, c: np.ndarray, sum_type):
    """For a pool of p edges (x, y) listed in priority order and per-edge
    values c: the sums of c over the earlier edges of the pool at each
    edge's x end and at its y end, as ``sum_type``; an earlier edge
    parallel to it counts at both.

    The 2p ends are sorted by (vertex, rank), and the sums are an
    exclusive prefix sum over that order, restarted at every vertex.
    Vertex ids below 2**16 are sorted as ``uint16`` by a stable sort,
    which numpy makes a radix sort; wider ids as the values of one packed
    int64 key, vertex * 2p + entry, which sort faster than an argsort."""
    p = x.size
    narrow = p == 0 or max(x.max(), y.max()) < 2**16
    ends = np.empty(2 * p, dtype=np.uint16 if narrow else np.int64)
    ends[0::2], ends[1::2] = x, y  # entry 2r + j is end j of the r-th edge
    if narrow:
        order = np.argsort(ends, kind="stable")
        ends = ends[order]
    else:
        order = np.arange(2 * p)
        order += ends * (2 * p)
        order.sort()  # the keys are distinct, so their values name the order
        ends = order // (2 * p)
        order %= 2 * p
    first = np.flatnonzero(np.r_[p > 0, ends[1:] != ends[:-1]])  # each vertex's first entry
    del ends
    c = np.asarray(c, dtype=sum_type)[order >> 1]
    # each vertex's first entry also takes off the total of the vertex
    # before it, so one running sum restarts at every vertex
    c[first[1:]] -= np.add.reduceat(c, first)[:-1]
    np.cumsum(c, out=c)
    out = np.empty(2 * p, dtype=sum_type)
    out[order[1:]] = c[:-1]
    out[order[first]] = 0
    return out[0::2], out[1::2]


def _local_search(G: MultiGraph, b: Capacities, params: EdcsParams):
    """Fix violations in rounds until none remain.

    Every edge is held once, in priority order, beside the terms of the
    rule that no step changes: b_u, b_v and beta_minus * scaled, with
    scaled = b_u b_v w.  A round's pool is its violating edges in that
    order.  An insertion round's pool is one scan over all m edges: the
    non-members with lhs = wdeg_u b_v + wdeg_v b_u below
    beta_minus * scaled at the degrees before the round.  It takes each
    edge (u, v, w) that stays underfull when the weights A_u and A_v of
    all earlier pool edges at u and at v, taken or not, are added to
    those degrees: lhs + A_u b_v + A_v b_u < beta_minus * scaled
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
    over; degrees only fall there, so no member joins that set.  The
    search ends when a scan finds no underfull non-member, and then no
    member is over its bound.

    The priority of edge i is i * 0x9E3779B97F4A7C15 mod 2**64, a fixed
    scramble, so the order of the input's edge list does not set the
    rounds.  The rule is tested and the steps priced over b_u * b_v, as
    in :func:`_degree_terms`.  With gap how far an edge violates at its
    moment, beta_minus * scaled - lhs for an insertion and
    lhs - beta * scaled for a removal, a step gains
    w (c scaled + 2 gap - w (b_u + b_v)) / (b_u b_v), c = 2 beta - 2 -
    2 beta_minus for an insertion and 2 for a removal
    (:func:`_scaled_gain`), and each gain is checked against its edge's
    floor as it is taken.  The fixed columns
    and a round's arithmetic are int32 where every term fits, int64 where
    it fits that, and Python integers beyond.  At the end the gains are
    summed per denominator b_u * b_v, exactly, and the sums become one
    ``Fraction``.
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
    caps = np.asarray(b.b, dtype=dtype)
    # the edge at position r is order[r]; positions are priority order
    order = np.sort(_priority(np.arange(m))) * _UNSCRAMBLE  # sorting values beats an argsort
    order = order.astype(np.int32 if m < 2**31 else np.int64)
    eu, ev, ew = G.u[order].astype(np.intp), G.v[order].astype(np.intp), G.w[order].astype(dtype)
    bu, bv = caps[eu], caps[ev]
    lower = beta_minus * bu * bv * ew  # a non-member is underfull while lhs is below it
    member = np.zeros(m, dtype=bool)
    taken = []  # per round, the positions stepped on and their scaled gains
    insertions = removals = rounds = 0

    def play(pos, gap, insert):
        # steps on the edges at positions pos, ascending, that pass the rule,
        # gap being how far each violates before the round; returns their positions
        prefix = np.int32 if W * pos.size < 2**31 else sum_type  # bounds every sum of w
        w = ew[pos]
        earlier = _earlier(eu[pos], ev[pos], w, prefix)  # before the other pool columns
        cu, cv = bu[pos], bv[pos]
        k = beta_minus if insert else beta
        # k * W * b_x of earlier weight at an end x stops an insertion by
        # itself, and a removal's never reaches it, so the clip decides nothing
        au, av = (np.minimum(a, k * W * c).astype(dtype, copy=False)
                  for a, c in zip(earlier, (cu, cv)))
        go = gap > au * cv + av * cu
        del earlier, au, av
        if not go[0]:  # nothing comes before it, so a round always makes progress
            raise LocalSearchError(f"a round left out its pool's first edge {int(order[pos[0]])}")
        pos, w, cu, cv = (a[go] for a in (pos, w, cu, cv))
        # the earlier taken edges are the earlier edges of the taken ones
        tu, tv = (a.astype(dtype, copy=False) for a in _earlier(eu[pos], ev[pos], w, prefix))
        gap = gap[go] - tu * cv - tv * cu
        gain = _scaled_gain(w, 2 * beta - 2 - 2 * beta_minus if insert else 2, cu, cv, gap)
        # a step on edge (u, v, w) that fixes a violation gains at least the
        # floor g = w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v), here scaled by
        # b_u b_v; at unit capacities g = 2w, the classic 2
        floor = w * (w * (2 * cu * cv - cu - cv) + 2)
        low = np.flatnonzero((gap <= 0) | (gain < floor))
        if low.size:
            j = low[0]
            denom, fw, fb_u, fb_v = int(cu[j] * cv[j]), int(w[j]), int(cu[j]), int(cv[j])
            if gap[j] <= 0:
                raise LocalSearchError(
                    f"step on edge {int(order[pos[j]])} fixes no violation at its moment")
            raise LocalSearchError(
                f"potential gain {Fraction(int(gain[j]), denom)} below the per-step floor "
                f"w^2(2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) = {Fraction(int(floor[j]), denom)} "
                f"for w={fw}, b_u={fb_u}, b_v={fb_v}")
        taken.append((pos, gain))
        return pos

    while True:
        lhs = wdeg[eu] * bv + wdeg[ev] * bu
        pool = np.flatnonzero((lhs < lower) & ~member)
        if not pool.size:
            break
        gap = lower[pool]
        gap -= lhs[pool]
        del lhs  # drops the scan before play allocates
        pos = play(pool, gap, True)
        del pool, gap
        member[pos] = True
        touched = np.concatenate((eu[pos], ev[pos]))
        np.add.at(wdeg, touched, np.tile(ew[pos], 2))
        rounds += 1
        insertions += pos.size
        cap = (beta_minus * caps[touched] + 1) * W - 1
        bad = np.flatnonzero(wdeg[touched] > cap)
        if bad.size:
            x = touched[bad[0]]
            raise LocalSearchError(
                f"mid-build weighted degree {wdeg[x]} at vertex {x} exceeds {cap[bad[0]]}")

        # only members at the touched vertices can be over their bound
        hit = np.zeros(n, dtype=bool)
        hit[touched] = True
        over = np.flatnonzero(member)
        over = over[hit[eu[over]] | hit[ev[over]]]
        while True:
            cu, cv = bu[over], bv[over]
            gap = wdeg[eu[over]] * cv + wdeg[ev[over]] * cu - beta * cu * cv * ew[over]
            still = np.flatnonzero(gap > 0)
            if not still.size:
                break
            over = over[still]
            pos = play(over, gap[still], False)
            member[pos] = False
            np.add.at(wdeg, np.concatenate((eu[pos], ev[pos])), -np.tile(ew[pos], 2))
            rounds += 1
            removals += pos.size
            over = over[member[over]]

    ids = np.concatenate([pos for pos, _ in taken]) if taken else np.zeros(0, dtype=np.intp)
    gains = np.concatenate([gain for _, gain in taken]) if taken else np.zeros(0, dtype=dtype)
    gains = gains.astype(sum_type)
    denoms, group = np.unique(bu[ids] * bv[ids], return_inverse=True)
    H = Subgraph(G, order[member])
    del order, eu, ev, ew, bu, bv, lower, member  # before the final checks allocate
    sums = np.zeros(len(denoms), dtype=sum_type)
    np.add.at(sums, group, gains)
    lows = np.full(len(denoms), top, dtype=sum_type)
    np.minimum.at(lows, group, gains)
    denoms = denoms.tolist()
    phi = sum(map(Fraction, sums.tolist(), denoms), Fraction(0))
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
