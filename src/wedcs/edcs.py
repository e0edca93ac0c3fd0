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
#: takes its steps in rounds, each the greedy matching of its violating
#: edges in priority order, id * 0x9E3779B97F4A7C15 mod 2**64.
BUILDER_ID = "greedy-rounds-fib64"

#: An odd multiplier, so id -> id * _SCRAMBLE mod 2**64 is a bijection and
#: no two edges share a priority; _UNSCRAMBLE is its inverse.  _LAST, the
#: largest priority, is edge 0x0e217c1e66c88cc3's, past any graph's ids.
_SCRAMBLE = np.uint64(0x9E3779B97F4A7C15)
_UNSCRAMBLE = np.uint64(pow(0x9E3779B97F4A7C15, -1, 2**64))
_LAST = np.uint64(2**64 - 1)


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
    case; termination follows because the potential is bounded.  The
    steps are taken in rounds, each the greedy matching in priority order
    of the edges that violate a property (:data:`BUILDER_ID`); steps on
    vertex-disjoint edges gain exactly what they would one by one.
    """
    _reject_crowded(G, b, "reduce to the relevant subgraph first")
    return _local_search(G, b, params)


def _priority(ids: np.ndarray) -> np.ndarray:
    """The edges' priorities: id * 0x9E3779B97F4A7C15 mod 2**64."""
    return ids.astype(np.uint64) * _SCRAMBLE


def _matched(prio: np.ndarray, u: np.ndarray, v: np.ndarray, eu: np.ndarray, ev: np.ndarray,
             n: int) -> np.ndarray:
    """The ids of the edges that both of their endpoints propose, among
    the edges (u, v) with priorities ``prio``, where every vertex proposes
    its edge of least priority and ``_LAST`` marks an edge out of the
    running.  Priorities are distinct, so these edges are vertex-disjoint.
    A vertex's least priority names its edge, through the inverse
    scramble, so the mutual test takes one step per vertex."""
    best = np.full(n, _LAST, dtype=np.uint64)
    np.minimum.at(best, u, prio)
    np.minimum.at(best, v, prio)
    x = np.flatnonzero(best != _LAST)
    e = (best[x] * _UNSCRAMBLE).astype(np.intp)
    return e[(eu[e] == x) & (best[ev[e]] == best[x])]


def _greedy(prio: np.ndarray, u: np.ndarray, v: np.ndarray, eu: np.ndarray, ev: np.ndarray,
            n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy matching in priority order of the edges (u, v) with
    priorities ``prio``, ``_LAST`` marking an edge out of the running: the
    ids of the edges that, taken by ascending priority, meet no edge taken
    before them, and their ends in ``eu`` and ``ev``, as ``intp``.

    An edge whose priority is least at both its ends is taken by the greedy
    pass, and every edge at one of its ends is not.  So :func:`_matched`
    repeated over the edges whose two ends are still free, until none is,
    takes the same edges.  Only the first pass reads the whole pool; on a
    star nothing is left after it."""
    free = np.ones(n, dtype=bool)
    parts = []

    def one_pass(prio, u, v):
        # takes the mutual proposals; returns the positions of the edges
        # whose two ends stay free
        ids = _matched(prio, u, v, eu, ev, n)
        x, y = eu[ids].astype(np.intp), ev[ids].astype(np.intp)
        parts.append((ids, x, y))
        free[x] = False
        free[y] = False
        return np.nonzero(free[u] & free[v])[0]

    rest = one_pass(prio, u, v)
    if rest.size:  # only the first pass holds edges out of the running
        rest = rest[prio[rest] != _LAST]
    while rest.size:
        prio, u, v = prio[rest], u[rest], v[rest]
        rest = one_pass(prio, u, v)
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _local_search(G: MultiGraph, b: Capacities, params: EdcsParams):
    """Fix violations in rounds until none remain.

    An insertion round tests property (ii) over the candidate non-members
    at the degrees before the round, and the greedy matching of the
    underfull ones in priority order enters H together: taken by ascending
    priority, each edge that meets none taken before it (:func:`_greedy`).
    :func:`potential` is a sum of one term per member and one per vertex,
    so steps on vertex-disjoint edges gain the sum of their single-step
    gains, each taken at the degrees before the round, and each fixes a
    violation, so each gains at least its floor.  A vertex gains one member
    a round, so degrees stay within beta * b_v + 1.  Only members at the
    round's endpoints can then be over their bound.  Removal sub-rounds
    take out the greedy matching of those over it together and re-test the
    rest at the new degrees, until none is over; removals only lower
    degrees, so no member joins that set.  The next round's candidates are
    the underfull edges left out and the non-members that a removal at one
    of their ends made underfull, since elsewhere degrees only rose.  The
    search ends when no candidate is underfull, and then no member is over
    its bound.

    The priority of edge i is i * 0x9E3779B97F4A7C15 mod 2**64, a fixed
    scramble: with the ids themselves, a path given in id order would hold
    one mutual proposal at a time, and its greedy matching would take a
    pass of :func:`_matched` per edge.

    The rule is tested and the steps priced over b_u * b_v through
    :func:`_degree_terms`: with lhs and scaled its two terms before the
    step, an insertion gains w ((2 beta - 2) scaled - w (b_u + b_v)
    - 2 lhs) / (b_u b_v) and a removal w (2 lhs - (2 beta - 2) scaled
    - w (b_u + b_v)) / (b_u b_v).  Each gain is checked against its edge's
    floor as it is taken.  A round's arithmetic is int32 where every term
    fits, int64 where it fits that, and Python integers beyond.  At the
    end the gains are summed per denominator b_u * b_v, exactly, and the
    sums become one ``Fraction``.
    """
    n, m, beta, beta_minus = G.n, G.m, params.beta, params.beta_minus
    b_max = max(b.b, default=1)
    # every term of a round stays within top, and the gains summed over
    # the edges of one denominator within m * top
    top = 12 * beta * G.W**2 * b_max**2
    dtype = np.int32 if top < 2**31 else np.int64 if top < 2**62 else object
    sum_type = np.int64 if top * (m + 1) < 2**62 else object
    wdeg = np.zeros(n, dtype=dtype)
    deg = np.zeros(n, dtype=np.int64)
    terms = _degree_terms(wdeg, b)
    caps = np.asarray(b.b, dtype=dtype)
    eu, ev, ew = G.u, G.v, G.w
    member = np.zeros(m, dtype=bool)
    # the ids of the edges at each vertex x, at[start[x]:start[x + 1]]
    at = np.argsort(np.concatenate((eu, ev)), kind="stable")
    at %= max(m, 1)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n), out=start[1:])
    # the candidates, the first k entries of each column: every underfull
    # non-member and, until a compaction drops them, edges found not
    # underfull and members; listed marks the edges they hold, so an edge
    # has at most one entry
    k = m
    cid = np.arange(m)
    cu, cv, cw, cp = eu.astype(np.intp), ev.astype(np.intp), ew.copy(), _priority(cid)
    listed = np.ones(m, dtype=bool)
    hid = hu = hv = np.zeros(0, dtype=np.intp)  # the members and their ends
    taken = []  # per round, the edges stepped on and their scaled gains
    insertions = removals = rounds = 0

    def take(ids, u, v, w, gain):
        # a step on edge (u, v, w) gains at least the floor
        # g = w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v), here scaled by b_u b_v;
        # at unit capacities g = 2w, the classic 2
        bu, bv = caps[u], caps[v]
        floor = w * (w * (2 * bu * bv - bu - bv) + 2)
        low = np.flatnonzero(gain < floor)
        if low.size:
            j = low[np.argmin(ids[low])]
            denom, fw, fb_u, fb_v = int(bu[j] * bv[j]), int(w[j]), int(bu[j]), int(bv[j])
            raise LocalSearchError(
                f"potential gain {Fraction(int(gain[j]), denom)} below the per-step floor "
                f"w^2(2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) = {Fraction(int(floor[j]), denom)} "
                f"for w={fw}, b_u={fb_u}, b_v={fb_v}")
        taken.append((ids, gain))

    while True:
        lhs, scaled = terms(cu[:k], cv[:k], cw[:k])
        under = lhs < scaled * beta_minus
        under &= ~member[cid[:k]]
        count = np.count_nonzero(under)
        if not count:
            break
        if 4 * count <= 3 * k:
            listed[cid[:k][~under]] = False
            keep = np.flatnonzero(under)
            for col in (cid, cu, cv, cw, cp):
                col[:count] = col[keep]
            k = count
            ids, u, v = _greedy(cp[:k], cu[:k], cv[:k], eu, ev, n)
        else:
            # an edge not underfull gets priority _LAST
            ids, u, v = _greedy(np.where(under, cp[:k], _LAST), cu[:k], cv[:k], eu, ev, n)
        w = ew[ids].astype(dtype)
        lhs, scaled = terms(u, v, w)
        take(ids, u, v, w, w * ((2 * beta - 2) * scaled - w * (caps[u] + caps[v]) - 2 * lhs))
        member[ids] = True
        hid, hu, hv = np.concatenate((hid, ids)), np.concatenate((hu, u)), np.concatenate((hv, v))
        wdeg[u] += w
        wdeg[v] += w
        deg[u] += 1
        deg[v] += 1
        rounds += 1
        insertions += ids.size
        touched = np.concatenate((u, v))
        cap = beta * caps[touched] + 1
        bad = np.flatnonzero(deg[touched] > cap)
        if bad.size:
            x = touched[bad[0]]
            raise LocalSearchError(
                f"mid-build degree {deg[x]} at vertex {x} exceeds {cap[bad[0]]}")

        # only members at the touched vertices can be over their bound
        hit = np.zeros(n, dtype=bool)
        hit[touched] = True
        at_hit = np.flatnonzero(hit[hu] | hit[hv])
        over, u, v = hid[at_hit], hu[at_hit], hv[at_hit]
        freed = []
        while True:
            lhs, scaled = terms(u, v, ew[over])
            still = np.flatnonzero(lhs > scaled * beta)
            if not still.size:
                break
            over, u, v = over[still], u[still], v[still]
            ids, x, y = _greedy(_priority(over), u, v, eu, ev, n)
            w = ew[ids].astype(dtype)
            lhs, scaled = terms(x, y, w)
            take(ids, x, y, w, w * (2 * lhs - (2 * beta - 2) * scaled - w * (caps[x] + caps[y])))
            member[ids] = False
            wdeg[x] -= w
            wdeg[y] -= w
            deg[x] -= 1
            deg[y] -= 1
            rounds += 1
            removals += ids.size
            freed += (x, y)
            still = np.flatnonzero(member[over])
            over, u, v = over[still], u[still], v[still]
        if freed:
            keep = np.flatnonzero(member[hid])
            hid, hu, hv = hid[keep], hu[keep], hv[keep]
            # list the underfull non-members at the freed vertices that have
            # no entry, each once
            xs = np.concatenate(freed)
            lo = start[xs]
            size = start[xs + 1] - lo
            first = np.cumsum(size) - size
            near = at[np.repeat(lo - first, size) + np.arange(first[-1] + size[-1])]
            near = near[np.flatnonzero(~(listed[near] | member[near]))]
            u, v = eu[near].astype(np.intp), ev[near].astype(np.intp)
            lhs, scaled = terms(u, v, ew[near])
            under = np.flatnonzero(lhs < scaled * beta_minus)
            near, once = np.unique(near[under], return_index=True)
            listed[near] = True
            for col, values in ((cid, near), (cu, u[under][once]), (cv, v[under][once]),
                                (cw, ew[near]), (cp, _priority(near))):
                col[k:k + near.size] = values
            k += near.size

    del cid, cu, cv, cw, cp, listed, at  # before the final checks allocate
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
