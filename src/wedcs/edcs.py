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
All comparisons below cross-multiply by b_u * b_v so everything stays in
exact integer arithmetic; the termination argument lives on slacks of
1/(b_u * b_v) that floating point would destroy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from .graph import Capacities, MultiGraph, Subgraph

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

#: Upper limit for the ascending parameter search; beyond this the epsilon
#: requested is considered unreasonable.
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


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        # accept floats through their decimal spelling so 0.4 means 2/5
        return Fraction(str(x))
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(x)


def parameters_for(
    epsilon,
    W: int,
    mode: str = "theorem",
    practical_beta: int | None = None,
) -> EdcsParams:
    """Pick (beta, beta_minus) for an approximation target epsilon.

    ``theorem`` mode runs an ascending search for the smallest beta such
    that, with lambda = epsilon / (100 W),

        (beta + 8W) / ln(beta + 8W) >= 2 W^2 / lambda^2, and
        some integer beta_minus <= beta - 2 has
        beta_minus - 6W >= (1 - lambda) * (beta + 8W),

    returning that beta with the smallest admissible beta_minus.  The
    resulting values are polynomial in W and 1/epsilon but far too large
    for desk-scale graphs (around 1.8e6 already for epsilon=0.4, W=1); use
    ``practical`` mode to pin beta directly for experiments, which returns
    (practical_beta, practical_beta - 2).
    """
    eps = _as_fraction(epsilon)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError(f"epsilon must be in (0, 1/2), got {eps}")
    if W < 1:
        raise ValueError("W must be >= 1")
    lam = eps / (100 * W)

    if mode == "practical":
        if practical_beta is None:
            raise ValueError("practical mode requires practical_beta")
        return EdcsParams(W=W, epsilon=eps, lam=lam,
                          beta=practical_beta, beta_minus=practical_beta - 2)
    if mode != "theorem":
        raise ValueError(f"unknown mode {mode!r}")

    target = float(Fraction(2 * W * W) / (lam * lam))
    beta = 3
    while beta <= BETA_SEARCH_CAP:
        x = beta + 8 * W
        if x / math.log(x) >= target:
            bm = math.ceil((1 - lam) * x + 6 * W)
            if bm <= beta - 2:
                return EdcsParams(W=W, epsilon=eps, lam=lam, beta=beta, beta_minus=bm)
        beta += 1
    raise ValueError(f"no admissible parameters with beta <= {BETA_SEARCH_CAP}")


def validate(G: MultiGraph, b: Capacities, H: Subgraph, params: EdcsParams) -> ViolationReport:
    """Check both degree properties for every edge of G; exact arithmetic.

    Returns every violating edge id, member edges under
    ``upper_violations`` and non-member edges under ``lower_violations``.
    """
    if H.parent is not G:
        raise ValueError("H must be a subgraph of G")
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    beta, beta_minus = params.beta, params.beta_minus
    wdeg = H.wdeg
    members = H.members
    upper: list[int] = []
    lower: list[int] = []
    for e in G.edges:
        bu, bv = b[e.u], b[e.v]
        lhs = wdeg[e.u] * bv + wdeg[e.v] * bu
        if e.id in members:
            if lhs > beta * e.w * bu * bv:
                upper.append(e.id)
        elif lhs < beta_minus * e.w * bu * bv:
            lower.append(e.id)
    return ViolationReport(upper, lower)


def potential(H: Subgraph, b: Capacities, params: EdcsParams) -> Fraction:
    """(2 beta - 2) * sum of squared member weights, minus the
    capacity-normalized sum of squared weighted degrees.

    Strictly increases with every local-search step, which is what bounds
    construction time.
    """
    G = H.parent
    sq = sum(G.edges[eid].w ** 2 for eid in H.members)
    phi = Fraction((2 * params.beta - 2) * sq)
    for v in range(G.n):
        if H.wdeg[v]:
            phi -= Fraction(H.wdeg[v] ** 2, b[v])
    return phi


def build_w_edcs(G: MultiGraph, params: EdcsParams, *, check_invariants: bool = True):
    """Local-search construction for a simple weighted graph (all b_v = 1).

    Returns ``(H, trace)`` where H validates with zero violations.  Every
    step increases the potential by at least 2, so the step count is at
    most half the final potential (and at most beta^2 W^2 n overall).
    """
    for ids in G.pair_groups().values():
        if len(ids) > 1:
            raise ValueError("graph must be simple (parallel edges found)")
    b = Capacities.uniform(G.n)
    return _local_search(G, b, params, b_case=False, check_invariants=check_invariants)


def build_wb_edcs(G: MultiGraph, b: Capacities, params: EdcsParams, *,
                  check_invariants: bool = True):
    """Local-search construction for a capacitated multigraph.

    Requires at most min(b_u, b_v) parallel edges per vertex pair (reduce
    with :func:`wedcs.graph.relevant_subgraph` first).  Returns
    ``(H, trace)``.  Every step on an edge (u, v, w) increases the
    potential by at least g = w^2 (2 - 1/b_u - 1/b_v) + 2w / (b_u * b_v),
    which ``check_invariants`` enforces per step.  So every step gains at
    least 1 + 1/(b_u * b_v), at least 3/2 unless a w = 1 edge joins a
    unit-capacity endpoint to a capacity >= 3 one, and 2w in the all-unit
    case; termination follows because the potential is bounded.
    """
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    for (u, v), ids in G.pair_groups().items():
        if len(ids) > min(b[u], b[v]):
            raise ValueError(
                f"pair ({u}, {v}) has {len(ids)} parallel edges, more than min(b_u, b_v)="
                f"{min(b[u], b[v])}; reduce to the relevant subgraph first"
            )
    return _local_search(G, b, params, b_case=True, check_invariants=check_invariants)


def _local_search(G: MultiGraph, b: Capacities, params: EdcsParams, *,
                  b_case: bool, check_invariants: bool):
    """Fix violations until none remain, upper-bound repairs first.

    Two FIFO work queues, one per property; the upper queue is always
    drained before the lower queue is touched, so vertex degrees stay
    within beta * b_v + 1 at all times.  Queue entries are re-verified on
    pop, and each mutation enqueues only the edges whose status can have
    changed (those incident to the mutated edge's endpoints), in id order.
    """
    beta, beta_minus = params.beta, params.beta_minus
    m = G.m
    H = Subgraph(G)
    q_upper: deque[int] = deque()
    q_lower: deque[int] = deque(range(m))
    in_upper = bytearray(m)
    in_lower = bytearray(m)
    for i in range(m):
        in_lower[i] = 1

    wdeg = H.wdeg
    members = H.members
    steps = insertions = removals = 0
    phi = Fraction(0)
    min_seen: Fraction | None = None

    def note_gain(gain_scaled: int, w: int, bu: int, bv: int):
        # a step on edge (u, v, w) gains at least the floor
        # g = w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v), scaled here by b_u b_v:
        # the violation slack of at least 1/(b_u b_v) contributes the 2w term
        # and beta_minus <= beta - 2 the quadratic one; at unit capacities
        # g = 2w, the classic 2
        nonlocal phi, min_seen
        denom = bu * bv
        g = Fraction(gain_scaled, denom)
        phi += g
        if min_seen is None or g < min_seen:
            min_seen = g
        floor_scaled = w * w * (2 * denom - bu - bv) + 2 * w
        if check_invariants and gain_scaled < floor_scaled:
            raise LocalSearchError(
                f"potential gain {g} below the per-step floor "
                f"w^2(2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) = {Fraction(floor_scaled, denom)} "
                f"for w={w}, b_u={bu}, b_v={bv}")

    while q_upper or q_lower:
        if q_upper:
            eid = q_upper.popleft()
            in_upper[eid] = 0
            if eid not in members:
                continue
            e = G.edges[eid]
            bu, bv = b[e.u], b[e.v]
            if wdeg[e.u] * bv + wdeg[e.v] * bu <= beta * e.w * bu * bv:
                continue  # repaired in the meantime
            gain = (-(2 * beta - 2) * e.w * e.w * bu * bv
                    + (2 * wdeg[e.u] * e.w - e.w * e.w) * bv
                    + (2 * wdeg[e.v] * e.w - e.w * e.w) * bu)
            H.remove(eid)
            steps += 1
            removals += 1
            note_gain(gain, e.w, bu, bv)
            affected = sorted(
                i for i in set(G.incident(e.u)) | set(G.incident(e.v))
                if i not in members and not in_lower[i])
            for i in affected:
                in_lower[i] = 1
                q_lower.append(i)
        else:
            eid = q_lower.popleft()
            in_lower[eid] = 0
            if eid in members:
                continue
            e = G.edges[eid]
            bu, bv = b[e.u], b[e.v]
            if wdeg[e.u] * bv + wdeg[e.v] * bu >= beta_minus * e.w * bu * bv:
                continue
            gain = ((2 * beta - 2) * e.w * e.w * bu * bv
                    - (2 * wdeg[e.u] * e.w + e.w * e.w) * bv
                    - (2 * wdeg[e.v] * e.w + e.w * e.w) * bu)
            H.add(eid)
            steps += 1
            insertions += 1
            note_gain(gain, e.w, bu, bv)
            if check_invariants:
                for x in (e.u, e.v):
                    cap = (beta * b[x] if b_case else beta) + 1
                    if H.deg[x] > cap:
                        raise LocalSearchError(
                            f"mid-build degree {H.deg[x]} at vertex {x} exceeds {cap}")
            affected = sorted(
                i for i in set(G.incident(e.u)) | set(G.incident(e.v))
                if i in members and not in_upper[i])
            for i in affected:
                in_upper[i] = 1
                q_upper.append(i)

    trace = BuildTrace(steps=steps, insertions=insertions, removals=removals,
                       phi_final=phi, min_gain=min_seen)
    if check_invariants:
        report = validate(G, b, H, params)
        if not report.is_clean:
            raise LocalSearchError(f"construction left violations: {report}")
        if phi != potential(H, b, params):
            raise LocalSearchError("incremental potential diverged from recount")
    return H, trace
