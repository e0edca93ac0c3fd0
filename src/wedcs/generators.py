"""Instance generators: seeded random multigraphs and the two hand-built
families used to probe the approximation ratio.

The tight family realizes the worst case the sparsifier allows: its best
matching is a factor 1 + (beta-1)/beta_minus - 1/(2W) below the graph's
optimum.  The multicopy family shows why stacking one unweighted
sparsifier per weight class fails: the union traps the matching at weight
2kW while the graph holds 2kW + kW(W+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from .edcs import EdcsParams
from .graph import Capacities, MultiGraph, Subgraph, _int_type

__all__ = [
    "GenSpec",
    "TightInstance",
    "MulticopyInstance",
    "random_instance",
    "tight_instance",
    "multicopy_instance",
]


@dataclass
class GenSpec:
    """Declarative description of a generated instance (JSON-friendly)."""

    kind: str = "random"            # random | tight | multicopy
    seed: int = 0
    n: int = 0
    m: int = 0
    W: int = 1
    b_min: int = 1
    b_max: int = 1
    bipartite: bool = False
    allow_parallel: bool = False    # raw multiplicities (no per-pair cap)
    k: int | None = None            # tight / multicopy block size
    beta_minus: int | None = None   # tight family; must equal 2kW

    def __post_init__(self):
        if self.kind not in ("random", "tight", "multicopy"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "random":
            if self.n < 0 or self.m < 0 or self.W < 1:
                raise ValueError("random spec needs n >= 0, m >= 0, W >= 1")
            if not (1 <= self.b_min <= self.b_max):
                raise ValueError("need 1 <= b_min <= b_max")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GenSpec":
        return cls(**data)


#: edges drawn per generator call; any size gives the same instance, this
#: one holds the per-edge int64 temporaries to a few MB
_CHUNK = 1 << 16


def random_instance(spec: GenSpec) -> tuple[MultiGraph, Capacities]:
    """Seeded random multigraph with capacities.

    Weights are uniform in [1, W] and capacities uniform in
    [b_min, b_max].  Unless ``allow_parallel`` is set, each pair carries at
    most min(b_u, b_v) parallel edges (the edges are drawn uniformly
    without replacement from the multiset of capacity slots); raw
    multiplicities are for exercising the replacement-rule stream variant.

    The draws are those of one ``integers`` call with an array of
    per-edge bounds (for raw multiplicities each edge's pair index and
    weight, interleaved) and, for capped pairs, of ``permutation`` over
    every slot before the weights.  Array bounds consume PCG64 exactly as
    repeated scalar calls would, so the call is made ``_CHUNK`` edges at
    a time; ``permutation(total)`` is ``shuffle`` of ``arange(total)``,
    whose draws do not depend on the item size, so the slots are shuffled
    in the smallest type that holds their count (int32 at desk scale).
    Capped pairs cost one such integer per vertex pair (the running slot
    count) and one per slot; raw multiplicities hold nothing per pair.
    Pair indices become endpoints by arithmetic, in the pairs' order:
    (0, half), (0, half+1), ... for bipartite specs, the rows of the
    upper triangle for general ones.
    """
    if spec.kind != "random":
        raise ValueError("random_instance needs a spec with kind='random'")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, m = spec.n, spec.m
    b = Capacities([int(x) for x in rng.integers(spec.b_min, spec.b_max + 1, size=n)]) \
        if n else Capacities([])

    half = n // 2
    # pair index first[i] starts row i of the upper triangle
    first = np.arange(n, dtype=np.int64)
    first = first * (2 * n - 1 - first) // 2
    pairs = half * (n - half) if spec.bipartite else n * (n - 1) // 2
    if spec.allow_parallel:
        chunks = _raw_draws(rng, m, pairs, spec.W)
    else:
        caps = np.asarray(b.b, dtype=_int_type(spec.b_max))
        chunks = _capped_draws(rng, m, _slot_ends(caps, pairs, first, spec.bipartite), spec.W)

    u, v = np.empty(m, dtype=_int_type(n)), np.empty(m, dtype=_int_type(n))
    w = np.empty(m, dtype=_int_type(spec.W))
    lo = 0
    for pair, weight in chunks:
        hi = lo + len(pair)
        w[lo:hi] = weight
        if spec.bipartite:
            u[lo:hi], v[lo:hi] = np.divmod(pair, n - half)
            v[lo:hi] += half
        else:
            row = np.searchsorted(first, pair, side="right") - 1
            u[lo:hi] = row
            v[lo:hi] = pair - first[row] + row + 1
        lo = hi
    return MultiGraph.from_columns(n, u, v, w, W=spec.W), b


def _raw_draws(rng: np.random.Generator, m: int, pairs: int, W: int):
    """``m`` (pair index, weight) draws with replacement, in chunks."""
    if m > 0 and not pairs:
        raise ValueError("no vertex pairs available for the requested edges")
    size = min(m, _CHUNK)
    low, high = np.tile([0, 1], size), np.tile([pairs, W + 1], size)
    for lo in range(0, m, _CHUNK):
        k = 2 * min(_CHUNK, m - lo)
        draws = rng.integers(low[:k], high[:k])
        yield draws[0::2], draws[1::2]


def _slot_ends(caps: np.ndarray, pairs: int, first: np.ndarray,
               bipartite: bool) -> np.ndarray:
    """Each vertex pair's end in the running count of capacity slots, in
    pair order: pair p owns slots [ends[p-1], ends[p]), min(b_u, b_v) of
    them.  The count is kept in the smallest type that holds pairs * max(b)."""
    n = len(caps)
    half = n // 2
    ends = np.empty(pairs, dtype=_int_type(pairs * int(caps.max(initial=0))))
    if bipartite:
        np.minimum.outer(caps[:half], caps[half:], out=ends.reshape(half, n - half))
    else:
        for i in range(n - 1):
            np.minimum(caps[i], caps[i + 1:], out=ends[first[i]:first[i + 1]])
    return np.cumsum(ends, dtype=ends.dtype, out=ends)


def _capped_draws(rng: np.random.Generator, m: int, ends: np.ndarray, W: int):
    """``m`` (pair index, weight) draws: the pairs of the first m slots
    of a uniform shuffle of all slots, then the weights, in chunks."""
    total = int(ends[-1]) if len(ends) else 0
    if m > total:
        raise ValueError(
            f"infeasible spec: {m} edges requested but only {total} "
            "capacity-respecting slots exist")
    slots = np.arange(total, dtype=ends.dtype)
    rng.shuffle(slots)
    high = np.full(min(m, _CHUNK), W + 1)
    for lo in range(0, m, _CHUNK):
        picked = slots[lo:min(m, lo + _CHUNK)]
        yield np.searchsorted(ends, picked, side="right"), rng.integers(1, high[:len(picked)])


def _six_blocks(k: int, l: int, starts: tuple[int, ...], w: int, w_cd: int):
    """The edges (u, v, weight, kept) of one six-block gadget whose blocks
    A..F start at ``starts``, A, B, E, F of size k and C, D of size l: the
    A-B perfect matching, complete B-C, the C-D perfect matching (weight
    ``w_cd``, left out of the sparsifier), complete D-E and the E-F
    perfect matching, all kept at weight ``w``, in that order."""
    a, b, c, d, e, f = starts
    yield from ((a + i, b + i, w, True) for i in range(k))
    yield from ((b + i, c + j, w, True) for i in range(k) for j in range(l))
    yield from ((c + j, d + j, w_cd, False) for j in range(l))
    yield from ((d + j, e + i, w, True) for j in range(l) for i in range(k))
    yield from ((e + i, f + i, w, True) for i in range(k))


def _gadget_graph(n: int, W: int, rows) -> tuple[MultiGraph, list[int]]:
    """The graph of gadget edges (u, v, weight, kept) and its kept ids."""
    rows = list(rows)
    graph = MultiGraph(n, [row[:3] for row in rows], W=W)
    return graph, [i for i, row in enumerate(rows) if row[3]]


@dataclass
class TightInstance:
    """Worst-case family instance: ``edcs`` is a valid sparsifier of
    ``graph`` whose best matching is exactly ``ratio`` below the optimum."""

    graph: MultiGraph
    capacities: Capacities
    edcs: Subgraph
    params: EdcsParams
    k: int
    l: int
    W: int
    sparsifier_matching_weight: int  # best matching within the sparsifier
    optimal_matching_weight: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.optimal_matching_weight, self.sparsifier_matching_weight)


def tight_instance(k: int | None = None, W: int = 1,
                   beta_minus: int | None = None) -> TightInstance:
    """Six-block construction reaching the sparsifier's approximation limit.

    Blocks A, B, E, F of size k and C, D of size l = beta - k - 1 with
    beta = beta_minus + 2 and beta_minus = 2kW.  Heavy (weight-W) edges:
    the A-B and E-F perfect matchings plus complete bipartite B-C and D-E;
    all are kept in the sparsifier.  The weight-1 C-D perfect matching is
    excluded, legitimately so: each endpoint already carries weighted
    degree kW, so excluded edges meet the lower bound with equality.  The
    sparsifier's best matching saturates B and E for weight 2kW while the
    graph achieves 2kW + l.

    ``beta_minus``, when given, must be divisible by 2W (it determines
    k = beta_minus / 2W); remainders are rejected rather than approximated.
    """
    if k is None and beta_minus is None:
        raise ValueError("give k or beta_minus")
    if W < 1:
        raise ValueError("W must be >= 1")
    if beta_minus is not None:
        if beta_minus % (2 * W) != 0:
            raise ValueError("beta_minus must be divisible by 2W")
        derived = beta_minus // (2 * W)
        if k is not None and k != derived:
            raise ValueError(f"inconsistent k={k} and beta_minus={beta_minus}")
        k = derived
    if k < 1:
        raise ValueError("k must be >= 1")
    beta_minus = 2 * k * W
    beta = beta_minus + 2
    l = beta - k - 1

    n = 4 * k + 2 * l
    starts = (0, k, 2 * k, 2 * k + l, 2 * k + 2 * l, 3 * k + 2 * l)
    graph, solid = _gadget_graph(n, W, _six_blocks(k, l, starts, W, 1))
    params = EdcsParams(W=W, beta=beta, beta_minus=beta_minus)
    return TightInstance(
        graph=graph,
        capacities=Capacities.uniform(n),
        edcs=Subgraph(graph, solid),
        params=params,
        k=k, l=l, W=W,
        sparsifier_matching_weight=2 * k * W,
        optimal_matching_weight=2 * k * W + l,
    )


@dataclass
class MulticopyInstance:
    """Union of per-weight-class sparsifiers that caps the matching at
    ``trapped_matching_weight`` although the graph achieves
    ``optimal_matching_weight``."""

    graph: MultiGraph
    capacities: Capacities
    union_edcs: Subgraph
    k: int
    W: int
    trapped_matching_weight: int
    optimal_matching_weight: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.optimal_matching_weight, self.trapped_matching_weight)


def multicopy_instance(k: int = 1, W: int = 2) -> MulticopyInstance:
    """One worst-case gadget per weight class, all sharing hubs B and E.

    Per class i (edges of weight i): perfect matchings A_i-B and E-F_i
    plus complete bipartite B-C_i and D_i-E are kept; the C_i-D_i perfect
    matching is left out.  Every kept edge touches B or E (k vertices
    each), so the union's best matching is 2kW, while the graph picks the
    heaviest B and E classes plus every excluded C_i-D_i matching for
    2kW + k * W(W+1)/2.  Already worse than a factor 2 for W >= 3.
    """
    if k < 1 or W < 2:
        raise ValueError("need k >= 1 and W >= 2")
    # class i's A_i, C_i, D_i, F_i are the i-th k-blocks of their regions
    b0, c0, d0, e0, f0 = W * k, (W + 1) * k, (2 * W + 1) * k, (3 * W + 1) * k, (3 * W + 2) * k
    n = (4 * W + 2) * k
    graph, solid = _gadget_graph(n, W, [
        row for i in range(W) for row in _six_blocks(
            k, k, (i * k, b0, c0 + i * k, d0 + i * k, e0, f0 + i * k), i + 1, i + 1)])
    return MulticopyInstance(
        graph=graph,
        capacities=Capacities.uniform(n),
        union_edcs=Subgraph(graph, solid),
        k=k, W=W,
        trapped_matching_weight=2 * k * W,
        optimal_matching_weight=2 * k * W + k * W * (W + 1) // 2,
    )
