"""Weighted multigraph core: edges, capacities, and degree-cached subgraphs.

Vertices are dense 0-based indices.  Edge ids are assigned in input order
and every tie-break in this package resolves to the smallest edge id, so
all operations are deterministic for a fixed input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "WeightedEdge",
    "MultiGraph",
    "Capacities",
    "Subgraph",
    "relevant_subgraph",
    "index_labeled_edges",
]


@dataclass(frozen=True)
class WeightedEdge:
    """One edge of a multigraph: endpoints ``u < v`` is *not* required,
    but ``u != v`` is (no self-loops) and the integer weight lies in
    ``[1, W]`` for the owning graph's weight cap ``W``."""

    id: int
    u: int
    v: int
    w: int

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def other(self, x: int) -> int:
        """The endpoint that is not ``x``."""
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"vertex {x} is not an endpoint of edge {self.id}")

    def pair(self) -> tuple[int, int]:
        """Unordered endpoint pair, normalized to (min, max)."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


def _int_type(top: int) -> np.dtype:
    """The smallest signed integer type that holds 0..top (and -top)."""
    return np.min_scalar_type(-top - 1)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Whether each element of a sorted array starts a run of equal values."""
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


class EdgeColumns(NamedTuple):
    """A graph's edges as arrays indexed by edge id, each of the smallest
    signed integer type that holds its values."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    #: dense id of the unordered pair {u, v}: pairs numbered in (min, max) order
    pair: np.ndarray


class MultiGraph:
    """Immutable weighted multigraph.

    ``edges`` is an ordered multiset; parallel edges and repeated
    (endpoints, weight) triples are allowed.  ``adjacency[v]`` lists the
    ids of edges incident to ``v`` in id order.  Instances never mutate
    after construction, apart from the :meth:`columns` cache that the
    first call fills; they are safe to share across threads (two threads
    racing on that first call build equal arrays and one set is kept).
    """

    __slots__ = ("n", "W", "edges", "adjacency", "_columns")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]], W: int | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edge_list: list[WeightedEdge] = []
        for u, v, w in edges:
            edge_list.append(WeightedEdge(len(edge_list), u, v, w))
        if W is None:
            W = max((e.w for e in edge_list), default=1)
        if W < 1:
            raise ValueError("weight cap W must be at least 1")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for e in edge_list:
            if e.u == e.v:
                raise ValueError(f"edge {e.id}: self-loops are not allowed")
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"edge {e.id}: endpoint out of range")
            if not (1 <= e.w <= W):
                raise ValueError(f"edge {e.id}: weight {e.w} outside [1, {W}]")
            adjacency[e.u].append(e.id)
            adjacency[e.v].append(e.id)
        self.n = n
        self.W = W
        self.edges: tuple[WeightedEdge, ...] = tuple(edge_list)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in adjacency)
        self._columns: EdgeColumns | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> WeightedEdge:
        return self.edges[eid]

    def incident(self, v: int) -> tuple[int, ...]:
        """Ids of edges incident to ``v``, in id order."""
        return self.adjacency[v]

    def columns(self) -> EdgeColumns:
        """``u``, ``v``, ``w`` and the unordered-pair id of every edge as
        arrays; built on the first call and cached."""
        if self._columns is None:
            m, edges = self.m, self.edges
            u = np.fromiter((e.u for e in edges), _int_type(self.n), m)
            v = np.fromiter((e.v for e in edges), _int_type(self.n), m)
            w = np.fromiter((e.w for e in edges), _int_type(self.W), m)
            # number the distinct keys min(u, v) * n + max(u, v) in order
            key = np.minimum(u, v, dtype=np.int64)
            key *= self.n
            key += np.maximum(u, v)
            by = np.argsort(key)
            fresh = _run_starts(key[by])
            del key
            pair = np.empty(m, dtype=_int_type(int(fresh.sum())))
            pair[by] = np.cumsum(fresh, dtype=pair.dtype) - 1
            self._columns = EdgeColumns(u, v, w, pair)
        return self._columns

    def pair_groups(self) -> dict[tuple[int, int], list[int]]:
        """Edge ids grouped by unordered endpoint pair, each group in id order."""
        groups: dict[tuple[int, int], list[int]] = {}
        for e in self.edges:
            groups.setdefault(e.pair(), []).append(e.id)
        return groups

    def restrict(self, edge_ids: Iterable[int]) -> tuple["MultiGraph", list[int]]:
        """New graph over the same vertices containing only ``edge_ids``.

        Edges keep their relative id order; returns the new graph and the
        list mapping new edge ids back to the originals.
        """
        old_ids = sorted(set(edge_ids))
        triples = [(self.edges[i].u, self.edges[i].v, self.edges[i].w) for i in old_ids]
        return MultiGraph(self.n, triples, W=self.W), old_ids

    def total_weight(self, edge_ids: Iterable[int]) -> int:
        return sum(self.edges[i].w for i in edge_ids)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m}, W={self.W})"


class Capacities:
    """Per-vertex positive integer capacities ``b_v``."""

    __slots__ = ("b",)

    def __init__(self, b: Sequence[int]):
        b = tuple(int(x) for x in b)
        for v, bv in enumerate(b):
            if bv < 1:
                raise ValueError(f"capacity of vertex {v} must be >= 1, got {bv}")
        self.b = b

    @classmethod
    def uniform(cls, n: int, value: int = 1) -> "Capacities":
        return cls([value] * n)

    def __getitem__(self, v: int) -> int:
        return self.b[v]

    def __len__(self) -> int:
        return len(self.b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Capacities) and self.b == other.b

    def __repr__(self) -> str:
        return f"Capacities({list(self.b)})"


class Subgraph:
    """Edge-id subset of a parent graph with cached per-vertex degrees.

    ``wdeg[v]`` caches the weighted degree (sum of member-edge weights at
    ``v``) and ``deg[v]`` the plain degree.  Single-writer: mutate from one
    thread only; concurrent readers are fine between mutations.
    """

    __slots__ = ("parent", "members", "wdeg", "deg")

    def __init__(self, parent: MultiGraph, members: Iterable[int] = ()):
        self.parent = parent
        self.members: set[int] = set()
        self.wdeg = [0] * parent.n
        self.deg = [0] * parent.n
        for eid in sorted(set(members)):
            self.add(eid)

    def add(self, eid: int) -> None:
        if eid in self.members:
            raise ValueError(f"edge {eid} already in subgraph")
        e = self.parent.edges[eid]
        self.members.add(eid)
        self.wdeg[e.u] += e.w
        self.wdeg[e.v] += e.w
        self.deg[e.u] += 1
        self.deg[e.v] += 1

    def remove(self, eid: int) -> None:
        if eid not in self.members:
            raise ValueError(f"edge {eid} not in subgraph")
        e = self.parent.edges[eid]
        self.members.remove(eid)
        self.wdeg[e.u] -= e.w
        self.wdeg[e.v] -= e.w
        self.deg[e.u] -= 1
        self.deg[e.v] -= 1

    def weighted_degree(self, v: int) -> int:
        """Sum of weights of member edges incident to ``v``; O(1)."""
        if not (0 <= v < self.parent.n):
            raise IndexError(f"vertex {v} out of range [0, {self.parent.n})")
        return self.wdeg[v]

    def degree(self, v: int) -> int:
        if not (0 <= v < self.parent.n):
            raise IndexError(f"vertex {v} out of range [0, {self.parent.n})")
        return self.deg[v]

    def edge_ids(self) -> list[int]:
        """Member edge ids in ascending order."""
        return sorted(self.members)

    def total_weight(self) -> int:
        return self.parent.total_weight(self.members)

    def copy(self) -> "Subgraph":
        return Subgraph(self.parent, self.members)

    def __contains__(self, eid: int) -> bool:
        return eid in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __repr__(self) -> str:
        return f"Subgraph({len(self.members)} of {self.parent!r})"


def index_labeled_edges(edges) -> tuple[list[tuple[int, int, int]], dict]:
    """Map arbitrary hashable vertex labels to dense 0-based indices.

    Labels are numbered in order of first appearance; returns the indexed
    (u, v, w) triples ready for :class:`MultiGraph` and the label-to-index
    mapping so results can be reported in the caller's vocabulary.
    """
    index: dict = {}
    triples: list[tuple[int, int, int]] = []
    for label_u, label_v, w in edges:
        u = index.setdefault(label_u, len(index))
        v = index.setdefault(label_v, len(index))
        triples.append((u, v, w))
    return triples, index


def _pair_limits(G: MultiGraph, b: Capacities) -> np.ndarray:
    """min(b_u, b_v) for every edge: how many edges of its pair a
    b-matching can use."""
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    caps = np.asarray(b.b, dtype=_int_type(max(b.b, default=1)))
    c = G.columns()
    return np.minimum(caps[c.u], caps[c.v])


def _rank_in_runs(keys: np.ndarray) -> np.ndarray:
    """Position of every element of a sorted array within its run of
    equal values: ``[4, 4, 7, 9, 9, 9]`` gives ``[0, 1, 0, 0, 1, 2]``."""
    rank = np.arange(len(keys), dtype=_int_type(len(keys)))
    start = np.where(_run_starts(keys), rank, 0)
    np.maximum.accumulate(start, out=start)
    rank -= start
    return rank


def _relevant_ids(G: MultiGraph, b: Capacities) -> list[int]:
    """Ids of the relevant subgraph, ascending: for every unordered pair,
    its min(b_u, b_v) heaviest edges, smaller ids first on equal weights.

    One stable sort by (pair, -w) ranks the edges of each pair, so edges
    of equal weight keep their id order.  The ids are the edges' own int
    objects, which callers keep in sets: new ones would add to memory."""
    limit = _pair_limits(G, b)
    c = G.columns()
    by = np.lexsort((-c.w, c.pair))
    keep = np.zeros(G.m, dtype=bool)
    keep[by] = _rank_in_runs(c.pair[by]) < limit[by]
    return [e.id for e in compress(G.edges, keep.tolist())]


def relevant_subgraph(G: MultiGraph, b: Capacities) -> Subgraph:
    """Keep, for every unordered vertex pair, the min(b_u, b_v) heaviest
    parallel edges (ties by smaller edge id).

    Dropping the rest never changes the best achievable b-matching, since
    a b-matching can use at most min(b_u, b_v) edges between u and v.
    """
    return Subgraph(G, _relevant_ids(G, b))
