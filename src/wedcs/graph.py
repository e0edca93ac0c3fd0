"""Weighted multigraph core: edges, capacities, and degree-cached subgraphs.

Vertices are dense 0-based indices.  Edge ids are assigned in input order
and every tie-break in this package resolves to the smallest edge id, so
all operations are deterministic for a fixed input order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "MultiGraph",
    "Capacities",
    "Subgraph",
    "relevant_subgraph",
]


#: The widest packed sort key of :meth:`MultiGraph._number_pairs`: an
#: int64 that stays non-negative.
_KEY_BITS = 63


def _int_type(top: int) -> np.dtype:
    """The smallest signed integer type that holds 0..top (and -top)."""
    return np.min_scalar_type(-top - 1)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Whether each element of a sorted array starts a run of equal values."""
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


class MultiGraph:
    """Immutable weighted multigraph stored as columns.

    Edge ``i`` joins ``u[i]`` and ``v[i]`` with weight ``w[i]``; each column
    is an array of the smallest signed integer type that holds its values.
    Parallel edges and repeated (endpoints, weight) triples are allowed.
    The columns are the whole graph: code that needs per-vertex sums or
    neighbours derives them from the columns where it runs.  Two caches
    keep what costs a sort or a solve, and apart from them instances never
    change after construction: the pair numbering (ids, ends, edge counts
    and each edge's rank in its pair, all from one sort, see
    :meth:`_number_pairs`) and the capacity entry (pair caps and exact
    answer for the last capacities asked, see :func:`_capacity_entry`).
    They are filled without a lock: threads that race on a cold graph may
    each build equal values, and one of them is kept.  A caller that wants
    each built once fills them on one thread before the others read them,
    as ``wedcs stream`` does.
    """

    __slots__ = ("n", "W", "u", "v", "w", "_pairs", "_entry")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]], W: int | None = None):
        self._setup(n, *_triple_columns(list(edges)), W)

    @classmethod
    def from_columns(cls, n: int, u, v, w, W: int | None = None) -> "MultiGraph":
        """The graph whose edge ``i`` is ``(u[i], v[i], w[i])``; checked as
        the constructor checks its triples."""
        graph = cls.__new__(cls)
        graph._setup(n, np.asarray(u), np.asarray(v), np.asarray(w), W)
        return graph

    def _setup(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, W: int | None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        m = len(u)
        (u, bad_u), (v, bad_v), (w, bad_w) = map(_as_integers, (u, v, w))
        i, name, col = min((bad_u, "endpoint", u), (bad_v, "endpoint", v), (bad_w, "weight", w),
                           key=lambda check: check[0])
        if i < m:
            raise ValueError(f"edge {i}: {name} {col[i:i + 1].tolist()[0]!r} is not an integer")
        if W is None:
            W = int(w.max()) if m else 1
        if W < 1:
            raise ValueError("weight cap W must be at least 1")
        # reductions first: the per-edge masks, m bytes each, are built
        # only to name the first bad edge
        if m and not (0 <= u.min() and u.max() < n and 0 <= v.min() and v.max() < n
                      and 1 <= w.min() and w.max() <= W and not (u == v).any()):
            loop = u == v
            outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
            heavy = (w < 1) | (w > W)
            i = int(np.flatnonzero(loop | outside | heavy)[0])
            if loop[i]:
                raise ValueError(f"edge {i}: self-loops are not allowed")
            if outside[i]:
                raise ValueError(f"edge {i}: endpoint out of range")
            raise ValueError(f"edge {i}: weight {w[i]} outside [1, {W}]")
        self.n = n
        self.W = W
        self.u = u.astype(_int_type(n))
        self.v = v.astype(_int_type(n))
        self.w = w.astype(_int_type(W))
        self._pairs: tuple | None = None
        self._entry: tuple | None = None

    @property
    def m(self) -> int:
        return len(self.u)

    def triple(self, eid: int) -> tuple[int, int, int]:
        """``(u, v, w)`` of edge ``eid`` as Python ints."""
        return int(self.u[eid]), int(self.v[eid]), int(self.w[eid])

    @property
    def pair(self) -> np.ndarray:
        """Dense id of every edge's unordered pair {u, v}, pairs numbered in
        (min, max) order, as an array of the smallest signed integer type
        that holds them; built on first use."""
        return self._numbering()[0]

    @property
    def pair_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) endpoint arrays indexed by pair id; built with
        :attr:`pair`."""
        return self._numbering()[1]

    @property
    def pair_count(self) -> np.ndarray:
        """Edge count of every pair, indexed by pair id, in the smallest
        signed integer type that holds them; built with :attr:`pair`."""
        return self._numbering()[2]

    @property
    def pair_rank(self) -> np.ndarray:
        """Every edge's rank within its pair, heaviest first and the
        smaller id first on equal weights, in :attr:`pair_count`'s type;
        built with :attr:`pair`.  The relevant subgraph is the edges whose
        rank is below their pair's cap."""
        return self._numbering()[3]

    def _numbering(self) -> tuple:
        if self._pairs is None:
            self._number_pairs()
        return self._pairs

    def _number_pairs(self) -> None:
        """Fill the one slot that :attr:`pair`, :attr:`pair_ends`,
        :attr:`pair_count` and :attr:`pair_rank` read, from one sort of
        the edges by (min(u, v), max(u, v), -w, id): numpy's in-place sort
        of one int64 key per edge packing the four fields (W - w for -w)
        when they fit in ``_KEY_BITS``, one stable ``np.lexsort`` otherwise
        (object weights among them).  The key is unpacked in place into
        narrow arrays, and the ends are read at the runs' first edges."""
        # ``by`` lists the edge ids in sorted order, ``fresh`` marks where
        # each pair's run starts
        m, u, v = self.m, self.u, self.v
        n_bits, w_bits, id_bits = (max(top - 1, 0).bit_length() for top in (self.n, self.W, m))
        by = np.arange(m, dtype=_int_type(m))
        if 2 * n_bits + w_bits + id_bits <= _KEY_BITS:
            key = np.minimum(u, v, dtype=np.int64)
            key <<= n_bits
            key |= np.maximum(u, v)
            key <<= w_bits
            key += self.W - self.w
            key <<= id_bits
            key |= by
            key.sort()
            np.bitwise_and(key, (1 << id_bits) - 1, out=by, casting="unsafe")
            key >>= w_bits + id_bits  # the pair's bits alone
            fresh = _run_starts(key)
            del key
        else:  # keys beyond 63 bits, object weights among them
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            by[:] = np.lexsort((-self.w, hi, lo))
            fresh = _run_starts(lo[by]) | _run_starts(hi[by])
        starts = np.flatnonzero(fresh).astype(by.dtype)
        first = by[starts]  # each pair's heaviest edge, for its ends
        ends = np.minimum(u[first], v[first]), np.maximum(u[first], v[first])
        del first
        count = np.diff(starts, append=by.dtype.type(m))
        count = count.astype(_int_type(int(count.max(initial=0))))
        del starts
        sorted_pair = np.cumsum(fresh, dtype=_int_type(len(count)))
        sorted_pair -= 1
        del fresh
        rank = np.empty(m, dtype=count.dtype)
        rank[by] = _rank_in_runs(sorted_pair)
        pair = np.empty(m, dtype=sorted_pair.dtype)
        pair[by] = sorted_pair
        self._pairs = pair, ends, count, rank

    def pair_groups(self) -> dict[tuple[int, int], list[int]]:
        """Edge ids grouped by unordered endpoint pair, each group in id order."""
        groups: dict[tuple[int, int], list[int]] = {}
        lo, hi = np.minimum(self.u, self.v).tolist(), np.maximum(self.u, self.v).tolist()
        for eid, key in enumerate(zip(lo, hi)):
            groups.setdefault(key, []).append(eid)
        return groups

    def restrict(self, edge_ids: Iterable[int]) -> tuple["MultiGraph", np.ndarray]:
        """The graph over the same vertices containing only ``edge_ids``.

        Edges keep their relative id order; returns the graph and the
        int64 array mapping its edge ids back to the originals (ascending,
        so ``old_ids[ids]`` maps ascending new ids to ascending old ones).
        When the ids are every edge, the graph is this one, with its
        caches: its columns never change, so nothing needs a copy.
        """
        ids = np.sort(_id_array(edge_ids))
        ids = ids[_run_starts(ids)]
        if len(ids) == self.m and (not ids.size or ids[0] == 0 and ids[-1] == self.m - 1):
            return self, ids
        graph = MultiGraph.from_columns(self.n, self.u[ids], self.v[ids], self.w[ids], W=self.W)
        return graph, ids

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m}, W={self.W})"


def _triple_columns(triples: list[tuple[int, int, int]]):
    """The ``u``, ``v`` and ``w`` columns of a list of triples, in int64
    when every value fits it; otherwise the values as given, for
    :func:`_as_integers` to check (Python integers beyond int64 stay, for
    the range checks to reject or, for weights under a huge cap, keep)."""
    table = np.array(triples)
    if table.dtype.kind != "i":
        table = np.array(triples, dtype=object)
    table = table.reshape(len(triples), 3)
    return table[:, 0], table[:, 1], table[:, 2]


def _integral(x) -> bool:
    """Whether ``x`` is a number equal to an integer: ``2`` and ``2.0``
    are, ``2.5``, ``nan`` and ``'2'`` are not."""
    try:
        return bool(x == int(x))
    except (TypeError, ValueError, OverflowError):
        return False


def _as_integers(col: np.ndarray) -> tuple[np.ndarray, int]:
    """``col`` with integer values, and the index of its first value that
    is not an integer (``len(col)`` when none is).  A column of an integer
    type is not looked at; another is read value by value into Python
    integers, in an object array."""
    if col.dtype.kind in "biu":
        return col, len(col)
    values = col.tolist()
    bad = next((i for i, x in enumerate(values) if not _integral(x)), len(col))
    return col if bad < len(col) else np.array([int(x) for x in values], dtype=object), bad


def _id_array(edge_ids: Iterable[int]) -> np.ndarray:
    """Edge ids from any iterable (sets included) as an int64 array."""
    if isinstance(edge_ids, (np.ndarray, list, tuple, range)):
        return np.asarray(edge_ids, dtype=np.int64)
    return np.fromiter(edge_ids, dtype=np.int64)


def _vertex_sums(G: MultiGraph, ids: np.ndarray) -> tuple[list[int], list[int]]:
    """Weighted and plain degree of every vertex over the edges ``ids``,
    as lists of Python ints."""
    ends = np.concatenate((G.u[ids], G.v[ids]))
    deg = np.bincount(ends, minlength=G.n)
    w = G.w[ids]
    if G.W * len(ids) < 2**53:
        # float64 sums of integers are exact below 2**53
        wdeg = np.bincount(ends, np.concatenate((w, w)), minlength=G.n).astype(np.int64)
    else:
        wdeg = np.zeros(G.n, dtype=object)
        np.add.at(wdeg, ends, np.concatenate((w, w)).astype(object))
    return wdeg.tolist(), deg.tolist()


class Capacities:
    """Per-vertex positive integer capacities ``b_v``."""

    __slots__ = ("b",)

    def __init__(self, b: Sequence[int]):
        b = tuple(b)
        for v, bv in enumerate(b):
            if not _integral(bv):
                raise ValueError(f"capacity of vertex {v} must be an integer, got {bv!r}")
            if bv < 1:
                raise ValueError(f"capacity of vertex {v} must be >= 1, got {bv}")
        self.b = tuple(map(int, b))

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
    ``v``) and ``deg[v]`` the plain degree, both lists of Python ints; the
    constructor counts them over the parent's columns in one pass.  The
    offline builder returns its H built this way from its member ids; the
    stream's ledger (:class:`wedcs.edcs._Ledger`) is the one writer that
    changes ``members`` and the degrees after construction.  Single-writer:
    mutate from one thread only; concurrent readers are fine between
    mutations.
    """

    __slots__ = ("parent", "members", "wdeg", "deg")

    def __init__(self, parent: MultiGraph, members: Iterable[int] = ()):
        self.parent = parent
        self.members: set[int] = set(
            members.tolist() if isinstance(members, np.ndarray) else members)
        ids = np.fromiter(self.members, dtype=np.int64, count=len(self.members))
        if ids.size and not (ids.min() >= 0 and ids.max() < parent.m):
            raise IndexError(f"edge ids must lie in [0, {parent.m})")
        self.wdeg, self.deg = _vertex_sums(parent, ids)

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

    def __contains__(self, eid: int) -> bool:
        return eid in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __repr__(self) -> str:
        return f"Subgraph({len(self.members)} of {self.parent!r})"


def _pair_caps(G: MultiGraph, b: Capacities) -> np.ndarray:
    """min(b_u, b_v) for every pair id, as a read-only array: how many
    edges of the pair a b-matching can use."""
    return _capacity_entry(G, b)[1]


def _capacity_entry(G: MultiGraph, b: Capacities) -> tuple:
    """``G``'s cache entry for the capacities ``b``: ``b.b``, the pair caps
    and the exact answer, the answer None until :func:`_kept_answer`
    fills it.  One entry, for the capacities of the last call, replaced whole
    and without a lock (see :class:`MultiGraph`)."""
    if len(b) != G.n:
        raise ValueError("capacity vector length does not match vertex count")
    cached = G._entry
    if cached is None or cached[0] is not b.b and cached[0] != b.b:
        caps = np.asarray(b.b, dtype=_int_type(max(b.b, default=1)))
        lo, hi = G.pair_ends
        caps = np.minimum(caps[lo], caps[hi])
        caps.flags.writeable = False
        cached = G._entry = b.b, caps, None
    return cached


def _kept_answer(G: MultiGraph, b: Capacities, solve) -> object:
    """The exact answer in ``G``'s entry for ``b``, solved by ``solve()``
    on first use.  Threads that race on an empty entry each solve, and the
    last to finish is kept; a solve that raises keeps nothing."""
    answer = _capacity_entry(G, b)[2]
    if answer is None:
        answer = solve()
        G._entry = *_capacity_entry(G, b)[:2], answer
    return answer


def _rank_in_runs(keys: np.ndarray) -> np.ndarray:
    """Position of every element of a sorted array within its run of
    equal values: ``[4, 4, 7, 9, 9, 9]`` gives ``[0, 1, 0, 0, 1, 2]``."""
    rank = np.arange(len(keys), dtype=_int_type(len(keys)))
    start = np.where(_run_starts(keys), rank, 0)
    np.maximum.accumulate(start, out=start)
    rank -= start
    return rank


def _relevant_ids(G: MultiGraph, b: Capacities) -> np.ndarray:
    """Ids of the relevant subgraph as an int64 array, ascending: for every
    unordered pair, its min(b_u, b_v) heaviest edges, smaller ids first on
    equal weights.  Those are the edges whose
    :attr:`~MultiGraph.pair_rank` is below their pair's cap; the ranks
    come with the pair numbering, so this is one compare over the edges,
    made afresh on every call and kept nowhere."""
    return np.flatnonzero(G.pair_rank < _pair_caps(G, b)[G.pair])


def _first_crowded_pair(G: MultiGraph, caps: np.ndarray) -> tuple[int, int]:
    """The smallest edge id whose unordered pair has more edges than its
    cap in ``caps`` (one per pair id), with that pair's edge count, on a
    graph where some pair does.  That edge is its pair's first, and its
    pair the first to appear among the crowded ones."""
    eid = int(np.argmax((G.pair_count > caps)[G.pair]))
    return eid, int(G.pair_count[G.pair[eid]])


def _reject_crowded(G: MultiGraph, b: Capacities, advice: str) -> None:
    """Raise ``ValueError`` naming the first pair (see
    :func:`_first_crowded_pair`) with more than min(b_u, b_v) parallel
    edges, its edge count and that cap, followed by ``advice``.

    One compare of the pair counts with the caps decides; the pair is
    looked for, over the edges, only once one is crowded."""
    caps = _pair_caps(G, b)
    if (G.pair_count > caps).any():
        eid, count = _first_crowded_pair(G, caps)
        u, v = sorted(G.triple(eid)[:2])
        raise ValueError(f"pair ({u}, {v}) has {count} parallel edges, more than "
                         f"min(b_u, b_v)={min(b[u], b[v])}; {advice}")


def relevant_subgraph(G: MultiGraph, b: Capacities) -> Subgraph:
    """Keep, for every unordered vertex pair, the min(b_u, b_v) heaviest
    parallel edges (ties by smaller edge id).

    Dropping the rest never changes the best achievable b-matching, since
    a b-matching can use at most min(b_u, b_v) edges between u and v.
    The ids are one compare over G's pair ranks (:func:`_relevant_ids`),
    made on every call: G does not keep them, the subgraph does.
    """
    return Subgraph(G, _relevant_ids(G, b))
