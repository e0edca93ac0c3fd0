import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedcs import (
    Capacities,
    EdcsParams,
    MultiGraph,
    Subgraph,
    branch_and_bound_b_matching,
    build_wb_edcs,
    make_stream,
    relevant_subgraph,
    run_single_pass,
)

from helpers import make_random, pair_count, triples


def test_weighted_degree_empty_subgraph():
    G = MultiGraph(3, [(0, 1, 3), (1, 2, 1)])
    H = Subgraph(G)
    assert H.wdeg == H.deg == [0, 0, 0]


def test_weighted_degree_single_edge():
    G = MultiGraph(2, [(0, 1, 3)])
    H = Subgraph(G, [0])
    assert H.wdeg == [3, 3]
    assert H.deg == [1, 1]


def test_weighted_degree_triangle():
    # hand-summed: edges at vertex 0 weigh 3 and 2
    G = MultiGraph(3, [(0, 1, 3), (0, 2, 2), (1, 2, 1)])
    H = Subgraph(G, [0, 1, 2])
    assert H.wdeg == [5, 4, 3]
    assert H.deg == [2, 2, 2]


def test_weighted_degree_vertex_out_of_range():
    # one degree per vertex, so a vertex past n has none
    G = MultiGraph(2, [(0, 1, 1)])
    H = Subgraph(G, [0])
    assert len(H.wdeg) == len(H.deg) == 2
    with pytest.raises(IndexError):
        H.wdeg[2]
    with pytest.raises(IndexError):
        H.deg[2]


def test_multigraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 0, 1)])  # self-loop
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 3, 1)])  # out of range
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 1, 5)], W=4)  # weight above cap
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 1, 0)])  # weight below 1


def test_capacities_validation():
    import numpy as np

    for b, message in [
        ([1, 0], "capacity of vertex 1 must be >= 1, got 0"),
        ([1.9, 2], "capacity of vertex 0 must be an integer, got 1.9"),
        (["3"], "capacity of vertex 0 must be an integer, got '3'"),
    ]:
        with pytest.raises(ValueError) as raised:
            Capacities(b)
        assert str(raised.value) == message
    assert Capacities.uniform(3, 2)[1] == 2
    assert Capacities(np.array([2, 3], dtype=np.int8)).b == (2, 3)
    assert Capacities([2**70]).b == (2**70,)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_coherence_random_edit_script(data):
    # an edit script toggles ids in a set; the subgraph built from the
    # script's ids in any order, repeats included, holds that set's ids
    # once each, and its degrees match a recount
    seed = data.draw(st.integers(0, 10_000))
    G, _ = make_random(seed, n=8, m=16, W=4, b_max=3)
    ops = data.draw(st.lists(st.integers(0, G.m - 1), max_size=60))
    members = set()
    for eid in ops:
        members ^= {eid}
    given = [eid for eid in ops if eid in members]
    H = Subgraph(G, data.draw(st.permutations(given)))
    assert H.edge_ids() == sorted(members)
    wdeg = [0] * G.n
    deg = [0] * G.n
    for eid in members:
        u, v, w = G.triple(eid)
        wdeg[u] += w
        wdeg[v] += w
        deg[u] += 1
        deg[v] += 1
    assert wdeg == H.wdeg
    assert deg == H.deg


def test_relevant_subgraph_single_edge():
    G = MultiGraph(2, [(0, 1, 2)])
    R = relevant_subgraph(G, Capacities.uniform(2))
    assert R.edge_ids() == [0]


def test_relevant_subgraph_takes_heaviest():
    G = MultiGraph(2, [(0, 1, 5), (0, 1, 3), (0, 1, 1)])
    R = relevant_subgraph(G, Capacities.uniform(2, 2))
    assert R.edge_ids() == [0, 1]  # sort-and-take-top of (5, 3, 1)


def test_relevant_subgraph_tie_break_by_id():
    G = MultiGraph(2, [(0, 1, 4), (0, 1, 4), (0, 1, 4)])
    R = relevant_subgraph(G, Capacities([2, 3]))
    assert R.edge_ids() == [0, 1]  # equal weights: the two smallest ids


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_relevant_subgraph_idempotent(seed):
    G, b = make_random(seed, n=7, m=25, W=3, b_max=3, allow_parallel=True)
    R1 = relevant_subgraph(G, b)
    shrunk, old_ids = G.restrict(R1.members)
    R2 = relevant_subgraph(shrunk, b)
    assert old_ids[R2.members].tolist() == R1.edge_ids()


# (n, m, bipartite, raw) past the 20 seeded general graphs: edgeless graphs
# at n = 0, 1, 2, bipartite and general, capped and raw; then bipartite ones
_MORE_PAIRS = ([(n, 0, bipartite, raw) for n in (0, 1, 2)
                for bipartite in (False, True) for raw in (False, True)]
               + [(n, 40, True, raw) for n in (5, 9) for raw in (False, True)])


def _pair_case(seed):
    """Case ``seed`` of the per-pair reference tests: 20 seeded general
    graphs, then those of ``_MORE_PAIRS``."""
    if seed < 20:
        n, m, bipartite, raw = 2 + seed % 9, 5 * seed + 1, False, seed % 2 == 0
    else:
        n, m, bipartite, raw = _MORE_PAIRS[seed - 20]
    m = m if raw else min(m, pair_count(n, bipartite))
    return make_random(seed, n=n, m=m, W=3, b_max=3, bipartite=bipartite, allow_parallel=raw)


def _assert_pairs_match_the_reference(G, b):
    # every pair's ids sorted by (-w, id): an edge's position there is its
    # rank, and the first min(b_u, b_v) are relevant; and every pair's edge
    # count, rank and relevant ids in the smallest type that holds them
    import numpy as np

    from wedcs.graph import _int_type, _relevant_ids

    rank, want = [None] * G.m, []
    for (u, v), ids in G.pair_groups().items():
        ranked = sorted(ids, key=lambda i: (-G.triple(i)[2], i))
        for r, i in enumerate(ranked):
            rank[i] = r
        want += ranked[:min(b[u], b[v])]
    assert G.pair_rank.tolist() == rank
    assert _relevant_ids(G, b).tolist() == sorted(want)
    count = np.bincount(G.pair, minlength=len(G.pair_ends[0]))
    assert G.pair_count.tolist() == count.tolist()
    assert G.pair_count.dtype == G.pair_rank.dtype == _int_type(int(count.max(initial=0)))
    assert sorted(G.pair_count.tolist()) == sorted(map(len, G.pair_groups().values()))


@pytest.mark.parametrize("seed", range(20 + len(_MORE_PAIRS)))
def test_relevant_ids_match_a_per_pair_reference(seed):
    _assert_pairs_match_the_reference(*_pair_case(seed))


def _numbered(G):
    """G's pair ids, pair ends, pair counts and pair ranks."""
    return G.pair, *G.pair_ends, G.pair_count, G.pair_rank


@pytest.mark.parametrize("seed", range(20 + len(_MORE_PAIRS)))
def test_lexsort_numbers_pairs_as_the_packed_key_does(monkeypatch, seed):
    # a bit budget of -1 fits no key, so every graph takes the lexsort
    import numpy as np

    import wedcs.graph as graph

    G, b = _pair_case(seed)
    packed = MultiGraph.from_columns(G.n, G.u, G.v, G.w, W=G.W)
    want = _numbered(packed) + (graph._relevant_ids(packed, b),)
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    monkeypatch.setattr(graph, "_KEY_BITS", -1)
    got = _numbered(G) + (graph._relevant_ids(G, b),)
    assert calls == [1]
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.tolist() == y.tolist()


@pytest.mark.parametrize("W", [2**60, 2**70], ids=["2**60", "2**70"])
def test_pairs_beyond_a_packed_key_match_the_reference(monkeypatch, W):
    # 2**60 leaves a packed key 65 bits wide; 2**70 fits no integer array,
    # so the weights are Python integers (the graph of test_cli's
    # bipartite-solver test, with heavy parallel copies added)
    import numpy as np

    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    edges = [(0, 1, W), (1, 2, 5), (2, 3, 7), (1, 0, W - 1), (0, 1, W), (3, 2, W),
             (2, 3, 7), (1, 2, 1)]
    G = MultiGraph(4, edges, W=W)
    assert (G.w.dtype == object) == (W > 2**63)
    b = Capacities([2, 1, 2, 1])
    _assert_pairs_match_the_reference(G, b)
    assert calls == [1]
    assert G.pair_rank.tolist() == [0, 0, 1, 2, 1, 0, 2, 1]


def test_relevant_ids_follow_the_capacities_asked():
    # computed on every call from the pair ranks and the caps of the
    # capacities asked, so going back to a replaced vector gives its ids
    from wedcs.graph import _relevant_ids

    G = MultiGraph(3, [(0, 1, 1), (0, 1, 2), (1, 2, 3)])
    one, two = Capacities.uniform(3), Capacities.uniform(3, 2)
    assert _relevant_ids(G, one).tolist() == [1, 2]
    assert _relevant_ids(G, Capacities.uniform(3)).tolist() == [1, 2]
    assert _relevant_ids(G, two).tolist() == [0, 1, 2]
    assert _relevant_ids(G, one).tolist() == [1, 2]
    with pytest.raises(ValueError):
        _relevant_ids(G, Capacities.uniform(2))


def _sort_calls(monkeypatch, f) -> list[str]:
    """The sorts ``f()`` calls: ``np.lexsort`` and ``np.argsort`` through
    spies, and the ``ndarray.sort`` and ``argsort`` methods (called by
    ``np.sort`` too) through a profile hook on this thread."""
    import sys

    import numpy as np

    calls = []
    for name in ("lexsort", "argsort"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, _name=name, _real=real, **kwargs:
                            calls.append(_name) or _real(*args, **kwargs))

    def hook(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray) \
                and arg.__name__ in ("sort", "argsort"):
            calls.append(f"ndarray.{arg.__name__}")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        f()
    finally:
        sys.setprofile(previous)
    return calls


def test_relevant_ids_skip_the_sort_when_no_pair_is_crowded(monkeypatch):
    # the ranks come with the pair numbering, whose packed key is the one
    # sort: after it the relevant ids sort nothing, crowded pairs or not
    from wedcs.graph import _relevant_ids

    G, b = make_random(4, n=30, m=60, W=3, b_max=3)
    crowded = MultiGraph(2, [(0, 1, 1), (0, 1, 2)])
    assert _sort_calls(monkeypatch, lambda: G.pair) == ["ndarray.sort"]
    crowded.pair
    got = []
    assert _sort_calls(monkeypatch, lambda: got.append(_relevant_ids(G, b))) == []
    assert got[0].tolist() == list(range(G.m))
    assert _sort_calls(monkeypatch, lambda: got.append(
        _relevant_ids(crowded, Capacities.uniform(2)))) == []
    assert got[1].tolist() == [1]


def _crowded_verdict(G, b):
    from wedcs.graph import _reject_crowded

    try:
        _reject_crowded(G, b, "advice")
    except ValueError as err:
        return str(err)
    return None


def test_reject_crowded_answers_alike_from_a_cold_and_a_warm_cache(monkeypatch):
    # cold or warm, the check compares the pair counts with the caps and
    # solves nothing; it looks for the pair over the edges only on a
    # crowded graph, to name it
    import wedcs.graph as graph

    G = MultiGraph(3, [(0, 1, 1), (1, 2, 1), (2, 1, 3)])
    b = Capacities.uniform(3)
    text = "pair (1, 2) has 2 parallel edges, more than min(b_u, b_v)=1; advice"
    assert G._pairs is None and G._entry is None
    assert _crowded_verdict(G, b) == text and G._entry[2] is None
    graph._relevant_ids(G, b)
    assert _crowded_verdict(G, b) == text
    params = EdcsParams(W=3, beta=6, beta_minus=4)
    with pytest.raises(ValueError, match=r"\(1, 2\) has 2 .*; use variant=3"):
        run_single_pass(make_stream(G, 0), b, params, "0.3", variant=1)
    with pytest.raises(ValueError, match=r"\(1, 2\) has 2 .*; reduce to the relevant"):
        build_wb_edcs(G, b, params)
    verdicts = set()
    for seed in range(12):
        G, b = make_random(seed, n=8, m=20, W=3, b_max=3, allow_parallel=seed % 3 > 0)
        crowded = any(len(ids) > min(b[u], b[v]) for (u, v), ids in G.pair_groups().items())
        with monkeypatch.context() as patched:
            if not crowded:
                patched.setattr(graph, "_first_crowded_pair", None)  # no search
            assert G._pairs is None and G._entry is None
            cold = _crowded_verdict(G, b)
            assert G._entry[2] is None
            graph._relevant_ids(G, b)
            assert _crowded_verdict(G, b) == cold, seed
        assert (cold is None) == (not crowded), seed
        verdicts.add(cold is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(12))
def test_relevant_subgraph_preserves_optimum(seed):
    G, b = make_random(seed, n=6, m=14, W=4, b_max=3, allow_parallel=True)
    R = relevant_subgraph(G, b)
    shrunk, _ = G.restrict(R.members)
    full = branch_and_bound_b_matching(G, b, budget=10**6).weight
    reduced = branch_and_bound_b_matching(shrunk, b, budget=10**6).weight
    assert full == reduced


def test_restrict_maps_ids():
    G = MultiGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    sub, old = G.restrict([2, 0])
    assert old.tolist() == [0, 2]
    assert triples(sub) == [(0, 1, 1), (0, 2, 3)]


def test_subgraph_sorts_and_dedupes_its_ids():
    G = MultiGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (0, 1, 4)])
    for given in ([3, 1, 3, 0, 1], {3, 0, 1}, np.array([1, 0, 3, 0], dtype=np.int32),
                  iter([0, 3, 1])):
        H = Subgraph(G, given)
        assert H.members.dtype == np.int64 and H.members.tolist() == [0, 1, 3]
        assert not H.members.flags.writeable
        assert H.wdeg == [5, 7, 2] and H.deg == [2, 3, 1]
    empty = Subgraph(G, [])
    assert empty.edge_ids() == [] and len(empty) == 0 and empty.wdeg == [0, 0, 0]
    assert Subgraph(G).edge_ids() == []


def test_subgraph_rejects_ids_outside_the_graph():
    G = MultiGraph(3, [(0, 1, 1), (1, 2, 2)])
    for bad in ([-1], [0, 2], [2, 1, -1]):
        with pytest.raises(IndexError, match=r"edge ids must lie in \[0, 2\)"):
            Subgraph(G, bad)
    with pytest.raises(IndexError):
        Subgraph(MultiGraph(2, []), [0])


def test_subgraph_membership_and_iteration():
    G = MultiGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (0, 1, 4)])
    H = Subgraph(G, [3, 1])
    assert 1 in H and 3 in H and np.int64(3) in H
    assert 0 not in H and 2 not in H  # absent
    assert -1 not in H and 4 not in H and 2**70 not in H  # outside [0, m)
    assert 0 not in Subgraph(G)
    assert len(H) == 2
    assert list(H) == H.edge_ids() == [1, 3]
    assert all(type(i) is int for i in (*H, *H.edge_ids()))
