import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedcs import (
    Capacities,
    EdcsParams,
    GenSpec,
    LocalSearchError,
    MultiGraph,
    Subgraph,
    build_wb_edcs,
    make_stream,
    max_weight_b_matching_exact,
    parameters_for,
    potential,
    random_instance,
    tight_instance,
    validate,
)

from wedcs.edcs import _degree_terms, _earlier, _priority, _scaled_gain

from helpers import _excess, _step_gain, make_random, reference_round_search, triples


# ---------------------------------------------------------------- params

def test_params_invariants():
    with pytest.raises(ValueError):
        EdcsParams(W=1, beta=4, beta_minus=3)  # gap below 2
    with pytest.raises(ValueError):
        EdcsParams(W=1, beta=2, beta_minus=0)
    EdcsParams(W=1, beta=3, beta_minus=1)


def test_parameters_for_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        parameters_for("0.5", 1)
    with pytest.raises(ValueError):
        parameters_for("0", 2)
    with pytest.raises(ValueError):
        parameters_for("-0.1", 1)


def _theorem_conditions(beta: int, beta_minus: int, W: int, lam: Fraction):
    x = beta + 8 * W
    c1 = x / math.log(x) >= float(Fraction(2 * W * W) / (lam * lam))
    c2 = Fraction(beta_minus - 6 * W) >= (1 - lam) * x
    return c1, c2


@pytest.mark.parametrize("W", [1, 2, 3])
@pytest.mark.parametrize("epsilon", ["1/10", "1/4", "2/5"])
def test_parameters_for_theorem_small_epsilon_magnitude(epsilon, W):
    # lambda = epsilon/(100 W), so 2 W^2 / lambda^2 = 20000 W^4 / epsilon^2
    # (125000 at epsilon=2/5, W=1); x = beta + 8W with x / ln x at least
    # that target lies between target * ln(target) and twice that
    p = parameters_for(epsilon, W)
    assert p.lam == Fraction(epsilon) / (100 * W)
    target = Fraction(2 * W * W) / (p.lam * p.lam)
    assert target == 20000 * W**4 / Fraction(epsilon) ** 2
    x = p.beta + 8 * W
    assert target * math.log(target) <= x <= 2 * target * math.log(target)

    c1, c2 = _theorem_conditions(p.beta, p.beta_minus, W, p.lam)
    assert c1 and c2 and p.beta_minus <= p.beta - 2
    assert not _theorem_conditions(p.beta, p.beta_minus - 1, W, p.lam)[1]

    # minimality: beta - 1 admits no valid pair, not even the largest
    # beta_minus it allows
    prev = p.beta - 1
    assert not all(_theorem_conditions(prev, prev - 2, W, p.lam))


# ---------------------------------------------------------------- validate

def test_validate_empty():
    G = MultiGraph(0, [])
    report = validate(G, Capacities([]), Subgraph(G), EdcsParams(W=1, beta=4, beta_minus=2))
    assert report.is_clean


def test_validate_lower_violation_on_empty_H():
    G = MultiGraph(2, [(0, 1, 1)])
    report = validate(G, Capacities.uniform(2), Subgraph(G),
                      EdcsParams(W=1, beta=4, beta_minus=2))
    assert report.upper_violations == []
    assert report.lower_violations == [0]


def test_validate_upper_violation():
    # star with every edge kept: center degree 4 breaks the bound for beta=3
    G = MultiGraph(5, [(0, i, 1) for i in range(1, 5)])
    H = Subgraph(G, range(4))
    report = validate(G, Capacities.uniform(5), H, EdcsParams(W=1, beta=3, beta_minus=1))
    assert report.lower_violations == []
    assert report.upper_violations == [0, 1, 2, 3]


def test_validate_tight_family_reference():
    inst = tight_instance(k=1, W=1)
    report = validate(inst.graph, inst.capacities, inst.edcs, inst.params)
    assert report.is_clean


@pytest.mark.parametrize("seed", range(10))
def test_validate_matches_fraction_arithmetic(seed):
    # differential check of the cross-multiplied integer comparisons
    # against a direct rational evaluation, on arbitrary member sets
    G, b = make_random(seed, n=9, m=25, W=4, b_max=3)
    H = Subgraph(G, [eid for eid in range(G.m) if (eid * 7 + seed) % 3 == 0])
    params = EdcsParams(W=4, beta=5, beta_minus=3)
    report = validate(G, b, H, params)
    assert (report.upper_violations, report.lower_violations) == \
        _fraction_violations(G, b, H, params)


def _fraction_violations(G, b, H, params):
    """Both properties evaluated in rationals, edge by edge."""
    upper, lower = [], []
    for eid, (u, v, w) in enumerate(triples(G)):
        total = Fraction(H.wdeg[u], b[u]) + Fraction(H.wdeg[v], b[v])
        if eid in H:
            if total > params.beta * w:
                upper.append(eid)
        elif total < params.beta_minus * w:
            lower.append(eid)
    return upper, lower


def test_validate_matches_fraction_arithmetic_near_2_62():
    # weights near 2**60 put the degree terms past 2**62, beyond what int64
    # products hold, so the array test runs in Python integers
    big = 2**60
    G = MultiGraph(5, [(0, 1, big), (1, 2, big - 1), (0, 2, big - 3), (2, 3, big),
                       (3, 4, 7), (0, 4, big - 2)], W=big)
    b = Capacities([1, 2, 3, 1, 2])
    seen = set()
    for beta, beta_minus in ((3, 1), (5, 3), (4, 0)):
        params = EdcsParams(W=big, beta=beta, beta_minus=beta_minus)
        for mask in range(1 << G.m):
            H = Subgraph(G, [eid for eid in range(G.m) if mask >> eid & 1])
            report = validate(G, b, H, params)
            want = _fraction_violations(G, b, H, params)
            assert (report.upper_violations, report.lower_violations) == want
            seen.update(kind for kind, ids in zip("ul", want) if ids)
    assert seen == {"u", "l"}


def test_validate_requires_same_parent():
    G = MultiGraph(2, [(0, 1, 1)])
    G2 = MultiGraph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        validate(G, Capacities.uniform(2), Subgraph(G2), EdcsParams(W=1, beta=4, beta_minus=2))


# ---------------------------------------------------------------- potential

def test_potential_empty():
    G = MultiGraph(2, [(0, 1, 1)])
    assert potential(Subgraph(G), Capacities.uniform(2),
                     EdcsParams(W=1, beta=4, beta_minus=2)) == 0


def test_potential_single_weight2_edge():
    # (2*4-2)*4 - (2^2 + 2^2) = 24 - 8
    G = MultiGraph(2, [(0, 1, 2)])
    val = potential(Subgraph(G, [0]), Capacities.uniform(2),
                    EdcsParams(W=2, beta=4, beta_minus=2))
    assert val == 16


def test_potential_capacity_normalization():
    G = MultiGraph(2, [(0, 1, 2)])
    val = potential(Subgraph(G, [0]), Capacities([2, 1]),
                    EdcsParams(W=2, beta=4, beta_minus=2))
    assert val == Fraction(24) - Fraction(4, 2) - Fraction(4, 1)


def _per_vertex_potential(H, b, params):
    """potential() as one Fraction per vertex."""
    G = H.parent
    phi = Fraction((2 * params.beta - 2) * sum(int(G.w[e]) ** 2 for e in H))
    for v in range(G.n):
        phi -= Fraction(H.wdeg[v] ** 2, b[v])
    return phi


@pytest.mark.parametrize("scale", [1, 2**60 - 1])
@pytest.mark.parametrize("seed", range(4))
def test_potential_matches_per_vertex_fractions(seed, scale):
    # weights near 2**60 make every squared degree a Python integer past 2**120
    G0, b = make_random(seed, n=12, m=40, W=4, b_max=5)
    G = MultiGraph.from_columns(G0.n, G0.u, G0.v, G0.w.astype(object) * scale, W=4 * scale)
    params = EdcsParams(W=G.W, beta=7, beta_minus=5)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        H = Subgraph(G, np.flatnonzero(rng.random(G.m) < 0.5).tolist())
        assert potential(H, b, params) == _per_vertex_potential(H, b, params)


@pytest.mark.parametrize("scale", [1, 2**60])
def test_degree_terms_match_scalar_excess(scale):
    # at scale 2**60 the weights put the terms past 2**62, so the array
    # form runs in Python integers
    G0, b = make_random(4, n=9, m=25, W=4, b_max=3)
    G = MultiGraph.from_columns(G0.n, G0.u, G0.v, G0.w.astype(np.int64) * scale, W=4 * scale)
    H = Subgraph(G, [eid for eid in range(G.m) if eid % 3 != 1])
    lhs, scaled = _degree_terms(H.wdeg, b, 5 * G.W)(G.u, G.v, G.w)
    assert lhs.dtype == (object if scale > 1 else np.int64)
    for k in (0, 2, 5):
        for eid in range(G.m):
            u, v, w = G.triple(eid)
            assert lhs[eid] - k * scaled[eid] == _excess(H.wdeg[u], H.wdeg[v], b[u], b[v], w, k)


# ------------------------------------------------------- potential delta

def _gain(H, b, params, eid, insert):
    """The reference gain for edge ``eid`` entering or leaving H, over
    b_u * b_v."""
    u, v, w = H.parent.triple(eid)
    k = params.beta_minus if insert else params.beta
    excess = _excess(H.wdeg[u], H.wdeg[v], b[u], b[v], w, k)
    return Fraction(_step_gain(params, insert, excess, w, b[u], b[v]), b[u] * b[v])


def _shared_gain_terms(H, b, params, eid, insert):
    """The arguments of ``_scaled_gain`` for edge ``eid`` entering or
    leaving H: (w, c, b_u, b_v, gap)."""
    u, v, w = H.parent.triple(eid)
    bu, bv = b[u], b[v]
    lhs = H.wdeg[u] * bv + H.wdeg[v] * bu
    if insert:
        return w, 2 * params.beta - 2 - 2 * params.beta_minus, bu, bv, \
            params.beta_minus * bu * bv * w - lhs
    return w, 2, bu, bv, lhs - params.beta * bu * bv * w


@pytest.mark.parametrize("seed", [*range(8), "b200-W127-5"])
def test_step_gains_match_potential_differences(seed):
    # the named case takes its graph and capacities from the large-capacity
    # cases, where lcm(b) is past 2**64: the shared step gain, over each
    # edge's b_u * b_v, matches the potential's difference and the
    # reference for every edge stepped on, as integers and as arrays
    if isinstance(seed, str):
        G, b, params = _LARGE_CAPACITY_CASES[seed]
        assert math.lcm(*b.b) > 2**64
        picked = 0
    else:
        G, b = make_random(seed, n=9, m=25, W=4, b_max=3)
        params = EdcsParams(W=4, beta=5, beta_minus=3)
        picked = seed
    members = {eid for eid in range(G.m) if (eid * 5 + picked) % 3 == 0}
    H = Subgraph(G, members)
    before = potential(H, b, params)
    terms = []
    for eid in range(G.m):
        insert = eid not in H
        terms.append(_shared_gain_terms(H, b, params, eid, insert))
        w, c, bu, bv, gap = terms[-1]
        gain = Fraction(_scaled_gain(w, c, bu, bv, gap), bu * bv)
        after = potential(Subgraph(G, members ^ {eid}), b, params)
        assert gain == after - before == _gain(H, b, params, eid, insert), eid
    columns = (np.array(col, dtype=np.int64) for col in zip(*terms))
    assert _scaled_gain(*columns).tolist() == [_scaled_gain(*t) for t in terms]


def test_replacement_gain_matches_potential_difference():
    # a variant-3 replacement swaps the held copy of a full pair (here the
    # pair {0, 1} at capacities (1, 2)) for a heavier arrival given in the
    # other orientation; phase 1 prices both steps over b_u * b_v = 2
    G = MultiGraph(4, [(0, 1, 1), (1, 0, 3), (0, 2, 2), (1, 3, 3)], W=3)
    b = Capacities([1, 2, 3, 1])
    params = EdcsParams(W=3, beta=6, beta_minus=4)
    H, mid, after = (Subgraph(G, ids) for ids in ([0, 2, 3], [2, 3], [1, 2, 3]))
    reference = _gain(H, b, params, 0, False) + _gain(mid, b, params, 1, True)
    gain = _scaled_gain(*_shared_gain_terms(H, b, params, 0, False)) \
        + _scaled_gain(*_shared_gain_terms(mid, b, params, 1, True))
    assert Fraction(gain, 2) == potential(after, b, params) - potential(H, b, params) \
        == reference
    assert gain >= 2


# ---------------------------------------------------------------- builders

def test_build_empty_graph():
    G = MultiGraph(0, [])
    H, trace = build_wb_edcs(G, Capacities.uniform(G.n), EdcsParams(W=1, beta=4, beta_minus=2))
    assert len(H) == 0 and trace.steps == 0


def test_build_single_edge_one_step():
    G = MultiGraph(2, [(0, 1, 1)])
    H, trace = build_wb_edcs(G, Capacities.uniform(G.n), EdcsParams(W=1, beta=4, beta_minus=2))
    assert H.edge_ids() == [0]
    assert trace.steps == 1


def test_build_star_degree_bounded():
    G = MultiGraph(7, [(0, i, 1) for i in range(1, 7)])
    params = EdcsParams(W=1, beta=4, beta_minus=2)
    H, _ = build_wb_edcs(G, Capacities.uniform(G.n), params)
    assert H.deg[0] <= 4
    assert validate(G, Capacities.uniform(7), H, params).is_clean


def test_build_triangle_all_capacity_two():
    G = MultiGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    params = EdcsParams(W=1, beta=4, beta_minus=2)
    H, _ = build_wb_edcs(G, Capacities.uniform(3, 2), params)
    # every endpoint pair sums to 2/2 + 2/2 = 2 <= 4, so nothing is evicted
    assert H.edge_ids() == [0, 1, 2]


def test_build_on_tight_graph_is_clean():
    inst = tight_instance(k=1, W=1)
    H, _ = build_wb_edcs(inst.graph, inst.capacities, inst.params)
    assert validate(inst.graph, inst.capacities, H, inst.params).is_clean


def test_build_rejects_multiplicity_violation():
    G = MultiGraph(2, [(0, 1, 1), (0, 1, 2)])
    with pytest.raises(ValueError):
        build_wb_edcs(G, Capacities.uniform(2), EdcsParams(W=2, beta=4, beta_minus=2))


def test_theorem_scale_params_keep_everything():
    G, b = make_random(3, n=10, m=20, W=1, b_max=2)
    params = EdcsParams(W=1, beta=10**6, beta_minus=10**6 - 2)
    H, _ = build_wb_edcs(G, b, params)
    assert H.edge_ids() == list(range(G.m))


@pytest.mark.parametrize("seed,beta", [(s, b) for s in range(8) for b in (6, 10)])
def test_build_corpus_properties(seed, beta):
    G, b = make_random(seed, n=14, m=40, W=3, b_max=3)
    params = EdcsParams(W=3, beta=beta, beta_minus=beta - 2)
    H, trace = build_wb_edcs(G, b, params)  # internal checks already assert gains
    assert validate(G, b, H, params).is_clean
    # degree bound: deg_H(v) <= beta * b_v
    assert all(H.deg[v] <= beta * b[v] for v in range(G.n))
    # potential-derived step bound: a step on (u, v, w) gains at least
    # w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) >= 1 + 1/(b_u b_v), hence at
    # least 1 + 1/b_max^2 uniformly
    floor_gain = 1 + Fraction(1, 9)
    assert trace.steps <= trace.phi_final / floor_gain
    assert trace.min_gain is None or trace.min_gain >= floor_gain
    assert potential(H, b, params) == trace.phi_final


def test_boundary_step_gain_four_thirds():
    # minimal-slack insertion at capacities (1, 3) gains exactly 4/3, the
    # tight case of the 1 + 1/(b_u b_v) per-step bound: start from wdeg(u)=1,
    # wdeg(v)=2 so that 1/1 + 2/3 = 5/3 < beta_minus = 2 with slack 1/3
    G = MultiGraph(5, [(0, 2, 1), (1, 3, 1), (1, 4, 1), (0, 1, 1)])
    b = Capacities([1, 3, 1, 1, 1])
    params = EdcsParams(W=1, beta=4, beta_minus=2)
    H, trace = build_wb_edcs(G, b, params)
    assert validate(G, b, H, params).is_clean
    assert trace.min_gain == Fraction(4, 3)


def test_builder_rejects_step_below_its_edge_floor():
    # with beta_minus forced to beta - 1, past the beta - 2 the floor needs,
    # a step on a w=1 edge at capacities (4, 3) gains 17/12: above the
    # uniform 1 + 1/(b_u b_v) = 13/12 but below its own edge's floor
    # w^2 (2 - 1/b_u - 1/b_v) + 2w/(b_u b_v) = 19/12
    G = MultiGraph(5, [(0, 1, 3), (0, 4, 2), (1, 3, 1), (0, 2, 1), (0, 4, 2), (0, 3, 1)], W=3)
    b = Capacities([4, 3, 3, 4, 3])
    params = EdcsParams(W=3, beta=4, beta_minus=2)
    object.__setattr__(params, "beta_minus", 3)
    with pytest.raises(LocalSearchError, match="potential gain 17/12 below the per-step floor"):
        build_wb_edcs(G, b, params)


@pytest.mark.parametrize("seed", range(6))
def test_size_bound_vs_oracle(seed):
    G, b = make_random(seed, n=8, m=18, W=3, b_max=2)
    params = EdcsParams(W=3, beta=6, beta_minus=4)
    H, trace = build_wb_edcs(G, b, params)
    best = max_weight_b_matching_exact(G, b)
    cardinality = len(best.edge_ids)
    assert len(H) <= 2 * params.beta * max(cardinality, 1)
    # construction-time bound from the potential proof: flag, don't fail
    limit = Fraction(8, 3) * params.beta**2 * params.W**2 * max(cardinality, 1)
    if trace.steps > limit:
        warnings.warn(f"steps {trace.steps} exceeded the matching-size bound {limit}")


@pytest.mark.parametrize("n,m,beta_minus", [(0, 0, 2), (6, 0, 2), (9, 20, 0)],
                         ids=["no-vertex", "no-edge", "beta-minus-0"])
def test_build_with_nothing_underfull(n, m, beta_minus):
    # no edge, or beta_minus = 0, where no edge is ever underfull: no round
    G, b = make_random(5, n=n, m=m, W=2, b_max=3) if m else (MultiGraph(n, []), None)
    b = b or Capacities.uniform(n)
    H, trace = build_wb_edcs(G, b, EdcsParams(W=2, beta=4, beta_minus=beta_minus))
    assert len(H) == 0 and trace.rounds == trace.steps == 0
    assert trace.phi_final == 0 and trace.min_gain is None


def test_path_in_id_order_takes_few_rounds():
    # a path whose edges come in id order: a round that took a matching of
    # proposals by id, one edge per vertex, would take 19,999 rounds; in the
    # prefix rule an edge meets at most two earlier pool edges, of weight 1,
    # and stays underfull, so one round takes them all
    n = 20_000
    G = MultiGraph(n, [(i, i + 1, 1) for i in range(n - 1)], W=1)
    H, trace = build_wb_edcs(G, Capacities.uniform(n), EdcsParams(W=1, beta=4, beta_minus=2))
    assert validate(G, Capacities.uniform(n), H, EdcsParams(W=1, beta=4, beta_minus=2)).is_clean
    assert trace.rounds == 1


def _hub_instance(name):
    """A star whose centre has capacity 50 and 5,000 leaves of capacity 1,
    or 20 hubs of capacity 40 joined to the same 2,639 leaves of capacity
    1 to 4 (a complete bipartite graph, 52,780 edges); W = 3."""
    rng = np.random.default_rng(0)
    if name == "star":
        u, v, hubs, hub_b, leaf_b = np.zeros(5000), np.arange(1, 5001), 1, 50, np.ones(5000)
    else:
        hubs, hub_b, leaf_b = 20, 40, rng.integers(1, 5, 2639)
        u, v = np.repeat(np.arange(hubs), 2639), hubs + np.tile(np.arange(2639), hubs)
    G = MultiGraph.from_columns(hubs + leaf_b.size, u.astype(np.int64), v.astype(np.int64),
                                rng.integers(1, 4, u.size), W=3)
    return G, Capacities([hub_b] * hubs + leaf_b.astype(int).tolist())


@pytest.mark.parametrize("name,bound", [("star", 10), ("shared-hubs", 150)])
def test_hubs_build_in_few_rounds(name, bound):
    # a round that took one edge per vertex needed 1,082 rounds for the
    # star and 1,609 for the shared hubs: a hub gains one member a round.
    # The prefix rule takes a hub's edges while its earlier pool weight
    # leaves them underfull, many a round
    G, b = _hub_instance(name)
    params = EdcsParams(W=3, beta=12, beta_minus=10)
    H, trace = build_wb_edcs(G, b, params)
    assert validate(G, b, H, params).is_clean
    assert trace.rounds <= bound


def test_sorted_edge_list_takes_no_more_rounds():
    # the offline-build bench shape, and a copy with its edge list sorted by
    # (u, v): the rounds depend on the priorities, not on the edge order
    G, b = random_instance(GenSpec(seed=7, n=2000, m=50_000, W=3, b_max=4, bipartite=True))
    order = np.lexsort((G.v, G.u))
    S = MultiGraph.from_columns(G.n, G.u[order], G.v[order], G.w[order], W=G.W)
    params = EdcsParams(W=3, beta=12, beta_minus=10)
    rounds = build_wb_edcs(G, b, params)[1].rounds
    assert build_wb_edcs(S, b, params)[1].rounds <= 1.25 * rounds


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_builder_fuzz_always_clean(data):
    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(2, 9))
    W = data.draw(st.integers(1, 4))
    b_max = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, min(18, n * (n - 1) // 2)))
    beta = data.draw(st.integers(3, 12))
    beta_minus = data.draw(st.integers(0, beta - 2))
    G, b = make_random(seed, n=n, m=m, W=W, b_max=b_max)
    params = EdcsParams(W=W, beta=beta, beta_minus=beta_minus)
    H, trace = build_wb_edcs(G, b, params)
    assert validate(G, b, H, params).is_clean
    assert all(H.deg[v] <= beta * b[v] for v in range(G.n))
    if beta_minus == 0:
        assert len(H) == 0  # nothing is ever underfull


def test_simple_build_min_gain_two():
    G, _ = make_random(21, n=12, m=30, W=4)
    params = EdcsParams(W=4, beta=8, beta_minus=6)
    H, trace = build_wb_edcs(G, Capacities.uniform(G.n), params)
    assert trace.min_gain is None or trace.min_gain >= 2
    assert trace.steps <= trace.phi_final / 2
    # plain degree bound for the unit-capacity case
    assert all(H.deg[v] <= params.beta for v in range(G.n))


# ---------------------------------------------------------------- reference

def _reference_cases() -> dict[str, tuple]:
    """Seeded builder inputs, by name: (graph, capacities, params, unit),
    where ``unit`` marks simple graphs under unit capacities.  Weights cap
    at W in {1, 3, 127} (int8 columns), capacities lie in [1, 4], pairs
    carry up to min(b_u, b_v) parallel edges, and beta_minus is beta - 2
    or 0."""
    from wedcs.graph import _relevant_ids

    cases: dict[str, tuple] = {}
    weights = (1, 3, 127)
    for seed in range(10):
        W, beta = weights[seed % 3], (3, 4, 6, 12)[seed % 4]
        G, _ = make_random(100 + seed, n=12 + 3 * seed, m=4 * (12 + 3 * seed), W=W)
        beta_minus = 0 if seed == 9 else beta - 2
        cases[f"unit-{seed}"] = (G, Capacities.uniform(G.n), EdcsParams(W, beta, beta_minus), True)
    for seed in range(24):
        W, beta = weights[seed % 3], (3, 5, 8, 12)[seed % 4]
        b_min, b_max = (1, 4) if seed % 2 else (2, 1 + seed % 4 + (seed % 4 == 0))
        n = 8 + seed
        G, b = make_random(200 + seed, n=n, m=3 * n, W=W, b_min=b_min, b_max=max(b_min, b_max),
                           bipartite=seed % 3 == 0)
        beta_minus = 0 if seed % 8 == 5 else beta - 2
        cases[f"cap-{seed}"] = (G, b, EdcsParams(W, beta, beta_minus), False)
    for seed in range(6):
        # raw multiplicities reduced to the relevant subgraph: crowded pairs
        # keep exactly min(b_u, b_v) parallel edges
        W = weights[seed % 3]
        raw, b = make_random(300 + seed, n=7, m=90, W=W, b_max=4, allow_parallel=True)
        G, _ = raw.restrict(_relevant_ids(raw, b))
        cases[f"relevant-{seed}"] = (G, b, EdcsParams(W, 4 + seed, 2 + seed), False)
    G, b = make_random(4242, n=4000, m=50_000, W=3, b_max=2, bipartite=True)
    cases["large"] = (G, b, EdcsParams(W=3, beta=4, beta_minus=2), False)
    return cases


_REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
def test_builder_matches_reference(name, check):
    # the same rounds: the same members and the same trace, whatever
    # bookkeeping the builder keeps to find its candidates; the builder
    # always runs its checks, the reference with or without its own
    G, b, params, _ = _REFERENCE_CASES[name]
    H_ref, trace_ref = reference_round_search(G, b, params, check_invariants=check)
    H, trace = build_wb_edcs(G, b, params)
    assert H.edge_ids() == H_ref.edge_ids()
    assert H.wdeg == H_ref.wdeg and H.deg == H_ref.deg
    assert trace.to_json_dict() == trace_ref.to_json_dict()


def _large_capacity_cases() -> dict[str, tuple]:
    """Seeded builder inputs with capacities up to 50 or 200, by name:
    (graph, capacities, params).  A common denominator of all
    capacities, L = lcm(b), is 43 to 140 bits wide here; weights cap at W in
    {1, 3, 127}, and beta_minus is beta - 2 or 0."""
    cases: dict[str, tuple] = {}
    for seed in range(8):
        b_max, W = (50, 200)[seed % 2], (1, 3, 127)[seed % 3]
        beta = (3, 4, 6)[seed % 3]
        beta_minus = 0 if seed >= 6 else beta - 2
        G, b = make_random(500 + seed, n=40, m=400, W=W, b_max=b_max)
        cases[f"b{b_max}-W{W}-{seed}"] = (G, b, EdcsParams(W, beta, beta_minus))
    return cases


_LARGE_CAPACITY_CASES = _large_capacity_cases()


@pytest.mark.parametrize("name", sorted(_LARGE_CAPACITY_CASES))
def test_builder_matches_reference_at_large_capacities(name):
    # where L = lcm(b) is 43 to 140 bits wide, the rule cross-multiplied by
    # each edge's b_u * b_v stays in int64, and the builder still takes the
    # reference's rounds
    G, b, params = _LARGE_CAPACITY_CASES[name]
    H_ref, trace_ref = reference_round_search(G, b, params, check_invariants=True)
    H, trace = build_wb_edcs(G, b, params)
    assert H.edge_ids() == H_ref.edge_ids()
    assert H.wdeg == H_ref.wdeg and H.deg == H_ref.deg
    assert trace.to_json_dict() == trace_ref.to_json_dict()


@pytest.mark.parametrize("seed", range(3))
def test_builder_matches_reference_in_python_integers(seed):
    # weights near 2**40 put the builder's terms past 2**62, so its rounds
    # run over Python integers
    G0, b = make_random(600 + seed, n=30, m=150, W=3, b_max=4)
    scale = 2**40 - 1
    G = MultiGraph.from_columns(G0.n, G0.u, G0.v, G0.w.astype(np.int64) * scale, W=3 * scale)
    params = EdcsParams(W=G.W, beta=5, beta_minus=3)
    H_ref, trace_ref = reference_round_search(G, b, params, check_invariants=True)
    H, trace = build_wb_edcs(G, b, params)
    assert trace.removals > 0
    assert H.edge_ids() == H_ref.edge_ids()
    assert H.wdeg == H_ref.wdeg and H.deg == H_ref.deg
    assert trace.to_json_dict() == trace_ref.to_json_dict()


@pytest.mark.parametrize("n", [2**16 - 1, 2**17], ids=["below-2^16", "above-2^16"])
def test_builder_matches_reference_at_high_vertex_ids(n):
    # a sparse graph on 60 vertices with ids in [2**15, n): below 2**16 the
    # rounds sort pool ends as uint16; above it, where half the vertices are
    # the other half's ids plus 2**16, alike as uint16, by the packed key
    rng = np.random.default_rng(n)
    low = np.sort(rng.choice(np.arange(2**15, min(n, 2**16)), 60 if n < 2**16 else 30,
                             replace=False))
    place = low if n < 2**16 else np.r_[low, low + 2**16]
    G0, b0 = make_random(800, n=60, m=400, W=3, b_max=4)
    G = MultiGraph.from_columns(n, place[G0.u], place[G0.v], G0.w, W=3)
    caps = np.ones(n, dtype=np.int64)
    caps[place] = b0.b
    b = Capacities(caps.tolist())
    params = EdcsParams(W=3, beta=6, beta_minus=4)
    H_ref, trace_ref = reference_round_search(G, b, params, check_invariants=True)
    H, trace = build_wb_edcs(G, b, params)
    assert trace.removals > 0
    assert H.edge_ids() == H_ref.edge_ids()
    assert H.wdeg == H_ref.wdeg and H.deg == H_ref.deg
    assert trace.to_json_dict() == trace_ref.to_json_dict()


def test_large_capacity_cases_cover_wide_denominators():
    kinds = {}
    for G, b, params in _LARGE_CAPACITY_CASES.values():
        kinds.setdefault("W", set()).add(params.W)
        kinds.setdefault("b_max", set()).add(max(b.b))
        kinds.setdefault("beta_minus", set()).add(params.beta_minus == 0)
        kinds.setdefault("bits", set()).add(math.lcm(*b.b).bit_length())
        kinds.setdefault("removals", set()).add(build_wb_edcs(G, b, params)[1].removals > 0)
    assert len(_LARGE_CAPACITY_CASES) >= 6
    assert kinds["W"] == {1, 3, 127} and kinds["beta_minus"] == {True, False}
    assert any(40 < x <= 50 for x in kinds["b_max"]) and max(kinds["b_max"]) > 150
    assert min(kinds["bits"]) > 40 and max(kinds["bits"]) > 128
    assert kinds["removals"] == {True, False}


def test_reference_cases_cover_the_input_space():
    kinds = {}
    for G, b, params, unit in _REFERENCE_CASES.values():
        kinds.setdefault("W", set()).add(params.W)
        kinds.setdefault("b", set()).update(b.b)
        kinds.setdefault("gap", set()).add(params.beta - params.beta_minus)
        kinds.setdefault("unit", set()).add(unit)
        pairs = G.pair
        kinds.setdefault("parallel", set()).add(bool(len(pairs) and np.bincount(pairs).max() > 1))
    assert len(_REFERENCE_CASES) >= 40
    assert kinds["W"] == {1, 3, 127} and kinds["b"] == {1, 2, 3, 4}
    assert {2} < kinds["gap"] and kinds["unit"] == {True, False}
    assert kinds["parallel"] == {True, False}
    assert max(G.m for G, *_ in _REFERENCE_CASES.values()) >= 50_000


# the random pool's 30 vertices moved up: to ids in [2**15, 2**16), which
# int16 would make negative and uint16 keeps; past 2**16, where the packed
# key sorts them; and to pairs x // 2 and x // 2 + 2**16, which uint16 would
# make one vertex
_HIGH_IDS = {"high": lambda x: x + 2**16 - 30, "wider": lambda x: x + 2**20,
             "straddle": lambda x: x // 2 + (x % 2 << 16)}


def _prefix_pool(name):
    """(x, y, c) of one ``_earlier`` test pool, listed in priority order."""
    if name in ("empty", "path"):
        G = MultiGraph(40, [(i, i + 1, 1) for i in range(39)] if name == "path" else [], W=1)
    elif name == "star":
        # the centre is the first end of some edges and the second of others
        G = MultiGraph(41, [(0, i, 1) if i % 2 else (i, 0, 1) for i in range(1, 41)], W=1)
    elif name == "parallel":
        # every pair carries two or three parallel edges, in both directions
        edges = [(x, y, 1) for x, y in [(0, 1), (2, 3), (1, 2), (3, 0), (4, 5), (5, 0)]] * 2
        G = MultiGraph(6, edges + [(1, 0, 1), (4, 5, 1)], W=1)
    elif name == "wide":
        # the centre's earlier weight passes 2**31
        W = 2**22
        G = MultiGraph(1001, [(0, i, W - i) for i in range(1, 1001)], W=W)
    elif name in _HIGH_IDS:
        x, y, c = _prefix_pool("random")
        return _HIGH_IDS[name](x), _HIGH_IDS[name](y), c
    else:
        G, _ = make_random(77, n=30, m=200, W=3, b_max=4, allow_parallel=True)
    ids = np.arange(G.m)
    ids = ids[np.argsort(_priority(ids))]
    return G.u[ids].astype(np.intp), G.v[ids].astype(np.intp), G.w[ids].astype(np.int64)


@pytest.mark.parametrize("name", ["empty", "parallel", "star", "path", "wide", "random",
                                  *_HIGH_IDS])
def test_earlier_sums_walk_the_pool_one_edge_at_a_time(name):
    # the prefix rule's sums: per edge, the weight of the earlier pool edges
    # at each of its ends, as a walk over the pool in priority order finds
    # it, whichever end of the earlier edges the vertex is; an earlier
    # parallel edge counts at both ends
    x, y, c = _prefix_pool(name)
    seen, want_x, want_y = {}, [], []
    for xi, yi, ci in zip(x.tolist(), y.tolist(), c.tolist()):
        want_x.append(seen.get(xi, 0))
        want_y.append(seen.get(yi, 0))
        seen[xi] = seen.get(xi, 0) + ci
        seen[yi] = seen.get(yi, 0) + ci
    got_x, got_y = _earlier(x, y, c, np.int64)
    assert got_x.tolist() == want_x and got_y.tolist() == want_y
    # every edge at taken positions only: the sums of the taken ones
    taken = np.arange(x.size) % 3 == 0
    tx, ty = _earlier(x, y, np.where(taken, c, 0), np.int64)
    assert (tx[:1] == 0).all() and (ty[:1] == 0).all()
    assert (tx <= got_x).all() and (ty <= got_y).all()
    # the builder prices its taken edges from the taken ones alone, as a
    # pool of their own
    sx, sy = _earlier(x[taken], y[taken], c[taken], np.int64)
    assert sx.tolist() == tx[taken].tolist() and sy.tolist() == ty[taken].tolist()
    if name == "wide":
        assert got_x.max() >= 2**31
    if name == "star":
        assert max(want_x + want_y) == x.size - 1
    ends = np.concatenate((x, y))
    if name == "high":
        assert 2**15 <= ends.min() and ends.max() < 2**16
    if name == "wider":
        assert ends.min() >= 2**16
    if name == "straddle":
        assert np.unique(ends % 2**16).size < np.unique(ends).size


def test_star_whose_earlier_weight_passes_int32():
    # W = 7,723 keeps the round's arithmetic in int32, while the centre's
    # earlier pool weight passes 2**31 after 278,000 leaves; clipped, every
    # edge after the first is left out, and only the first enters H
    W, leaves = 7723, 300_000
    G = MultiGraph.from_columns(leaves + 1, np.zeros(leaves, dtype=np.int64),
                                np.arange(1, leaves + 1), np.full(leaves, W), W=W)
    params = EdcsParams(W=W, beta=3, beta_minus=1)
    assert 12 * params.beta * W**2 < 2**31 < leaves * W
    H, trace = build_wb_edcs(G, Capacities.uniform(G.n), params)
    assert H.edge_ids() == [int(np.argmin(_priority(np.arange(leaves))))]
    assert trace.rounds == trace.steps == 1


@pytest.mark.parametrize("name", sorted(n for n in _REFERENCE_CASES if n != "large"))
def test_builder_ledger_states(name):
    # after each round of the reference: a round stepped on exactly the
    # edges of its pool (the non-members underfull before an insertion
    # round, the members over their bound before a removal sub-round) that,
    # walked in priority order, still violate with the weights of the
    # earlier pool edges at their ends counted as stepped on; the pool's
    # first edge is always taken, and each taken edge violates at its own
    # moment; every member is within its bound after the sub-rounds end;
    # and the gains summed so far equal the potential recount
    G, b, params, _ = _REFERENCE_CASES[name]
    eu, ev, ew = G.u.tolist(), G.v.tolist(), G.w.tolist()

    def excess(wdeg, j, k):
        return _excess(wdeg[eu[j]], wdeg[ev[j]], b[eu[j]], b[ev[j]], ew[j], k)

    rounds = []
    H, trace = reference_round_search(G, b, params, check_invariants=True, rounds_out=rounds)
    assert len(rounds) == trace.rounds
    members, wdeg = set(), [0] * G.n
    for r, (kind, ids, members_after, wdeg_after, phi) in enumerate(rounds):
        if kind == "insert":
            if r:  # the sub-rounds before this round left none over its bound
                assert all(excess(wdeg, j, params.beta) <= 0 for j in members)
            k, sign = params.beta_minus, 1
            pool = [j for j in range(G.m) if j not in members and excess(wdeg, j, k) < 0]
        else:
            k, sign = params.beta, -1
            pool = [j for j in members if excess(wdeg, j, k) > 0]
        pool.sort(key=lambda j: j * 0x9E3779B97F4A7C15 % 2**64)
        assert ids and pool[0] in ids
        passed, now = [0] * G.n, list(wdeg)
        for j in pool:
            x, y, w = eu[j], ev[j], ew[j]
            rule = _excess(wdeg[x] + sign * passed[x], wdeg[y] + sign * passed[y], b[x], b[y], w, k)
            assert (j in ids) == (sign * rule < 0)
            passed[x] += w
            passed[y] += w
            if j in ids:
                assert sign * excess(now, j, k) < 0
                now[x] += sign * w
                now[y] += sign * w
                (members.add if kind == "insert" else members.remove)(j)
        wdeg = now
        assert members == members_after and wdeg == wdeg_after
        assert phi == potential(Subgraph(G, members), b, params)
    assert members == set(H)
    assert all(excess(wdeg, j, params.beta_minus) >= 0 for j in range(G.m) if j not in members)


def _phase1_case(name):
    """(G, b, params, stream seed, epsilon, alpha) of a phase-1 run: a
    reference case read three edges an epoch, or the golden hubs stream at
    its own interval sizes (alpha None)."""
    if name == "hubs":
        G = MultiGraph(4 + 1250, [(i % 4, 4 + i // 4, 1) for i in range(5000)], W=1)
        params = EdcsParams(W=1, beta=6, beta_minus=4)
        return G, Capacities.uniform(G.n), params, 1234, Fraction(2, 5), None
    G, b, params, _ = _REFERENCE_CASES[name]
    return G, b, params, 7, Fraction(1), 3


@pytest.mark.parametrize("name", [*sorted(n for n in _REFERENCE_CASES if n != "large"), "hubs"])
def test_repair_rechecks_only_members_over_their_bound(name, monkeypatch):
    # stream phase 1 repairs after each insertion: each repair removes
    # exactly the members at the inserted edge's ends that are over their
    # bound at their turn, by the reference excess, in ascending id order;
    # one at its bound (excess 0) stays.  The reference cases are read
    # three edges an epoch, where their own interval sizes would be zero
    from wedcs import streaming

    G, b, params, seed, eps, alpha = _phase1_case(name)
    if alpha is not None:
        monkeypatch.setattr(streaming, "_interval", lambda params, eps, m, i: alpha)
    repair, drop = streaming._repair, streaming._drop
    spied, counts = [], []
    repairing = False

    def spied_drop(at, weight, wdeg, eid, u, v):
        if repairing:
            assert _excess(wdeg[u], wdeg[v], b[u], b[v], weight[eid], params.beta) > 0, eid
            spied.append(eid)
        drop(at, weight, wdeg, eid, u, v)

    def checked_repair(at, weight, wdeg, caps, beta, u, v):
        nonlocal repairing
        now = list(wdeg)
        expected = []
        for i in sorted({i for x in (u, v) for i in at[x]}):
            x = u if i in at[u] else v
            y, w = at[x][i], weight[i]
            if _excess(now[x], now[y], b[x], b[y], w, params.beta) > 0:
                expected.append(i)
                now[x] -= w
                now[y] -= w
        spied.clear()
        repairing = True
        removed = repair(at, weight, wdeg, caps, beta, u, v)
        repairing = False
        assert spied == expected == removed
        assert wdeg == now
        counts.append(len(expected))
        return removed

    monkeypatch.setattr(streaming, "_drop", spied_drop)
    monkeypatch.setattr(streaming, "_repair", checked_repair)
    stats = streaming.StreamRunStats(seed=seed, m=G.m, variant=3, prng=streaming.PRNG_ID)
    H, pos, _ = streaming._phase1(make_stream(G, seed), b, params, eps, stats, None, True)
    assert pos > 0 and (counts or params.beta_minus == 0)
    if name == "hubs":  # unit capacities and W = 1: no repair removes
        assert stats.fallback_used == "none" and len(counts) == 8
