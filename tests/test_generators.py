from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from wedcs import (
    Capacities,
    GenSpec,
    bipartition_sides,
    max_weight_b_matching_exact,
    multicopy_instance,
    random_instance,
    relevant_subgraph,
    tight_instance,
    validate,
)
from wedcs.generators import _CHUNK
from wedcs.graph_io import format_graph

from helpers import pair_count, reference_random_instance, triples


def test_random_empty():
    G, b = random_instance(GenSpec(kind="random", seed=0, n=5, m=0, W=2))
    assert G.m == 0 and len(b) == 5


def test_random_same_seed_identical():
    spec = GenSpec(kind="random", seed=9, n=12, m=30, W=3, b_min=1, b_max=3)
    G1, b1 = random_instance(spec)
    G2, b2 = random_instance(spec)
    assert triples(G1) == triples(G2)
    assert b1 == b2


def test_random_respects_multiplicity_cap():
    G, b = random_instance(GenSpec(kind="random", seed=4, n=8, m=40, W=2, b_min=1, b_max=3))
    for (u, v), ids in G.pair_groups().items():
        assert len(ids) <= min(b[u], b[v])


def test_random_raw_multiplicities_need_reduction():
    # on some seed the relevant subgraph is strictly smaller than the graph
    shrunk = False
    for seed in range(10):
        spec = GenSpec(kind="random", seed=seed, n=5, m=40, W=3, b_min=1,
                       b_max=2, allow_parallel=True)
        G, b = random_instance(spec)
        if len(relevant_subgraph(G, b)) < G.m:
            shrunk = True
    assert shrunk


def test_random_infeasible_spec_errors():
    with pytest.raises(ValueError):
        random_instance(GenSpec(kind="random", seed=0, n=3, m=100, W=1))


def test_random_bipartite_sides():
    G, _ = random_instance(GenSpec(kind="random", seed=2, n=10, m=20, W=2,
                                   b_min=1, b_max=2, bipartite=True))
    assert all(u < 5 <= v for u, v, _ in triples(G))
    assert bipartition_sides(G) is not None


def _slot_total(spec: GenSpec) -> int:
    """The capacity slots of ``spec``'s graph: min(b_u, b_v) summed over
    its vertex pairs."""
    _, b = reference_random_instance(replace(spec, m=0))
    n, half = spec.n, spec.n // 2
    pairs = ([(x, y) for x in range(half) for y in range(half, n)] if spec.bipartite
             else combinations(range(n), 2))
    return sum(min(b[x], b[y]) for x, y in pairs)


def _outcome(make, spec: GenSpec):
    """What ``make(spec)`` gives: the columns with their dtypes, the
    capacities and the file text, or the text of its ``ValueError``."""
    try:
        G, b = make(spec)
    except ValueError as err:
        return str(err)
    return [(col.dtype, col.tolist()) for col in (G.u, G.v, G.w)], b.b, format_graph(G, b)


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 11])
@pytest.mark.parametrize("shape", ["raw", "full", "over", "sparse"])
def test_random_instance_matches_the_reference(shape, n, bipartite):
    # raw: three whole chunks and a part; full: every capacity slot, b up
    # to 250 as in the narrow-dtype spec; over: one edge past the slots;
    # sparse: few edges of many slots, where numpy's choice without
    # replacement would draw differently from a shuffle
    spec = GenSpec(seed=n + 20 * bipartite, n=n, W=127, b_max=4, bipartite=bipartite)
    if shape == "raw":
        spec = replace(spec, m=3 * _CHUNK + 17, allow_parallel=True)
    elif shape == "sparse":
        spec = replace(spec, n=30 * n + 1, m=n)
    else:
        spec = replace(spec, b_min=150, b_max=250)
        spec = replace(spec, m=_slot_total(spec) + (shape == "over"))
    expected = _outcome(reference_random_instance, spec)
    assert _outcome(random_instance, spec) == expected
    no_pairs = shape == "raw" and not pair_count(n, bipartite)
    assert isinstance(expected, str) == (shape == "over" or no_pairs)


def test_genspec_json_round_trip():
    spec = GenSpec(kind="tight", k=2, W=1, beta_minus=4)
    assert GenSpec.from_json_dict(spec.to_json_dict()) == spec


def test_genspec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        GenSpec(kind="weird")


# ------------------------------------------------------------------ tight

def _oracle_weights(inst) -> tuple[int, int]:
    sub, _ = inst.graph.restrict(inst.edcs.members)
    in_sparsifier = max_weight_b_matching_exact(sub, inst.capacities).weight
    overall = max_weight_b_matching_exact(inst.graph, inst.capacities).weight
    return in_sparsifier, overall


@pytest.mark.parametrize("k,W,expected_ratio", [
    (1, 1, Fraction(2)),
    (2, 1, Fraction(7, 4)),
    (1, 2, Fraction(2)),
])
def test_tight_family_oracle_and_ratio(k, W, expected_ratio):
    inst = tight_instance(k=k, W=W)
    assert validate(inst.graph, inst.capacities, inst.edcs, inst.params).is_clean
    mh, mg = _oracle_weights(inst)
    assert mh == inst.sparsifier_matching_weight == 2 * k * W
    assert mg == inst.optimal_matching_weight == 2 * k * W + inst.l
    assert Fraction(mg, mh) == expected_ratio == inst.ratio
    # closed form: 1 + (beta-1)/beta_minus - 1/(2W)
    p = inst.params
    assert inst.ratio == 1 + Fraction(p.beta - 1, p.beta_minus) - Fraction(1, 2 * W)


def test_tight_from_beta_minus():
    inst = tight_instance(W=1, beta_minus=4)
    assert inst.k == 2 and inst.params.beta == 6


def test_tight_rejects_indivisible_beta_minus():
    with pytest.raises(ValueError):
        tight_instance(W=2, beta_minus=5)
    with pytest.raises(ValueError):
        tight_instance(k=1, W=2, beta_minus=2)  # inconsistent with 2kW = 4


# -------------------------------------------------------------- multicopy

@pytest.mark.parametrize("W,expected_ratio", [
    (2, Fraction(7, 4)),
    (3, Fraction(2)),
    (4, Fraction(9, 4)),
])
def test_multicopy_oracle_and_ratio(W, expected_ratio):
    inst = multicopy_instance(k=1, W=W)
    sub, _ = inst.graph.restrict(inst.union_edcs.members)
    trapped = max_weight_b_matching_exact(sub, inst.capacities).weight
    overall = max_weight_b_matching_exact(inst.graph, inst.capacities).weight
    assert trapped == inst.trapped_matching_weight == 2 * W
    assert overall == inst.optimal_matching_weight == 2 * W + W * (W + 1) // 2
    assert Fraction(overall, trapped) == expected_ratio == inst.ratio


def test_multicopy_beats_two_for_larger_weights():
    assert multicopy_instance(k=1, W=4).ratio > 2
    assert multicopy_instance(k=3, W=2).ratio == Fraction(7, 4)  # k-independent


def test_multicopy_validates_arguments():
    with pytest.raises(ValueError):
        multicopy_instance(k=0, W=2)
    with pytest.raises(ValueError):
        multicopy_instance(k=1, W=1)


@pytest.mark.parametrize("k,W", [(1, 3), (2, 2)])
def test_multicopy_per_class_structure(k, W):
    # within each weight class the kept edges form a classic unweighted-style
    # sparsifier at (2k+1, 2k): kept edges sum (weighted) degrees to at most
    # (2k+1) * w, excluded class edges to at least 2k * w.  The gap here is
    # only 1, which is exactly why the union construction is allowed to trap
    # the matching.
    inst = multicopy_instance(k=k, W=W)
    G = inst.graph
    for weight_class in range(1, W + 1):
        class_ids = [i for i in range(G.m) if G.triple(i)[2] == weight_class]
        kept = [i for i in class_ids if i in inst.union_edcs]
        wdeg = [0] * G.n
        for i in kept:
            u, v, w = G.triple(i)
            wdeg[u] += w
            wdeg[v] += w
        for i in class_ids:
            u, v, w = G.triple(i)
            total = wdeg[u] + wdeg[v]
            if i in inst.union_edcs:
                assert total <= (2 * k + 1) * w
            else:
                assert total >= 2 * k * w
