"""Golden replay digests: fixed (graph, seed, parameters) triples replay
byte-identically across refactors.

Each stream case pins sha256 digests of the stream order, the run's
``StreamRunStats.to_json_dict()``, the matching (edge ids and weight) and
the kept sets H and X.  The cases cover ``run_single_pass`` in variants 1
and 3 and every end of ``run_with_fallbacks``: ``none`` (the relevant
store dies and phase 1 stops on a quiet epoch), ``alpha_zero`` (the store
dies and the interval size floors to zero) and ``small_output`` (the store
survives).  ``fallbacks-v3-chunks`` is a raw-multiplicity stream of more
than 2 * 2**15 edges whose relevant store dies after the first 2**15
positions, so that a pass over chunks of positions crosses chunk
boundaries in both phases of the store.  Builder cases pin ``BuildTrace.to_json_dict()`` and H.
Generator cases pin ``random_instance``'s edge triples and capacities for
bipartite, general and raw-multiplicity specs, and gadget cases the edge
triples and sparsifier ids of ``tight_instance`` and ``multicopy_instance``.

The bipartite cases' ``matching`` digests were replaced once, when the
bipartite solver changed from min-cost flow to the primal-dual method:
among optimal matchings that tie on weight the two pick different edges.
Their ``stats`` digests, which hold ``result_weight``, did not change.
The build cases' digests were replaced three times.  First, when the
builder changed from one queued edge at a time to rounds of
vertex-disjoint steps (``edcs.BUILDER_ID``): the rounds keep another H,
and the trace gained its ``rounds`` and ``builder`` fields.  Then, when
each round came to take the greedy matching of its violating edges in
priority order, not only the mutual least-priority proposals: H, the
round count and the builder name changed again.  Last, when a round came
to take, in priority order, every violating edge that still violates with
the earlier violating edges at its ends stepped on, so that a vertex can
gain or lose several edges a round: the traces, two of the three H and
the builder name changed.

A digest changes only when behaviour does.  A change that means to alter
a seeded output must say why and replace the digest; print the current
ones with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from wedcs import (
    Capacities,
    EdcsParams,
    GenSpec,
    MultiGraph,
    build_wb_edcs,
    file_order_stream,
    make_stream,
    multicopy_instance,
    random_instance,
    run_single_pass,
    run_with_fallbacks,
    tight_instance,
)

from helpers import make_random, triples


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hubs():
    # four unit-capacity hubs: phase 1 runs at a positive interval size
    G = MultiGraph(4 + 1250, [(i % 4, 4 + i // 4, 1) for i in range(5000)], W=1)
    return G, Capacities.uniform(G.n)


def _ascending_pairs():
    # disjoint pairs fed weights 1..3 in rounds, then weight-3 duplicates
    pairs, W, m = 50, 3, 20000
    triples = [(2 * i, 2 * i + 1, w) for w in range(1, W + 1) for i in range(pairs)]
    triples += [(2 * (j % pairs), 2 * (j % pairs) + 1, W) for j in range(m - len(triples))]
    G = MultiGraph(2 * pairs, triples, W=W)
    return G, Capacities.uniform(G.n)


P41 = EdcsParams(W=1, beta=6, beta_minus=4)

# name -> (runner, instance, params, epsilon, stream seed, variant,
#          the fallback_used the case must reach)
STREAM_CASES = {
    "single-v1-phase1": (run_single_pass, _hubs, P41, "0.4", 1234, 1, "none"),
    "single-v1-random": (run_single_pass,
                         lambda: make_random(3, n=16, m=60, W=2, b_max=2),
                         EdcsParams(W=2, beta=6, beta_minus=4), "0.3", 42, 1, "alpha_zero"),
    "single-v3-raw": (run_single_pass,
                      lambda: make_random(1, n=8, m=400, W=2, b_max=2, bipartite=True,
                                          allow_parallel=True),
                      EdcsParams(W=2, beta=6, beta_minus=4), "0.4", 101, 3, "alpha_zero"),
    "single-v3-replacements": (run_single_pass, _ascending_pairs,
                               EdcsParams(W=3, beta=4, beta_minus=2), "0.49", None, 3, "none"),
    "fallbacks-none": (run_with_fallbacks,
                       lambda: make_random(40, n=200, m=40000, W=1, b_max=4, b_min=4,
                                           bipartite=True),
                       P41, "0.4", 2, 1, "none"),
    "fallbacks-alpha-zero": (run_with_fallbacks,
                             lambda: make_random(7, n=10, m=1500, W=1, b_max=100, b_min=100,
                                                 bipartite=True, allow_parallel=True),
                             P41, "0.49", 5, 1, "alpha_zero"),
    "fallbacks-small-output": (run_with_fallbacks,
                               lambda: make_random(11, n=40, m=150, W=3, b_max=4,
                                                   bipartite=True),
                               EdcsParams(W=3, beta=12, beta_minus=10), "1/10", 3, 1,
                               "small_output"),
    "fallbacks-small-output-v3": (run_with_fallbacks,
                                  lambda: make_random(1, n=8, m=400, W=2, b_max=2,
                                                      bipartite=True, allow_parallel=True),
                                  EdcsParams(W=2, beta=6, beta_minus=4), "0.4", 101, 3,
                                  "small_output"),
    # a raw-multiplicity stream three chunks long whose relevant store dies
    # at position 71,359, inside the third chunk of 2**15 positions
    "fallbacks-v3-chunks": (run_with_fallbacks,
                            lambda: make_random(32, n=90, m=100_001, W=2, b_max=100,
                                                bipartite=True, allow_parallel=True),
                            EdcsParams(W=2, beta=3, beta_minus=1), "0.49", 9, 3, "none"),
}

# name -> (instance, params)
BUILD_CASES = {
    "build-n14-beta6": (lambda: make_random(0, n=14, m=40, W=3, b_max=3),
                        EdcsParams(W=3, beta=6, beta_minus=4)),
    "build-n14-beta10": (lambda: make_random(1, n=14, m=40, W=3, b_max=3),
                         EdcsParams(W=3, beta=10, beta_minus=8)),
    "build-n60-beta12": (lambda: make_random(2, n=60, m=400, W=3, b_max=4, bipartite=True),
                         EdcsParams(W=3, beta=12, beta_minus=10)),
}

# name -> spec
GENERATOR_CASES = {
    "random-bipartite": GenSpec(seed=3, n=301, m=6000, W=3, b_max=4, bipartite=True),
    "random-general": GenSpec(seed=4, n=120, m=3000, W=5, b_min=2, b_max=3),
    "random-parallel": GenSpec(seed=5, n=40, m=4000, W=3, b_max=2, bipartite=True,
                               allow_parallel=True),
    "random-parallel-general": GenSpec(seed=6, n=9, m=700, W=2, b_max=5,
                                       allow_parallel=True),
}

# name -> (instance, its sparsifier)
GADGET_CASES = {
    "tight-k1-W1": lambda: (inst := tight_instance(k=1, W=1), inst.edcs),
    "tight-k2-W3": lambda: (inst := tight_instance(k=2, W=3), inst.edcs),
    "tight-k3-W2": lambda: (inst := tight_instance(W=2, beta_minus=12), inst.edcs),
    "multicopy-k1-W2": lambda: (inst := multicopy_instance(k=1, W=2), inst.union_edcs),
    "multicopy-k2-W4": lambda: (inst := multicopy_instance(k=2, W=4), inst.union_edcs),
    "multicopy-k3-W3": lambda: (inst := multicopy_instance(k=3, W=3), inst.union_edcs),
}

STREAM_GOLDEN: dict[str, dict[str, str]] = {
    "single-v1-phase1": {
        "order": "1a2700c3d891c6e2523cc20be6307e41f44e82bbc0e2d32f80cd10effb5bee63",
        "stats": "20c232ed7c3d428fc36d7cb1e23f47530aa28ec4573e7feb1b0d7a8eaddc5342",
        "matching": "992dd4c489ae02ab620dbe376549c0faa573bd31b6faf45853ca6e42eaaf9d4f",
        "sets": "f75fa0831c47b1d427f1457cab627282b0cfc6f3679f473445b88b855a95845f",
    },
    "single-v1-random": {
        "order": "d590313c54f06e9833bdba6216f048f9e3d09991a8e7eca5c1db1da3369ec674",
        "stats": "ba6e1f24cad9c28d3efbbff2c6cb22e1461cb7f347e2e3720136be1c45e9b4fe",
        "matching": "68f47fd0de5699720ae26e6826ebd2d4bc34a5d208534b4170d963d97d5dc533",
        "sets": "e918fd5ccbbce2415e72375d38f62c4248b0ac47fad30197033613980291641c",
    },
    "single-v3-raw": {
        "order": "88292aaaf8bddcab8f19ac97132b0202b4e77a6b0b4c521a0cb71da2487906c1",
        "stats": "eaa884f643ef8df26aa6c93daed52b82f72716056de755e27236b074aa4b8b3b",
        "matching": "58605fc35ec45cddccaeab133990973bc6768781e36d8306b1dd2d07a581d24c",
        "sets": "151192a18c7ed6f4d5e1122e189f25e78bca3c6153daeef2fc8c9e4f1ce053eb",
    },
    "single-v3-replacements": {
        "order": "71ef2792c2e44c5fcdeb513882ec516e88d622ab43af2ed00bc04af625fd2484",
        "stats": "8a0f8457155e7b0aa8b48c0b10957a89c68a4a3163146c2cd1393bc00edb2916",
        "matching": "edadba752b1ca59dd37674b8731dd744d959540fb62696482091571911b8ab05",
        "sets": "b4809ea400c8c0874aaaff4ca0f4017e941ebdf4ac65e06a11e9e3dc3388c143",
    },
    "fallbacks-none": {
        "order": "f7f62add6996d6fa308c41473f1c9abf8fbc5aef28ab09449ecf63f880b0151a",
        "stats": "1c21d0a8df86eec5f73634010765039e4ba6252f565b76f73877385bbe7e30aa",
        "matching": "135fef5535f38620efcef278936b41ce4647d781c4c96e6b53887bb40508f0cc",
        "sets": "d954b5f6a0ac5efbf1b05fb0b991031539ae701a67f7e5f7616e9451503fd137",
    },
    "fallbacks-alpha-zero": {
        "order": "bc9fad76fddd9de644fec5964251f2fda7e88574037ce94970b0f48dd1034c57",
        "stats": "20962d7006eba3e154baa85fd7d6f415676eb63686234f201ac2824934c3b9c9",
        "matching": "94c99928e4eccb57f517c63595b67398ffa2b4c0dd836ac7aa14800795fd8c12",
        "sets": "a27f0644925299ce9b5e6c6b349df338988d08ffb8edf959bdbb6e8bd9441947",
    },
    "fallbacks-small-output": {
        "order": "c1254a342d0580e52c140ab0469c950e637dcefad27368b2f7252462774265c5",
        "stats": "30dc7b5e752ff6ba424cb8c6f37a99316c0720d7bc02406f621693fcee70d74f",
        "matching": "a7d321087b328604da6141636eaf28577bb0beed47a3dcfb80f5eca8e2c282ef",
        "sets": "728359f6cf478f4712b02c4d29520c06cbf21a627dc77970fb36a0fc2c534926",
    },
    "fallbacks-small-output-v3": {
        "order": "88292aaaf8bddcab8f19ac97132b0202b4e77a6b0b4c521a0cb71da2487906c1",
        "stats": "da6e456b9f925adf57d44c10e1d312a9fabdba23da9977e88e21ade772c4c3c3",
        "matching": "58605fc35ec45cddccaeab133990973bc6768781e36d8306b1dd2d07a581d24c",
        "sets": "151192a18c7ed6f4d5e1122e189f25e78bca3c6153daeef2fc8c9e4f1ce053eb",
    },
    "fallbacks-v3-chunks": {
        "order": "12bd149d0b3400d8d7ee194625152966d518978b21e40ba1ef53267a129e28c1",
        "stats": "1ec289eb99008f4f9abc002ffd748ab313d7449f375e997f3215b6a9c9844b6d",
        "matching": "bf3b9f36a97fb778837e003a51f0dd7e1eebb96ea95ab3d6760ea1becb74186a",
        "sets": "01b5599235d1d97f4d39fac47f5cbb01ac270399332824c6c391896a5aec4806",
    },
}

BUILD_GOLDEN: dict[str, dict[str, str]] = {
    "build-n14-beta6": {
        "trace": "ccb331d7c2dd90482cbb0aa2c6a3e192809e97afd38ad5bc7a30446d5b6e1179",
        "H": "ef8b0bccb7d78c26aaa1856f6bac3c488575c586c0e9b66e72e71abfbcbbe3cf",
    },
    "build-n14-beta10": {
        "trace": "5e827c0cf69149aa551b5d6341646cfc8165d0b0ce75fe849caaba411d9f1765",
        "H": "4770cd29fe5c14abb2f33a1733b5aceac43e5615f30fa1576b1e804ffd50f25d",
    },
    "build-n60-beta12": {
        "trace": "be9f493534cf5cd91794ce9d49fe753a2378479e473c0477bc2ca80a6009af73",
        "H": "f528ac1d25c433e98d825bd6a95721372dba569570161ff7adb64d3d5a0d49ee",
    },
}


GENERATOR_GOLDEN: dict[str, str] = {
    "random-bipartite": "71764abe912f18f68645293bbcec8eff4077be514a0fecedf5938d5484268522",
    "random-general": "04837a15fb586934717956af705514c0812f99e0f694d3bf85bc0e991093fb4c",
    "random-parallel": "8f3a723fd82554b4b98618f88e59c79a7241459e0d799a2a73e9c1bc1aab90e5",
    "random-parallel-general": "0eca26e5d4eb57379680e631fd7b0d2b47dd451c6317eff29993cfab2d682437",
}


GADGET_GOLDEN: dict[str, str] = {
    "tight-k1-W1": "68884963344d016d3c3ad84e62033b5c1529eb7a18c6ec890f52715700036c15",
    "tight-k2-W3": "cfb995aa6e82a49a68cd6ca8fe1727c80c573a4cbc513f0a41ca902d576aaac1",
    "tight-k3-W2": "ff781a9327dd21f3b95b7e77bbfab7e707deccd76a68304b64066b780e1c0fa1",
    "multicopy-k1-W2": "e8a96684a07c4d58b1a4986be654a42bf71fdaeaa5e9fde3a2e74daf3655b652",
    "multicopy-k2-W4": "0fa13c378e85989526540a6eb3dfc8aa39fc82a4f02799c8d74a99482c46769c",
    "multicopy-k3-W3": "da5dfb5d50f1b268763e37f4eff8d84f097bbd5407f31f0d99fb1b6199da20bb",
}


def _stream_run(name: str):
    runner, instance, params, epsilon, seed, variant, _ = STREAM_CASES[name]
    G, b = instance()
    stream = file_order_stream(G) if seed is None else make_stream(G, seed)
    return stream, runner(stream, b, params, epsilon, variant=variant)


def _stream_digests(stream, result) -> dict[str, str]:
    return {
        "order": _digest(stream.order.tolist()),
        "stats": _digest(result.stats.to_json_dict()),
        "matching": _digest({"edge_ids": list(result.matching.edge_ids),
                             "weight": result.matching.weight}),
        "sets": _digest({"H": sorted(result.H.members), "X": sorted(result.X.tolist())}),
    }


def _build_digests(name: str) -> dict[str, str]:
    instance, params = BUILD_CASES[name]
    G, b = instance()
    H, trace = build_wb_edcs(G, b, params)
    return {"trace": _digest(trace.to_json_dict()), "H": _digest(sorted(H.members))}


def _generator_digest(name: str) -> str:
    G, b = random_instance(GENERATOR_CASES[name])
    return _digest({"n": G.n, "triples": [list(t) for t in triples(G)], "b": list(b.b)})


def _gadget_digest(name: str) -> str:
    inst, sparsifier = GADGET_CASES[name]()
    G = inst.graph
    return _digest({"n": G.n, "triples": [list(t) for t in triples(G)],
                    "kept": sorted(sparsifier.members)})


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_stream_replays_golden(name):
    stream, result = _stream_run(name)
    # a digest guards a path only if the case actually takes it
    assert result.stats.fallback_used == STREAM_CASES[name][-1]
    assert _stream_digests(stream, result) == STREAM_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BUILD_CASES))
def test_build_replays_golden(name):
    assert _build_digests(name) == BUILD_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generator_replays_golden(name):
    assert _generator_digest(name) == GENERATOR_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GADGET_CASES))
def test_gadget_replays_golden(name):
    assert _gadget_digest(name) == GADGET_GOLDEN[name]


if __name__ == "__main__":
    import pprint

    print("STREAM_GOLDEN = ", end="")
    pprint.pprint({name: _stream_digests(*_stream_run(name)) for name in STREAM_CASES},
                  sort_dicts=False)
    print("BUILD_GOLDEN = ", end="")
    pprint.pprint({name: _build_digests(name) for name in BUILD_CASES}, sort_dicts=False)
    print("GENERATOR_GOLDEN = ", end="")
    pprint.pprint({name: _generator_digest(name) for name in GENERATOR_CASES},
                  sort_dicts=False)
    print("GADGET_GOLDEN = ", end="")
    pprint.pprint({name: _gadget_digest(name) for name in GADGET_CASES}, sort_dicts=False)
