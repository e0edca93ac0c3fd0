"""Narrow column types must not wrap.

The graph's edge columns use the smallest integer type that holds their
values: with n <= 127 and W = 127 both the endpoints and the weights are
int8.  Under NumPy 2 (NEP 50) a Python int combined with a numpy scalar
keeps the scalar's type, so ``beta * np.int8(w)`` stays int8 and wraps
silently.  This instance has 24 vertices, weights up to 127 and vertex
degrees between 1,400 and 1,850, so weighted degrees and every
cross-multiplied degree test leave int8 and int16 range many times over.

The digests were computed with the object-per-edge graph, before the
columns replaced it, and must replay unchanged, except the build digest,
which follows the builder's round rule (``edcs.BUILDER_ID``) and was
replaced with it; print the current ones with
``PYTHONPATH=src python tests/test_narrow_dtypes.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from wedcs import (
    EdcsParams,
    GenSpec,
    Subgraph,
    build_wb_edcs,
    make_stream,
    max_weight_b_matching_exact,
    random_instance,
    run_single_pass,
    validate,
)

SPEC = GenSpec(seed=127, n=24, m=20_000, W=127, b_min=150, b_max=250, bipartite=True)
PARAMS = EdcsParams(W=127, beta=4, beta_minus=2)

GOLDEN = {
    "validate": "72b89a2d2f4fd2ab5def387c2e7db3efc2ab211b290a0a011db38465bf41cdf5",
    "build": "942b4371fe5f1abde7b18bf6ff1765fcccbb7f7f3167cf0878a961bd47dffbec",
    "stream": "50d2e1b879a8b14e583b75ad855b003168222978150b26819b64f7a80bab313f",
    "exact": "88d380dc3247d7714f4ee67dd6cdf7381962313b5cf450acf0d15ad9945eef61",
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def instance():
    return random_instance(SPEC)


def _validate_digest(G, b) -> str:
    # every seventh edge: members over the upper bound and non-members
    # under the lower bound both occur
    report = validate(G, b, Subgraph(G, range(0, G.m, 7)), PARAMS)
    assert report.upper_violations and report.lower_violations
    return _digest(report.to_json_dict())


def _build_digest(G, b) -> str:
    H, trace = build_wb_edcs(G, b, PARAMS)
    return _digest({"trace": trace.to_json_dict(), "H": H.edge_ids(), "wdeg": H.wdeg})


def _stream_digest(G, b) -> str:
    result = run_single_pass(make_stream(G, 3), b, PARAMS, "0.49", variant=3)
    return _digest({"stats": result.stats.to_json_dict(),
                    "matching": [list(result.matching.edge_ids), result.matching.weight],
                    "H": result.H.edge_ids(), "X": sorted(result.X.tolist())})


def _exact_digest(G, b) -> str:
    M = max_weight_b_matching_exact(G, b)
    return _digest([list(M.edge_ids), M.weight])


DIGESTS = {"validate": _validate_digest, "build": _build_digest,
           "stream": _stream_digest, "exact": _exact_digest}


def test_instance_is_narrow_with_large_degrees(instance):
    G, b = instance
    assert G.u.dtype == G.v.dtype == G.w.dtype == np.int8
    assert G.W == 127 and int(G.w.max()) == 127
    full = Subgraph(G, range(G.m))
    assert min(full.deg) > 1000
    assert min(full.wdeg) > 2**15


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_narrow_instance_replays(instance, name):
    assert DIGESTS[name](*instance) == GOLDEN[name]


if __name__ == "__main__":
    G, b = random_instance(SPEC)
    for name, fn in DIGESTS.items():
        print(f"    {name!r}: {fn(G, b)!r},")
