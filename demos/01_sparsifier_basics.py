#!/usr/bin/env python3
"""Build a degree-constrained sparsifier and inspect its guarantees.

The sparsifier H of a capacitated multigraph G satisfies two properties
for parameters (beta, beta_minus):

  * kept edges have capacity-normalized weighted endpoint degrees summing
    to at most beta times their weight (so H is sparse), and
  * excluded edges see degree sums of at least beta_minus times their
    weight (so H still contains a near-optimal b-matching).

Run: python3 demos/01_sparsifier_basics.py
"""

from fractions import Fraction

from wedcs import (
    Capacities,
    EdcsParams,
    GenSpec,
    build_wb_edcs,
    max_weight_b_matching_exact,
    potential,
    random_instance,
    validate,
)

spec = GenSpec(kind="random", seed=7, n=24, m=120, W=3, b_min=1, b_max=3,
               bipartite=True)
G, b = random_instance(spec)
print(f"instance: {G} with capacities in [1, 3]")

params = EdcsParams(W=3, beta=10, beta_minus=8)
H, trace = build_wb_edcs(G, b, params)
print(f"\nlocal search kept {len(H)}/{G.m} edges in {trace.steps} steps "
      f"({trace.insertions} insertions, {trace.removals} removals) over "
      f"{trace.rounds} rounds of violating edges taken in priority order")
print(f"final potential {trace.phi_final}, smallest step gain {trace.min_gain}")

report = validate(G, b, H, params)
print(f"validator: clean={report.is_clean}")
assert report.is_clean

# Degree bound: deg_H(v) <= beta * b_v at every vertex.
worst = max(Fraction(H.deg[v], params.beta * b[v]) for v in range(G.n))
print(f"degree bound headroom: max deg/(beta*b) = {float(worst):.3f}")

# Size bound: |H| <= 2 * beta * |M| where M is an optimal b-matching.
best = max_weight_b_matching_exact(G, b)
print(f"optimal b-matching: weight {best.weight} using {len(best.edge_ids)} edges")
print(f"size bound: {len(H)} <= 2*beta*|M| = {2 * params.beta * len(best.edge_ids)}")

# The point of the construction: H still contains an almost-optimal
# b-matching. Within 2 - 1/(2W) + eps of the optimum by the theory, and
# usually far closer in practice.
sub, _ = G.restrict(H.members)
contained = max_weight_b_matching_exact(sub, b)
print(f"\nbest b-matching inside H: {contained.weight} "
      f"(vs {best.weight} in G, ratio {best.weight / contained.weight:.4f})")

# Everything is exact arithmetic underneath; the potential is a Fraction.
assert potential(H, b, params) == trace.phi_final
print("potential recount matches the incremental trace, exactly")
