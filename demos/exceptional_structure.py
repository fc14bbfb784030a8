"""Detecting totally invariant lines and points, and classifying the layout.

A line is totally invariant exactly when its form satisfies l o F = lambda l^d;
the finite exceptional points are totally invariant orbits on such lines plus
pencil-preserving fixed points.  Every realizable configuration is generated
and pushed back through the detector.
"""

import numpy as np

from greenp2 import (
    CONFIGURATION_IDS,
    classify,
    configuration_map,
    exceptional_sets,
    invariant_points,
    lattes_map,
    transition_matrix,
)

print("configuration round trip (degree 2, one seed each):")
for rid in CONFIGURATION_IDS:
    f = configuration_map(rid, 2, rng_seed=7)
    sets = exceptional_sets(f)
    row = classify(sets)
    kinds = ",".join(kind for _, kind in sets.e2_points) or "-"
    mark = "ok" if row.row_id == rid else "MISMATCH"
    print(f"  {rid:14s} -> {row.row_id:14s} lines={row.n_lines} points={row.n_points} [{kinds}] {mark}")

print("\ncritical transition matrix of the power map:")
f = configuration_map("3-3", 2, rng_seed=0)
tm = transition_matrix(f)
print(f"  components {[c.to_string() for c in tm.components]}")
print(f"  exponents  {tm.matrix.tolist()}")
print(f"  spectral radius {tm.rho:.6f} (= degree: a totally invariant union exists)")
print(f"  non-negative eigenvector {np.round(tm.perron, 6).tolist()}")

print("\nthe product-quotient map has no exceptional structure at all:")
lam = lattes_map(2)
sets = exceptional_sets(lam)
tm = transition_matrix(lam)
print(f"  lines: {len(sets.e1_lines)}, points: {len(sets.e2_points)}, "
      f"totally invariant orbits: {len(invariant_points(lam))}")
print(f"  transition spectral radius {tm.rho:.4f} < degree 2")
print(f"  classification: {classify(sets).label}")
