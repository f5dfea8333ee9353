"""Hypercylinder hypervolume convergence, isotropic and anisotropic.

Samples the boundary of a radius-1, length-4 hypercylinder at a sequence
of refinement levels, meshes each cloud, and fits the order of the
hypervolume error (exact value 4/3 pi R^3 L = 16 pi / 3).  Expect a slope
near 2: straight-sided elements against a curved boundary.

This is a trimmed three-level run so the demo finishes in about half a
minute; the full four-level version lives in the acceptance suite.
"""

import math

from pentamesh import convergence_study, hypercylinder_exact_hypervolume

print(f"exact hypervolume: {hypercylinder_exact_hypervolume(1.0, 4.0):.5f} "
      f"(= 16 pi / 3 = {16 * math.pi / 3:.5f})")

for metric in ("identity", "speed"):
    res = convergence_study(levels=3, refine=1.5, metric=metric, seed=0)
    print(f"\n--- {metric} metric ---")
    print(f"{'level':>5} {'points':>7} {'pentatopes':>11} {'HV':>9} {'error':>8} {'h':>7}")
    for r in res.rows:
        print(f"{r['level']:>5} {r['n_points']:>7} {r['n_pentatopes']:>11} "
              f"{r['hv_approx']:>9.4f} {r['hv_error']:>8.4f} {r['h']:>7.4f}")
    print(f"least-squares slope of log(error) vs log(h): {res.slope:.3f}")
