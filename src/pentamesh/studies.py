"""Study runners: hypervolume convergence, predicate comparison, quality
improvement.

Every study is a pure function of its configuration (all randomness flows
through seeded generators) and returns rows of plain dicts, ready for CSV
serialization.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .flips import improve_quality
from .geometry import MetricField, resolve_field
from .insertion import triangulate
from .pointsets import generate_hypercylinder_points
from .predicates import (
    _det_exact,
    _insphere_exact,
    decompose_metric,
    inhypersphere_m_d,
    scale_points_standard,
)

__all__ = [
    "ConvergenceResult",
    "convergence_study",
    "hypercylinder_exact_hypervolume",
    "predicate_comparison_study",
    "quality_study",
    "write_csv",
]


def write_csv(rows, file) -> None:
    """Write a list of dict rows as CSV (column order from the first row)."""
    rows = list(rows)
    if not rows:
        return
    writer = csv.DictWriter(file, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# hypervolume convergence
# ---------------------------------------------------------------------------

def hypercylinder_exact_hypervolume(R: float, L: float) -> float:
    """4/3 pi R^3 L, the measure of the ball-times-interval domain."""
    return 4.0 / 3.0 * math.pi * R ** 3 * L


@dataclass
class ConvergenceResult:
    rows: list
    slope: float


def convergence_study(*, levels: int = 4, refine: float = 1.5,
                      metric: str = "identity", seed: int = 0,
                      margin: float = 1.0,
                      h_exponent: float = -1.0 / 3.0) -> ConvergenceResult:
    """Mesh a refinement family of hypercylinder clouds and fit the error slope.

    The domain is the hypercylinder of radius R = 1 and length L = 4.  Level
    k samples its boundary at spacing ``refine``^(1-k) in space and time; the
    meshed hypervolume (super elements stripped) is compared against the
    exact 4/3 pi R^3 L.  ``metric`` is "identity", "speed" (the field
    ``MetricField.speed(c0=1, beta=0.1)`` centred at t = L/2) or a
    non-string :func:`~pentamesh.geometry.resolve_field` accepts; another
    string raises ``ValueError`` before anything is meshed.  The characteristic
    spacing is the pentatope count raised to ``h_exponent`` (default -1/3;
    -1/4 is the volume-scaling alternative), and the slope is the
    least-squares fit of log error against log spacing.
    """
    if levels < 3:
        raise ValueError("need at least 3 refinement levels for a slope")
    R, L = 1.0, 4.0
    if not isinstance(metric, str):
        field = resolve_field(metric)
    elif metric == "identity":
        field = MetricField.identity()
    elif metric == "speed":
        field = MetricField.speed(c0=1.0, beta=0.1, center=L / 2.0)
    else:
        raise ValueError(f"unknown metric {metric!r}; use 'identity', 'speed' or a field")
    hv_exact = hypercylinder_exact_hypervolume(R, L)
    rows = []
    for level in range(levels):
        h = 1.0 / refine ** level
        pts = generate_hypercylinder_points(R, L, h, h, seed=seed + level)
        mesh = triangulate(pts, field, margin=margin,
                           skip_duplicates=True, shuffle=True, seed=seed)
        hv = mesh.total_hypervolume()
        err = abs(hv_exact - hv)
        rows.append({
            "level": level + 1,
            "n_points": len(pts),
            "n_vertices": mesh.n_vertices,
            "n_pentatopes": mesh.n_alive,
            "hv_approx": hv,
            "hv_error": err,
            "h": mesh.n_alive ** h_exponent,
        })
    xs = [math.log(r["h"]) for r in rows]
    ys = [math.log(max(r["hv_error"], 1e-300)) for r in rows]
    slope = float(np.polyfit(xs, ys, 1)[0])
    for r in rows:
        r["slope"] = slope
    return ConvergenceResult(rows=rows, slope=slope)


# ---------------------------------------------------------------------------
# predicate comparison
# ---------------------------------------------------------------------------

def predicate_comparison_study(dims=(2, 3, 4, 5, 10), trials: int = 100,
                               seed: int = 0, exact: bool = False) -> list:
    """Standard (decompose-and-scale) vs decomposition-free in-hypersphere.

    Per trial: a random SPD metric M = S^T S with S entries on [0, 10] and
    d+2 points on [0, 1]^d.  Float mode reports, per dimension and
    decomposition kind, the mean normalized difference between the two
    formulations and the mean Frobenius reconstruction error.  Exact mode
    replaces the irrational Cholesky/sqrt factor with the exact rational
    factor G = S (sign-fixed), under which the normalized difference is
    identically zero.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for d in dims:
        sums = {("cholesky", "diff"): 0.0, ("cholesky", "err"): 0.0,
                ("sqrt", "diff"): 0.0, ("sqrt", "err"): 0.0}
        exact_nonzero = 0
        for _ in range(trials):
            S = rng.uniform(0.0, 10.0, size=(d, d))
            M = S.T @ S
            pts = [tuple(rng.uniform(0.0, 1.0, size=d)) for _ in range(d + 2)]
            if exact:
                # rational factor with positive determinant; the metric is
                # the exact rational product G^T G (float M would break the
                # identity before the predicates even run)
                G = [row[:] for row in S.tolist()]
                if np.linalg.det(S) < 0:
                    G[0] = [-x for x in G[0]]
                Gf = [[Fraction(x) for x in row] for row in G]
                M_exact = [[sum(Gf[k][i] * Gf[k][j] for k in range(d))
                            for j in range(d)] for i in range(d)]
                scaled = []
                for p in pts:
                    scaled.append(tuple(
                        sum(Gf[i][j] * Fraction(p[j]) for j in range(d))
                        for i in range(d)))
                std = _insphere_exact(scaled, None)
                alt = _det_exact(Gf) * _insphere_exact(pts, M_exact)
                if std != alt:
                    exact_nonzero += 1
                continue
            alt = inhypersphere_m_d(M, pts, mode="float").value
            for kind in ("cholesky", "sqrt"):
                dec = decompose_metric(M, kind)
                scaled = scale_points_standard(dec, pts)
                std = inhypersphere_m_d(None, scaled, mode="float").value
                denom = abs(std) if std != 0.0 else 1e-300
                sums[(kind, "diff")] += abs(std - alt) / denom
                sums[(kind, "err")] += dec.error
        if exact:
            rows.append({"d": d, "kind": "exact-rational-factor",
                         "trials": trials, "nonzero_differences": exact_nonzero,
                         "mean_normalized_difference": 0.0 if exact_nonzero == 0 else float("nan"),
                         "mean_decomposition_error": 0.0})
        else:
            for kind in ("cholesky", "sqrt"):
                rows.append({
                    "d": d, "kind": kind, "trials": trials,
                    "mean_normalized_difference": sums[(kind, "diff")] / trials,
                    "mean_decomposition_error": sums[(kind, "err")] / trials,
                })
    return rows


# ---------------------------------------------------------------------------
# quality improvement
# ---------------------------------------------------------------------------

def quality_study(sizes=(50, 100, 150, 200, 250, 300), heuristic: int = 1,
                  seed: int = 0):
    """Random tesseract clouds: triangulate, strip, improve, tabulate.

    Returns (summary_rows, histogram_rows): the summary carries initial and
    final average-minimum-quality columns for the worst 1/5/10/20 percent
    plus the exact hypervolume-conservation flag; the histogram lists the
    executed flips by kind, per cloud size.
    """
    summary, histogram = [], []
    for i, n in enumerate(sizes):
        if n < 6:
            raise ValueError("need at least 6 points")
        rng = np.random.default_rng(seed + i)
        pts = rng.random((n, 4))
        mesh = triangulate(pts)
        rep = improve_quality(mesh, heuristic=heuristic)
        summary.append({"n_points": n, **rep.as_row()})
        for kind, count in sorted(rep.flips_by_kind.items()):
            histogram.append({"n_points": n, "flip": kind, "executions": count})
    return summary, histogram
