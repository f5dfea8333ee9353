"""Algebraic pentatope quality heuristics.

Three dimensionless measures in [0, 1], each equal to 1 exactly for the
regular pentatope and 0 for degenerate elements:

* ``eta1`` - geometric mean over arithmetic mean of the inscribed
  4-ellipsoid eigenvalues: ``5^(3/4) sqrt(384 v) / sum(l_i^2)``.
* ``eta2`` - arithmetic mean over root-mean-square:
  ``6 sum(l_i^2) / sqrt(Theta)``.
* ``eta3`` - geometric mean over RMS: ``6 * 5^(3/4) sqrt(384 v / Theta)``,
  which equals ``eta1 * eta2``.

``Theta`` is a fixed 10-term sum-of-squares polynomial in the squared edge
lengths.  Edge ordering is load-bearing: ``l_1..l_10`` correspond to the
vertex pairs (1,2),(1,3),(1,4),(1,5),(2,3),(2,4),(2,5),(3,4),(3,5),(4,5).
Metric-space variants replace Euclidean lengths and volume by their
metric-weighted counterparts (point-wise at the centroid, or integrated).

Every heuristic first sorts the five points lexicographically, so its value
is a function of the point set: any order of the same points gives the
same float, bit for bit.  One kernel (:func:`_eta_volume`) measures the
Euclidean and the point-wise metric heuristics; it also returns the unsigned
Euclidean hypervolume, which flip validation reads for its volume pre-filter.
"""

from __future__ import annotations

import math
from itertools import chain

from .geometry import (
    MetricField,
    _det4,
    metric_length_quadrature,
    metric_volume_quadrature,
    resolve_field,
)

__all__ = [
    "EDGE_ORDER",
    "edge_lengths_squared",
    "eta1",
    "eta2",
    "eta3",
    "pentatope_quality",
    "quality_metric",
    "theta",
]

#: The (i, j) vertex pairs defining l_1..l_10, 0-based, lexicographic.
EDGE_ORDER = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
              (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

_ETA1_COEF = 5.0 ** 0.75
_ETA3_COEF = 6.0 * 5.0 ** 0.75
_QUADRATURE_ORDER = 4  # Gauss-Legendre order of quality_metric's edge lengths


def edge_lengths_squared(pts) -> list[float]:
    """Squared Euclidean edge lengths in the canonical order."""
    out = []
    for i, j in EDGE_ORDER:
        a, b = pts[i], pts[j]
        d0, d1, d2, d3 = a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]
        out.append(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3)
    return out


def theta(lsq) -> float:
    """The 10-term quadratic form whose root is 30 a^2 ||A||_F.

    Always non-negative; 3600 a^4 when all squared edge lengths equal a^2.
    """
    l1, l2, l3, l4, l5, l6, l7, l8, l9, l10 = lsq
    return (600.0 * (l1 - l2) ** 2
            + 900.0 * l5 ** 2
            + 100.0 * (-2.0 * (l1 + l2) + l5) ** 2
            + 75.0 * (l1 - l2 - 3.0 * l6 + 3.0 * l8) ** 2
            + 25.0 * (l1 + l2 - 3.0 * l3 + l5 - 3.0 * (l6 + l8)) ** 2
            + 25.0 * (l1 + l2 - 6.0 * l3 - 2.0 * l5 + 3.0 * (l6 + l8)) ** 2
            + 45.0 * (l1 - l2 + l6 - 4.0 * l7 - l8 + 4.0 * l9) ** 2
            + 15.0 * (l1 + l2 + 2.0 * l3 - 8.0 * l4 - 2.0 * l5
                      - l6 + 4.0 * l7 - l8 + 4.0 * l9) ** 2
            + 30.0 * (-l1 - l2 + l3 + 2.0 * l4 - l5 + l6 + 2.0 * l7
                      + l8 + 2.0 * l9 - 6.0 * l10) ** 2
            + 9.0 * (l1 + l2 + l3 - 4.0 * l4 + l5 + l6 - 4.0 * l7
                     + l8 - 4.0 * (l9 + l10)) ** 2)


def _eta_from(v: float, lsq, which: int) -> float:
    """Shared heuristic evaluation from a volume and squared edge lengths."""
    if which not in (1, 2, 3):
        raise ValueError(f"heuristic must be 1, 2 or 3, got {which}")
    ssum = sum(lsq)
    if ssum <= 0.0:
        return 0.0
    if which == 1:
        return _ETA1_COEF * math.sqrt(384.0 * v) / ssum
    th = theta(lsq)
    if th <= 0.0:
        return 0.0
    if which == 2:
        return 6.0 * ssum / math.sqrt(th)
    return _ETA3_COEF * math.sqrt(384.0 * v / th)


def _frame(points) -> int:
    """The least e with every coordinate below ``2**e`` in magnitude, 0 for unit points.

    Scaling by ``2**-e`` is exact in the normal range and brings the largest
    magnitude into [1/2, 1), so η's powers of the lengths stay normal doubles.
    """
    return math.frexp(max(map(abs, chain.from_iterable(points)), default=0.0))[1]


def _eta_volume(pts, which: int = 1, field=None, frame: int = 0) -> tuple[float, float]:
    """``(η, |hypervolume|)`` of five points, taken in lexicographic point order.

    The ten edge rows, in :data:`EDGE_ORDER`, are built once from the points
    scaled by ``2**-frame``; the first four give the Euclidean volume v.
    Under the identity (``field`` None or of kind ``"identity"``) η reads
    their squared lengths, else ``quad(row)`` and ``v * sqrt(det M)`` under
    the metric ``M`` of ``field`` at the centroid.  The scaling changes v
    but not η, as long as every value stays a normal double.
    """
    pts = sorted(map(tuple, pts))
    p, *rest = [tuple(math.ldexp(c, -frame) for c in q) for q in pts] if frame else pts
    x, y, z, t = p
    rows = [(q[0] - x, q[1] - y, q[2] - z, q[3] - t) for q in rest]
    for i, j in EDGE_ORDER[4:]:
        a, b = rest[i - 1], rest[j - 1]
        rows.append((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))
    v = abs(_det4(*rows[:4])) / 24.0
    if field is None or field.kind == "identity":
        lsq = [r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 for r0, r1, r2, r3 in rows]
        return _eta_from(v, lsq, which), v
    metric = field(tuple(sum(c) / 5.0 for c in zip(*pts)))
    return _eta_from(v * metric.sqrt_det, [metric.quad(r) for r in rows], which), v


def eta1(p1, p2, p3, p4, p5) -> float:
    """Geometric/arithmetic mean-ratio quality (0 degenerate .. 1 regular)."""
    return pentatope_quality((p1, p2, p3, p4, p5), 1)


def eta2(p1, p2, p3, p4, p5) -> float:
    """Arithmetic/RMS mean-ratio quality."""
    return pentatope_quality((p1, p2, p3, p4, p5), 2)


def eta3(p1, p2, p3, p4, p5) -> float:
    """Geometric/RMS mean-ratio quality; equals eta1 * eta2."""
    return pentatope_quality((p1, p2, p3, p4, p5), 3)


def pentatope_quality(pts, which: int = 1) -> float:
    """Euclidean quality of five points with the chosen heuristic, in their own :func:`_frame`."""
    return _eta_volume(pts, which, frame=_frame(pts))[0]


def quality_metric(pts, field, mode: str = "pointwise", which: int = 1) -> float:
    """Metric-space quality: lengths and volume measured under the field.

    ``pointwise`` evaluates the field once at the element centroid;
    ``quadrature`` integrates edge lengths (Gauss-Legendre of order
    ``_QUADRATURE_ORDER``) and the volume density (simplex rule of half
    that order).  Both coincide for constant fields.  The points are
    sorted lexicographically first, as for the Euclidean heuristics, and
    both modes measure in their own :func:`_frame` too.
    """
    fld = resolve_field(field)
    if mode == "pointwise":
        return _eta_volume(pts, which, fld, _frame(pts))[0]
    if mode != "quadrature":
        raise ValueError(f"mode must be 'pointwise' or 'quadrature', got {mode!r}")
    # the rules run on the points scaled by 2**-e, which scales every length
    # by 2**-e and the volume by 2**-4e but not η; the field reads true points
    e = _frame(pts)
    pts = sorted(tuple(math.ldexp(c, -e) for c in p) for p in pts)
    framed = fld if fld.is_constant else MetricField(
        lambda p: fld(tuple(math.ldexp(c, e) for c in p)))
    lsq = [metric_length_quadrature(pts[i], pts[j], framed, order=_QUADRATURE_ORDER) ** 2
           for i, j in EDGE_ORDER]
    v = metric_volume_quadrature(pts, framed, order=_QUADRATURE_ORDER // 2)
    return _eta_from(v, lsq, which)
