"""Core 4D simplex geometry.

Orientation conventions, tetrahedral facet normals, hypervolumes, and
metric-weighted lengths and volumes shared by the whole meshing kernel.

Conventions
-----------
* A pentatope ``(p1, .., p5)`` is positively oriented when
  ``det[(p1-p5); (p2-p5); (p3-p5); (p4-p5)] > 0``, which coincides with
  ``det[(p2-p1); ..; (p5-p1)] > 0`` and hence with positive signed
  hypervolume.
* ``facet_normal`` evaluates the formal 4x4 determinant whose last row
  holds the unit vectors, expanded with cofactor signs ``(+, -, +, -)``.
  With this sign choice the normal of a canonical facet of a positively
  oriented pentatope points *away* from the opposite vertex (outward);
  callers that need inward normals negate it.  The expansion itself is
  ``_facet_cofactors``, which insertion's visibility test also evaluates
  over arrays of facets.
* ``_det4`` is the one scalar 4x4 determinant (a Laplace expansion over
  the pair minors of rows 1-2 and 3-4); on Python ints it is exact.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CANONICAL_FACETS",
    "FACET_OPPOSITE",
    "Metric4",
    "MetricField",
    "canonical_facets",
    "facet_normal",
    "hypervolume",
    "hypervolume_exact",
    "metric_length_pointwise",
    "metric_length_quadrature",
    "metric_volume_pointwise",
    "metric_volume_quadrature",
    "regular_pentatope",
]

#: Local vertex patterns of the five tetrahedral facets of a pentatope
#: (p1,p2,p3,p4), (p1,p2,p5,p3), (p1,p2,p4,p5), (p2,p3,p4,p5), (p3,p1,p4,p5).
CANONICAL_FACETS = ((0, 1, 2, 3), (0, 1, 4, 2), (0, 1, 3, 4), (1, 2, 3, 4), (2, 0, 3, 4))

#: Local index of the vertex omitted by each canonical facet.
FACET_OPPOSITE = (4, 3, 2, 0, 1)


def as_point4(p) -> tuple[float, float, float, float]:
    """Coerce a length-4 sequence to a tuple of finite floats."""
    x, y, z, t = (float(c) for c in p)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z) and math.isfinite(t)):
        raise ValueError(f"non-finite coordinate in point {p!r}")
    return (x, y, z, t)


def canonical_facets(pent: Sequence) -> list[tuple]:
    """Ordered tetrahedral facets of a pentatope given as any 5-sequence.

    Works on vertex ids as well as on coordinate tuples; returns the five
    facets in the canonical order, each oriented consistently with the
    parent pentatope.
    """
    p = tuple(pent)
    if len(p) != 5:
        raise ValueError("pentatope must have exactly 5 vertices")
    return [tuple(p[i] for i in pat) for pat in CANONICAL_FACETS]


# ---------------------------------------------------------------------------
# determinants / volumes
# ---------------------------------------------------------------------------

def _pair_minors(a, b):
    """The six 2x2 minors of rows a, b in column-pair order 01 02 03 12 13 23."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
            a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)


def _laplace4(p, q):
    """4x4 determinant from the pair minors of its top and bottom row pairs."""
    p01, p02, p03, p12, p13, p23 = p
    q01, q02, q03, q12, q13, q23 = q
    return p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01


def _det4(r1, r2, r3, r4):
    """4x4 determinant of four row 4-vectors; exact on Python ints."""
    return _laplace4(_pair_minors(r1, r2), _pair_minors(r3, r4))


def hypervolume(p1, p2, p3, p4, p5) -> float:
    """Signed hypervolume det[p2-p1, .., p5-p1] / 4!.

    Positive exactly when the five vertices are positively oriented; zero
    signals a degenerate pentatope.
    """
    x1, y1, z1, t1 = p1
    rows = []
    for p in (p2, p3, p4, p5):
        rows.append((p[0] - x1, p[1] - y1, p[2] - z1, p[3] - t1))
    return _det4(*rows) / 24.0


def _scale_to_ints(values):
    """Exact integers ``n_i`` and one denominator ``den`` with ``values[i] == n_i / den``.

    Takes floats, ints and ``Fraction``s, numpy's included.  Float
    denominators are powers of two, so for floats ``den`` is the largest of
    them.
    """
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:  # numpy integers have no as_integer_ratio
        ratios = [(int(v), 1) if isinstance(v, numbers.Integral) else v.as_integer_ratio()
                  for v in values]
    den = 1
    for _, d in ratios:
        if den % d:
            den = math.lcm(den, d)
    return [n * (den // d) for n, d in ratios], den


def _grain(values) -> int:
    """Least E >= 0 with every value (floats or ints) an integer multiple of 2**-E."""
    return max(v.as_integer_ratio()[1] for v in values).bit_length() - 1


def _hypervolumes_int(points: dict, simplices) -> tuple[list[int], int]:
    """Exact integer volumes of ``simplices``, 5-tuples of keys of ``points``: ``(dets, den)``.

    Every point is scaled to integers over one denominator ``den``, so
    ``dets[i]`` is exactly ``24 * den**4`` times the signed hypervolume of
    simplex ``i``; zero means a degenerate simplex.
    """
    ints, den = _scale_to_ints([c for p in points.values() for c in p])
    pos = dict(zip(points, (ints[k:k + 4] for k in range(0, len(ints), 4))))
    dets = []
    for simplex in simplices:
        (x1, y1, z1, t1), *rest = [pos[k] for k in simplex]
        dets.append(_det4(*[(x - x1, y - y1, z - z1, t - t1) for x, y, z, t in rest]))
    return dets, den


def hypervolume_exact(p1, p2, p3, p4, p5) -> Fraction:
    """Signed hypervolume in exact rational arithmetic.

    Coordinates are floats, ints or ``Fraction``s, numpy's included.  Float
    coordinates convert to rationals without rounding, so this is the exact
    measure of the simplex stored in the mesh.
    """
    (det,), den = _hypervolumes_int(dict(enumerate((p1, p2, p3, p4, p5))), [range(5)])
    return Fraction(det, 24 * den ** 4)


def _facet_cofactors(a, b, c, d):
    """Outward cofactor normal of facet (a, b, c, d) as a 4-tuple.

    Each corner is a sequence of four coordinates, floats or numpy arrays
    (one entry per facet, which evaluates many facets at once).
    """
    u = (b[0] - a[0], b[1] - a[1], b[2] - a[2], b[3] - a[3])
    v = (c[0] - a[0], c[1] - a[1], c[2] - a[2], c[3] - a[3])
    w = (d[0] - a[0], d[1] - a[1], d[2] - a[2], d[3] - a[3])

    def minor(i, j, k):
        return (u[i] * (v[j] * w[k] - v[k] * w[j])
                - u[j] * (v[i] * w[k] - v[k] * w[i])
                + u[k] * (v[i] * w[j] - v[j] * w[i]))

    # cofactor signs (+,-,+,-) along the trailing unit-vector row
    return (minor(1, 2, 3), -minor(0, 2, 3), minor(0, 1, 3), -minor(0, 1, 2))


def facet_normal(a, b, c, d) -> np.ndarray:
    """Generalized cross product of u=b-a, v=c-a, w=d-a.

    The normal is orthogonal to u, v and w under the identity inner
    product.  Degenerate facets yield the zero vector; the caller decides
    how to handle that.
    """
    return np.array(_facet_cofactors(a, b, c, d))


def regular_pentatope(edge: float = 1.0) -> np.ndarray:
    """Vertices of a regular pentatope with the given edge length.

    Hypervolume is sqrt(5)/96 * edge**4.
    """
    a = float(edge)
    s3, s6, s10 = math.sqrt(3.0), math.sqrt(6.0), math.sqrt(10.0)
    return np.array([
        [-a * s3 / 2.0, 0.0, 0.0, 0.0],
        [0.0, -a / 2.0, 0.0, 0.0],
        [0.0, a / 2.0, 0.0, 0.0],
        [-a * s3 / 6.0, 0.0, a * s6 / 3.0, 0.0],
        [-a * s3 / 6.0, 0.0, a * s6 / 12.0, a * s10 / 4.0],
    ])


# ---------------------------------------------------------------------------
# metric tensors and fields
# ---------------------------------------------------------------------------

class Metric4:
    """A 4x4 symmetric positive-definite metric tensor.

    Construction validates finiteness, symmetry (to representation
    exactness) and positive definiteness via the leading principal minors.  The (4,4)
    entry carries the square of the characteristic speed when the metric
    has the diagonal space-time form.
    """

    __slots__ = ("m", "_det", "_rows", "_inv_rows", "diag")

    def __init__(self, m) -> None:
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"metric must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"metric has a non-finite entry: {m.tolist()}")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise ValueError("metric is not symmetric")
        m = 0.5 * (m + m.T)
        for k in range(1, 5):
            if np.linalg.det(m[:k, :k]) <= 0.0:
                raise ValueError("metric is not positive definite")
        self.m = m
        self._det = float(np.linalg.det(m))
        self._rows = tuple(tuple(float(x) for x in row) for row in m)
        self._inv_rows = None
        off = m[~np.eye(4, dtype=bool)]
        self.diag = tuple(float(m[j, j]) for j in range(4)) if not off.any() else None

    @property
    def det(self) -> float:
        return self._det

    @property
    def rows(self) -> tuple:
        """Metric entries as nested tuples (fast scalar access)."""
        return self._rows

    @property
    def inv_rows(self) -> tuple:
        """Inverse metric entries as nested tuples (computed lazily)."""
        if self._inv_rows is None:
            inv = np.linalg.inv(self.m)
            self._inv_rows = tuple(tuple(float(x) for x in row) for row in inv)
        return self._inv_rows

    def quad(self, u) -> float:
        """Quadratic form u^T M u."""
        r = self._rows
        u0, u1, u2, u3 = u
        return (u0 * (r[0][0] * u0 + r[0][1] * u1 + r[0][2] * u2 + r[0][3] * u3)
                + u1 * (r[1][0] * u0 + r[1][1] * u1 + r[1][2] * u2 + r[1][3] * u3)
                + u2 * (r[2][0] * u0 + r[2][1] * u1 + r[2][2] * u2 + r[2][3] * u3)
                + u3 * (r[3][0] * u0 + r[3][1] * u1 + r[3][2] * u2 + r[3][3] * u3))

    def __repr__(self) -> str:
        return f"Metric4({self.m.tolist()})"


IDENTITY_METRIC = Metric4(np.eye(4))


class MetricField:
    """A space-time metric field mapping points to `Metric4` tensors.

    Built-in kinds: the identity field, the diagonal characteristic-speed
    field ``diag(1,1,1,c(t)^2)`` with a Gaussian speed bump, a constant
    field, and arbitrary user-supplied evaluators.
    """

    __slots__ = ("kind", "is_constant", "_fn", "_const", "params")

    def __init__(self, fn: Callable, kind: str = "custom",
                 is_constant: bool = False, params: dict | None = None) -> None:
        self._fn = fn
        self.kind = kind
        self.is_constant = is_constant
        self._const = fn((0.0, 0.0, 0.0, 0.0)) if is_constant else None
        self.params = params or {}

    def __call__(self, p) -> Metric4:
        if self.is_constant:
            return self._const
        return self._fn(p)

    @property
    def constant_metric(self) -> Metric4 | None:
        return self._const

    @staticmethod
    def identity() -> "MetricField":
        return MetricField(lambda p: IDENTITY_METRIC, kind="identity", is_constant=True)

    @staticmethod
    def constant(metric) -> "MetricField":
        m = metric if isinstance(metric, Metric4) else Metric4(metric)
        return MetricField(lambda p: m, kind="constant", is_constant=True)

    @staticmethod
    def speed(c0: float = 1.0, beta: float = 0.1, center: float = 2.0) -> "MetricField":
        """Diagonal field diag(1,1,1,c(t)^2), c(t) = c0 + sqrt(exp(-(t-center)^2))/beta."""
        if beta <= 0.0:
            raise ValueError("beta must be positive")

        def evaluate(p):
            t = p[3]
            c = c0 + math.sqrt(math.exp(-((t - center) ** 2))) / beta
            return Metric4(np.diag([1.0, 1.0, 1.0, c * c]))

        return MetricField(evaluate, kind="speed",
                           params={"c0": c0, "beta": beta, "center": center})

    @staticmethod
    def from_function(fn: Callable) -> "MetricField":
        def evaluate(p):
            m = fn(p)
            return m if isinstance(m, Metric4) else Metric4(m)

        return MetricField(evaluate, kind="custom")


def resolve_field(field) -> MetricField:
    """Accept None (identity), a MetricField, a Metric4/array, or a callable."""
    if field is None:
        return MetricField.identity()
    if isinstance(field, MetricField):
        return field
    if isinstance(field, Metric4):
        return MetricField.constant(field)
    if callable(field):
        return MetricField.from_function(field)
    return MetricField.constant(Metric4(field))


# ---------------------------------------------------------------------------
# metric lengths and volumes
# ---------------------------------------------------------------------------

def metric_length_pointwise(a, b, metric: Metric4) -> float:
    """Edge length sqrt((a-b)^T M (a-b)) under a fixed metric tensor."""
    if not isinstance(metric, Metric4):
        metric = Metric4(metric)
    d = (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])
    q = metric.quad(d)
    return math.sqrt(q) if q > 0.0 else 0.0


def metric_volume_pointwise(pts, metric: Metric4) -> float:
    """Pentatope measure |v| * sqrt(det M) under a fixed metric tensor."""
    if not isinstance(metric, Metric4):
        metric = Metric4(metric)
    return abs(hypervolume(*pts)) * math.sqrt(metric.det)


@lru_cache(maxsize=None)
def _gauss_legendre_01(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def metric_length_quadrature(a, b, field, order: int = 4) -> float:
    """Gauss-Legendre approximation of the metric arc length of segment ab.

    Integrates sqrt((b-a)^T M(a + (b-a) tau) (b-a)) over tau in [0,1];
    reproduces the point-wise length exactly (to roundoff) for constant
    fields.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    field = resolve_field(field)
    d = (b[0] - a[0], b[1] - a[1], b[2] - a[2], b[3] - a[3])
    if field.is_constant:
        q = field.constant_metric.quad(d)
        return math.sqrt(q) if q > 0.0 else 0.0
    nodes, weights = _gauss_legendre_01(order)
    total = 0.0
    for tau, w in zip(nodes, weights):
        p = (a[0] + d[0] * tau, a[1] + d[1] * tau, a[2] + d[2] * tau, a[3] + d[3] * tau)
        q = field(p).quad(d)
        total += w * (math.sqrt(q) if q > 0.0 else 0.0)
    return total


@lru_cache(maxsize=None)
def _grundmann_moller(n: int, s: int):
    """Grundmann-Moller rule on the unit n-simplex, degree 2s+1.

    Returns barycentric points (m, n+1) and weights (m,) normalized so the
    weights sum to 1 (weights of the mean-value form).
    """
    d = 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        w = Fraction((-1) ** i, 4 ** s) * Fraction((d + n - 2 * i) ** d) / (
            Fraction(math.factorial(i)) * Fraction(math.factorial(d + n - i)))
        denom = d + n - 2 * i
        for beta in itertools.product(range(s - i + 1), repeat=n + 1):
            if sum(beta) != s - i:
                continue
            pts.append([Fraction(2 * bj + 1, denom) for bj in beta])
            wts.append(w)
    pts = np.array([[float(x) for x in row] for row in pts])
    wts = np.array([float(w) for w in wts]) * math.factorial(n)
    return pts, wts


def metric_volume_quadrature(pts, field, order: int = 2) -> float:
    """Simplex quadrature of |v| * integral-average of sqrt(det M).

    Uses a Grundmann-Moller rule exact for integrands of polynomial degree
    2*order + 1 (the default covers degree 5).  Constant fields reproduce
    the point-wise metric volume exactly up to roundoff.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    field = resolve_field(field)
    vol = abs(hypervolume(*pts))
    if field.is_constant:
        return vol * math.sqrt(field.constant_metric.det)
    bary, weights = _grundmann_moller(4, order)
    verts = np.array([[float(c) for c in p] for p in pts])
    nodes = bary @ verts
    total = 0.0
    for node, w in zip(nodes, weights):
        det = field(tuple(node)).det
        total += w * math.sqrt(det)
    return vol * total
