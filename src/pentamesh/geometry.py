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
  callers that need inward normals negate it.  Which side of a facet a
  point lies on is an orientation predicate
  (:func:`~pentamesh.predicates.orientation4`), not a product with this
  float normal.
* ``_det4`` is the one scalar 4x4 determinant (a Laplace expansion over
  the pair minors of rows 1-2 and 3-4), ``_det_mag`` that of any size with
  its error magnitude; on Python ints both are exact.
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


def _det_mag(rows, mags=None):
    """``(value, mag)``: the determinant of n square rows and its expansion's magnitude.

    A cofactor expansion along the first row over the column-subset minors
    of the rows below (:func:`_subset_expansion`), with n = 2 and 3 written
    out bit for bit.  ``mag`` takes every product and sum in absolute value,
    ``mags`` (default the absolute values) standing for the first row.
    Exact on ints and ``Fraction``s.  On floats, let each first-row entry
    carry at most e roundings relative to its ``mags`` entry and every other
    entry at most r.  A k-row minor, k >= 2, adds one rounding per product
    and at most k - 1 in its sum, so each elementary product meets at most
    D = e + (n - 1) r + n(n+1)/2 - 1 roundings, and
    |value - det| <= gamma_D mag (1 + gamma_D), gamma_D = D u / (1 - D u),
    u = 2**-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    3.1-3.3; the second factor covers the rounding of ``mag``, a sum of
    the same products in absolute value).  Hence |value| > (D + 1) u mag
    certifies the sign unless a product rounds in the subnormal range; an
    overflow makes ``mag`` inf and certifies nothing.
    """
    n = len(rows)
    if n == 2:
        (a0, a1), (b0, b1) = rows
        m0, m1 = (abs(a0), abs(a1)) if mags is None else mags
        return a0 * b1 - a1 * b0, m0 * abs(b1) + m1 * abs(b0)
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        m0, m1, m2 = (abs(a0), abs(a1), abs(a2)) if mags is None else mags
        det = (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
               + a2 * (b0 * c1 - b1 * c0))
        mag = (m0 * (abs(b1 * c2) + abs(b2 * c1)) + m1 * (abs(b0 * c2) + abs(b2 * c0))
               + m2 * (abs(b0 * c1) + abs(b1 * c0)))
        return det, mag
    return _subset_expansion(rows, [abs(x) for x in rows[0]] if mags is None else mags)


@lru_cache(maxsize=None)
def _subset_terms(n: int, k: int):
    """Per k-subset s of n columns, its first term and the rest: ``(s[t], i)`` for each t.

    i indexes the (k-1)-subset s without s[t] in a list of those minors
    followed by their negations, taking the negation at odd t.
    """
    index = {s: i for i, s in enumerate(itertools.combinations(range(n), k - 1))}
    terms = [[(j, index[s[:t] + s[t + 1:]] + t % 2 * len(index)) for t, j in enumerate(s)]
             for s in itertools.combinations(range(n), k)]
    return tuple((first, tuple(rest)) for first, *rest in terms)


def _subset_expansion(rows, mags):
    """:func:`_det_mag` at any size: the last k rows' minors on all k-subsets, k = 0..n.

    ``v + x * -y`` rounds as ``v - x * y``, so the alternating signs become
    lookups into the negated minors.
    """
    n = len(rows)
    vals = mins = (1,)
    for r in range(n - 1, -1, -1):
        row = rows[r]
        arow = mags if r == 0 else [abs(x) for x in row]
        vals, mins = [*vals, *[-v for v in vals]], [*mins, *mins]
        next_vals, next_mins = [], []
        for (j, i), rest in _subset_terms(n, n - r):
            v, m = row[j] * vals[i], arow[j] * mins[i]
            for j, i in rest:
                v = v + row[j] * vals[i]
                m = m + arow[j] * mins[i]
            next_vals.append(v)
            next_mins.append(m)
        vals, mins = next_vals, next_mins
    return vals[0], mins[0]


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


def facet_normal(a, b, c, d) -> np.ndarray:
    """Generalized cross product of u=b-a, v=c-a, w=d-a.

    The normal is orthogonal to u, v and w under the identity inner
    product.  Degenerate facets yield the zero vector; the caller decides
    how to handle that.
    """
    uvw = [[q[j] - a[j] for j in range(4)] for q in (b, c, d)]
    # cofactor signs (+,-,+,-) along the trailing unit-vector row
    return np.array([sign * _det_mag([[r[j] for j in cols] for r in uvw])[0] for sign, cols
                     in ((1, (1, 2, 3)), (-1, (0, 2, 3)), (1, (0, 1, 3)), (-1, (0, 1, 2)))])


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

def _spd(m, d: int) -> tuple[tuple, float]:
    """Rows and ``sqrt(det)`` of a d x d symmetric positive-definite matrix.

    The rows are symmetrised elementwise, ``0.5 * (a_ij + a_ji)``, and must
    be finite (an entry whose sum overflows is not); the entries must be
    symmetric to 1e-12 of the largest magnitude (at least 1).  One LDL^T
    elimination without pivoting then runs on the rows.  Its pivots are the
    ratios of successive leading principal minors, so the matrix is positive
    definite exactly when every pivot is positive.  The root of their
    product is the product of their roots, finite and nonzero for entries
    within about 1e+-154 (a matrix whose root is not is rejected).
    """
    a = np.asarray(m, dtype=float)
    if a.shape != (d, d):
        raise ValueError(f"metric must be {d}x{d}, got shape {a.shape}")
    a = a.tolist()
    rows = tuple(tuple(0.5 * (x + y) for x, y in zip(row, col)) for row, col in zip(a, zip(*a)))
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError(f"metric has a non-finite entry: {a}")
    tol = 1e-12 * max(1.0, max(abs(x) for row in a for x in row))
    if any(abs(x - y) > tol for row, col in zip(a, zip(*a)) for x, y in zip(row, col)):
        raise ValueError("metric is not symmetric")
    low = [list(row[:i + 1]) for i, row in enumerate(rows)]  # the Schur complements
    root = 1.0
    for k in range(d):
        pivot = low[k][k]
        if not pivot > 0.0:
            raise ValueError("metric is not positive definite")
        root *= math.sqrt(pivot)
        for i in range(k + 1, d):
            f = low[i][k] / pivot
            for j in range(k + 1, i + 1):
                low[i][j] -= f * low[j][k]
    if not 0.0 < root < math.inf:
        raise ValueError(f"sqrt(det) of the metric leaves the double range: {a}")
    return rows, root


class Metric4:
    """A 4x4 symmetric positive-definite metric tensor.

    ``rows`` holds the entries as nested tuples and ``sqrt_det`` the root of
    the determinant, both from :func:`_spd`, which validates the argument.  ``diag`` is the
    diagonal when every off-diagonal entry is zero, else None.  The (4,4)
    entry carries the square of the characteristic speed when the metric
    has the diagonal space-time form.
    """

    __slots__ = ("rows", "diag", "sqrt_det")

    def __init__(self, m) -> None:
        self.rows, self.sqrt_det = _spd(m, 4)
        off = [x for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j]
        self.diag = None if any(off) else tuple(row[i] for i, row in enumerate(self.rows))

    def quad(self, u) -> float:
        """Quadratic form u^T M u."""
        r = self.rows
        u0, u1, u2, u3 = u
        return (u0 * (r[0][0] * u0 + r[0][1] * u1 + r[0][2] * u2 + r[0][3] * u3)
                + u1 * (r[1][0] * u0 + r[1][1] * u1 + r[1][2] * u2 + r[1][3] * u3)
                + u2 * (r[2][0] * u0 + r[2][1] * u1 + r[2][2] * u2 + r[2][3] * u3)
                + u3 * (r[3][0] * u0 + r[3][1] * u1 + r[3][2] * u2 + r[3][3] * u3))

    def __repr__(self) -> str:
        return f"Metric4({[list(row) for row in self.rows]})"


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
            return Metric4(((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                            (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, c * c)))

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
    if callable(field):
        return MetricField.from_function(field)
    return MetricField.constant(field)


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
    return abs(hypervolume(*pts)) * metric.sqrt_det


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
        q = field(a).quad(d)
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
        return vol * field(pts[0]).sqrt_det
    bary, weights = _grundmann_moller(4, order)
    verts = np.array([[float(c) for c in p] for p in pts])
    nodes = bary @ verts
    total = 0.0
    for node, w in zip(nodes, weights):
        total += w * field(tuple(node)).sqrt_det
    return vol * total
