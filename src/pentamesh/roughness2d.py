"""Two-dimensional anisotropic Delaunay optimality of convex quadrilaterals.

For four points forming a strictly convex quadrilateral there are exactly
two triangulations (the two diagonals).  The difference in weighted
Dirichlet roughness between them factors as ``A * B * C`` where A > 0 is
an area term, B >= 0 a coplanarity term in the nodal values, and C the
metric circumcircle criterion: the diagonal that satisfies the anisotropic
Delaunay condition never has larger roughness.  A local optimization
procedure (edge flipping driven by the metric circumcircle test at edge
midpoints) turns any triangulation of a point set into the anisotropic
Delaunay one.

The 2D space-time metric is ``diag(1, c^2)`` with characteristic speed c;
"metric space" means scaling the second coordinate by c.

Every sign that builds or flips a triangulation is exact, from
:func:`~pentamesh.predicates.orientation_m_d` and
:func:`~pentamesh.predicates.inhypersphere_m_d` with d = 2, as the proof
assumes.  So the sweep needs no containment scan and the LOP no convexity
test; their docstrings say why.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .predicates import inhypersphere_m_d, orientation_m_d

__all__ = [
    "CanonicalQuad",
    "QuadConfig2",
    "RoughnessBreakdown",
    "incircle_m2",
    "lop",
    "map_to_canonical",
    "relative_roughness",
    "sweep_triangulation",
    "total_roughness",
]

_LOP_MAX_PASSES = 200  # lop's guard for a varying field: queue pops per triangle


def _speed(c_v) -> float:
    """A characteristic speed as a float; raises unless 0 < c_v < inf."""
    c = float(c_v)
    if not 0.0 < c < math.inf:
        raise ValueError(f"characteristic speed must be positive and finite, got {c_v!r}")
    return c


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class QuadConfig2:
    """A strictly convex quadrilateral (counterclockwise), nodal values,
    and a characteristic speed."""

    u: tuple  # four (x, t) points in order
    f: tuple  # four nodal values
    c_v: float

    def __post_init__(self):
        if len(self.u) != 4 or len(self.f) != 4:
            raise ValueError("need four points and four nodal values")
        _speed(self.c_v)
        for i in range(4):
            if orientation_m_d(None, (self.u[i - 2], self.u[i - 1], self.u[i])).sign <= 0:
                raise ValueError(
                    "points must form a strictly convex counterclockwise quadrilateral")


@dataclass(frozen=True)
class CanonicalQuad:
    """Quadrilateral mapped to u1=(0,0), u2=(1,0), u3=(r,s), u4=(p,q)."""

    p: float
    q: float
    r: float
    s: float

    def __post_init__(self):
        if not (self.q > 0.0 and self.s > 0.0):
            raise ValueError("canonical quadrilateral needs q > 0 and s > 0")
        if self.r * self.q - self.p * self.s <= 0.0:
            raise ValueError("triangle (u1, u3, u4) is inverted")
        if self.m <= 0.0:
            raise ValueError("triangle (u2, u3, u4) is inverted")

    @property
    def m(self) -> float:
        return self.r * self.q - self.p * self.s + self.s - self.q


def map_to_canonical(cfg: QuadConfig2) -> CanonicalQuad:
    """Affine-normalize a quadrilateral under the metric diag(1, c^2).

    The time separations are scaled by c first; the metric image is then
    translated, rotated, and scaled so u1 lands on (0,0) and u2 on (1,0)
    exactly (the scale factor is the metric length of edge u1-u2).
    """
    pts = [np.array([p[0], cfg.c_v * p[1]], dtype=float) for p in cfg.u]
    e = pts[1] - pts[0]
    length = float(np.hypot(e[0], e[1]))
    if length == 0.0:
        raise ValueError("u1 and u2 coincide")
    cos_t, sin_t = e[0] / length, e[1] / length
    rot = np.array([[cos_t, sin_t], [-sin_t, cos_t]]) / length
    u3 = rot @ (pts[2] - pts[0])
    u4 = rot @ (pts[3] - pts[0])
    return CanonicalQuad(p=float(u4[0]), q=float(u4[1]),
                         r=float(u3[0]), s=float(u3[1]))


@dataclass(frozen=True)
class RoughnessBreakdown:
    value: float  # |H|^2 on the u1u3-diagonal minus |G|^2 on the u2u4-diagonal
    A: float
    B: float
    C: float


def _coefficients(cq: CanonicalQuad, g2: float, g3: float, g4: float, c: float):
    """Piecewise-linear coefficient pairs (a~, b~) for both triangulations.

    Values are taken in the gauge f1 = 0 (g_i = f_i - f1); the roughness
    difference is invariant under that shift.
    """
    p, q, r, s, m = cq.p, cq.q, cq.r, cq.s, cq.m
    rc = math.sqrt(c)
    a1t = rc * g2
    b1t = (g4 - p * g2) / (rc * q)
    a2t = rc * (q * (g3 - g2) - s * (g4 - g2)) / m
    b2t = ((r - 1.0) * (g4 - g2) - (p - 1.0) * (g3 - g2)) / (rc * m)
    a1s = rc * g2
    b1s = (g3 - r * g2) / (rc * s)
    a2s = rc * (q * g3 - s * g4) / (r * q - p * s)
    b2s = (r * g4 - p * g3) / (rc * (r * q - p * s))
    return (a1t, b1t), (a2t, b2t), (a1s, b1s), (a2s, b2s)


def relative_roughness(cq: CanonicalQuad, f1, f2, f3, f4,
                       c_v: float) -> RoughnessBreakdown:
    """Roughness difference between the two diagonals, with its factorization.

    ``value`` is the roughness of the u1u3-diagonal triangulation minus the
    roughness of the u2u4-diagonal one, assembled term by term from the
    piecewise-linear coefficients.  The closed-form factors satisfy
    value = A * B * C to roundoff: A > 0 always, B >= 0 vanishes exactly
    for affine nodal data, and C is the metric circumcircle criterion of
    triangle ((0,0),(1,0),(p,q)) against (r,s) - non-negative exactly when
    the u2u4 diagonal is the anisotropic Delaunay choice.
    """
    c_v = _speed(c_v)
    g2, g3, g4 = f2 - f1, f3 - f1, f4 - f1
    (a1t, b1t), (a2t, b2t), (a1s, b1s), (a2s, b2s) = _coefficients(cq, g2, g3, g4, c_v)
    p, q, r, s, m = cq.p, cq.q, cq.r, cq.s, cq.m
    areas_t = (q / 2.0, m / 2.0)
    areas_s = (s / 2.0, (r * q - p * s) / 2.0)
    terms = (areas_s[0] * (a1s * a1s + b1s * b1s),
             areas_s[1] * (a2s * a2s + b2s * b2s),
             areas_t[0] * (a1t * a1t + b1t * b1t),
             areas_t[1] * (a2t * a2t + b2t * b2t))
    value = terms[0] + terms[1] - terms[2] - terms[3]
    A = 1.0 / (2.0 * c_v * m * s * (r * q - p * s))
    B = (q * g3 + (p * s - r * q) * g2 - s * g4) ** 2
    C = (p * s * (1.0 - p) - c_v ** 2 * q * q * s
         + q * (c_v ** 2 * s * s + r * r - r)) / q
    abc = A * B * C
    # the four-term sum cancels, so the achievable agreement is relative to
    # the magnitude of the terms, not of the difference
    tol = 1e-9 * max(sum(abs(t) for t in terms), abs(abc), 1e-12)
    if abs(value - abc) > tol:
        raise AssertionError(
            f"roughness factorization mismatch: {value} vs A*B*C = {abc}")
    return RoughnessBreakdown(value=value, A=A, B=B, C=C)


def incircle_m2(c_v: float, tri, w) -> float:
    """Signed metric circumcircle criterion in 2D; positive means outside.

    Points map into metric space (t => c*t); the value is the squared
    distance of the mapped query from the circumcenter minus the squared
    circumradius.  Raises for (metrically) collinear triangles.
    """
    c_v = _speed(c_v)
    (ax, ay), (bx, by), (cx, cy), (wx, wy) = (
        (float(p[0]), c_v * float(p[1])) for p in (*tri, w))
    # Cramer's rule for the circumcentre o: 2 [b - a; c - a] o = [|b|^2 - |a|^2; |c|^2 - |a|^2]
    a00, a01, a10, a11 = 2.0 * (bx - ax), 2.0 * (by - ay), 2.0 * (cx - ax), 2.0 * (cy - ay)
    aa = ax * ax + ay * ay
    r0, r1 = bx * bx + by * by - aa, cx * cx + cy * cy - aa
    det = a00 * a11 - a01 * a10
    if det == 0.0:
        raise ValueError("triangle is collinear in metric space")
    ox, oy = (r0 * a11 - a01 * r1) / det, (a00 * r1 - r0 * a10) / det
    return (wx - ox) ** 2 + (wy - oy) ** 2 - ((ax - ox) ** 2 + (ay - oy) ** 2)


# ---------------------------------------------------------------------------
# triangulations and the local optimization procedure
# ---------------------------------------------------------------------------

def _turn(pts, a, b, c) -> int:
    """Exact sign of the turn a -> b -> c; positive counterclockwise."""
    return orientation_m_d(None, (pts[a], pts[b], pts[c])).sign


def sweep_triangulation(points) -> list[tuple[int, int, int]]:
    """Incremental lexicographic triangulation: a valid, non-optimized seed.

    Points without exact duplicates, not all collinear.  Taken in
    lexicographic order, each point lies strictly outside the hull of the
    earlier ones, since a convex combination of points never comes after all
    of them; the collinear leading points lie on line ab beyond b.  So
    no point falls inside or on an earlier triangle, and no containment
    scan is needed: each point connects to the hull edges it strictly sees.
    All triangles come out counterclockwise.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least three points")
    order = sorted(range(n), key=lambda i: (pts[i][0], pts[i][1]))
    first = next((k for k in range(2, n) if _turn(pts, *order[:2], order[k])), None)
    if first is None:
        raise ValueError("all points are collinear")
    a, b, c = order[0], order[1], order[first]
    seed = (a, b, c) if _turn(pts, a, b, c) > 0 else (b, a, c)
    tris: list[tuple[int, int, int]] = [seed]
    hull: list[int] = list(seed)
    pending = order[2:first] + order[first + 1:]

    for v in pending:
        m = len(hull)
        visible = [i for i in range(m) if _turn(pts, hull[i], hull[(i + 1) % m], v) < 0]
        if not visible:
            raise ValueError(f"point {v} is degenerate with the hull")
        for i in visible:
            tris.append((hull[(i + 1) % m], hull[i], v))
        start = next(i for i in visible if (i - 1) % m not in visible)
        new_hull = [v]
        i = (start + len(visible)) % m
        while True:
            new_hull.append(hull[i])
            i = (i + 1) % m
            if i == start:
                new_hull.append(hull[i])
                break
        hull = new_hull
    return tris


def total_roughness(points, values, tris, c_v: float) -> float:
    """Weighted Dirichlet roughness of the piecewise-linear interpolant.

    Constant speed only: sum over triangles of area * (c gx^2 + gt^2 / c).
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    total = 0.0
    for tri in tris:
        a, b, c = (pts[i] for i in tri)
        fa, fb, fc = (vals[i] for i in tri)
        det = _cross(a, b, c)
        if det == 0.0:
            raise ValueError(f"degenerate triangle {tri}")
        gx = ((fb - fa) * (c[1] - a[1]) - (fc - fa) * (b[1] - a[1])) / det
        gt = ((fc - fa) * (b[0] - a[0]) - (fb - fa) * (c[0] - a[0])) / det
        total += abs(det) / 2.0 * (c_v * gx * gx + gt * gt / c_v)
    return total


def lop(points, values=None, c_field=1.0, *, return_history: bool = False):
    """Local optimization procedure: flip edges until metric-Delaunay.

    ``c_field`` is either a constant characteristic speed or a callable
    ``(x, t) -> c`` evaluated at edge midpoints.  Starting from a sweep
    triangulation, every interior edge ab with triangles abc (stored
    counterclockwise) and abd is flipped to cd when d lies strictly inside
    the circumcircle of abc under ``diag(1, c^2)``, decided exactly by
    :func:`~pentamesh.predicates.inhypersphere_m_d`; ties are left alone.
    No convexity test is needed: d strictly inside that circle keeps
    segment cd in the open disk, crossing line ab on the chord, so the
    quadrilateral is strictly convex, under any linear map too.  Each flip
    strictly lowers the roughness of the affected pair, so under a constant
    speed the loop terminates at the metric Delaunay triangulation.  A
    varying field can cycle, so a guard stops the loop after
    ``_LOP_MAX_PASSES`` queue pops per triangle.

    Returns the triangle list, or ``(triangles, roughness_history)`` when
    ``return_history`` is set (requires ``values`` and a constant field).
    """
    pts = np.asarray(points, dtype=float)
    tris = sweep_triangulation(pts)
    speed = c_field if callable(c_field) else (lambda x, t, c=float(c_field): c)
    track = return_history and values is not None and not callable(c_field)
    history = []
    if track:
        history.append(total_roughness(pts, values, tris, float(c_field)))

    edge_map: dict[tuple[int, int], list[int]] = {}

    def edges_of(t):
        return [tuple(sorted((t[i], t[(i + 1) % 3]))) for i in range(3)]

    def register(ti):
        for e in edges_of(tris[ti]):
            edge_map.setdefault(e, []).append(ti)

    for ti in range(len(tris)):
        register(ti)

    queue = deque(e for e, owners in edge_map.items() if len(owners) == 2)
    passes = 0
    while queue:
        passes += 1
        if passes > _LOP_MAX_PASSES * len(tris):
            break
        e = queue.popleft()
        if len(edge_map[e]) != 2:
            continue
        t1, t2 = edge_map[e]
        tri1 = tris[t1]
        k = next(i for i, v in enumerate(tri1) if v not in e)
        c, a, b = tri1[k], tri1[k - 2], tri1[k - 1]  # tri1 is (a, b, c) up to rotation
        d = next(v for v in tris[t2] if v not in e)
        mid = 0.5 * (pts[a] + pts[b])
        c_v = _speed(speed(mid[0], mid[1]))
        metric = ((1.0, 0.0), (0.0, c_v * c_v))
        if inhypersphere_m_d(metric, (pts[a], pts[b], pts[c], pts[d])).sign <= 0:
            continue
        # flip ab to cd; (c, a, d) and (c, d, b) turn counterclockwise as abc does
        for ti, tri in ((t1, tri1), (t2, tris[t2])):
            for ed in edges_of(tri):
                edge_map[ed].remove(ti)
        tris[t1], tris[t2] = (c, a, d), (c, d, b)
        register(t1)
        register(t2)
        cd = tuple(sorted((c, d)))
        for ed in set(edges_of(tris[t1]) + edges_of(tris[t2])):
            if ed != cd and len(edge_map[ed]) == 2:
                queue.append(ed)
        queue.append(cd)
        if track:
            history.append(total_roughness(pts, values, tris, float(c_field)))
    if return_history:
        return tris, history
    return tris
