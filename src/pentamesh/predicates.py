"""Robust orientation and in-hypersphere predicates.

Two formulations are provided for metric-weighted tests:

* the *standard* route, which factors the metric ``M = G^T G`` and feeds
  ``G``-scaled points to ordinary Euclidean predicates, and
* the *alternative* route, which weights the cofactor expansion with the
  quadratic forms ``(x-f)^T M (x-f)`` and a ``sqrt(det M)`` prefactor and
  never decomposes the metric.

Signs are exact on demand: a forward-error filter certifies the double
precision result when possible, escalates to 80-bit extended floats, and
finally to arbitrary-precision rational arithmetic (float inputs convert
to rationals exactly).

Sign conventions
----------------
``orientation(..)`` is the determinant of rows ``(p_i - p_last)``.  For the
in-hypersphere tests, a query point strictly inside the circumhypersphere
of a *positively oriented* simplex yields a positive sign; the sign flips
with the orientation of the first d+1 arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import Metric4, _det4_int, _scale_to_ints

__all__ = [
    "MetricDecomposition",
    "PredicateResult",
    "decompose_metric",
    "exact_rational_cholesky",
    "inhypersphere4",
    "inhypersphere_m",
    "inhypersphere_m_d",
    "orientation4",
    "orientation_m",
    "orientation_m_d",
    "scale_points_standard",
]

_EPS = float(np.finfo(np.float64).eps) / 2.0          # 1.11e-16
_LD_EPS = float(np.finfo(np.longdouble).eps) / 2.0
_ORIENT_SAFETY = 16.0
_INSPHERE_SAFETY = 64.0


@dataclass(frozen=True)
class PredicateResult:
    """Sign of a geometric predicate plus an informational float value.

    ``exactness`` records the arithmetic stage that certified the sign:
    ``"float"``, ``"extended"``, or ``"exact"``.
    """

    sign: int
    value: float
    exactness: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.sign != 0


@dataclass(frozen=True)
class MetricDecomposition:
    """A factor G with G^T G = M, from Cholesky or the symmetric square root."""

    kind: str
    G: np.ndarray
    error: float  # Frobenius norm of M - G^T G


# ---------------------------------------------------------------------------
# metric handling
# ---------------------------------------------------------------------------

def _metric_info(M, d):
    """(rows, diag, sqrt_det) of a metric argument; (None, None, 1) = identity."""
    if M is None:
        return None, None, 1.0
    if isinstance(M, Metric4):
        return M.rows, M.diag, math.sqrt(M.det)
    m = np.asarray(M, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"metric must be {d}x{d}, got {m.shape}")
    if d == 4:
        mt = Metric4(m)  # validates SPD
        return mt.rows, mt.diag, math.sqrt(mt.det)
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise ValueError("metric is not symmetric")
    try:
        np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError:
        raise ValueError("metric is not positive definite") from None
    rows = tuple(tuple(float(x) for x in row) for row in m)
    return rows, None, math.sqrt(float(np.linalg.det(m)))


def _quad(rows, u):
    """u^T M u together with a magnitude bound on the computed value."""
    if rows is None:
        val = sum(x * x for x in u)
        return val, val
    val = 0.0
    mag = 0.0
    n = len(u)
    for i in range(n):
        row = rows[i]
        s = 0.0
        smag = 0.0
        for j in range(n):
            s += row[j] * u[j]
            smag += abs(row[j] * u[j])
        val += u[i] * s
        mag += abs(u[i]) * smag
    return val, mag


# ---------------------------------------------------------------------------
# determinants with error magnitudes
# ---------------------------------------------------------------------------

def _det4_mag(rows):
    """4x4 determinant and a magnitude bound (two-row Laplace expansion)."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    ab01 = a0 * b1 - a1 * b0
    m01 = abs(a0 * b1) + abs(a1 * b0)
    ab02 = a0 * b2 - a2 * b0
    m02 = abs(a0 * b2) + abs(a2 * b0)
    ab03 = a0 * b3 - a3 * b0
    m03 = abs(a0 * b3) + abs(a3 * b0)
    ab12 = a1 * b2 - a2 * b1
    m12 = abs(a1 * b2) + abs(a2 * b1)
    ab13 = a1 * b3 - a3 * b1
    m13 = abs(a1 * b3) + abs(a3 * b1)
    ab23 = a2 * b3 - a3 * b2
    m23 = abs(a2 * b3) + abs(a3 * b2)
    cd01 = c0 * d1 - c1 * d0
    n01 = abs(c0 * d1) + abs(c1 * d0)
    cd02 = c0 * d2 - c2 * d0
    n02 = abs(c0 * d2) + abs(c2 * d0)
    cd03 = c0 * d3 - c3 * d0
    n03 = abs(c0 * d3) + abs(c3 * d0)
    cd12 = c1 * d2 - c2 * d1
    n12 = abs(c1 * d2) + abs(c2 * d1)
    cd13 = c1 * d3 - c3 * d1
    n13 = abs(c1 * d3) + abs(c3 * d1)
    cd23 = c2 * d3 - c3 * d2
    n23 = abs(c2 * d3) + abs(c3 * d2)
    det = (ab01 * cd23 - ab02 * cd13 + ab03 * cd12
           + ab12 * cd03 - ab13 * cd02 + ab23 * cd01)
    mag = (m01 * n23 + m02 * n13 + m03 * n12
           + m12 * n03 + m13 * n02 + m23 * n01)
    return det, mag


def _det_general_mag(rows):
    """Generic determinant with a Hadamard-style magnitude bound."""
    a = np.array(rows, dtype=float)
    n = a.shape[0]
    det = float(np.linalg.det(a))
    norms = np.sqrt((a * a).sum(axis=1))
    mag = float(np.prod(np.maximum(norms, 0.0))) * n * n
    return det, mag


def _det_mag(rows):
    if len(rows) == 4:
        return _det4_mag(rows)
    if len(rows) == 1:
        v = rows[0][0]
        return v, abs(v)
    if len(rows) == 2:
        (a0, a1), (b0, b1) = rows
        return a0 * b1 - a1 * b0, abs(a0 * b1) + abs(a1 * b0)
    if len(rows) == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        det = (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
               + a2 * (b0 * c1 - b1 * c0))
        mag = (abs(a0) * (abs(b1 * c2) + abs(b2 * c1))
               + abs(a1) * (abs(b0 * c2) + abs(b2 * c0))
               + abs(a2) * (abs(b0 * c1) + abs(b1 * c0)))
        return det, mag
    return _det_general_mag(rows)


def _orient4_exact_sign(pts) -> int:
    """Exact orientation sign of five 4D float points via integer arithmetic."""
    flat = [c for p in pts for c in p]
    ints, _ = _scale_to_ints(flat)
    e = ints[16:20]
    rows = [[ints[4 * k + j] - e[j] for j in range(4)] for k in range(4)]
    det = _det4_int(*rows)
    return 0 if det == 0 else (1 if det > 0 else -1)


def _insphere4_exact_sign(pts, mrows) -> int:
    """Exact metric in-hypersphere sign of six 4D float points.

    All inputs are dyadic rationals, so scaling coordinates (and metric
    entries) to integers preserves signs exactly: every term of the
    cofactor expansion carries the same power of the two scale factors.
    """
    flat = [c for p in pts for c in p]
    ints, _ = _scale_to_ints(flat)
    f = ints[20:24]
    us = [tuple(ints[4 * k + j] - f[j] for j in range(4)) for k in range(5)]
    if mrows is None:
        qs = [u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3] for u in us]
    else:
        ments, _ = _scale_to_ints([x for row in mrows for x in row])
        m = [ments[0:4], ments[4:8], ments[8:12], ments[12:16]]
        qs = [sum(u[i] * sum(m[i][j] * u[j] for j in range(4)) for i in range(4))
              for u in us]
    total = 0
    sign = 1
    for i in range(5):
        rows = us[:i] + us[i + 1:]
        total += sign * qs[i] * _det4_int(*rows)
        sign = -sign
    return 0 if total == 0 else (1 if total > 0 else -1)


def _insphere4_core(pts, mrows, mdiag=None, cast=float):
    """Value and magnitude of the 4D in-hypersphere bracket, shared minors.

    The five 4x4 determinants of the cofactor expansion share their 2x2
    pair minors; only six of the ten row pairs are needed when each
    determinant is expanded across its first and last two rows.  Diagonal
    metrics take a reduced quadratic-form path.
    """
    if cast is float:
        f = pts[5]
        us = [(p[0] - f[0], p[1] - f[1], p[2] - f[2], p[3] - f[3]) for p in pts[:5]]
    else:
        f = [cast(x) for x in pts[5]]
        us = [tuple(cast(p[j]) - f[j] for j in range(4)) for p in pts[:5]]
        if mrows is not None:
            mrows = tuple(tuple(cast(x) for x in row) for row in mrows)
            mdiag = None

    if mrows is None:
        qs = [(u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) for u in us]
        qmags = qs
    elif mdiag is not None:
        d0, d1, d2, d3 = mdiag
        qs = [d0 * u[0] * u[0] + d1 * u[1] * u[1]
              + d2 * u[2] * u[2] + d3 * u[3] * u[3] for u in us]
        qmags = qs  # all terms non-negative
    else:
        qs, qmags = [], []
        for u in us:
            val = mag = cast(0) if cast is not float else 0.0
            for i in range(4):
                row = mrows[i]
                s = row[0] * u[0] + row[1] * u[1] + row[2] * u[2] + row[3] * u[3]
                smag = (abs(row[0] * u[0]) + abs(row[1] * u[1])
                        + abs(row[2] * u[2]) + abs(row[3] * u[3]))
                val = val + u[i] * s
                mag = mag + abs(u[i]) * smag
            qs.append(val)
            qmags.append(mag)

    def pair(a, b):
        a0, a1, a2, a3 = us[a]
        b0, b1, b2, b3 = us[b]
        return ((a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
                 a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2),
                (abs(a0 * b1) + abs(a1 * b0), abs(a0 * b2) + abs(a2 * b0),
                 abs(a0 * b3) + abs(a3 * b0), abs(a1 * b2) + abs(a2 * b1),
                 abs(a1 * b3) + abs(a3 * b1), abs(a2 * b3) + abs(a3 * b2)))

    pm = {}
    for key in ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)):
        pm[key] = pair(*key)

    def det(top, bottom):
        (p01, p02, p03, p12, p13, p23), (m01, m02, m03, m12, m13, m23) = pm[top]
        (q01, q02, q03, q12, q13, q23), (n01, n02, n03, n12, n13, n23) = pm[bottom]
        d = (p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01)
        m = (m01 * n23 + m02 * n13 + m03 * n12 + m12 * n03 + m13 * n02 + m23 * n01)
        return d, m

    dets = (det((1, 2), (3, 4)), det((0, 2), (3, 4)), det((0, 1), (3, 4)),
            det((0, 1), (2, 4)), det((0, 1), (2, 3)))
    total = (qs[0] * dets[0][0] - qs[1] * dets[1][0] + qs[2] * dets[2][0]
             - qs[3] * dets[3][0] + qs[4] * dets[4][0])
    mag = (qmags[0] * dets[0][1] + qmags[1] * dets[1][1] + qmags[2] * dets[2][1]
           + qmags[3] * dets[3][1] + qmags[4] * dets[4][1])
    return total, mag


def _det_exact(rows):
    """Exact determinant by fraction-free elimination over rationals."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        pv = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / pv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    det = Fraction(sign)
    for k in range(n):
        det *= a[k][k]
    return det


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

def _orientation_rows(pts, cast=float):
    last = pts[-1]
    d = len(last)
    return [tuple(cast(p[j]) - cast(last[j]) for j in range(d)) for p in pts[:-1]]


def orientation_m_d(M, pts, mode: str = "auto") -> PredicateResult:
    """Metric-weighted orientation of d+1 points in d dimensions.

    The value is sqrt(det M) times the determinant of rows (p_i - p_last);
    the positive prefactor never changes the sign, so the sign agrees with
    the plain orientation for every SPD metric.
    """
    pts = [tuple(float(c) for c in p) for p in pts]
    d = len(pts[0])
    if len(pts) != d + 1:
        raise ValueError(f"orientation in {d}D needs {d + 1} points, got {len(pts)}")
    _rows, _diag, pref = _metric_info(M, d)

    value = None
    if mode != "exact":
        det, mag = _det_mag(_orientation_rows(pts))
        value = pref * det
        bound = _ORIENT_SAFETY * _EPS * mag
        if mode == "float" or abs(det) > bound:
            sign = 0 if det == 0.0 else (1 if det > 0.0 else -1)
            return PredicateResult(sign, value, "float")
        if d == 4:
            ld_rows = _orientation_rows(pts, cast=np.longdouble)
            det_ld, mag_ld = _det4_mag(ld_rows)
            if abs(det_ld) > _ORIENT_SAFETY * _LD_EPS * mag_ld:
                sign = 1 if det_ld > 0 else -1
                return PredicateResult(sign, pref * float(det_ld), "extended")

    if d == 4:
        sign = _orient4_exact_sign(pts)
        if value is None:
            value = pref * _det_mag(_orientation_rows(pts))[0]
        return PredicateResult(sign, value, "exact")
    det = _det_exact(_orientation_rows(pts, cast=Fraction))
    sign = 0 if det == 0 else (1 if det > 0 else -1)
    return PredicateResult(sign, pref * float(det), "exact")


def orientation4(a, b, c, d, e, mode: str = "auto") -> PredicateResult:
    """Sign of det[(a-e); (b-e); (c-e); (d-e)] with exact escalation."""
    return orientation_m_d(None, (a, b, c, d, e), mode=mode)


def orientation_m(M, a, b, c, d, e, mode: str = "auto") -> PredicateResult:
    """sqrt(det M)-weighted orientation; same sign as :func:`orientation4`."""
    if M is None:
        raise ValueError("orientation_m requires a metric; use orientation4")
    return orientation_m_d(M, (a, b, c, d, e), mode=mode)


# ---------------------------------------------------------------------------
# in-hypersphere
# ---------------------------------------------------------------------------

def _insphere_terms(pts, mrows, cast=float):
    """Quadratic forms Q_i and difference rows u_i = p_i - f."""
    f = pts[-1]
    d = len(f)
    us = [tuple(cast(p[j]) - cast(f[j]) for j in range(d)) for p in pts[:-1]]
    if mrows is not None and cast is not float:
        mrows = tuple(tuple(cast(x) for x in row) for row in mrows)
    qs = []
    for u in us:
        if mrows is None:
            q = sum(x * x for x in u)
            qs.append((q, q))
        else:
            val = cast(0)
            mag = cast(0)
            for i in range(d):
                s = cast(0)
                smag = cast(0)
                for j in range(d):
                    s += mrows[i][j] * u[j]
                    smag += abs(mrows[i][j] * u[j])
                val += u[i] * s
                mag += abs(u[i]) * smag
            qs.append((val, mag))
    return us, qs


def _insphere_bracket_float(us, qs, d, det_fn):
    """(-1)^d sum_i (-1)^i Q_i det(rows without i), with magnitude bound."""
    total = 0.0
    mag = 0.0
    parity = 1 if d % 2 == 0 else -1
    sign = parity
    for i in range(d + 1):
        rows = us[:i] + us[i + 1:]
        det, dmag = det_fn(rows)
        q, qmag = qs[i]
        total += sign * q * det
        mag += qmag * dmag
        sign = -sign
    return total, mag


def inhypersphere_m_d(M, pts, mode: str = "auto") -> PredicateResult:
    """Metric-weighted in-hypersphere test of d+2 points in d dimensions.

    Evaluates the decomposition-free cofactor expansion: quadratic forms
    (p_i - f)^T M (p_i - f) against the minors of rows (p_j - f), scaled by
    sqrt(det M).  With exact arithmetic the sign equals the standard
    scaled-points formulation for any factor G with G^T G = M.
    """
    pts = [tuple(float(c) for c in p) for p in pts]
    d = len(pts[0])
    if len(pts) != d + 2:
        raise ValueError(f"in-hypersphere in {d}D needs {d + 2} points, got {len(pts)}")
    mrows, mdiag, pref = _metric_info(M, d)

    if d == 4:
        # two-tier path: the integer-exact stage is cheaper than an 80-bit
        # retry here, so uncertified floats escalate straight to exact
        value = None
        if mode != "exact":
            total, mag = _insphere4_core(pts, mrows, mdiag)
            value = pref * total
            if mode == "float" or abs(total) > _INSPHERE_SAFETY * _EPS * mag:
                sign = 0 if total == 0.0 else (1 if total > 0.0 else -1)
                return PredicateResult(sign, value, "float")
        sign = _insphere4_exact_sign(pts, mrows)
        if value is None:
            value = pref * _insphere4_core(pts, mrows, mdiag)[0]
        return PredicateResult(sign, value, "exact")

    if mode != "exact":
        us, qs = _insphere_terms(pts, mrows)
        total, mag = _insphere_bracket_float(us, qs, d, _det_mag)
        bound = _INSPHERE_SAFETY * _EPS * mag
        if mode == "float" or abs(total) > bound:
            sign = 0 if total == 0.0 else (1 if total > 0.0 else -1)
            return PredicateResult(sign, pref * total, "float")

    us, qs = _insphere_terms(pts, mrows, cast=Fraction)
    parity = 1 if d % 2 == 0 else -1
    total = Fraction(0)
    sign_i = parity
    for i in range(d + 1):
        rows = us[:i] + us[i + 1:]
        total += sign_i * qs[i][0] * _det_exact(rows)
        sign_i = -sign_i
    sign = 0 if total == 0 else (1 if total > 0 else -1)
    return PredicateResult(sign, pref * float(total), "exact")


def inhypersphere4(a, b, c, d, e, f, mode: str = "auto") -> PredicateResult:
    """Euclidean in-hypersphere test for five 4D points and a query point.

    For positively oriented (a..e), a positive sign means f lies strictly
    inside the circumhypersphere; swapping two of the first five arguments
    flips the sign.
    """
    return inhypersphere_m_d(None, (a, b, c, d, e, f), mode=mode)


def inhypersphere_m(M, a, b, c, d, e, f, mode: str = "auto") -> PredicateResult:
    """Metric in-hypersphere test (decomposition-free formulation)."""
    if M is None:
        raise ValueError("inhypersphere_m requires a metric; use inhypersphere4")
    return inhypersphere_m_d(M, (a, b, c, d, e, f), mode=mode)


# ---------------------------------------------------------------------------
# the standard (decompose-and-scale) route
# ---------------------------------------------------------------------------

def decompose_metric(M, kind: str = "cholesky") -> MetricDecomposition:
    """Factor M = G^T G by Cholesky (upper triangular) or the symmetric root.

    Also reports the Frobenius reconstruction error ||M - G^T G||_F, the
    quantity that pollutes standard-route predicates in float arithmetic.
    """
    m = np.asarray(M, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("metric must be square")
    m = 0.5 * (m + m.T)
    if kind == "cholesky":
        try:
            G = np.linalg.cholesky(m).T  # upper triangular, G^T G = M
        except np.linalg.LinAlgError:
            raise ValueError("metric is not positive definite") from None
    elif kind == "sqrt":
        w, V = np.linalg.eigh(m)
        if w.min() <= 0.0:
            raise ValueError("metric is not positive definite")
        G = (V * np.sqrt(w)) @ V.T
    else:
        raise ValueError(f"unknown decomposition kind {kind!r}")
    err = float(np.linalg.norm(m - G.T @ G, "fro"))
    return MetricDecomposition(kind, G, err)


def scale_points_standard(G, pts):
    """Replace each point by G @ point (inputs to ordinary predicates)."""
    if isinstance(G, MetricDecomposition):
        G = G.G
    G = np.asarray(G, dtype=float)
    return [tuple(G @ np.asarray(p, dtype=float)) for p in pts]


def _fraction_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a rational, if it is a perfect square."""
    if x < 0:
        raise ValueError("negative pivot")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError("pivot is not a perfect rational square")
    return Fraction(rn, rd)


def exact_rational_cholesky(M) -> list[list[Fraction]]:
    """Upper-triangular rational G with G^T G = M, exactly.

    Succeeds when every pivot is a perfect rational square (e.g. whenever
    M was assembled as C^T C from a rational triangular C); raises
    ValueError otherwise.
    """
    n = len(M)
    m = [[Fraction(M[i][j]) for j in range(n)] for i in range(n)]
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        s = m[i][i] - sum(G[k][i] * G[k][i] for k in range(i))
        if s <= 0:
            raise ValueError("matrix is not positive definite")
        G[i][i] = _fraction_sqrt(s)
        for j in range(i + 1, n):
            s = m[i][j] - sum(G[k][i] * G[k][j] for k in range(i))
            G[i][j] = s / G[i][i]
    return G
