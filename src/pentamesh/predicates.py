"""Robust orientation and in-hypersphere predicates.

Two formulations are provided for metric-weighted tests:

* the *standard* route, which factors the metric ``M = G^T G`` and feeds
  ``G``-scaled points to ordinary Euclidean predicates, and
* the *alternative* route, which weights the cofactor expansion with the
  quadratic forms ``(x-f)^T M (x-f)`` and a ``sqrt(det M)`` prefactor and
  never decomposes the metric.

Signs are exact on demand, in two tiers (Shewchuk's filter pattern): a
forward-error filter certifies the double precision result when it can
(a bound of 16 eps for orientation, 64 eps for in-hypersphere, times the
magnitude of the expansion), and otherwise the sign is evaluated exactly.
In 4D the exact tier is an integer lift of the query point (:class:`_Lift`):
the float inputs, dyadic rationals, become integers at one binary scale and
the float expansions (pair minors, ``_laplace4``) run on them; cavity growth
shares one lift among an insertion's uncertified rows, and the audit one
among a query vertex's.  Other dimensions
use one rational bracket, :func:`_insphere_exact`, and fraction-free
elimination.  There is no 80-bit middle tier: on
near-degenerate 4D input an extended-precision retry costs more than the
integer-exact sign and still has to fall through to it when it fails.

The filter bounds hold only while no product rounds in the subnormal
range, where the relative error of a double is unbounded.  An input that
is an integer multiple of ``2**-g`` makes every degree-n product a
multiple of ``2**-(n g)``, and such a product is exact whenever it is
subnormal if ``n g <= 1074``.  Inputs too fine for that (nonzero
coordinates below about ``1e-38`` for the 4D in-hypersphere test) skip
the filter and go to the exact tier.

The 4D float brackets ``_insphere4_core`` and ``_orient4_core`` are
array-shaped: each tests k simplices (or facets) against one query point,
a BFS layer of a cavity or the facets of a walk step or cavity boundary.
Both take the factors of their 2x2 pair minors in one flat gather from a
table of ``_gather_table`` and form the minors in ``_minor_step``.  They
use elementwise ufuncs only, each sum spelled out term by term in the
scalar expansion's order, so every row equals the one-row result bit for
bit and a batched caller certifies and escalates exactly the rows a
per-element caller would.  Reductions that reorder or fuse the additions
(``sum``, ``einsum``, ``@``, ``dot``, ``linalg``) must not be used in
them.  :func:`orientation4` is a one-row call of ``_orient4_core``.

Sign conventions
----------------
``orientation(..)`` is the determinant of rows ``(p_i - p_last)``.  For the
in-hypersphere tests, a query point strictly inside the circumhypersphere
of a *positively oriented* simplex yields a positive sign; the sign flips
with the orientation of the first d+1 arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .geometry import Metric4, _grain, _laplace4, _pair_minors, _scale_to_ints

__all__ = [
    "MetricDecomposition",
    "PredicateResult",
    "decompose_metric",
    "inhypersphere4",
    "inhypersphere_m_d",
    "orientation4",
    "orientation_m_d",
    "scale_points_standard",
]

_EPS = float(np.finfo(np.float64).eps) / 2.0          # 1.11e-16
_ORIENT_SAFETY = 16.0
_INSPHERE_SAFETY = 64.0
_SUBNORMAL_GRAIN = 1074                                # 2**-1074 is the least double


@dataclass(frozen=True)
class PredicateResult:
    """Sign of a geometric predicate plus an informational float value.

    ``exactness`` records the tier that certified the sign: ``"float"``
    when the double precision filter did, ``"exact"`` otherwise.
    """

    sign: int
    value: float
    exactness: str


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


@functools.lru_cache(maxsize=64)
def _least_input(degree: int, metric=None) -> float:
    """Least nonzero input magnitude at which a filter's error bound holds.

    A double of frexp exponent e is an integer multiple of 2**(e - 53).  If
    every nonzero input has exponent at least e, a product of ``degree``
    inputs and one entry of ``metric`` (diagonal or nested rows, None for
    the identity) is a multiple of 2**-(degree (53 - e) + g_m), with g_m the
    grain of the finest metric entry, and it is exact when subnormal as long
    as that exponent is at most 1074.
    """
    g_m = 0
    if metric is not None:
        entries = np.abs(np.ravel(metric))
        g_m = 53 - math.frexp(float(entries[entries > 0].min()))[1]
    e = math.ceil(53 - (_SUBNORMAL_GRAIN - g_m) / degree)
    return math.ldexp(1.0, e - 1)


def _coarse(values, least: float) -> bool:
    """Whether every nonzero value is at least ``least`` in magnitude."""
    for c in values:
        if c and -least < c < least:
            return False
    return True


# ---------------------------------------------------------------------------
# determinants with error magnitudes
# ---------------------------------------------------------------------------

def _det_mag(rows):
    """Determinant of square rows and a magnitude bound of its rounding error."""
    if len(rows) == 4:
        det, mag = _orient4_core(np.array([rows], dtype=float), (0.0, 0.0, 0.0, 0.0))
        return float(det[0]), float(mag[0])
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
    # a Hadamard-style bound for the generic determinant
    a = np.array(rows, dtype=float)
    n = len(a)
    return float(np.linalg.det(a)), float(np.prod(np.sqrt((a * a).sum(axis=1)))) * n * n


class _Lift:
    """Exact signs against one query point p from integer rows u = x - p.

    ``points`` maps keys to points whose coordinates, like p's, are
    multiples of ``2**-grain``, so ``2**grain`` times each is an integer and
    every determinant keeps its sign; so does the in-sphere sign under a
    positive multiple of the metric, which is scaled to integers too.  A
    key's row and quadratic form and an ordered key pair's six minors are
    built once, when a sign first needs them.
    """

    def __init__(self, points, p, grain: int, mrows=None, mdiag=None):
        self.points, self.grain = points, max(grain, _grain(p))
        self.p = [self._int(c) for c in p]
        self.rows, self.minors = {}, {}
        if mdiag is not None or mrows is None:
            self.mrows, self.mdiag = None, _scale_to_ints(mdiag or (1, 1, 1, 1))[0]
        else:
            m = _scale_to_ints([x for row in mrows for x in row])[0]
            self.mrows = [m[4 * i:4 * i + 4] for i in range(4)]

    def _int(self, x) -> int:
        n, d = x.as_integer_ratio()
        return n << (self.grain + 1 - d.bit_length())  # raises if x is finer

    def _row(self, v):
        row = self.rows.get(v)
        if row is None:
            u = u0, u1, u2, u3 = [self._int(x) - c for x, c in zip(self.points[v], self.p)]
            if self.mrows is None:
                d0, d1, d2, d3 = self.mdiag
                q = d0 * u0 * u0 + d1 * u1 * u1 + d2 * u2 * u2 + d3 * u3 * u3
            else:
                q = sum(u[i] * sum(m * x for m, x in zip(self.mrows[i], u)) for i in range(4))
            row = self.rows[v] = (u, q)
        return row

    def _pm(self, a, b):
        m = self.minors.get((a, b))
        if m is None:
            m = self.minors[a, b] = _pair_minors(self._row(a)[0], self._row(b)[0])
        return m

    def orient(self, a, b, c, d) -> int:
        """Sign of det(a - p, b - p, c - p, d - p) of four keys."""
        det = _laplace4(self._pm(a, b), self._pm(c, d))
        return (det > 0) - (det < 0)

    def insphere(self, keys) -> int:
        """Exact metric in-hypersphere sign of the simplex of five keys against p."""
        a, b, c, d, e = keys
        pm, rows = self._pm, self.rows  # the minors build the five rows
        m01, m02, m12, m23, m24, m34 = pm(a, b), pm(a, c), pm(b, c), pm(c, d), pm(c, e), pm(d, e)
        total = (rows[a][1] * _laplace4(m12, m34) - rows[b][1] * _laplace4(m02, m34)
                 + rows[c][1] * _laplace4(m01, m34) - rows[d][1] * _laplace4(m01, m24)
                 + rows[e][1] * _laplace4(m01, m23))
        return (total > 0) - (total < 0)


# Gather tables of the array brackets.  A row-major corner array of width 4
# flattens to entry 4 row + column; a table lists, per pair minor
# x1 x2 - y1 y2, the flat indices of its factors x1, x2, y1, y2.
_PAIR_COLS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _gather_table(blocks):
    """(4, m) flat factor indices of the pair minors of ``(row a, row b, column pairs)`` blocks."""
    return np.array([(4 * a + i, 4 * b + j, 4 * a + j, 4 * b + i)
                     for a, b, cols in blocks for i, j in cols]).T


def _minor_step(U):
    """Pair minors x1 x2 - y1 y2 and magnitudes |x1 x2| + |y1 y2| of gathered factors."""
    X = U[0] * U[1]
    Y = U[2] * U[3]
    return X - Y, np.abs(X) + np.abs(Y)


# The orientation bracket's twelve minors: those of rows 0 1 in column order
# 01 02 03 12 13 23, then those of rows 2 3 in the order 23 13 12 03 02 01
# that meets them term by term.
_ORIENT_GATHER = _gather_table(((0, 1, _PAIR_COLS), (2, 3, _PAIR_COLS[::-1])))

# The in-sphere bracket's six shared row pairs 01 02 12 23 24 34, six
# minors each, minor 6 pair + column pair.  Each of the five determinants
# (row i left out) is expanded across a top and a bottom row pair, 12 02 01
# 01 01 over 34 34 34 24 23; term t multiplies top minor t with bottom minor
# 5 - t, so column order 01 02 03 12 13 23 meets 23 13 12 03 02 01.
_INSPHERE_GATHER = _gather_table([(a, b, _PAIR_COLS)
                                  for a, b in ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))])
_DET_TOP = 6 * np.array([2, 1, 0, 0, 0]) + np.arange(6)[:, None]      # (6 terms, 5 dets)
_DET_BOT = 6 * np.array([5, 5, 5, 4, 3]) + 5 - np.arange(6)[:, None]


def _orient4_core(F, p):
    """Determinants det(a-p, b-p, c-p, d-p) of k facets and their term magnitudes.

    ``F`` holds the corners (a, b, c, d) as a ``(k, 4, 4)`` array; the result
    is a pair of ``(k,)`` arrays.  The Laplace expansion over the pair minors
    of rows ab and cd runs in ``_det4``'s order, so every row equals
    ``_det4`` bit for bit.  One gather lays out the minors' factors.
    """
    U = (F - np.asarray(p, dtype=float)).reshape(-1, 16).T[_ORIENT_GATHER]  # (4, 12, k)
    with np.errstate(over="ignore", invalid="ignore"):
        minor, mmag = _minor_step(U)
        T = minor[:6] * minor[6:]
        det = T[0] - T[1] + T[2] + T[3] - T[4] + T[5]
        T = mmag[:6] * mmag[6:]
        mag = T[0] + T[1] + T[2] + T[3] + T[4] + T[5]
    return det, mag


def _orient4_certified(F, p, det, mag):
    """Rows of an :func:`_orient4_core` result whose float sign is certified."""
    least = _least_input(4)
    certified = (np.abs(det) > _ORIENT_SAFETY * _EPS * mag) & _coarse(p, least)
    fine = np.abs(F) < least
    if fine.any():
        certified &= ~(fine & (F != 0.0)).any(axis=(1, 2))
    return certified


def _insphere4_core(P, f, mrows, mdiag):
    """Value and magnitude of the 4D in-hypersphere bracket for k simplices.

    ``P`` holds the corners as a ``(k, 5, 4)`` array and ``f`` is the query
    point; the result is a pair of ``(k,)`` arrays.  The five 4x4
    determinants of the cofactor expansion share their 2x2 pair minors;
    only six of the ten row pairs are needed when each determinant is
    expanded across its first and last two rows.  Diagonal metrics take a
    reduced quadratic-form path.

    Every sum is written out term by term with elementwise ufuncs, in the
    order of the scalar expansion, so each row is the IEEE result of that
    expansion bit for bit.  Reductions (``sum``, ``einsum``, ``@``) would
    reorder or fuse the additions and must not be used here.
    """
    U = P - np.asarray(f, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if mrows is None:
            S = U * U
            qs = S[:, :, 0] + S[:, :, 1] + S[:, :, 2] + S[:, :, 3]
            qmags = qs
        elif mdiag is not None:
            S = np.array(mdiag) * U * U
            qs = S[:, :, 0] + S[:, :, 1] + S[:, :, 2] + S[:, :, 3]
            qmags = qs  # all terms non-negative
        else:
            RU = np.array(mrows) * U[:, :, None, :]   # row[i][j] * u[j]
            A = np.abs(RU)
            s = RU[..., 0] + RU[..., 1] + RU[..., 2] + RU[..., 3]
            smag = A[..., 0] + A[..., 1] + A[..., 2] + A[..., 3]
            V = U * s
            W = np.abs(U) * smag
            qs = 0.0 + V[:, :, 0] + V[:, :, 1] + V[:, :, 2] + V[:, :, 3]
            qmags = 0.0 + W[:, :, 0] + W[:, :, 1] + W[:, :, 2] + W[:, :, 3]

        minor, mmag = _minor_step(U.reshape(-1, 20).T[_INSPHERE_GATHER])  # (36, k)
        T = minor[_DET_TOP] * minor[_DET_BOT]   # (6 terms, 5 dets, k)
        dets = T[0] - T[1] + T[2] + T[3] - T[4] + T[5]
        T = mmag[_DET_TOP] * mmag[_DET_BOT]
        dmags = T[0] + T[1] + T[2] + T[3] + T[4] + T[5]

        T = qs.T * dets
        total = T[0] - T[1] + T[2] - T[3] + T[4]
        T = qmags.T * dmags
        mag = T[0] + T[1] + T[2] + T[3] + T[4]
    return total, mag


def _insphere4_certified(P, f, total, mag, mrows, mdiag):
    """Rows of a :func:`_insphere4_core` result whose float sign is certified."""
    least = _least_input(6, mdiag if mdiag is not None else mrows)
    A = np.abs(P)
    coarse = ((A >= least) | (A == 0.0)).all(axis=(1, 2)) & _coarse(f, least)
    return (np.abs(total) > _INSPHERE_SAFETY * _EPS * mag) & coarse


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

    det, mag = _det_mag(_orientation_rows(pts))
    if mode == "float" or (mode != "exact" and abs(det) > _ORIENT_SAFETY * _EPS * mag
                           and _coarse(chain.from_iterable(pts), _least_input(d))):
        sign = 0 if det == 0.0 else (1 if det > 0.0 else -1)
        return PredicateResult(sign, pref * det, "float")
    if d == 4:
        sign = _Lift(pts, pts[4], _grain(chain.from_iterable(pts))).orient(0, 1, 2, 3)
        return PredicateResult(sign, pref * det, "exact")
    det = _det_exact(_orientation_rows(pts, cast=Fraction))
    sign = 0 if det == 0 else (1 if det > 0 else -1)
    return PredicateResult(sign, pref * float(det), "exact")


def orientation4(a, b, c, d, e, mode: str = "auto") -> PredicateResult:
    """Sign of det[(a-e); (b-e); (c-e); (d-e)] with exact escalation."""
    return orientation_m_d(None, (a, b, c, d, e), mode=mode)


# ---------------------------------------------------------------------------
# in-hypersphere
# ---------------------------------------------------------------------------

def _insphere_terms(pts, mrows):
    """Quadratic forms Q_i and difference rows u_i = p_i - f, in floats."""
    f = pts[-1]
    d = len(f)
    us = [tuple(p[j] - f[j] for j in range(d)) for p in pts[:-1]]
    qs = []
    for u in us:
        if mrows is None:
            q = sum(x * x for x in u)
            qs.append((q, q))
        else:
            val = 0.0
            mag = 0.0
            for i in range(d):
                s = 0.0
                smag = 0.0
                for j in range(d):
                    s += mrows[i][j] * u[j]
                    smag += abs(mrows[i][j] * u[j])
                val += u[i] * s
                mag += abs(u[i]) * smag
            qs.append((val, mag))
    return us, qs


def _insphere_bracket_float(us, qs, d):
    """(-1)^d sum_i (-1)^i Q_i det(rows without i), with magnitude bound."""
    total = 0.0
    mag = 0.0
    parity = 1 if d % 2 == 0 else -1
    sign = parity
    for i in range(d + 1):
        rows = us[:i] + us[i + 1:]
        det, dmag = _det_mag(rows)
        q, qmag = qs[i]
        total += sign * q * det
        mag += qmag * dmag
        sign = -sign
    return total, mag


def _insphere_exact(pts, mrows) -> Fraction:
    """(-1)^d sum_i (-1)^i Q_i det(rows without i) of d+2 points, exactly.

    Points and metric rows may hold floats, ints or ``Fraction``s; all are
    converted to ``Fraction`` without rounding.  ``mrows`` None means the
    identity metric.  No ``sqrt(det M)`` prefactor is applied.
    """
    f = [Fraction(x) for x in pts[-1]]
    d = len(f)
    us = [tuple(Fraction(p[j]) - f[j] for j in range(d)) for p in pts[:-1]]
    if mrows is not None:
        mrows = [[Fraction(x) for x in row] for row in mrows]
    total = Fraction(0)
    sign = 1 if d % 2 == 0 else -1
    for i, u in enumerate(us):
        if mrows is None:
            q = sum(x * x for x in u)
        else:
            q = sum(u[a] * sum(mrows[a][b] * u[b] for b in range(d)) for a in range(d))
        total += sign * q * _det_exact(us[:i] + us[i + 1:])
        sign = -sign
    return total


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
        P = np.array([pts[:5]])
        totals, mags = _insphere4_core(P, pts[5], mrows, mdiag)
        total = float(totals[0])
        if mode == "float" or (mode != "exact" and _insphere4_certified(
                P, pts[5], totals, mags, mrows, mdiag)[0]):
            sign = 0 if total == 0.0 else (1 if total > 0.0 else -1)
            return PredicateResult(sign, pref * total, "float")
        lift = _Lift(pts, pts[5], _grain(chain.from_iterable(pts)), mrows, mdiag)
        return PredicateResult(lift.insphere(range(5)), pref * total, "exact")

    if mode != "exact":
        us, qs = _insphere_terms(pts, mrows)
        total, mag = _insphere_bracket_float(us, qs, d)
        if mode == "float" or (abs(total) > _INSPHERE_SAFETY * _EPS * mag
                               and _coarse(chain.from_iterable(pts),
                                           _least_input(d + 2, mrows))):
            sign = 0 if total == 0.0 else (1 if total > 0.0 else -1)
            return PredicateResult(sign, pref * total, "float")

    total = _insphere_exact(pts, mrows)
    sign = 0 if total == 0 else (1 if total > 0 else -1)
    return PredicateResult(sign, pref * float(total), "exact")


def inhypersphere4(a, b, c, d, e, f, mode: str = "auto") -> PredicateResult:
    """Euclidean in-hypersphere test for five 4D points and a query point.

    For positively oriented (a..e), a positive sign means f lies strictly
    inside the circumhypersphere; swapping two of the first five arguments
    flips the sign.
    """
    return inhypersphere_m_d(None, (a, b, c, d, e, f), mode=mode)


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
