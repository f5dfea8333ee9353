import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pentamesh.geometry import Metric4, _det4, _det_mag, _grain, hypervolume_exact
from pentamesh.predicates import (
    _EPS,
    _INSPHERE_SAFETY,
    _ORIENT_SAFETY,
    _Lift,
    _insphere4_certified,
    _insphere4_core,
    _insphere_bracket,
    _metric_info,
    _orient4_certified,
    _orient4_core,
    _orientation_rows,
    _safety,
    decompose_metric,
    inhypersphere4,
    inhypersphere_m_d,
    orientation4,
    orientation_m_d,
    scale_points_standard,
)
from conftest import (
    circumsphere,
    det_fraction,
    hypervolume_fraction,
    insphere_fraction,
    insphere_sign_fraction,
    orientation_sign_fraction,
    random_pentatope,
    spd_metric,
)

E = np.eye(4)
O4 = np.zeros(4)


class TestOrientation:
    def test_identity_determinant(self):
        r = orientation4(E[0], E[1], E[2], E[3], O4)
        assert (r.sign, r.value) == (1, 1.0)

    def test_row_swap(self):
        r = orientation4(E[1], E[0], E[2], E[3], O4)
        assert r.sign == -1

    def test_coplanar_exact_zero(self):
        r = orientation4((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                         (0, 0, 1, 0), (1, 1, 1, 0))
        assert r.sign == 0 and r.exactness == "exact"

    def test_metric_prefactor(self):
        m = np.diag([1.0, 1.0, 1.0, 4.0])
        r = orientation_m_d(m, (E[0], E[1], E[2], E[3], O4))
        assert r.sign == 1
        assert r.value == pytest.approx(2.0)

    def test_metric_never_flips_sign(self, rng):
        for _ in range(1000):
            pts = rng.normal(size=(5, 4))
            m = spd_metric(rng)
            plain = orientation4(*pts)
            weighted = orientation_m_d(m, pts)
            assert plain.sign == weighted.sign

    def test_requires_spd(self):
        with pytest.raises(ValueError):
            orientation_m_d(np.diag([1.0, 1.0, 1.0, -1.0]), np.random.rand(5, 4))


class TestInHypersphere:
    def test_inside_origin(self):
        # five points on the unit hypersphere, query at the center
        pts = [E[0], -E[0], E[1], E[2], E[3]]
        r = inhypersphere4(*pts, O4)
        o = orientation4(*pts)
        assert r.sign == o.sign  # inside <=> sign matches orientation
        # positively oriented arrangement reports inside as positive
        pts_pos = [-E[0], E[0], E[1], E[2], E[3]] if o.sign < 0 else pts
        assert inhypersphere4(*pts_pos, O4).sign == orientation4(*pts_pos).sign == 1

    def test_on_sphere_zero(self):
        pts = [E[0], -E[0], E[1], E[2], E[3]]
        r = inhypersphere4(*pts, E[0])
        assert r.sign == 0 and r.exactness == "exact"

    def test_far_outside(self):
        pts = [E[0], -E[0], E[1], E[2], E[3]]
        far = inhypersphere4(*pts, (50.0, 1.0, 2.0, 3.0))
        inside = inhypersphere4(*pts, O4)
        assert far.sign == -inside.sign != 0

    def test_circumcenter_distance_oracle(self, rng):
        for _ in range(300):
            pts = random_pentatope(rng, min_vol=1e-4)
            c, r2 = circumsphere(pts)
            o = orientation4(*pts).sign
            step = rng.normal(size=4)
            step /= np.linalg.norm(step)
            inside_pt = c + step * 0.5 * math.sqrt(r2)
            outside_pt = c + step * 2.0 * math.sqrt(r2)
            assert inhypersphere4(*pts, inside_pt).sign == o
            assert inhypersphere4(*pts, outside_pt).sign == -o

    def test_antisymmetry_exact(self, rng):
        for _ in range(100):
            pts = [tuple(p) for p in rng.normal(size=(6, 4))]
            r = inhypersphere4(*pts, mode="exact")
            i, j = rng.choice(5, size=2, replace=False)
            swapped = list(pts)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert inhypersphere4(*swapped, mode="exact").sign == -r.sign


class TestMetricInHypersphere:
    def test_identity_matches_plain(self, rng):
        for _ in range(100):
            pts = [tuple(p) for p in rng.normal(size=(6, 4))]
            a = inhypersphere4(*pts)
            b = inhypersphere_m_d(np.eye(4), pts)
            assert a.sign == b.sign
            assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-300)

    def test_metric_unit_sphere(self):
        # under diag(1,1,1,4) the point (0,0,0,1/2) has metric norm 1
        m = np.diag([1.0, 1.0, 1.0, 4.0])
        pts = [E[0], -E[0], E[1], E[2], (0.0, 0.0, 0.0, 0.5)]
        inside = inhypersphere_m_d(m, [*pts, O4])
        o = orientation4(*pts)
        assert inside.sign == o.sign

    def test_matches_exact_scaled_route(self, rng):
        # alternative vs standard formulation, both in exact arithmetic
        for _ in range(200):
            pts = [tuple(p) for p in rng.normal(size=(6, 4))]
            m = spd_metric(rng)
            got = inhypersphere_m_d(m, pts, mode="exact")
            assert got.sign == insphere_sign_fraction(pts, m)

    def test_sign_escalation_soundness(self, rng):
        # perturbed cospherical queries: certified float signs equal exact
        mismatches = 0
        for _ in range(1500):
            pts = random_pentatope(rng, min_vol=1e-4)
            c, r2 = circumsphere(pts)
            step = rng.normal(size=4)
            step /= np.linalg.norm(step)
            f = c + step * math.sqrt(r2) * (1.0 + rng.uniform(-1e-13, 1e-13))
            res = inhypersphere4(*pts, f)
            if res.sign != insphere_sign_fraction(list(pts) + [f]):
                mismatches += 1
        assert mismatches == 0


class TestGeneralDimension:
    def test_d2_circumcircle(self):
        tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        inside = inhypersphere_m_d(np.eye(2), tri + [(1.0 / 3.0, 1.0 / 3.0)])
        o = orientation_m_d(np.eye(2), tri)
        assert inside.sign == o.sign == 1

    def test_d3_insphere(self):
        tet = [(0.0, 0, 0), (1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)]
        o = orientation_m_d(np.eye(3), tet)
        centroid = tuple(np.mean(tet, axis=0))
        inside = inhypersphere_m_d(np.eye(3), tet + [centroid])
        assert inside.sign == o.sign

    def test_d4_bit_identical(self, rng):
        for _ in range(50):
            pts = [tuple(p) for p in rng.normal(size=(6, 4))]
            m = spd_metric(rng)
            a = inhypersphere_m_d(Metric4(m), pts)
            b = inhypersphere_m_d(m, pts)
            assert (a.sign, a.value, a.exactness) == (b.sign, b.value, b.exactness)
            ra = orientation_m_d(Metric4(m), pts[:5])
            rb = orientation_m_d(m, pts[:5])
            assert (ra.sign, ra.value, ra.exactness) == (rb.sign, rb.value, rb.exactness)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            orientation_m_d(np.eye(3), [(0, 0, 0)] * 3)
        with pytest.raises(ValueError):
            inhypersphere_m_d(np.eye(2), [(0, 0)] * 3)


def _rejected_metrics():
    """(d, metric, message): bad metrics that every dimension rejects alike."""
    for d in (2, 3, 4, 5):
        for bad in (math.nan, math.inf, -math.inf):
            on, off = np.eye(d), np.eye(d)
            on[d - 1, d - 1] = bad
            off[0, 1] = off[1, 0] = bad
            yield pytest.param(d, on, "non-finite", id=f"{d}d-diagonal-{bad}")
            yield pytest.param(d, off, "non-finite", id=f"{d}d-off-diagonal-{bad}")
        asymmetric = np.eye(d)
        asymmetric[0, 1] = 0.5
        yield pytest.param(d, asymmetric, "not symmetric", id=f"{d}d-asymmetric")
        # indefinite with determinant +1
        yield pytest.param(d, np.diag([-1.0, -1.0] + [1.0] * (d - 2)), "not positive definite",
                           id=f"{d}d-indefinite")
        yield pytest.param(d, np.eye(d + 1), rf"must be {d}x{d}, got .*\({d + 1}, {d + 1}\)",
                           id=f"{d}d-shape")


@pytest.mark.parametrize("d,metric,message", _rejected_metrics())
def test_every_dimension_validates_a_metric_alike(d, metric, message):
    simplex = [tuple(row) for row in np.vstack([np.zeros(d), np.eye(d)])]
    with pytest.raises(ValueError, match=message):
        orientation_m_d(metric, simplex)
    with pytest.raises(ValueError, match=message):
        inhypersphere_m_d(metric, simplex + [(0.25,) * d])


# one ulp off the diag(1, 1, 1, 4) unit sphere through a subnormal coordinate:
# the exact bracket is 0, the float bracket underflows to 64 * 2**-1074
SUBNORMAL_CASE = ([(5e-324, -2.0, -2.0, -0.5), (0.0, -2.0, -2.0, 0.5),
                   (0.0, -2.0, -1.0, -1.0), (-3.0, 0.0, 0.0, 0.0),
                   (0.0, -2.0, -1.0, 1.0), (0.0, -2.0, 1.0, -1.0)],
                  Metric4(np.diag([1.0, 1.0, 1.0, 4.0])))


class TestSubnormalInputs:
    def test_insphere_underflow_is_not_certified(self):
        pts, metric = SUBNORMAL_CASE
        assert inhypersphere_m_d(metric, pts, mode="float").sign == 1
        res = inhypersphere_m_d(metric, pts)
        assert (res.sign, res.exactness) == (0, "exact")

    def test_cavity_rows_escalate_like_scalar(self):
        pts, metric = SUBNORMAL_CASE
        mrows, mdiag, _ = _metric_info(metric, 4)
        P = np.array([pts[:5], np.vstack([np.eye(4), np.zeros(4)])])
        total, mag = _insphere4_core(P, pts[5], mrows, mdiag)
        certified = _insphere4_certified(P, pts[5], total, mag, mrows, mdiag)
        assert certified.tolist() == [False, True]

    def test_facet_rows_escalate_like_scalar(self):
        F = np.array([[(5e-324, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, 1.0, 0), (0, 0, 0, 1.0)],
                      np.eye(4)])
        det, mag = _orient4_core(F, O4)
        assert _orient4_certified(F, O4, det, mag).tolist() == [False, True]
        assert orientation4(*F[0], O4).exactness == "exact"

    def test_orientation_fine_grain_is_exact(self):
        pts = [(1.0, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, 1.0, 0), (0, 0, 0, 1.0), (5e-324, 0, 0, 0)]
        res = orientation4(*pts)
        assert (res.sign, res.exactness) == (1, "exact")
        pts[4] = (2.0 ** -250, 0, 0, 0)
        assert orientation4(*pts).exactness == "exact"
        pts[4] = (2.0 ** -100, 0, 0, 0)
        assert orientation4(*pts).exactness == "float"

    def test_general_dimension_fine_grain_is_exact(self):
        tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        res = inhypersphere_m_d(np.eye(2), tri + [(5e-324, 5e-324)])
        assert (res.sign, res.exactness) == (1, "exact")


class TestStandardRoute:
    def test_scale_identity(self, rng):
        pts = [tuple(p) for p in rng.normal(size=(3, 4))]
        assert scale_points_standard(np.eye(4), pts) == pytest.approx(pts)

    def test_scale_diagonal(self):
        out = scale_points_standard(np.diag([1.0, 1.0, 1.0, 2.0]), [(0, 0, 0, 1)])
        assert out[0] == pytest.approx((0, 0, 0, 2))

    def test_decompose_identity(self):
        dec = decompose_metric(np.eye(4), "cholesky")
        assert np.allclose(dec.G, np.eye(4)) and dec.error == 0.0

    def test_decompose_diag(self):
        dec = decompose_metric(np.diag([4.0, 1.0, 1.0, 1.0]), "cholesky")
        assert np.allclose(dec.G, np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_decompose_properties(self, rng):
        for kind in ("cholesky", "sqrt"):
            m = spd_metric(rng)
            dec = decompose_metric(m, kind)
            assert np.allclose(dec.G.T @ dec.G, m, rtol=1e-10)
            assert np.linalg.det(dec.G) > 0.0
            if kind == "sqrt":
                assert np.allclose(dec.G, dec.G.T)

    def test_decomposition_error_grows_with_dimension(self, rng):
        errors = {}
        for d in (2, 10):
            total = 0.0
            for _ in range(50):
                S = rng.uniform(0.0, 10.0, size=(d, d))
                total += decompose_metric(S.T @ S, "cholesky").error
            errors[d] = total / 50
        assert errors[10] > errors[2]

    def test_scaled_route_equals_metric_sign(self, rng):
        for _ in range(200):
            pts = rng.normal(size=(5, 4))
            m = spd_metric(rng)
            dec = decompose_metric(m, "cholesky")
            scaled = scale_points_standard(dec, pts)
            assert orientation4(*scaled).sign == orientation_m_d(m, pts).sign



# ---------------------------------------------------------------------------
# property tests against the Fraction oracles
# ---------------------------------------------------------------------------

# wide exponents: a shared shift of up to 2**+-100 times per-coordinate
# factors of up to 2**+-40 keeps the degree-6 bracket inside double range
MANTISSA = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def wide_points(draw, n, d=4):
    shift = draw(st.integers(-100, 100))
    return [tuple(math.ldexp(draw(MANTISSA), shift + draw(st.integers(-40, 40)))
                  for _ in range(d)) for _ in range(n)]


@st.composite
def clustered_points(draw, n):
    """n points of similar magnitude, offset from the origin, scaled by 2**shift.

    Every term of a sum counts here, so a reordered sum shows in the bits.
    """
    shift = draw(st.integers(-60, 60))
    offset = [draw(st.sampled_from([0, 1, -3, 1000, -10 ** 4])) for _ in range(4)]
    return [tuple(math.ldexp(draw(MANTISSA) + o, shift) for o in offset) for _ in range(n)]


@st.composite
def metrics(draw):
    """None (identity), a diagonal Metric4, or a full SPD Metric4."""
    kind = draw(st.sampled_from(["identity", "diagonal", "full"]))
    if kind == "identity":
        return None
    entry = st.floats(0.01, 100.0)
    if kind == "diagonal":
        return Metric4(np.diag([draw(entry) for _ in range(4)]))
    S = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(4)] for _ in range(4)])
    return Metric4(S.T @ S + draw(entry) * np.eye(4))


def _oracle_metric(metric):
    return metric.rows if isinstance(metric, Metric4) else metric


# every point with |x|^2 = 9 among the sign flips and permutations of
# (1, 2, 2, 0) and (3, 0, 0, 0): exactly cospherical about the origin
SPHERE_9 = sorted({tuple(s * c for s, c in zip(signs, perm))
                   for base in ((1, 2, 2, 0), (3, 0, 0, 0))
                   for perm in itertools.permutations(base)
                   for signs in itertools.product((1, -1), repeat=4)})

# in the other dimensions, the points with |x|^2 = 25 among the sign flips
# and permutations of (3, 4, 0, ..) and (5, 0, ..)
SPHERE_25 = {d: sorted({tuple(s * c for s, c in zip(signs, perm))
                        for base in ((3, 4) + (0,) * (d - 2), (5,) + (0,) * (d - 1))
                        for perm in itertools.permutations(base)
                        for signs in itertools.product((1, -1), repeat=d)})
             for d in (2, 3, 5)}


@st.composite
def cospherical(draw, n, d=4):
    """n distinct points on one metric sphere, as exact floats, and the metric.

    Coordinates are scaled by a power of two and offset by integers.  With
    the diagonal metric diag(4**a_j), coordinate j is also scaled by
    2**-a_j, which keeps the points on the metric sphere.  The metric is a
    :class:`Metric4` in 4D and an array in the other dimensions.
    """
    sphere = SPHERE_9 if d == 4 else SPHERE_25[d]
    pts = draw(st.lists(st.sampled_from(sphere), min_size=n, max_size=n, unique=True))
    k = draw(st.integers(-30, 30))
    exps = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    offset = draw(st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=d, max_size=d))
    pts = [tuple(math.ldexp(c, k - a) + o for c, a, o in zip(p, exps, offset)) for p in pts]
    diag = np.diag([4.0 ** a for a in exps])
    metric = None if not any(exps) else Metric4(diag) if d == 4 else diag
    return pts, metric


@st.composite
def one_ulp_off(draw, pts):
    """pts with one coordinate of one point moved by one ulp."""
    i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts[0]) - 1))
    toward = draw(st.sampled_from([math.inf, -math.inf]))
    moved = list(pts[i])
    moved[j] = math.nextafter(moved[j], toward)
    return pts[:i] + [tuple(moved)] + pts[i + 1:]


@st.composite
def near_coplanar(draw, n=5, d=4):
    """n >= d + 1 points in d dimensions on or next to one hyperplane.

    d integer points and integer affine combinations of them, scaled by a
    power of two and offset by integers (which may round), and sometimes
    with one coordinate moved by one ulp.
    """
    coord = st.integers(-50, 50)
    base = [tuple(draw(coord) for _ in range(d)) for _ in range(d)]
    for _ in range(n - d):
        w = [draw(st.integers(-3, 3)) for _ in range(d - 1)]
        base.append(tuple(base[0][j] + sum(w[i] * (base[i + 1][j] - base[0][j])
                                           for i in range(d - 1)) for j in range(d)))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(-40, 40))
    offset = draw(st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=d, max_size=d))
    pts = [tuple(math.ldexp(c, k) + o for c, o in zip(base[i], offset)) for i in order]
    if draw(st.booleans()):
        pts = draw(one_ulp_off(pts))
    return pts


# coordinates whose products round in the subnormal range
FINE = st.sampled_from([0.0, 1.0, -1.0, 3.0, 5e-324, -5e-324, 2.0 ** -1070,
                        2.0 ** -250, -(2.0 ** -216), 2.0 ** -100])


@st.composite
def fine_grain_points(draw, n, d=4):
    """n points with coordinates of the subnormal grain among unit ones."""
    return [tuple(draw(FINE) for _ in range(d)) for _ in range(n)]


@st.composite
def orientation_rows(draw):
    """k facets against one query point: ``(corners, p)``, 4 k corners.

    Rows through the hyperplane of p (from :func:`near_coplanar`, sometimes
    one ulp off), wide rows, clustered rows and subnormal-grain rows are
    mixed in one call.
    """
    k = draw(st.integers(1, 8))
    coplanar = draw(near_coplanar(4 * k + 1))
    kinds = (coplanar, draw(wide_points(4 * k)), draw(clustered_points(4 * k)),
             draw(fine_grain_points(4 * k)))
    rows = [draw(st.sampled_from(kinds))[4 * r:4 * r + 4] for r in range(k)]
    return [c for row in rows for c in row], coplanar[-1]


@st.composite
def lift_layers(draw):
    """Points, a query point, a metric and simplices over the points.

    The simplices share vertices, as the rows of a cavity do, and list
    their keys in any order, so one lift reuses its rows and pair minors
    across simplices.  The points are cospherical with the query point
    (sometimes one ulp off), wide, clustered or of the subnormal grain.
    """
    n = draw(st.integers(6, 9))
    kind = draw(st.sampled_from(["cospherical", "one_ulp_off", "wide", "clustered", "fine"]))
    if kind in ("cospherical", "one_ulp_off"):
        pts, metric = draw(cospherical(n + 1))
        if kind == "one_ulp_off":
            pts = draw(one_ulp_off(pts))
    else:
        make = {"wide": wide_points, "clustered": clustered_points, "fine": fine_grain_points}
        pts, metric = draw(make[kind](n + 1)), draw(metrics())
    simplex = st.permutations(range(n)).map(lambda keys: tuple(keys[:5]))
    return pts[:n], pts[n], metric, draw(st.lists(simplex, min_size=1, max_size=6))


def _det4_mag_scalar(rows):
    """The magnitude of ``_det4``'s terms as scalar Python floats."""
    def pair_mags(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (abs(a0 * b1) + abs(a1 * b0), abs(a0 * b2) + abs(a2 * b0),
                abs(a0 * b3) + abs(a3 * b0), abs(a1 * b2) + abs(a2 * b1),
                abs(a1 * b3) + abs(a3 * b1), abs(a2 * b3) + abs(a3 * b2))

    m01, m02, m03, m12, m13, m23 = pair_mags(rows[0], rows[1])
    n01, n02, n03, n12, n13, n23 = pair_mags(rows[2], rows[3])
    return m01 * n23 + m02 * n13 + m03 * n12 + m12 * n03 + m13 * n02 + m23 * n01


def _insphere4_core_scalar(pts, mrows, mdiag):
    """The one-simplex bracket as scalar Python floats (reference for the kernel)."""
    f = pts[5]
    us = [(p[0] - f[0], p[1] - f[1], p[2] - f[2], p[3] - f[3]) for p in pts[:5]]
    if mrows is None:
        qs = [(u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) for u in us]
        qmags = qs
    elif mdiag is not None:
        d0, d1, d2, d3 = mdiag
        qs = [d0 * u[0] * u[0] + d1 * u[1] * u[1]
              + d2 * u[2] * u[2] + d3 * u[3] * u[3] for u in us]
        qmags = qs
    else:
        qs, qmags = [], []
        for u in us:
            val = mag = 0.0
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

    def det(top, bottom):
        (p01, p02, p03, p12, p13, p23), (m01, m02, m03, m12, m13, m23) = pair(*top)
        (q01, q02, q03, q12, q13, q23), (n01, n02, n03, n12, n13, n23) = pair(*bottom)
        return (p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01,
                m01 * n23 + m02 * n13 + m03 * n12 + m12 * n03 + m13 * n02 + m23 * n01)

    dets = (det((1, 2), (3, 4)), det((0, 2), (3, 4)), det((0, 1), (3, 4)),
            det((0, 1), (2, 4)), det((0, 1), (2, 3)))
    total = (qs[0] * dets[0][0] - qs[1] * dets[1][0] + qs[2] * dets[2][0]
             - qs[3] * dets[3][0] + qs[4] * dets[4][0])
    mag = (qmags[0] * dets[0][1] + qmags[1] * dets[1][1] + qmags[2] * dets[2][1]
           + qmags[3] * dets[3][1] + qmags[4] * dets[4][1])
    return total, mag


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestPredicateProperties:
    @settings(max_examples=200)
    @given(wide_points(6), metrics())
    def test_insphere_matches_fraction_oracle(self, pts, metric):
        res = inhypersphere_m_d(metric, pts)
        assert res.sign == insphere_sign_fraction(pts, _oracle_metric(metric))

    @settings(max_examples=150)
    @given(cospherical(6))
    def test_cospherical_is_exact_zero(self, case):
        pts, metric = case
        res = inhypersphere_m_d(metric, pts)
        assert (res.sign, res.exactness) == (0, "exact")

    @settings(max_examples=150)
    @given(cospherical(6).flatmap(
        lambda case: st.tuples(one_ulp_off(case[0]), st.just(case[1]))))
    @example(case=SUBNORMAL_CASE)
    def test_one_ulp_off_sphere_matches_oracle(self, case):
        pts, metric = case
        res = inhypersphere_m_d(metric, pts)
        assert res.sign == insphere_sign_fraction(pts, _oracle_metric(metric))

    @settings(max_examples=300)
    @given(st.one_of(wide_points(5), cospherical(5).map(lambda case: case[0]),
                     cospherical(5).flatmap(lambda case: one_ulp_off(case[0])),
                     near_coplanar(), fine_grain_points(5)))
    def test_orientation_matches_fraction_volume(self, pts):
        vol = hypervolume_fraction(*pts)
        assert orientation4(*pts).sign == (vol > 0) - (vol < 0)

    @settings(max_examples=200)
    @given(near_coplanar())
    def test_uncertified_orientation_is_exact(self, pts):
        # inputs the float filter cannot certify go straight to the exact tier
        F = np.array([pts[:4]])
        det, mag = _orient4_core(F, pts[4])
        assume(not _orient4_certified(F, pts[4], det, mag)[0])
        res = orientation_m_d(None, pts)
        vol = hypervolume_fraction(*pts)
        assert (res.sign, res.exactness) == ((vol > 0) - (vol < 0), "exact")

    @settings(max_examples=200)
    @given(lift_layers(), st.integers(0, 3))
    def test_lift_signs_match_fraction_oracles(self, case, slack):
        # one lift serves every simplex of a layer, at the points' grain or
        # any finer scale: each in-sphere sign is the rational bracket's,
        # each orientation the sign of the rational hypervolume
        pts, p, metric, simplices = case
        mrows, mdiag, _ = _metric_info(metric, 4)
        lift = _Lift(pts, p, _grain(itertools.chain(*pts)) + slack, mrows, mdiag)
        for keys in simplices:
            corners = [pts[k] for k in keys]
            assert lift.insphere(keys) == insphere_sign_fraction(corners + [p], mrows)
            vol = hypervolume_exact(*corners[:4], p)
            assert lift.orient(*keys[:4]) == (vol > 0) - (vol < 0)

    @settings(max_examples=200)
    @given(st.integers(1, 8).flatmap(lambda k: st.one_of(wide_points(5 * k + 1),
                                                         clustered_points(5 * k + 1))),
           metrics())
    def test_kernel_rows_are_bit_identical(self, flat, metric):
        # each row of a k-row call equals the one-row call and the scalar
        # expansion bit for bit, on all three metric paths
        k = (len(flat) - 1) // 5
        P = np.array(flat[:-1]).reshape(k, 5, 4)
        f = flat[-1]
        mrows, mdiag, _ = _metric_info(metric, 4)
        total, mag = _insphere4_core(P, f, mrows, mdiag)
        for r in range(k):
            one_total, one_mag = _insphere4_core(P[r:r + 1], f, mrows, mdiag)
            ref_total, ref_mag = _insphere4_core_scalar(
                [tuple(float(c) for c in p) for p in P[r]] + [f], mrows, mdiag)
            assert _bits(total[r]) == _bits(one_total[0]) == _bits(ref_total)
            assert _bits(mag[r]) == _bits(one_mag[0]) == _bits(ref_mag)

    @settings(max_examples=300)
    @given(orientation_rows())
    def test_orientation_kernel_rows(self, case):
        # each row of a k-row call equals the one-row call and _det4 bit for
        # bit, and its certified (or escalated) sign is the oracle's
        corners, p = case
        k = len(corners) // 4
        F = np.array(corners).reshape(k, 4, 4)
        det, mag = _orient4_core(F, p)
        certified = _orient4_certified(F, p, det, mag)
        for r in range(k):
            one_det, one_mag = _orient4_core(F[r:r + 1], p)
            rows = [tuple(c - x for c, x in zip(q, p)) for q in corners[4 * r:4 * r + 4]]
            assert _bits(det[r]) == _bits(one_det[0]) == _bits(_det4(*rows))
            assert _bits(mag[r]) == _bits(one_mag[0]) == _bits(_det4_mag_scalar(rows))
            # a certified row keeps its float sign; the others escalate to
            # the exact orientation4, as insertion does
            scalar = orientation4(*corners[4 * r:4 * r + 4], p)
            assert certified[r] == (scalar.exactness == "float")
            vol = hypervolume_fraction(*corners[4 * r:4 * r + 4], p)
            assert scalar.sign == (vol > 0) - (vol < 0)
            if certified[r]:
                assert np.sign(det[r]) == scalar.sign


# ---------------------------------------------------------------------------
# the other dimensions against the same Fraction oracles
# ---------------------------------------------------------------------------

OTHER_DIMS = pytest.mark.parametrize("d", (2, 3, 5))
MODES = st.sampled_from(["auto", "exact"])


@st.composite
def rational_metrics(draw, d):
    """None (identity) or an SPD matrix (S^T S + k I) 2**a with small integer S."""
    if draw(st.booleans()):
        return None
    S = np.array([[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)], dtype=float)
    return (S.T @ S + draw(st.integers(1, 4)) * np.eye(d)) * 2.0 ** draw(st.integers(-6, 6))


def _other_dim_points(d, n):
    """n points in d dimensions: wide, cospherical, one ulp off, near a hyperplane, fine."""
    sphere = cospherical(n, d).map(lambda case: case[0])
    return st.one_of(wide_points(n, d), sphere, sphere.flatmap(one_ulp_off),
                     near_coplanar(n, d), fine_grain_points(n, d))


class TestOtherDimensionProperties:
    @OTHER_DIMS
    @settings(max_examples=100)
    @given(data=st.data())
    def test_insphere_matches_fraction_oracle(self, d, data):
        pts = data.draw(_other_dim_points(d, d + 2))
        metric, mode = data.draw(rational_metrics(d)), data.draw(MODES)
        res = inhypersphere_m_d(metric, pts, mode=mode)
        assert res.sign == insphere_sign_fraction(pts, metric)

    @OTHER_DIMS
    @settings(max_examples=100)
    @given(data=st.data())
    def test_orientation_matches_fraction_oracle(self, d, data):
        pts = data.draw(_other_dim_points(d, d + 1))
        metric, mode = data.draw(rational_metrics(d)), data.draw(MODES)
        res = orientation_m_d(metric, pts, mode=mode)
        assert res.sign == orientation_sign_fraction(pts)

    @OTHER_DIMS
    @settings(max_examples=50)
    @given(data=st.data())
    def test_cospherical_is_exact_zero(self, d, data):
        pts, metric = data.draw(cospherical(d + 2, d))
        res = inhypersphere_m_d(metric, pts, mode=data.draw(MODES))
        assert (res.sign, res.exactness) == (0, "exact")

    @OTHER_DIMS
    @settings(max_examples=50)
    @given(data=st.data())
    def test_one_ulp_off_sphere_matches_oracle(self, d, data):
        pts, metric = data.draw(cospherical(d + 2, d))
        pts = data.draw(one_ulp_off(pts))
        res = inhypersphere_m_d(metric, pts, mode=data.draw(MODES))
        assert res.sign == insphere_sign_fraction(pts, _oracle_metric(metric))

    @OTHER_DIMS
    @settings(max_examples=50)
    @given(data=st.data())
    def test_fine_grain_matches_oracle(self, d, data):
        # products that round in the subnormal range are never certified
        pts = data.draw(fine_grain_points(d + 2, d))
        metric, mode = data.draw(rational_metrics(d)), data.draw(MODES)
        assert (inhypersphere_m_d(metric, pts, mode=mode).sign
                == insphere_sign_fraction(pts, metric))
        assert orientation_m_d(metric, pts[:d + 1], mode=mode).sign == orientation_sign_fraction(
            pts[:d + 1])

    @OTHER_DIMS
    @settings(max_examples=60)
    @given(data=st.data())
    def test_signs_hold_at_every_power_of_two_scale(self, d, data):
        # far from unit scale the float brackets overflow or underflow; the
        # exact tier still decides, and reports the float expansion's value
        pts = data.draw(_other_dim_points(d, d + 2))
        metric, mode = data.draw(rational_metrics(d)), data.draw(MODES)
        k = data.draw(st.integers(-400, 400))
        pts = [tuple(math.ldexp(c, k) for c in p) for p in pts]
        res = inhypersphere_m_d(metric, pts, mode=mode)
        assert res.sign == insphere_sign_fraction(pts, metric)
        assert isinstance(res.value, float)
        res = orientation_m_d(metric, pts[:d + 1], mode=mode)
        assert res.sign == orientation_sign_fraction(pts[:d + 1])

    @pytest.mark.parametrize("d", (1, 2, 3, 5, 6))
    @settings(max_examples=60)
    @given(data=st.data())
    def test_float_error_stays_within_the_filter_constants(self, d, data):
        # on difference rows (r = 1) with e = 1 (orientation) or 2d + 2 (the
        # metric Q row), |float - exact| <= (D + 1) eps mag; coordinates of
        # at least 2**-60 keep every product out of the subnormal range
        coord = st.floats(-1e3, 1e3).map(lambda x: x if abs(x) >= 2.0 ** -60 else 0.0)
        pts = data.draw(st.lists(st.tuples(*[coord] * d), min_size=d + 2, max_size=d + 2))
        metric = data.draw(rational_metrics(d))
        eps = Fraction(_EPS)
        det, mag = _det_mag(_orientation_rows(pts[:d + 1]))
        exact = det_fraction([[Fraction(x) - Fraction(y) for x, y in zip(p, pts[d])]
                              for p in pts[:d]])
        assert abs(Fraction(det) - exact) <= _safety(_ORIENT_SAFETY, 1, d) * eps * Fraction(mag)
        total, mag = _insphere_bracket(pts, _metric_info(metric, d)[0])
        exact = insphere_fraction(pts, metric)
        assert (abs(Fraction(total) - exact)
                <= _safety(_INSPHERE_SAFETY, 2 * d + 2, d + 1) * eps * Fraction(mag))


@pytest.mark.parametrize("d,scale", [(2, 1e110), (3, 1e80), (5, 1e60)])
def test_exact_tier_answers_where_the_bracket_overflows(d, scale):
    # the bracket's value leaves the double range (the float expansion
    # reads inf - inf), but its sign is still decided, and the value
    # reported is the float expansion's, as in 4D
    pts = np.random.default_rng(d).random((d + 2, d)) * scale
    res = inhypersphere_m_d(None, pts)
    assert res.exactness == "exact"
    assert res.sign == insphere_sign_fraction(pts)
    assert _bits(res.value) == _bits(inhypersphere_m_d(None, pts, mode="float").value)
