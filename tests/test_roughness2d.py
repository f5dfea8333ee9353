import itertools
import math

import numpy as np
import pytest

from pentamesh.roughness2d import (
    CanonicalQuad,
    QuadConfig2,
    incircle_m2,
    lop,
    map_to_canonical,
    relative_roughness,
    sweep_triangulation,
    total_roughness,
)


def random_canonical(rng):
    """A random valid canonical quadrilateral, or None."""
    q = rng.uniform(0.1, 2.0)
    s = rng.uniform(0.1, 2.0)
    p = rng.uniform(-1.0, 1.0)
    r = rng.uniform(0.2, 2.5)
    try:
        return CanonicalQuad(p=p, q=q, r=r, s=s)
    except ValueError:
        return None


def direct_roughness_difference(cq, f, c):
    """Independent oracle: assemble both triangulations' roughness from
    per-triangle constant gradients (exact for piecewise-linear data)."""
    pts = np.array([[0, 0], [1, 0], [cq.r, cq.s], [cq.p, cq.q]], float)
    diag_24 = [(0, 1, 3), (1, 2, 3)]
    diag_13 = [(0, 1, 2), (0, 2, 3)]
    return (total_roughness(pts, f, diag_13, c)
            - total_roughness(pts, f, diag_24, c))


def brute_force_delaunay_edges(pts):
    """Edge set of the exhaustive empty-circumcircle triangulation."""
    n = len(pts)
    edges = set()
    for tri in itertools.combinations(range(n), 3):
        a, b, c = (pts[i] for i in tri)
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if det == 0.0:
            continue
        if all(incircle_m2(1.0, (a, b, c), pts[m]) >= 0.0
               for m in range(n) if m not in tri):
            edges |= {tuple(sorted(e)) for e in itertools.combinations(tri, 2)}
    return edges


def triangulation_edges(tris):
    return {tuple(sorted((t[i], t[(i + 1) % 3]))) for t in tris for i in range(3)}


class TestQuadConfig:
    def test_convexity_enforced(self):
        with pytest.raises(ValueError):
            QuadConfig2(u=((0, 0), (1, 0), (0.2, 0.1), (0, 1)), f=(0, 0, 0, 0), c_v=1.0)
        with pytest.raises(ValueError):
            QuadConfig2(u=((0, 0), (0, 1), (1, 1), (1, 0)), f=(0, 0, 0, 0), c_v=1.0)

    def test_positive_speed(self):
        with pytest.raises(ValueError):
            QuadConfig2(u=((0, 0), (1, 0), (1, 1), (0, 1)), f=(0, 0, 0, 0), c_v=0.0)


@pytest.mark.parametrize("c_v", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_every_entry_point_rejects_a_speed_outside_zero_to_infinity(c_v):
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    cloud = np.random.default_rng(0).random((10, 2))
    message = "speed must be positive and finite"
    with pytest.raises(ValueError, match=message):
        QuadConfig2(u=square, f=(0, 0, 0, 0), c_v=c_v)
    with pytest.raises(ValueError, match=message):
        relative_roughness(CanonicalQuad(p=0.0, q=1.0, r=1.0, s=1.0), 0.3, -1.2, 0.7, 2.0, c_v)
    with pytest.raises(ValueError, match=message):
        incircle_m2(c_v, square[:3], square[3])
    with pytest.raises(ValueError, match=message):
        lop(cloud, c_field=c_v)
    with pytest.raises(ValueError, match=message):
        lop(cloud, c_field=lambda x, t: c_v)


class TestMapToCanonical:
    def test_unit_square(self):
        cfg = QuadConfig2(u=((0, 0), (1, 0), (1, 1), (0, 1)), f=(0, 0, 0, 0), c_v=1.0)
        cq = map_to_canonical(cfg)
        assert (cq.p, cq.q, cq.r, cq.s) == pytest.approx((0.0, 1.0, 1.0, 1.0))

    def test_endpoints_pinned(self, rng):
        for _ in range(100):
            # build a convex CCW quadrilateral by polar sorting
            ang = np.sort(rng.uniform(0, 2 * np.pi, 4))
            if np.diff(ang).min() < 0.2 or ang[0] + 2 * np.pi - ang[3] < 0.2:
                continue
            rad = rng.uniform(0.5, 2.0, 4)
            pts = np.c_[np.cos(ang), np.sin(ang)] * rad[:, None]
            cv = float(rng.uniform(0.3, 3.0))
            try:
                cfg = QuadConfig2(u=tuple(map(tuple, pts)),
                                  f=(0, 0, 0, 0), c_v=cv)
            except ValueError:
                continue
            cq = map_to_canonical(cfg)
            assert cq.q > 0 and cq.s > 0 and cq.m > 0

    def test_speed_rescales_time_first(self):
        # a pure-time edge of physical length 1 has metric length c
        cfg = QuadConfig2(u=((0, 0), (0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)),
                          f=(0, 0, 0, 0), c_v=2.0)
        cq = map_to_canonical(cfg)
        # u3 = u2 + (-1, 0): one spatial unit = half the metric edge length
        assert math.hypot(cq.r - 1.0, cq.s) == pytest.approx(0.5)

    def test_coincident_base_rejected(self):
        cfg = QuadConfig2.__new__(QuadConfig2)
        object.__setattr__(cfg, "u", ((0, 0), (0, 0), (1, 1), (0, 1)))
        object.__setattr__(cfg, "f", (0, 0, 0, 0))
        object.__setattr__(cfg, "c_v", 1.0)
        with pytest.raises(ValueError, match="coincide"):
            map_to_canonical(cfg)


class TestRelativeRoughness:
    def test_unit_square_cocircular(self):
        cq = CanonicalQuad(p=0.0, q=1.0, r=1.0, s=1.0)
        rb = relative_roughness(cq, 0.3, -1.2, 0.7, 2.0, 1.0)
        assert rb.C == pytest.approx(0.0, abs=1e-14)
        assert rb.value == pytest.approx(0.0, abs=1e-12)

    def test_affine_data_has_zero_b(self, rng):
        cq = random_canonical(rng)
        # f sampled from a plane: B vanishes and so does the difference
        a, b, c = rng.normal(size=3)
        pts = [(0, 0), (1, 0), (cq.r, cq.s), (cq.p, cq.q)]
        f = [a * x + b * t + c for x, t in pts]
        rb = relative_roughness(cq, *f, 2.0)
        assert rb.B == pytest.approx(0.0, abs=1e-24)
        assert rb.value == pytest.approx(0.0, abs=1e-12)

    def test_constant_data(self, rng):
        cq = random_canonical(rng)
        rb = relative_roughness(cq, 5.5, 5.5, 5.5, 5.5, 1.3)
        assert rb.B == 0.0 and rb.value == 0.0

    def test_factorization_and_oracle(self, rng):
        checked = 0
        while checked < 2000:
            cq = random_canonical(rng)
            if cq is None:
                continue
            f = rng.normal(size=4)
            c = float(rng.uniform(0.2, 5.0))
            rb = relative_roughness(cq, *f, c)  # asserts value == A*B*C inside
            direct = direct_roughness_difference(cq, f, c)
            scale = max(abs(rb.value), abs(direct), 1.0)
            assert abs(rb.value - direct) <= 1e-9 * scale
            assert rb.A > 0.0 and rb.B >= 0.0
            if rb.C >= 0.0:
                assert rb.value >= -1e-12
            checked += 1

    def test_c_positive_means_nonnegative(self, rng):
        # sign theorem: with C >= 0 the difference is never negative
        n = 0
        while n < 3000:
            cq = random_canonical(rng)
            if cq is None:
                continue
            f = rng.normal(size=4)
            rb = relative_roughness(cq, *f, float(rng.uniform(0.2, 5.0)))
            if rb.B > 0:
                assert (rb.value >= -1e-12) == (rb.C >= -1e-12 / (rb.A * rb.B + 1e-300)) \
                    or abs(rb.C) < 1e-9
            n += 1


class TestIncircle:
    def test_canonical_cocircular(self):
        # triangle ((0,0),(1,0),(0,1)) against (1,1) with c=1: on the circle
        v = incircle_m2(1.0, ((0, 0), (1, 0), (0, 1)), (1, 1))
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_far_point_positive(self):
        assert incircle_m2(1.0, ((0, 0), (1, 0), (0, 1)), (10, 10)) > 0.0

    def test_centroid_negative(self):
        assert incircle_m2(1.0, ((0, 0), (1, 0), (0, 1)), (1 / 3, 1 / 3)) < 0.0

    def test_matches_C_factor(self, rng):
        # C is exactly this criterion for triangle (u1,u2,u4) against u3
        for _ in range(200):
            cq = random_canonical(rng)
            if cq is None:
                continue
            c = float(rng.uniform(0.2, 5.0))
            rb = relative_roughness(cq, *rng.normal(size=4), c)
            crit = incircle_m2(c, ((0, 0), (1, 0), (cq.p, cq.q)), (cq.r, cq.s))
            assert crit == pytest.approx(rb.C, rel=1e-9, abs=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            incircle_m2(1.0, ((0, 0), (1, 0), (2, 0)), (0, 1))


class TestSweepTriangulation:
    def test_covers_hull_area(self, rng):
        for _ in range(20):
            pts = rng.random((30, 2))
            tris = sweep_triangulation(pts)
            area = sum(abs((pts[b] - pts[a])[0] * (pts[c] - pts[a])[1]
                           - (pts[b] - pts[a])[1] * (pts[c] - pts[a])[0]) / 2
                       for a, b, c in tris)
            hull = _hull_area(pts)
            assert area == pytest.approx(hull, rel=1e-9)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            sweep_triangulation([(0, 0), (1, 1), (2, 2), (3, 3)])


def _hull_area(pts):
    # monotone chain hull area (test-local oracle)
    pts = sorted(map(tuple, pts))

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    return abs(sum(hull[i][0] * hull[(i + 1) % len(hull)][1]
                   - hull[(i + 1) % len(hull)][0] * hull[i][1]
                   for i in range(len(hull)))) / 2


class TestLop:
    def test_cocircular_square_no_cycling(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        tris = lop(pts, c_field=1.0)
        assert len(tris) == 2  # either diagonal, but it terminates

    def test_matches_bruteforce_scaled(self, rng):
        for seed in range(6):
            local = np.random.default_rng(seed)
            pts = local.random((25, 2))
            cv = float(local.uniform(0.25, 4.0))
            tris = lop(pts, c_field=cv)
            got = triangulation_edges(tris)
            want = brute_force_delaunay_edges(pts * np.array([1.0, cv]))
            assert got == want

    def test_variable_field_runs(self, rng):
        pts = rng.random((40, 2))
        tris = lop(pts, c_field=lambda x, t: 1.0 + 2.0 * x)
        # still a triangulation of the hull
        area = sum(abs((pts[b] - pts[a])[0] * (pts[c] - pts[a])[1]
                       - (pts[b] - pts[a])[1] * (pts[c] - pts[a])[0]) / 2
                   for a, b, c in tris)
        assert area == pytest.approx(_hull_area(pts), rel=1e-9)

    def test_roughness_monotone(self, rng):
        pts = rng.random((50, 2))
        vals = rng.normal(size=50)
        tris, hist = lop(pts, vals, 2.0, return_history=True)
        assert len(hist) >= 1
        assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))
