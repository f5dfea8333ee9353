import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pentamesh.geometry import (
    Metric4,
    MetricField,
    canonical_facets,
    facet_normal,
    hypervolume,
    hypervolume_exact,
    metric_length_pointwise,
    metric_length_quadrature,
    metric_volume_pointwise,
    metric_volume_quadrature,
    regular_pentatope,
    _grundmann_moller,
)
from pentamesh.mesh import Mesh4
from conftest import hypervolume_fraction, random_pentatope

E = np.eye(4)
UNIT_CORNER = np.vstack([np.zeros(4), E])


class TestCanonicalFacets:
    def test_published_pattern(self):
        # facets of (1,2,3,4,5) in the fixed order, each vertex omitted once
        facets = canonical_facets((1, 2, 3, 4, 5))
        assert facets == [(1, 2, 3, 4), (1, 2, 5, 3), (1, 2, 4, 5),
                          (2, 3, 4, 5), (3, 1, 4, 5)]

    def test_substitution(self):
        facets = canonical_facets((5, 4, 3, 2, 1))
        assert facets == [(5, 4, 3, 2), (5, 4, 1, 3), (5, 4, 2, 1),
                          (4, 3, 2, 1), (3, 5, 2, 1)]

    def test_each_vertex_omitted_once(self, rng):
        pent = tuple(int(v) for v in rng.choice(1000, size=5, replace=False))
        facets = canonical_facets(pent)
        union = set().union(*[set(f) for f in facets])
        assert union == set(pent)
        omitted = [next(iter(set(pent) - set(f))) for f in facets]
        assert sorted(omitted) == sorted(pent)


class TestHypervolume:
    def test_unit_corner(self):
        assert hypervolume(*UNIT_CORNER) == pytest.approx(1.0 / 24.0)

    def test_regular_pentatope(self):
        for a in (1.0, 0.37, 2.5):
            v = hypervolume(*regular_pentatope(a))
            assert abs(v) == pytest.approx(math.sqrt(5.0) / 96.0 * a ** 4, rel=1e-12)

    def test_repeated_vertex_is_zero(self, rng):
        pts = random_pentatope(rng)
        pts[3] = pts[1]
        assert hypervolume_exact(*(tuple(p) for p in pts)) == 0
        assert abs(hypervolume(*pts)) < 1e-14

    def test_alternating_exact(self, rng):
        # swapping two vertices negates the exact value
        for _ in range(100):
            pts = [tuple(p) for p in rng.normal(size=(5, 4))]
            v = hypervolume_exact(*pts)
            i, j = rng.choice(5, size=2, replace=False)
            swapped = list(pts)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert hypervolume_exact(*swapped) == -v


# floats of either sign with binary exponents of about +-500 (1e-150 .. 1e150)
WIDE_FLOATS = st.builds(lambda m, e, s: s * math.ldexp(m, e),
                        st.floats(1.0, 2.0, exclude_max=True), st.integers(-500, 500),
                        st.sampled_from((1.0, -1.0, 0.0)))
COORDS = st.one_of(WIDE_FLOATS, st.integers(-10 ** 20, 10 ** 20),
                   st.fractions(max_denominator=10 ** 6))
POINTS = st.tuples(COORDS, COORDS, COORDS, COORDS)


class TestHypervolumeExactOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(POINTS, min_size=5, max_size=5))
    def test_matches_fraction_cofactor_expansion(self, pts):
        assert hypervolume_exact(*pts) == hypervolume_fraction(*pts)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(np.int64, 2 ** 62), (np.int32, 2 ** 31 - 1)]).flatmap(
        lambda dt: st.lists(st.tuples(*[st.integers(-dt[1], dt[1])] * 4),
                            min_size=5, max_size=5).map(
            lambda pts: [tuple(dt[0](c) for c in p) for p in pts])))
    def test_numpy_integer_coordinates(self, pts):
        # differences of np.int64 values near 2**62 overflow in numpy arithmetic
        as_ints = [tuple(int(c) for c in p) for p in pts]
        assert hypervolume_exact(*pts) == hypervolume_fraction(*as_ints)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(WIDE_FLOATS, WIDE_FLOATS, WIDE_FLOATS, WIDE_FLOATS),
                    min_size=8, max_size=8))
    def test_mesh_total_is_sum_of_elements(self, pts):
        mesh = Mesh4()
        for p in pts:
            mesh.add_vertex(p)
        for elem in ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (0, 2, 4, 6, 7)):
            mesh.add_element(elem)
        mesh.remove_element(1)  # a dead element does not count
        alive = list(mesh.alive_elements())
        total = mesh.total_hypervolume(exact=True)
        assert total == sum(hypervolume_exact(*mesh.element_points(e)) for e in alive)
        assert total == sum(hypervolume_fraction(*mesh.element_points(e)) for e in alive)


class TestFacetNormal:
    def test_axis_aligned(self):
        n = facet_normal(np.zeros(4), E[0], E[1], E[2])
        # the (+,-,+,-) cofactor convention puts this normal on -e4
        assert np.allclose(n, [0, 0, 0, -1])

    def test_degenerate_zero(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(facet_normal(a, a, E[1], E[2]), 0.0)

    def test_orthogonality(self, rng):
        for _ in range(200):
            a, b, c, d = rng.normal(size=(4, 4))
            n = facet_normal(a, b, c, d)
            scale = np.linalg.norm(n) * max(np.linalg.norm(b - a),
                                            np.linalg.norm(c - a),
                                            np.linalg.norm(d - a))
            if scale == 0.0:
                continue
            for u in (b - a, c - a, d - a):
                assert abs(np.dot(n, u)) <= 1e-12 * scale

    def test_outward_for_positive_pentatopes(self, rng):
        # canonical facets of positively oriented pentatopes carry normals
        # pointing away from the opposite vertex
        from pentamesh.geometry import CANONICAL_FACETS, FACET_OPPOSITE
        for _ in range(100):
            pts = random_pentatope(rng)
            if hypervolume(*pts) < 0:
                pts[[0, 1]] = pts[[1, 0]]
            for pat, opp in zip(CANONICAL_FACETS, FACET_OPPOSITE):
                quad = [pts[i] for i in pat]
                n = facet_normal(*quad)
                cen = np.mean(quad, axis=0)
                assert np.dot(n, pts[opp] - cen) < 0.0


class TestMetric4:
    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            Metric4(m)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Metric4(np.diag([1.0, 1.0, 1.0, -2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Metric4(np.diag([1.0, 1.0, 1.0, bad]))
        m = np.eye(4)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Metric4(m)

    def test_non_finite_speed_fails_at_its_first_evaluation(self):
        field = MetricField.speed(c0=float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            field((0.0, 0.0, 0.0, 2.0))

    def test_quad_matches_numpy(self, rng):
        from conftest import spd_metric
        for _ in range(50):
            m = Metric4(spd_metric(rng))
            u = rng.normal(size=4)
            assert m.quad(tuple(u)) == pytest.approx(u @ m.m @ u, rel=1e-12)


class TestMetricLengths:
    def test_speed_scaling(self):
        m = Metric4(np.diag([1.0, 1.0, 1.0, 4.0]))
        assert metric_length_pointwise((0, 0, 0, 0), (0, 0, 0, 1), m) == pytest.approx(2.0)

    def test_identity_is_euclidean(self, rng):
        m = Metric4(np.eye(4))
        for _ in range(20):
            a, b = rng.normal(size=(2, 4))
            assert metric_length_pointwise(tuple(a), tuple(b), m) == pytest.approx(
                np.linalg.norm(a - b), rel=1e-14)

    def test_symmetry_and_triangle_inequality(self, rng):
        from conftest import spd_metric
        for _ in range(100):
            m = Metric4(spd_metric(rng))
            a, b, c = (tuple(p) for p in rng.normal(size=(3, 4)))
            ab = metric_length_pointwise(a, b, m)
            assert ab == pytest.approx(metric_length_pointwise(b, a, m), rel=1e-14)
            assert ab <= (metric_length_pointwise(a, c, m)
                          + metric_length_pointwise(c, b, m)) * (1 + 1e-12)

    def test_quadrature_constant_field_matches_pointwise(self, rng):
        from conftest import spd_metric
        m = Metric4(spd_metric(rng))
        field = MetricField.constant(m)
        for _ in range(20):
            a, b = (tuple(p) for p in rng.normal(size=(2, 4)))
            lq = metric_length_quadrature(a, b, field, order=4)
            assert lq == pytest.approx(metric_length_pointwise(a, b, m), rel=1e-12)

    def test_quadrature_linear_speed_closed_form(self):
        # c(t) = 1 + t on a pure time segment: integral of (1 + tau) = 3/2
        def fld(p):
            c = 1.0 + p[3]
            return np.diag([1.0, 1.0, 1.0, c * c])

        field = MetricField.from_function(fld)
        val = metric_length_quadrature((0, 0, 0, 0), (0, 0, 0, 1), field, order=8)
        assert val == pytest.approx(1.5, rel=1e-12)

    def test_zero_length(self):
        field = MetricField.identity()
        assert metric_length_quadrature((1, 2, 3, 4), (1, 2, 3, 4), field) == 0.0


class TestMetricVolumes:
    def test_unit_corner_scaled(self):
        m = Metric4(np.diag([1.0, 1.0, 1.0, 4.0]))
        assert metric_volume_pointwise(UNIT_CORNER, m) == pytest.approx(1.0 / 12.0)

    def test_identity(self, rng):
        m = Metric4(np.eye(4))
        pts = random_pentatope(rng)
        assert metric_volume_pointwise(pts, m) == pytest.approx(
            abs(hypervolume(*pts)), rel=1e-14)

    def test_quadrature_constant(self, rng):
        from conftest import spd_metric
        m = Metric4(spd_metric(rng))
        pts = random_pentatope(rng)
        assert metric_volume_quadrature(pts, MetricField.constant(m)) == pytest.approx(
            metric_volume_pointwise(pts, m), rel=1e-13)

    def test_quadrature_linear_density(self):
        # det M(t) = (1+t)^2 makes sqrt(det) linear: exact for the rule
        def fld(p):
            return np.diag([1.0, 1.0, 1.0, (1.0 + p[3]) ** 2])

        field = MetricField.from_function(fld)
        got = metric_volume_quadrature(UNIT_CORNER, field, order=2)
        # integral-average of (1+t) over the corner simplex: 1 + mean(t) = 1.2
        assert got == pytest.approx((1.0 / 24.0) * 1.2, rel=1e-12)


class TestGrundmannMoller:
    def test_polynomial_exactness(self):
        # rational check: the rule integrates all monomials of degree <= 5
        import itertools
        pts, wts = _grundmann_moller(4, 2)
        for deg in range(6):
            for alpha in itertools.product(range(deg + 1), repeat=4):
                if sum(alpha) != deg:
                    continue
                approx = sum(w * np.prod([pt[k + 1] ** alpha[k] for k in range(4)])
                             for pt, w in zip(pts, wts))
                num = 1
                for a in alpha:
                    num *= math.factorial(a)
                exact = 24 * Fraction(num, math.factorial(4 + deg))
                assert approx == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


class TestMetricField:
    def test_speed_profile(self):
        field = MetricField.speed(c0=1.0, beta=0.1, center=2.0)
        m = field((0, 0, 0, 2.0))
        assert m.m[3, 3] == pytest.approx(11.0 ** 2)
        far = field((0, 0, 0, 50.0))
        assert far.m[3, 3] == pytest.approx(1.0, abs=1e-6)

    def test_field_values_are_spd(self, rng):
        field = MetricField.speed()
        for _ in range(50):
            p = rng.normal(size=4) * 3
            m = field(tuple(p))
            assert np.linalg.eigvalsh(m.m).min() > 0.0
