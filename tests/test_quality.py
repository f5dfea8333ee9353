import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pentamesh.geometry import (
    MetricField,
    hypervolume,
    metric_length_pointwise,
    metric_volume_pointwise,
    regular_pentatope,
)
from pentamesh.quality import (
    EDGE_ORDER,
    _eta_volume,
    edge_lengths_squared,
    eta1,
    eta2,
    eta3,
    pentatope_quality,
    quality_metric,
    theta,
)
from conftest import improve_benchmark_points, random_pentatope, spd_metric


def matrix_route(pts):
    """Eigenvalue route through A(R, T): the authoritative oracle.

    R is the same-hypervolume regular pentatope's edge matrix, T the
    element's; the three heuristics are the mean ratios of eig(A).
    """
    v = abs(hypervolume(*pts))
    a = (96.0 * v / math.sqrt(5.0)) ** 0.25
    R = regular_pentatope(a)
    Rm = np.array([R[i] - R[0] for i in range(1, 5)]).T
    Tm = np.array([np.asarray(pts[i]) - np.asarray(pts[0]) for i in range(1, 5)]).T
    Ri = np.linalg.inv(Rm)
    A = Ri.T @ (Tm.T @ Tm) @ Ri
    lam = np.linalg.eigvalsh(A)
    e1 = 4.0 * np.prod(lam) ** 0.25 / lam.sum()
    e2 = lam.sum() / (2.0 * math.sqrt((lam ** 2).sum()))
    return e1, e2, e1 * e2, A, a


class TestTheta:
    def test_equilateral(self):
        for a2 in (1.0, 0.49, 7.3):
            assert theta([a2] * 10) == pytest.approx(3600.0 * a2 * a2, rel=1e-13)

    def test_zero(self):
        assert theta([0.0] * 10) == 0.0

    def test_nonnegative_random(self, rng):
        for _ in range(1000):
            lsq = rng.random(10) * 10
            assert theta(lsq) >= 0.0

    def test_matches_frobenius_route(self, rng):
        # (1/(30 a^2)) sqrt(Theta) equals ||A(R,T)||_F
        for _ in range(300):
            pts = random_pentatope(rng, min_vol=1e-4)
            _e1, _e2, _e3, A, a = matrix_route(pts)
            fro = np.linalg.norm(A, "fro")
            got = math.sqrt(theta(edge_lengths_squared(pts))) / (30.0 * a * a)
            assert got == pytest.approx(fro, rel=1e-9)


class TestEtaValues:
    def test_regular_is_unity(self):
        for a in (1.0, 0.2, 11.0):
            pts = regular_pentatope(a)
            assert eta1(*pts) == pytest.approx(1.0, abs=1e-12)
            assert eta2(*pts) == pytest.approx(1.0, abs=1e-12)
            assert eta3(*pts) == pytest.approx(1.0, abs=1e-12)

    def test_unit_corner_value(self):
        pts = np.vstack([np.zeros(4), np.eye(4)])
        assert eta1(*pts) == pytest.approx(5.0 ** 0.75 / 4.0, rel=1e-12)
        e1, e2, e3, _A, _a = matrix_route(pts)
        assert eta1(*pts) == pytest.approx(e1, rel=1e-9)
        assert eta2(*pts) == pytest.approx(e2, rel=1e-9)

    def test_degenerate_zero(self):
        flat = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0.5, 0.5, 0, 0)]
        assert eta1(*flat) == 0.0
        assert eta3(*flat) == 0.0

    def test_all_coincident(self):
        p = (1.0, 2.0, 3.0, 4.0)
        assert eta1(p, p, p, p, p) == 0.0
        assert eta2(p, p, p, p, p) == 0.0

    @pytest.mark.parametrize("pts", [[(0.0, 0.0, 0.0, 0.0)] * 5,
                                     np.vstack([np.zeros(4), np.eye(4)])])
    def test_unknown_heuristic_is_rejected_for_every_element(self, pts):
        # the degenerate element used to return 0.0 before the check
        with pytest.raises(ValueError, match="heuristic must be 1, 2 or 3"):
            pentatope_quality(pts, which=7)
        with pytest.raises(ValueError, match="heuristic must be 1, 2 or 3"):
            quality_metric(pts, MetricField.identity(), which=7)

    def test_matrix_oracle(self, rng):
        for _ in range(300):
            pts = random_pentatope(rng, min_vol=1e-4)
            e1, e2, e3, _A, _a = matrix_route(pts)
            assert eta1(*pts) == pytest.approx(e1, rel=1e-9)
            assert eta2(*pts) == pytest.approx(e2, rel=1e-9)
            assert eta3(*pts) == pytest.approx(e3, rel=1e-9)


class TestEtaProperties:
    def test_bounds_and_ordering(self, rng):
        for _ in range(2000):
            pts = rng.normal(size=(5, 4))
            e1, e2, e3 = eta1(*pts), eta2(*pts), eta3(*pts)
            eps = 1e-12
            assert -eps <= e1 <= 1 + eps
            assert -eps <= e3 <= e2 + eps <= 1 + 2 * eps
            assert abs(e3 - e1 * e2) <= 1e-12 * max(e3, 1e-30)

    def test_rigid_motion_and_scale_invariance(self, rng):
        for _ in range(200):
            pts = random_pentatope(rng, min_vol=1e-4)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            shift = rng.normal(size=4)
            scale = rng.uniform(0.1, 10.0)
            moved = scale * (pts @ q.T) + shift
            for fn in (eta1, eta2, eta3):
                assert fn(*moved) == pytest.approx(fn(*pts), rel=1e-9)

    def test_flattening_drives_eta1_eta3_to_zero(self):
        base = np.vstack([np.zeros(4), np.eye(4)])
        prev = None
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            pts = base.copy()
            pts[4] = (0.25, 0.25, 0.25, eps)  # collapse toward the base hyperplane
            v1, v3 = eta1(*pts), eta3(*pts)
            if prev is not None:
                assert v1 < prev[0] and v3 < prev[1]
            prev = (v1, v3)
        assert prev[0] < 1e-3 and prev[1] < 1e-3


# metric fields of points scaled by s, each the unit field seen at that scale
_QUADRATURE_FIELDS = {
    "identity": lambda s: None,
    "constant": lambda s: MetricField.constant(np.diag([1.0, 4.0, 0.25, 2.0])),
    "varying": lambda s: MetricField.from_function(
        lambda p: np.diag([1.0, 1.0, 1.0, 1.0 + (p[3] / s) ** 2])),
}


class TestQualityMetric:
    def test_identity_field(self, rng):
        # bit for bit: the identity field takes the Euclidean kernel path
        for _ in range(20):
            pts = random_pentatope(rng)
            for which in (1, 2, 3):
                want = pentatope_quality(pts, which)
                assert quality_metric(pts, None, which=which) == want
                assert quality_metric(pts, MetricField.identity(), which=which) == want

    @pytest.mark.parametrize("field", [
        MetricField.speed(c0=1.0, beta=0.5, center=0.5),
        MetricField.constant(np.diag([1.0, 4.0, 0.25, 2.0])),
    ], ids=["speed", "constant"])
    def test_kernel_matches_the_pointwise_oracles(self, rng, field):
        # edge lengths and volume from the public point-wise measures, at the
        # field's metric at the centroid of the sorted points
        for _ in range(20):
            pts = sorted(map(tuple, random_pentatope(rng).tolist()))
            metric = field(tuple(sum(c) / 5.0 for c in zip(*pts)))
            lsq = [metric_length_pointwise(pts[i], pts[j], metric) ** 2 for i, j in EDGE_ORDER]
            v = metric_volume_pointwise(pts, metric)
            e1 = 5.0 ** 0.75 * math.sqrt(384.0 * v) / sum(lsq)
            e2 = 6.0 * sum(lsq) / math.sqrt(theta(lsq))
            e3 = 6.0 * 5.0 ** 0.75 * math.sqrt(384.0 * v / theta(lsq))
            for which, want in ((1, e1), (2, e2), (3, e3)):
                eta, vol = _eta_volume(pts[::-1], which, field)
                assert eta == pytest.approx(want, rel=1e-14, abs=0.0)
                assert quality_metric(pts[::-1], field, which=which) == eta
                assert vol == abs(hypervolume(*pts))

    def test_pullback_oracle(self, rng):
        # a pentatope stretched 1/c in time scores under diag(1,1,1,c^2)
        # what its unstretched image scores in Euclidean space
        c = 3.7
        field = MetricField.constant(np.diag([1.0, 1.0, 1.0, c * c]))
        for _ in range(50):
            pts = random_pentatope(rng, min_vol=1e-4)
            squeezed = pts.copy()
            squeezed[:, 3] /= c
            for which in (1, 2, 3):
                got = quality_metric(squeezed, field, which=which)
                want = pentatope_quality(pts, which)
                assert got == pytest.approx(want, rel=1e-9)

    def test_pointwise_equals_quadrature_constant(self, rng):
        from conftest import spd_metric
        field = MetricField.constant(spd_metric(rng))
        pts = random_pentatope(rng)
        for which in (1, 2, 3):
            a = quality_metric(pts, field, mode="pointwise", which=which)
            b = quality_metric(pts, field, mode="quadrature", which=which)
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("k", [-300, 0, 300])
    @pytest.mark.parametrize("field_at", _QUADRATURE_FIELDS.values(), ids=_QUADRATURE_FIELDS)
    def test_quadrature_reads_the_unit_value_at_every_power_of_two_scale(self, field_at, k):
        # the rules run in the points' frame while the field reads the true
        # points, so the points times 2**k under field_at(2**k) score what
        # the unit points score under field_at(1), bit for bit
        unit = np.random.default_rng(1).random((5, 4))
        want = quality_metric(unit, field_at(1.0), mode="quadrature")
        assert quality_metric(unit * 2.0 ** k, field_at(2.0 ** k), mode="quadrature") == want

    def test_edge_order_is_lexicographic(self):
        assert EDGE_ORDER == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                              (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


# vertices 7, 33, 36, 44 and 46 of the mesh of seed 3301, instance 3 (the
# input's rows, in input order): eta1 in the element's stored order and in
# another order once differed in the last bit, 0.25888139524740583 and ...057
_ORDER_FOUND = improve_benchmark_points(3301, 3)[[7, 33, 36, 44, 46]].tolist()

_ORDER_FIELDS = (None, MetricField.constant(spd_metric(np.random.default_rng(5))),
                 MetricField.speed(c0=1.0, beta=0.5, center=0.5))

_coordinate = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


class TestPointOrder:
    @settings(max_examples=3)
    @given(pts=st.lists(st.tuples(*[_coordinate] * 4), min_size=5, max_size=5))
    @example(pts=_ORDER_FOUND)
    def test_every_heuristic_is_a_function_of_the_point_set(self, pts):
        # bit-identical over all 120 orders, given as numpy rows
        rows = np.array(pts, dtype=float)

        def values(p):
            out = [pentatope_quality(p, w) for w in (1, 2, 3)]
            out += [eta1(*p), eta2(*p), eta3(*p)]
            out += [quality_metric(p, field, mode=mode, which=w) for field in _ORDER_FIELDS
                    for mode in ("pointwise", "quadrature") for w in (1, 2, 3)]
            return out

        first = values(rows)
        for perm in itertools.permutations(range(5)):
            assert values(rows[list(perm)]) == first, perm


@pytest.mark.parametrize("mode", ["pointwise", "quadrature"])
@pytest.mark.parametrize("c", [1e-100, 1e-80, 1e80, 1e100])
def test_metric_quality_is_blind_to_a_uniform_metric_scale(c, mode):
    # det(c I) = c**4 leaves the double range at these c; sqrt(det) does not
    p = np.random.default_rng(1).random((5, 4))
    want = quality_metric(p, None, mode=mode)
    assert want == pytest.approx(0.383588346983, abs=1e-12)
    got = quality_metric(p, MetricField.constant(c * np.eye(4)), mode=mode)
    assert got == pytest.approx(want, rel=1e-12)
