"""Exact 2D decisions: the sweep and the LOP on lattice, cocircular and
near-collinear clouds, checked with ``Fraction`` areas and exact in-circle
signs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pentamesh.predicates import inhypersphere_m_d
from pentamesh.roughness2d import lop, sweep_triangulation
from test_roughness2d import _hull_area


def _exact(pts):
    return [tuple(Fraction(float(c)) for c in p) for p in pts]


def _area2(p, a, b, c):
    """Twice the signed area of triangle abc, exactly."""
    return (p[b][0] - p[a][0]) * (p[c][1] - p[a][1]) - (p[b][1] - p[a][1]) * (p[c][0] - p[a][0])


def _assert_tiles_the_hull(pts, tris):
    """Every triangle exactly counterclockwise, the areas summing to the hull's exactly."""
    exact = _exact(pts)
    areas = [_area2(exact, *t) for t in tris]
    assert min(areas) > 0
    assert sum(areas) / 2 == _hull_area(exact)


def _near_collinear(t, moves, extra):
    """Points (0.5, 0.5) + t (1, 1), each y moved by a few ulps, plus ``extra``."""
    x = 0.5 + np.array(t)
    y = np.array([v + k * np.spacing(v) for v, k in zip(x, moves)])
    return np.vstack([np.c_[x, y], np.array(extra, dtype=float).reshape(-1, 2)])


def _collinear(pts):
    exact = _exact(pts)
    return all(_area2(exact, 0, 1, k) == 0 for k in range(2, len(exact)))


near_collinear_clouds = st.builds(
    _near_collinear,
    st.lists(st.floats(0.0, 30.0), min_size=3, max_size=8),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
    st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)), max_size=3))


@settings(max_examples=200)
@example(pts=_near_collinear([0.0, 0.0, 0.0, 1.0], [0, 1, -1, 2, 0, 0, 0, 0], []))
@example(pts=_near_collinear([0.0, 1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0, -1, 0, 0, 0], [(20.0, 1.0)]))
@example(pts=_near_collinear([0.0, 1.0, 2.0, 3.0, 4.0], [-1, 0, 0, 0, 1, 0, 0, 0], [(1.0, 20.0)]))
@given(pts=near_collinear_clouds)
def test_sweep_tiles_near_collinear_hulls_exactly(pts):
    # a point later in lexicographic order is strictly outside the earlier
    # hull, so exact turns alone connect it: no triangle is flat or inverted
    assume(len(set(map(tuple, pts))) == len(pts))
    if _collinear(pts):
        with pytest.raises(ValueError, match="collinear"):
            sweep_triangulation(pts)
        return
    _assert_tiles_the_hull(pts, sweep_triangulation(pts))


def _lattice(nx, ny, k):
    return [(i * 2.0 ** k, j * 2.0 ** k) for i in range(nx) for j in range(ny)]


def _cocircular(k, center):
    """The twelve integer points of the circle of radius 5, time divided by
    2**k, and the speed 2**k under which they lie exactly on one metric circle."""
    ring = [(3, 4), (4, 3), (5, 0), (0, 5)]
    ring += [(-x, t) for x, t in ring] + [(x, -t) for x, t in ring] + [(-x, -t) for x, t in ring]
    pts = sorted({(float(x), t / 2.0 ** k) for x, t in ring})
    return pts + [(0.0, 0.0)] if center else pts, 2.0 ** k


def _assert_locally_delaunay(pts, tris, c_v):
    metric = ((1.0, 0.0), (0.0, c_v * c_v))
    owners = {}
    for tri in tris:
        for i in range(3):
            owners.setdefault(frozenset((tri[i], tri[i - 1])), []).append(tri)
    for edge, pair in owners.items():
        assert len(pair) <= 2
        if len(pair) == 2:
            (d,) = set(pair[1]) - edge
            sign = inhypersphere_m_d(metric, [pts[v] for v in pair[0]] + [pts[d]]).sign
            assert sign <= 0, f"edge {sorted(edge)} is not locally Delaunay"


@settings(max_examples=60)
@given(cloud=st.one_of(
    st.tuples(st.builds(_lattice, st.integers(2, 5), st.integers(2, 5), st.integers(-3, 3)),
              st.sampled_from([0.5, 1.0, 3.0]) | st.floats(0.25, 4.0)),
    st.builds(_cocircular, st.integers(-1, 2), st.booleans()),
    st.tuples(near_collinear_clouds, st.floats(0.25, 4.0))))
def test_lop_is_exactly_locally_delaunay(cloud):
    # ties (the lattice's squares, the twelve points on one circle) may stay
    # unflipped, but no opposite point is strictly inside a metric circumcircle
    pts, c_v = cloud
    pts = np.asarray(pts, dtype=float)
    assume(len(set(map(tuple, pts))) == len(pts) and not _collinear(pts))
    tris = lop(pts, c_field=c_v)
    _assert_tiles_the_hull(pts, tris)
    _assert_locally_delaunay(pts, tris, c_v)


@pytest.mark.parametrize("c_v", [0.0, -1.0])
def test_lop_rejects_a_non_positive_speed(c_v):
    # the metric diag(1, c**2) would take -c for c
    pts = np.random.default_rng(0).random((10, 2))
    with pytest.raises(ValueError, match="speed must be positive"):
        lop(pts, c_field=c_v)
