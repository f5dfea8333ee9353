from fractions import Fraction

import numpy as np
import pytest

from pentamesh.bounding import (
    TESSERACT_CORNERS,
    TESSERACT_CORNERS_BINARY,
    build_bounding_mesh,
    subdivision_table,
)
from pentamesh.geometry import hypervolume_exact, hypervolume
from pentamesh.predicates import inhypersphere4, orientation4
from conftest import facet_table


def exact_corner_points(table):
    return [tuple(Fraction(c) for c in corner) for corner in table.corners]


@pytest.mark.parametrize("n_b", [22, 23, 24])
class TestSubdivisionTables:
    def test_counts_and_indices(self, n_b):
        table = subdivision_table(n_b)
        assert len(table.tuples) == n_b
        used = sorted(set(i for tup in table.tuples for i in tup))
        assert used == list(range(1, 17))
        assert len(set(table.tuples)) == n_b

    def test_exact_unit_partition(self, n_b):
        # unsigned rational hypervolumes sum to exactly 1
        table = subdivision_table(n_b)
        corners = exact_corner_points(table)
        vols = [abs(hypervolume_exact(*[corners[i - 1] for i in tup]))
                for tup in table.tuples]
        assert sum(vols) == 1
        assert min(vols) > 0
        if n_b == 24:
            assert all(v == Fraction(1, 24) for v in vols)

    def test_membership_counting(self, n_b):
        # every sampled interior point lies in exactly one pentatope
        import random
        table = subdivision_table(n_b)
        corners = exact_corner_points(table)
        cells = [[corners[i - 1] for i in tup] for tup in table.tuples]
        vols = [hypervolume_exact(*cell) for cell in cells]
        random.seed(n_b)
        for _ in range(60):
            q = tuple(Fraction(random.randrange(1, 9973), 9973) for _ in range(4))
            count = 0
            for cell, vol in zip(cells, vols):
                s = 1 if vol > 0 else -1
                inside = True
                for k in range(5):
                    repl = list(cell)
                    repl[k] = q
                    if s * hypervolume_exact(*repl) < 0:
                        inside = False
                        break
                count += inside
            assert count == 1

    def test_delaunay_against_corners(self, n_b):
        # no corner strictly inside any cell's circumhypersphere (exact)
        table = subdivision_table(n_b)
        for tup in table.tuples:
            cell = [table.corners[i - 1] for i in tup]
            o = orientation4(*cell).sign
            assert o != 0
            for ci, corner in enumerate(table.corners):
                if (ci + 1) in tup:
                    continue
                res = inhypersphere4(*cell, corner, mode="exact")
                assert res.sign * o <= 0  # inside would match the orientation sign


def test_table_24_first_tuple():
    assert subdivision_table(24).tuples[0] == (1, 2, 3, 5, 9)


def test_table_24_uses_binary_corner_order():
    table = subdivision_table(24)
    assert table.corners == TESSERACT_CORNERS_BINARY
    assert subdivision_table(22).corners == TESSERACT_CORNERS
    assert subdivision_table(23).corners == TESSERACT_CORNERS


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        subdivision_table(21)


class TestBuildBoundingMesh:
    def test_single_point_margin_one(self):
        mesh = build_bounding_mesh(np.array([[0.5, 0.5, 0.5, 0.5]]), margin=1.0)
        lo, hi = mesh.bounding_lo, mesh.bounding_hi
        assert all(hi[j] - lo[j] == pytest.approx(2.0) for j in range(4))
        assert all((lo[j] + hi[j]) / 2 == pytest.approx(0.5) for j in range(4))
        assert mesh.n_alive == 24
        assert sum(mesh.is_super) == 16

    def test_points_strictly_interior(self, rng):
        pts = rng.random((40, 4))
        mesh = build_bounding_mesh(pts, margin=0.5)
        lo, hi = mesh.bounding_lo, mesh.bounding_hi
        assert (pts > np.array(lo)).all() and (pts < np.array(hi)).all()

    @pytest.mark.parametrize("n_b", [22, 23, 24])
    def test_exact_partition_of_box(self, rng, n_b):
        pts = rng.random((10, 4)) * 3.0 - 1.0
        mesh = build_bounding_mesh(pts, n_b=n_b)
        total = mesh.total_hypervolume(exact=True)
        # box volume from the stored super-vertex coordinates, exactly
        vs = [tuple(Fraction(c) for c in v) for v in mesh.vertices[:16]]
        box = Fraction(1)
        for j in range(4):
            coords = sorted(v[j] for v in vs)
            box *= coords[-1] - coords[0]
        assert total == box

    def test_positive_orientation_and_adjacency(self, rng):
        pts = rng.random((5, 4))
        for n_b in (22, 23, 24):
            mesh = build_bounding_mesh(pts, n_b=n_b)
            assert mesh.validate() == []
            for eid in mesh.alive_elements():
                assert hypervolume(*mesh.element_points(eid)) > 0.0

    def test_boundary_facets_on_box(self, rng):
        # facets without a second owner must lie on a bounding cube
        pts = rng.random((3, 4))
        mesh = build_bounding_mesh(pts)
        lo, hi = mesh.bounding_lo, mesh.bounding_hi
        n_boundary = 0
        for key, owners in facet_table(mesh).items():
            if len(owners) == 1:
                n_boundary += 1
                coords = np.array([mesh.vertices[v] for v in key])
                on_face = any(
                    np.allclose(coords[:, j], lo[j]) or np.allclose(coords[:, j], hi[j])
                    for j in range(4))
                assert on_face
        assert n_boundary > 0

    def test_cells_are_oriented_exactly_at_tiny_scale(self):
        # scaling by a power of two is exact, and every cell's float
        # hypervolume underflows to 0 at this scale
        pts = np.random.default_rng(0).random((30, 4))
        mesh = build_bounding_mesh(pts * 2.0 ** -330)
        assert mesh.elements == build_bounding_mesh(pts).elements
        assert mesh.validate() == []

    def test_non_finite_point_is_named_by_its_row(self):
        pts = np.random.default_rng(0).random((30, 4))
        pts[3, 1] = np.inf
        with pytest.raises(ValueError, match=r"input point 3 is not finite: \(.*inf"):
            build_bounding_mesh(pts)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_bounding_mesh(np.empty((0, 4)))
        with pytest.raises(ValueError):
            build_bounding_mesh(np.ones((3, 4)), margin=0.0)
