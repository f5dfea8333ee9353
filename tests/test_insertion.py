import copy
import itertools
import math
from collections import deque

import numpy as np
import pytest

from pentamesh import insertion
from pentamesh.bounding import build_bounding_mesh
from pentamesh.flips import improve_quality
from pentamesh.geometry import CANONICAL_FACETS, MetricField, Metric4, _grain, hypervolume
from pentamesh.insertion import (
    audit_delaunay,
    build_cavity,
    cavity_boundary,
    enforce_visibility,
    find_base_element,
    inside_element,
    insert_point,
    triangulate,
)
from pentamesh.mesh import (
    CavityError,
    DuplicateVertexError,
    GhostPointError,
    Mesh4,
)
from pentamesh.pointsets import generate_hypercylinder_points
from pentamesh.predicates import inhypersphere_m_d
from conftest import (
    circumsphere,
    facet_table,
    hypervolume_fraction,
    insphere_sign_fraction,
    spd_metric,
)


def brute_force_containing(mesh, p):
    """Exact membership via barycentric signs."""
    out = []
    for eid in mesh.alive_elements():
        pts = mesh.element_points(eid)
        v = hypervolume(*pts)
        s = 1 if v > 0 else -1
        ok = True
        for k in range(5):
            repl = list(pts)
            repl[k] = p
            if s * hypervolume(*repl) < -1e-13:
                ok = False
                break
        if ok:
            out.append(eid)
    return out


class TestInsideElement:
    def test_centroid_inside(self, rng):
        mesh = build_bounding_mesh(rng.random((5, 4)))
        for eid in mesh.alive_elements():
            cen = tuple(np.mean(mesh.element_points(eid), axis=0))
            ok, exit_li = inside_element(mesh, eid, cen)
            assert ok and exit_li is None

    def test_outside_reports_closest_violated_facet(self, rng):
        mesh = build_bounding_mesh(rng.random((5, 4)))
        eid = next(mesh.alive_elements())
        pts = np.array(mesh.element_points(eid))
        cen = pts.mean(axis=0)
        # step orthogonally out through facet 0's plane, slightly
        from pentamesh.geometry import facet_normal, CANONICAL_FACETS, FACET_OPPOSITE
        pat = CANONICAL_FACETS[0]
        quad = [pts[i] for i in pat]
        fcen = np.mean(quad, axis=0)
        n = facet_normal(*quad)
        n = n / np.linalg.norm(n)
        if np.dot(n, pts[FACET_OPPOSITE[0]] - fcen) > 0:
            n = -n  # ensure n points out of the element
        p = tuple(fcen + 0.05 * np.linalg.norm(quad[0] - quad[1]) * n)
        ok, exit_li = inside_element(mesh, eid, p)
        if not brute_force_containing(mesh, p):
            pytest.skip("stepped outside the box")
        assert not ok
        assert exit_li == 0

    def test_point_on_shared_facet_counts_inside(self, rng):
        mesh = build_bounding_mesh(rng.random((5, 4)))
        for key, owners in facet_table(mesh).items():
            if len(owners) == 2:
                p = tuple(np.mean([mesh.vertices[v] for v in key], axis=0))
                for eid, _li in owners:
                    ok, _ = inside_element(mesh, eid, p)
                    assert ok
                break


class TestFindBaseElement:
    def test_point_in_start(self, rng):
        mesh = build_bounding_mesh(rng.random((5, 4)))
        eid = next(mesh.alive_elements())
        cen = tuple(np.mean(mesh.element_points(eid), axis=0))
        found, stats = find_base_element(mesh, cen, start=eid)
        assert found == eid and stats.steps == 0 and not stats.fallback_used

    def test_neighbor_step(self, rng):
        mesh = build_bounding_mesh(rng.random((5, 4)))
        eid = next(mesh.alive_elements())
        nb = next(mesh.nbr[eid][li] for li in range(5)
                  if mesh.nbr[eid][li] is not None)
        cen = tuple(np.mean(mesh.element_points(nb[0]), axis=0))
        found, stats = find_base_element(mesh, cen, start=eid)
        assert found in brute_force_containing(mesh, cen)

    def test_walk_across_mesh(self, rng):
        pts = rng.random((60, 4))
        mesh = triangulate(pts, strip_super=False)
        for _ in range(25):
            p = tuple(rng.random(4))
            found, _stats = find_base_element(mesh, p)
            assert found in brute_force_containing(mesh, p)

    def test_fallback_on_dead_ends(self, rng):
        # a start far from the target with a visited-set forces progress;
        # the exhaustive fallback must still find the containing element
        pts = rng.random((30, 4))
        mesh = triangulate(pts, strip_super=False)
        p = tuple(rng.random(4))
        expected = set(brute_force_containing(mesh, p))
        for start in itertools.islice(mesh.alive_elements(), 10):
            found, _ = find_base_element(mesh, p, start=start)
            assert found in expected

    def test_ghost_point(self, rng):
        mesh = build_bounding_mesh(rng.random((5, 4)))
        with pytest.raises(GhostPointError):
            insert_point(mesh, tuple(np.array(mesh.bounding_hi) + 1.0))


class TestBuildCavity:
    def test_identity_metric_matches_exhaustive(self, rng):
        pts = rng.random((40, 4))
        mesh = triangulate(pts, strip_super=False)
        for _ in range(10):
            p = tuple(rng.random(4))
            base, _ = find_base_element(mesh, p)
            cav = build_cavity(mesh, base, p, None)
            expected = {eid for eid in mesh.alive_elements()
                        if insphere_sign_fraction(
                            list(mesh.element_points(eid)) + [p]) > 0}
            expected.add(base)
            # the cavity is the facet-connected in-sphere set around base
            assert cav.elements == expected

    def test_anisotropy_changes_cavity(self, rng):
        pts = rng.random((40, 4))
        mesh = triangulate(pts, strip_super=False)
        p = tuple(rng.random(4))
        base, _ = find_base_element(mesh, p)
        cav_iso = build_cavity(mesh, base, p, None)
        strong = Metric4(np.diag([1.0, 1.0, 1.0, 900.0]))
        cav_aniso = build_cavity(mesh, base, p, strong)
        assert cav_iso.elements != cav_aniso.elements

    def test_boundary_watertight(self, rng):
        pts = rng.random((40, 4))
        mesh = triangulate(pts, strip_super=False)
        p = tuple(rng.random(4))
        base, _ = find_base_element(mesh, p)
        cav = build_cavity(mesh, base, p, None)
        n_facets = 5 * len(cav.elements)
        internal = 0
        for eid in cav.elements:
            for li in range(5):
                nb = mesh.nbr[eid][li]
                if nb is not None and nb[0] in cav.elements:
                    internal += 1
        assert internal % 2 == 0
        assert len(cav.boundary) == n_facets - internal


def reference_cavity(mesh, base, p, metric, tiers):
    """Per-element BFS with one in-sphere predicate call per element.

    The scalar form of cavity growth; ``tiers`` counts the tier that
    certified each call.
    """
    elements = {base}
    front = deque(nb[0] for nb in (mesh.nbr[base][li] for li in range(5))
                  if nb is not None)
    seen = {base, *front}
    while front:
        eid = front.popleft()
        res = inhypersphere_m_d(metric, list(mesh.element_points(eid)) + [p])
        tiers[res.exactness] += 1
        if res.sign <= 0:
            continue
        elements.add(eid)
        for li in range(5):
            nb = mesh.nbr[eid][li]
            if nb is not None and nb[0] not in seen:
                seen.add(nb[0])
                front.append(nb[0])
    return elements, cavity_boundary(mesh, elements)


class TestCavityMatchesReference:
    """Before every insertion, the layered cavity equals the per-element one."""

    @staticmethod
    def _triangulate_checked(monkeypatch, pts, field, **kwargs):
        tiers = {"float": 0, "exact": 0}
        layered = insertion.build_cavity

        def checked(mesh, base, p, metric):
            cav = layered(mesh, base, p, metric)
            elements, boundary = reference_cavity(mesh, base, p, metric, tiers)
            assert cav.elements == elements
            assert cav.boundary == boundary
            return cav

        monkeypatch.setattr(insertion, "build_cavity", checked)
        mesh = triangulate(pts, field, **kwargs)
        return mesh, tiers

    def test_hypercylinder_speed_field(self, monkeypatch):
        # cospherical boundary samples: the exact tier decides many rows
        pts = generate_hypercylinder_points(1.0, 4.0, 1.0 / 1.5, 1.0 / 1.5, seed=3)
        field = MetricField.speed(c0=1.0, beta=0.1, center=2.0)
        _, tiers = self._triangulate_checked(monkeypatch, pts, field, shuffle=True,
                                             seed=3, skip_duplicates=True)
        assert tiers["exact"] > 0.1 * tiers["float"]

    def test_fine_grain_coordinates(self, monkeypatch, rng):
        # a 2**-70 and a subnormal coordinate raise the mesh's grain to 1074,
        # so every later insertion lifts its escalated rows at that scale
        pts = rng.random((30, 4))
        pts[4, 1] = 2.0 ** -70
        pts[9, 2] = 5e-324
        mesh, tiers = self._triangulate_checked(monkeypatch, pts, None)
        assert mesh.grain >= 1074 and tiers["exact"] > 0 and mesh.validate() == []

    def test_constant_full_metric(self, monkeypatch, rng):
        metric = Metric4(spd_metric(rng))
        assert metric.diag is None  # the full-rows bracket
        mesh, tiers = self._triangulate_checked(
            monkeypatch, rng.random((40, 4)), MetricField.constant(metric))
        assert tiers["float"] > 0 and mesh.validate() == []


def visibility_product(facet_pts, p, metric, det):
    """Q = N^T M CP normalized, with the inward normal of the facet's corners.

    ``det`` is the exact determinant det(a-p, b-p, c-p, d-p), which equals
    N_e . CP; the normalizers are written out here independently.
    """
    a, b, c, d = facet_pts
    u, v, w = ([q[j] - a[j] for j in range(4)] for q in (b, c, d))
    ne = [(-1) ** j * np.linalg.det(np.delete(np.array([u, v, w]), j, axis=1))
          for j in range(4)]
    cp = np.asarray(p) - np.mean(facet_pts, axis=0)
    m = np.eye(4) if metric is None else metric.m
    nn = float(np.dot(ne, np.linalg.solve(m, ne)))
    cc = float(cp @ m @ cp)
    return float(det) / math.sqrt(nn * cc)


class TestVisibilityMatchesOracle:
    def test_hypercylinder_speed_field(self, monkeypatch):
        # cospherical boundary samples put many facets near the threshold;
        # at every insertion each kept boundary facet sees p by the exact
        # orientation, and each removed owner had a boundary facet that
        # does not (or whose reconnection is a sliver below the threshold)
        repair = insertion.enforce_visibility
        counts = {"kept": 0, "removed": 0}

        def oracle_sign(mesh, facet, p):
            pts = [mesh.vertices[v] for v in facet]
            det = 24 * hypervolume_fraction(*pts, p)
            return (det > 0) - (det < 0), pts, det

        def checked(mesh, cavity, p, metric, **kwargs):
            before = set(cavity.elements)
            out = repair(mesh, cavity, p, metric, **kwargs)
            after = out.elements
            for facet, _owner, _li in out.boundary:
                sign, _, _ = oracle_sign(mesh, facet, p)
                assert sign > 0
            counts["kept"] += len(out.boundary)
            for owner in before - after:
                verts = mesh.elements[owner]
                reasons = []
                for li, nb in enumerate(mesh.nbr[owner]):
                    if nb is not None and nb[0] in after:
                        continue  # an inner facet of the repaired cavity
                    facet = tuple(verts[i] for i in CANONICAL_FACETS[li])
                    sign, pts, det = oracle_sign(mesh, facet, p)
                    reasons.append(sign <= 0 or visibility_product(pts, p, metric, det) <= 1e-16)
                assert any(reasons)
                counts["removed"] += 1
            return out

        monkeypatch.setattr(insertion, "enforce_visibility", checked)
        pts = generate_hypercylinder_points(1.0, 4.0, 1.0 / 1.5, 1.0 / 1.5, seed=0)
        field = MetricField.speed(c0=1.0, beta=0.1, center=2.0)
        mesh = triangulate(pts, field, shuffle=True, seed=0, skip_duplicates=True)
        assert mesh.validate() == []
        assert counts["kept"] > 10000 and counts["removed"] > 0


class TestEnforceVisibility:
    def test_all_visible_unchanged(self, rng):
        pts = rng.random((30, 4))
        mesh = triangulate(pts, strip_super=False)
        p = tuple(rng.random(4))
        base, _ = find_base_element(mesh, p)
        cav = build_cavity(mesh, base, p, None)
        before = set(cav.elements)
        enforce_visibility(mesh, cav, p, None, base=base)
        assert cav.elements == before  # random clouds: no repair expected

    def test_invisible_facet_removed(self, rng):
        # force invisibility by growing the cavity beyond the in-sphere set
        pts = rng.random((40, 4))
        mesh = triangulate(pts, strip_super=False)
        p = tuple(rng.random(4))
        base, _ = find_base_element(mesh, p)
        cav = build_cavity(mesh, base, p, None)
        # adjoin a far-away element: its boundary facets will not see p
        far = max(mesh.alive_elements(),
                  key=lambda e: sum((np.mean(mesh.element_points(e), axis=0) - p) ** 2))
        if far not in cav.elements:
            cav.elements.add(far)
            cav.boundary = cavity_boundary(mesh, cav.elements)
            enforce_visibility(mesh, cav, p, None, base=base)
            assert far not in cav.elements
            # boundary is consistent after the repair
            assert cav.boundary == cavity_boundary(mesh, cav.elements)


class TestInsertPoint:
    def test_first_insertion(self, rng):
        pts = rng.random((1, 4)) * 0.0 + 0.3
        mesh = build_bounding_mesh(pts)
        rep = insert_point(mesh, (0.3, 0.3, 0.3, 0.3))
        assert rep.cavity_size >= 1
        assert len(rep.new_elements) >= 5
        assert mesh.validate() == []

    def test_centroid_insertion_is_one_to_five(self, rng):
        # inserting the centroid of an element whose circumsphere holds no
        # other point splits exactly that element into five
        pts = rng.random((30, 4))
        mesh = triangulate(pts, strip_super=False)
        for eid in mesh.alive_elements():
            cen = tuple(np.mean(mesh.element_points(eid), axis=0))
            base, _ = find_base_element(mesh, cen)
            cav = build_cavity(mesh, base, cen, None)
            if cav.elements == {eid}:
                rep = insert_point(mesh, cen)
                assert rep.cavity_size == 1
                assert len(rep.new_elements) == 5
                assert mesh.validate() == []
                return
        pytest.skip("no element with an empty circumsphere around the centroid")

    def test_duplicate_vertex(self, rng):
        pts = rng.random((10, 4))
        mesh = triangulate(pts, strip_super=False)
        with pytest.raises(DuplicateVertexError):
            insert_point(mesh, tuple(pts[3]))

    @staticmethod
    def _degenerate_reconnection(mesh, monkeypatch):
        # make the first boundary facet repeat a vertex, so Mesh4.cone
        # receives a degenerate element
        real = mesh.cone

        def degenerate(old, boundary, apex):
            boundary = list(boundary)
            facet, owner, li = boundary[0]
            boundary[0] = ((*facet[:3], facet[0]), owner, li)
            return real(old, boundary, apex)

        monkeypatch.setattr(mesh, "cone", degenerate)

    def test_reconnection_error_carries_context(self, rng, monkeypatch):
        # an injected degenerate reconnection reports the cause, the exact
        # point, the base element with its vertices and the cavity size
        mesh = triangulate(rng.random((20, 4)), strip_super=False)
        p = tuple(float(c) for c in rng.random(4))
        base, _ = find_base_element(mesh, p)
        base_verts = mesh.elements[base]
        cav = build_cavity(mesh, base, p, None)
        enforce_visibility(mesh, cav, p, None, base=base)
        self._degenerate_reconnection(mesh, monkeypatch)
        with pytest.raises(CavityError) as err:
            insert_point(mesh, p)
        msg = str(err.value)
        assert "5 distinct vertices" in msg
        assert repr(p) in msg
        assert f"base element {base} {base_verts}" in msg
        assert f"cavity of {len(cav.elements)} elements" in msg

    def test_degenerate_reconnection_leaves_mesh_unchanged(self, rng, monkeypatch):
        # the vertices, the elements, the neighbour table and the grain stay
        # as they were, also for a point finer than every vertex
        mesh = triangulate(rng.random((20, 4)), strip_super=False)
        vertices, elements, grain = list(mesh.vertices), list(mesh.elements), mesh.grain
        nbr = [row and list(row) for row in mesh.nbr]
        p = (2.0 ** -70, 0.25, 0.75, 0.5)
        assert _grain(p) > grain
        self._degenerate_reconnection(mesh, monkeypatch)
        with pytest.raises(CavityError):
            insert_point(mesh, p)
        assert mesh.vertices == vertices
        assert mesh.elements == elements
        assert [row and list(row) for row in mesh.nbr] == nbr
        assert mesh.validate() == []
        assert mesh.grain == grain

    def test_duplicate_names_the_vertex(self, rng):
        pts = rng.random((10, 4))
        mesh = triangulate(pts, strip_super=False)
        q = tuple(float(c) for c in pts[3])
        vid = mesh.vertices.index(q)
        with pytest.raises(DuplicateVertexError, match=rf"duplicates vertex {vid} "):
            insert_point(mesh, q)

    def test_exact_hypervolume_conserved(self, rng):
        pts = rng.random((20, 4))
        mesh = build_bounding_mesh(pts)
        before = mesh.total_hypervolume(exact=True)
        for p in pts:
            insert_point(mesh, p)
        assert mesh.total_hypervolume(exact=True) == before

    def test_adjacency_invariants_after_each_insert(self, rng):
        pts = rng.random((12, 4))
        mesh = build_bounding_mesh(pts)
        for p in pts:
            insert_point(mesh, p)
            assert mesh.validate() == []


class TestNonFiniteField:
    """A field that returns a non-finite metric fails before the mesh changes."""

    field = MetricField.from_function(lambda p: np.diag([1.0, 1.0, 1.0, np.nan]))

    @staticmethod
    def snapshot(mesh):
        return copy.deepcopy((mesh.vertices, mesh.vertex_alive, mesh.elements, mesh.nbr,
                              mesh.star, mesh.n_alive, mesh.grain, mesh.last_created))

    def test_insert_point_raises_and_leaves_the_mesh(self, rng):
        mesh = build_bounding_mesh(rng.random((20, 4)))
        before = self.snapshot(mesh)
        with pytest.raises(ValueError, match="non-finite"):
            insert_point(mesh, (0.5, 0.5, 0.5, 0.5), self.field)
        assert self.snapshot(mesh) == before

    def test_improve_quality_raises_and_leaves_the_mesh(self):
        mesh = triangulate(np.random.default_rng(0).random((30, 4)))
        before = self.snapshot(mesh)
        with pytest.raises(ValueError, match="non-finite"):
            improve_quality(mesh, field=self.field)
        assert self.snapshot(mesh) == before


class TestTriangulate:
    def test_five_points_cover_hull(self, rng):
        # a well-shaped simplex (bounded circumradius) survives stripping;
        # extreme slivers legitimately lose to the box corners
        from pentamesh.geometry import regular_pentatope
        pts = regular_pentatope(1.0) + rng.normal(size=(5, 4)) * 0.05
        mesh = triangulate(pts)
        assert mesh.n_alive == 1
        assert mesh.validate() == []
        got = hypervolume(*mesh.element_points(next(mesh.alive_elements())))
        assert got == pytest.approx(abs(hypervolume(*pts)), rel=1e-12)

    def test_super_removal_flags(self, rng):
        pts = rng.random((15, 4))
        mesh = triangulate(pts, strip_super=True)
        assert not any(mesh.is_super)
        assert mesh.n_vertices == 15

    def test_random_cloud_audit(self, rng):
        pts = rng.random((120, 4))
        mesh = triangulate(pts)
        report = audit_delaunay(mesh)
        assert report.ok

    def test_matches_bruteforce_delaunay_small(self, rng):
        # <= 9 points: enumerate all 5-subsets with empty circumspheres
        # ("inside" carries the cell's orientation sign)
        from pentamesh.predicates import orientation4
        for trial in range(3):
            pts = rng.random((8, 4))
            expected = set()
            r_max = 0.0
            for sub in itertools.combinations(range(8), 5):
                cell = [tuple(pts[i]) for i in sub]
                o = orientation4(*cell).sign
                if o == 0:
                    continue
                empty = True
                for m in range(8):
                    if m in sub:
                        continue
                    if o * insphere_sign_fraction(cell + [tuple(pts[m])]) > 0:
                        empty = False
                        break
                if empty:
                    expected.add(frozenset(sub))
                    _c, r2 = circumsphere(cell)
                    r_max = max(r_max, math.sqrt(r2))
            # the box must clear every Delaunay circumsphere, or hull cells
            # are (correctly) sacrificed to the super corners
            diag = float(np.linalg.norm(pts.max(0) - pts.min(0)))
            mesh = triangulate(pts, margin=4.0 * (r_max + diag) / diag)
            got = {frozenset(mesh.elements[e]) for e in mesh.alive_elements()}
            assert got == expected

    def test_insertion_order_invariance(self, rng):
        pts = rng.random((25, 4))
        a = triangulate(pts, shuffle=False)
        b = triangulate(pts, shuffle=True, seed=5)
        sets_a = {frozenset(tuple(a.vertices[v]) for v in a.elements[e])
                  for e in a.alive_elements()}
        sets_b = {frozenset(tuple(b.vertices[v]) for v in b.elements[e])
                  for e in b.alive_elements()}
        assert sets_a == sets_b


def _simplex_set(mesh, pts):
    """Each alive element as the set of input indices of its vertices."""
    index = {tuple(p): i for i, p in enumerate(pts.tolist())}
    return {frozenset(index[mesh.vertices[v]] for v in mesh.elements[e])
            for e in mesh.alive_elements()}


CLOUD = np.random.default_rng(0).random((120, 4))
GRID = np.round(CLOUD * 2.0 ** 20) / 2.0 ** 20  # coordinates on the 2**-20 grid


class TestScaleAndOffset:
    """Exact signs make the mesh independent of coordinate scale and offset."""

    @pytest.fixture(scope="class")
    def unit(self):
        return _simplex_set(triangulate(CLOUD), CLOUD)

    @pytest.fixture(scope="class")
    def grid(self):
        return _simplex_set(triangulate(GRID), GRID)

    @pytest.mark.parametrize("factor", [2.0 ** -20, 2.0 ** 20])
    def test_power_of_two_scaling_gives_the_unit_mesh(self, unit, factor):
        pts = CLOUD * factor
        mesh = triangulate(pts)
        assert _simplex_set(mesh, pts) == unit
        assert mesh.validate() == []

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0, 1000.0), (2.0 ** 20,) * 4, (-3.0,) * 4])
    def test_exact_offset_gives_the_unit_mesh(self, grid, offset):
        pts = GRID + offset
        assert np.array_equal(pts - offset, GRID)  # every moved point is exact
        mesh = triangulate(pts)
        assert _simplex_set(mesh, pts) == grid
        assert mesh.validate() == []

    @pytest.mark.parametrize("factor, offset", [
        (1e-6, 0.0), (1e-4, 0.0), (1e4, 0.0), (1e6, 0.0),
        (1.0, (0.0, 0.0, 0.0, 1000.0)), (1.0, (1e6,) * 4)])
    def test_moved_cloud_is_delaunay(self, factor, offset):
        from scipy.spatial import Delaunay
        pts = CLOUD * factor + offset
        mesh = triangulate(pts)
        assert mesh.validate() == []
        # qhull loses precision far from the origin; subtracting the offset
        # again is exact (Sterbenz), so it sees the same Delaunay simplices
        back = pts - offset
        assert np.array_equal(back + offset, pts)
        qhull = {frozenset(s) for s in Delaunay(back).simplices.tolist()}
        assert _simplex_set(mesh, pts) <= qhull


def _perm_parity(a, b):
    """+1 if tuple b is an even permutation of tuple a, else -1."""
    perm = [a.index(x) for x in b]
    parity = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def test_interior_facets_have_opposite_orientations(rng):
    # the two owners of every interior facet induce opposite orderings
    pts = rng.random((25, 4))
    mesh = triangulate(pts, strip_super=False)
    from pentamesh.geometry import CANONICAL_FACETS
    n_interior = 0
    for key, owners in facet_table(mesh).items():
        if len(owners) != 2:
            continue
        ordered = []
        for eid, li in owners:
            verts = mesh.elements[eid]
            ordered.append(tuple(verts[i] for i in CANONICAL_FACETS[li]))
        assert _perm_parity(ordered[0], ordered[1]) == -1
        n_interior += 1
    assert n_interior > 0


class TestAudit:
    def test_single_element_clean(self):
        mesh = Mesh4.from_arrays(
            np.vstack([np.zeros(4), np.eye(4)]), [(0, 1, 2, 3, 4)])
        assert audit_delaunay(mesh).ok

    def test_constructed_violation(self):
        # two elements sharing a facet, each apex inside the other's sphere
        base = [(0.0, 0, 0, 0), (1.0, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, 1.0, 0)]
        up = (0.25, 0.25, 0.25, 0.05)
        dn = (0.25, 0.25, 0.25, -0.05)
        mesh = Mesh4()
        for p in base + [up, dn]:
            mesh.add_vertex(p)
        for apex in (4, 5):
            vids = (0, 1, 2, 3, apex)
            pts = [mesh.vertices[v] for v in vids]
            if hypervolume(*pts) < 0:
                vids = (1, 0, 2, 3, apex)
            mesh.add_element(vids)
        report = audit_delaunay(mesh)
        assert {(v, e) for v, e, _ in report.violations} == {(4, 1), (5, 0)}

    def test_constant_anisotropic_matches_brute_force(self, rng):
        # a Delaunay mesh of the identity metric is not Delaunay under a
        # stretched constant metric; the batched audit must report exactly
        # the pairs a scan of every pair with the exact predicate reports
        metric = Metric4(np.array([[9.0, 2.0, 0.0, 1.0], [2.0, 1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.25, 0.0], [1.0, 0.0, 0.0, 4.0]]))
        mesh = triangulate(rng.random((25, 4)))
        report = audit_delaunay(mesh, MetricField.constant(metric))
        expected = []
        vids = [v for v in range(len(mesh.vertices)) if mesh.vertex_alive[v]]
        for eid in mesh.alive_elements():
            for vid in vids:
                if vid in mesh.elements[eid]:
                    continue
                res = inhypersphere_m_d(metric, list(mesh.element_points(eid))
                                        + [mesh.vertices[vid]])
                if res.sign > 0:  # the audit's rule: the sign alone
                    expected.append((vid, eid, res.value))
        assert expected and report.violations == expected
        assert report.n_checked == mesh.n_alive * len(vids)

    def test_varying_field_is_evaluated_once_per_vertex(self, rng):
        # the exact tier reuses the metric the circumsphere pass evaluated;
        # the violations are those of a scan of every pair, vertex by vertex,
        # under the metric evaluated at the vertex
        def stretch(p):
            calls.append(p)
            return np.diag([1.0, 1.0 + 8.0 * p[0] ** 2, 1.0, 9.0])

        calls = []
        field = MetricField.from_function(stretch)
        mesh = triangulate(rng.random((20, 4)))
        report = audit_delaunay(mesh, field)
        vids = [v for v in range(len(mesh.vertices)) if mesh.vertex_alive[v]]
        assert len(calls) == len(vids)
        expected = []
        for vid in vids:
            metric = field(mesh.vertices[vid])
            for eid in mesh.alive_elements():
                if vid in mesh.elements[eid]:
                    continue
                res = inhypersphere_m_d(metric, list(mesh.element_points(eid))
                                        + [mesh.vertices[vid]])
                if res.sign > 0:  # the audit's rule: the sign alone
                    expected.append((vid, eid, res.value))
        assert expected and report.violations == expected

    def test_exactly_positive_pair_with_zero_float_value_is_reported(self):
        # five cospherical lattice points with |x|^2 = 9 and a sixth moved
        # 2^-51 inside their sphere: the float bracket rounds to exactly 0,
        # the exact sign is positive, and the sign alone decides
        corners = [(2.0, 0.0, 1.0, 2.0), (1.0, 2.0, 0.0, -2.0), (-2.0, 0.0, 2.0, -1.0),
                   (2.0, -2.0, -1.0, 0.0), (0.0, 0.0, 3.0, 0.0)]
        q = (-2.0, 0.0, -2.0 + 2.0 ** -51, -1.0)
        res = inhypersphere_m_d(None, corners + [q])
        assert (res.sign, res.value, res.exactness) == (1, 0.0, "exact")
        mesh = Mesh4()
        for p in corners + [q]:
            mesh.add_vertex(p)
        mesh.add_element((0, 1, 2, 3, 4))
        assert audit_delaunay(mesh).violations == [(5, 0, 0.0)]

    def test_constant_metric_as_a_function_matches_the_constant_field(self, rng):
        # the vertices of a function field that returns one metric everywhere
        # form one group, so its violations equal the constant field's,
        # order included
        m = np.array([[9.0, 2.0, 0.0, 1.0], [2.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.25, 0.0], [1.0, 0.0, 0.0, 4.0]])
        mesh = triangulate(rng.random((25, 4)))
        constant = audit_delaunay(mesh, MetricField.constant(m))
        varying = audit_delaunay(mesh, MetricField.from_function(lambda p: m))
        assert constant.violations and varying.violations == constant.violations
        assert varying.n_checked == constant.n_checked

    def test_anisotropic_audit_runs(self, rng):
        pts = rng.random((25, 4))
        field = MetricField.speed(c0=1.0, beta=1.0, center=0.5)
        mesh = triangulate(pts, field)
        report = audit_delaunay(mesh, field)
        assert report.n_checked > 0
