"""The neighbour table of ``Mesh4``: gluing, its checks and ``validate``."""

import copy
from collections import defaultdict

import pytest

from pentamesh.flips import improve_quality
from pentamesh.geometry import CANONICAL_FACETS
from pentamesh.insertion import insert_point, triangulate
from pentamesh.mesh import Mesh4, MeshError
from pentamesh.meshio import MeshFormatError, loads_p4m


def facet_owners(mesh):
    """Facet (as a frozenset) -> its (element, local facet) owners, from the tuples."""
    owners = defaultdict(list)
    for eid in mesh.alive_elements():
        verts = mesh.elements[eid]
        for li, pat in enumerate(CANONICAL_FACETS):
            owners[frozenset(verts[i] for i in pat)].append((eid, li))
    return owners


def assert_table_matches_tuples(mesh):
    expected = {}
    for own in facet_owners(mesh).values():
        assert len(own) <= 2
        for slot in own:
            expected[slot] = next((o for o in own if o != slot), None)
    for eid, verts in enumerate(mesh.elements):
        if verts is None:
            assert mesh.nbr[eid] is None
            continue
        for li in range(5):
            assert mesh.nbr[eid][li] == expected[(eid, li)]
            assert mesh.neighbor(eid, li) == expected[(eid, li)]


def snapshot(mesh):
    return copy.deepcopy((mesh.vertices, mesh.elements, mesh.nbr, mesh.star, mesh.n_alive))


def shared_facet_mesh():
    """Seven vertices; facet (0, 1, 2, 3) can take the apexes 4, 5 and 6."""
    mesh = Mesh4()
    for p in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
              (0.2, 0.2, 0.2, 1), (0.2, 0.2, 0.2, -1), (0.3, 0.1, 0.2, 2)]:
        mesh.add_vertex(p)
    return mesh


class TestTableOracle:
    def test_insertions_then_flips(self, rng):
        pts = rng.random((30, 4))
        mesh = triangulate(pts, strip_super=False)
        assert_table_matches_tuples(mesh)
        for p in rng.random((10, 4)) * 0.5 + 0.25:
            insert_point(mesh, p)
        assert_table_matches_tuples(mesh)

        mesh = triangulate(pts)
        report = improve_quality(mesh, heuristic=1)
        assert report.flips
        assert_table_matches_tuples(mesh)
        assert mesh.validate() == []

    def test_adjacency_is_a_read_only_view_of_the_table(self, rng):
        mesh = triangulate(rng.random((12, 4)), strip_super=False)
        adj = mesh.adjacency
        owners = facet_owners(mesh)
        assert {frozenset(k): sorted(v) for k, v in adj.items()} == owners
        assert all(list(k) == sorted(k) for k in adj)
        with pytest.raises(TypeError):
            adj[next(iter(adj))] = ()


class TestChecks:
    def test_third_owner_in_add_element(self):
        mesh = shared_facet_mesh()
        mesh.add_element((0, 1, 2, 3, 4))
        mesh.add_element((1, 0, 2, 3, 5))
        before = snapshot(mesh)
        with pytest.raises(MeshError, match="third owner"):
            mesh.add_element((0, 1, 2, 3, 6))
        assert snapshot(mesh) == before
        assert mesh.validate() == []

    def test_third_owner_in_load_p4m_names_its_line(self):
        text = ("p4m 1\nvertices 7\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
                "0.2 0.2 0.2 1\n0.2 0.2 0.2 -1\n0.3 0.1 0.2 2\n"
                "pentatopes 3\n0 1 2 3 4\n1 0 2 3 5\n0 1 2 3 6\n")
        with pytest.raises(MeshFormatError, match="third owner") as err:
            loads_p4m(text)
        assert err.value.line == 13

    def test_replace_rejects_and_leaves_the_mesh(self, rng):
        mesh = triangulate(rng.random((12, 4)), strip_super=False)
        eid = next(mesh.alive_elements())
        verts = mesh.elements[eid]
        before = snapshot(mesh)
        cases = [((eid,), (), "not covered"),
                 ((eid,), (verts, verts), "third owner"),
                 ((eid,), (verts[:4] + (verts[0],),), "5 distinct"),
                 ((eid, eid), (verts,), "repeat")]
        for old, tuples, message in cases:
            with pytest.raises(MeshError, match=message):
                mesh.replace(old, tuples)
            assert snapshot(mesh) == before
        assert mesh.replace((eid,), (verts,)) == [len(mesh.elements) - 1]
        assert mesh.validate() == []


class TestValidate:
    @staticmethod
    def interior_pair(mesh):
        for eid in mesh.alive_elements():
            for li, nb in enumerate(mesh.nbr[eid]):
                if nb is not None:
                    return (eid, li), nb
        raise AssertionError("no interior facet")

    def test_reports_each_corruption(self, rng):
        base = triangulate(rng.random((12, 4)), strip_super=False)
        assert base.validate() == []
        dead = next(e for e, v in enumerate(base.elements) if v is None)
        (e, li), (c, lc) = self.interior_pair(base)

        def corrupted(fn):
            mesh = copy.deepcopy(base)
            fn(mesh)
            return "\n".join(mesh.validate())

        def no_point_back(m):
            m.nbr[c][lc] = None

        def dead_partner(m):
            m.nbr[e][li] = (dead, 0)

        def other_vertices(m):
            m.nbr[e][li] = (c, (lc + 1) % 5)

        def three_owners(m):
            verts = m.elements[e]
            facet = [verts[i] for i in CANONICAL_FACETS[li]]
            apex = next(v for v in range(len(m.vertices))
                        if v not in verts and v not in m.elements[c])
            m.elements.append((*facet, apex))
            m.nbr.append([None] * 5)

        def open_slots(m):
            m.nbr[e][li] = None
            m.nbr[c][lc] = None

        assert "does not point back" in corrupted(no_point_back)
        assert "is a dead element or itself" in corrupted(dead_partner)
        assert "other vertices" in corrupted(other_vertices)
        assert "has 3 owners" in corrupted(three_owners)
        report = corrupted(open_slots).splitlines()
        assert len(report) == 2
        assert all("no neighbour but another element owns it" in line for line in report)

    def test_counts_facets_once_per_element(self, rng, monkeypatch):
        # one facet map per call, not one per slot
        import pentamesh.mesh as mesh_mod
        mesh = triangulate(rng.random((15, 4)), strip_super=False)
        calls = []
        real = mesh_mod._facet_keys
        monkeypatch.setattr(mesh_mod, "_facet_keys", lambda v: calls.append(1) or real(v))
        assert mesh.validate() == []
        assert len(calls) == mesh.n_alive
