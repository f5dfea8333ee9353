"""The neighbour table of ``Mesh4``: gluing, its checks and ``validate``."""

import copy
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pentamesh import flips
from pentamesh.flips import NEW_LABEL, _REVERSE_OF, find_candidates, improve_quality
from pentamesh.geometry import CANONICAL_FACETS
from pentamesh.insertion import (
    build_cavity,
    enforce_visibility,
    find_base_element,
    insert_point,
    triangulate,
)
from pentamesh.mesh import Mesh4, MeshError
from pentamesh.meshio import MeshFormatError, loads_p4m

REVERSE_KIND = {**_REVERSE_OF, **{rev: kind for kind, rev in _REVERSE_OF.items()}}


def searched_reverse(kind):
    """The kinds the candidate search may give the reverse of a ``kind`` flip.

    It labels a self-inverse reconnection (3_3, 6_6) with the forward kind
    in both directions, and names the three 8_8 reconnections of an edge
    star after its own ring order, so an 8_8 flip may come back as any one.
    """
    if kind.startswith("8_8"):
        return {"8_8v1", "8_8v2", "8_8v3"}
    rev = REVERSE_KIND[kind]
    return {kind if rev.endswith("r") else rev}


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


def simplex_set(mesh):
    return {frozenset(mesh.elements[e]) for e in mesh.alive_elements()}


def carved_cavity(rng):
    """A 20-point mesh, a new point p and its repaired cavity."""
    mesh = triangulate(rng.random((20, 4)), strip_super=False)
    p = tuple(float(c) for c in rng.random(4))
    base, _ = find_base_element(mesh, p)
    cav = build_cavity(mesh, base, p, None)
    enforce_visibility(mesh, cav, p, None, base=base)
    return mesh, p, cav


class TestCone:
    def test_matches_replace(self, rng):
        carved, p, cav = carved_cavity(rng)
        # two copies, so that both stars start from the same set layout
        mesh, glued = copy.deepcopy(carved), copy.deepcopy(carved)
        apex = mesh.add_vertex(p)
        assert glued.add_vertex(p) == apex
        created = mesh.cone(cav.elements, cav.boundary, apex)
        assert created == glued.replace(cav.elements, [(*f, apex) for f, _, _ in cav.boundary])
        assert snapshot(mesh) == snapshot(glued)
        assert [list(s) for s in mesh.star] == [list(s) for s in glued.star]
        assert mesh.last_created == glued.last_created
        assert mesh.validate() == []

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b[1:], "left open"),
        (lambda b: b + b[:1], "third cone facet"),
        (lambda b: [((*b[0][0][:3], b[0][0][0]),) + b[0][1:]] + b[1:], "5 distinct"),
        (lambda b: [(b[0][0], -1, 0)] + b[1:], "not replaced"),
    ])
    def test_rejects_and_leaves_the_mesh(self, rng, edit, message):
        mesh, p, cav = carved_cavity(rng)
        apex = mesh.add_vertex(p)
        before = snapshot(mesh)
        with pytest.raises(MeshError, match=message):
            mesh.cone(cav.elements, edit(list(cav.boundary)), apex)
        assert snapshot(mesh) == before
        assert mesh.validate() == []

    def test_rejects_a_facet_inside_the_replaced_elements(self, rng):
        mesh, p, cav = carved_cavity(rng)
        apex = mesh.add_vertex(p)
        before = snapshot(mesh)
        # replace one more element, an outside neighbour of the boundary
        outside = next(mesh.nbr[owner][li] for _, owner, li in cav.boundary
                       if mesh.nbr[owner][li] is not None)
        with pytest.raises(MeshError, match="inside the replaced elements"):
            mesh.cone(cav.elements | {outside[0]}, cav.boundary, apex)
        assert snapshot(mesh) == before

    def test_rejects_an_apex_with_elements(self, rng):
        mesh, _p, cav = carved_cavity(rng)
        before = snapshot(mesh)
        used = cav.boundary[0][0][0]
        with pytest.raises(MeshError, match="already has elements"):
            mesh.cone(cav.elements, cav.boundary, used)
        assert snapshot(mesh) == before


class TestCompact:
    def test_matches_a_glued_mesh(self, rng):
        mesh = triangulate(rng.random((40, 4)), strip_super=False)
        mesh.strip_super()
        out = mesh.compact()
        oracle = Mesh4.from_arrays(out.vertices, out.elements,
                                   super_flags=out.is_super)
        assert out.elements == oracle.elements
        assert out.nbr == oracle.nbr
        assert [list(s) for s in out.star] == [list(s) for s in oracle.star]
        assert out.n_alive == oracle.n_alive == len(out.elements)
        assert out.last_created == oracle.last_created
        assert out.validate() == []
        assert_table_matches_tuples(out)


class TestFlipThenReverse:
    @settings(max_examples=10, deadline=None)
    @example(seed=57829, heuristic=1)  # an 8_8v1 flip whose reverse is found as 8_8v2
    @example(seed=1491, heuristic=2)  # a 6_12a flip: its 12_6a reverse has two pole pairs
    @given(seed=st.integers(0, 2**32 - 1), heuristic=st.sampled_from((1, 2)))
    def test_reverse_restores_the_simplex_set(self, seed, heuristic):
        # after each flip improve_quality applies, its reverse kind, applied
        # to a copy, brings back the simplices the flip removed; the driver
        # applies a flip through _apply with the exact volumes it validated
        mesh = triangulate(np.random.default_rng(seed).random((16, 4)))
        real = flips._apply
        checked = []

        def apply_and_reverse(mesh, cand, dets):
            before = simplex_set(mesh)
            removed = {frozenset(mesh.elements[e]) for e in cand.stage1}
            rep = real(mesh, cand, dets)
            assert_table_matches_tuples(mesh)
            trial = copy.deepcopy(mesh)
            rev = next(c for c in find_candidates(trial, rep.new_elements[0])
                       if c.kind in searched_reverse(rep.kind)
                       and set(c.stage1) == set(rep.new_elements)
                       and {frozenset(rep.removed_vertex if v == NEW_LABEL else v
                                      for v in t) for t in c.stage2} == removed)
            reason, rev_dets = flips._check_flip(trial, rev)
            assert not reason
            back = real(trial, rev, rev_dets)
            restored = simplex_set(trial)
            if back.new_vertex is not None:
                restored = {frozenset(rep.removed_vertex if v == back.new_vertex else v
                                      for v in s) for s in restored}
            assert restored == before
            assert_table_matches_tuples(trial)
            assert trial.validate() == []
            checked.append(rep.kind)
            return rep

        with mock.patch.object(flips, "_apply", apply_and_reverse):
            report = improve_quality(mesh, heuristic=heuristic)
        assert len(checked) == len(report.flips)


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
