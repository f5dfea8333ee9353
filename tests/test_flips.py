import copy
import dataclasses
import hashlib
import heapq
import itertools
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pentamesh import flips
from pentamesh.flips import (
    AMQ_FRACTIONS,
    FLIP_KINDS_FORWARD,
    NEW_LABEL,
    amq,
    apply_flip,
    find_candidates,
    flip_kinds,
    flip_table,
    improve_quality,
    validate_flip,
)
from pentamesh.geometry import (
    CANONICAL_FACETS,
    MetricField,
    _grain,
    hypervolume,
    hypervolume_exact,
    regular_pentatope,
    resolve_field,
)
from pentamesh.insertion import triangulate
from pentamesh.mesh import Mesh4, MeshError
from pentamesh.pointsets import generate_hypercylinder_points
from pentamesh.quality import pentatope_quality, quality_metric
from conftest import facet_table, improve_benchmark_points


def boundary_multiset(tuples):
    cnt = Counter()
    for tup in tuples:
        for f in itertools.combinations(sorted(tup), 4):
            cnt[f] += 1
    return Counter({f: 1 for f, c in cnt.items() if c == 1})


def add_positive(mesh, vids):
    pts = [mesh.vertices[v] for v in vids]
    v = hypervolume(*pts)
    assert v != 0.0
    if v < 0.0:
        vids = (vids[1], vids[0]) + tuple(vids[2:])
    return mesh.add_element(vids)


# ---------------------------------------------------------------------------
# canonical instances of every kind, for randomized round-trip tests
# ---------------------------------------------------------------------------

def edge_star_mesh(rng, ring_kind):
    """An edge star through the t-axis with a tet/bipyramid/octahedron ring."""
    mesh = Mesh4()
    u = mesh.add_vertex((0.0, 0.0, 0.0, -1.0 - rng.random()))
    w = mesh.add_vertex((0.0, 0.0, 0.0, 1.0 + rng.random()))
    jitter = lambda: rng.uniform(-0.15, 0.15, size=3)
    if ring_kind == 4:
        base = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], float)
        ring = [mesh.add_vertex((*(p + jitter()), rng.uniform(-0.1, 0.1)))
                for p in base]
        tris = list(itertools.combinations(ring, 3))
    elif ring_kind == 6:
        base = np.array([(1.2, 0, 0), (-0.6, 1.0, 0), (-0.6, -1.0, 0)], float)
        apex = np.array([(0, 0, 1.1), (0, 0, -1.3)], float)
        bi = [mesh.add_vertex((*(p + jitter()), rng.uniform(-0.1, 0.1))) for p in base]
        ai = [mesh.add_vertex((*(p + jitter()), rng.uniform(-0.1, 0.1))) for p in apex]
        tris = [be + (a,) for be in itertools.combinations(bi, 2) for a in ai]
    else:  # octahedron
        sq = np.array([(1.0, 0, 0), (0, 1.0, 0), (-1.0, 0, 0), (0, -1.0, 0)], float)
        ap = np.array([(0, 0, 1.0), (0, 0, -1.0)], float)
        si = [mesh.add_vertex((*(p + jitter() * 0.4), rng.uniform(-0.05, 0.05)))
              for p in sq]
        ai = [mesh.add_vertex((*(p + jitter() * 0.4), rng.uniform(-0.05, 0.05)))
              for p in ap]
        tris = [(si[i], si[(i + 1) % 4], a) for i in range(4) for a in ai]
    for tri in tris:
        add_positive(mesh, tuple(tri) + (u, w))
    assert mesh.validate() == []
    return mesh


def facet_pair_mesh(rng):
    mesh = Mesh4()
    base = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], float)
    ids = [mesh.add_vertex((*(p + rng.uniform(-0.1, 0.1, 3)), rng.uniform(-0.1, 0.1)))
           for p in base]
    up = mesh.add_vertex((0.3, 0.3, 0.3, 1.0 + rng.random()))
    dn = mesh.add_vertex((0.3, 0.3, 0.3, -1.0 - rng.random()))
    add_positive(mesh, tuple(ids) + (up,))
    add_positive(mesh, tuple(ids) + (dn,))
    assert mesh.validate() == []
    return mesh


def triangle_star_mesh(rng, ring_size):
    mesh = Mesh4()
    tri = np.array([(1.0, 0), (-0.5, 0.9), (-0.5, -0.9)], float)
    ti = [mesh.add_vertex((*(p + rng.uniform(-0.1, 0.1, 2)), 0.0, 0.0)) for p in tri]
    if ring_size == 3:
        ring = [(0, 0, 1.3, 0.1), (0, 0, -1.0, 1.0), (0, 0, -0.2, -1.2)]
    else:
        ring = [(0, 0, 1.3, 0.0), (0, 0, 0.0, 1.2), (0, 0, -1.3, 0.0), (0, 0, 0.0, -1.2)]
    ri = [mesh.add_vertex(tuple(np.array(p) + np.array([0, 0, *rng.uniform(-0.1, 0.1, 2)])))
          for p in ring]
    pairs = (itertools.combinations(ri, 2) if ring_size == 3
             else [(ri[i], ri[(i + 1) % 4]) for i in range(4)])
    for pair in pairs:
        add_positive(mesh, tuple(ti) + tuple(pair))
    assert mesh.validate() == []
    return mesh


def single_element_mesh(rng):
    mesh = Mesh4()
    pts = regular_pentatope(1.0) + rng.normal(size=(5, 4)) * 0.1
    for p in pts:
        mesh.add_vertex(tuple(p))
    add_positive(mesh, (0, 1, 2, 3, 4))
    return mesh


class TestStaticTables:
    def test_seventeen_kinds(self):
        assert len(FLIP_KINDS_FORWARD) == 17
        assert len(flip_kinds()) == 30  # including reverse tags

    @pytest.mark.parametrize("kind", sorted(set(flip_kinds())))
    def test_boundary_multiset_preserved(self, kind):
        t = flip_table(kind)
        assert boundary_multiset(t.stage1) == boundary_multiset(t.stage2)

    @pytest.mark.parametrize("kind,rkind,with_point", [
        ("1_5", "5_1", True), ("2_4", "4_2", False), ("4_8", "8_4", True),
        ("3_9", "9_3", True), ("6_12a", "12_6a", True), ("2_8", "8_2", True),
        ("4_6", "6_4", False), ("4_12", "12_4", True), ("6_12b", "12_6b", True),
        ("8_16", "16_8", True),
    ])
    def test_reverse_pairs_swap_stages(self, kind, rkind, with_point):
        fwd, rev = flip_table(kind), flip_table(rkind)
        assert fwd.stage1 == rev.stage2 and fwd.stage2 == rev.stage1
        assert fwd.inserts_point == with_point
        assert rev.removes_point == with_point

    def test_published_examples(self):
        t = flip_table("1_5")
        assert t.stage1 == ((1, 2, 3, 4, 5),)
        assert set(t.stage2) == {(1, 2, 3, 4, 6), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6),
                                 (1, 2, 4, 5, 6), (1, 2, 3, 5, 6)}
        t = flip_table("3_3")
        assert set(t.stage1) == {(1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5, 6)}
        assert set(t.stage2) == {(1, 2, 3, 4, 6), (2, 3, 4, 5, 6), (1, 2, 3, 5, 6)}
        t = flip_table("8_16")
        assert len(t.stage1) == 8 and len(t.stage2) == 16


# tables whose configuration the candidate search names after another table
SEARCH_ALIAS = {"6_12b": "6_12a", "12_6b": "12_6a", "3_3r": "3_3", "6_6r": "6_6"}


class TestCandidates:
    def test_isolated_element_only_1_5(self, rng):
        mesh = single_element_mesh(rng)
        kinds = {c.kind for c in find_candidates(mesh, 0)}
        assert kinds == {"1_5"}
        kinds = {c.kind for c in find_candidates(mesh, 0, include_point_inserting=False)}
        assert kinds == set()

    def test_facet_pair_has_2_4(self, rng):
        mesh = facet_pair_mesh(rng)
        kinds = {c.kind for c in find_candidates(mesh, 0)}
        assert "2_4" in kinds and "2_8" in kinds

    def test_triangle_star_has_3_3(self, rng):
        mesh = triangle_star_mesh(rng, 3)
        kinds = {c.kind for c in find_candidates(mesh, 0)}
        assert "3_3" in kinds and "3_9" in kinds

    def test_point_inserting_filtered(self, rng):
        mesh = facet_pair_mesh(rng)
        kinds = {c.kind for c in find_candidates(mesh, 0, include_point_inserting=False)}
        assert "2_8" not in kinds and "1_5" not in kinds

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(8, 16),
           with_points=st.booleans(), data=st.data())
    def test_frozen_filter_and_no_duplicates(self, seed, n_points, with_points, data):
        # the frozen-aware enumeration equals the unfiltered one filtered on
        # stage 1, in order, and no call returns the same flip twice
        mesh = triangulate(np.random.default_rng(seed).random((n_points, 4)))
        # a few point-inserting flips give vertex stars the removing kinds match
        for _ in range(data.draw(st.integers(0, 3), label="inserting flips")):
            eid = data.draw(st.sampled_from(sorted(mesh.alive_elements())))
            valid = [c for c in find_candidates(mesh, eid)
                     if c.inserts_point and validate_flip(mesh, c)[0]]
            if valid:
                apply_flip(mesh, data.draw(st.sampled_from(valid)))
        starter = data.draw(st.sampled_from(sorted(mesh.alive_elements())), label="starter")
        near = sorted(set().union(*(mesh.star[v] for v in mesh.elements[starter])))
        frozen = set(data.draw(st.lists(st.sampled_from(near), max_size=8), label="frozen"))
        if data.draw(st.booleans(), label="freeze starter"):
            frozen.add(starter)
        frozen = frozenset(frozen)

        full = find_candidates(mesh, starter, with_points)
        got = find_candidates(mesh, starter, with_points, frozen=frozen)
        assert got == [c for c in full if frozen.isdisjoint(c.stage1)]
        keys = [(c.kind, frozenset(c.stage1), frozenset(map(frozenset, c.stage2)))
                for c in full]
        assert len(set(keys)) == len(keys)
        # the join rule's invariant: stage 2 has the boundary of the star it replaces
        for c in full:
            b1, m1 = flips._boundary_multiset([mesh.elements[e] for e in c.stage1])
            b2, m2 = flips._boundary_multiset(c.stage2)
            assert b1 == b2 and m1 <= 2 and m2 <= 2, c

    @pytest.mark.parametrize("kind", flip_kinds())
    def test_tables_drive_the_search(self, kind):
        # a mesh of a table's stage 1 offers its stage 2, under the name the search
        # gives that configuration; label l is vertex l - 1, and vertex_count + 1
        # labels the inserted or removed vertex
        table = flip_table(kind)
        new = table.vertex_count + 1
        moves_point = table.inserts_point or table.removes_point
        assert len(set().union(*table.stage1, *table.stage2)) == new - 1 + moves_point
        assert (table.new_entity is not None) == moves_point
        coords = np.random.default_rng(0).random((new, 4))
        mesh = Mesh4.from_arrays(coords, [tuple(v - 1 for v in tup) for tup in table.stage1])
        want = {frozenset(NEW_LABEL if v == new else v - 1 for v in tup) for tup in table.stage2}
        offered = [c for e in mesh.alive_elements() for c in find_candidates(mesh, e)
                   if len(c.stage1) == mesh.n_alive and set(map(frozenset, c.stage2)) == want]
        names = {c.kind for c in offered}
        if kind.startswith("8_8v"):  # numbered by the new edge, not by the table
            assert len(names) == 1 and names.pop() in {"8_8v1", "8_8v2", "8_8v3"}
        else:
            assert names == {SEARCH_ALIAS.get(kind, kind)}
        if table.inserts_point:  # the new vertex sits at the centroid of new_entity
            entity = [mesh.vertices[v - 1] for v in table.new_entity]
            centroid = tuple(sum(c) / len(entity) for c in zip(*entity))
            assert {c.new_point for c in offered} == {centroid}


class TestValidity:
    def test_reflex_pair_rejected(self, rng):
        # both apexes on the same side: stage-2 simplices overlap
        mesh = Mesh4()
        base = [(0.0, 0, 0, 0), (1.0, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, 1.0, 0)]
        ids = [mesh.add_vertex(p) for p in base]
        a = mesh.add_vertex((0.3, 0.3, 0.3, 1.0))
        b = mesh.add_vertex((0.31, 0.29, 0.3, 2.0))  # beyond a, same side
        add_positive(mesh, tuple(ids) + (a,))
        # (base, b) overlaps (base, a); use a detached configuration to probe
        # validate_flip directly with a constructed candidate
        from pentamesh.flips import FlipCandidate
        cand = FlipCandidate(
            kind="2_4", stage1=(0, 1),
            stage2=tuple(tri + (a, b) for tri in itertools.combinations(ids, 3)))
        add_positive(mesh, tuple(ids) + (b,))
        # stage1 elements share only the base facet; apexes are not separated
        ok, reason = validate_flip(mesh, cand)
        assert not ok and "volume" in reason

    def test_valid_instances_conserve_volume_exactly(self, rng):
        mesh = facet_pair_mesh(rng)
        cand = next(c for c in find_candidates(mesh, 0) if c.kind == "2_4")
        ok, reason = validate_flip(mesh, cand)
        assert ok, reason

    def test_the_first_failing_check_names_the_reason(self):
        # the checks run in the published order: a replacement set that
        # breaks the boundary and also duplicates an element outside the
        # group is a boundary reject, and a dead stage-1 element outranks both
        mesh = triangulate(np.random.default_rng(5).random((20, 4)))
        cand = next(c for e in sorted(mesh.alive_elements()) for c in find_candidates(mesh, e)
                    if validate_flip(mesh, c)[0])
        outside = next(mesh.elements[e] for e in mesh.alive_elements() if e not in cand.stage1)
        both = dataclasses.replace(cand, stage2=cand.stage2 + (outside,))
        assert validate_flip(mesh, both) == (False, "boundary facets not preserved")
        with pytest.raises(MeshError, match="boundary facets not preserved"):
            apply_flip(mesh, both)
        mesh.remove_element(cand.stage1[0])
        assert validate_flip(mesh, both) == (False, "dead element in stage 1")

    def test_degeneracy_band_follows_the_scale(self):
        # the same flips at every power-of-two scale
        pts = np.random.default_rng(7).random((50, 4))
        runs = []
        for scale in (1.0, 2.0 ** 14, 2.0 ** -14):
            report = improve_quality(triangulate(pts * scale), heuristic=1)
            runs.append([(f.kind, f.removed_elements, f.new_elements) for f in report.flips])
        assert runs[0]
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


KIND_BUILDERS = {
    "1_5": lambda rng: (single_element_mesh(rng), "1_5"),
    "2_4": lambda rng: (facet_pair_mesh(rng), "2_4"),
    "2_8": lambda rng: (facet_pair_mesh(rng), "2_8"),
    "3_3": lambda rng: (triangle_star_mesh(rng, 3), "3_3"),
    "3_9": lambda rng: (triangle_star_mesh(rng, 3), "3_9"),
    "4_6": lambda rng: (triangle_star_mesh(rng, 4), "4_6"),
    "4_12": lambda rng: (triangle_star_mesh(rng, 4), "4_12"),
    "4_2": lambda rng: (edge_star_mesh(rng, 4), "4_2"),
    "4_8": lambda rng: (edge_star_mesh(rng, 4), "4_8"),
    "6_6": lambda rng: (edge_star_mesh(rng, 6), "6_6"),
    "6_4": lambda rng: (edge_star_mesh(rng, 6), "6_4"),
    "6_12a": lambda rng: (edge_star_mesh(rng, 6), "6_12a"),
    "8_8v1": lambda rng: (edge_star_mesh(rng, 8), "8_8v1"),
    "8_8v2": lambda rng: (edge_star_mesh(rng, 8), "8_8v2"),
    "8_8v3": lambda rng: (edge_star_mesh(rng, 8), "8_8v3"),
    "8_16": lambda rng: (edge_star_mesh(rng, 8), "8_16"),
}

REVERSE_AFTER = {
    "1_5": "5_1", "4_8": "8_4", "3_9": "9_3", "6_12a": "12_6a",
    "2_8": "8_2", "4_12": "12_4", "8_16": "16_8",
}


class TestApplication:
    @pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
    def test_randomized_roundtrip_conserves_exactly(self, kind):
        executed = 0
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            mesh, _ = KIND_BUILDERS[kind](rng)
            starter = next(mesh.alive_elements())
            cands = [c for c in find_candidates(mesh, starter) if c.kind == kind]
            if not cands:
                continue
            cand = cands[0]
            ok, reason = validate_flip(mesh, cand)
            if not ok:
                continue
            hv0 = mesh.total_hypervolume(exact=True)
            rep = apply_flip(mesh, cand)
            executed += 1
            assert mesh.validate() == []
            assert mesh.total_hypervolume(exact=True) == hv0
            for eid in rep.new_elements:
                assert hypervolume(*mesh.element_points(eid)) > 0.0
            # reverse kind restores the stage-1 configuration
            rkind = REVERSE_AFTER.get(kind)
            if rkind:
                rc = next(c for c in find_candidates(mesh, rep.new_elements[0])
                          if c.kind == rkind)
                ok, reason = validate_flip(mesh, rc)
                assert ok, reason
                apply_flip(mesh, rc)
                assert mesh.validate() == []
                assert mesh.total_hypervolume(exact=True) == hv0
        assert executed >= 4, f"too few valid instances for {kind}"

    def test_1_5_then_5_1_restores_connectivity(self, rng):
        mesh = single_element_mesh(rng)
        before = {frozenset(mesh.elements[e]) for e in mesh.alive_elements()}
        c15 = next(c for c in find_candidates(mesh, 0) if c.kind == "1_5")
        rep = apply_flip(mesh, c15)
        assert mesh.n_alive == 5
        c51 = next(c for c in find_candidates(mesh, rep.new_elements[0])
                   if c.kind == "5_1")
        rep2 = apply_flip(mesh, c51)
        assert mesh.n_alive == 1
        after = {frozenset(mesh.elements[e]) for e in mesh.alive_elements()}
        assert before == after
        assert not mesh.vertex_alive[rep2.removed_vertex]

    def test_failed_replace_removes_the_new_vertex(self, rng, monkeypatch):
        # a centroid finer than every vertex leaves the grain as it was too
        mesh = triangulate(rng.random((30, 4)))
        grain = mesh.grain
        cand = next(c for e in mesh.alive_elements() for c in find_candidates(mesh, e)
                    if c.kind == "1_5" and _grain(c.new_point) > grain)

        def failing(old, tuples):
            raise MeshError("injected")

        monkeypatch.setattr(mesh, "replace", failing)
        with pytest.raises(MeshError, match="injected"):
            apply_flip(mesh, cand)
        assert len(mesh.vertices) == 30
        assert mesh.validate() == []
        assert mesh.grain == grain

    @pytest.mark.parametrize("outside", [False, True], ids=["in-stage-2", "star-outside"])
    def test_bad_removed_vertex_rejected_before_any_change(self, outside):
        # a vertex a replacement uses, or one with elements outside stage 1,
        # cannot be removed; apply_flip must refuse before it changes the mesh
        mesh = facet_pair_mesh(np.random.default_rng(0))
        cand = next(c for c in find_candidates(mesh, 0) if c.kind == "2_4")
        vid = cand.stage2[0][0]
        if outside:
            li = mesh.nbr[0].index(None)
            facet = tuple(mesh.elements[0][i] for i in CANONICAL_FACETS[li])
            vid = mesh.add_vertex((5.0, 5.0, 5.0, 5.0))
            add_positive(mesh, facet + (vid,))
        bad = dataclasses.replace(cand, removed_vertex=vid)
        before = copy.deepcopy(mesh)
        assert validate_flip(mesh, bad) == (False, "removed vertex still in use")
        with pytest.raises(MeshError, match="removed vertex still in use"):
            apply_flip(mesh, bad)
        assert (mesh.elements, mesh.nbr, mesh.star, mesh.vertex_alive) == (
            before.elements, before.nbr, before.star, before.vertex_alive)

    def test_3_3_keeps_counts(self, rng):
        mesh = triangle_star_mesh(rng, 3)
        n_elems = mesh.n_alive
        n_facets = len(facet_table(mesh))
        cand = next(c for c in find_candidates(mesh, 0) if c.kind == "3_3")
        apply_flip(mesh, cand)
        assert mesh.n_alive == n_elems
        assert len(facet_table(mesh)) == n_facets

    def test_4_8_counts(self, rng):
        mesh = edge_star_mesh(rng, 4)
        nv = mesh.n_vertices
        cand = next(c for c in find_candidates(mesh, 0) if c.kind == "4_8")
        apply_flip(mesh, cand)
        assert mesh.n_vertices == nv + 1
        assert mesh.n_alive == 8


class TestImproveQuality:
    def test_regular_pentatope_no_flips(self, rng):
        mesh = single_element_mesh(rng)
        rep = improve_quality(mesh, heuristic=1)
        assert sum(rep.flips_by_kind.values()) == 0

    def test_small_cloud_improves(self, rng):
        pts = rng.random((40, 4))
        mesh = triangulate(pts)
        rep = improve_quality(mesh, heuristic=1)
        assert rep.hv_conserved_exactly
        assert mesh.validate() == []
        for frac in (0.01, 0.05, 0.10, 0.20):
            assert rep.amq_after[frac] >= rep.amq_before[frac] - 1e-12

    def test_monotone_gain_per_flip(self, rng):
        # re-run candidate scoring: every executed flip strictly raised the
        # minimum quality of its affected group (checked inside the driver
        # via the gain gate; here we assert the outcome is consistent)
        pts = rng.random((30, 4))
        mesh = triangulate(pts)
        rep = improve_quality(mesh, heuristic=2)
        assert rep.hv_conserved_exactly
        assert all(k in flip_kinds() for k in rep.flips_by_kind)

    def test_eta1_avoids_point_insertion(self, rng):
        pts = rng.random((60, 4))
        mesh = triangulate(pts)
        rep = improve_quality(mesh, heuristic=1, include_point_inserting=True)
        inserting = {"1_5", "4_8", "3_9", "6_12a", "2_8", "4_12", "6_12b", "8_16"}
        assert sum(rep.flips_by_kind[k] for k in inserting) == 0


def reference_improve(mesh, heuristic, field, include_point_inserting):
    """The greedy loop with the plain selector: validate every candidate first,
    then take the minimum ``(-gain, kind, stage1)``, the first one seen on ties.

    Returns the executed ``(kind, removed_elements, new_elements)`` sequence
    and the final AMQ table.
    """
    fld = resolve_field(field)

    def quality(pts):
        if fld.kind == "identity":
            return pentatope_quality(pts, which=heuristic)
        return quality_metric(pts, fld, which=heuristic)

    quality_of = {e: quality(mesh.element_points(e)) for e in mesh.alive_elements()}
    heap = [(q, e) for e, q in quality_of.items()]
    heapq.heapify(heap)
    frozen, started, sequence = set(), set(), []
    while heap:
        q, starter = heapq.heappop(heap)
        if (not mesh.alive(starter) or starter in frozen or starter in started
                or quality_of[starter] != q):
            continue
        started.add(starter)
        best = None
        for cand in find_candidates(mesh, starter, include_point_inserting):
            if any(e in frozen for e in cand.stage1) or not validate_flip(mesh, cand)[0]:
                continue
            before = min(quality_of[e] for e in cand.stage1)
            after = min(quality([cand.new_point if v == NEW_LABEL else mesh.vertices[v]
                                 for v in tup]) for tup in cand.stage2)
            if after > before:
                key = (-(after - before), cand.kind, cand.stage1)
                if best is None or key < best[0]:
                    best = (key, cand)
        if best is None:
            continue
        fr = apply_flip(mesh, best[1])
        sequence.append((fr.kind, fr.removed_elements, fr.new_elements))
        for e in fr.removed_elements:
            del quality_of[e]
        for e in fr.new_elements:
            quality_of[e] = quality(mesh.element_points(e))
            frozen.add(e)
    final = [quality_of[e] for e in mesh.alive_elements()]
    return sequence, {f: amq(final, f) for f in AMQ_FRACTIONS}


class TestDriverMatchesReferenceSelector:
    """Gain-first ranking executes exactly the flips of the plain selector."""

    @pytest.mark.parametrize("field,heuristic,with_points,n_points,seed", [
        (None, 1, True, 40, 5),
        (MetricField.constant(np.diag([1.0, 4.0, 0.25, 2.0])), 2, False, 35, 7),
        (MetricField.speed(c0=1.0, beta=0.5, center=0.5), 3, True, 30, 99),
    ], ids=["identity-eta1", "constant-eta2-no-point-flips", "speed-eta3"])
    def test_same_flip_sequence(self, field, heuristic, with_points, n_points, seed):
        pts = np.random.default_rng(seed).random((n_points, 4))
        mesh = triangulate(pts, field)
        twin = triangulate(pts, field)
        expected, expected_amq = reference_improve(twin, heuristic, field, with_points)
        rep = improve_quality(mesh, heuristic=heuristic, field=field,
                              include_point_inserting=with_points)
        got = [(f.kind, f.removed_elements, f.new_elements) for f in rep.flips]
        assert len(expected) > 0
        assert got == expected
        assert rep.amq_after == expected_amq


# ---------------------------------------------------------------------------
# canonical per-entity enumeration and the driver's memo
# ---------------------------------------------------------------------------

def mesh_with_point_flips(seed, n_points, n_flips):
    """A random Delaunay mesh after up to ``n_flips`` valid point-inserting flips,
    so that vertex stars the point-removing kinds match occur."""
    rng = np.random.default_rng(seed)
    mesh = triangulate(rng.random((n_points, 4)))
    for _ in range(n_flips):
        eids = sorted(mesh.alive_elements())
        eid = eids[int(rng.integers(len(eids)))]
        valid = [c for c in find_candidates(mesh, eid)
                 if c.inserts_point and validate_flip(mesh, c)[0]]
        if valid:
            apply_flip(mesh, valid[int(rng.integers(len(valid)))])
    return mesh


class TestExactValidity:
    def test_improvement_conserves_the_exact_hypervolume(self):
        # after the 2_8, a 4_2 here changes the exact hypervolume by a relative
        # 3.2e-17, inside the float tolerance, so only the exact test rejects it
        mesh = mesh_with_point_flips(213, 9, 1)
        rep = improve_quality(mesh, heuristic=2, include_point_inserting=False)
        assert rep.flips and rep.hv_conserved_exactly
        assert mesh.validate() == []

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(8, 12),
           n_flips=st.integers(0, 3))
    @example(seed=213, n_points=9, n_flips=1)
    def test_every_accepted_flip_conserves_and_orients(self, seed, n_points, n_flips):
        mesh = mesh_with_point_flips(seed, n_points, n_flips)
        hv0 = mesh.total_hypervolume(exact=True)
        seen, applied = set(), 0
        for starter in sorted(mesh.alive_elements()):
            for cand in find_candidates(mesh, starter):
                key = (cand.kind, cand.stage1, cand.stage2)
                if key in seen:
                    continue
                seen.add(key)
                if not validate_flip(mesh, cand)[0]:
                    continue
                trial = copy.deepcopy(mesh)
                rep = apply_flip(trial, cand)
                applied += 1
                assert trial.total_hypervolume(exact=True) == hv0, cand
                for eid in rep.new_elements:
                    assert hypervolume_exact(*trial.element_points(eid)) > 0, cand
        assert applied


def test_enumeration_ignores_star_set_order():
    # the same mesh with every star set rebuilt in another insertion order
    # iterates its stars differently, yet gives identical candidates
    mesh = mesh_with_point_flips(3, 30, 6)
    twin = copy.deepcopy(mesh)
    rng = np.random.default_rng(0)
    twin.star = [set(rng.permutation(sorted(s)).tolist()) for s in mesh.star]
    assert twin.star == mesh.star
    assert any(list(a) != list(b) for a, b in zip(twin.star, mesh.star))
    kinds = set()
    for eid in mesh.alive_elements():
        got = find_candidates(mesh, eid)
        assert find_candidates(twin, eid) == got
        kinds |= {c.kind for c in got}
    assert {"2_4", "3_3", "4_6", "4_8", "5_1"} <= kinds


def _with_memo_hook(hook):
    """Patch the driver's per-starter gathering to run ``hook(args)`` first."""
    original = flips._improving_candidates

    def patched(*args):
        hook(*args)
        return original(*args)

    return mock.patch.object(flips, "_improving_candidates", patched)


class TestMemo:
    @settings(max_examples=25)
    # a tiny mesh whose first flip touches every entity: the memo is empty at
    # both starters, so nothing live is compared
    @example(seed=143558795, n_points=8, n_flips=0, heuristic=2, with_points=False)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(8, 20),
           n_flips=st.integers(0, 3), heuristic=st.sampled_from([1, 2, 3]),
           with_points=st.booleans())
    def test_live_entries_equal_a_fresh_build(self, seed, n_points, n_flips,
                                              heuristic, with_points):
        # every starter after the first follows either another starter or an
        # applied flip and its invalidation; each live entry must equal the
        # gated candidates of its entity built afresh from the mesh as it is
        checked = []

        def check(mesh, starter, memo, gain, with_points, frozen):
            for key, entries in memo.items():
                assert entries == flips._entity_candidates(mesh, key, with_points, frozen, gain)
            checked.append(len(memo))

        mesh = mesh_with_point_flips(seed, n_points, n_flips)
        with _with_memo_hook(check):
            rep = improve_quality(mesh, heuristic=heuristic,
                                  include_point_inserting=with_points)
        assert len(checked) == rep.starters
        assume(sum(checked) > 0)

    @pytest.mark.parametrize("field,heuristic,with_points,n_points,seed", [
        (None, 1, True, 40, 5),
        (None, 2, True, 30, 11),
        (MetricField.constant(np.diag([1.0, 4.0, 0.25, 2.0])), 2, False, 35, 7),
        (MetricField.speed(c0=1.0, beta=0.5, center=0.5), 3, True, 30, 99),
    ], ids=["identity-eta1", "identity-eta2", "constant-eta2-no-point-flips", "speed-eta3"])
    def test_memo_equals_a_fresh_memo_per_starter(self, field, heuristic, with_points,
                                                  n_points, seed):
        pts = np.random.default_rng(seed).random((n_points, 4))
        mesh = triangulate(pts, field)
        twin = triangulate(pts, field)
        rep = improve_quality(mesh, heuristic=heuristic, field=field,
                              include_point_inserting=with_points)
        with _with_memo_hook(lambda mesh, starter, memo, *rest: memo.clear()):
            fresh = improve_quality(twin, heuristic=heuristic, field=field,
                                    include_point_inserting=with_points)
        assert rep.flips and rep == fresh
        assert (mesh.vertices, mesh.elements, mesh.nbr) == (twin.vertices, twin.elements, twin.nbr)


# ---------------------------------------------------------------------------
# the driver's once-per-call work
# ---------------------------------------------------------------------------

class TestOncePerCall:
    @pytest.mark.parametrize("field,heuristic,with_points,n_points,seed", [
        (None, 1, True, 40, 5),
        (None, 2, False, 30, 11),
        (MetricField.speed(c0=1.0, beta=0.5, center=0.5), 3, True, 25, 99),
    ], ids=["identity-eta1", "identity-eta2-no-point-flips", "speed-eta3"])
    def test_each_simplex_is_measured_once(self, field, heuristic, with_points,
                                           n_points, seed):
        # a simplex is its point set: the vertex set plus any inserted point;
        # every measurement carries the call's field, so the metric quality
        # comes from the same one call
        calls, kinds = Counter(), set()
        original = flips._eta_volume

        def counted(pts, which, fld, frame):
            calls[tuple(sorted(map(tuple, pts)))] += 1
            kinds.add((which, fld.kind))
            return original(pts, which, fld, frame)

        mesh = triangulate(np.random.default_rng(seed).random((n_points, 4)), field)
        with mock.patch.object(flips, "_eta_volume", counted):
            rep = improve_quality(mesh, heuristic=heuristic, field=field,
                                  include_point_inserting=with_points)
        assert rep.flips
        assert calls and max(calls.values()) == 1
        assert kinds == {(heuristic, "identity" if field is None else field.kind)}

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(8, 20),
           n_flips=st.integers(0, 3), with_points=st.booleans())
    def test_applied_flips_match_the_public_validate_and_apply(self, seed, n_points,
                                                               n_flips, with_points):
        # each flip the driver applies, with the exact volumes it validated,
        # passes the public validate_flip on a copy of the mesh before it, and
        # the public apply_flip there gives the same elements and neighbours
        mesh = mesh_with_point_flips(seed, n_points, n_flips)
        real = flips._apply
        applied = []

        def checked(target, cand, dets):
            if target is not mesh:  # the public apply_flip on the copy
                return real(target, cand, dets)
            twin = copy.deepcopy(mesh)
            assert validate_flip(twin, cand) == (True, "")
            public = apply_flip(twin, cand)
            rep = real(mesh, cand, dets)
            assert rep == public
            assert (mesh.elements, mesh.nbr, mesh.vertices) == (twin.elements, twin.nbr,
                                                                 twin.vertices)
            applied.append(rep)
            return rep

        with mock.patch.object(flips, "_apply", checked):
            rep = improve_quality(mesh, heuristic=2, include_point_inserting=with_points)
        assert applied == rep.flips
        assume(applied)


class TestOneVerdict:
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 5),
           n_points=st.integers(12, 30), heuristic=st.sampled_from([1, 2, 3]))
    def test_driver_applies_the_first_ranked_candidate_validate_flip_accepts(
            self, seed, index, n_points, heuristic):
        # the driver sorts each starter's gathered list in place and validates
        # it best first; whatever it applies is the first candidate of that
        # list the public validate_flip accepts, and a starter it applies
        # nothing for has none
        mesh = triangulate(improve_benchmark_points(seed, index, n_points))
        gather, real = flips._improving_candidates, flips._apply
        pending, applied = [], []

        def none_valid():
            if pending:
                assert not any(validate_flip(mesh, c)[0] for c, _ in pending.pop())

        def gathered(*args):
            none_valid()
            pending.append(gather(*args))
            return pending[-1]

        def applying(target, cand, dets):
            ranked = pending.pop()
            assert cand == next(c for c, _ in ranked if validate_flip(target, c)[0])
            applied.append(cand)
            return real(target, cand, dets)

        with mock.patch.object(flips, "_improving_candidates", gathered), \
                mock.patch.object(flips, "_apply", applying):
            rep = improve_quality(mesh, heuristic=heuristic)
        none_valid()
        assert len(applied) == len(rep.flips)
        assume(applied)


# sha256 of the JSON of [kind, sorted sorted-vertex-tuples of the new elements]
# for every flip improve_quality(heuristic=1) applies to the mesh of an improve
# benchmark input; a change that alters one of these sequences says so
_PINNED_SEQUENCES = {
    (7, 0): "8827846f7ca5089fb42bd3b9a4b4293466b05e44795b1594b2b3b9823ec7c16d",
    (7, 1): "53109b0687b9866c60b6c06426ff78236c74f9df46094fcb5a07c64ec7eec1e9",
    (3301, 0): "507dd19d0176f80b7ab1c5502781981cbc865ad7167f97817a667256824671ee",
    (3301, 1): "2b531f11218c573e9fc6ef4742fa0a65ee751c4e3dfeea4535c3c8b8f8ce12ad",
}


@pytest.mark.parametrize("seed,index", sorted(_PINNED_SEQUENCES))
def test_improve_flip_sequences_are_pinned(seed, index):
    mesh = triangulate(improve_benchmark_points(seed, index))
    rep = improve_quality(mesh, heuristic=1)
    sequence = [[f.kind, sorted(sorted(mesh.elements[e]) for e in f.new_elements)]
                for f in rep.flips]
    digest = hashlib.sha256(json.dumps(sequence).encode()).hexdigest()
    assert digest == _PINNED_SEQUENCES[seed, index], digest


# the paper's pipeline: the speed-field hypercylinder mesh of seed s, improved
# by heuristic 1 under that field; the same digest as above, and the final
# AMQ table, which may move by an ulp with the metric's determinant
_PINNED_PIPELINE = {
    0: ("fe0a419eb20c45de696cf7732251596eb0d8bfb07008e6d6cf0504a918cac968",
        (0.0076473028141383, 0.011427101873174039, 0.015947486737107233, 0.024820106871074474)),
    1: ("5ef4eee397c9e1a26bc0a83f5c4a073a0dc597d17e83d71535dc82e1147efee8",
        (0.01096184864193676, 0.01749002455541978, 0.022280676513287478, 0.03081972885815378)),
    2: ("be634ec506451f6919e9a57719009d657df248b042f831af1cd414cdc30639cd",
        (0.006186451825697437, 0.014091122767641656, 0.018727617444145278, 0.029646904021941343)),
    3: ("b48f7de0efe49167c9771335ef5adf246e1f95c36abdda74918a68f4dc56b22d",
        (0.013772498271203259, 0.019343793274158756, 0.02544704609906718, 0.034379196838561575)),
}


@pytest.mark.parametrize("seed", sorted(_PINNED_PIPELINE))
def test_speed_pipeline_flip_sequences_are_pinned(seed):
    speed = MetricField.speed(c0=1.0, beta=0.1, center=2.0)
    mesh = triangulate(generate_hypercylinder_points(1.0, 4.0, 1.0, 1.0, seed), speed,
                       shuffle=True, seed=seed, skip_duplicates=True)
    rep = improve_quality(mesh, heuristic=1, field=speed)
    sequence = [[f.kind, sorted(sorted(mesh.elements[e]) for e in f.new_elements)]
                for f in rep.flips]
    digest = hashlib.sha256(json.dumps(sequence).encode()).hexdigest()
    pinned, amq_after = _PINNED_PIPELINE[seed]
    assert digest == pinned, digest
    assert [rep.amq_after[f] for f in AMQ_FRACTIONS] == pytest.approx(amq_after, rel=1e-12)
