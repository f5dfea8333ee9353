"""Bistellar flips on pentatope meshes and the greedy quality-improvement loop.

Seventeen flip kinds: the five basic moves (1-5, 2-4, 3-3, 4-2, 5-1) and
twelve extensions of lower-dimensional moves, including three 8-8
variants.  Each kind is stored as a pair of connectivity stages over
abstract vertex labels; reverse kinds swap the stages.  Point-inserting
kinds place the new vertex at the rounded midpoint / centroid of the
shared entity, so the replacement is a cone over the union boundary.  A
flip is valid only if it conserves the exact hypervolume: float volume
sums may reject it, and integer volumes decide every candidate they pass
(Shewchuk's filter pattern, as in the predicates).

Candidate detection is per entity and canonical: configurations are
recognized from the stars of the starter element's facets, triangles,
edges and vertices, one builder per entity kind.  A builder reads only
the entity's sorted vertex tuple and its star, walked in sorted element
order, so an entity gives the same candidates whichever starter reaches
it and whatever the iteration order of the mesh's star sets.  Every
candidate of an entity has that entity's star as stage 1, so a star that
meets a given frozen set is rejected before its rings, links,
replacement tuples or inserted point are built.

The greedy driver passes the elements earlier flips created as that set,
memoises each entity's candidates that pass the gain gate for the length
of the call (:func:`improve_quality` gives the invalidation rule), ranks
a starter's candidates by gain, then kind and stage 1, then enumeration
order, and checks them with :func:`validate_flip`, best first, until one
passes; :func:`apply_flip` validates again before it changes the mesh.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .geometry import _hypervolumes_int, hypervolume, resolve_field
from .mesh import Mesh4, MeshError
from .predicates import orientation4  # noqa: F401  perfbench/tracing.py wraps this name
from .quality import pentatope_quality, quality_metric

__all__ = [
    "FlipCandidate",
    "FlipTable",
    "ImprovementReport",
    "NEW_LABEL",
    "apply_flip",
    "find_candidates",
    "flip_kinds",
    "flip_table",
    "improve_quality",
    "validate_flip",
]

#: Placeholder for the inserted vertex in candidate stage-2 tuples.
NEW_LABEL = -1

# Connectivity tables over abstract labels 1..vertex_count; point-inserting
# kinds use vertex_count+1 for the new vertex.  new_entity names the labels
# whose midpoint/centroid receives the inserted point.
_BASE_TABLES = {
    "1_5": dict(
        stage1=((1, 2, 3, 4, 5),),
        stage2=((1, 2, 3, 4, 6), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6),
                (1, 2, 4, 5, 6), (1, 2, 3, 5, 6)),
        vertex_count=5, new_entity=(1, 2, 3, 4, 5)),
    "2_4": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 3, 5, 6)),
        stage2=((1, 2, 3, 4, 6), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6)),
        vertex_count=6, new_entity=None),
    "3_3": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5, 6)),
        stage2=((1, 2, 3, 4, 6), (2, 3, 4, 5, 6), (1, 2, 3, 5, 6)),
        vertex_count=6, new_entity=None),
    "4_8": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6), (1, 2, 3, 4, 6)),
        stage2=((1, 3, 4, 5, 7), (1, 2, 3, 5, 7), (1, 4, 5, 6, 7), (1, 2, 5, 6, 7),
                (3, 4, 5, 6, 7), (2, 3, 5, 6, 7), (1, 3, 4, 6, 7), (1, 2, 3, 6, 7)),
        vertex_count=6, new_entity=(2, 4)),
    "3_9": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6)),
        stage2=((1, 2, 3, 4, 7), (1, 3, 4, 5, 7), (1, 2, 3, 5, 7),
                (1, 4, 5, 6, 7), (1, 2, 5, 6, 7), (1, 2, 4, 6, 7),
                (3, 4, 5, 6, 7), (2, 3, 5, 6, 7), (2, 3, 4, 6, 7)),
        vertex_count=6, new_entity=(2, 4, 5)),
    "6_6": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5, 6),
                (2, 3, 4, 5, 7), (2, 4, 5, 6, 7), (3, 4, 5, 6, 7)),
        stage2=((1, 2, 3, 4, 7), (1, 2, 4, 6, 7), (1, 3, 4, 6, 7),
                (1, 2, 3, 5, 7), (1, 2, 5, 6, 7), (1, 3, 5, 6, 7)),
        vertex_count=7, new_entity=None),
    "6_12a": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5, 6),
                (2, 3, 4, 5, 7), (2, 4, 5, 6, 7), (3, 4, 5, 6, 7)),
        stage2=((1, 2, 3, 4, 8), (2, 3, 4, 7, 8), (1, 2, 4, 6, 8), (2, 4, 6, 7, 8),
                (1, 3, 4, 6, 8), (3, 4, 6, 7, 8), (1, 2, 3, 5, 8), (2, 3, 5, 7, 8),
                (1, 2, 5, 6, 8), (2, 5, 6, 7, 8), (1, 3, 5, 6, 8), (3, 5, 6, 7, 8)),
        vertex_count=7, new_entity=(4, 5)),
    "2_8": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 3, 5, 6)),
        stage2=((1, 2, 3, 4, 7), (2, 3, 4, 5, 7), (1, 3, 4, 5, 7), (1, 2, 4, 5, 7),
                (2, 3, 5, 6, 7), (1, 3, 5, 6, 7), (1, 2, 5, 6, 7), (1, 2, 3, 6, 7)),
        vertex_count=6, new_entity=(1, 2, 3, 5)),
    "4_6": dict(
        stage1=((1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (1, 2, 3, 4, 7), (2, 3, 4, 6, 7)),
        stage2=((1, 2, 3, 6, 7), (1, 3, 4, 6, 7), (1, 2, 4, 5, 6),
                (1, 3, 4, 5, 6), (1, 2, 3, 5, 6), (1, 2, 4, 6, 7)),
        vertex_count=7, new_entity=None),
    "8_8v1": dict(
        stage1=((1, 2, 5, 6, 7), (2, 3, 5, 6, 7), (3, 4, 5, 6, 7), (1, 4, 5, 6, 7),
                (1, 2, 5, 6, 8), (2, 3, 5, 6, 8), (3, 4, 5, 6, 8), (1, 4, 5, 6, 8)),
        stage2=((1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 2, 4, 6, 7), (2, 3, 4, 6, 7),
                (1, 2, 4, 5, 8), (2, 3, 4, 5, 8), (1, 2, 4, 6, 8), (2, 3, 4, 6, 8)),
        vertex_count=8, new_entity=None),
    "8_8v2": dict(
        stage1=((1, 2, 5, 6, 7), (2, 3, 5, 6, 7), (3, 4, 5, 6, 7), (1, 4, 5, 6, 7),
                (1, 2, 5, 6, 8), (2, 3, 5, 6, 8), (3, 4, 5, 6, 8), (1, 4, 5, 6, 8)),
        stage2=((1, 2, 3, 5, 7), (1, 3, 4, 5, 7), (1, 2, 3, 6, 7), (1, 3, 4, 6, 7),
                (1, 2, 3, 5, 8), (1, 3, 4, 5, 8), (1, 2, 3, 6, 8), (1, 3, 4, 6, 8)),
        vertex_count=8, new_entity=None),
    "8_8v3": dict(
        stage1=((1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 2, 4, 6, 7), (2, 3, 4, 6, 7),
                (1, 2, 4, 5, 8), (2, 3, 4, 5, 8), (1, 2, 4, 6, 8), (2, 3, 4, 6, 8)),
        stage2=((1, 2, 3, 5, 7), (1, 3, 4, 5, 7), (1, 2, 3, 6, 7), (1, 3, 4, 6, 7),
                (1, 2, 3, 5, 8), (1, 3, 4, 5, 8), (1, 2, 3, 6, 8), (1, 3, 4, 6, 8)),
        vertex_count=8, new_entity=None),
    "4_12": dict(
        stage1=((1, 2, 3, 4, 6), (1, 2, 3, 5, 6), (1, 2, 3, 4, 7), (1, 2, 3, 5, 7)),
        stage2=((2, 3, 4, 6, 8), (2, 3, 4, 7, 8), (1, 3, 4, 6, 8), (1, 3, 4, 7, 8),
                (1, 2, 4, 6, 8), (1, 2, 4, 7, 8), (2, 3, 5, 6, 8), (2, 3, 5, 7, 8),
                (1, 3, 5, 6, 8), (1, 3, 5, 7, 8), (1, 2, 5, 6, 8), (1, 2, 5, 7, 8)),
        vertex_count=7, new_entity=(1, 2, 3)),
    "6_12b": dict(
        stage1=((1, 2, 4, 5, 6), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6),
                (1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 3, 4, 5, 7)),
        stage2=((1, 2, 5, 6, 8), (1, 2, 5, 7, 8), (1, 2, 4, 6, 8), (1, 2, 4, 7, 8),
                (2, 3, 5, 6, 8), (2, 3, 5, 7, 8), (2, 3, 4, 6, 8), (2, 3, 4, 7, 8),
                (1, 3, 5, 6, 8), (1, 3, 5, 7, 8), (1, 3, 4, 6, 8), (1, 3, 4, 7, 8)),
        vertex_count=7, new_entity=(4, 5)),
    "8_16": dict(
        stage1=((1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 2, 4, 6, 7), (2, 3, 4, 6, 7),
                (1, 2, 4, 5, 8), (2, 3, 4, 5, 8), (1, 2, 4, 6, 8), (2, 3, 4, 6, 8)),
        stage2=((2, 3, 6, 7, 9), (1, 4, 5, 7, 9), (1, 2, 5, 7, 9), (3, 4, 5, 7, 9),
                (2, 3, 5, 7, 9), (1, 4, 6, 7, 9), (1, 2, 6, 7, 9), (3, 4, 6, 7, 9),
                (1, 4, 5, 8, 9), (1, 2, 5, 8, 9), (3, 4, 5, 8, 9), (2, 3, 5, 8, 9),
                (1, 4, 6, 8, 9), (1, 2, 6, 8, 9), (3, 4, 6, 8, 9), (2, 3, 6, 8, 9)),
        vertex_count=8, new_entity=(2, 4)),
}

_REVERSE_OF = {
    "1_5": "5_1", "2_4": "4_2", "3_3": "3_3r", "4_8": "8_4", "3_9": "9_3",
    "6_6": "6_6r", "6_12a": "12_6a", "2_8": "8_2", "4_6": "6_4",
    "8_8v1": "8_8v1r", "8_8v2": "8_8v2r", "8_8v3": "8_8v3r",
    "4_12": "12_4", "6_12b": "12_6b", "8_16": "16_8",
}


@dataclass(frozen=True)
class FlipTable:
    """Stage-1/stage-2 connectivity pattern of one bistellar flip kind."""

    kind: str
    stage1: tuple
    stage2: tuple
    vertex_count: int
    new_entity: tuple | None      # labels whose centroid hosts the new vertex
    inserts_point: bool
    removes_point: bool


def _build_tables() -> dict[str, FlipTable]:
    tables = {}
    for kind, spec in _BASE_TABLES.items():
        inserts = spec["new_entity"] is not None
        tables[kind] = FlipTable(
            kind=kind, stage1=spec["stage1"], stage2=spec["stage2"],
            vertex_count=spec["vertex_count"], new_entity=spec["new_entity"],
            inserts_point=inserts, removes_point=False)
        rkind = _REVERSE_OF[kind]
        tables[rkind] = FlipTable(
            kind=rkind, stage1=spec["stage2"], stage2=spec["stage1"],
            vertex_count=spec["vertex_count"], new_entity=spec["new_entity"],
            inserts_point=False, removes_point=inserts)
    return tables


_TABLES = _build_tables()

#: The seventeen forward kinds (self-inverse reconnections listed once).
FLIP_KINDS_FORWARD = ("1_5", "2_4", "3_3", "4_2", "5_1",
                      "4_8", "3_9", "6_6", "6_12a", "2_8", "4_6",
                      "8_8v1", "8_8v2", "8_8v3", "4_12", "6_12b", "8_16")


def flip_kinds() -> tuple[str, ...]:
    """All registered kind tags, including reverses."""
    return tuple(_TABLES)


def flip_table(kind: str) -> FlipTable:
    """Connectivity table for a flip kind (reverse kinds swap the stages)."""
    try:
        return _TABLES[kind]
    except KeyError:
        raise ValueError(f"unknown flip kind {kind!r}") from None


@dataclass(frozen=True)
class FlipCandidate:
    """A concrete flip instance: matched elements plus replacement tuples.

    ``stage2`` uses global vertex ids with :data:`NEW_LABEL` marking the
    vertex to be inserted (coordinates in ``new_point``); ``removed_vertex``
    is set for kinds that delete an interior vertex.
    """

    kind: str
    stage1: tuple[int, ...]                     # element ids
    stage2: tuple[tuple[int, ...], ...]         # vertex-id tuples
    new_point: tuple | None = None
    removed_vertex: int | None = None

    @property
    def inserts_point(self) -> bool:
        return self.new_point is not None


# ---------------------------------------------------------------------------
# entity helpers
# ---------------------------------------------------------------------------

def _ring_cycle(pairs):
    """Order ring vertices into a simple cycle from its 2-subsets, or None."""
    adj = defaultdict(list)
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    verts = list(adj)
    if len(pairs) != len(verts) or any(len(v) != 2 for v in adj.values()):
        return None
    cycle = [verts[0]]
    prev = None
    while True:
        nxt = [v for v in adj[cycle[-1]] if v != prev]
        if not nxt:
            return None
        prev = cycle[-1]
        cycle.append(nxt[0])
        if cycle[-1] == cycle[0]:
            break
        if len(cycle) > len(verts) + 1:
            return None
    cycle.pop()
    return cycle if len(cycle) == len(verts) else None


def _closed_triangle_link(tris):
    """True when a set of triangles forms a closed 2-manifold (sphere)."""
    edge_count = Counter()
    for tri in tris:
        for e in combinations(sorted(tri), 2):
            edge_count[e] += 1
    if any(c != 2 for c in edge_count.values()):
        return False
    verts = {v for tri in tris for v in tri}
    # Euler characteristic of a sphere
    return len(verts) - len(edge_count) + len(tris) == 2


def _entity_centroid(mesh: Mesh4, vids) -> tuple:
    verts = mesh.vertices
    return tuple(sum(c) / len(vids) for c in zip(*[verts[v] for v in sorted(vids)]))


def _mk(kind, elems, stage2, new_entity_vids=None, mesh=None, removed_vertex=None):
    new_point = _entity_centroid(mesh, new_entity_vids) if new_entity_vids else None
    return FlipCandidate(kind=kind, stage1=tuple(sorted(elems)),
                         stage2=tuple(tuple(t) for t in stage2),
                         new_point=new_point, removed_vertex=removed_vertex)


def _entity_keys(verts) -> list[tuple[int, ...]]:
    """Sorted vertex tuples of an element's facets, triangles, edges and vertices, in that order."""
    verts = sorted(verts)
    return [key for k in (4, 3, 2, 1) for key in combinations(verts, k)]


# ---------------------------------------------------------------------------
# candidate detection
# ---------------------------------------------------------------------------

def find_candidates(mesh: Mesh4, starter: int, include_point_inserting: bool = True,
                    *, frozen: set[int] | frozenset[int] = frozenset()
                    ) -> list[FlipCandidate]:
    """All flip configurations in the starter's vertex star that contain it.

    Configurations are matched against the stars of the starter's facets
    (2-4 / 2-8), triangles (3-3 / 3-9 / 4-6 / 4-12), edges (4-2 / 4-8 /
    6-6 / 6-4 / 6-12 / 8-8 / 8-16), and vertices (5-1 and the
    point-removing reverses), in that order, then 1-5.  Each entity's
    candidates come from :func:`_entity_candidates`, which reads only the
    entity's sorted vertex tuple and its star, walked in sorted element
    order, so they do not depend on the starter or on set iteration
    order; :func:`improve_quality` gathers the same candidates in the
    same order through its memo.  Every candidate of an entity has that
    entity's star as stage 1, and a star that meets ``frozen`` is never
    built, so the result is the unfiltered list, in the same order, less
    the candidates whose ``stage1`` meets ``frozen``.  Distinct entities
    of the starter have distinct stars, so no two candidates share kind,
    stage 1 and stage 2.  An empty list is a perfectly normal outcome.
    Geometric validity is *not* checked here; run :func:`validate_flip`
    on each candidate.
    """
    if not mesh.alive(starter):
        raise MeshError(f"starter element {starter} is not alive")
    if starter in frozen:
        return []
    out = [cand for key in _entity_keys(mesh.elements[starter])
           for cand in _entity_candidates(mesh, key, include_point_inserting, frozen)]
    if include_point_inserting:
        out.append(_one_five(mesh, starter))
    return out


def _one_five(mesh, eid):
    verts = mesh.elements[eid]
    return _mk("1_5", (eid,),
               [tuple(v for v in verts if v != skip) + (NEW_LABEL,) for skip in reversed(verts)],
               new_entity_vids=verts, mesh=mesh)


# Star sizes a facet, triangle, edge or vertex configuration can have.
_STAR_SIZES = {4: (2,), 3: (3, 4), 2: (4, 6, 8), 1: (5, 8, 9, 12, 16)}


def _entity_candidates(mesh, key, with_points, frozen) -> list[FlipCandidate]:
    """The candidates recognised from the star of one entity, a sorted vertex tuple.

    Every one has the entity's star as stage 1; a star of another size
    than its kinds match, or one that meets ``frozen``, gives an empty
    list without being examined.
    """
    star = mesh.star[key[0]] if len(key) == 1 else mesh.elements_with_vertices(key)
    if len(star) not in _STAR_SIZES[len(key)] or not frozen.isdisjoint(star):
        return []
    star = sorted(star)
    if len(key) == 4:
        return _facet_candidates(mesh, key, star, with_points)
    if len(key) == 3:
        return _triangle_candidates(mesh, key, star, with_points)
    if len(key) == 2:
        return _edge_candidates(mesh, key, star, with_points)
    return _vertex_candidates(mesh, key[0], star)


def _facet_candidates(mesh, facet, star, with_points):
    apexes = tuple(next(v for v in mesh.elements[e] if v not in facet) for e in star)
    tris = list(combinations(facet, 3))
    out = [_mk("2_4", star, [tri + apexes for tri in tris])]
    if with_points:
        stage2 = [tri + (apex, NEW_LABEL) for tri in tris for apex in apexes]
        out.append(_mk("2_8", star, stage2, new_entity_vids=facet, mesh=mesh))
    return out


def _triangle_candidates(mesh, tri, star, with_points):
    cycle = _ring_cycle([tuple(v for v in mesh.elements[e] if v not in tri) for e in star])
    if cycle is None:
        return []
    tri_edges = list(combinations(tri, 2))
    if len(star) == 3:
        out = [_mk("3_3", star, [tuple(cycle) + e for e in tri_edges])]
    else:  # 4 elements around the triangle, quadrilateral ring
        out = []
        for diag in ((cycle[0], cycle[2]), (cycle[1], cycle[3])):
            off = tuple(v for v in cycle if v not in diag)
            out.append(_mk("4_6", star, [diag + te + (v,) for te in tri_edges for v in off]))
    if with_points:
        cyc_edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        stage2 = [te + ce + (NEW_LABEL,) for te in tri_edges for ce in cyc_edges]
        out.append(_mk("3_9" if len(star) == 3 else "4_12", star, stage2,
                       new_entity_vids=tri, mesh=mesh))
    return out


def _edge_candidates(mesh, edge, star, with_points):
    # only a star whose ring triangles close into a sphere matches
    k = len(star)
    ring_tris = [tuple(v for v in mesh.elements[e] if v not in edge) for e in star]
    if not _closed_triangle_link(ring_tris):
        return []
    out = []
    if with_points:
        kind = {4: "4_8", 6: "6_12a", 8: "8_16"}[k]
        stage2 = [tri + (end, NEW_LABEL) for tri in ring_tris for end in edge]
        out.append(_mk(kind, star, stage2, new_entity_vids=edge, mesh=mesh))
    if k == 4:
        ring = sorted({v for tri in ring_tris for v in tri})
        if len(ring) == 4:
            stage2 = [tuple(ring) + (edge[0],), tuple(ring) + (edge[1],)]
            out.append(_mk("4_2", star, stage2))
    elif k == 6:
        deg = Counter(v for tri in ring_tris for v in tri)
        apexes = sorted(v for v, c in deg.items() if c == 3)
        base = sorted(v for v, c in deg.items() if c == 4)
        if len(apexes) == 2 and len(base) == 3:
            stage2 = [tuple(apexes) + be + (end,)
                      for be in combinations(base, 2) for end in edge]
            out.append(_mk("6_6", star, stage2))
            stage2 = [tuple(base) + pair for pair in
                      ((edge[0], apexes[0]), (apexes[0], edge[1]),
                       (edge[1], apexes[1]), (apexes[1], edge[0]))]
            out.append(_mk("6_4", star, stage2))
    else:
        # octahedral link: three antipodal pairs, flip to another pair
        verts = sorted({v for tri in ring_tris for v in tri})
        if len(verts) != 6:
            return out
        adj = {v: set() for v in verts}
        for tri in ring_tris:
            for a, b in combinations(tri, 2):
                adj[a].add(b)
                adj[b].add(a)
        antipodes = {}
        for v in verts:
            non = [w for w in verts if w != v and w not in adj[v]]
            if len(non) != 1:
                return out
            antipodes[v] = non[0]
        pairs = sorted({tuple(sorted((v, antipodes[v]))) for v in verts})
        if len(pairs) != 3:
            return out
        for idx, new_edge in enumerate(pairs):
            others = [p for p in pairs if p != new_edge]
            stage2 = [new_edge + (q1, q2, q3)
                      for q1 in others[0] for q2 in others[1] for q3 in edge]
            out.append(_mk(f"8_8v{idx + 1}", star, stage2))
    return out


def _vertex_candidates(mesh, v, star):
    k = len(star)
    outer_sets = [frozenset(mesh.elements[e]) - {v} for e in star]
    outer = sorted(set().union(*outer_sets))
    if k == 5 and len(outer) == 5:
        if {frozenset(c) for c in combinations(outer, 4)} == set(outer_sets):
            return [_mk("5_1", star, [tuple(outer)], removed_vertex=v)]
        return []
    cnt = Counter(w for s in outer_sets for w in s)
    if k == 8 and len(outer) == 6:
        return (_unsplit_tet(star, v, outer_sets, cnt)
                + _unsplit_edge(star, v, outer_sets, cnt, "8_4"))
    if k == 9 and len(outer) == 6:
        return _unsplit_triangle(star, v, outer_sets, outer, "9_3")
    if k == 12 and len(outer) == 7:
        return (_unsplit_edge(star, v, outer_sets, cnt, "12_6a")
                + _unsplit_triangle(star, v, outer_sets, outer, "12_4"))
    if k == 16 and len(outer) == 8:
        return _unsplit_edge(star, v, outer_sets, cnt, "16_8")
    return []


def _unsplit_edge(star, v, outer_sets, cnt, kind):
    """Reverses of an edge split: star(v) pairs up across two pole vertices.

    After a 6-12a or 8-16 split the link of v joins the split edge's ends
    to a ring with opposite vertex pairs of its own (the bipyramid's
    apexes, the octahedron's antipodes), so it unsplits across each pair.
    """
    k = len(star)
    poles = sorted(w for w, c in cnt.items() if c == k // 2)
    out = []
    for a, b in combinations(poles, 2):
        rings_a = {s - {a} for s in outer_sets if a in s and b not in s}
        rings_b = {s - {b} for s in outer_sets if b in s and a not in s}
        if len(rings_a) != k // 2 or rings_a != rings_b:
            continue
        if not _closed_triangle_link([tuple(r) for r in rings_a]):
            continue
        stage2 = [tuple(sorted(r)) + (a, b) for r in sorted(rings_a, key=sorted)]
        out.append(_mk(kind, star, stage2, removed_vertex=v))
    return out


def _unsplit_tet(star, v, outer_sets, cnt):
    """Reverse of a shared-tet split: 8 elements collapse to a facet pair."""
    apexes = sorted(w for w, c in cnt.items() if c == 4)
    tet = sorted(w for w, c in cnt.items() if c == 6)
    if len(apexes) != 2 or len(tet) != 4:
        return []
    want = {frozenset(face) | {apex}
            for face in combinations(tet, 3) for apex in apexes}
    if set(outer_sets) != want:
        return []
    return [_mk("8_2", star, [tuple(tet) + (apexes[0],), tuple(tet) + (apexes[1],)],
                removed_vertex=v)]


def _unsplit_triangle(star, v, outer_sets, outer, kind):
    """Reverses of a shared-triangle split: elements are tri-edge x ring-edge.

    After a 3-9 split the triangle and the ring are both 3-cycles, so
    either can serve as the triangle.
    """
    out = []
    for tri in combinations(outer, 3):
        ring = [w for w in outer if w not in tri]
        ring_pairs = {s - set(tri) for s in outer_sets}
        ring_pairs = {frozenset(p) for p in ring_pairs if len(p) == 2 and set(p) <= set(ring)}
        if len(ring) == 3:
            cyc_edges = [frozenset(e) for e in combinations(ring, 2)]
        else:
            cycle = _ring_cycle([tuple(p) for p in ring_pairs])
            if cycle is None or set(cycle) != set(ring):
                continue
            cyc_edges = [frozenset((cycle[i], cycle[(i + 1) % len(cycle)]))
                         for i in range(len(cycle))]
        want = {frozenset(te) | ce for te in combinations(tri, 2) for ce in cyc_edges}
        if set(outer_sets) != want:
            continue
        stage2 = [tuple(sorted(tri)) + tuple(sorted(ce)) for ce in cyc_edges]
        out.append(_mk(kind, star, stage2, removed_vertex=v))
    return out


# ---------------------------------------------------------------------------
# validation and application
# ---------------------------------------------------------------------------

def _boundary_multiset(tuples):
    cnt = Counter()
    for tup in tuples:
        for f in combinations(sorted(tup), 4):
            cnt[f] += 1
    return Counter({f: 1 for f, c in cnt.items() if c == 1}), max(cnt.values(), default=0)


_VOL_RTOL = 1e-12  # relative hypervolume tolerance of the float pre-filter


def _candidate_points(mesh, cand, tup):
    return [cand.new_point if v == NEW_LABEL else mesh.vertices[v] for v in tup]


def validate_flip(mesh: Mesh4, cand: FlipCandidate):
    """Geometric validity of a candidate: (ok, reject_reason).

    Checks that all matched elements are alive, the boundary facet
    multiset is preserved, no replacement duplicates an element outside
    the group, and, exactly, that no replacement pentatope is degenerate
    and the total unsigned hypervolume is conserved (:func:`_check_flip`).
    Validity is metric-free.
    """
    reason, _ = _check_flip(mesh, cand)
    return not reason, reason


def _check_flip(mesh, cand):
    """:func:`validate_flip`'s reject reason, "" if none, and the exact stage-2 volumes.

    Float sums of unsigned volumes that differ by more than the relative
    ``_VOL_RTOL`` reject; a candidate they pass is decided on the integer
    volumes of :func:`~pentamesh.geometry._hypervolumes_int`, whose signs
    (returned for a valid candidate only) orient the replacements.
    """
    if any(not mesh.alive(e) for e in cand.stage1):
        return "dead element in stage 1", None
    stage1 = [mesh.elements[e] for e in cand.stage1]
    b1, mult1 = _boundary_multiset(stage1)
    b2, mult2 = _boundary_multiset(cand.stage2)
    if b1 != b2 or mult1 > 2 or mult2 > 2:
        return "boundary facets not preserved", None
    for tup in cand.stage2:
        ext = set(tup) - {NEW_LABEL}
        for eid in mesh.elements_with_vertices(tuple(ext)) - set(cand.stage1):
            if set(mesh.elements[eid]) == ext:
                return "replacement duplicates an existing element", None

    vol1 = sum(abs(hypervolume(*mesh.element_points(e))) for e in cand.stage1)
    vol2 = sum(abs(hypervolume(*_candidate_points(mesh, cand, tup))) for tup in cand.stage2)
    if abs(vol1 - vol2) > _VOL_RTOL * max(vol1, vol2):
        return "hypervolume not conserved", None
    tuples = stage1 + list(cand.stage2)
    points = {v: cand.new_point if v == NEW_LABEL else mesh.vertices[v]
              for tup in tuples for v in tup}
    dets, _ = _hypervolumes_int(points, tuples)
    dets1, dets2 = dets[:len(stage1)], dets[len(stage1):]
    if 0 in dets2:
        return "degenerate replacement element", None
    if sum(map(abs, dets1)) != sum(map(abs, dets2)):
        return "hypervolume not conserved", None
    return "", dets2


@dataclass(frozen=True)
class FlipReport:
    kind: str
    removed_elements: tuple[int, ...]
    new_elements: tuple[int, ...]
    new_vertex: int | None
    removed_vertex: int | None


def apply_flip(mesh: Mesh4, cand: FlipCandidate) -> FlipReport:
    """Execute a validated flip; the mesh is untouched if preconditions fail.

    The flip is validated again, and the exact volume signs of that
    validation put each replacement pentatope in positive orientation;
    kinds that remove a vertex mark it dead once its star empties.  When
    :meth:`~pentamesh.mesh.Mesh4.replace` raises, the vertex a
    point-inserting kind added is removed again before the error propagates.
    """
    reason, dets = _check_flip(mesh, cand)
    if reason:
        raise MeshError(f"flip {cand.kind} rejected: {reason}")
    new_vid = mesh.add_vertex(cand.new_point) if cand.inserts_point else None
    tuples = []
    for tup, det in zip(cand.stage2, dets):
        verts = tuple(new_vid if v == NEW_LABEL else v for v in tup)
        tuples.append(verts if det > 0 else (verts[1], verts[0]) + verts[2:])
    try:
        created = tuple(mesh.replace(cand.stage1, tuples))
    except MeshError:
        if new_vid is not None:
            mesh.pop_vertex()
        raise
    if cand.removed_vertex is not None:
        mesh.kill_vertex(cand.removed_vertex)
    return FlipReport(cand.kind, cand.stage1, created, new_vid, cand.removed_vertex)


# ---------------------------------------------------------------------------
# quality improvement driver
# ---------------------------------------------------------------------------

@dataclass
class ImprovementReport:
    """Outcome of the greedy worst-element flip loop."""

    heuristic: int
    flips_by_kind: Counter
    n_elements_before: int
    n_elements_after: int
    amq_before: dict
    amq_after: dict
    hypervolume_before: float
    hypervolume_after: float
    hv_conserved_exactly: bool
    starters: int = 0
    flips: list = dc_field(default_factory=list)

    def as_row(self) -> dict:
        """Summary columns shared by the CLI's and the quality study's CSV rows.

        Flip count, element counts, each AMQ fraction's initial and final
        value side by side, then the hypervolumes and the conservation flag.
        """
        row = {"n_flips": sum(self.flips_by_kind.values()),
               "pentatopes_initial": self.n_elements_before,
               "pentatopes_final": self.n_elements_after}
        for f in AMQ_FRACTIONS:
            row[f"amq{int(f * 100)}_initial"] = self.amq_before[f]
            row[f"amq{int(f * 100)}_final"] = self.amq_after[f]
        row["hv_initial"] = self.hypervolume_before
        row["hv_final"] = self.hypervolume_after
        row["hv_conserved_exactly"] = self.hv_conserved_exactly
        return row


AMQ_FRACTIONS = (0.01, 0.05, 0.10, 0.20)


def amq(qualities, fraction: float) -> float:
    """Average quality of the worst ``fraction`` of elements."""
    if not qualities:
        return float("nan")
    k = max(1, math.ceil(fraction * len(qualities)))
    return sum(sorted(qualities)[:k]) / k


def _amq_table(qualities) -> dict:
    return {f: amq(qualities, f) for f in AMQ_FRACTIONS}


def improve_quality(mesh: Mesh4, heuristic: int = 1, field=None, *,
                    include_point_inserting: bool = True) -> ImprovementReport:
    """Greedy quality improvement by bistellar flips.

    Repeatedly takes the worst alive element that is neither frozen nor a
    previous starter, enumerates the flips in its star that touch no
    frozen element (those of :func:`find_candidates`, in its order), and
    executes the geometrically valid one with the largest gain in the
    minimum quality over the affected group; only strict gains count.
    Ties go to the smaller ``(kind, stage1)``, then to the candidate
    enumerated first.

    The gain comes first: a candidate is dropped as soon as one of its
    replacement elements is no better than the group's current minimum,
    the improving candidates are ranked by gain, and
    :func:`validate_flip` runs on them in that order only until one
    passes; its exact test keeps ``hv_conserved_exactly`` true.  Elements
    produced by a flip are frozen; the loop ends when every element is
    frozen or has already served as starter.

    Neighbouring starters share most of their facets, triangles, edges
    and vertices, so each entity's improving candidates and their gains
    are memoised for the length of the call; an entity whose star meets
    the frozen set is memoised as empty without being examined.  Only a
    flip changes a star, and only the stars of entities of the elements
    it removes or creates, so those entries are dropped after each flip;
    a live entry equals a fresh build, because stage-1 qualities and
    vertex coordinates never change.  The memo gives each starter the
    candidates of :func:`find_candidates` in the same order, so the
    tie-breaking above is unchanged.  Validation is not memoised: its
    duplicate check reads elements outside the star.
    """
    fld = resolve_field(field)
    use_metric = fld.kind != "identity"

    def quality(pts):
        if use_metric:
            return quality_metric(pts, fld, which=heuristic)
        return pentatope_quality(pts, which=heuristic)

    quality_of: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for eid in mesh.alive_elements():
        q = quality(mesh.element_points(eid))
        quality_of[eid] = q
        heapq.heappush(heap, (q, eid))

    qualities_before = list(quality_of.values())
    hv_before_exact = mesh.total_hypervolume(exact=True)
    hv_before = float(hv_before_exact)
    n_before = mesh.n_alive

    def gain(cand):
        """after - before when every replacement beats the group's minimum, else None."""
        before = min(quality_of[e] for e in cand.stage1)
        after = math.inf
        for tup in cand.stage2:
            after = min(after, quality(_candidate_points(mesh, cand, tup)))
            if after <= before:
                return None
        return after - before

    frozen: set[int] = set()
    started: set[int] = set()
    memo: dict[tuple[int, ...], tuple[tuple[FlipCandidate, float], ...]] = {}
    report = ImprovementReport(
        heuristic=heuristic, flips_by_kind=Counter(),
        n_elements_before=n_before, n_elements_after=n_before,
        amq_before=_amq_table(qualities_before), amq_after={},
        hypervolume_before=hv_before, hypervolume_after=hv_before,
        hv_conserved_exactly=True)

    while heap:
        q, starter = heapq.heappop(heap)
        if (not mesh.alive(starter) or starter in frozen or starter in started
                or quality_of.get(starter) != q):
            continue
        started.add(starter)
        report.starters += 1

        ranked = _improving_candidates(mesh, starter, memo, gain,
                                       include_point_inserting, frozen)
        # stable: equal keys keep enumeration order, so the first seen wins
        ranked.sort(key=lambda item: (-item[1], item[0].kind, item[0].stage1))
        cand = next((c for c, _ in ranked if validate_flip(mesh, c)[0]), None)
        if cand is None:
            continue

        stale = [mesh.elements[e] for e in cand.stage1]
        fr = apply_flip(mesh, cand)
        report.flips_by_kind[fr.kind] += 1
        report.flips.append(fr)
        for e in fr.removed_elements:
            quality_of.pop(e, None)
        for e in fr.new_elements:
            quality_of[e] = quality(mesh.element_points(e))
            frozen.add(e)
            stale.append(mesh.elements[e])
        for verts in stale:
            for key in _entity_keys(verts):
                memo.pop(key, None)

    qualities_after = [quality_of[e] for e in mesh.alive_elements()]
    hv_after_exact = mesh.total_hypervolume(exact=True)
    report.n_elements_after = mesh.n_alive
    report.amq_after = _amq_table(qualities_after)
    report.hypervolume_after = float(hv_after_exact)
    report.hv_conserved_exactly = (hv_after_exact == hv_before_exact)
    return report


def _gated_entity(mesh, key, gain, with_points, frozen):
    """``(candidate, gain)`` for the candidates of one entity that pass ``gain``.

    A tuple, so that the many entities without any share the empty one.
    """
    gated = []
    for cand in _entity_candidates(mesh, key, with_points, frozen):
        g = gain(cand)
        if g is not None:
            gated.append((cand, g))
    return tuple(gated)


def _improving_candidates(mesh, starter, memo, gain, with_points, frozen):
    """The starter's gated ``(candidate, gain)`` pairs in :func:`find_candidates` order.

    Entity entries come from ``memo``, built by :func:`_gated_entity` on a
    miss; 1-5 belongs to the starter alone and is gated afresh.
    """
    out = []
    for key in _entity_keys(mesh.elements[starter]):
        entries = memo.get(key)
        if entries is None:
            entries = memo[key] = _gated_entity(mesh, key, gain, with_points, frozen)
        out += entries
    if with_points:
        cand = _one_five(mesh, starter)
        g = gain(cand)
        if g is not None:
            out.append((cand, g))
    return out
