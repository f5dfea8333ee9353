"""Bistellar flips on pentatope meshes and the greedy quality-improvement loop.

Seventeen flip kinds: the five basic moves (1-5, 2-4, 3-3, 4-2, 5-1) and
twelve extensions of lower-dimensional moves, including three 8-8
variants.  Each kind is stored as a pair of connectivity stages over
abstract vertex labels; reverse kinds swap the stages.  Point-inserting
kinds place the new vertex at the midpoint / centroid of the shared
entity, so the replacement is a cone over the union boundary and the
total hypervolume is conserved exactly in rational arithmetic.

Candidate detection is entity-driven: configurations are recognized from
the stars of the starter element's facets, triangles, edges, and
vertices.  The greedy driver ranks a starter's candidates by quality gain
first and checks only the improving ones with :func:`validate_flip`, best
first, until one passes; :func:`apply_flip` validates again before it
changes the mesh.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

from .geometry import CANONICAL_FACETS, hypervolume, hypervolume_exact
from .mesh import Mesh4, MeshError
from .predicates import orientation4
from .quality import pentatope_quality, quality_metric
from .geometry import resolve_field

__all__ = [
    "FlipCandidate",
    "FlipTable",
    "ImprovementReport",
    "NEW_LABEL",
    "apply_flip",
    "find_candidates",
    "flip_kinds",
    "flip_table",
    "flip_vertex_count",
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

    @property
    def new_label(self) -> int | None:
        return self.vertex_count + 1 if self.inserts_point else None


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


def flip_vertex_count(d: int, k: int) -> int:
    """Vertices required by the basic k -> (d+2)-k move in d dimensions."""
    if d < 1 or k < 1:
        raise ValueError("dimension and element count must be >= 1")
    return d + 1 if k == 1 else d + 2


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

    def signature(self):
        return (self.kind, frozenset(self.stage1),
                frozenset(frozenset(t) for t in self.stage2))


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
    return tuple(sum(mesh.vertices[v][j] for v in vids) / len(vids) for j in range(4))


def _mk(kind, elems, stage2, new_entity_vids=None, mesh=None, removed_vertex=None):
    new_point = _entity_centroid(mesh, new_entity_vids) if new_entity_vids else None
    return FlipCandidate(kind=kind, stage1=tuple(sorted(elems)),
                         stage2=tuple(tuple(t) for t in stage2),
                         new_point=new_point, removed_vertex=removed_vertex)


# ---------------------------------------------------------------------------
# candidate detection
# ---------------------------------------------------------------------------

def find_candidates(mesh: Mesh4, starter: int,
                    include_point_inserting: bool = True) -> list[FlipCandidate]:
    """All flip configurations in the starter's vertex star that contain it.

    Configurations are matched against the stars of the starter's facets
    (2-4 / 2-8), triangles (3-3 / 3-9 / 4-6 / 4-12), edges (4-2 / 4-8 /
    6-6 / 6-4 / 6-12 / 8-8 / 8-16), and vertices (5-1 and the
    point-removing reverses).  An empty list is a perfectly normal
    outcome.  Geometric validity is *not* checked here; run
    :func:`validate_flip` on each candidate.
    """
    if not mesh.alive(starter):
        raise MeshError(f"starter element {starter} is not alive")
    sverts = mesh.elements[starter]
    out: list[FlipCandidate] = []
    seen = set()

    def emit(cand):
        sig = cand.signature()
        if sig not in seen:
            seen.add(sig)
            out.append(cand)

    _facet_family(mesh, starter, sverts, emit, include_point_inserting)
    _triangle_family(mesh, starter, sverts, emit, include_point_inserting)
    _edge_family(mesh, starter, sverts, emit, include_point_inserting)
    _vertex_family(mesh, starter, sverts, emit)
    if include_point_inserting:
        emit(_mk("1_5", (starter,),
                 [tuple(v for v in sverts if v != skip) + (NEW_LABEL,)
                  for skip in reversed(sverts)],
                 new_entity_vids=sverts, mesh=mesh))
    return out


def _facet_family(mesh, starter, sverts, emit, with_points):
    for li in range(5):
        nb = mesh.neighbor(starter, li)
        if nb is None:
            continue
        other = nb[0]
        shared = [sverts[i] for i in CANONICAL_FACETS[li]]
        apex_s = next(v for v in sverts if v not in shared)
        apex_o = next(v for v in mesh.elements[other] if v not in shared)
        stage2 = [tri + (apex_s, apex_o) for tri in combinations(shared, 3)]
        emit(_mk("2_4", (starter, other), stage2))
        if with_points:
            stage2 = [tri + (apex, NEW_LABEL)
                      for tri in combinations(shared, 3) for apex in (apex_s, apex_o)]
            emit(_mk("2_8", (starter, other), stage2,
                     new_entity_vids=shared, mesh=mesh))


def _triangle_family(mesh, starter, sverts, emit, with_points):
    for tri in combinations(sverts, 3):
        elems = mesh.elements_with_vertices(tri)
        if starter not in elems or len(elems) not in (3, 4):
            continue
        pairs = []
        ok = True
        for eid in elems:
            extra = [v for v in mesh.elements[eid] if v not in tri]
            if len(extra) != 2:
                ok = False
                break
            pairs.append(tuple(extra))
        if not ok:
            continue
        cycle = _ring_cycle(pairs)
        if cycle is None:
            continue
        elems = tuple(sorted(elems))
        tri_edges = list(combinations(tri, 2))
        cyc_edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        if len(elems) == 3:
            stage2 = [tuple(cycle) + e for e in tri_edges]
            emit(_mk("3_3", elems, stage2))
            if with_points:
                stage2 = [te + ce + (NEW_LABEL,) for te in tri_edges for ce in cyc_edges]
                emit(_mk("3_9", elems, stage2, new_entity_vids=tri, mesh=mesh))
        else:  # 4 elements around the triangle, quadrilateral ring
            for diag in ((cycle[0], cycle[2]), (cycle[1], cycle[3])):
                off = tuple(v for v in cycle if v not in diag)
                stage2 = [diag + te + (v,) for te in tri_edges for v in off]
                emit(_mk("4_6", elems, stage2))
            if with_points:
                stage2 = [te + ce + (NEW_LABEL,) for te in tri_edges for ce in cyc_edges]
                emit(_mk("4_12", elems, stage2, new_entity_vids=tri, mesh=mesh))


def _edge_star(mesh, edge):
    """Sorted elements and ring triangles of an edge star, or ``(None, None)``.

    Only stars of 4, 6 or 8 elements can match an edge-family kind, so any
    other size is rejected before the ring is built; so is a star whose
    ring triangles do not form a closed link.
    """
    elems = mesh.elements_with_vertices(edge)
    if len(elems) not in (4, 6, 8):
        return None, None
    rings = []
    for eid in elems:
        extra = tuple(v for v in mesh.elements[eid] if v not in edge)
        if len(extra) != 3:
            return None, None
        rings.append((eid, extra))
    if not _closed_triangle_link([r for _, r in rings]):
        return None, None
    return sorted(e for e, _ in rings), rings


def _edge_family(mesh, starter, sverts, emit, with_points):
    for edge in combinations(sverts, 2):
        elems, rings = _edge_star(mesh, edge)
        if elems is None or starter not in elems:
            continue
        k = len(elems)
        ring_tris = [r for _, r in rings]
        if with_points:
            kind = {4: "4_8", 6: "6_12a", 8: "8_16"}[k]
            stage2 = [tri + (end, NEW_LABEL) for tri in ring_tris for end in edge]
            emit(_mk(kind, elems, stage2, new_entity_vids=edge, mesh=mesh))
        if k == 4:
            ring = sorted({v for tri in ring_tris for v in tri})
            if len(ring) == 4:
                stage2 = [tuple(ring) + (edge[0],), tuple(ring) + (edge[1],)]
                emit(_mk("4_2", elems, stage2))
        elif k == 6:
            deg = Counter(v for tri in ring_tris for v in tri)
            apexes = sorted(v for v, c in deg.items() if c == 3)
            base = sorted(v for v, c in deg.items() if c == 4)
            if len(apexes) == 2 and len(base) == 3:
                stage2 = [tuple(apexes) + be + (end,)
                          for be in combinations(base, 2) for end in edge]
                emit(_mk("6_6", elems, stage2))
                stage2 = [tuple(base) + pair for pair in
                          ((edge[0], apexes[0]), (apexes[0], edge[1]),
                           (edge[1], apexes[1]), (apexes[1], edge[0]))]
                emit(_mk("6_4", elems, stage2))
        elif k == 8:
            # octahedral link: three antipodal pairs, flip to another pair
            verts = sorted({v for tri in ring_tris for v in tri})
            if len(verts) != 6:
                continue
            adj = {v: set() for v in verts}
            for tri in ring_tris:
                for a, b in combinations(tri, 2):
                    adj[a].add(b)
                    adj[b].add(a)
            antipodes = {}
            for v in verts:
                non = [w for w in verts if w != v and w not in adj[v]]
                if len(non) != 1:
                    antipodes = None
                    break
                antipodes[v] = non[0]
            if not antipodes:
                continue
            pairs = sorted({tuple(sorted((v, antipodes[v]))) for v in verts})
            if len(pairs) != 3:
                continue
            for idx, new_edge in enumerate(pairs):
                others = [p for p in pairs if p != new_edge]
                stage2 = [new_edge + (q1, q2, q3)
                          for q1 in others[0] for q2 in others[1] for q3 in edge]
                emit(_mk(f"8_8v{idx + 1}", elems, stage2))


def _vertex_family(mesh, starter, sverts, emit):
    for v in sverts:
        star = sorted(mesh.star[v])
        k = len(star)
        if k not in (5, 8, 9, 12, 16):
            continue
        outer_sets = [frozenset(mesh.elements[e]) - {v} for e in star]
        outer = sorted(set().union(*outer_sets))
        if k == 5 and len(outer) == 5:
            if {frozenset(c) for c in combinations(outer, 4)} == set(outer_sets):
                emit(_mk("5_1", star, [tuple(outer)], removed_vertex=v))
            continue
        cnt = Counter(w for s in outer_sets for w in s)
        if k == 8 and len(outer) == 6:
            _try_unsplit_tet(mesh, star, v, outer_sets, cnt, emit)
            _try_unsplit_edge(mesh, star, v, outer_sets, cnt, "8_4", emit)
        elif k == 9 and len(outer) == 6:
            _try_unsplit_triangle(mesh, star, v, outer_sets, outer, emit, "9_3")
        elif k == 12 and len(outer) == 7:
            _try_unsplit_edge(mesh, star, v, outer_sets, cnt, "12_6a", emit)
            _try_unsplit_triangle(mesh, star, v, outer_sets, outer, emit, "12_4")
        elif k == 16 and len(outer) == 8:
            _try_unsplit_edge(mesh, star, v, outer_sets, cnt, "16_8", emit)


def _try_unsplit_edge(mesh, star, v, outer_sets, cnt, kind, emit):
    """Reverse of an edge split: star(v) pairs up across two pole vertices."""
    k = len(star)
    poles = sorted(w for w, c in cnt.items() if c == k // 2)
    for a, b in combinations(poles, 2):
        rings_a = {s - {a} for s in outer_sets if a in s and b not in s}
        rings_b = {s - {b} for s in outer_sets if b in s and a not in s}
        if len(rings_a) != k // 2 or rings_a != rings_b:
            continue
        if not _closed_triangle_link([tuple(r) for r in rings_a]):
            continue
        stage2 = [tuple(sorted(r)) + (a, b) for r in sorted(rings_a, key=sorted)]
        emit(_mk(kind, star, stage2, removed_vertex=v))
        return


def _try_unsplit_tet(mesh, star, v, outer_sets, cnt, emit):
    """Reverse of a shared-tet split: 8 elements collapse to a facet pair."""
    apexes = sorted(w for w, c in cnt.items() if c == 4)
    tet = sorted(w for w, c in cnt.items() if c == 6)
    if len(apexes) != 2 or len(tet) != 4:
        return
    want = {frozenset(face) | {apex}
            for face in combinations(tet, 3) for apex in apexes}
    if set(outer_sets) != want:
        return
    stage2 = [tuple(tet) + (apexes[0],), tuple(tet) + (apexes[1],)]
    emit(_mk("8_2", star, stage2, removed_vertex=v))


def _try_unsplit_triangle(mesh, star, v, outer_sets, outer, emit, kind):
    """Reverse of a shared-triangle split: elements are tri-edge x ring-edge."""
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
        emit(_mk(kind, star, stage2, removed_vertex=v))
        return


# ---------------------------------------------------------------------------
# validation and application
# ---------------------------------------------------------------------------

def _boundary_multiset(tuples):
    cnt = Counter()
    for tup in tuples:
        for f in combinations(sorted(tup), 4):
            cnt[f] += 1
    return Counter({f: 1 for f, c in cnt.items() if c == 1}), max(cnt.values(), default=0)


def _candidate_points(mesh, cand, tup):
    return [cand.new_point if v == NEW_LABEL else mesh.vertices[v] for v in tup]


def validate_flip(mesh: Mesh4, cand: FlipCandidate, field=None, *,
                  exact: bool = False, vol_rtol: float = 1e-12):
    """Geometric validity of a candidate: (ok, reject_reason).

    Checks that all matched elements are alive, every replacement
    pentatope is non-degenerate, the total unsigned hypervolume is
    conserved (exactly, in rational mode), the boundary facet multiset is
    preserved, and no replacement duplicates an element outside the group.
    """
    if any(not mesh.alive(e) for e in cand.stage1):
        return False, "dead element in stage 1"
    stage1_tuples = [mesh.elements[e] for e in cand.stage1]
    b1, mult1 = _boundary_multiset(stage1_tuples)
    b2, mult2 = _boundary_multiset(cand.stage2)
    if b1 != b2 or mult1 > 2 or mult2 > 2:
        return False, "boundary facets not preserved"
    for tup in cand.stage2:
        ext = set(tup) - {NEW_LABEL}
        for eid in mesh.elements_with_vertices(tuple(ext)) - set(cand.stage1):
            if set(mesh.elements[eid]) == ext:
                return False, "replacement duplicates an existing element"

    if exact:
        vol1 = sum(abs(hypervolume_exact(*mesh.element_points(e))) for e in cand.stage1)
        vol2 = Fraction(0)
        for tup in cand.stage2:
            v = hypervolume_exact(*_candidate_points(mesh, cand, tup))
            if v == 0:
                return False, "degenerate replacement element"
            vol2 += abs(v)
        if vol1 != vol2:
            return False, "hypervolume not conserved"
        return True, ""

    vol1 = sum(abs(hypervolume(*mesh.element_points(e))) for e in cand.stage1)
    vol2 = 0.0
    for tup in cand.stage2:
        pts = _candidate_points(mesh, cand, tup)
        v = hypervolume(*pts)
        scale = max(1.0, *(abs(c) for q in pts for c in q))
        if abs(v) <= 24.0 * vol_rtol * scale ** 4:
            if orientation4(*pts).sign == 0:
                return False, "degenerate replacement element"
        vol2 += abs(v)
    if abs(vol1 - vol2) > vol_rtol * max(vol1, vol2):
        return False, "hypervolume not conserved"
    return True, ""


@dataclass(frozen=True)
class FlipReport:
    kind: str
    removed_elements: tuple[int, ...]
    new_elements: tuple[int, ...]
    new_vertex: int | None
    removed_vertex: int | None


def apply_flip(mesh: Mesh4, cand: FlipCandidate) -> FlipReport:
    """Execute a validated flip; the mesh is untouched if preconditions fail.

    Replacement pentatopes are normalized to positive orientation; kinds
    that remove a vertex mark it dead once its star empties.
    """
    ok, reason = validate_flip(mesh, cand)
    if not ok:
        raise MeshError(f"flip {cand.kind} rejected: {reason}")
    new_vid = None
    tuples = []
    if cand.inserts_point:
        new_vid = mesh.add_vertex(cand.new_point)
    for tup in cand.stage2:
        verts = tuple(new_vid if v == NEW_LABEL else v for v in tup)
        pts = [mesh.vertices[v] for v in verts]
        if hypervolume(*pts) < 0.0:
            verts = (verts[1], verts[0]) + verts[2:]
        tuples.append(verts)
    for eid in cand.stage1:
        mesh.remove_element(eid)
    created = tuple(mesh.add_element(t) for t in tuples)
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
                    include_point_inserting: bool = True,
                    max_flips: int | None = None) -> ImprovementReport:
    """Greedy quality improvement by bistellar flips.

    Repeatedly takes the worst alive element that is neither frozen nor a
    previous starter, enumerates flips in its star, and executes the
    geometrically valid one with the largest gain in the minimum quality
    over the affected group; only strict gains count.  Ties go to the
    smaller ``(kind, stage1)``, then to the candidate enumerated first.

    The gain comes first: a candidate is dropped as soon as one of its
    replacement elements is no better than the group's current minimum,
    the improving candidates are ranked by gain, and
    :func:`validate_flip` runs on them in that order only until one
    passes.  Elements produced by a flip are frozen; the loop ends when
    every element is frozen or has already served as starter.
    """
    fld = resolve_field(field)
    use_metric = fld.kind != "identity"

    def qual(eid):
        pts = mesh.element_points(eid)
        if use_metric:
            return quality_metric(pts, fld, which=heuristic)
        return pentatope_quality(pts, which=heuristic)

    def cand_quality(cand, tup):
        pts = _candidate_points(mesh, cand, tup)
        if use_metric:
            return quality_metric(pts, fld, which=heuristic)
        return pentatope_quality(pts, which=heuristic)

    quality_of: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for eid in mesh.alive_elements():
        q = qual(eid)
        quality_of[eid] = q
        heapq.heappush(heap, (q, eid))

    qualities_before = list(quality_of.values())
    hv_before_exact = mesh.total_hypervolume(exact=True)
    hv_before = float(hv_before_exact)
    n_before = mesh.n_alive

    frozen: set[int] = set()
    started: set[int] = set()
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

        ranked = []
        for cand in find_candidates(mesh, starter, include_point_inserting):
            if any(e in frozen for e in cand.stage1):
                continue
            before = min(quality_of[e] for e in cand.stage1)
            after = math.inf
            for tup in cand.stage2:
                after = min(after, cand_quality(cand, tup))
                if after <= before:
                    break
            else:
                ranked.append(((-(after - before), cand.kind, cand.stage1), cand))
        # stable: equal keys keep enumeration order, so the first seen wins
        ranked.sort(key=lambda item: item[0])
        cand = next((c for _, c in ranked if validate_flip(mesh, c)[0]), None)
        if cand is None:
            continue

        fr = apply_flip(mesh, cand)
        report.flips_by_kind[fr.kind] += 1
        report.flips.append(fr)
        for e in fr.removed_elements:
            quality_of.pop(e, None)
        for e in fr.new_elements:
            quality_of[e] = qual(e)
            frozen.add(e)
        if max_flips is not None and len(report.flips) >= max_flips:
            break

    qualities_after = [quality_of[e] for e in mesh.alive_elements()]
    hv_after_exact = mesh.total_hypervolume(exact=True)
    report.n_elements_after = mesh.n_alive
    report.amq_after = _amq_table(qualities_after)
    report.hypervolume_after = float(hv_after_exact)
    report.hv_conserved_exactly = (hv_after_exact == hv_before_exact)
    return report
