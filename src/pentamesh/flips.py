"""Bistellar flips on pentatope meshes and the greedy quality-improvement loop.

Seventeen flip kinds: the five basic moves (1-5, 2-4, 3-3, 4-2, 5-1) and
twelve extensions of lower-dimensional moves, including three 8-8
variants.  Each kind is published as a pair of connectivity stages over
abstract vertex labels (:func:`flip_table`); reverse kinds swap the
stages.  A flip is valid only if it conserves the exact hypervolume:
float volume sums may reject it, and integer volumes decide every
candidate they pass (Shewchuk's filter pattern, as in the predicates).

Every kind is one bistellar move joined with the rest of a link (Pachner
1991; Lickorish, "Simplicial moves on complexes and manifolds", 1999):
the star σ * ∂τ * K of a vertex, edge, triangle or facet σ becomes
τ * ∂σ * K, and a point-inserting kind cones the star's boundary to a
new vertex at the centroid of σ, which for 1-5 is the element itself.
So the candidate search reads no table: one rule recognises every
configuration in the star of each entity of the starter
(:func:`_entity_candidates`), and the tests check it against the tables.
The rule reads only the entity's vertex tuple and its star, walked in
sorted element order, so an entity gives the same candidates whichever
starter reaches it and whatever the iteration order of the mesh's star
sets.  Every candidate of an entity has that entity's star as stage 1, so
a star that meets a given frozen set is rejected before its link,
replacement tuples or inserted point are built.  Where two tables
describe one configuration the search uses one name (6-12a and 12-6a for
the b tables, 3-3 and 6-6 for their reverses), and it numbers the 8-8
reconnections of an edge star by their sorted new edge, so a kind tag
does not say which published 8-8 table a flip instantiates.

The search takes a gate that sees each star once and each configuration's
replacement tuples before its :class:`FlipCandidate` is built.  One
gatherer walks a starter's entities (:func:`_improving_candidates`):
:func:`find_candidates` calls it with a fresh memo and a gate that keeps
everything; the greedy driver (:func:`improve_quality`) with its memo of
each entity's gated candidates, the elements earlier flips created as the
frozen set, and a gate that drops a configuration at its first replacement
no better than the group's minimum.  One verdict decides validity
(:func:`_verdict`): :func:`validate_flip` and :func:`apply_flip` measure
its float volumes afresh, the driver reads the same ones from its memo of
each simplex's quality and volume in the mesh's power-of-two frame, and it
applies the best-ranked candidate that passes with that verdict's exact
volumes, so an applied flip is validated once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .geometry import FACET_OPPOSITE, _hypervolumes_int, resolve_field
from .mesh import Mesh4, MeshError
from .predicates import orientation4  # noqa: F401  perfbench/tracing.py wraps this name
from .quality import _eta_volume, _frame
from .quality import pentatope_quality  # noqa: F401  perfbench/tracing.py wraps this name

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

# The published catalog: connectivity tables over abstract labels
# 1..vertex_count, the labels of stage 1; a point-inserting kind's stage 2
# adds label vertex_count+1 for the new vertex, placed at the centroid of
# new_entity, the labels every stage-1 element shares.  _build_tables derives
# both fields.  The candidate search derives the same configurations from one
# join rule (_entity_candidates) and does not read these tables.
_BASE_TABLES = {
    "1_5": dict(
        stage1=((1, 2, 3, 4, 5),),
        stage2=((1, 2, 3, 4, 6), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6),
                (1, 2, 4, 5, 6), (1, 2, 3, 5, 6))),
    "2_4": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 3, 5, 6)),
        stage2=((1, 2, 3, 4, 6), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6))),
    "3_3": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5, 6)),
        stage2=((1, 2, 3, 4, 6), (2, 3, 4, 5, 6), (1, 2, 3, 5, 6))),
    "4_8": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6), (1, 2, 3, 4, 6)),
        stage2=((1, 3, 4, 5, 7), (1, 2, 3, 5, 7), (1, 4, 5, 6, 7), (1, 2, 5, 6, 7),
                (3, 4, 5, 6, 7), (2, 3, 5, 6, 7), (1, 3, 4, 6, 7), (1, 2, 3, 6, 7))),
    "3_9": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6)),
        stage2=((1, 2, 3, 4, 7), (1, 3, 4, 5, 7), (1, 2, 3, 5, 7),
                (1, 4, 5, 6, 7), (1, 2, 5, 6, 7), (1, 2, 4, 6, 7),
                (3, 4, 5, 6, 7), (2, 3, 5, 6, 7), (2, 3, 4, 6, 7))),
    "6_6": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5, 6),
                (2, 3, 4, 5, 7), (2, 4, 5, 6, 7), (3, 4, 5, 6, 7)),
        stage2=((1, 2, 3, 4, 7), (1, 2, 4, 6, 7), (1, 3, 4, 6, 7),
                (1, 2, 3, 5, 7), (1, 2, 5, 6, 7), (1, 3, 5, 6, 7))),
    "6_12a": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5, 6),
                (2, 3, 4, 5, 7), (2, 4, 5, 6, 7), (3, 4, 5, 6, 7)),
        stage2=((1, 2, 3, 4, 8), (2, 3, 4, 7, 8), (1, 2, 4, 6, 8), (2, 4, 6, 7, 8),
                (1, 3, 4, 6, 8), (3, 4, 6, 7, 8), (1, 2, 3, 5, 8), (2, 3, 5, 7, 8),
                (1, 2, 5, 6, 8), (2, 5, 6, 7, 8), (1, 3, 5, 6, 8), (3, 5, 6, 7, 8))),
    "2_8": dict(
        stage1=((1, 2, 3, 4, 5), (1, 2, 3, 5, 6)),
        stage2=((1, 2, 3, 4, 7), (2, 3, 4, 5, 7), (1, 3, 4, 5, 7), (1, 2, 4, 5, 7),
                (2, 3, 5, 6, 7), (1, 3, 5, 6, 7), (1, 2, 5, 6, 7), (1, 2, 3, 6, 7))),
    "4_6": dict(
        stage1=((1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (1, 2, 3, 4, 7), (2, 3, 4, 6, 7)),
        stage2=((1, 2, 3, 6, 7), (1, 3, 4, 6, 7), (1, 2, 4, 5, 6),
                (1, 3, 4, 5, 6), (1, 2, 3, 5, 6), (1, 2, 4, 6, 7))),
    "8_8v1": dict(
        stage1=((1, 2, 5, 6, 7), (2, 3, 5, 6, 7), (3, 4, 5, 6, 7), (1, 4, 5, 6, 7),
                (1, 2, 5, 6, 8), (2, 3, 5, 6, 8), (3, 4, 5, 6, 8), (1, 4, 5, 6, 8)),
        stage2=((1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 2, 4, 6, 7), (2, 3, 4, 6, 7),
                (1, 2, 4, 5, 8), (2, 3, 4, 5, 8), (1, 2, 4, 6, 8), (2, 3, 4, 6, 8))),
    "8_8v2": dict(
        stage1=((1, 2, 5, 6, 7), (2, 3, 5, 6, 7), (3, 4, 5, 6, 7), (1, 4, 5, 6, 7),
                (1, 2, 5, 6, 8), (2, 3, 5, 6, 8), (3, 4, 5, 6, 8), (1, 4, 5, 6, 8)),
        stage2=((1, 2, 3, 5, 7), (1, 3, 4, 5, 7), (1, 2, 3, 6, 7), (1, 3, 4, 6, 7),
                (1, 2, 3, 5, 8), (1, 3, 4, 5, 8), (1, 2, 3, 6, 8), (1, 3, 4, 6, 8))),
    "8_8v3": dict(
        stage1=((1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 2, 4, 6, 7), (2, 3, 4, 6, 7),
                (1, 2, 4, 5, 8), (2, 3, 4, 5, 8), (1, 2, 4, 6, 8), (2, 3, 4, 6, 8)),
        stage2=((1, 2, 3, 5, 7), (1, 3, 4, 5, 7), (1, 2, 3, 6, 7), (1, 3, 4, 6, 7),
                (1, 2, 3, 5, 8), (1, 3, 4, 5, 8), (1, 2, 3, 6, 8), (1, 3, 4, 6, 8))),
    "4_12": dict(
        stage1=((1, 2, 3, 4, 6), (1, 2, 3, 5, 6), (1, 2, 3, 4, 7), (1, 2, 3, 5, 7)),
        stage2=((2, 3, 4, 6, 8), (2, 3, 4, 7, 8), (1, 3, 4, 6, 8), (1, 3, 4, 7, 8),
                (1, 2, 4, 6, 8), (1, 2, 4, 7, 8), (2, 3, 5, 6, 8), (2, 3, 5, 7, 8),
                (1, 3, 5, 6, 8), (1, 3, 5, 7, 8), (1, 2, 5, 6, 8), (1, 2, 5, 7, 8))),
    "6_12b": dict(
        stage1=((1, 2, 4, 5, 6), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6),
                (1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 3, 4, 5, 7)),
        stage2=((1, 2, 5, 6, 8), (1, 2, 5, 7, 8), (1, 2, 4, 6, 8), (1, 2, 4, 7, 8),
                (2, 3, 5, 6, 8), (2, 3, 5, 7, 8), (2, 3, 4, 6, 8), (2, 3, 4, 7, 8),
                (1, 3, 5, 6, 8), (1, 3, 5, 7, 8), (1, 3, 4, 6, 8), (1, 3, 4, 7, 8))),
    "8_16": dict(
        stage1=((1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (1, 2, 4, 6, 7), (2, 3, 4, 6, 7),
                (1, 2, 4, 5, 8), (2, 3, 4, 5, 8), (1, 2, 4, 6, 8), (2, 3, 4, 6, 8)),
        stage2=((2, 3, 6, 7, 9), (1, 4, 5, 7, 9), (1, 2, 5, 7, 9), (3, 4, 5, 7, 9),
                (2, 3, 5, 7, 9), (1, 4, 6, 7, 9), (1, 2, 6, 7, 9), (3, 4, 6, 7, 9),
                (1, 4, 5, 8, 9), (1, 2, 5, 8, 9), (3, 4, 5, 8, 9), (2, 3, 5, 8, 9),
                (1, 4, 6, 8, 9), (1, 2, 6, 8, 9), (3, 4, 6, 8, 9), (2, 3, 6, 8, 9))),
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
        s1, s2 = spec["stage1"], spec["stage2"]
        labels = set().union(*s1)
        inserts = not labels.issuperset(set().union(*s2))
        shared = tuple(sorted(set.intersection(*map(set, s1)))) if inserts else None
        tables[kind] = FlipTable(kind, s1, s2, len(labels), shared,
                                 inserts_point=inserts, removes_point=False)
        rkind = _REVERSE_OF[kind]
        tables[rkind] = FlipTable(rkind, s2, s1, len(labels), shared,
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
# candidate detection
# ---------------------------------------------------------------------------

# (|σ|, star size, |τ|) -> the kind that turns the star σ * ∂τ * K of the
# entity σ into τ * ∂σ * K; |τ| = 0 cones ∂σ * link(σ) to a new vertex at the
# centroid of σ.  "8_8v" is numbered by the sorted new edge τ.
_KINDS = {
    (5, 1, 0): "1_5",
    (4, 2, 0): "2_8", (4, 2, 2): "2_4",
    (3, 3, 0): "3_9", (3, 3, 3): "3_3", (3, 4, 0): "4_12", (3, 4, 2): "4_6",
    (2, 4, 0): "4_8", (2, 4, 4): "4_2", (2, 6, 0): "6_12a", (2, 6, 2): "6_6",
    (2, 6, 3): "6_4", (2, 8, 0): "8_16", (2, 8, 2): "8_8v",
    (1, 5, 5): "5_1", (1, 8, 2): "8_4", (1, 8, 4): "8_2", (1, 9, 3): "9_3",
    (1, 12, 2): "12_6a", (1, 12, 3): "12_4", (1, 16, 2): "16_8",
}

# Star sizes an entity of each size can have, from the table above.
_STAR_SIZES = {n: {size for m, size, _ in _KINDS if m == n} for n in range(1, 6)}


def _entity_keys(verts) -> list[tuple[int, ...]]:
    """An element's sorted facets, triangles, edges and vertices, then the element as stored."""
    ordered = sorted(verts)
    return [key for k in (4, 3, 2, 1) for key in combinations(ordered, k)] + [tuple(verts)]


def find_candidates(mesh: Mesh4, starter: int, include_point_inserting: bool = True,
                    *, frozen: set[int] | frozenset[int] = frozenset()
                    ) -> list[FlipCandidate]:
    """All flip configurations in the starter's vertex star that contain it.

    Configurations are matched against the stars of the starter's facets,
    triangles, edges and vertices, in that order, and of the starter
    itself, by :func:`_entity_candidates`, and gathered as the driver
    gathers them (:func:`_improving_candidates`).  It reads only the
    entity's vertex tuple and its star, walked in sorted element order, so
    the candidates do not depend on the starter or on set iteration order.
    Every candidate of an entity has that entity's star as stage 1, and a
    star that meets ``frozen`` is never built, so the result is the
    unfiltered list, in the same order, less the candidates whose
    ``stage1`` meets ``frozen``.  Distinct entities of the starter have
    distinct stars, so no two candidates share kind, stage 1 and stage 2.
    An empty list is a perfectly normal outcome.  Geometric validity is
    *not* checked here; run :func:`validate_flip` on each candidate.
    """
    if not mesh.alive(starter):
        raise MeshError(f"starter element {starter} is not alive")
    return [cand for cand, _ in _improving_candidates(mesh, starter, {}, _accept_all,
                                                      include_point_inserting, frozen)]


def _accept_all(stage1):  # noqa: a gate takes stage1
    """:func:`find_candidates`' gate: every configuration passes, with gain 0."""
    return lambda stage2, new_point: 0.0


def _improving_candidates(mesh, starter, memo, gate, with_points, frozen):
    """The starter's gated ``(candidate, gain)`` pairs, each entity's from ``memo`` or built."""
    out = []
    for key in _entity_keys(mesh.elements[starter]):
        entries = memo.get(key)
        if entries is None:
            entries = memo[key] = _entity_candidates(mesh, key, with_points, frozen, gate)
        out += entries
    return out


def _entity_candidates(mesh, key, with_points, frozen, gate):
    """``(candidate, gain)`` for the flips in the star of one entity σ that pass ``gate``.

    σ is a vertex tuple.  ``gate(stage1)`` is called once per examined
    star and returns ``gain(stage2, new_point)``, the configuration's gain
    or None to drop it; a :class:`FlipCandidate` is built only for the
    configurations it keeps.  The result is a tuple, so that the many
    entities without any share the empty one.

    The link of σ is what its star's elements hold besides σ.  A
    point-inserting kind cones ∂σ * link(σ) to the centroid of σ: its
    stage 2 is ``f + k + (NEW_LABEL,)`` for each facet f of σ and link
    simplex k.  Every simplex τ with link(σ) = ∂τ * K (:func:`_splits`)
    gives the reconnection τ * ∂σ * K, stage 2 ``τ + f + k`` for k in K;
    when σ is a vertex it is removed.  An element's link is the empty
    simplex alone, so an element has 1-5 only.

    The link of an interior σ is a sphere, and a join ∂τ_1 * ... * ∂τ_m
    of simplex boundaries is one of its dimension when Σ(|τ_i| - 1) =
    5 - |σ|.  So the star sizes the kinds match are the products Π|τ_i|
    = Π(p_i + 1) over the partitions p of 5 - |σ| (``_STAR_SIZES``): 5, 8,
    9, 12 or 16 for a vertex, 4, 6 or 8 for an edge, 3 or 4 for a triangle,
    2 for a facet and 1 for an element.  A star of another size, or one that meets
    ``frozen``, gives no candidate without being examined, and so does a
    vertex, edge or triangle that a boundary facet of the mesh passes
    through, whose link is not closed.  Every candidate has the star as
    stage 1.
    """
    star = mesh.star[key[0]] if len(key) == 1 else mesh.elements_with_vertices(key)
    if len(star) not in _STAR_SIZES[len(key)] or not frozen.isdisjoint(star):
        return ()
    stage1 = tuple(sorted(star))
    elements, nbr = mesh.elements, mesh.nbr
    if len(key) <= 3 and any(elements[e][FACET_OPPOSITE[li]] not in key for e in stage1
                             if None in nbr[e] for li, nb in enumerate(nbr[e]) if nb is None):
        return ()
    link = [frozenset(elements[e]).difference(key) for e in stage1]
    facets = list(combinations(key, len(key) - 1))
    gain = gate(stage1)
    out = []
    kind = _KINDS.get((len(key), len(star), 0))
    if with_points and kind:
        verts = mesh.vertices
        centroid = tuple(sum(c) / len(key) for c in zip(*[verts[v] for v in sorted(key)]))
        ks = [tuple(sorted(k)) for k in link]
        stage2 = tuple(f + k + (NEW_LABEL,) for f in facets for k in ks)
        g = gain(stage2, centroid)
        if g is not None:
            out.append((FlipCandidate(kind, stage1, stage2, new_point=centroid), g))
    removed = key[0] if len(key) == 1 else None
    for n, (tau, rest) in enumerate(_splits(link), 1):
        kind = _KINDS.get((len(key), len(star), len(tau)))
        if not kind:
            continue
        stage2 = tuple(tau + f + k for f in facets for k in rest)
        g = gain(stage2, None)
        if g is not None:  # n numbers the 8-8 reconnections, their edge star's only splits
            out.append((FlipCandidate(kind + str(n) if kind == "8_8v" else kind, stage1,
                                      stage2, removed_vertex=removed), g))
    return tuple(out)


def _splits(link):
    """Every ``(τ, K)`` with link = ∂τ * K, sorted; τ and the simplices of K are sorted tuples.

    ``link`` is a list of vertex sets.  A simplex of ∂τ * K omits exactly
    one vertex of τ, so τ holds exactly one vertex x that ``link[0]``
    leaves out, and the link simplices without x are τ less x joined with
    each simplex of K, which in a closed link share no vertex.  So for each
    such x, τ less x is what all simplices lacking x share, and their
    residues are K.  It is accepted when there are len(link) / |τ| of them
    and each, with a vertex y of τ less x swapped for x, is a link simplex
    too: then the link holds the |τ| |K| distinct simplices (τ - y) ∪ k,
    and nothing else.
    """
    members = set(link)
    out = []
    for x in frozenset().union(*link) - link[0]:
        lacking = [s for s in link if x not in s]
        common = frozenset.intersection(*lacking)
        if len(lacking) * (len(common) + 1) == len(link) and all(
                s.difference((y,)).union((x,)) in members for s in lacking for y in common):
            out.append((tuple(sorted(common | {x})),
                        [tuple(sorted(s - common)) for s in lacking]))
    return sorted(out)


# ---------------------------------------------------------------------------
# validation and application
# ---------------------------------------------------------------------------

def _boundary_multiset(tuples):
    cnt = Counter(f for tup in tuples for f in combinations(sorted(tup), 4))
    return {f for f, c in cnt.items() if c == 1}, max(cnt.values(), default=0)


_VOL_RTOL = 1e-12  # relative hypervolume tolerance of the float pre-filter


def _points(mesh, tup, new_point):
    return [new_point if v == NEW_LABEL else mesh.vertices[v] for v in tup]


def validate_flip(mesh: Mesh4, cand: FlipCandidate):
    """Geometric validity of a candidate: (ok, reject_reason).

    The first check that fails, in this order, names the reason: a stage-1
    element is dead, a removed vertex is still in use, the boundary facet
    multiset changes, a replacement duplicates an element outside the
    group, float sums of unsigned volumes differ by more than the relative
    ``_VOL_RTOL``, and, exactly, a replacement is degenerate or the total
    unsigned hypervolume changes.  Validity is metric-free.
    """
    reason, _ = _verdict(mesh, cand)
    return not reason, reason


def _verdict(mesh, cand, measure=None):
    """:func:`validate_flip`'s reason, "" if none, and a valid candidate's exact stage-2 volumes.

    The float sums only reject; the integer volumes of
    :func:`~pentamesh.geometry._hypervolumes_int` decide what they pass, and
    their signs orient the replacements.  ``measure(tup, new_point)[1]`` is
    a float volume, by default :func:`~pentamesh.quality._eta_volume`'s in
    the frame of the mesh's vertices, which the driver's memo holds.
    """
    if any(not mesh.alive(e) for e in cand.stage1):
        return "dead element in stage 1", None
    gone = cand.removed_vertex
    if gone is not None and (not mesh.star[gone] <= set(cand.stage1)
                             or any(gone in tup for tup in cand.stage2)):
        return "removed vertex still in use", None
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
    if measure is None:
        frame = _frame(mesh.vertices)

        def measure(tup, new_point):
            return _eta_volume(_points(mesh, tup, new_point), frame=frame)

    vol1 = sum(measure(tup, None)[1] for tup in stage1)
    vol2 = sum(measure(tup, cand.new_point)[1] for tup in cand.stage2)
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

    The flip is validated (:func:`_verdict`), and the exact volume
    signs of that validation put each replacement pentatope in positive
    orientation (:func:`_apply`).
    """
    reason, dets = _verdict(mesh, cand)
    if reason:
        raise MeshError(f"flip {cand.kind} rejected: {reason}")
    return _apply(mesh, cand, dets)


def _apply(mesh, cand, dets):
    """Replace stage 1 by stage 2, each tuple oriented by the sign of its exact volume in ``dets``.

    Kinds that remove a vertex mark it dead once its star empties.  When
    :meth:`~pentamesh.mesh.Mesh4.replace` raises, the vertex a
    point-inserting kind added is removed again before the error propagates.
    """
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


def _float(x) -> float:
    """``float(x)`` of a rational, ±inf beyond the double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def improve_quality(mesh: Mesh4, heuristic: int = 1, field=None, *,
                    include_point_inserting: bool = True) -> ImprovementReport:
    """Greedy quality improvement by bistellar flips.

    Takes each initial element, worst first (ties by id), while it is
    alive, enumerates the flips in its star that touch no frozen element
    (those of :func:`find_candidates`, in its order), and executes the
    geometrically valid one with the largest gain in the minimum quality
    over the affected group; only strict gains count.  Ties go to the
    smaller ``(kind, stage1)``, then to the candidate enumerated first.

    The gain comes first: a configuration is dropped as soon as one of
    its replacement elements is no better than the group's current
    minimum, before its :class:`FlipCandidate` is built, and the improving
    candidates are validated best first only until one passes; the exact
    volume test keeps ``hv_conserved_exactly`` true.  Elements produced by
    a flip are frozen and never start; a flip only removes initial
    elements and creates frozen ones, so one pass over the initial
    elements, worst first, visits every starter.

    What depends only on coordinates is computed once per call, since
    coordinates never change within it.  Each distinct simplex, keyed by
    its sorted vertex ids and inserted point, is measured once by
    :func:`~pentamesh.quality._eta_volume` under ``field`` in the mesh's
    power-of-two frame (:func:`~pentamesh.quality._frame`), so no scale
    changes a flip; the gate, the created elements' qualities and the
    verdicts read that memo.
    Each entity's improving candidates are memoised too, as empty without
    examination when its star meets the frozen set.  A flip changes only
    the stars of the entities of the elements it removes or creates, so
    those entries are dropped after it, and a live entry equals a fresh
    build: each starter gets the candidates of :func:`find_candidates`, in
    order.  Ranked candidates get :func:`validate_flip`'s verdict
    (:func:`_verdict`), best first until one passes, and its exact volumes
    orient the replacements.  A float hypervolume beyond the double range
    is reported as ±inf; ``hv_conserved_exactly`` compares exact ones.
    """
    fld = resolve_field(field)
    frame = _frame(mesh.vertices)
    simplices: dict[tuple, tuple[float, float]] = {}

    def measured(tup, new_point):
        """``(quality, |hypervolume|)`` of a vertex tuple, NEW_LABEL at ``new_point``."""
        key = (tuple(sorted(tup)), new_point)
        m = simplices.get(key)
        if m is None:
            m = simplices[key] = _eta_volume(_points(mesh, tup, new_point), heuristic, fld,
                                             frame)
        return m

    quality_of = {eid: measured(mesh.elements[eid], None)[0] for eid in mesh.alive_elements()}
    qualities_before = list(quality_of.values())
    hv_before_exact = mesh.total_hypervolume(exact=True)
    hv_before = _float(hv_before_exact)
    n_before = mesh.n_alive

    def gate(stage1):
        before = min(quality_of[e] for e in stage1)

        def gain(stage2, new_point):
            """after - before when every replacement beats the group's minimum, else None."""
            after = math.inf
            for tup in stage2:
                after = min(after, measured(tup, new_point)[0])
                if after <= before:
                    return None
            return after - before

        return gain

    frozen: set[int] = set()
    memo: dict[tuple[int, ...], tuple[tuple[FlipCandidate, float], ...]] = {}
    report = ImprovementReport(
        heuristic=heuristic, flips_by_kind=Counter(),
        n_elements_before=n_before, n_elements_after=n_before,
        amq_before=_amq_table(qualities_before), amq_after={},
        hypervolume_before=hv_before, hypervolume_after=hv_before,
        hv_conserved_exactly=True)

    for _, starter in sorted((q, eid) for eid, q in quality_of.items()):
        if not mesh.alive(starter):
            continue
        report.starters += 1

        ranked = _improving_candidates(mesh, starter, memo, gate,
                                       include_point_inserting, frozen)
        # stable: equal keys keep enumeration order, so the first seen wins
        ranked.sort(key=lambda item: (-item[1], item[0].kind, item[0].stage1))
        for cand, _ in ranked:
            reason, dets = _verdict(mesh, cand, measured)
            if not reason:
                break
        else:
            continue

        stale = [mesh.elements[e] for e in cand.stage1]
        fr = _apply(mesh, cand, dets)
        report.flips_by_kind[fr.kind] += 1
        report.flips.append(fr)
        for e in fr.removed_elements:
            quality_of.pop(e, None)
        for tup, e in zip(cand.stage2, fr.new_elements):
            quality_of[e] = measured(tup, cand.new_point)[0]
            frozen.add(e)
            stale.append(mesh.elements[e])
        for verts in stale:
            for key in _entity_keys(verts):
                memo.pop(key, None)

    qualities_after = [quality_of[e] for e in mesh.alive_elements()]
    hv_after_exact = mesh.total_hypervolume(exact=True)
    report.n_elements_after = mesh.n_alive
    report.amq_after = _amq_table(qualities_after)
    report.hypervolume_after = _float(hv_after_exact)
    report.hv_conserved_exactly = (hv_after_exact == hv_before_exact)
    return report

