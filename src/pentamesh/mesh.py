"""Mutable pentatope mesh with a neighbour table.

``Mesh4`` stores a vertex array (with super-vertex flags), an element
array of 5-tuples of vertex ids (dead elements become ``None``), a
neighbour table ``nbr`` and per-vertex element stars.  Row ``nbr[e]`` has
one slot per canonical facet of element ``e``
(:data:`~pentamesh.geometry.CANONICAL_FACETS`): the ``(element, local
facet)`` across that facet, or ``None`` on the mesh boundary; a dead
element's row is ``None``.  Every alive element is kept positively
oriented; each facet has at most two owners.

Elements change through one mutation step, ``_commit``, which kills
elements, appends new ones with their neighbour rows and re-points the
outside slots; every primitive below ends in it.  :meth:`Mesh4.replace`
swaps a set of elements for arbitrary new ones: it reads the outside
neighbours of the removed set's boundary facets from the table into a map
that covers only those facets, glues each new facet to that map, else to
another new element, and only as a fallback to an existing owner found
through the vertex stars (which :meth:`Mesh4.add_element` next to
existing elements needs).  :meth:`Mesh4.cone` is the retessellation of
point insertion, whose new elements are the cavity's boundary facets
joined to a fresh apex: each new element's facet opposite the apex takes
the outside neighbour straight from the table, and its other four facets
(apex plus a ridge of the boundary facet) pair up through one map keyed
by ridge, as in Boissonnat, Devillers & Hornus (SoCG 2009).
:meth:`Mesh4.remove_element` commits one killed element whose neighbours'
slots become ``None``.  No facet map of the whole mesh is kept, and
:meth:`Mesh4.compact` and :meth:`Mesh4.strip_super` renumber the table.  The
stars stay because the flip search asks for the elements around a vertex,
edge or triangle (:meth:`Mesh4.elements_with_vertices`), and the walk
starts from the star of the vertex nearest the point
(:meth:`Mesh4.nearest_vertex`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .geometry import (
    FACET_OPPOSITE,
    _grain,
    _hypervolumes_int,
    as_point4,
    hypervolume,
)

__all__ = [
    "CavityError",
    "DuplicateVertexError",
    "GhostPointError",
    "Mesh4",
    "MeshError",
]


class MeshError(Exception):
    """Base class for meshing failures."""


class GhostPointError(MeshError):
    """No element contains the point to be inserted."""


class DuplicateVertexError(MeshError):
    """The point to be inserted coincides with an existing vertex."""


class CavityError(MeshError):
    """Cavity repair violated an internal invariant."""


_OPEN = object()  # a facet no owner waits on, in Mesh4.replace
_PAIRED = object()  # a ridge whose two cone facets are glued, in Mesh4.cone
# slot of a cone element (*facet, apex) holding apex and a ridge, with the
# facet corner that ridge leaves out (FACET_OPPOSITE of the slot)
_CONE_SLOTS = tuple((li, FACET_OPPOSITE[li]) for li in range(1, 5))


def _facet_keys(verts) -> list[tuple[int, int, int, int]]:
    """Sorted vertex tuples of the five canonical facets of an element."""
    s0, s1, s2, s3, s4 = sorted(verts)
    drop = {s0: (s1, s2, s3, s4), s1: (s0, s2, s3, s4), s2: (s0, s1, s3, s4),
            s3: (s0, s1, s2, s4), s4: (s0, s1, s2, s3)}
    return [drop[verts[k]] for k in FACET_OPPOSITE]


class Mesh4:
    """Vertex + pentatope storage, the mutable object of insertion and flips."""

    def __init__(self) -> None:
        self.vertices: list[tuple[float, float, float, float]] = []
        self.is_super: list[bool] = []
        self.vertex_alive: list[bool] = []
        self.elements: list[tuple[int, int, int, int, int] | None] = []
        self.nbr: list[list[tuple[int, int] | None] | None] = []
        self.star: list[set[int]] = []
        self._coords = np.empty((16, 4))  # rows [0, len(vertices)) mirror vertices
        self.grain = 0  # every vertex coordinate is a multiple of 2**-grain
        self.n_alive = 0
        self.last_created: int | None = None
        # set by build_bounding_mesh; None for meshes without a super box
        self.bounding_lo: tuple[float, float, float, float] | None = None
        self.bounding_hi: tuple[float, float, float, float] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_arrays(cls, vertices, elements, super_flags=None) -> "Mesh4":
        mesh = cls()
        for i, p in enumerate(vertices):
            flag = bool(super_flags[i]) if super_flags is not None else False
            mesh.add_vertex(p, is_super=flag)
        mesh.replace((), elements)
        return mesh

    def add_vertex(self, p, is_super: bool = False) -> int:
        vid = len(self.vertices)
        self.vertices.append(as_point4(p))
        self.is_super.append(is_super)
        self.vertex_alive.append(True)
        self.star.append(set())
        if vid == len(self._coords):
            self._coords = np.concatenate([self._coords, np.empty_like(self._coords)])
        self._coords[vid] = self.vertices[vid]
        self.grain = max(self.grain, _grain(self.vertices[vid]))
        return vid

    def pop_vertex(self) -> None:
        """Remove the last vertex added and restore ``grain``; no element may reference it."""
        if self.star[-1]:
            raise MeshError(f"vertex {len(self.vertices) - 1} still referenced")
        for column in (self.vertices, self.is_super, self.vertex_alive, self.star):
            column.pop()
        self.grain = max(map(_grain, self.vertices), default=0)

    def add_element(self, verts: Sequence[int]) -> int:
        """Register a pentatope; the caller supplies a positively oriented tuple."""
        return self.replace((), (verts,))[0]

    def remove_element(self, eid: int) -> None:
        """Kill one element; its neighbours' slots across its facets become ``None``."""
        if self.elements[eid] is None:
            raise MeshError(f"element {eid} already removed")
        self._commit((eid,), (), (), [(*nb, None) for nb in self.nbr[eid] if nb is not None])

    def replace(self, old, tuples) -> list[int]:
        """Kill the elements ``old`` and append ``tuples``; returns the new ids.

        Each new tuple must be positively oriented.  Each new facet is glued
        to the outside neighbour across the same boundary facet of ``old``,
        else to another new element, else to an existing element owning it
        (found through the vertex stars), else left open.  Raises
        :class:`MeshError`, with the mesh unchanged, when a tuple lacks five
        distinct vertices, a facet would gain a third owner, or a boundary
        facet of ``old`` is left uncovered.  Stars are updated in the order
        of ``old`` and then of ``tuples``.
        """
        elements, nbr, star = self.elements, self.nbr, self.star
        old = list(old)
        gone = set(old)
        if len(gone) != len(old):
            raise MeshError(f"elements {old} to replace repeat")
        # facet key -> its one owner waiting for a partner: first the outside
        # neighbours across old's boundary (None for a facet on the mesh
        # boundary), then new elements
        half: dict[tuple[int, ...], tuple[int, int] | None] = {}
        for eid in old:
            verts = elements[eid]
            if verts is None:
                raise MeshError(f"element {eid} already removed")
            keys = None
            for li, nb in enumerate(nbr[eid]):
                if nb is None or nb[0] not in gone:
                    keys = keys or _facet_keys(verts)
                    half[keys[li]] = nb
        uncovered = len(half)

        base = len(elements)
        new = []
        rows = []  # neighbour rows of the new elements
        outside = []  # (element outside the new ones, its local facet, new partner)
        closed = set()  # facets that have two owners
        for eid, verts in enumerate(tuples, base):
            verts = tuple(map(int, verts))
            if len(set(verts)) != 5:
                raise MeshError(f"element needs 5 distinct vertices, got {verts}")
            new.append(verts)
            row = [None] * 5
            rows.append(row)
            for li, key in enumerate(_facet_keys(verts)):
                nb = half.pop(key, _OPEN)
                if nb is _OPEN:
                    if key in closed:
                        raise MeshError(f"facet {key} would gain a third owner")
                    half[key] = (eid, li)
                elif nb is None:
                    uncovered -= 1
                    half[key] = (eid, li)
                else:
                    row[li] = nb
                    closed.add(key)
                    if nb[0] >= base:
                        rows[nb[0] - base][nb[1]] = (eid, li)
                    else:
                        uncovered -= 1
                        outside.append((*nb, (eid, li)))
        if uncovered:
            key = next(k for k, nb in half.items() if nb is None or nb[0] < base)
            raise MeshError(f"boundary facet {key} of the replaced elements "
                            f"is not covered by a new element")
        if self.n_alive > len(old):
            # a facet of new elements only may still have an owner outside old
            for key, (eid, li) in half.items():
                owners = self.elements_with_vertices(key) - gone
                if not owners:
                    continue
                other = owners.pop()
                lo = _facet_keys(elements[other]).index(key)
                if owners or nbr[other][lo] is not None:
                    raise MeshError(f"facet {key} would gain a third owner")
                rows[eid - base][li] = (other, lo)
                outside.append((other, lo, (eid, li)))

        return self._commit(old, new, rows, outside)

    def cone(self, old, boundary, apex: int) -> list[int]:
        """Kill the elements ``old`` and join their boundary to ``apex``; returns the new ids.

        ``boundary`` lists each boundary facet of ``old`` as ``(facet, owner,
        li)``, as :func:`~pentamesh.insertion.cavity_boundary` gives it, with
        ``(*facet, apex)`` positively oriented; ``apex`` has no elements yet.
        New element k is ``(*facet_k, apex)``.  Its slot 0 is ``facet_k``
        and takes the outside neighbour ``nbr[owner][li]``; slots 1-4 each
        hold apex and one ridge of ``facet_k`` and are glued to the other
        cone facet through that ridge.  Since apex has no elements, no
        existing element can own those facets.  Raises :class:`MeshError`,
        with the mesh unchanged, when an element lacks five distinct
        vertices, a listed facet is not a boundary facet of ``old``, a ridge
        would join a third cone facet, or a ridge is left unpaired.  Stars
        are updated as in :meth:`replace`.
        """
        elements, nbr = self.elements, self.nbr
        old = list(old)
        gone = set(old)
        if self.star[apex]:
            raise MeshError(f"apex {apex} already has elements")
        for eid in old:
            if elements[eid] is None:
                raise MeshError(f"element {eid} already removed")
        base = len(elements)
        new = []
        rows = []
        outside = []
        half = {}  # ridge -> the cone slot waiting for its partner, or _PAIRED
        pairs = 0
        for eid, (facet, owner, li) in enumerate(boundary, base):
            verts = (*facet, apex)
            if len(set(verts)) != 5:
                raise MeshError(f"element needs 5 distinct vertices, got {verts}")
            if owner not in gone:
                raise MeshError(f"facet {facet} belongs to element {owner}, "
                                f"which is not replaced")
            nb = nbr[owner][li]
            if nb is not None and nb[0] in gone:
                raise MeshError(f"facet {facet} of element {owner} lies inside "
                                f"the replaced elements")
            new.append(verts)
            row = [nb, None, None, None, None]
            rows.append(row)
            if nb is not None:
                outside.append((*nb, (eid, 0)))
            s0, s1, s2, s3 = sorted(facet)
            drop = {s0: (s1, s2, s3), s1: (s0, s2, s3), s2: (s0, s1, s3), s3: (s0, s1, s2)}
            for slot, corner in _CONE_SLOTS:
                ridge = drop[facet[corner]]
                mate = half.get(ridge)
                if mate is None:
                    half[ridge] = (eid, slot)
                elif mate is _PAIRED:
                    raise MeshError(f"ridge {ridge} would join a third cone facet")
                else:
                    half[ridge] = _PAIRED
                    pairs += 1
                    row[slot] = mate
                    rows[mate[0] - base][mate[1]] = (eid, slot)
        if pairs != len(half):
            ridge = next(r for r, m in half.items() if m is not _PAIRED)
            raise MeshError(f"ridge {ridge} of the cone is left open")
        return self._commit(old, new, rows, outside)

    def _commit(self, old, new, rows, outside) -> list[int]:
        """Kill ``old``, append ``new`` with neighbour ``rows``, re-point ``outside`` slots.

        Stars lose ``old`` first and then gain the new elements in order;
        ``outside`` holds ``(element, local facet, new slot)`` triples.
        """
        elements, nbr, star = self.elements, self.nbr, self.star
        for eid in old:
            for v in elements[eid]:
                star[v].discard(eid)
            elements[eid] = None
            nbr[eid] = None
        base = len(elements)
        for eid, verts in enumerate(new, base):
            for v in verts:
                star[v].add(eid)
        elements += new
        nbr += rows
        for other, lo, slot in outside:
            nbr[other][lo] = slot
        self.n_alive += len(new) - len(old)
        if new:
            self.last_created = len(elements) - 1
        return list(range(base, len(elements)))

    def kill_vertex(self, vid: int) -> None:
        if self.star[vid]:
            raise MeshError(f"vertex {vid} still referenced by {sorted(self.star[vid])}")
        self.vertex_alive[vid] = False
        self._coords[vid] = np.inf  # out of reach of nearest_vertex

    # -- queries ------------------------------------------------------------

    def alive(self, eid: int) -> bool:
        return self.elements[eid] is not None

    def alive_elements(self) -> Iterator[int]:
        return (eid for eid, verts in enumerate(self.elements) if verts is not None)

    @property
    def n_vertices(self) -> int:
        return sum(self.vertex_alive)

    def element_points(self, eid: int):
        return tuple(self.vertices[v] for v in self.elements[eid])

    def nearest_vertex(self, p) -> int | None:
        """The alive vertex nearest p (Euclidean), or None if there is none."""
        n = len(self.vertices)
        if not n:
            return None
        d = self._coords[:n] - p
        vid = int(np.einsum("ij,ij->i", d, d).argmin())
        return vid if self.vertex_alive[vid] else None

    def elements_with_vertices(self, vids: Sequence[int]) -> set[int]:
        """Alive elements containing every vertex in ``vids``."""
        first, *rest = vids
        return self.star[first].intersection(*[self.star[v] for v in rest])

    def total_hypervolume(self, exact: bool = False):
        """Sum of signed element hypervolumes; a ``Fraction`` when ``exact``.

        The exact sum adds the integer volumes of
        :func:`~pentamesh.geometry._hypervolumes_int` and divides once.
        """
        if exact:
            tuples = [self.elements[eid] for eid in self.alive_elements()]
            dets, den = _hypervolumes_int({v: self.vertices[v] for verts in tuples
                                           for v in verts}, tuples)
            return Fraction(sum(dets), 24 * den ** 4)
        return float(sum(hypervolume(*self.element_points(eid))
                         for eid in self.alive_elements()))

    # -- maintenance --------------------------------------------------------

    def strip_super(self) -> "Mesh4":
        """:meth:`compact` less every element touching a super vertex; this mesh is unchanged."""
        return self._renumbered([eid for eid in self.alive_elements()
                                 if not any(self.is_super[v] for v in self.elements[eid])])

    def compact(self) -> "Mesh4":
        """A fresh mesh without dead vertices/elements (indices renumbered)."""
        return self._renumbered(list(self.alive_elements()))

    def _renumbered(self, kept) -> "Mesh4":
        """A fresh mesh of the alive elements ``kept`` (ascending ids) and the alive
        vertices, less the super vertices no kept element holds.

        The neighbour table is renumbered, not glued again: a local facet
        slot does not depend on vertex ids, so each kept row maps through the
        element renumbering, and a slot into an element not kept becomes ``None``.
        """
        renum = {old: new for new, old in enumerate(kept)}
        keep = [vid for vid, alive in enumerate(self.vertex_alive)
                if alive and (not self.is_super[vid] or any(e in renum for e in self.star[vid]))]
        remap = {old: new for new, old in enumerate(keep)}
        out = Mesh4()
        for old in keep:
            out.add_vertex(self.vertices[old], is_super=self.is_super[old])
        out._commit((), [tuple(remap[v] for v in self.elements[eid]) for eid in kept],
                    [[(renum[nb[0]], nb[1]) if nb is not None and nb[0] in renum else None
                      for nb in self.nbr[eid]] for eid in kept],
                    ())
        return out

    def validate(self) -> list[str]:
        """Invariant audit; returns a list of violation descriptions.

        Facet owners are counted once, from the element tuples, and every
        slot of the neighbour table is checked against them and against
        the slot it points to.  Orientation is the sign of the exact volume
        (:func:`~pentamesh.geometry._hypervolumes_int`), at any scale.
        """
        problems = []
        elements, nbr = self.elements, self.nbr
        keys_of = {eid: _facet_keys(elements[eid]) for eid in self.alive_elements()}
        owners = Counter(key for keys in keys_of.values() for key in keys)
        problems += [f"facet {key} has {n} owners" for key, n in owners.items() if n > 2]
        tuples = [elements[eid] for eid in keys_of]
        dets, _ = _hypervolumes_int({v: self.vertices[v] for verts in tuples for v in verts},
                                    tuples)
        for (eid, keys), det in zip(keys_of.items(), dets):
            if any(not self.vertex_alive[v] for v in elements[eid]):
                problems.append(f"element {eid} references a dead vertex")
            for li, nb in enumerate(nbr[eid]):
                if nb is None:
                    if owners[keys[li]] > 1:
                        problems.append(f"element {eid} facet {li} {keys[li]} has no "
                                        f"neighbour but another element owns it")
                    continue
                other, lo = nb
                if other == eid or other not in keys_of:
                    problem = "is a dead element or itself"
                elif keys_of[other][lo] != keys[li]:
                    problem = f"has other vertices {keys_of[other][lo]}"
                elif nbr[other][lo] != (eid, li):
                    problem = "does not point back"
                else:
                    continue
                problems.append(f"element {eid} facet {li} {keys[li]} has neighbour "
                                f"{other} facet {lo}, which {problem}")
            if det <= 0:
                problems.append(f"element {eid} is not positively oriented")
        return problems
