"""Mutable pentatope mesh with facet-keyed adjacency.

``Mesh4`` stores a vertex array (with super-vertex flags), an element
array of 5-tuples of vertex ids (dead elements become ``None``), an
adjacency map from unordered facet keys to the (element, local facet)
pairs that own them, and per-vertex element stars.  Every alive element
is kept positively oriented; each facet has at most two owners.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .geometry import (
    CANONICAL_FACETS,
    _hypervolume_int,
    _scale_to_ints,
    as_point4,
    canonical_facets,
    facet_key,
    hypervolume,
    hypervolume_exact,
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


class Mesh4:
    """Vertex + pentatope storage, the mutable object of insertion and flips."""

    def __init__(self) -> None:
        self.vertices: list[tuple[float, float, float, float]] = []
        self.is_super: list[bool] = []
        self.vertex_alive: list[bool] = []
        self.elements: list[tuple[int, int, int, int, int] | None] = []
        self.adjacency: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        self.star: list[set[int]] = []
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
        for elem in elements:
            mesh.add_element(tuple(int(v) for v in elem))
        return mesh

    def add_vertex(self, p, is_super: bool = False) -> int:
        self.vertices.append(as_point4(p))
        self.is_super.append(is_super)
        self.vertex_alive.append(True)
        self.star.append(set())
        return len(self.vertices) - 1

    def add_element(self, verts: Sequence[int]) -> int:
        """Register a pentatope; the caller supplies a positively oriented tuple."""
        verts = tuple(int(v) for v in verts)
        if len(set(verts)) != 5:
            raise MeshError(f"element needs 5 distinct vertices, got {verts}")
        eid = len(self.elements)
        self.elements.append(verts)
        for li, pat in enumerate(CANONICAL_FACETS):
            key = facet_key(tuple(verts[i] for i in pat))
            owners = self.adjacency.setdefault(key, [])
            if len(owners) >= 2:
                raise MeshError(f"facet {key} would gain a third owner")
            owners.append((eid, li))
        for v in verts:
            self.star[v].add(eid)
        self.n_alive += 1
        self.last_created = eid
        return eid

    def remove_element(self, eid: int) -> None:
        verts = self.elements[eid]
        if verts is None:
            raise MeshError(f"element {eid} already removed")
        for li, pat in enumerate(CANONICAL_FACETS):
            key = facet_key(tuple(verts[i] for i in pat))
            owners = self.adjacency.get(key, [])
            owners[:] = [o for o in owners if o[0] != eid]
            if not owners:
                self.adjacency.pop(key, None)
        for v in verts:
            self.star[v].discard(eid)
        self.elements[eid] = None
        self.n_alive -= 1

    def kill_vertex(self, vid: int) -> None:
        if self.star[vid]:
            raise MeshError(f"vertex {vid} still referenced by {sorted(self.star[vid])}")
        self.vertex_alive[vid] = False

    # -- queries ------------------------------------------------------------

    def alive(self, eid: int) -> bool:
        return self.elements[eid] is not None

    def alive_elements(self) -> Iterator[int]:
        return (eid for eid, verts in enumerate(self.elements) if verts is not None)

    @property
    def n_vertices(self) -> int:
        return sum(self.vertex_alive)

    def element_facets(self, eid: int) -> list[tuple[int, ...]]:
        return canonical_facets(self.elements[eid])

    def element_points(self, eid: int):
        return tuple(self.vertices[v] for v in self.elements[eid])

    def neighbor(self, eid: int, li: int) -> tuple[int, int] | None:
        """The (element, local facet) sharing facet ``li`` of ``eid``, if any."""
        verts = self.elements[eid]
        key = facet_key(tuple(verts[i] for i in CANONICAL_FACETS[li]))
        for owner in self.adjacency.get(key, ()):
            if owner[0] != eid:
                return owner
        return None

    def elements_with_vertices(self, vids: Sequence[int]) -> set[int]:
        """Alive elements containing every vertex in ``vids``."""
        it = iter(vids)
        result = set(self.star[next(it)])
        for v in it:
            result &= self.star[v]
            if not result:
                break
        return result

    def element_hypervolume(self, eid: int, exact: bool = False):
        pts = self.element_points(eid)
        return hypervolume_exact(*pts) if exact else hypervolume(*pts)

    def total_hypervolume(self, exact: bool = False):
        """Sum of signed element hypervolumes; a ``Fraction`` when ``exact``.

        The exact sum scales every vertex to integers over one common
        denominator ``den``, adds the integer determinants, and divides once.
        """
        if exact:
            tuples = [self.elements[eid] for eid in self.alive_elements()]
            used = {v for verts in tuples for v in verts}
            ints, den = _scale_to_ints([c for v in used for c in self.vertices[v]])
            pos = {v: ints[4 * k:4 * k + 4] for k, v in enumerate(used)}
            det_sum = sum(_hypervolume_int(*[pos[v] for v in verts]) for verts in tuples)
            return Fraction(det_sum, 24 * den ** 4)
        return float(sum(hypervolume(*self.element_points(eid))
                         for eid in self.alive_elements()))

    def vertex_array(self) -> np.ndarray:
        return np.array(self.vertices, dtype=float)

    def element_array(self) -> np.ndarray:
        return np.array([verts for verts in self.elements if verts is not None],
                        dtype=np.int64)

    # -- maintenance --------------------------------------------------------

    def strip_super(self) -> int:
        """Remove every element touching a super vertex; returns the count."""
        doomed = [eid for eid in self.alive_elements()
                  if any(self.is_super[v] for v in self.elements[eid])]
        for eid in doomed:
            self.remove_element(eid)
        for vid, flag in enumerate(self.is_super):
            if flag and not self.star[vid]:
                self.vertex_alive[vid] = False
        return len(doomed)

    def compact(self) -> "Mesh4":
        """A fresh mesh without dead vertices/elements (indices renumbered)."""
        keep = [vid for vid in range(len(self.vertices))
                if self.vertex_alive[vid] and (self.star[vid] or not self.is_super[vid])]
        remap = {old: new for new, old in enumerate(keep)}
        out = Mesh4()
        for old in keep:
            out.add_vertex(self.vertices[old], is_super=self.is_super[old])
        for eid in self.alive_elements():
            out.add_element(tuple(remap[v] for v in self.elements[eid]))
        return out

    def validate(self, check_orientation: bool = True) -> list[str]:
        """Invariant audit; returns a list of violation descriptions."""
        problems = []
        for key, owners in self.adjacency.items():
            if not 1 <= len(owners) <= 2:
                problems.append(f"facet {key} has {len(owners)} owners")
            for eid, li in owners:
                verts = self.elements[eid]
                if verts is None:
                    problems.append(f"facet {key} owned by dead element {eid}")
                    continue
                if facet_key(tuple(verts[i] for i in CANONICAL_FACETS[li])) != key:
                    problems.append(f"facet {key} inconsistent with element {eid}.{li}")
        for eid in self.alive_elements():
            verts = self.elements[eid]
            if any(not self.vertex_alive[v] for v in verts):
                problems.append(f"element {eid} references a dead vertex")
            for li, pat in enumerate(CANONICAL_FACETS):
                key = facet_key(tuple(verts[i] for i in pat))
                if (eid, li) not in self.adjacency.get(key, ()):
                    problems.append(f"element {eid} missing from facet {key}")
            if check_orientation and hypervolume(*self.element_points(eid)) <= 0.0:
                problems.append(f"element {eid} is not positively oriented")
        return problems
