"""Bounding super tesseract and its pentatope subdivisions.

Three subdivisions of the 4-cube are available, with 22, 23, and 24
pentatopes.  Each uses only the 16 tesseract corners, partitions the cube
exactly, and respects the empty-circumhypersphere condition against every
corner.  The 24-pentatope table is the Coxeter-Freudenthal-Kuhn
subdivision (all cells congruent, hypervolume 1/24 each); the 22- and
23-cell tables are less uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import hypervolume
from .mesh import Mesh4, MeshError

__all__ = [
    "SubdivisionTable",
    "TESSERACT_CORNERS",
    "build_bounding_mesh",
    "subdivision_table",
]

#: Reference corners of the unit tesseract in cyclic order: each (z, t)
#: block lists its xy square as (0,0), (1,0), (1,1), (0,1).  This is the
#: indexing used by the 22- and 23-pentatope tables.
TESSERACT_CORNERS = (
    (0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0),
    (0, 0, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0), (0, 1, 1, 0),
    (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1),
    (0, 0, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1), (0, 1, 1, 1),
)

#: Corner k+1 holds the binary digits of k: (x, y, z, t) = bits (0, 1, 2, 3).
#: This is the indexing under which the 24-pentatope table tiles the cube;
#: with the cyclic order above it does not (exact membership counting shows
#: overlaps and gaps), so each table carries the corner order it was built
#: with.
TESSERACT_CORNERS_BINARY = tuple(
    tuple((k >> b) & 1 for b in range(4)) for k in range(16)
)

# 1-based corner indices, column-major off the published tables.
_TABLE_24 = (
    (1, 2, 3, 5, 9), (4, 5, 6, 7, 9), (3, 4, 7, 9, 11), (5, 6, 7, 9, 13),
    (8, 9, 10, 11, 13), (7, 8, 11, 13, 15),
    (2, 3, 4, 5, 9), (4, 6, 7, 8, 9), (4, 7, 8, 9, 11), (6, 7, 8, 9, 13),
    (8, 10, 11, 12, 13), (8, 11, 12, 13, 15),
    (2, 4, 5, 6, 9), (2, 4, 6, 9, 10), (4, 8, 9, 10, 11), (6, 8, 9, 10, 13),
    (6, 8, 10, 13, 14), (8, 12, 13, 14, 15),
    (3, 4, 5, 7, 9), (4, 6, 8, 9, 10), (4, 8, 10, 11, 12), (7, 8, 9, 11, 13),
    (8, 10, 12, 13, 14), (8, 12, 14, 15, 16),
)

_TABLE_22 = (
    (1, 2, 4, 5, 13), (2, 4, 5, 7, 13), (2, 3, 7, 11, 13), (2, 3, 4, 11, 13),
    (4, 9, 11, 12, 13), (2, 6, 7, 13, 14),
    (1, 2, 4, 9, 13), (2, 4, 9, 11, 13), (4, 11, 13, 15, 16), (3, 4, 7, 11, 13),
    (4, 11, 12, 13, 16), (2, 9, 10, 11, 13),
    (2, 11, 13, 14, 15), (4, 7, 11, 13, 15), (2, 7, 13, 14, 15), (4, 5, 7, 8, 13),
    (2, 5, 6, 7, 13), (2, 10, 11, 13, 14),
    (2, 7, 11, 13, 15), (4, 7, 13, 15, 16), (2, 3, 4, 7, 13), (4, 7, 8, 13, 16),
)

_TABLE_23 = (
    (1, 3, 4, 6, 9), (3, 6, 7, 8, 13), (3, 10, 11, 13, 15), (1, 3, 6, 9, 10),
    (3, 9, 10, 11, 13), (8, 12, 13, 15, 16),
    (1, 6, 8, 9, 13), (3, 6, 7, 13, 15), (1, 2, 3, 6, 10), (3, 6, 9, 10, 13),
    (6, 10, 13, 14, 15), (1, 5, 6, 8, 13),
    (3, 7, 8, 13, 15), (3, 4, 6, 8, 9), (3, 8, 9, 11, 13), (8, 11, 12, 13, 15),
    (4, 8, 9, 11, 12), (3, 8, 11, 13, 15),
    (1, 4, 6, 8, 9), (3, 6, 8, 9, 13), (3, 6, 10, 13, 15), (3, 4, 8, 9, 11),
    (8, 9, 11, 12, 13),
)

_TABLES = {22: _TABLE_22, 23: _TABLE_23, 24: _TABLE_24}


@dataclass(frozen=True)
class SubdivisionTable:
    """One of the published index tables plus its matching corner order.

    ``tuples`` holds the verbatim 1-based indices; ``corners`` is the
    coordinate sequence those indices refer to (binary order for the
    24-cell table, cyclic order for 22 and 23).
    """

    n_b: int
    corners: tuple
    tuples: tuple


def subdivision_table(n_b: int) -> SubdivisionTable:
    """The published tesseract subdivision with ``n_b`` in {22, 23, 24}."""
    try:
        tuples = _TABLES[n_b]
    except KeyError:
        raise ValueError(f"no subdivision with N_b={n_b}; choose 22, 23 or 24") from None
    corners = TESSERACT_CORNERS_BINARY if n_b == 24 else TESSERACT_CORNERS
    return SubdivisionTable(n_b=n_b, corners=corners, tuples=tuples)


def build_bounding_mesh(points, n_b: int = 24, margin: float = 1.0) -> Mesh4:
    """Mesh the bounding tesseract of a point cloud with ``n_b`` pentatopes.

    The tesseract is the equal-sided cube centred on the points' bounding
    box, with side the box's largest extent plus twice ``margin`` times its
    diagonal (one absolute unit for a single point).  The 16 corners become
    super vertices; every element is normalized to positive orientation.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4 or pts.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, 4) array")
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    table = subdivision_table(n_b)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    extents = hi - lo
    diag = float(np.sqrt(sum(e * e for e in extents)))
    half = (max(extents) + 2.0 * margin * (diag if diag > 0.0 else 1.0)) / 2.0
    lo, hi = tuple((lo + hi) / 2.0 - half), tuple((lo + hi) / 2.0 + half)

    mesh = Mesh4()
    for corner in table.corners:
        p = tuple(lo[j] + corner[j] * (hi[j] - lo[j]) for j in range(4))
        mesh.add_vertex(p, is_super=True)
    cells = []
    for tup in table.tuples:
        verts = tuple(i - 1 for i in tup)
        pts5 = tuple(mesh.vertices[v] for v in verts)
        vol = hypervolume(*pts5)
        if vol == 0.0:
            raise MeshError(f"degenerate subdivision cell {tup}")
        if vol < 0.0:
            verts = (verts[1], verts[0]) + verts[2:]
        cells.append(verts)
    mesh.replace((), cells)
    mesh.bounding_lo = lo
    mesh.bounding_hi = hi
    return mesh
