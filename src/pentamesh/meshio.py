"""Mesh file formats and the 4D-to-3D projection used for plotting.

``p4m`` is a minimal text format::

    p4m 1
    vertices N
    x y z t          (N lines, shortest round-trippable decimals)
    pentatopes M
    i j k l m        (M lines, zero-based vertex indices)

Serialization and parsing round-trip vertices bit-exactly and
connectivity verbatim.  ``tet3`` is a one-way export of the five
tetrahedral facets of every pentatope with vertices projected to 3D
(time folded along the unit diagonal).
"""

from __future__ import annotations

import io
import math

from .geometry import canonical_facets
from .mesh import Mesh4

__all__ = [
    "MeshFormatError",
    "dumps_p4m",
    "dumps_tet3",
    "export_mesh",
    "load_p4m",
    "load_points",
    "loads_p4m",
    "project_to_3d",
    "save_p4m",
]

_INV_SQRT3 = 1.0 / math.sqrt(3.0)


class MeshFormatError(ValueError):
    """Malformed mesh file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def project_to_3d(v) -> tuple[float, float, float]:
    """Project a space-time point: (x, y, z) + t * (1, 1, 1)/sqrt(3)."""
    s = v[3] * _INV_SQRT3
    return (v[0] + s, v[1] + s, v[2] + s)


def dumps_p4m(mesh: Mesh4) -> str:
    """Serialize a mesh; dead vertices/elements are compacted away first."""
    if (not all(mesh.vertex_alive) or any(e is None for e in mesh.elements)):
        mesh = mesh.compact()
    out = io.StringIO()
    out.write("p4m 1\n")
    out.write(f"vertices {len(mesh.vertices)}\n")
    for p in mesh.vertices:
        out.write(f"{p[0]!r} {p[1]!r} {p[2]!r} {p[3]!r}\n")
    elems = [e for e in mesh.elements if e is not None]
    out.write(f"pentatopes {len(elems)}\n")
    for e in elems:
        out.write(" ".join(str(v) for v in e) + "\n")
    return out.getvalue()


def loads_p4m(text: str) -> Mesh4:
    """Parse the p4m format; raises MeshFormatError with a line number."""
    lines = text.splitlines()

    def need(idx):
        if idx >= len(lines):
            raise MeshFormatError(len(lines) + 1, "unexpected end of file")
        return lines[idx]

    if need(0).split() != ["p4m", "1"]:
        raise MeshFormatError(1, f"expected 'p4m 1', got {lines[0]!r}")
    head = need(1).split()
    if len(head) != 2 or head[0] != "vertices":
        raise MeshFormatError(2, f"expected 'vertices N', got {lines[1]!r}")
    n = _count(head[1], 2, "vertex")
    mesh = Mesh4()
    row = 2
    for i in range(n):
        parts = need(row + i).split()
        if len(parts) != 4:
            raise MeshFormatError(row + i + 1, "expected 4 coordinates")
        try:
            mesh.add_vertex(tuple(float(x) for x in parts))
        except ValueError as exc:
            raise MeshFormatError(row + i + 1, str(exc)) from None
    row += n
    head = need(row).split()
    if len(head) != 2 or head[0] != "pentatopes":
        raise MeshFormatError(row + 1, f"expected 'pentatopes M', got {lines[row]!r}")
    m = _count(head[1], row + 1, "pentatope")
    row += 1
    for i in range(m):
        parts = need(row + i).split()
        if len(parts) != 5:
            raise MeshFormatError(row + i + 1, "expected 5 vertex indices")
        try:
            verts = tuple(int(x) for x in parts)
        except ValueError:
            raise MeshFormatError(row + i + 1, f"bad index in {parts}") from None
        if any(not 0 <= v < n for v in verts):
            raise MeshFormatError(row + i + 1, f"vertex index out of range in {verts}")
        try:
            mesh.add_element(verts)
        except Exception as exc:
            raise MeshFormatError(row + i + 1, str(exc)) from None
    extra = next((k for k in range(row + m, len(lines)) if lines[k].strip()), None)
    if extra is not None:
        raise MeshFormatError(extra + 1, f"more than the {m} declared pentatopes")
    return mesh


def _count(word: str, line: int, what: str) -> int:
    """A non-negative count from a header; ``line`` is 1-based, for the error."""
    try:
        n = int(word)
    except ValueError:
        n = -1
    if n < 0:
        raise MeshFormatError(line, f"bad {what} count {word!r}")
    return n


def _read_text(path_or_file) -> str:
    """Text of an open file (anything with ``read``) or of a path, closed after."""
    if hasattr(path_or_file, "read"):
        return path_or_file.read()
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path_or_file, text: str) -> None:
    """Write text to an open file (anything with ``write``) or to a path."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_p4m(mesh: Mesh4, path_or_file) -> None:
    _write_text(path_or_file, dumps_p4m(mesh))


def load_p4m(path_or_file) -> Mesh4:
    return loads_p4m(_read_text(path_or_file))


def dumps_tet3(mesh: Mesh4) -> str:
    """Projected tetrahedral facets (five per pentatope), one-way export."""
    if (not all(mesh.vertex_alive) or any(e is None for e in mesh.elements)):
        mesh = mesh.compact()
    out = io.StringIO()
    out.write("tet3 1\n")
    out.write(f"vertices {len(mesh.vertices)}\n")
    for p in mesh.vertices:
        x, y, z = project_to_3d(p)
        out.write(f"{x!r} {y!r} {z!r}\n")
    elems = [e for e in mesh.elements if e is not None]
    out.write(f"tets {5 * len(elems)}\n")
    for e in elems:
        for facet in canonical_facets(e):
            out.write(" ".join(str(v) for v in facet) + "\n")
    return out.getvalue()


def export_mesh(mesh: Mesh4, path_or_file, fmt: str = "p4m") -> None:
    """Write a mesh as ``p4m`` (round-trippable) or ``tet3`` (projected)."""
    if fmt == "p4m":
        save_p4m(mesh, path_or_file)
    elif fmt == "tet3":
        _write_text(path_or_file, dumps_tet3(mesh))
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def load_points(path):
    """Point cloud from a p4m file (its vertices) or a 4-column csv/text file."""
    text = _read_text(path)
    if text.startswith("p4m"):
        return [tuple(p) for p in loads_p4m(text).vertices]
    pts = []
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 4:
            raise MeshFormatError(i + 1, f"expected 4 coordinates, got {len(parts)}")
        try:
            pts.append(tuple(float(x) for x in parts))
        except ValueError:
            raise MeshFormatError(i + 1, f"bad coordinate in {line!r}") from None
    if not pts:
        raise ValueError("no points found")
    return pts
