"""Incremental anisotropic Delaunay point insertion (4D Bowyer-Watson).

The kernel walks to a base element through facet neighbors, grows the
cavity of elements whose metric circumhyperspheres strictly contain the
new point, repairs the cavity until every boundary facet is visible from
the point, and retessellates the cavity boundary against the point.
The metric is evaluated once per insertion, at the inserted point.

Which side of a facet the point lies on decides the walk, the visibility
repair and the orientation of every new element: one certified sign from
the array bracket :func:`~pentamesh.predicates._orient4_core`, exact where
its filter fails, so no decision depends on the scale or offset of a cloud.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CANONICAL_FACETS,
    _facet_cofactors,
    as_point4,
    resolve_field,
)
from .mesh import (
    CavityError,
    DuplicateVertexError,
    GhostPointError,
    Mesh4,
    MeshError,
)
from .bounding import build_bounding_mesh
from .predicates import (
    _Lift,
    _insphere4_certified,
    _insphere4_core,
    _metric_info,
    _orient4_certified,
    _orient4_core,
    inhypersphere_m_d,  # noqa: F401  no caller here; perfbench/tracing.py wraps this name
    orientation4,
)

__all__ = [
    "AuditReport",
    "Cavity",
    "InsertionReport",
    "WalkStats",
    "audit_delaunay",
    "build_cavity",
    "enforce_visibility",
    "find_base_element",
    "inside_element",
    "insert_point",
    "triangulate",
]

DEFAULT_SNAP_RTOL = 1e-12   # duplicate-vertex snap, relative to the box diagonal
_Q_MIN = 1e-16              # least normalized visibility product of a kept facet
_FACET_CORNERS = np.array(CANONICAL_FACETS)


@dataclass(frozen=True)
class WalkStats:
    steps: int
    fallback_used: bool


@dataclass
class Cavity:
    """Facet-connected element set plus its enclosing boundary facets."""

    elements: set[int]
    boundary: list[tuple[tuple[int, int, int, int], int, int]]


@dataclass(frozen=True)
class InsertionReport:
    new_elements: tuple[int, ...]
    cavity_size: int


@dataclass
class AuditReport:
    """Outcome of the empty-circumhypersphere audit."""

    violations: list[tuple[int, int, float]]
    n_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# walking
# ---------------------------------------------------------------------------

def _element_facets(mesh: Mesh4, eids: list[int], p):
    """Corners, float determinants and certified flags of the facets of ``eids``.

    One orientation bracket against p; row 5 j + li is facet li of ``eids[j]``.
    """
    verts, elems = mesh.vertices, mesh.elements
    E = np.array([verts[v] for eid in eids for v in elems[eid]]).reshape(-1, 5, 4)
    F = E[:, _FACET_CORNERS].reshape(-1, 4, 4)
    det, mag = _orient4_core(F, p)
    return F, det.tolist(), _orient4_certified(F, p, det, mag).tolist()


def _exits(facets, j: int, p) -> list[int]:
    """Local facets of element j of ``facets`` with p strictly outside, closest first.

    An uncertified sign is decided here by the exact ``orientation4``: only
    the elements the walk visits pay for it.
    """
    F, det, certified = facets
    out = [r for r in range(5 * j, 5 * j + 5)
           if (det[r] if certified[r] else orientation4(*F[r], p, mode="exact").sign) < 0]
    return [r - 5 * j for r in sorted(out, key=lambda r: abs(det[r]))]


def inside_element(mesh: Mesh4, eid: int, p):
    """Containment test via the five certified facet orientations.

    Returns ``(True, None)`` when no facet has p strictly outside (points
    exactly on shared facets count as inside, which avoids ghost points),
    otherwise ``(False, exit)`` where ``exit`` is the local facet with p
    strictly outside whose determinant has the least magnitude.
    """
    exits = _exits(_element_facets(mesh, [eid], p), 0, p)
    return (False, exits[0]) if exits else (True, None)


def find_base_element(mesh: Mesh4, p, start: int | None = None):
    """Walk from ``start`` to an element containing p.

    Without an alive ``start`` the walk starts next to p, at the least
    element id in the star of the alive vertex nearest p (the
    jump-and-walk of Mücke, Saias & Zhu, SoCG 1996), so a copied mesh
    walks the same path; when that vertex has no elements it starts from
    the last element created, else from any alive element.  Each step leaves
    through a facet with p strictly outside, closest first; one bracket
    covers the current element and the neighbours it may step into, so it
    serves up to two steps.  A visited set keeps the
    path from cycling; if the walk exceeds the number of alive elements (or
    dead-ends), an exhaustive scan takes over.  Raises
    :class:`GhostPointError` when no element contains p.
    """
    if start is None or not mesh.alive(start):
        near = mesh.nearest_vertex(p)
        start = min(mesh.star[near], default=None) if near is not None else None
        if start is None:
            start = mesh.last_created
        if start is None or not mesh.alive(start):
            start = next(mesh.alive_elements(), None)
            if start is None:
                raise GhostPointError("mesh has no alive elements")
    nbr = mesh.nbr
    current, visited, steps, index = start, {start}, 0, {}
    while steps <= mesh.n_alive:
        if current not in index:
            ahead = [current] + [nb[0] for nb in nbr[current]
                                 if nb is not None and nb[0] not in visited]
            facets, index = _element_facets(mesh, ahead, p), {e: j for j, e in enumerate(ahead)}
        exits = _exits(facets, index[current], p)
        if not exits:
            return current, WalkStats(steps, False)
        current = next((nb[0] for nb in (nbr[current][li] for li in exits)
                        if nb is not None and nb[0] not in visited), None)
        if current is None:
            break
        visited.add(current)
        steps += 1
    for eid in mesh.alive_elements():
        if inside_element(mesh, eid, p)[0]:
            return eid, WalkStats(steps, True)
    raise GhostPointError(
        f"no element contains point {p!r}: walk from element {start} "
        f"{mesh.elements[start]} took {steps} steps, full scan of {mesh.n_alive} elements")


# ---------------------------------------------------------------------------
# cavity
# ---------------------------------------------------------------------------

def cavity_boundary(mesh: Mesh4, elements: set[int]):
    """Boundary facets of an element set, each carried once by its owner."""
    boundary = []
    elems, nbr = mesh.elements, mesh.nbr
    for eid in elements:
        verts = elems[eid]
        for li, nb in enumerate(nbr[eid]):
            if nb is None or nb[0] not in elements:
                i0, i1, i2, i3 = CANONICAL_FACETS[li]
                boundary.append(((verts[i0], verts[i1], verts[i2], verts[i3]), eid, li))
    return boundary


def _in_sphere_rows(mesh: Mesh4, eids: list[int], p, mrows, mdiag, lift):
    """Strict in-sphere membership of p for each listed element, in one bracket.

    Rows whose float bracket the filter certifies are decided by its
    sign; the others by ``lift``, the integer lift of p at the mesh's grain
    (:class:`~pentamesh.predicates._Lift`), made at the first such row.
    Returns the membership list, the float bracket values and the lift.
    """
    elems, verts = mesh.elements, mesh.vertices
    corners = chain.from_iterable(verts[v] for eid in eids for v in elems[eid])
    P = np.fromiter(corners, float, 20 * len(eids)).reshape(-1, 5, 4)
    total, mag = _insphere4_core(P, p, mrows, mdiag)
    certified = _insphere4_certified(P, p, total, mag, mrows, mdiag)
    inside = (total > 0.0).tolist()
    for k in np.flatnonzero(~certified).tolist():
        if lift is None:
            lift = _Lift(verts, p, mesh.grain, mrows, mdiag)
        inside[k] = lift.insphere(elems[eids[k]]) > 0
    return inside, total, lift


def build_cavity(mesh: Mesh4, base: int, p, metric) -> Cavity:
    """Breadth-first growth of the strictly-in-sphere element set.

    The metric tensor is the one evaluated at the inserted point; the base
    element joins unconditionally, every other element joins exactly when
    its metric circumhypersphere strictly contains p.  Membership depends
    only on each element's own predicate, and the elements tested are the
    neighbors of members, so the cavity is the same set in any visiting
    order: each BFS layer is tested with one array-shaped bracket.  That
    bracket performs the scalar expansion's IEEE operations in the same
    order, so its certified signs and its escalations to the exact tier
    are those of :func:`~pentamesh.predicates.inhypersphere_m_d`; the
    escalated rows of all layers share one integer lift of p.
    """
    p = as_point4(p)
    mrows, mdiag, _ = _metric_info(metric, 4)
    lift = None
    nbr = mesh.nbr
    elements = {base}
    seen = {base}
    layer = [base]
    inside = [True]
    while layer:
        front = []
        for eid, ok in zip(layer, inside):
            if not ok:
                continue
            elements.add(eid)
            for nb in nbr[eid]:
                if nb is not None and nb[0] not in seen:
                    seen.add(nb[0])
                    front.append(nb[0])
        layer = front
        if layer:
            inside, _, lift = _in_sphere_rows(mesh, layer, p, mrows, mdiag, lift)
    return Cavity(elements, cavity_boundary(mesh, elements))


def _visible(mesh: Mesh4, facets, p, metric):
    """Which facets ``(facet, owner, li)`` see p, as a boolean array.

    A facet sees p when the certified sign of det(a-p, b-p, c-p, d-p) is
    positive, so that facet + p is positively oriented, and when the
    normalized product Q = N^T M CP of the inward metric-space normal
    N = M^{-1} N_e and the centroid C exceeds ``_Q_MIN``, a guard against
    slivers.  M enters only through positive normalizers, so
    Q = det / sqrt((N_e^T M^{-1} N_e) (CP^T M CP)).
    """
    verts = mesh.vertices
    corners = chain.from_iterable(verts[v] for facet, _, _ in facets for v in facet)
    F = np.fromiter(corners, float, 16 * len(facets)).reshape(-1, 4, 4)
    det, mag = _orient4_core(F, p)
    positive = det > 0.0
    for k in np.flatnonzero(~_orient4_certified(F, p, det, mag)).tolist():
        positive[k] = orientation4(*F[k], p, mode="exact").sign > 0
    C = F.transpose(1, 2, 0)  # corner, coordinate, facet
    ne = _facet_cofactors(*C)
    cp = np.asarray(p)[:, None] - (C[0] + C[1] + C[2] + C[3]) / 4.0
    if metric is None:
        nn = ne[0] * ne[0] + ne[1] * ne[1] + ne[2] * ne[2] + ne[3] * ne[3]
        cc = cp[0] * cp[0] + cp[1] * cp[1] + cp[2] * cp[2] + cp[3] * cp[3]
    else:
        inv = metric.inv_rows
        nn = sum(ne[i] * (inv[i][0] * ne[0] + inv[i][1] * ne[1]
                          + inv[i][2] * ne[2] + inv[i][3] * ne[3]) for i in range(4))
        cc = metric.quad(cp)
    return positive & (det > _Q_MIN * np.sqrt(nn * cc))


def enforce_visibility(mesh: Mesh4, cavity: Cavity, p, metric,
                       base: int | None = None) -> Cavity:
    """Shrink the cavity until p is visible from every boundary facet.

    Owners of facets that do not see p (:func:`_visible`) leave the cavity,
    in rounds of one bracket each: the whole boundary, then the facets each
    round's removals exposed.  Visibility is a property of the facet alone
    and removals only expose facets, so the set removed does not depend on
    the order, and every facet left has been tested.  Removing the base (or
    every element) means the kernel is inconsistent: :class:`CavityError`.
    """
    elements, nbr = cavity.elements, mesh.nbr
    size = len(elements)
    front = cavity.boundary
    changed = False
    while front:
        visible = _visible(mesh, front, p, metric).tolist()
        doomed = {owner for (_, owner, _), ok in zip(front, visible) if not ok}
        if not doomed:
            break
        if base in doomed or doomed >= elements:
            base_verts = mesh.elements[base] if base is not None else None
            raise CavityError(
                f"visibility repair would remove {'the base' if base in doomed else 'every'} "
                f"element while {_failure_context(p, base, base_verts, size)}")
        elements -= doomed
        changed = True
        front = [(tuple(mesh.elements[e][i] for i in CANONICAL_FACETS[li]), e, li)
                 for owner in doomed for e, li in filter(None, nbr[owner]) if e in elements]
    if changed:
        cavity.boundary = cavity_boundary(mesh, elements)
    return cavity


# ---------------------------------------------------------------------------
# insertion
# ---------------------------------------------------------------------------

def _failure_context(p, base, base_verts, cavity_size: int) -> str:
    """What reproduces a failed insertion: the exact point, base element, cavity size."""
    return (f"inserting {p!r} from base element {base} {base_verts} "
            f"with a cavity of {cavity_size} elements")


def insert_point(mesh: Mesh4, p, field=None) -> InsertionReport:
    """Insert one point: locate, carve the cavity, repair, reconnect.

    Every facet left by the repair sees p, so each new element is the facet
    followed by p, glued by :meth:`~pentamesh.mesh.Mesh4.cone`.  Raises
    :class:`GhostPointError` if p lies outside the bounding tesseract (or
    no element contains it), :class:`DuplicateVertexError` if p is within
    ``DEFAULT_SNAP_RTOL`` of the box diagonal of a vertex and
    :class:`CavityError` if repair or reconnection fails; the mesh, its
    ``grain`` included, is then unchanged and the error names the exact
    point, the base element and the cavity size.
    """
    p = as_point4(p)
    fld = resolve_field(field)
    if mesh.bounding_lo is not None:
        lo, hi = mesh.bounding_lo, mesh.bounding_hi
        if not all(lo[j] < p[j] < hi[j] for j in range(4)):
            raise GhostPointError(f"point {p!r} is outside the bounding tesseract")

    base, _ = find_base_element(mesh, p)
    base_verts = mesh.elements[base]
    metric = None if fld.kind == "identity" else fld(p)
    cavity = build_cavity(mesh, base, p, metric)

    if mesh.bounding_lo is not None:
        diag = math.sqrt(sum((hi[j] - lo[j]) ** 2 for j in range(4)))
    else:
        diag = 1.0
    snap2 = (DEFAULT_SNAP_RTOL * diag) ** 2
    corners = chain.from_iterable(mesh.elements[eid] for eid in cavity.elements)
    for v in dict.fromkeys(corners):  # each vertex once, in first-seen order
        q = mesh.vertices[v]
        d2 = sum((p[j] - q[j]) ** 2 for j in range(4))
        if d2 <= snap2:
            raise DuplicateVertexError(
                f"point duplicates vertex {v} {q!r}; "
                + _failure_context(p, base, base_verts, len(cavity.elements)))

    enforce_visibility(mesh, cavity, p, metric, base=base)

    new_vid = mesh.add_vertex(p)
    try:
        created = mesh.cone(cavity.elements, cavity.boundary, new_vid)
    except MeshError as err:
        mesh.pop_vertex()
        raise CavityError(f"reconnection failed ({err}) while "
                          + _failure_context(p, base, base_verts, len(cavity.elements))) from err
    return InsertionReport(tuple(created), len(cavity.elements))


def triangulate(points, field=None, *, n_b: int = 24, margin: float = 1.0,
                strip_super: bool = True, shuffle: bool = False, seed: int = 0,
                skip_duplicates: bool = False) -> Mesh4:
    """Mesh a point cloud by incremental insertion into a bounding tesseract.

    With ``strip_super`` the 16 bounding vertices and every element that
    touches them are removed afterwards and the mesh is compacted, leaving
    the elements whose five vertices are all input points.  That mesh lies
    inside the convex hull of the inputs but does not tile all of it: hull
    regions whose elements reach a bounding vertex are lost with them.  For
    200 uniform points at ``margin=1`` it covers 98.4-99.2% of the hull
    volume; larger margins lose less.
    """
    pts = np.asarray(points, dtype=float)
    fld = resolve_field(field)
    mesh = build_bounding_mesh(pts, n_b=n_b, margin=margin)
    order = np.arange(len(pts))
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(pts))
    for idx in order:
        try:
            insert_point(mesh, pts[idx], fld)
        except DuplicateVertexError:
            if not skip_duplicates:
                raise
    if strip_super:
        mesh.strip_super()
        mesh = mesh.compact()
    return mesh


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

_AUDIT_BAND = 1e-7  # relative width of the float band escalated to exact


def _audit_pairs_exact(mesh, pairs, metric, violations):
    """Append the ``(vertex, element)`` pairs whose in-sphere sign is positive.

    Each vertex's pairs form one bracket against it, and its uncertified
    rows share one integer lift (:func:`_in_sphere_rows`), so every sign
    and value equals :func:`~pentamesh.predicates.inhypersphere_m_d`'s.
    A pair is decided by its sign alone; violations keep the pair order.
    """
    mrows, mdiag, pref = _metric_info(metric, 4)
    rows_of: dict[int, list[int]] = {}
    for k, (vid, _) in enumerate(pairs):
        rows_of.setdefault(vid, []).append(k)
    found = []
    for vid, ks in rows_of.items():
        eids = [pairs[k][1] for k in ks]
        inside, total, _ = _in_sphere_rows(mesh, eids, mesh.vertices[vid], mrows, mdiag, None)
        found += [(k, (vid, eid, pref * t))
                  for k, eid, hit, t in zip(ks, eids, inside, total.tolist()) if hit]
    violations += [v for _, v in sorted(found)]


def _circumspheres(P):
    """Circumcentres and squared radii of the simplices of a ``(m, 5, 4)`` array.

    Rows whose linear system is singular come back as NaN.
    """
    A = 2.0 * (P[:, 1:, :] - P[:, :1, :])
    rhs = (P[:, 1:, :] ** 2).sum(axis=2) - (P[:, :1, :] ** 2).sum(axis=2)
    try:
        centers = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        centers = np.full((len(P), 4), np.nan)
        for k in range(len(P)):
            try:
                centers[k] = np.linalg.solve(A[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
    return centers, ((P[:, 0, :] - centers) ** 2).sum(axis=1)


def _suspect_pairs(centers, r2, W, vids, elems):
    """(vertex, element) pairs that the float circumsphere test cannot clear.

    ``W`` holds the scaled positions of the vertices ``vids``; a pair is
    suspect when the vertex lies inside, within the relative band of, or at
    a non-finite distance from the element's circumsphere.
    """
    d2 = ((W[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)
    margin = r2[:, None] - d2
    band = _AUDIT_BAND * (r2[:, None] + d2) + 1e-300
    hit = (margin > band) | (np.abs(margin) <= band) | ~np.isfinite(margin)
    return [(vids[j], elems[k][0]) for k, j in zip(*np.nonzero(hit))
            if vids[j] not in elems[k][1]]


def audit_delaunay(mesh: Mesh4, field=None) -> AuditReport:
    """Empty-circumhypersphere audit of a mesh under a metric field.

    For every alive vertex v and alive element E not containing v, the
    metric in-hypersphere test (metric evaluated at v) must not report v
    strictly inside.  Ties (exactly cospherical) pass.  Vertices sharing a
    metric form a group: one for a constant field, one per distinct metric
    for a varying one.  Per group, circumcentres are solved in metric-scaled
    space, and the pairs the float test cannot clear are decided by the
    signs of the metric in-sphere predicate under that metric: one array
    bracket per vertex, whose uncertified rows share one integer lift of
    the vertex.  Violations are listed element-major within a group.
    """
    fld = resolve_field(field)
    elems = [(eid, mesh.elements[eid]) for eid in mesh.alive_elements()]
    verts_alive = [vid for vid in range(len(mesh.vertices)) if mesh.vertex_alive[vid]]
    violations: list[tuple[int, int, float]] = []
    if not elems or not verts_alive:
        return AuditReport(violations, 0)
    groups: dict = {}  # metric entries -> (metric, its vertices)
    for vid in verts_alive:
        metric = None if fld.kind == "identity" else fld(mesh.vertices[vid])
        key = None if metric is None else metric.m.tobytes()
        groups.setdefault(key, (metric, []))[1].append(vid)
    V = np.array(mesh.vertices, dtype=float)
    E = np.array([verts for _, verts in elems], dtype=np.int64)
    for metric, vids in groups.values():
        # rows mapped by the Cholesky factor G of the metric, G^T G = M
        W = V if metric is None else V @ np.linalg.cholesky(metric.m)
        centers, r2 = _circumspheres(W[E])
        Wv = W[np.array(vids)]
        pending: list[tuple[int, int]] = []
        chunk = 2048
        for k0 in range(0, len(elems), chunk):
            k1 = k0 + chunk
            pending += _suspect_pairs(centers[k0:k1], r2[k0:k1], Wv, vids, elems[k0:k1])
        _audit_pairs_exact(mesh, pending, metric, violations)
    return AuditReport(violations, len(elems) * len(verts_alive))
