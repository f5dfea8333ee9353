"""The benchmark's workloads: inputs made from the seed, the timed calls, checks.

Each run works on a fixed set of inputs ("instances"); instance ``i`` of
seed ``s`` is generated from ``SeedSequence([s, i])`` alone, so a seed always
gives the same inputs. The program only ever sees the generated points (and,
for the improve workload, the mesh built from them during set-up).

Instance sizes are chosen so that one run of the benchmark calls most
instances twice: the time metrics are means over the instances of each
instance's median, which absorbs both machine noise and the per-input spread
of the work.
"""

from __future__ import annotations

import copy
import math
import time

import numpy as np
from pentamesh import flips, insertion
from pentamesh.geometry import MetricField
from pentamesh.pointsets import generate_hypercylinder_points
from pentamesh.quality import pentatope_quality
from pentamesh.studies import hypercylinder_exact_hypervolume

AMQ_CHECK_TOL = 1e-12
HULL_RTOL = 1e-9


def instance_seed(seed: int, index: int) -> int:
    """The integer seed of instance ``index`` in a run with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# scipy is imported where it is used, so that it is not loaded (and not part of
# the process's memory) before the first timed call has ended.

def _hull_volume(pts) -> float:
    from scipy.spatial import ConvexHull
    return ConvexHull(pts).volume


def _timed_qhull(pts):
    from scipy.spatial import Delaunay
    t0 = time.perf_counter()
    tri = Delaunay(pts)
    return tri, time.perf_counter() - t0


class Workload:
    """One workload; subclasses define set-up, the timed call and the checks."""

    name = ""

    def setup(self, iseed: int):
        """Build the input of one instance (timed as set-up)."""
        raise NotImplementedError

    def clone(self, inp):
        """An independent copy of an input, for a second pass over it."""
        return inp

    def ops(self, inp) -> int:
        """Operations one instance attempts."""
        raise NotImplementedError

    def call(self, inp):
        """Run the timed pentamesh calls: (output, {part: seconds})."""
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list[str], dict[str, float]]:
        """Output problems (empty when correct) and context figures."""
        raise NotImplementedError

    def hull_coverage(self, inp, out) -> float:
        """Output mesh hypervolume over the convex hull volume of the points."""
        raise NotImplementedError

    def signature(self, out):
        """What a traced pass must reproduce from the untraced pass."""
        mesh = out[0] if isinstance(out, tuple) else out
        return (mesh.n_alive, mesh.n_vertices)


class UniformIdentity(Workload):
    """Random points, identity metric: float-tier predicates, long walks, audit."""

    name = "uniform-identity"

    def __init__(self, n_points: int = 200) -> None:
        self.n_points = n_points

    def setup(self, iseed):
        return np.random.default_rng(iseed).random((self.n_points, 4))

    def ops(self, pts):
        return len(pts) + 1  # every inserted point, plus the audit call

    def call(self, pts):
        t0 = time.perf_counter()
        mesh = insertion.triangulate(pts)
        t1 = time.perf_counter()
        report = insertion.audit_delaunay(mesh)
        t2 = time.perf_counter()
        return (mesh, report), {"mesh_s": t1 - t0, "audit_s": t2 - t1}

    def check(self, pts, out):
        mesh, report = out
        problems = list(mesh.validate())
        if report.violations:
            problems.append(f"audit reports {len(report.violations)} violations")
        tri, qhull_s = _timed_qhull(pts)
        # vertices map to input indices by their coordinates
        index = {tuple(p): i for i, p in enumerate(pts.tolist())}
        to_input = {v: index.get(p) for v, p in enumerate(mesh.vertices)
                    if mesh.vertex_alive[v]}
        verts = list(to_input.values())
        if None in verts or sorted(verts) != list(range(len(pts))):
            problems.append("mesh vertices differ from the input points")
            return problems, {"qhull_s": qhull_s}
        # subset, not equality: the stripped mesh misses slivers at the hull
        qhull = {frozenset(s) for s in tri.simplices.tolist()}
        foreign = sum(frozenset(to_input[v] for v in mesh.elements[e]) not in qhull
                      for e in mesh.alive_elements())
        if foreign:
            problems.append(f"{foreign} pentatopes are not Delaunay simplices of qhull")
        return problems, {"qhull_s": qhull_s}

    def hull_coverage(self, pts, out):
        return out[0].total_hypervolume() / _hull_volume(pts)


class HypercylinderSpeed(Workload):
    """Cospherical samples, speed metric: exact tier, metric evaluation, visibility."""

    name = "hypercylinder-speed"

    R, L = 1.0, 4.0

    def __init__(self, level: int = 2) -> None:
        # level k of the convergence family samples at h = 1/1.5^(k-1)
        self.h = 1.0 / 1.5 ** (level - 1)

    def setup(self, iseed):
        pts = generate_hypercylinder_points(self.R, self.L, self.h, self.h, iseed)
        field = MetricField.speed(c0=1.0, beta=0.1, center=self.L / 2.0)
        return pts, field, iseed

    def ops(self, inp):
        return len(inp[0])

    def call(self, inp):
        pts, field, iseed = inp
        t0 = time.perf_counter()
        mesh = insertion.triangulate(pts, field, shuffle=True, seed=iseed,
                                     skip_duplicates=True)
        return mesh, {"mesh_s": time.perf_counter() - t0}

    def check(self, inp, mesh):
        pts = inp[0]
        problems = list(mesh.validate())
        hull = _hull_volume(pts)
        hv = mesh.total_hypervolume()
        if hv > hull * (1.0 + HULL_RTOL):
            problems.append(f"mesh hypervolume {hv!r} exceeds the hull volume {hull!r}")
        exact = hypercylinder_exact_hypervolume(self.R, self.L)
        _, qhull_s = _timed_qhull(pts)
        return problems, {"qhull_s": qhull_s, "hv_rel_error": abs(hv - exact) / exact}

    def hull_coverage(self, inp, mesh):
        return mesh.total_hypervolume() / _hull_volume(inp[0])


class ImproveIdentity(Workload):
    """Greedy flips on a random Delaunay mesh: flip layers and star queries only."""

    name = "improve-identity"

    def __init__(self, n_points: int = 50) -> None:
        self.n_points = n_points

    def setup(self, iseed):
        pts = np.random.default_rng(iseed).random((self.n_points, 4))
        return pts, insertion.triangulate(pts)

    def clone(self, inp):
        return inp[0], copy.deepcopy(inp[1])

    def ops(self, inp):
        return 1

    def call(self, inp):
        t0 = time.perf_counter()
        report = flips.improve_quality(inp[1], heuristic=1)
        return report, {"improve_s": time.perf_counter() - t0}

    def check(self, inp, report):
        pts, mesh = inp
        problems = list(mesh.validate())
        if not report.hv_conserved_exactly:
            problems.append("improvement changed the exact hypervolume")
        after = sorted(pentatope_quality(mesh.element_points(e), which=1)
                       for e in mesh.alive_elements())
        for frac, before in report.amq_before.items():
            if not math.isclose(report.amq_after[frac], flips.amq(after, frac),
                                rel_tol=AMQ_CHECK_TOL):
                problems.append(f"reported AMQ at {frac} is not that of the mesh")
            # Flips change the element count, and with it the number of
            # elements an AMQ averages; compare over the worst k of before.
            k = max(1, math.ceil(frac * report.n_elements_before))
            now = sum(after[:k]) / k
            if not now >= before - AMQ_CHECK_TOL:
                problems.append(f"mean quality of the worst {k} elements fell "
                                f"from {before!r} to {now!r}")
        _, qhull_s = _timed_qhull(pts)
        return problems, {"qhull_s": qhull_s, "flips": sum(report.flips_by_kind.values())}

    def hull_coverage(self, inp, report):
        return report.hypervolume_after / _hull_volume(inp[0])

    def signature(self, report):
        return sorted(report.flips_by_kind.items())


WORKLOADS = {w.name: w for w in (UniformIdentity(), HypercylinderSpeed(), ImproveIdentity())}
