"""Outside-in span tracing of pentamesh for the benchmark's traced runs.

The tracer replaces public names that ``pentamesh.insertion`` and
``pentamesh.flips`` look up at call time, plus methods of ``Mesh4``, with
wrappers that record one span per call: name, start, end and parent. The
spans stay in memory (four flat integer arrays); self time is a span's
duration minus the durations of its child spans. Counters are taken at the
same boundaries from each call's arguments and result.

``Mesh4.neighbor`` and the private helpers stay unwrapped, so their cost
lands in the self time of whichever wrapped function called them.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from pentamesh import flips, insertion
from pentamesh.mesh import Mesh4

_MESH_METHODS = ("add_element", "remove_element", "elements_with_vertices",
                 "total_hypervolume", "strip_super", "compact")

_REJECT_SLUGS = {
    "dead element in stage 1": "dead_element",
    "boundary facets not preserved": "boundary",
    "replacement duplicates an existing element": "duplicate",
    "degenerate replacement element": "degenerate",
    "hypervolume not conserved": "volume",
}

# parent span of an in-sphere call -> call site reported in the split
_INSPHERE_SITES = {"insertion.build_cavity": "cavity",
                   "insertion.audit_delaunay": "audit"}

_SELF_SPANS = (
    "insertion.triangulate", "insertion.insert_point",
    "insertion.find_base_element", "insertion.build_cavity",
    "insertion.cavity_boundary", "insertion.enforce_visibility",
    "insertion.audit_delaunay", "predicates.orientation4",
    "bounding.build_bounding_mesh", "flips.improve_quality",
    "flips.find_candidates", "flips.validate_flip", "flips.apply_flip",
    "quality.pentatope_quality",
) + tuple(f"mesh.Mesh4.{m}" for m in _MESH_METHODS)

_CALL_SPANS = ("insertion.insert_point", "predicates.orientation4",
               "flips.validate_flip", "flips.apply_flip",
               "quality.pentatope_quality") + tuple(f"mesh.Mesh4.{m}" for m in _MESH_METHODS)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{name}.self_s": "s" for name in _SELF_SPANS}
    units.update({f"{name}.calls": "count" for name in _CALL_SPANS})
    units.update({
        "insertion.insert_point.p50_ms": "ms",
        "insertion.insert_point.p98_ms": "ms",
        "insertion.walk.steps_per_point": "count",
        "insertion.walk.fallbacks": "count",
        "insertion.cavity.size_mean": "count",
        "insertion.cavity.size_p98": "count",
        "insertion.visibility.removed": "count",
        "insertion.audit.pairs_escalated": "count",
        "predicates.orientation4.calls_float": "count",
        "predicates.orientation4.calls_extended": "count",
        "predicates.orientation4.calls_exact": "count",
        "flips.improve_quality.starters": "count",
        "flips.improve_quality.amq1_final": "eta1",
        "flips.improve_quality.amq5_final": "eta1",
        "flips.find_candidates.candidates": "count",
        "flips.validate_flip.accept_frac": "ratio",
        "trace.overhead_frac": "ratio",
        "trace.wall_s": "s",
    })
    for site in _INSPHERE_SITES.values():
        base = f"predicates.inhypersphere_m_d.{site}"
        units.update({f"{base}.calls_float": "count", f"{base}.calls_exact": "count",
                      f"{base}.exact_frac": "ratio", f"{base}.self_s": "s"})
    for slug in _REJECT_SLUGS.values():
        units[f"flips.validate_flip.reject.{slug}"] = "count"
    for kind in flips.flip_kinds():
        units[f"flips.apply_flip.applied.{kind}"] = "count"
    return dict(sorted(units.items()))


class Tracer:
    """Records spans and counters while installed (it is a context manager)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.cavity_sizes: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, span_name: str, fn, hook=None):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result, parents[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, span_name: str, hook=None, fn=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span_name, fn or original, hook))

    def _span_name(self, idx: int) -> str | None:
        return self.names[self.name[idx]] if idx >= 0 else None

    # -- counters taken from results ----------------------------------------

    def _on_walk(self, result, _parent) -> None:
        walk = result[1]
        self.counts["walk.steps"] += walk.steps
        self.counts["walk.fallbacks"] += walk.fallback_used

    def _on_insert(self, report, _parent) -> None:
        self.cavity_sizes.append(report.cavity_size)

    def _on_insphere(self, result, parent) -> None:
        site = _INSPHERE_SITES.get(self._span_name(parent), "other")
        self.counts[f"insphere.{site}.{result.exactness}"] += 1

    def _on_orientation(self, result, _parent) -> None:
        self.counts[f"orientation4.{result.exactness}"] += 1

    def _on_candidates(self, result, _parent) -> None:
        self.counts["candidates"] += len(result)

    def _on_validate(self, result, _parent) -> None:
        ok, reason = result
        key = "accepted" if ok else "reject." + _REJECT_SLUGS.get(reason, "other")
        self.counts[f"validate.{key}"] += 1

    def _on_apply(self, report, _parent) -> None:
        self.counts[f"applied.{report.kind}"] += 1

    def _on_improve(self, report, _parent) -> None:
        self.counts["starters"] += report.starters
        self.counts["amq1_final"] += report.amq_after[0.01]
        self.counts["amq5_final"] += report.amq_after[0.05]

    def _visibility(self, fn):
        def enforce_visibility(mesh, cavity, *args, **kwargs):
            before = len(cavity.elements)
            out = fn(mesh, cavity, *args, **kwargs)
            self.counts["visibility.removed"] += before - len(out.elements)
            return out
        return enforce_visibility

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        ins = insertion
        self._patch(ins, "triangulate", "insertion.triangulate")
        self._patch(ins, "insert_point", "insertion.insert_point", self._on_insert)
        self._patch(ins, "find_base_element", "insertion.find_base_element", self._on_walk)
        self._patch(ins, "build_cavity", "insertion.build_cavity")
        self._patch(ins, "cavity_boundary", "insertion.cavity_boundary")
        self._patch(ins, "enforce_visibility", "insertion.enforce_visibility",
                    fn=self._visibility(ins.enforce_visibility))
        self._patch(ins, "audit_delaunay", "insertion.audit_delaunay")
        self._patch(ins, "inhypersphere_m_d", "predicates.inhypersphere_m_d", self._on_insphere)
        self._patch(ins, "orientation4", "predicates.orientation4", self._on_orientation)
        self._patch(ins, "build_bounding_mesh", "bounding.build_bounding_mesh")
        self._patch(flips, "improve_quality", "flips.improve_quality", self._on_improve)
        self._patch(flips, "find_candidates", "flips.find_candidates", self._on_candidates)
        self._patch(flips, "validate_flip", "flips.validate_flip", self._on_validate)
        self._patch(flips, "apply_flip", "flips.apply_flip", self._on_apply)
        self._patch(flips, "orientation4", "predicates.orientation4", self._on_orientation)
        self._patch(flips, "pentatope_quality", "quality.pentatope_quality")
        for method in _MESH_METHODS:
            self._patch(Mesh4, method, f"mesh.Mesh4.{method}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, parent span index, self seconds) of every recorded span."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return name, parent, (dur - child) * 1e-9

    def durations_s(self, span_name: str) -> np.ndarray:
        nid = self._ids.get(span_name)
        name = np.frombuffer(self.name, dtype=np.int32)
        sel = name == nid
        return (np.frombuffer(self.end, dtype=np.int64)[sel]
                - np.frombuffer(self.start, dtype=np.int64)[sel]) * 1e-9

    def metrics(self, instances: int, wall_s: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics, each a mean per traced instance where it is a total."""
        name, parent, self_s = self.self_times()
        n_names = len(self.names)
        self_by_name = np.bincount(name, weights=self_s, minlength=n_names)
        calls_by_name = np.bincount(name, minlength=n_names)

        def self_of(span_name):
            nid = self._ids.get(span_name)
            return float(self_by_name[nid]) / instances if nid is not None else 0.0

        def calls_of(span_name):
            nid = self._ids.get(span_name)
            return float(calls_by_name[nid]) / instances if nid is not None else 0.0

        c = self.counts
        per = lambda key: c[key] / instances  # noqa: E731
        out = {f"{n}.self_s": self_of(n) for n in _SELF_SPANS}
        out.update({f"{n}.calls": calls_of(n) for n in _CALL_SPANS})

        insert_ms = self.durations_s("insertion.insert_point") * 1e3
        sizes = np.asarray(self.cavity_sizes, dtype=float)
        finds = calls_of("insertion.find_base_element") * instances
        validations = calls_of("flips.validate_flip") * instances
        out.update({
            "insertion.insert_point.p50_ms": _percentile(insert_ms, 50),
            "insertion.insert_point.p98_ms": _percentile(insert_ms, 98),
            "insertion.walk.steps_per_point": c["walk.steps"] / finds if finds else 0.0,
            "insertion.walk.fallbacks": per("walk.fallbacks"),
            "insertion.cavity.size_mean": float(sizes.mean()) if sizes.size else 0.0,
            "insertion.cavity.size_p98": _percentile(sizes, 98),
            "insertion.visibility.removed": per("visibility.removed"),
            "insertion.audit.pairs_escalated": (per("insphere.audit.float")
                                                + per("insphere.audit.exact")),
            "predicates.orientation4.calls_float": per("orientation4.float"),
            "predicates.orientation4.calls_extended": per("orientation4.extended"),
            "predicates.orientation4.calls_exact": per("orientation4.exact"),
            "flips.improve_quality.starters": per("starters"),
            "flips.improve_quality.amq1_final": per("amq1_final"),
            "flips.improve_quality.amq5_final": per("amq5_final"),
            "flips.find_candidates.candidates": per("candidates"),
            "flips.validate_flip.accept_frac": (c["validate.accepted"] / validations
                                                if validations else 0.0),
            "trace.overhead_frac": overhead_frac,
            "trace.wall_s": wall_s,
        })

        insphere = self._ids.get("predicates.inhypersphere_m_d")
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        for span_name, site in _INSPHERE_SITES.items():
            base = f"predicates.inhypersphere_m_d.{site}"
            n_float, n_exact = per(f"insphere.{site}.float"), per(f"insphere.{site}.exact")
            pid = self._ids.get(span_name, -2)
            sel = (name == insphere) & (parent_name == pid)
            out.update({
                f"{base}.calls_float": n_float,
                f"{base}.calls_exact": n_exact,
                f"{base}.exact_frac": (n_exact / (n_float + n_exact)
                                       if n_float + n_exact else 0.0),
                f"{base}.self_s": float(self_s[sel].sum()) / instances,
            })
        for slug in _REJECT_SLUGS.values():
            out[f"flips.validate_flip.reject.{slug}"] = per(f"validate.reject.{slug}")
        for kind in flips.flip_kinds():
            out[f"flips.apply_flip.applied.{kind}"] = per(f"applied.{kind}")
        return dict(sorted(out.items()))


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
