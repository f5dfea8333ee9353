"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured quantities (run pytest with -s to see them).

Criteria (tolerances pinned here, nothing deferred):
 1. exact unit-tesseract partition for all three subdivision tables
 2. subdivision Delaunay check against every corner, exact predicates
 3. Delaunay audit of 200-point random meshes, 20 seeds, zero violations
 4. hypercylinder convergence slope in [1.6, 2.4], both metric modes
 5. predicate equivalence (exact) and float divergence trend over d
 6. quality heuristic suite on 1e4 random pentatopes
 7. flip-table static checks + randomized exact-conservation instances
 8. greedy improvement terminates, conserves hypervolume, raises AMQ
 9. roughness sign/factorization + LOP against brute-force Delaunay
"""

import math
import time
from fractions import Fraction

import numpy as np

from pentamesh.bounding import subdivision_table
from pentamesh.flips import flip_kinds, flip_table
from pentamesh.geometry import hypervolume, hypervolume_exact, regular_pentatope
from pentamesh.insertion import audit_delaunay, triangulate
from pentamesh.predicates import inhypersphere4, orientation4
from pentamesh.quality import edge_lengths_squared, eta1, eta2, eta3, theta
from pentamesh.roughness2d import lop, relative_roughness
from pentamesh.studies import convergence_study, predicate_comparison_study, quality_study

import test_flips as flips_helpers
import test_quality as quality_helpers
import test_roughness2d as rough_helpers


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_exact_partition():
    t0 = time.time()
    for n_b in (22, 23, 24):
        table = subdivision_table(n_b)
        corners = [tuple(Fraction(c) for c in corner) for corner in table.corners]
        vols = [abs(hypervolume_exact(*[corners[i - 1] for i in tup]))
                for tup in table.tuples]
        assert sum(vols) == 1
        assert all(v > 0 for v in vols)
        if n_b == 24:
            assert all(v == Fraction(1, 24) for v in vols)
    dt = time.time() - t0
    assert dt < 1.0
    _report(1, f"22/23/24 cells sum to 1 exactly, all positive; {dt:.2f}s")


def test_criterion_2_subdivision_delaunay():
    t0 = time.time()
    checked = 0
    for n_b in (22, 23, 24):
        table = subdivision_table(n_b)
        for tup in table.tuples:
            cell = [table.corners[i - 1] for i in tup]
            o = orientation4(*cell).sign
            assert o != 0
            for ci, corner in enumerate(table.corners):
                if (ci + 1) in tup:
                    continue
                res = inhypersphere4(*cell, corner, mode="exact")
                assert res.sign * o <= 0
                checked += 1
    dt = time.time() - t0
    assert dt < 5.0
    _report(2, f"{checked} corner/cell pairs, no strict containment; {dt:.1f}s")


def test_criterion_3_delaunay_audit_random_clouds():
    t0 = time.time()
    total_checked = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        mesh = triangulate(rng.random((200, 4)))
        report = audit_delaunay(mesh)
        assert report.ok, f"seed {seed}: {len(report.violations)} violations"
        total_checked += report.n_checked
    dt = time.time() - t0
    assert dt < 120.0
    _report(3, f"20 seeds x 200 points, {total_checked} pairs, 0 violations; {dt:.0f}s")


def test_criterion_4_convergence_order():
    t0 = time.time()
    slopes = {}
    for metric in ("identity", "speed"):
        res = convergence_study(levels=4, h0=1.0, refine=1.5, metric=metric, seed=0)
        slopes[metric] = res.slope
        assert res.rows[-1]["n_pentatopes"] > 20_000
        assert 1.6 <= res.slope <= 2.4, f"{metric} slope {res.slope}"
    dt = time.time() - t0
    assert dt < 600.0
    _report(4, f"slope identity {slopes['identity']:.2f}, "
               f"speed {slopes['speed']:.2f}; {dt:.0f}s")


def test_criterion_5_predicate_equivalence_and_trend():
    t0 = time.time()
    rows = predicate_comparison_study(dims=(4,), trials=1000, seed=11, exact=True)
    assert rows[0]["nonzero_differences"] == 0
    rows = predicate_comparison_study(dims=(2, 10), trials=100, seed=11)
    by = {(r["d"], r["kind"]): r["mean_normalized_difference"] for r in rows}
    for kind in ("cholesky", "sqrt"):
        assert by[(10, kind)] > by[(2, kind)] >= 0.0
    dt = time.time() - t0
    assert dt < 120.0
    _report(5, f"exact diff = 0 on 1000 trials; float mean(10) > mean(2) "
               f"for both factors; {dt:.0f}s")


def test_criterion_6_quality_heuristics():
    t0 = time.time()
    rng = np.random.default_rng(99)
    for a in (1.0, 3.7):
        pts = regular_pentatope(a)
        for fn in (eta1, eta2, eta3):
            assert abs(fn(*pts) - 1.0) <= 1e-12
    n_theta_checked = 0
    for k in range(10_000):
        pts = rng.normal(size=(5, 4))
        e1, e2, e3 = eta1(*pts), eta2(*pts), eta3(*pts)
        assert -1e-12 <= e1 <= 1 + 1e-12
        assert -1e-12 <= e3 <= e2 + 1e-12 <= 1 + 2e-12
        assert abs(e3 - e1 * e2) <= 1e-12 * max(e3, 1e-30)
        if k % 20 == 0 and abs(hypervolume(*pts)) > 1e-4:
            _e1, _e2, _e3, A, aa = quality_helpers.matrix_route(pts)
            fro = float(np.linalg.norm(A, "fro"))
            got = math.sqrt(theta(edge_lengths_squared(pts))) / (30.0 * aa * aa)
            assert abs(got - fro) <= 1e-9 * fro
            n_theta_checked += 1
        if k % 50 == 0 and abs(hypervolume(*pts)) > 1e-4:
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            moved = rng.uniform(0.1, 10.0) * (pts @ q.T) + rng.normal(size=4)
            for fn in (eta1, eta2, eta3):
                ref = fn(*pts)
                assert abs(fn(*moved) - ref) <= 1e-9 * max(ref, 1e-12)
    dt = time.time() - t0
    assert dt < 60.0
    _report(6, f"1e4 pentatopes in bounds, eta3 = eta1*eta2, invariance, "
               f"{n_theta_checked} matrix-oracle checks; {dt:.0f}s")


def test_criterion_7_flip_tables():
    t0 = time.time()
    for kind in flip_kinds():
        t = flip_table(kind)
        assert (flips_helpers.boundary_multiset(t.stage1)
                == flips_helpers.boundary_multiset(t.stage2))
    pairs = [("1_5", "5_1"), ("2_4", "4_2"), ("3_3", "3_3r"), ("4_8", "8_4"),
             ("3_9", "9_3"), ("6_6", "6_6r"), ("6_12a", "12_6a"), ("2_8", "8_2"),
             ("4_6", "6_4"), ("8_8v1", "8_8v1r"), ("8_8v2", "8_8v2r"),
             ("8_8v3", "8_8v3r"), ("4_12", "12_4"), ("6_12b", "12_6b"),
             ("8_16", "16_8")]
    for kind, rkind in pairs:
        fwd, rev = flip_table(kind), flip_table(rkind)
        assert fwd.stage1 == rev.stage2 and fwd.stage2 == rev.stage1
    executed = 0
    from pentamesh.flips import apply_flip, find_candidates, validate_flip
    for kind, builder in flips_helpers.KIND_BUILDERS.items():
        for seed in range(4):
            rng = np.random.default_rng(7000 + seed)
            mesh, _ = builder(rng)
            starter = next(mesh.alive_elements())
            cands = [c for c in find_candidates(mesh, starter) if c.kind == kind]
            if not cands:
                continue
            ok, _r = validate_flip(mesh, cands[0])
            if not ok:
                continue
            hv0 = mesh.total_hypervolume(exact=True)
            rep = apply_flip(mesh, cands[0])
            assert mesh.total_hypervolume(exact=True) == hv0
            assert all(hypervolume(*mesh.element_points(e)) > 0.0
                       for e in rep.new_elements)
            executed += 1
    assert executed >= 2 * len(flips_helpers.KIND_BUILDERS)
    dt = time.time() - t0
    assert dt < 60.0
    _report(7, f"30 tables static-checked, 15 reverse pairs, "
               f"{executed} randomized instances conserve exactly; {dt:.0f}s")


def test_criterion_8_quality_improvement():
    t0 = time.time()
    summary, _hist = quality_study(sizes=(50, 100, 150, 200, 250, 300),
                                   heuristic=1, seed=1)
    fractions = ("amq1", "amq5", "amq10", "amq20")
    strict = 0
    for row in summary:
        assert row["hv_conserved_exactly"], f"hv drift at n={row['n_points']}"
        for f in fractions:
            assert row[f"{f}_final"] >= row[f"{f}_initial"] - 1e-12
        if all(row[f"{f}_final"] > row[f"{f}_initial"] for f in fractions):
            strict += 1
    assert strict >= 4, f"strict improvement on only {strict}/6 sizes"
    dt = time.time() - t0
    assert dt < 300.0
    _report(8, f"6 sizes, AMQ non-decreasing, strictly up on {strict}/6, "
               f"hypervolume exact; {dt:.0f}s")


def test_criterion_9_roughness_and_lop():
    t0 = time.time()
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 10_000:
        cq = rough_helpers.random_canonical(rng)
        if cq is None:
            continue
        f = rng.normal(size=4)
        c = float(rng.uniform(0.2, 5.0))
        rb = relative_roughness(cq, *f, c)  # internal 1e-9 factorization assert
        direct = rough_helpers.direct_roughness_difference(cq, f, c)
        assert abs(rb.value - direct) <= 1e-9 * max(abs(rb.value), abs(direct), 1.0)
        if rb.C >= 0.0:
            assert rb.value >= -1e-12
        checked += 1
    lop_ok = 0
    for seed in range(50):
        local = np.random.default_rng(500 + seed)
        pts = local.random((30, 2))
        cv = float(local.uniform(0.25, 4.0))
        tris = lop(pts, c_field=cv)
        got = rough_helpers.triangulation_edges(tris)
        want = rough_helpers.brute_force_delaunay_edges(pts * np.array([1.0, cv]))
        assert got == want, f"seed {seed}"
        lop_ok += 1
    dt = time.time() - t0
    assert dt < 120.0
    _report(9, f"1e4 quads sign/factorization-checked; LOP == brute-force "
               f"Delaunay on {lop_ok}/50 seeds; {dt:.0f}s")
