"""Shared fixtures and independent oracles for the test suite."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from pentamesh.geometry import CANONICAL_FACETS, hypervolume

# one profile for every property test: no deadline on a shared host, and a
# failing example prints the blob that reproduces it
settings.register_profile("tier1", deadline=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def improve_benchmark_points(seed, index, n_points=50):
    """The points of instance ``index`` of ``seed`` in the improve benchmark.

    Built as ``perfbench/workloads.py`` builds them: uniform in the unit
    tesseract, from the seed ``SeedSequence([seed, index])`` generates.
    """
    iseed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    return np.random.default_rng(iseed).random((n_points, 4))


def random_pentatope(rng, scale=1.0, min_vol=1e-6):
    """A uniformly random non-degenerate pentatope."""
    while True:
        pts = rng.normal(size=(5, 4)) * scale
        if abs(hypervolume(*pts)) > min_vol * scale ** 4:
            return pts


def det_fraction(rows):
    """Leibniz determinant of square rows over ``Fraction``s: a sum over permutations."""
    rows = [[Fraction(x) for x in row] for row in rows]
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


def insphere_fraction(pts, M=None):
    """Exact in-hypersphere bracket of d+2 points straight from the cofactor expansion."""
    f = [Fraction(float(c)) for c in pts[-1]]
    d = len(f)
    us = [[Fraction(float(c)) - x for c, x in zip(p, f)] for p in pts[:-1]]
    if M is None:
        qs = [sum(x * x for x in u) for u in us]
    else:
        mf = [[Fraction(float(M[i][j])) for j in range(d)] for i in range(d)]
        qs = [sum(u[i] * sum(mf[i][j] * u[j] for j in range(d)) for i in range(d))
              for u in us]
    tot = sum((-1) ** i * qs[i] * det_fraction(us[:i] + us[i + 1:]) for i in range(d + 1))
    return tot * (-1) ** d


def insphere_sign_fraction(pts, M=None):
    """Exact in-hypersphere sign of d+2 points."""
    tot = insphere_fraction(pts, M)
    return (tot > 0) - (tot < 0)


def orientation_sign_fraction(pts):
    """Exact sign of det(p_i - p_last) of d+1 points."""
    last = [Fraction(float(c)) for c in pts[-1]]
    det = det_fraction([[Fraction(float(c)) - x for c, x in zip(p, last)] for p in pts[:-1]])
    return (det > 0) - (det < 0)


def hypervolume_fraction(p1, p2, p3, p4, p5):
    """Signed hypervolume by cofactor expansion over ``Fraction``s."""
    base = [Fraction(c) for c in p1]
    rows = [[Fraction(p[j]) - base[j] for j in range(4)] for p in (p2, p3, p4, p5)]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    tot = Fraction(0)
    for j in range(4):
        sub = [[rows[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        tot += (-1) ** j * rows[0][j] * det3(sub)
    return tot / 24


def circumsphere(pts5):
    """Circumcenter and squared radius of five 4D points (float)."""
    P = np.asarray(pts5, dtype=float)
    A = 2.0 * (P[1:] - P[0])
    b = (P[1:] ** 2).sum(axis=1) - (P[0] ** 2).sum()
    c = np.linalg.solve(A, b)
    return c, float(((P[0] - c) ** 2).sum())


def facet_table(mesh):
    """Sorted facet key -> its (element, local facet) owners, read from ``mesh.nbr``."""
    out = {}
    for eid in mesh.alive_elements():
        verts = mesh.elements[eid]
        for li, nb in enumerate(mesh.nbr[eid]):
            if nb is None or (eid, li) < nb:
                key = tuple(sorted(verts[i] for i in CANONICAL_FACETS[li]))
                out[key] = ((eid, li),) if nb is None else ((eid, li), nb)
    return out


def spd_metric(rng, dim=4, spread=1.0):
    """A random symmetric positive-definite matrix."""
    S = rng.normal(size=(dim, dim)) * spread
    return S.T @ S + dim * np.eye(dim)
