"""Shared fixtures and independent oracles for the test suite."""

from fractions import Fraction

import numpy as np
import pytest

from pentamesh.geometry import CANONICAL_FACETS, hypervolume
from pentamesh.predicates import _det_exact


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


def insphere_sign_fraction(pts6, M=None):
    """Exact in-hypersphere sign straight from the cofactor expansion."""
    f = pts6[5]
    us = [tuple(Fraction(float(p[j])) - Fraction(float(f[j])) for j in range(4))
          for p in pts6[:5]]
    if M is None:
        qs = [sum(x * x for x in u) for u in us]
    else:
        mf = [[Fraction(float(M[i][j])) for j in range(4)] for i in range(4)]
        qs = [sum(u[i] * sum(mf[i][j] * u[j] for j in range(4)) for i in range(4))
              for u in us]
    tot = Fraction(0)
    s = 1
    for i in range(5):
        tot += s * qs[i] * _det_exact(us[:i] + us[i + 1:])
        s = -s
    return 0 if tot == 0 else (1 if tot > 0 else -1)


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
