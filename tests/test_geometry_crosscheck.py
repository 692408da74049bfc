"""Cross-validation of the exact polytope geometry against a floating LP.

The library decides these questions by vertex enumeration and by its own
exact integer simplex; these tests compare its verdicts (emptiness,
boundedness, redundancy minima) with scipy's floating-point HiGHS solver
on random integer instances, skipping only numerically ambiguous margins.
"""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from delzant.polytopes import HPolytope, enumerate_vertices, is_bounded, redundancy

from . import primal_reference as ref

CLEAR = 1e-6


def random_polytope(rng, dim):
    n = rng.randint(dim + 1, 7)
    normals = []
    while len(normals) < n:
        a = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(a):
            normals.append(a)
    offsets = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
    return HPolytope(dim, tuple(normals), offsets)


def lp(poly, objective):
    # constraints <a_i, x> + b_i >= 0  <=>  -A^T x <= b
    a_ub = -np.array([list(a) for a in poly.normals], dtype=float)
    b_ub = np.array([float(b) for b in poly.offsets])
    return scipy_optimize.linprog(
        objective, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * poly.dim, method="highs"
    )


class TestAgainstLP:
    def test_emptiness(self):
        rng = random.Random(31)
        compared = 0
        for _ in range(60):
            poly = random_polytope(rng, rng.choice([2, 3]))
            result = lp(poly, np.zeros(poly.dim))
            if result.status not in (0, 2):
                continue
            assert enumerate_vertices(poly).empty is (result.status == 2), poly
            compared += 1
        assert compared >= 40

    def test_boundedness(self):
        rng = random.Random(57)
        compared = 0
        for _ in range(110):
            poly = random_polytope(rng, rng.choice([2, 3]))
            if enumerate_vertices(poly).empty:
                continue
            lp_bounded = True
            ok = True
            for j in range(poly.dim):
                for sign in (1.0, -1.0):
                    objective = np.zeros(poly.dim)
                    objective[j] = sign
                    result = lp(poly, objective)
                    if result.status == 3:
                        lp_bounded = False
                    elif result.status != 0:
                        ok = False
            if not ok:
                continue
            assert is_bounded(poly) is lp_bounded, poly
            compared += 1
        assert compared >= 30

    def test_redundancy_minima(self):
        rng = random.Random(91)
        compared = 0
        attempts = 0
        while compared < 25 and attempts < 400:
            attempts += 1
            poly = random_polytope(rng, 2)
            vs = enumerate_vertices(poly)
            if vs.empty or not vs.bounded:
                continue
            flags = redundancy(poly)
            for i in range(poly.n):
                relaxed = ref.drop(poly, i)
                result = lp(relaxed, np.array([float(x) for x in poly.normals[i]]))
                if result.status == 3:
                    lp_redundant = False
                elif result.status == 0:
                    minimum = result.fun + float(poly.offsets[i])
                    if abs(minimum) < CLEAR:
                        continue  # ambiguous margin: exact vs float may differ
                    lp_redundant = minimum > 0
                else:
                    continue
                assert (i in flags) == lp_redundant, (poly, i)
                if lp_redundant:
                    assert flags[i] is True  # a clearly positive minimum is strict
                compared += 1
        assert compared >= 25

    def test_redundancy_where_the_incidence_cannot_decide(self):
        # empty presentations (some with rank-deficient normals) and bounded
        # ones with an implicit equality go through one LP per index
        rng = random.Random(73)
        compared = Counter()
        for _ in range(400):
            dim = rng.choice([2, 3])
            poly = random_polytope(rng, dim)
            kind = rng.choice(["rank-deficient", "equality", "random"])
            if kind == "rank-deficient":  # every normal in the plane x_dim = 0
                rows = [(a[:-1] + (0,), b) for a, b in zip(poly.normals, poly.offsets)]
                rows = [(a, b) for a, b in rows if any(a)]
                poly = HPolytope(dim, tuple(a for a, _ in rows), tuple(b for _, b in rows))
            elif kind == "equality":  # the opposite copy of one inequality
                j = rng.randrange(poly.n)
                opposite = tuple(-x for x in poly.normals[j])
                normals, offsets = poly.normals + (opposite,), poly.offsets + (-poly.offsets[j],)
                poly = HPolytope(dim, normals, offsets)
            vs = enumerate_vertices(poly)
            everywhere = vs.vertices and any(
                all(i in v.active for v in vs.vertices) for i in range(poly.n)
            )
            if poly.n < 2 or not (vs.empty or vs.bounded and everywhere):
                continue
            flags = redundancy(poly)
            for i in range(poly.n):
                relaxed = ref.drop(poly, i)
                if lp(relaxed, np.zeros(dim)).status == 2:
                    assert flags.get(i) is True, (poly, i)
                    compared[kind if vs.pointed else "rank-deficient"] += 1
                    continue
                # HiGHS may report a feasible but unbounded model as infeasible
                result = lp(relaxed, np.array([float(x) for x in poly.normals[i]]))
                if result.status in (2, 3):
                    assert i not in flags, (poly, i)
                elif result.status == 0:
                    minimum = result.fun + float(poly.offsets[i])
                    if abs(minimum) < CLEAR:
                        continue  # ambiguous margin: exact vs float may differ
                    assert flags.get(i) is (True if minimum > 0 else None), (poly, i)
                else:
                    continue
                compared[kind if vs.pointed else "rank-deficient"] += 1
        assert min(compared[k] for k in ("rank-deficient", "equality", "random")) >= 25, compared
