"""Test-only reference: the primal k-subset structure layer.

Every k-subset of the inequalities is solved as a k x k system for the
point, and redundancy re-enumerates the relaxation obtained by dropping
each index.  Lattice indices are k x k determinant ratios.  Nothing here
uses the relation rows' minors, the Gale dual or the vertex-facet
incidence, so the differential tests compare the library with a separate
derivation of the same answers; only the exact ``linalg`` solvers are
shared.
"""

from __future__ import annotations

import math
from itertools import combinations

from delzant import linalg
from delzant.polytopes import HPolytope


def _integer_rows(poly):
    return [
        (tuple(x * b.denominator for x in a), b.numerator)
        for a, b in zip(poly.normals, poly.offsets)
    ]


def _candidates(rows, k):
    """(point, scaled values) for each feasible basic solution of k rows."""
    seen = set()
    for subset in combinations(range(len(rows)), k):
        sol = linalg.solve_square([rows[i][0] for i in subset], [-rows[i][1] for i in subset])
        if sol is None or tuple(sol) in seen:
            continue
        seen.add(tuple(sol))
        den = math.lcm(*(f.denominator for f in sol)) if sol else 1
        nums = [int(f * den) for f in sol]
        values = [sum(g * x for g, x in zip(grow, nums)) + e * den for grow, e in rows]
        if min(values, default=0) >= 0:
            yield tuple(sol), values


def _relations(poly):
    return linalg.integer_kernel(poly.matrix()) if poly.n else []


def _positive_relation(relations, n):
    m = len(relations)
    if m == 0:
        return n == 0
    cols = [tuple(row[j] for row in relations) for j in range(n)]
    for subset in combinations(range(n), m):
        sol = linalg.solve_square([cols[i] for i in subset], [1] * m)
        if sol is not None and all(linalg.dot(sol, col) >= 1 for col in cols):
            return True
    return False


def is_bounded(poly: HPolytope) -> bool:
    if poly.dim == 0:
        return True
    if linalg.rational_rank([list(a) for a in poly.normals]) < poly.dim:
        return False
    return _positive_relation(_relations(poly), poly.n)


def _reduced_feasible(poly):
    basis = linalg.row_basis([list(a) for a in poly.normals])
    if not basis:
        return all(b >= 0 for b in poly.offsets)
    reduced = HPolytope(
        len(basis),
        tuple(tuple(linalg.dot(row, a) for row in basis) for a in poly.normals),
        poly.offsets,
    )
    return not enumerate_vertices(reduced)["empty"]


def enumerate_vertices(poly: HPolytope) -> dict:
    """``{"vertices": [(point, active)], "bounded", "empty", "pointed"}``."""
    k = poly.dim
    if k == 0:
        if not all(b >= 0 for b in poly.offsets):
            return {"vertices": [], "bounded": True, "empty": True, "pointed": True}
        active = tuple(i for i, b in enumerate(poly.offsets) if b == 0)
        return {"vertices": [((), active)], "bounded": True, "empty": False, "pointed": True}
    if linalg.rational_rank([list(a) for a in poly.normals]) < k:
        empty = not _reduced_feasible(poly)
        return {"vertices": [], "bounded": False, "empty": empty, "pointed": False}
    vertices = sorted(
        (point, tuple(i for i, v in enumerate(values) if v == 0))
        for point, values in _candidates(_integer_rows(poly), k)
    )
    if not vertices:
        return {"vertices": [], "bounded": True, "empty": True, "pointed": True}
    bounded = _positive_relation(_relations(poly), poly.n)
    return {"vertices": vertices, "bounded": bounded, "empty": False, "pointed": True}


def redundancy(poly: HPolytope) -> dict[int, bool]:
    """``{index: strict}`` by re-enumerating every relaxation; raises ValueError if unbounded."""
    if not is_bounded(poly) and not enumerate_vertices(poly)["empty"]:
        raise ValueError("redundancy analysis requires a bounded polytope")
    relations = _relations(poly)
    result = {}
    for i in range(poly.n):
        relaxed = poly.drop(i)
        if poly.dim > 0 and not any(row[i] for row in relations):
            if not _reduced_feasible(relaxed):
                result[i] = True
            continue
        values = [
            linalg.dot(poly.normals[i], point) + poly.offsets[i]
            for point, _ in _candidates(_integer_rows(relaxed), relaxed.dim)
        ]
        if not values:
            result[i] = True
        elif min(values) >= 0 and is_bounded(relaxed):
            result[i] = min(values) > 0
    return result


def is_generic(poly: HPolytope, vertices) -> bool:
    for _, active in vertices:
        rows = [list(poly.normals[i]) for i in active]
        if len(rows) > poly.dim or linalg.rational_rank(rows) != len(rows):
            return False
    return True


def is_delzant(poly: HPolytope, vertices) -> bool:
    """Every vertex index |det A_S| / |det(normal lattice basis)| equals 1."""
    lattice_det = abs(linalg.det(linalg.row_basis([list(a) for a in poly.normals])))
    return all(
        abs(linalg.det([list(poly.normals[i]) for i in active])) == lattice_det
        for _, active in vertices
    )

