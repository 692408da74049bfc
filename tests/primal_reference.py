"""Test-only reference: the primal k-subset structure layer and dense solvers.

Every k-subset of the inequalities is solved as a k x k system for the
point, and redundancy re-enumerates the relaxation obtained by dropping
each index.  Lattice indices are k x k determinant ratios, and the Fano
test solves the n x (k+1) system ``[A^T | 1]`` for the translation and the
constant.  Nothing here uses the relation rows' minors, the Gale dual or
the vertex-facet incidence, and the square solves, ranks, determinants and
affine solutions come from the dense Fraction Gauss-Jordan elimination
below, not from ``linalg``'s fraction-free kernel; only ``integer_kernel``,
``hnf``, ``row_basis`` and ``dot`` are shared.  ``inverse`` and ``mat_mul``
serve the tests that check a change of basis, which the library never makes.  The relation rows are
built in two steps, a saturated kernel basis and then its slack-ordered
HNF, where the library runs one kernel on the reversed normals.  The differential tests therefore
compare the library with a separate derivation of the same answers.

``gale_vertex_set`` and ``primal_vertex_set`` are the exceptions: the
library's two subset loops as they were before the m = 2 sign rule and the
primal edge walk, every m-subset (k-subset) solved by
``linalg.solve_square``.  They pin the new enumerators' vertices, including
the index of a degenerate vertex, to the subset searches they replaced.

The library records a vertex by its slack vector, so ``enumerate_vertices``
here reports slack vectors too, each from its own point; ``point`` recovers
the point of a library vertex by a Fraction solve on its active normals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from delzant import linalg
from delzant.polytopes import HPolytope, Vertex, VertexSet, _vertex


def _rref(rows, width):
    """Reduced row echelon form over the rationals, pivoting on the first nonzero row.

    Returns ``(reduced rows, pivot columns, det factor)``; the factor is the
    product of the pivots with the sign of the row swaps, which is the
    determinant of a nonsingular square input.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    factor = Fraction(1)
    for col in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            factor = -factor
        pivot = a[r][col]
        factor *= pivot
        a[r] = [x / pivot if x else x for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots, factor


def rank(matrix) -> int:
    return len(_rref(matrix, len(matrix[0]) if matrix else 0)[1])


def det(rows) -> Fraction:
    _, pivots, factor = _rref(rows, len(rows))
    return factor if len(pivots) == len(rows) else Fraction(0)


def solve_affine(rows, rhs):
    """``(particular, null basis)`` of ``rows @ x == rhs``, the particular
    solution supported on the pivot columns; None when inconsistent."""
    n = len(rows[0]) if rows else 0
    a, pivots, _ = _rref([list(row) + [c] for row, c in zip(rows, rhs)], n)
    if any(row[n] for row in a[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        particular[col] = a[r][n]
    null_basis = []
    for f in (j for j in range(n) if j not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -a[r][f]
        null_basis.append(vec)
    return particular, null_basis


def solve_square(rows, rhs):
    """Unique solution of a square system, or None if singular."""
    n = len(rows)
    a, pivots, _ = _rref([list(row) + [c] for row, c in zip(rows, rhs)], n)
    return [row[n] for row in a] if len(pivots) == n else None


def inverse(rows):
    """The inverse as a matrix of Fractions; None if singular."""
    n = len(rows)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    a, pivots, _ = _rref([list(row) + e for row, e in zip(rows, unit)], n)
    return [row[n:] for row in a] if len(pivots) == n else None


def mat_mul(a, b):
    """The matrix product, entry by entry."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def slack_ordered_hnf(rows):
    """Row HNF with pivots chosen from the last column backwards, zero rows
    dropped; the rows are ordered by ascending pivot column."""
    h = linalg.hnf([list(reversed(r)) for r in rows])
    return [list(reversed(r)) for r in reversed(h) if any(r)]


def relations(poly: HPolytope):
    """The saturated relation rows among the normals (Z^n when k = 0), slack-ordered."""
    kernel = linalg.integer_kernel(poly.matrix()) if poly.dim else linalg.identity(poly.n)
    return tuple(tuple(r) for r in slack_ordered_hnf(kernel))


def drop(poly: HPolytope, index: int) -> HPolytope:
    """The relaxation without inequality ``index``."""
    keep = [i for i in range(poly.n) if i != index]
    return HPolytope(
        poly.dim, tuple(poly.normals[i] for i in keep), tuple(poly.offsets[i] for i in keep)
    )


def _integer_rows(poly):
    return [
        (tuple(x * b.denominator for x in a), b.numerator)
        for a, b in zip(poly.normals, poly.offsets)
    ]


def _candidates(rows, k):
    """(point, scaled values) for each feasible basic solution of k rows."""
    seen = set()
    for subset in combinations(range(len(rows)), k):
        sol = solve_square([rows[i][0] for i in subset], [-rows[i][1] for i in subset])
        if sol is None or tuple(sol) in seen:
            continue
        seen.add(tuple(sol))
        den = math.lcm(*(f.denominator for f in sol)) if sol else 1
        nums = [int(f * den) for f in sol]
        values = [sum(g * x for g, x in zip(grow, nums)) + e * den for grow, e in rows]
        if min(values, default=0) >= 0:
            yield tuple(sol), values


def _positive_relation(rows, n):
    m = len(rows)
    if m == 0:
        return n == 0
    cols = [tuple(row[j] for row in rows) for j in range(n)]
    for subset in combinations(range(n), m):
        sol = solve_square([cols[i] for i in subset], [1] * m)
        if sol is not None and all(linalg.dot(sol, col) >= 1 for col in cols):
            return True
    return False


def is_bounded(poly: HPolytope) -> bool:
    if poly.dim == 0:
        return True
    if rank([list(a) for a in poly.normals]) < poly.dim:
        return False
    return _positive_relation(relations(poly), poly.n)


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


def slack_vector(poly: HPolytope, point) -> tuple[Fraction, ...]:
    """``A^T x + b`` at the point x."""
    return tuple(linalg.dot(a, point) + b for a, b in zip(poly.normals, poly.offsets))


def point(poly: HPolytope, vertex: Vertex) -> tuple[Fraction, ...]:
    """The point of a library vertex: the one solution of ``<a_i, x> = -b_i``
    over its active set, whose normals span R^k."""
    active = vertex.active
    solved = solve_affine([poly.normals[i] for i in active], [-poly.offsets[i] for i in active])
    assert solved is not None and not solved[1]
    return tuple(solved[0])


def enumerate_vertices(poly: HPolytope) -> dict:
    """``{"vertices": [(slack vector, active)], "bounded", "empty", "pointed"}``,
    the vertices in the order of their slack vectors."""
    k = poly.dim
    if k == 0:
        if not all(b >= 0 for b in poly.offsets):
            return {"vertices": [], "bounded": True, "empty": True, "pointed": True}
        active = tuple(i for i, b in enumerate(poly.offsets) if b == 0)
        vertex = (slack_vector(poly, ()), active)
        return {"vertices": [vertex], "bounded": True, "empty": False, "pointed": True}
    if rank([list(a) for a in poly.normals]) < k:
        empty = not _reduced_feasible(poly)
        return {"vertices": [], "bounded": False, "empty": empty, "pointed": False}
    vertices = sorted(
        (slack_vector(poly, point), tuple(i for i, v in enumerate(values) if v == 0))
        for point, values in _candidates(_integer_rows(poly), k)
    )
    if not vertices:
        return {"vertices": [], "bounded": True, "empty": True, "pointed": True}
    bounded = _positive_relation(relations(poly), poly.n)
    return {"vertices": vertices, "bounded": bounded, "empty": False, "pointed": True}


def redundancy(poly: HPolytope) -> dict[int, bool]:
    """``{index: strict}`` by re-enumerating every relaxation; raises ValueError if unbounded."""
    if not is_bounded(poly) and not enumerate_vertices(poly)["empty"]:
        raise ValueError("redundancy analysis requires a bounded polytope")
    result = {}
    for i in range(poly.n):
        relaxed = drop(poly, i)
        # a rank-deficient relaxation has no vertices; its feasibility is
        # decided in quotient coordinates.  When nonempty it differs from the
        # set, which is empty or bounded while the relaxation has a line.
        if rank([list(a) for a in relaxed.normals]) < relaxed.dim:
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
        if len(rows) > poly.dim or rank(rows) != len(rows):
            return False
    return True


def is_delzant(poly: HPolytope, vertices) -> bool:
    """Every vertex index |det A_S| / |det(normal lattice basis)| equals 1."""
    lattice_det = abs(det(linalg.row_basis([list(a) for a in poly.normals])))
    return all(
        abs(det([list(poly.normals[i]) for i in active])) == lattice_det
        for _, active in vertices
    )


def is_fano(poly: HPolytope):
    """``(flag, C, y)``: primitive normals and ``b - C*1 = A^T y`` with ``C > 0``,
    solved as one n x (k+1) system; C is 1 when the system leaves it free."""
    for a in poly.normals:
        if math.gcd(*(abs(x) for x in a)) != 1:
            return False, None, None
    sol = solve_affine([list(a) + [1] for a in poly.normals], list(poly.offsets))
    if sol is None:
        return False, None, None
    particular, null_basis = sol
    constant = Fraction(1) if any(vec[-1] for vec in null_basis) else particular[-1]
    if constant <= 0:
        return False, None, None
    reduced = solve_affine([list(a) for a in poly.normals], [b - constant for b in poly.offsets])
    if reduced is None:
        return False, None, None
    return True, constant, tuple(reduced[0])


def _ordered(vertices, bounded: bool) -> VertexSet:
    """The vertex set of a search, its vertices sorted by slack vector."""
    if not vertices:
        return VertexSet((), True, True, True)
    vertices.sort(key=lambda v: [Fraction(x, v.den) for x in v.slacks])
    return VertexSet(tuple(vertices), bounded, False, True)


def gale_vertex_set(poly: HPolytope) -> VertexSet:
    """The Gale side as an all-subsets search, for normals that span R^k.

    Every m-subset B of the columns of ``Gamma`` is solved for
    ``s_B = Gamma_B^-1 Gamma b``; B is kept when its numerators are >= 0,
    and a slack vector reached again is skipped, so a degenerate vertex
    keeps ``|det Gamma_B|`` of the first B in lexicographic order as its
    index.
    """
    gamma, rhs = poly.relations, poly.relation_values
    n, m = poly.n, len(gamma)
    assert m == n - poly.dim
    scale = poly.integer_offsets[0]
    cols = [tuple(row[j] for row in gamma) for j in range(n)]
    seen = set()
    vertices = []
    for subset in combinations(range(n), m):
        solved = linalg.solve_square(list(zip(*(cols[j] for j in subset))), rhs)
        if solved is None:
            continue
        nums, d = solved
        if any(x < 0 for x in nums):
            continue
        slacks = [0] * n
        for j, x in zip(subset, nums):
            slacks[j] = Fraction(x, d * scale)
        if tuple(slacks) in seen:
            continue
        seen.add(tuple(slacks))
        active = [i for i in range(n) if not slacks[i]]
        den = math.lcm(*(x.denominator for x in slacks))
        vertices.append(_vertex([int(x * den) for x in slacks], den, active, d))
    return _ordered(vertices, _positive_relation(relations(poly), n))


def primal_vertex_set(poly: HPolytope) -> VertexSet:
    """The primal side as an all-subsets search, for normals that span R^k.

    Every k-subset S of the inequalities is solved for ``y = N / d`` with
    ``d = |det A_S|``; the point is kept when no slack ``<a_i, N> + d * e_i``
    is negative, and a point reached again is skipped, so a degenerate
    vertex keeps ``d / det L`` of the first S in lexicographic order as its
    index.
    """
    assert len(poly.relations) == poly.n - poly.dim
    scale, offsets = poly.integer_offsets
    lattice = poly.normal_lattice_det
    seen = set()
    vertices = []
    for subset in combinations(range(poly.n), poly.dim):
        solved = linalg.solve_square(
            [poly.normals[i] for i in subset], [-offsets[i] for i in subset]
        )
        if solved is None:
            continue
        nums, d = solved
        g = math.gcd(d, *nums)
        key = (*(x // g for x in nums), d // g)
        if key in seen:
            continue
        seen.add(key)
        slacks = []
        for a, e in zip(poly.normals, offsets):
            value = sum(x * y for x, y in zip(a, nums) if x) + e * d
            if value < 0:
                break
            slacks.append(value)
        else:
            active = [i for i, x in enumerate(slacks) if not x]
            vertices.append(_vertex(slacks, d * scale, active, d // lattice))
    return _ordered(vertices, _positive_relation(relations(poly), poly.n))
