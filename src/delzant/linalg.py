"""Exact linear algebra over the integers and rationals.

Matrices are row-major lists of rows whose entries are Python ``int`` or
``fractions.Fraction``, so everything here is exact and overflow-free.
Lattices are represented by basis rows; the canonical representative of a
row lattice is its row Hermite normal form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = Sequence[int]
Matrix = Sequence[Row]


class LinearAlgebraError(ValueError):
    """Raised for structurally invalid inputs (rank, containment, shape)."""


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(matrix: Matrix) -> list[list]:
    if not matrix:
        return []
    return [list(col) for col in zip(*matrix)]


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(matrix: Matrix, vec: Sequence) -> list:
    return [sum(x * y for x, y in zip(row, vec)) for row in matrix]


def dot(u: Sequence, v: Sequence) -> object:
    return sum(x * y for x, y in zip(u, v))


def _axpy(target: list, source: list, q) -> None:
    # target -= q * source
    for j, s in enumerate(source):
        if s:
            target[j] -= q * s


def hnf(matrix: Matrix, transform: bool = False):
    """Row Hermite normal form.

    Returns ``H`` with the same shape as ``matrix``: pivots positive, the
    entries above each pivot reduced into ``[0, pivot)``, zero rows last.
    With ``transform`` also returns a unimodular ``U`` with ``H == U @ matrix``.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise LinearAlgebraError("ragged matrix")
    unit = identity(m)
    row = 0
    for col in range(n):
        if row == m:
            break
        placed = False
        while True:
            support = [i for i in range(row, m) if rows[i][col]]
            if not support:
                break
            best = min(support, key=lambda i: abs(rows[i][col]))
            if best != row:
                rows[row], rows[best] = rows[best], rows[row]
                unit[row], unit[best] = unit[best], unit[row]
            if rows[row][col] < 0:
                rows[row] = [-x for x in rows[row]]
                unit[row] = [-x for x in unit[row]]
            p = rows[row][col]
            rest = [i for i in range(row + 1, m) if rows[i][col]]
            if not rest:
                placed = True
                break
            for i in rest:
                q = rows[i][col] // p
                if q:
                    _axpy(rows[i], rows[row], q)
                    _axpy(unit[i], unit[row], q)
        if not placed:
            continue
        p = rows[row][col]
        for i in range(row):
            q = rows[i][col] // p
            if q:
                _axpy(rows[i], rows[row], q)
                _axpy(unit[i], unit[row], q)
        row += 1
    if transform:
        return rows, unit
    return rows


def row_basis(matrix: Matrix) -> list[list[int]]:
    """Nonzero rows of the HNF: the canonical basis of the row lattice."""
    return [r for r in hnf(matrix) if any(r)]


def hnf_span_equal(a: Matrix, b: Matrix) -> bool:
    return row_basis(a) == row_basis(b)


def integer_kernel(matrix: Matrix) -> list[list[int]]:
    """Saturated basis of ``{v : matrix @ v == 0}`` over the integers.

    Every integer kernel vector is an integer combination of the returned
    rows.  The basis is HNF-canonical; the result may have zero rows only
    if the kernel is trivial (then the list is empty).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return identity(n)
    h, u = hnf(transpose(matrix), transform=True)
    kernel = [u[i] for i in range(len(h)) if not any(h[i])]
    if not kernel:
        return []
    return row_basis(kernel)


def snf_diagonal(matrix: Matrix) -> list[int]:
    """Diagonal of the Smith normal form (non-negative, each divides the next)."""
    a = [list(r) for r in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < min(m, n):
        support = [(i, j) for i in range(top, m) for j in range(top, n) if a[i][j]]
        if not support:
            break
        i0, j0 = min(support, key=lambda ij: abs(a[ij[0]][ij[1]]))
        a[top], a[i0] = a[i0], a[top]
        for r in a:
            r[top], r[j0] = r[j0], r[top]
        while True:
            if a[top][top] < 0:
                a[top] = [-x for x in a[top]]
            p = a[top][top]
            dirty = False
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // p
                    _axpy(a[i], a[top], q)
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
            if dirty:
                continue
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // p
                    for i in range(top, m):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for i in range(top, m):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                        dirty = True
            if dirty:
                continue
            offender = next(
                (i for i in range(top + 1, m) if any(a[i][j] % p for j in range(top + 1, n))),
                None,
            )
            if offender is None:
                break
            _axpy(a[top], a[offender], -1)
        diag.append(a[top][top])
        top += 1
    diag.extend([0] * (min(m, n) - len(diag)))
    return diag


def _divide(value, pivot):
    if pivot == 1:
        return value
    if pivot == -1:
        return -value
    return Fraction(value) / pivot


def rational_rank(matrix: Matrix) -> int:
    """Rank over the rationals, by sparse elimination."""
    eqs: list[dict[int, object]] = []
    occurs: dict[int, set[int]] = {}
    for e, row in enumerate(matrix):
        d = {j: x for j, x in enumerate(row) if x}
        eqs.append(d)
        for j in d:
            occurs.setdefault(j, set()).add(e)
    active = set(range(len(eqs)))
    rank = 0
    while active:
        e = min(active, key=lambda i: len(eqs[i]))
        d = eqs[e]
        active.discard(e)
        if not d:
            continue
        rank += 1
        j = min(d, key=lambda v: (abs(d[v]) != 1, abs(d[v]), v))
        piv = d[j]
        for j2 in d:
            occurs[j2].discard(e)
        for e2 in list(occurs.get(j, ())):
            d2 = eqs[e2]
            factor = _divide(d2[j], piv)
            for j2, x in d.items():
                new = d2.get(j2, 0) - factor * x
                if new:
                    d2[j2] = new
                    occurs.setdefault(j2, set()).add(e2)
                elif j2 in d2:
                    del d2[j2]
                    occurs[j2].discard(e2)
    return rank


def solve_square(rows: Matrix, rhs: Sequence) -> list[Fraction] | None:
    """Unique rational solution of a square linear system, or None if singular.

    Sparse-aware elimination: pivots are chosen on the shortest equation,
    preferring unit coefficients, so systems dominated by coordinate rows
    cost little.
    """
    n = len(rows)
    eqs: list[tuple[dict[int, object], object]] = []
    occurs: dict[int, set[int]] = {}
    for e, (row, c) in enumerate(zip(rows, rhs)):
        d = {j: x for j, x in enumerate(row) if x}
        eqs.append((d, c))
        for j in d:
            occurs.setdefault(j, set()).add(e)
    active = set(range(n))
    solved: list[tuple[dict[int, object], object, int]] = []
    while active:
        e = min(active, key=lambda i: len(eqs[i][0]))
        d, c = eqs[e]
        if not d:
            return None
        active.discard(e)
        j = min(d, key=lambda v: (abs(d[v]) != 1, abs(d[v]), v))
        piv = d[j]
        solved.append((d, c, j))
        for j2 in d:
            occurs[j2].discard(e)
        for e2 in list(occurs.get(j, ())):
            d2, c2 = eqs[e2]
            factor = _divide(d2[j], piv)
            for j2, x in d.items():
                new = d2.get(j2, 0) - factor * x
                if new:
                    d2[j2] = new
                    occurs.setdefault(j2, set()).add(e2)
                elif j2 in d2:
                    del d2[j2]
                    occurs[j2].discard(e2)
            eqs[e2] = (d2, c2 - factor * c)
    values: dict[int, object] = {}
    for d, c, j in reversed(solved):
        acc = c - sum(x * values[v] for v, x in d.items() if v != j)
        values[j] = _divide(acc, d[j])
    if len(values) != n:
        return None
    return [Fraction(values[j]) for j in range(n)]


def det(rows: Matrix) -> Fraction:
    """Exact determinant of a square matrix (0 for singular input)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    eqs: list[dict[int, object]] = []
    occurs: dict[int, set[int]] = {}
    for e, row in enumerate(rows):
        d = {j: x for j, x in enumerate(row) if x}
        eqs.append(d)
        for j in d:
            occurs.setdefault(j, set()).add(e)
    active = set(range(n))
    pivots: list[tuple[int, int]] = []  # (equation index, pivot column)
    product = 1
    while active:
        e = min(active, key=lambda i: len(eqs[i]))
        d = eqs[e]
        if not d:
            return Fraction(0)
        active.discard(e)
        j = min(d, key=lambda v: (abs(d[v]) != 1, abs(d[v]), v))
        piv = d[j]
        product *= piv
        pivots.append((e, j))
        for j2 in d:
            occurs[j2].discard(e)
        for e2 in list(occurs.get(j, ())):
            d2 = eqs[e2]
            factor = _divide(d2[j], piv)
            for j2, x in d.items():
                new = d2.get(j2, 0) - factor * x
                if new:
                    d2[j2] = new
                    occurs.setdefault(j2, set()).add(e2)
                elif j2 in d2:
                    del d2[j2]
                    occurs[j2].discard(e2)
    # sign of the permutation sending equation order to pivot columns
    perm = [0] * n
    for e, j in pivots:
        perm[e] = j
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return Fraction(product * sign)


def inverse(rows: Matrix) -> tuple[list[list[int]], int]:
    """Inverse of a nonsingular square matrix as integer numerators over one denominator.

    Returns ``(N, d)`` with ``rows^-1 == N / d``, by sparse Gauss-Jordan
    elimination on ``[rows | I]`` with the shortest row as pivot.
    """
    n = len(rows)
    aug = [{j: x for j, x in enumerate(row) if x} for row in rows]
    for i, d in enumerate(aug):
        d[n + i] = 1
    for col in range(n):
        candidates = [i for i in range(col, n) if col in aug[i]]
        if not candidates:
            raise LinearAlgebraError("matrix is singular")
        best = min(candidates, key=lambda i: len(aug[i]))
        aug[col], aug[best] = aug[best], aug[col]
        piv = aug[col][col]
        pivot_row = {j: _divide(x, piv) for j, x in aug[col].items()}
        aug[col] = pivot_row
        for i, d in enumerate(aug):
            if i == col or col not in d:
                continue
            factor = d[col]
            for j, x in pivot_row.items():
                new = d.get(j, 0) - factor * x
                if new:
                    d[j] = new
                else:
                    del d[j]
    den = math.lcm(*(Fraction(x).denominator for d in aug for x in d.values()))
    return [[int(aug[i].get(n + j, 0) * den) for j in range(n)] for i in range(n)], den


def solve_affine(rows: Matrix, rhs: Sequence):
    """General solution of ``rows @ x == rhs`` over the rationals.

    Returns ``(particular, null_basis)`` where ``particular`` is supported
    on the pivot columns of the reduced system (deterministic), or ``None``
    when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(c)] for row, c in zip(rows, rhs)]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        p = aug[rank][col]
        aug[rank] = [x / p for x in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, m):
        if aug[i][n]:
            return None
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n]
    free = [j for j in range(n) if j not in pivots]
    null_basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][f]
        null_basis.append(vec)
    return particular, null_basis


def solve_in_span(basis: Matrix, targets: Matrix) -> list[list[Fraction]] | None:
    """Coefficient rows ``C`` with ``C @ basis == targets``, or None.

    ``basis`` rows must be linearly independent.
    """
    if not basis:
        if any(any(x for x in target) for target in targets):
            return None
        return [[] for _ in targets]
    bt = transpose(basis)
    coeffs = []
    for target in targets:
        sol = solve_affine(bt, list(target))
        if sol is None:
            return None
        particular, null_basis = sol
        if null_basis:
            raise LinearAlgebraError("basis rows are linearly dependent")
        coeffs.append(particular)
    return coeffs


def snf_index(sub: Matrix, sup: Matrix) -> int:
    """Group index of the lattice spanned by ``sub`` inside ``sup``.

    Both are basis rows (rational entries allowed).  Rejects rank
    mismatches and non-contained sublattices.
    """
    if len(sub) != len(sup):
        raise LinearAlgebraError("rank mismatch between sublattice and superlattice")
    coeffs = solve_in_span(sup, sub)
    if coeffs is None:
        raise LinearAlgebraError("sublattice is not contained in the superlattice span")
    scaled = []
    for row in coeffs:
        ints = []
        for x in row:
            frac = Fraction(x)
            if frac.denominator != 1:
                raise LinearAlgebraError("sublattice is not contained in the superlattice")
            ints.append(frac.numerator)
        scaled.append(ints)
    diag = snf_diagonal(scaled)
    index = 1
    for d in diag:
        if d == 0:
            raise LinearAlgebraError("rank mismatch: sublattice is rank-deficient")
        index *= d
    return index


def dual_lattice(basis: Matrix) -> list[list[Fraction]]:
    """Basis of the dual lattice ``{w : <w, v> in Z for all lattice v}``.

    ``basis`` must be square and nonsingular (full rank in its ambient
    dimension); the dual is the inverse transpose, returned HNF-canonical.
    """
    d = len(basis)
    if d == 0 or len(basis[0]) != d:
        raise LinearAlgebraError("dual lattice needs a full-rank square basis")
    dual_rows = []  # rows of (B^-1)^T are the columns of B^-1
    for i in range(d):
        rhs = [Fraction(int(j == i)) for j in range(d)]
        col = solve_square(basis, rhs)
        if col is None:
            raise LinearAlgebraError("basis is singular")
        dual_rows.append(col)
    return canonical_rational_basis(dual_rows)


def canonical_rational_basis(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """HNF-canonical representative of a rational row lattice."""
    if not rows:
        return []
    scale = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    ints = [[int(Fraction(x) * scale) for x in row] for row in rows]
    return [[Fraction(x, scale) for x in row] for row in row_basis(ints)]


def gcd_over_basis(values: Sequence[int]) -> int:
    """gcd of absolute values; 0 for empty or all-zero input."""
    return math.gcd(*(abs(v) for v in values)) if values else 0
