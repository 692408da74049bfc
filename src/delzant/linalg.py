"""Exact linear algebra over the integers and rationals.

Matrices are row-major lists of rows whose entries are Python ``int`` or
``fractions.Fraction``, so everything here is exact and overflow-free.
Lattices are represented by basis rows; the canonical representative of a
row lattice is its row Hermite normal form, and the index of a full-rank
lattice is read off its diagonal.  Square solves, determinants, ranks
and affine solutions share one fraction-free (Bareiss) elimination
kernel; the exact simplex pivots with the same step.  Its public face
``solve`` takes an integer block ``[A | B]`` with any number of riding
columns to ``|det A| * A^-1 B``; ``solve_square`` and the vertex edge
walk in ``polytopes`` call it.  ``unimodular_kernel`` is the same pass
over a wide matrix with a unimodular greedy column basis, as the normals
of a Delzant polytope have: it reads a kernel basis off the free columns,
where ``integer_kernel`` needs the HNF of the transpose with its
unimodular transform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

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
    # without a transform the rows of ``unit`` are empty, so its updates do nothing
    unit = identity(m) if transform else [[]] * m
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


def image_and_kernel(matrix: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """``(image, kernel)`` from one HNF of the transpose: the HNF basis of the
    lattice the columns of ``matrix`` span, and ``integer_kernel(matrix)``."""
    h, u = hnf(transpose(matrix), transform=True)
    kernel = [u[i] for i in range(len(h)) if not any(h[i])]
    return [r for r in h if any(r)], row_basis(kernel) if kernel else []


def integer_kernel(matrix: Matrix) -> list[list[int]]:
    """Saturated basis of ``{v : matrix @ v == 0}`` over the integers.

    Every integer kernel vector is an integer combination of the returned
    rows.  The basis is HNF-canonical; the result may have zero rows only
    if the kernel is trivial (then the list is empty).
    """
    return image_and_kernel(matrix)[1]


def unimodular_kernel(matrix: Matrix) -> list[list[int]] | None:
    """The integer kernel basis ``[-A_B^-1 A_N | I]`` when the greedy column
    basis B is unimodular, else None.

    One ``_bareiss`` pass seeks pivots first in the unit columns ``±e_r``,
    then in the rest in index order.  At full row rank with last pivot
    ``|det A_B| == 1`` the rows are ``A_B^-1 A``, and free column f gives the
    row with 1 at f and ``-row_r[f]`` at ``B[r]``.  Each integer kernel vector
    is the combination of these rows by its free entries, so they are a
    basis (not HNF) of the saturated kernel, and the columns span ``Z^k``.
    """
    rows = [list(row) for row in matrix]
    n = len(rows[0]) if rows else 0
    units = {j for j, column in enumerate(zip(*rows)) if sum(map(abs, column)) == 1}
    pivots = _bareiss(rows, sorted(units) + [j for j in range(n) if j not in units])[0]
    if len(pivots) < len(rows) or rows and rows[-1][pivots[-1]] != 1:
        return None
    kernel = []
    for f in sorted(set(range(n)).difference(pivots)):
        vector = [0] * n
        vector[f] = 1
        for row, b in zip(rows, pivots):
            vector[b] = -row[f]
        kernel.append(vector)
    return kernel


def lattice_det(basis: Matrix) -> int:
    """Determinant of a full-rank k x k HNF basis: the lattice's index in ``Z^k``.

    The basis is upper triangular with its positive pivots on the diagonal.
    """
    return math.prod(basis[i][i] for i in range(len(basis)))


def scale_to_integers(values) -> tuple[list[int], int]:
    """``(N, scale)`` with ``values == N / scale``: integer numerators over the
    lcm of the entries' denominators (a new list, and 1, for all-int input).

    Bareiss elimination divides with ``//``, which is exact on integers but
    floors a Fraction, so a rational row is cleared of denominators first;
    scaling an equation does not change its solutions.  This is the one
    place a rational vector is put over a common denominator.
    """
    for x in values:
        if type(x) is not int:
            scale = math.lcm(*(v.denominator for v in values))
            return [v.numerator * (scale // v.denominator) for v in values], scale
    return list(values), 1


def _bareiss(rows: list[list[int]], order: Iterable[int]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Bareiss's method (Math. Comp. 1968): each step multiplies by the new
    pivot and divides exactly by the previous one, so every entry stays a
    minor (or an adjugate entry) of the input and no fraction is formed.
    Pivots are sought in the columns of ``order``, in that order, each in
    the first row that has one, and made positive; the other columns
    (right-hand sides) ride along.  Afterwards row r holds the r-th pivot,
    in column ``columns[r]``, every pivot row carries the last pivot ``d``
    in its pivot column, and the pivot columns are zero elsewhere.  Returns
    ``(columns, sign)`` with ``d == sign * det`` for a nonsingular square
    input.
    """
    m = len(rows)
    columns: list[int] = []
    sign = previous = 1
    for c in order:
        r = len(columns)
        for p in range(r, m):
            if rows[p][c]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        if rows[r][c] < 0:
            # negating the pivot row keeps every division exact, and equal
            # pivots let a row with nothing to eliminate skip the step
            rows[r] = [-x for x in rows[r]]
            sign = -sign
        _eliminate(rows, r, c, previous)
        columns.append(c)
        if len(columns) == m:
            break
        previous = rows[r][c]
    return columns, sign


def _eliminate(rows: list[list[int]], r: int, c: int, previous: int) -> None:
    """Fraction-free pivot on ``rows[r][c]``, in place: each other row becomes
    ``(pivot * row - row[c] * top) // previous``, exact as every entry is a minor."""
    top = rows[r]
    pivot = top[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f:
            if i != r:
                rows[i] = [(pivot * x - f * y) // previous for x, y in zip(row, top)]
        elif pivot != previous:
            rows[i] = [pivot * x // previous for x in row]


class PivotBudgetError(LinearAlgebraError):
    """The simplex would visit more bases than its budget allows."""


def _leaving_row(tableau: list[list[int]], m: int, c: int, basis: list[int]) -> int | None:
    """Bland's ratio test: of the first m rows with a positive entry in column c, the
    least ratio of right-hand side to entry, ties to the smallest basic variable.
    Ratios are compared by cross-multiplying, as the entries are integers."""
    best = None
    for r in range(m):
        entry = tableau[r][c]
        if entry <= 0:
            continue
        if best is not None:
            lhs, rhs = tableau[r][-1] * tableau[best][c], tableau[best][-1] * entry
            if lhs > rhs or lhs == rhs and basis[r] > basis[best]:
                continue
        best = r
    return best


def simplex(rows: Matrix, rhs: Row, cost: Row | None = None, budget: int = 10**6):
    """Minimum of ``cost . y`` over ``{y >= 0 : rows @ y == rhs}``, for integer data.

    Returns ``"infeasible"``, ``"unbounded"`` or the exact minimum as a
    Fraction (0 without a cost).  A free variable is passed as two columns,
    ``y+`` and ``-y-``.  Phase 1 minimises the sum of one artificial
    variable per row.  Both phases pivot by Bland's rule, which cannot
    cycle (Math. Oper. Res. 1977): the smallest-index column with a negative
    reduced cost enters and ``_leaving_row`` picks the row.  The tableau
    holds integers over the determinant ``den`` of the basis, as in lrs
    (Avis, 2000): each pivot is ``_bareiss``'s step ``_eliminate``, whose
    division by the previous pivot is exact because every entry is a minor.
    Raises ``PivotBudgetError`` rather than visit more than ``budget`` bases.
    """
    n = len(cost) if cost is not None else len(rows[0]) if rows else 0
    tableau = [[*row, b] if b >= 0 else [-x for x in row] + [-b] for row, b in zip(rows, rhs)]
    m = len(tableau)
    # artificial variables are not stored: a basic one is the unit column of
    # its row, and one that leaves never enters again
    basis = list(range(n, n + m))
    tableau.append([-sum(column) for column in zip(*tableau)] if m else [0] * (n + 1))
    if cost is not None:
        tableau.append([*cost, 0])
    den, visited = 1, 1

    def pivot(r: int, c: int) -> None:
        nonlocal den, visited
        visited += 1
        if visited > budget:
            raise PivotBudgetError(f"simplex: more than {budget} bases")
        _eliminate(tableau, r, c, den)
        den, basis[r] = tableau[r][c], c

    while tableau[m][n]:  # -den times the sum of the artificial variables
        c = next((j for j in range(n) if tableau[m][j] < 0), None)
        if c is None:
            return "infeasible"
        pivot(_leaving_row(tableau, m, c, basis), c)
    if cost is None:
        return Fraction(0)
    del tableau[m]
    for r in range(m):
        # drive out an artificial variable left basic at zero; a row with no
        # nonzero entry is a redundant equation
        c = next((j for j in range(n) if tableau[r][j]), None) if basis[r] >= n else None
        if c is not None:
            if tableau[r][c] < 0:
                tableau[r] = [-x for x in tableau[r]]
            pivot(r, c)
    while (c := next((j for j in range(n) if tableau[m][j] < 0), None)) is not None:
        r = _leaving_row(tableau, m, c, basis)
        if r is None:
            return "unbounded"
        pivot(r, c)
    return Fraction(-tableau[m][n], den)


def solve(rows: list[list[int]], n: int) -> tuple[list[list[int]], int] | None:
    """``(N, d)`` with ``A^-1 B == N / d`` and ``d == |det A|`` for integer rows ``[A | B]``.

    ``A`` is the leading n x n block; returns None when it is singular.  The
    rows are eliminated in place: ``A`` becomes ``d * I``, so the riding
    columns, any number of them, are ``d * A^-1 B``.
    """
    if len(_bareiss(rows, range(n))[0]) < n:
        return None
    return [row[n:] for row in rows], rows[-1][n - 1] if n else 1


def rational_rank(matrix: Matrix) -> int:
    """Rank over the rationals."""
    rows = [scale_to_integers(row)[0] for row in matrix]
    return len(_bareiss(rows, range(len(rows[0]) if rows else 0))[0])


def solve_square(rows: Matrix, rhs: Sequence) -> tuple[list[int], int] | None:
    """Unique solution of a square linear system as integer numerators over one
    denominator, or None if singular.

    Returns ``(N, d)`` with ``x == N / d`` and ``d > 0``, not reduced.  For
    integer rows ``d == |det rows|``, the kernel's last pivot; a rational row
    is first scaled by its own denominator lcm, which scales ``d`` with it.
    """
    solved = solve([scale_to_integers([*row, c])[0] for row, c in zip(rows, rhs)], len(rows))
    if solved is None:
        return None
    numerators, den = solved
    return [x for x, in numerators], den


def det(rows: Matrix) -> Fraction:
    """Exact determinant of a square matrix (0 for singular input)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scaled = [scale_to_integers(row) for row in rows]
    ints = [row for row, _ in scaled]
    columns, sign = _bareiss(ints, range(n))
    if len(columns) < n:
        return Fraction(0)
    return Fraction(sign * ints[-1][-1], math.prod(scale for _, scale in scaled))


def solve_affine(rows: Matrix, rhs: Sequence):
    """General solution of ``rows @ x == rhs`` over the rationals.

    Returns ``(particular, null_basis)`` where ``particular`` is supported
    on the pivot columns of the reduced system (deterministic), or ``None``
    when the system is inconsistent.  The reduced row echelon form is
    unique, so both are read off the eliminated pivot rows over ``d``.
    """
    n = len(rows[0]) if rows else 0
    aug = [scale_to_integers([*row, c])[0] for row, c in zip(rows, rhs)]
    pivots = _bareiss(aug, range(n))[0]
    rank = len(pivots)
    if any(row[n] for row in aug[rank:]):
        return None
    den = aug[rank - 1][pivots[-1]] if rank else 1
    particular = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        particular[col] = Fraction(row[n], den)
    null_basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, col in zip(aug, pivots):
            vec[col] = Fraction(-row[f], den)
        null_basis.append(vec)
    return particular, null_basis
