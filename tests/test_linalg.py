import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import linalg

from . import primal_reference as ref


def small_matrices(max_rows=4, max_cols=5, lo=-9, hi=9):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def is_hnf(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        pivots.append(nz[0] if nz else None)
    seen = [p for p in pivots if p is not None]
    if seen != sorted(seen) or len(set(seen)) != len(seen):
        return False
    if any(p is not None for p in pivots[len(seen):]):
        return False
    for r, p in enumerate(pivots):
        if p is None:
            continue
        if h[r][p] <= 0:
            return False
        for above in range(r):
            if not 0 <= h[above][p] < h[r][p]:
                return False
    return True


class TestHnf:
    def test_two_by_two(self):
        h, u = linalg.hnf([[2, 4], [1, 1]], transform=True)
        assert h == [[1, 1], [0, 2]]
        assert ref.mat_mul(u, [[2, 4], [1, 1]]) == h
        assert abs(linalg.det(u)) == 1

    def test_identity_fixed_point(self):
        h, u = linalg.hnf(linalg.identity(3), transform=True)
        assert h == linalg.identity(3)
        assert u == linalg.identity(3)

    def test_zero_row(self):
        assert linalg.hnf([[0, 0]]) == [[0, 0]]

    def test_transform_only_on_request(self, monkeypatch):
        calls = []
        identity = linalg.identity
        monkeypatch.setattr(linalg, "identity", lambda n: calls.append(n) or identity(n))
        m = [[2, 4, 1], [1, 1, 3], [0, 6, 2]]
        h = linalg.hnf(m)
        assert calls == []
        assert linalg.hnf(m, transform=True)[0] == h
        assert calls == [3]

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_transform_is_unimodular(self, m):
        h, u = linalg.hnf(m, transform=True)
        assert ref.mat_mul(u, m) == h
        assert abs(linalg.det(u)) == 1
        assert is_hnf(h)

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, m):
        h = linalg.hnf(m)
        assert linalg.hnf(h) == h


class TestIntegerKernel:
    def test_interval_relation(self):
        assert linalg.integer_kernel([[1, -1]]) == [[1, 1]]

    def test_product_simplices_relations(self):
        # normals of the two-simplex product in R^8: e_1..e_3, -(e_1+..+e_3),
        # e_4..e_8, -(e_4+..+e_8); relation rows must span the block indicators
        p, n = 4, 10
        k_dim = n - 2
        cols = []
        for i in range(p - 1):
            cols.append([int(r == i) for r in range(k_dim)])
        cols.append([-1] * (p - 1) + [0] * (k_dim - p + 1))
        for i in range(p - 1, n - 2):
            cols.append([int(r == i) for r in range(k_dim)])
        cols.append([0] * (p - 1) + [-1] * (n - 1 - p))
        a = linalg.transpose(cols)
        kernel = linalg.integer_kernel(a)
        expected = [
            [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        ]
        assert linalg.hnf(kernel) == linalg.hnf(expected)

    def test_identity_has_trivial_kernel(self):
        assert linalg.integer_kernel(linalg.identity(4)) == []

    @given(small_matrices(max_rows=3, max_cols=4, lo=-3, hi=3))
    @settings(max_examples=60, deadline=None)
    def test_saturation_by_enumeration(self, m):
        kernel = linalg.integer_kernel(m)
        n = len(m[0])
        for v in product(range(-2, 3), repeat=n):
            if any(sum(r * x for r, x in zip(row, v)) for row in m):
                continue
            if not any(v):
                continue
            # v lies in the kernel lattice iff adding it leaves the lattice as it is
            assert linalg.row_basis([*kernel, list(v)]) == linalg.row_basis(kernel), v


class TestLatticeDet:
    def test_doubled_lattice(self):
        assert linalg.lattice_det(linalg.row_basis([[2, 0], [0, 2]])) == 4

    def test_equal_lattices(self):
        # a unimodular change of basis spans the same lattice, of the same index
        rng = random.Random(11)
        for _ in range(25):
            d = rng.choice([2, 3])
            b = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            if ref.det(b) == 0:
                continue
            mixed = ref.mat_mul(_random_unimodular(rng, d), b)
            assert linalg.lattice_det(linalg.row_basis(mixed)) == linalg.lattice_det(
                linalg.row_basis(b)
            )

    def test_index_two_sublattice(self):
        assert linalg.lattice_det(linalg.row_basis([[1, 0], [0, 2]])) == 2
        assert linalg.lattice_det(linalg.row_basis([[1, 1], [1, -1]])) == 2

    def test_multiplicative_in_towers(self):
        # a <= b <= c = Z^d, each row scaled: [c : a] = [c : b] [b : a]
        rng = random.Random(7)
        for _ in range(25):
            d = rng.choice([2, 3])
            c = _random_unimodular(rng, d)
            mid_scale = [rng.choice([1, 2, 3]) for _ in range(d)]
            sub_scale = [rng.choice([1, 2]) for _ in range(d)]
            b = [[mid_scale[i] * x for x in row] for i, row in enumerate(c)]
            a = [[sub_scale[i] * x for x in row] for i, row in enumerate(b)]
            assert linalg.lattice_det(linalg.row_basis(c)) == 1
            assert linalg.lattice_det(linalg.row_basis(b)) == math.prod(mid_scale)
            assert linalg.lattice_det(linalg.row_basis(a)) == math.prod(mid_scale) * math.prod(
                sub_scale
            )

    @given(
        st.integers(1, 4)
        .flatmap(lambda d: small_matrices(d, d, -5, 5))
        .filter(lambda m: len(m) == len(m[0]) and ref.det(m) != 0)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_determinant(self, m):
        assert linalg.lattice_det(linalg.row_basis(m)) == abs(ref.det(m))


def _random_unimodular(rng, d):
    m = linalg.identity(d)
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        q = rng.randint(-2, 2)
        for col in range(d):
            m[i][col] += q * m[j][col]
    return m


class TestScaleToIntegers:
    def test_mixed_int_and_fraction(self):
        assert linalg.scale_to_integers([1, Fraction(1, 2), Fraction(2, 3), 0]) == ([6, 3, 4, 0], 6)

    def test_all_int_returns_a_new_list(self):
        values = [3, -1, 0]
        numerators, scale = linalg.scale_to_integers(values)
        assert (numerators, scale) == ([3, -1, 0], 1)
        assert numerators is not values
        numerators.append(7)
        assert values == [3, -1, 0]

    def test_empty(self):
        assert linalg.scale_to_integers([]) == ([], 1)

    def test_negative_fractions(self):
        numerators, scale = linalg.scale_to_integers([Fraction(-3, 4), Fraction(5, -6), -2])
        assert (numerators, scale) == ([-9, -10, -24], 12)
        assert all(type(x) is int for x in numerators)

    def test_integral_fractions(self):
        numerators, scale = linalg.scale_to_integers([Fraction(4, 2), Fraction(-3)])
        assert (numerators, scale) == ([2, -3], 1)
        assert all(type(x) is int for x in numerators)


class TestSolvers:
    def test_solve_square_unique(self):
        # x = (2, 1) as numerators over d = |det| = 3, not reduced
        assert linalg.solve_square([[2, 1], [1, -1]], [5, 1]) == ([6, 3], 3)

    def test_solve_square_singular(self):
        assert linalg.solve_square([[1, 1], [2, 2]], [1, 2]) is None

    def test_solve_affine_pivot_support(self):
        particular, null = linalg.solve_affine([[1, 1, 0]], [3])
        assert particular == [Fraction(3), Fraction(0), Fraction(0)]
        assert len(null) == 2

    def test_det_matches_permanent_free_cases(self):
        rng = random.Random(3)
        for _ in range(40):
            d = rng.choice([1, 2, 3, 4])
            m = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            assert linalg.det(m) == _cofactor_det(m)


def _cofactor_det(m):
    d = len(m)
    if d == 1:
        return m[0][0]
    total = 0
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


class TestHnfCanonicality:
    def test_unique_representative_of_the_row_lattice(self):
        # premultiplying by any unimodular matrix must not change the HNF
        rng = random.Random(41)
        for _ in range(25):
            m_rows = rng.choice([2, 3])
            n_cols = rng.choice([2, 3, 4])
            m = [[rng.randint(-6, 6) for _ in range(n_cols)] for _ in range(m_rows)]
            u = _random_unimodular(rng, m_rows)
            mixed = ref.mat_mul(u, m)
            assert linalg.hnf(mixed) == linalg.hnf(m)

    def test_row_lattice_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        rng = random.Random(43)
        for _ in range(15):
            d = rng.choice([2, 3])
            m = None
            while m is None or linalg.det(m) == 0:
                m = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
            ours = linalg.row_basis(m)
            theirs = hermite_normal_form(sympy.Matrix(m).T).T.tolist()
            assert ours == linalg.row_basis(theirs)


def _square(element, max_n=5):
    """n x n matrices, n from 0, with a row made a multiple of another half the time."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        rows = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n))
        if n and draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            q = draw(element)  # q = 0 makes a zero row
            rows[i] = [q * x for x in rows[j]]
        return rows

    return build()


INTEGERS = st.integers(-6, 6)
RATIONALS = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)
ENTRIES = st.sampled_from([INTEGERS, RATIONALS])
KERNEL_SETTINGS = settings(max_examples=100, deadline=None)


class TestKernelAgainstReference:
    """The Bareiss kernel's wrappers against dense Fraction Gauss-Jordan.

    ``primal_reference`` shares no solver with ``linalg``; the inputs mix
    integer and non-integral rational entries, singular matrices (zero and
    dependent rows), 0 x 0 and zero-row inputs, and non-square ranks.
    """

    @KERNEL_SETTINGS
    @given(ENTRIES.flatmap(lambda e: st.tuples(_square(e), st.lists(e, min_size=5, max_size=5))))
    def test_solve_square(self, case):
        rows, rhs = case
        rhs = rhs[: len(rows)]
        solved = linalg.solve_square(rows, rhs)
        expected = ref.solve_square(rows, rhs)
        if expected is None:
            assert solved is None
            return
        numerators, d = solved
        assert all(type(x) is int for x in numerators)
        assert [Fraction(x, d) for x in numerators] == expected
        # d is |det| of the system, each equation scaled by its denominators' lcm
        scales = [
            math.lcm(*(Fraction(x).denominator for x in (*row, c))) for row, c in zip(rows, rhs)
        ]
        assert d == abs(ref.det(rows)) * math.prod(scales)

    @KERNEL_SETTINGS
    @given(ENTRIES.flatmap(_square))
    def test_det(self, rows):
        value = linalg.det(rows)
        assert type(value) is Fraction
        assert value == ref.det(rows)

    @KERNEL_SETTINGS
    @given(
        st.tuples(ENTRIES, st.integers(0, 5), st.integers(0, 5)).flatmap(
            lambda t: st.lists(
                st.lists(t[0], min_size=t[2], max_size=t[2]), min_size=t[1], max_size=t[1]
            )
        )
    )
    def test_rank(self, matrix):
        assert linalg.rational_rank(matrix) == ref.rank(matrix)

    @KERNEL_SETTINGS
    @given(
        st.tuples(ENTRIES, st.integers(0, 5), st.integers(0, 5)).flatmap(
            lambda t: st.tuples(
                st.lists(
                    st.lists(t[0], min_size=t[2], max_size=t[2]), min_size=t[1], max_size=t[1]
                ),
                st.lists(t[0], min_size=t[2], max_size=t[2]),
                st.lists(t[0], min_size=t[1], max_size=t[1]),
                st.booleans(),
            )
        )
    )
    def test_solve_affine(self, case):
        rows, point, other, consistent = case
        # a right-hand side in the image half the time, an arbitrary one otherwise
        rhs = [sum(x * y for x, y in zip(row, point)) for row in rows] if consistent else other
        solution = linalg.solve_affine(rows, rhs)
        assert solution == ref.solve_affine(rows, rhs)
        if solution is not None:
            particular, null_basis = solution
            assert all(type(x) is Fraction for x in particular)
            assert all(type(x) is Fraction for vec in null_basis for x in vec)


def _standard_form(rng):
    """A random ``rows @ y == rhs, y >= 0`` with a cost and free columns.

    The right-hand side is the image of a sparse y >= 0 (degenerate bases)
    or arbitrary (often infeasible); one row may repeat another's sum.
    Returns the data with each free column split into ``y+`` and ``-y-``,
    and the number of free columns at the end.
    """
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.25:
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    if rng.random() < 0.6:
        y = [rng.choice([0, 0, 1, 2]) for _ in range(n)]
        rhs = [linalg.dot(row, y) for row in rows]
    else:
        rhs = [rng.randint(-3, 3) for _ in rows]
    cost = [rng.randint(-3, 3) for _ in range(n)]
    free = rng.sample(range(n), rng.randint(0, min(2, n)))
    rows = [[*row, *(-row[j] for j in free)] for row in rows]
    return rows, rhs, [*cost, *(-cost[j] for j in free)], len(free)


class TestSimplex:
    def test_against_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(41)
        seen = {"infeasible": 0, "unbounded": 0, "minimum": 0, "free": 0}
        for _ in range(400):
            rows, rhs, cost, free = _standard_form(rng)
            for objective in (cost, None):
                got = linalg.simplex(rows, rhs, objective)
                n = len(rows[0])
                result = optimize.linprog(
                    objective or [0] * n,
                    A_eq=rows,
                    b_eq=rhs,
                    bounds=[(0, None)] * n,
                    method="highs",
                )
                if result.status == 2:
                    assert got == "infeasible", (rows, rhs, objective)
                elif result.status == 3:
                    assert got == "unbounded", (rows, rhs, objective)
                else:
                    assert result.status == 0
                    assert type(got) is Fraction
                    assert abs(float(got) - result.fun) < 1e-7, (rows, rhs, objective)
                    key = "minimum" if objective else "feasible"
                    seen[key] = seen.get(key, 0) + 1
                    seen["free"] += bool(free and objective)
                    continue
                seen[got] += 1
        assert min(seen.values()) >= 40, seen

    def test_exact_fractional_minimum(self):
        # 3 y0 + 2 y1 = 1: the least -y0 is at y0 = 1/3
        assert linalg.simplex([[3, 2]], [1], [-1, 0]) == Fraction(-1, 3)

    def test_no_rows(self):
        assert linalg.simplex([], [], [2, 0]) == 0
        assert linalg.simplex([], [], [2, -1]) == "unbounded"

    def test_redundant_equation_keeps_an_artificial_basic(self):
        # the second row is twice the first; its artificial variable stays
        # basic at zero and the minimum is still found
        assert linalg.simplex([[1, 1], [2, 2]], [2, 4], [1, 3]) == 2

    def test_budget(self):
        # Bland's rule walks y0, y1, y2 in turn after the artificial start
        with pytest.raises(linalg.PivotBudgetError):
            linalg.simplex([[1, 1, 1]], [1], [-1, -2, -3], budget=3)
        assert linalg.simplex([[1, 1, 1]], [1], [-1, -2, -3], budget=4) == -3

    # cycles without Bland's tie-break: every right-hand side is 0, so each
    # ratio test is a tie between all rows with a positive entry
    CYCLING = (
        [[-2, 2, -1, 1, 1, 3, -2], [1, -2, 2, -2, 2, 3, -1], [1, -1, 3, 3, 2, 3, -3]],
        [0, 0, 0],
        [3, 2, 0, -1, 3, 0, -3],
    )

    def test_dropping_the_leaving_tie_break_cycles_into_the_budget(self, monkeypatch):
        assert linalg.simplex(*self.CYCLING, budget=20) == "unbounded"

        def first_row_on_ties(tableau, m, c, basis):
            rows = [r for r in range(m) if tableau[r][c] > 0]
            return min(rows, key=lambda r: Fraction(tableau[r][-1], tableau[r][c]), default=None)

        monkeypatch.setattr(linalg, "_leaving_row", first_row_on_ties)
        # 10 columns in 3 rows have at most C(10, 3) = 120 bases
        with pytest.raises(linalg.PivotBudgetError):
            linalg.simplex(*self.CYCLING, budget=1000)
