import math
import random
from fractions import Fraction

import pytest

from delzant import linalg
from delzant.families import recognize_topology
from delzant.invariants import (
    InvariantError,
    LoopLattice,
    deck_data,
    doubled_loop_lattice,
    fano_monotone_crosscheck,
    loop_lattice,
    maslov_area_report,
    t_vector,
)
from delzant.oracle import TorusLoop, closed_form_area
from delzant.polytopes import HPolytope, redundancy, structure_report
from delzant.quadrics import QuadricSystem, polytope_to_quadrics, quadrics_to_polytope
from . import primal_reference as ref
from .test_polytopes import interval, product_simplices, redundant_simplex


def circle_system():
    return QuadricSystem(((1, 1),), (Fraction(2),))


def analyze(poly):
    q = polytope_to_quadrics(poly)
    strict = sorted(i for i, s in redundancy(poly).items() if s)
    loops = loop_lattice(q, strict)
    return q, loops, maslov_area_report(q, loops)


class TestDeckData:
    """The columns of a saturated ``Gamma`` span ``Z^m``, so the dual basis is
    the standard one and the pairings are ``Gamma``; any other ``Gamma`` is
    refused."""

    def test_product_family_dual_is_standard(self):
        q = polytope_to_quadrics(product_simplices(4, 10, 2))
        assert deck_data(q) is None
        assert q.saturated_gamma is q.gamma
        assert q.gamma == ((1, 1, 1, 1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 1, 1, 1, 1, 1, 1))
        assert q.delta == (4, 8)

    def test_doubled_coefficients(self):
        # the columns span 2Z, whose dual (1/2)Z has classes that Z misses
        q = QuadricSystem(((2, 2, 2),), (Fraction(4),))
        with pytest.raises(InvariantError, match=r"quadrics_to_polytope\(system\)"):
            deck_data(q)
        saturated = polytope_to_quadrics(quadrics_to_polytope(q))
        assert saturated == QuadricSystem(((1, 1, 1),), (Fraction(2),))
        assert saturated.saturated_gamma == ((1, 1, 1),)

    def test_index_two_sublattice_rejected(self):
        # the columns (1, 1), (1, -1) and (0, 2) span {(a, b) : a + b even}
        q = QuadricSystem(((1, 1, 0), (1, -1, 2)), (Fraction(1), Fraction(1)))
        assert linalg.lattice_det(linalg.row_basis([list(c) for c in q.columns()])) == 2
        with pytest.raises(InvariantError, match="not saturated"):
            q.saturated_gamma

    def test_round_trip_saturates_a_refused_system(self):
        for q in (
            QuadricSystem(((1, 1, 0), (1, -1, 2)), (Fraction(1), Fraction(1))),
            QuadricSystem(((3, 0, 3), (0, 2, 2)), (Fraction(3), Fraction(5, 2))),
        ):
            with pytest.raises(InvariantError, match="not saturated"):
                deck_data(q)
            saturated = polytope_to_quadrics(quadrics_to_polytope(q))
            assert deck_data(saturated) is None
            assert saturated.saturated_gamma == saturated.gamma

    def test_circle(self):
        q = circle_system()
        assert deck_data(q) is None
        assert q.saturated_gamma == ((1, 1),)

    def test_empty_system(self):
        q = QuadricSystem((), ())
        assert deck_data(q) is None
        assert q.saturated_gamma == ()

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvariantError, match="rank-deficient"):
            deck_data(QuadricSystem(((1, 1), (1, 1)), (Fraction(1), Fraction(1))))


class TestEveryConsumerGuards:
    """Each reader of ``Gamma`` goes through ``saturated_gamma``, so each refuses
    a ``Gamma`` whose columns do not span ``Z^m`` with the check's own message,
    on a fresh system that no other reader has checked first."""

    SYSTEMS = {
        "sublattice": (((2, 2, 2),), r"not saturated.*quadrics_to_polytope\(system\)"),
        "rank-deficient": (((1, 1), (1, 1)), "rank-deficient"),
    }
    CONSUMERS = {
        "loop_lattice": lambda q: loop_lattice(q, []),
        "doubled_loop_lattice": doubled_loop_lattice,
        "maslov_area_report": lambda q: maslov_area_report(q, LoopLattice((), 1)),
        "recognize_topology": recognize_topology,
        "closed_form_area": lambda q: closed_form_area(q, TorusLoop((1,) * q.m)),
    }

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_refused(self, system, consumer):
        gamma, message = self.SYSTEMS[system]
        q = QuadricSystem(gamma, (Fraction(1),) * len(gamma))
        with pytest.raises(InvariantError, match=message):
            self.CONSUMERS[consumer](q)


class TestLoopLattice:
    def test_no_redundancy_gives_full_dual(self):
        q = polytope_to_quadrics(product_simplices(4, 10, 2))
        loops = loop_lattice(q, [])
        assert loops.basis == ((1, 0), (0, 1))
        assert loops.index_in_dual == 1

    def test_redundant_family_parity(self):
        q = polytope_to_quadrics(redundant_simplex(5, 2))
        assert q.column(4) == (0, 1)
        loops = loop_lattice(q, [4])
        assert loops.basis == ((1, 0), (0, 2))
        assert loops.index_in_dual == 2

    def test_two_redundant_columns(self):
        # columns (1,0) and (0,1) both constrained: parity on both coordinates
        q = QuadricSystem(
            ((1, 1, 0, 1, 0), (1, 0, 1, 0, 1)),
            (Fraction(3), Fraction(3)),
        )
        loops = loop_lattice(q, [3, 4])
        assert loops.basis == ((2, 0), (0, 2))
        assert loops.index_in_dual == 4

    def test_fallback_doubled(self):
        loops = doubled_loop_lattice(circle_system())
        assert loops.basis == ((2,),) and not loops.known


class TestMaslovAreaReport:
    def test_product_family(self):
        _, loops, report = analyze(product_simplices(4, 10, 2))
        assert report.t_vector == (4, 8)
        assert report.maslov_values == (4, 8)
        assert report.area_coeffs == (Fraction(2), Fraction(4))
        assert report.minimal_maslov == 4
        assert report.monotone and report.monotonicity_coeff == Fraction(1, 2)
        assert report.counterexample is None

    def test_redundant_family(self):
        _, loops, report = analyze(redundant_simplex(5, 2))
        assert report.t_vector == (4, 3)
        assert loops.basis == ((1, 0), (0, 2))
        assert report.maslov_values == (4, 6)
        assert report.minimal_maslov == 2
        # the closed-form areas are (2, 6): not proportional to (4, 6)
        assert report.area_coeffs == (Fraction(2), Fraction(6))
        assert not report.monotone and report.monotonicity_coeff is None
        assert report.counterexample == (0, 2)

    def test_redundant_family_general_values(self):
        for n, k in [(9, 4), (13, 8), (31, 24)]:
            _, loops, report = analyze(redundant_simplex(n, k))
            assert report.maslov_values == (n - 1, 2 * k + 2)
            assert report.minimal_maslov == math.gcd(n - 1, 2 * k + 2)

    def test_circle(self):
        q = circle_system()
        loops = loop_lattice(q, [])
        report = maslov_area_report(q, loops)
        assert report.t_vector == (2,)
        assert report.minimal_maslov == 2
        assert report.monotone and report.monotonicity_coeff == Fraction(1, 2)

    def test_zero_maslov_with_area_is_not_monotone(self):
        q = QuadricSystem(((1, -1),), (Fraction(1),))
        loops = loop_lattice(q, [])
        report = maslov_area_report(q, loops)
        assert report.t_vector == (0,)
        assert report.maslov_values == (0,)
        assert not report.monotone

    def test_fano_identity_exact(self):
        # offsets all equal C: delta = C*t, so areas are (C/2) * maslov
        for p, n, k in [(4, 8, 0), (4, 10, 2), (6, 12, 4)]:
            poly = product_simplices(p, n, k)
            q = polytope_to_quadrics(poly)
            assert q.delta == tuple(Fraction(t) for t in t_vector(q))
            _, _, report = analyze(poly)
            assert report.monotone and report.monotonicity_coeff == Fraction(1, 2)

    def test_translation_invariance_bit_exact(self):
        poly = product_simplices(4, 8, 2)
        shift = (3, -1, 2, 0, -2, 1)
        moved = HPolytope(
            poly.dim,
            poly.normals,
            tuple(b + linalg.dot(a, shift) for a, b in zip(poly.normals, poly.offsets)),
        )
        assert analyze(poly)[2] == analyze(moved)[2]

    def test_basis_independence_of_invariants(self):
        rng = random.Random(17)
        poly = redundant_simplex(7, 4)
        q = polytope_to_quadrics(poly)
        strict = sorted(i for i, s in redundancy(poly).items() if s)
        base = maslov_area_report(q, loop_lattice(q, strict))
        for _ in range(8):
            u = _random_unimodular(rng, q.m)
            gamma = tuple(
                tuple(linalg.dot(row, col) for col in zip(*q.gamma)) for row in u
            )
            delta = tuple(
                sum((Fraction(x) * d for x, d in zip(row, q.delta)), Fraction(0))
                for row in u
            )
            mixed = QuadricSystem(gamma, delta)
            report = maslov_area_report(mixed, loop_lattice(mixed, strict))
            assert report.minimal_maslov == base.minimal_maslov
            assert report.monotone == base.monotone
            assert report.monotonicity_coeff == base.monotonicity_coeff

    def test_doubled_loop_identity_on_rational_points(self):
        # sum_j u_j^2 <gamma_j, v> = <v, delta> for exact points u^2 = slacks
        poly = product_simplices(4, 8, 2)
        q = polytope_to_quadrics(poly)
        from delzant.polytopes import enumerate_vertices

        vs = enumerate_vertices(poly)
        center = [
            sum((ref.point(poly, v)[i] for v in vs.vertices), Fraction(0)) / len(vs.vertices)
            for i in range(poly.dim)
        ]
        squares = [linalg.dot(a, center) + b for a, b in zip(poly.normals, poly.offsets)]
        # the generator e_p pairs with column j as gamma[p][j], and with delta as delta_p
        for row, value in zip(q.saturated_gamma, q.delta):
            assert linalg.dot(squares, row) == value

    def test_assumption_flags(self):
        _, _, report = analyze(redundant_simplex(5, 2))
        assert any("doubled" in a for a in report.assumptions)
        q = circle_system()
        fallback = maslov_area_report(q, doubled_loop_lattice(q))
        assert any("undetermined" in a for a in fallback.assumptions)


def _random_unimodular(rng, d):
    m = linalg.identity(d)
    for _ in range(4 * d):
        i, j = rng.sample(range(d), 2)
        f = rng.randint(-2, 2)
        for col in range(d):
            m[i][col] += f * m[j][col]
    return m


class TestMinimalMaslov:
    """N_L is the gcd of the Maslov values on the loop basis, 0 when they all vanish."""

    def test_pair(self):
        _, _, report = analyze(product_simplices(4, 10, 2))
        assert report.maslov_values == (4, 8) and report.minimal_maslov == 4

    def test_mixed_pair(self):
        q, loops, report = analyze(redundant_simplex(13, 8))
        assert report.maslov_values == (12, 18) and report.minimal_maslov == 6
        # the same lattice on a basis with a negative Maslov value
        other = maslov_area_report(q, LoopLattice(((1, 0), (-2, 2)), loops.index_in_dual))
        assert other.maslov_values == (12, -6) and other.minimal_maslov == 6

    def test_empty(self):
        q = QuadricSystem((), ())
        report = maslov_area_report(q, loop_lattice(q, []))
        assert report.loop_basis == () and report.minimal_maslov == 0

    def test_all_zero(self):
        q = QuadricSystem(((1, -1, 0, 0), (0, 0, 1, -1)), (Fraction(1), Fraction(1)))
        report = maslov_area_report(q, loop_lattice(q, []))
        assert report.maslov_values == (0, 0) and report.minimal_maslov == 0


class TestCrosscheck:
    def test_product_family_agrees_true(self):
        poly = product_simplices(4, 10, 2)
        _, _, report = analyze(poly)
        assert fano_monotone_crosscheck(structure_report(poly), report) is True
        assert report.monotone

    def test_stretched_offsets_agree_false(self):
        poly = product_simplices(4, 10, 2)
        offsets = poly.offsets[:-1] + (Fraction(2),)
        stretched = HPolytope(poly.dim, poly.normals, offsets)
        _, _, report = analyze(stretched)
        assert not report.monotone
        assert fano_monotone_crosscheck(structure_report(stretched), report) is True

    def test_interval_agrees_true(self):
        poly = interval()
        _, _, report = analyze(poly)
        assert report.monotone
        assert fano_monotone_crosscheck(structure_report(poly), report) is True

    def test_redundant_family_not_applicable(self):
        poly = redundant_simplex(5, 2)
        _, _, report = analyze(poly)
        assert fano_monotone_crosscheck(structure_report(poly), report) is None


class TestLoopParityInvariant:
    def test_basis_pairs_evenly_with_redundant_columns(self):
        # every loop-basis vector must pair evenly with each strict slack column
        for n, k in [(5, 2), (9, 4), (13, 8), (17, 10)]:
            poly = redundant_simplex(n, k)
            q = polytope_to_quadrics(poly)
            strict = sorted(i for i, s in redundancy(poly).items() if s)
            loops = loop_lattice(q, strict)
            assert q.saturated_gamma == q.gamma
            for coords in loops.basis:
                for s in strict:
                    assert linalg.dot(coords, q.column(s)) % 2 == 0


class TestCoordinateChangeInvariance:
    def test_unimodular_normal_change_is_bit_identical(self):
        # transforming the normals by GL(k, Z) leaves the relation space,
        # hence the entire invariant report, unchanged
        rng = random.Random(29)
        poly = product_simplices(4, 10, 2)
        base = analyze(poly)[2]
        for _ in range(5):
            m = _random_unimodular(rng, poly.dim)
            normals = tuple(
                tuple(linalg.dot(row, a) for row in m) for a in poly.normals
            )
            moved = HPolytope(poly.dim, normals, poly.offsets)
            assert analyze(moved)[2] == base


class TestLoopIndexBruteForce:
    def test_index_counts_parity_solutions(self):
        # [dual : loops] = 2^d / #{c in {0,1}^d : parity constraints hold}
        from itertools import product as iproduct

        rng = random.Random(37)
        checked = 0
        while checked < 20:
            # a draw whose columns span less than Z^d is refused, and redrawn
            d = rng.choice([1, 2, 3])
            n = d + rng.randint(1, 3)
            gamma = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d))
            q = QuadricSystem(gamma, tuple(Fraction(1) for _ in range(d)))
            try:
                assert q.saturated_gamma == gamma
            except InvariantError:
                continue
            strict = sorted(rng.sample(range(n), rng.randint(0, min(2, n))))
            loops = loop_lattice(q, strict)
            even = [
                list(bits)
                for bits in iproduct((0, 1), repeat=d)
                if all(linalg.dot(bits, q.column(s)) % 2 == 0 for s in strict)
            ]
            assert loops.index_in_dual == 2 ** d // len(even)
            # the loops are the even {0,1} classes plus the doubled lattice
            doubled = [[2 * x for x in row] for row in linalg.identity(d)]
            assert [list(v) for v in loops.basis] == linalg.row_basis(even + doubled)
            checked += 1


class TestIntegerAreaPairings:
    def test_delta_pairings_and_areas_match_fraction_dot_products(self):
        # the report's integer numerators over one denominator against
        # Fraction dot products, on random Gamma with rational delta; a Gamma
        # whose columns span less than Z^d is refused and skipped
        rng = random.Random(41)
        checked = 0
        for _ in range(40):
            d = rng.choice([1, 2, 3])
            n = d + rng.randint(1, 3)
            gamma = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d))
            delta = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d))
            q = QuadricSystem(gamma, delta)
            try:
                deck_data(q)
            except InvariantError:
                continue
            numerators, den = linalg.scale_to_integers(q.delta)
            assert all(type(x) is int for x in numerators) and den > 0
            # <e_p, delta> is delta_p
            expected = list(delta)
            assert [Fraction(x, den) for x in numerators] == expected
            loops = loop_lattice(q, sorted(rng.sample(range(n), rng.randint(0, 1))))
            report = maslov_area_report(q, loops)
            assert report.area_coeffs == tuple(
                linalg.dot(coords, expected) / 2 for coords in loops.basis
            )
            checked += 1
        assert checked >= 20
