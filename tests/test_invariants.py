import random
from fractions import Fraction

import pytest

from delzant import linalg
from delzant.invariants import (
    InvariantError,
    deck_data,
    doubled_loop_lattice,
    fano_monotone_crosscheck,
    loop_lattice,
    maslov_area_report,
    t_vector,
)
from delzant.polytopes import HPolytope, redundancy, structure_report
from delzant.quadrics import QuadricSystem, polytope_to_quadrics
from .test_polytopes import interval, product_simplices, redundant_simplex


def circle_system():
    return QuadricSystem(((1, 1),), (Fraction(2),))


def analyze(poly):
    q = polytope_to_quadrics(poly)
    deck = deck_data(q)
    strict = sorted(i for i, s in redundancy(poly).items() if s)
    loops = loop_lattice(deck, q, strict)
    return q, deck, loops, maslov_area_report(deck, q, loops)


class TestDeckData:
    def test_product_family_dual_is_standard(self):
        q = polytope_to_quadrics(product_simplices(4, 10, 2))
        deck = deck_data(q)
        assert deck.rank == 2 and deck.deck_order == 4
        assert deck.lattice_basis == ((1, 0), (0, 1))
        assert deck.dual_basis == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        )

    def test_doubled_coefficients(self):
        deck = deck_data(QuadricSystem(((2, 2, 2),), (Fraction(4),)))
        assert deck.lattice_basis == ((2,),)
        assert deck.dual_basis == ((Fraction(1, 2),),)

    def test_circle(self):
        deck = deck_data(circle_system())
        assert deck.lattice_basis == ((1,),)
        assert deck.dual_basis == ((Fraction(1),),)

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvariantError, match="rank-deficient"):
            deck_data(QuadricSystem(((1, 1), (1, 1)), (Fraction(1), Fraction(1))))


class TestLoopLattice:
    def test_no_redundancy_gives_full_dual(self):
        q = polytope_to_quadrics(product_simplices(4, 10, 2))
        deck = deck_data(q)
        loops = loop_lattice(deck, q, [])
        assert loops.basis == ((1, 0), (0, 1))
        assert loops.index_in_dual == 1

    def test_redundant_family_parity(self):
        q = polytope_to_quadrics(redundant_simplex(5, 2))
        deck = deck_data(q)
        assert q.column(4) == (0, 1)
        loops = loop_lattice(deck, q, [4])
        assert loops.basis == ((1, 0), (0, 2))
        assert loops.index_in_dual == 2

    def test_two_redundant_columns(self):
        # columns (1,0) and (0,1) both constrained: parity on both coordinates
        q = QuadricSystem(
            ((1, 1, 0, 1, 0), (1, 0, 1, 0, 1)),
            (Fraction(3), Fraction(3)),
        )
        deck = deck_data(q)
        loops = loop_lattice(deck, q, [3, 4])
        assert loops.basis == ((2, 0), (0, 2))
        assert loops.index_in_dual == 4
        assert loops.index_in_dual == linalg.snf_index(
            [list(r) for r in loops.basis], linalg.identity(2)
        )

    def test_fallback_doubled(self):
        deck = deck_data(circle_system())
        loops = doubled_loop_lattice(deck)
        assert loops.basis == ((2,),) and not loops.known


class TestMaslovAreaReport:
    def test_product_family(self):
        _, _, loops, report = analyze(product_simplices(4, 10, 2))
        assert report.t_vector == (4, 8)
        assert report.maslov_values == (4, 8)
        assert report.area_coeffs == (Fraction(2), Fraction(4))
        assert report.minimal_maslov == 4
        assert report.monotone and report.monotonicity_coeff == Fraction(1, 2)
        assert report.counterexample is None

    def test_redundant_family(self):
        _, _, loops, report = analyze(redundant_simplex(5, 2))
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
            _, _, loops, report = analyze(redundant_simplex(n, k))
            assert report.maslov_values == (n - 1, 2 * k + 2)
            assert report.minimal_maslov == linalg.gcd_over_basis([n - 1, 2 * k + 2])

    def test_circle(self):
        q = circle_system()
        deck = deck_data(q)
        loops = loop_lattice(deck, q, [])
        report = maslov_area_report(deck, q, loops)
        assert report.t_vector == (2,)
        assert report.minimal_maslov == 2
        assert report.monotone and report.monotonicity_coeff == Fraction(1, 2)

    def test_zero_maslov_with_area_is_not_monotone(self):
        q = QuadricSystem(((1, -1),), (Fraction(1),))
        deck = deck_data(q)
        loops = loop_lattice(deck, q, [])
        report = maslov_area_report(deck, q, loops)
        assert report.t_vector == (0,)
        assert report.maslov_values == (0,)
        assert not report.monotone

    def test_fano_identity_exact(self):
        # offsets all equal C: delta = C*t, so areas are (C/2) * maslov
        for p, n, k in [(4, 8, 0), (4, 10, 2), (6, 12, 4)]:
            poly = product_simplices(p, n, k)
            q = polytope_to_quadrics(poly)
            assert q.delta == tuple(Fraction(t) for t in t_vector(q))
            _, _, _, report = analyze(poly)
            assert report.monotone and report.monotonicity_coeff == Fraction(1, 2)

    def test_translation_invariance_bit_exact(self):
        poly = product_simplices(4, 8, 2)
        shift = (3, -1, 2, 0, -2, 1)
        moved = HPolytope(
            poly.dim,
            poly.normals,
            tuple(b + linalg.dot(a, shift) for a, b in zip(poly.normals, poly.offsets)),
        )
        assert analyze(poly)[3] == analyze(moved)[3]

    def test_basis_independence_of_invariants(self):
        rng = random.Random(17)
        poly = redundant_simplex(7, 4)
        q = polytope_to_quadrics(poly)
        deck = deck_data(q)
        strict = sorted(i for i, s in redundancy(poly).items() if s)
        base = maslov_area_report(deck, q, loop_lattice(deck, q, strict))
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
            deck2 = deck_data(mixed)
            report = maslov_area_report(deck2, mixed, loop_lattice(deck2, mixed, strict))
            assert report.minimal_maslov == base.minimal_maslov
            assert report.monotone == base.monotone
            assert report.monotonicity_coeff == base.monotonicity_coeff

    def test_doubled_loop_identity_on_rational_points(self):
        # sum_j u_j^2 <gamma_j, v> = <v, delta> for exact points u^2 = slacks
        poly = product_simplices(4, 8, 2)
        q = polytope_to_quadrics(poly)
        deck = deck_data(q)
        from delzant.polytopes import enumerate_vertices

        vs = enumerate_vertices(poly)
        center = [
            sum((v.point[i] for v in vs.vertices), Fraction(0)) / len(vs.vertices)
            for i in range(poly.dim)
        ]
        squares = [linalg.dot(a, center) + b for a, b in zip(poly.normals, poly.offsets)]
        for coords in linalg.identity(deck.rank):
            vector = [
                sum(
                    (Fraction(c) * eps[r] for c, eps in zip(coords, deck.dual_basis)),
                    Fraction(0),
                )
                for r in range(deck.rank)
            ]
            lhs = sum(
                (sq * linalg.dot(vector, q.column(j)) for j, sq in enumerate(squares)),
                Fraction(0),
            )
            assert lhs == linalg.dot(vector, q.delta)

    def test_assumption_flags(self):
        _, _, _, report = analyze(redundant_simplex(5, 2))
        assert any("doubled" in a for a in report.assumptions)
        q = circle_system()
        deck = deck_data(q)
        fallback = maslov_area_report(deck, q, doubled_loop_lattice(deck))
        assert any("undetermined" in a for a in fallback.assumptions)


def _random_unimodular(rng, d):
    m = linalg.identity(d)
    for _ in range(4 * d):
        i, j = rng.sample(range(d), 2)
        f = rng.randint(-2, 2)
        for col in range(d):
            m[i][col] += f * m[j][col]
    return m


class TestCrosscheck:
    def test_product_family_agrees_true(self):
        poly = product_simplices(4, 10, 2)
        _, _, _, report = analyze(poly)
        assert fano_monotone_crosscheck(structure_report(poly), report) is True
        assert report.monotone

    def test_stretched_offsets_agree_false(self):
        poly = product_simplices(4, 10, 2)
        offsets = poly.offsets[:-1] + (Fraction(2),)
        stretched = HPolytope(poly.dim, poly.normals, offsets)
        _, _, _, report = analyze(stretched)
        assert not report.monotone
        assert fano_monotone_crosscheck(structure_report(stretched), report) is True

    def test_interval_agrees_true(self):
        poly = interval()
        _, _, _, report = analyze(poly)
        assert report.monotone
        assert fano_monotone_crosscheck(structure_report(poly), report) is True

    def test_redundant_family_not_applicable(self):
        poly = redundant_simplex(5, 2)
        _, _, _, report = analyze(poly)
        assert fano_monotone_crosscheck(structure_report(poly), report) is None


class TestLoopParityInvariant:
    def test_basis_pairs_evenly_with_redundant_columns(self):
        # every loop-basis vector must pair evenly with each strict slack column
        for n, k in [(5, 2), (9, 4), (13, 8), (17, 10)]:
            poly = redundant_simplex(n, k)
            q = polytope_to_quadrics(poly)
            deck = deck_data(q)
            strict = sorted(i for i, s in redundancy(poly).items() if s)
            loops = loop_lattice(deck, q, strict)
            for coords in loops.basis:
                vector = [
                    sum(
                        (Fraction(c) * eps[r] for c, eps in zip(coords, deck.dual_basis)),
                        Fraction(0),
                    )
                    for r in range(deck.rank)
                ]
                for s in strict:
                    pairing = linalg.dot(vector, q.column(s))
                    assert Fraction(pairing).denominator == 1
                    assert int(pairing) % 2 == 0


class TestCoordinateChangeInvariance:
    def test_unimodular_normal_change_is_bit_identical(self):
        # transforming the normals by GL(k, Z) leaves the relation space,
        # hence the entire invariant report, unchanged
        rng = random.Random(29)
        poly = product_simplices(4, 10, 2)
        base = analyze(poly)[3]
        for _ in range(5):
            m = _random_unimodular(rng, poly.dim)
            normals = tuple(
                tuple(linalg.dot(row, a) for row in m) for a in poly.normals
            )
            moved = HPolytope(poly.dim, normals, poly.offsets)
            assert analyze(moved)[3] == base


class TestLoopIndexBruteForce:
    def test_index_counts_parity_solutions(self):
        # [dual : loops] = 2^d / #{c in {0,1}^d : parity constraints hold}
        from itertools import product as iproduct

        rng = random.Random(37)
        for _ in range(20):
            d = rng.choice([1, 2, 3])
            n = d + rng.randint(1, 3)
            gamma = None
            while gamma is None or linalg.rational_rank([list(r) for r in gamma]) < d:
                gamma = tuple(
                    tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)
                )
            q = QuadricSystem(gamma, tuple(Fraction(1) for _ in range(d)))
            try:
                deck = deck_data(q)
            except InvariantError:
                continue
            strict = sorted(rng.sample(range(n), rng.randint(0, min(2, n))))
            loops = loop_lattice(deck, q, strict)
            count = 0
            for bits in iproduct((0, 1), repeat=deck.rank):
                vector = [
                    sum(
                        (Fraction(c) * eps[r] for c, eps in zip(bits, deck.dual_basis)),
                        Fraction(0),
                    )
                    for r in range(deck.rank)
                ]
                if all(int(linalg.dot(vector, q.column(s))) % 2 == 0 for s in strict):
                    count += 1
            assert loops.index_in_dual == 2 ** deck.rank // count
