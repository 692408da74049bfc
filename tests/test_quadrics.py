import random
from fractions import Fraction

import pytest

from delzant import linalg
from delzant.polytopes import (
    HPolytope,
    PolytopeFormatError,
    enumerate_vertices,
    structure_report,
)
from delzant.quadrics import (
    QuadricError,
    QuadricSystem,
    augmented_canonical,
    nondegeneracy,
    parse_quadrics,
    polytope_to_quadrics,
    quadrics_to_json,
    quadrics_to_polytope,
)
from .test_polytopes import interval, product_simplices, redundant_simplex, simplex


class TestForward:
    def test_interval_gives_circle(self):
        q = polytope_to_quadrics(interval())
        assert q.gamma == ((1, 1),)
        assert q.delta == (Fraction(2),)

    def test_product_family_spans_block_quadrics(self):
        q = polytope_to_quadrics(product_simplices(4, 10, 2))
        # row span must match u_1^2+..+u_4^2 = 4 and u_1^2+u_2^2+u_5^2+..+u_10^2 = 8
        expected = QuadricSystem(
            (
                (1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
                (1, 1, 0, 0, 1, 1, 1, 1, 1, 1),
            ),
            (Fraction(4), Fraction(8)),
        )
        assert augmented_canonical(q) == augmented_canonical(expected)
        # the slack-ordered canonical form reproduces the block rows exactly
        assert q.gamma == expected.gamma and q.delta == expected.delta

    def test_redundant_family_values(self):
        q = polytope_to_quadrics(redundant_simplex(5, 2))
        assert q.gamma == ((1, 1, 1, 1, 0), (1, 1, 0, 0, 1))
        assert q.delta == (Fraction(4), Fraction(6))

    def test_rank_deficient_rejected(self):
        strip = HPolytope(2, ((1, 0), (-1, 0)), (Fraction(1), Fraction(1)))
        with pytest.raises(QuadricError, match="rank"):
            polytope_to_quadrics(strip)

    def test_delta_can_be_rational(self):
        poly = HPolytope(1, ((1,), (-1,)), (Fraction(1, 3), Fraction(1, 2)))
        q = polytope_to_quadrics(poly)
        assert q.delta == (Fraction(5, 6),)


class TestBackward:
    def test_circle_system(self):
        poly = quadrics_to_polytope(QuadricSystem(((1, 1),), (Fraction(2),)))
        assert poly.dim == 1 and poly.n == 2
        vs = enumerate_vertices(poly)
        points = sorted(v.point[0] for v in vs.vertices)
        assert points[1] - points[0] == 2  # an interval of length 2, up to translation

    def test_redundant_simplex_shape(self):
        q = polytope_to_quadrics(redundant_simplex(5, 2))
        poly = quadrics_to_polytope(q)
        assert poly.dim == 3 and poly.n == 5
        report = structure_report(poly)
        assert report.simple and report.delzant
        assert len(report.redundant) == 1

    def test_point_system(self):
        poly = quadrics_to_polytope(QuadricSystem(((1,),), (Fraction(1),)))
        assert poly.dim == 0 and poly.n == 1
        assert poly.offsets == (Fraction(1),)

    def test_inconsistent_rejected(self):
        with pytest.raises(QuadricError, match="inconsistent|rank"):
            quadrics_to_polytope(
                QuadricSystem(((1, 1), (2, 2)), (Fraction(1), Fraction(3)))
            )

    def test_rank_deficient_rejected(self):
        with pytest.raises(QuadricError, match="rank"):
            quadrics_to_polytope(
                QuadricSystem(((1, 1), (2, 2)), (Fraction(1), Fraction(2)))
            )


class TestRoundTrips:
    def test_quadrics_polytope_quadrics(self):
        for q in [
            polytope_to_quadrics(product_simplices(4, 10, 2)),
            polytope_to_quadrics(redundant_simplex(7, 4)),
            QuadricSystem(((1, 1),), (Fraction(2),)),
        ]:
            back = polytope_to_quadrics(quadrics_to_polytope(q))
            assert back.gamma == q.gamma
            assert back.delta == q.delta

    def test_polytope_quadrics_polytope_combinatorics(self):
        for poly in [product_simplices(4, 8, 2), redundant_simplex(5, 2), simplex(3)]:
            back = quadrics_to_polytope(polytope_to_quadrics(poly))
            vs, vs_back = enumerate_vertices(poly), enumerate_vertices(back)
            assert len(vs.vertices) == len(vs_back.vertices)
            assert sorted(len(v.active) for v in vs.vertices) == sorted(
                len(v.active) for v in vs_back.vertices
            )
            assert sorted(v.active for v in vs.vertices) == sorted(
                v.active for v in vs_back.vertices
            )

    def test_normal_lattices_unimodular_equivalent(self):
        poly = product_simplices(4, 8, 0)
        back = quadrics_to_polytope(polytope_to_quadrics(poly))
        rows_a = [list(a) for a in poly.normals]
        rows_b = [list(a) for a in back.normals]
        coeffs = linalg.solve_in_span(
            linalg.row_basis(rows_b), linalg.row_basis(rows_a)
        )
        assert coeffs is not None
        assert all(Fraction(c).denominator == 1 for row in coeffs for c in row)
        assert abs(linalg.det(coeffs)) == 1


class TestBasisIndependence:
    def test_any_saturated_kernel_basis_gives_same_canonical_system(self):
        rng = random.Random(9)
        poly = product_simplices(4, 10, 2)
        q = polytope_to_quadrics(poly)
        for _ in range(10):
            u = _random_unimodular(rng, q.m)
            gamma = tuple(
                tuple(linalg.dot(row, col) for col in zip(*q.gamma)) for row in u
            )
            delta = tuple(
                sum((Fraction(x) * d for x, d in zip(row, q.delta)), Fraction(0))
                for row in u
            )
            mixed = QuadricSystem(gamma, delta)
            assert augmented_canonical(mixed) == augmented_canonical(q)
            back = polytope_to_quadrics(quadrics_to_polytope(mixed))
            assert back == q


def _random_unimodular(rng, d):
    m = linalg.identity(d)
    for _ in range(4 * d):
        i, j = rng.sample(range(d), 2)
        q = rng.randint(-2, 2)
        for col in range(d):
            m[i][col] += q * m[j][col]
    return m


class TestNondegeneracy:
    def test_family_systems(self):
        poly = product_simplices(4, 10, 2)
        assert nondegeneracy(polytope_to_quadrics(poly), poly)

    def test_duplicated_facet_fails(self):
        tri = simplex(2)
        dup = HPolytope(2, tri.normals + ((1, 0),), tri.offsets + (Fraction(1),))
        assert not nondegeneracy(polytope_to_quadrics(dup), dup)

    def test_empty_polytope_fails(self):
        empty = HPolytope(1, ((1,), (-1,)), (Fraction(-2), Fraction(1)))
        assert not nondegeneracy(polytope_to_quadrics(empty), empty)


class TestQuadricJson:
    @pytest.mark.parametrize(
        "gamma, delta",
        [
            ([[1.9, 1]], ["1"]),
            ([[1, True]], ["1"]),
            ([["1.5", 1]], ["1"]),
            ([[1, 1]], [0.5]),
            ([["1_0", 1]], ["1"]),
            ([["\u0661\u0662", 1]], ["1"]),
            ([[1, 1]], ["1_0"]),
            ([[1, 1]], ["\u0661\u0662/2"]),
        ],
    )
    def test_rejects_coercible_entries(self, gamma, delta):
        import json

        with pytest.raises(PolytopeFormatError):
            parse_quadrics(json.dumps({"Gamma": gamma, "delta": delta}))

    def test_roundtrip(self):
        q = polytope_to_quadrics(redundant_simplex(5, 2))
        import json

        again = parse_quadrics(json.dumps(quadrics_to_json(q)))
        assert again == q

    def test_slack_identity_on_sampled_squares(self):
        # Gamma (squares of a polytope point's slacks) = delta, exactly
        poly = product_simplices(4, 8, 2)
        q = polytope_to_quadrics(poly)
        vs = enumerate_vertices(poly)
        pts = [v.point for v in vs.vertices[:5]]
        weights = [1, 2, 3, 5, 7][: len(pts)]
        center = [
            sum((Fraction(w) * p[i] for w, p in zip(weights, pts)), Fraction(0))
            / sum(weights)
            for i in range(poly.dim)
        ]
        slacks = [
            linalg.dot(a, center) + b for a, b in zip(poly.normals, poly.offsets)
        ]
        for row, d in zip(q.gamma, q.delta):
            assert sum((g * s for g, s in zip(row, slacks)), Fraction(0)) == d
