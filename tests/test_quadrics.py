import random
from fractions import Fraction

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    nondegeneracy,
    parse_quadrics,
    polytope_to_quadrics,
    quadrics_to_json,
    quadrics_to_polytope,
)
from . import primal_reference as ref
from .test_polytopes import (
    coercible_numbers,
    interval,
    product_simplices,
    redundant_simplex,
    simplex,
)


def augmented_lattice(system):
    """The row lattice of ``[Gamma | scale * delta]`` and the scale, for comparisons."""
    delta, scale = linalg.scale_to_integers(system.delta)
    return linalg.row_basis([[*r, d] for r, d in zip(system.gamma, delta)]), scale


def quadric_systems():
    """Systems of 0-3 quadrics in 1-6 variables: big-integer Gamma, rational delta."""

    def of_shape(m, n):
        row = st.lists(st.integers(-(10**20), 10**20), min_size=n, max_size=n)
        return st.tuples(
            st.lists(row, min_size=m, max_size=m), st.lists(st.fractions(), min_size=m, max_size=m)
        ).map(lambda gd: QuadricSystem(tuple(map(tuple, gd[0])), tuple(gd[1])))

    return st.tuples(st.integers(0, 3), st.integers(1, 6)).flatmap(lambda mn: of_shape(*mn))


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
        assert augmented_lattice(q) == augmented_lattice(expected)
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

    def test_dimension_zero_and_no_normals_follow_the_relation_rows(self):
        # k = 0: every slack is free, so Gamma is the identity
        point = HPolytope(0, ((), ()), (Fraction(2), Fraction(1, 2)))
        q = polytope_to_quadrics(point)
        assert q.gamma == ((1, 0), (0, 1))
        assert q.delta == (Fraction(2), Fraction(1, 2))
        # k = 1 with no inequalities has no n - k = -1 relation rows
        message = "normals do not span the ambient space (rank-deficient presentation)"
        with pytest.raises(QuadricError) as info:
            polytope_to_quadrics(HPolytope(1, (), ()))
        assert str(info.value) == message

    def test_delta_can_be_rational(self):
        poly = HPolytope(1, ((1,), (-1,)), (Fraction(1, 3), Fraction(1, 2)))
        q = polytope_to_quadrics(poly)
        assert q.delta == (Fraction(5, 6),)


class TestBackward:
    def test_circle_system(self):
        poly = quadrics_to_polytope(QuadricSystem(((1, 1),), (Fraction(2),)))
        assert poly.dim == 1 and poly.n == 2
        vs = enumerate_vertices(poly)
        points = sorted(ref.point(poly, v)[0] for v in vs.vertices)
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


@st.composite
def backward_cases(draw):
    """Quadric systems with fractional delta: independent rows, then rows that
    are integer combinations of them, whose delta is the same combination of
    theirs (rank-deficient) or arbitrary (mostly inconsistent)."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n))
    gamma = [list(row) for row in base]
    delta = draw(st.lists(rational, min_size=len(base), max_size=len(base)))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
        gamma.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(n)])
        consistent = draw(st.booleans())
        delta.append(linalg.dot(coeffs, delta[: len(base)]) if consistent else draw(rational))
    order = draw(st.permutations(range(len(gamma))))
    return QuadricSystem(
        tuple(tuple(gamma[i]) for i in order), tuple(Fraction(delta[i]) for i in order)
    )


class TestBackwardProperty:
    @settings(max_examples=300, deadline=None)
    @given(backward_cases())
    def test_offsets_solve_the_system_on_the_pivot_columns(self, system):
        m, n = system.m, system.n
        rank = ref.rank(system.gamma)
        augmented = [[*row, d] for row, d in zip(system.gamma, system.delta)]
        # a unit vector e_j in the row space of Gamma would make normal j zero
        units = linalg.identity(n)
        unit_rows = [j for j in range(n) if ref.rank([*system.gamma, units[j]]) == rank]
        if ref.rank(augmented) > rank:
            expected = QuadricError, "inconsistent right-hand side: no polytope exists"
        elif rank < m:
            expected = QuadricError, f"coefficient matrix has rank {rank} < {m} quadrics"
        elif unit_rows and m < n:
            j = unit_rows[0]
            expected = QuadricError, (
                f"column {j} of Gamma: the unit vector e_{j} lies in the row space, "
                f"so inequality {j} would have a zero normal"
            )
        else:
            expected = None
        if expected is not None:
            with pytest.raises(expected[0]) as error:
                quadrics_to_polytope(system)
            assert str(error.value) == expected[1]
            return
        poly = quadrics_to_polytope(system)
        b = poly.offsets
        assert all(type(x) is Fraction for x in b)
        assert [linalg.dot(row, b) for row in system.gamma] == list(system.delta)
        canonical = ref.slack_ordered_hnf(system.gamma)
        pivots = {max(j for j, x in enumerate(row) if x) for row in canonical}
        assert all(b[j] == 0 for j in range(n) if j not in pivots)
        assert poly.dim == n - m
        for j in range(poly.dim):
            assert all(linalg.dot(row, [a[j] for a in poly.normals]) == 0 for row in system.gamma)


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
        assert linalg.row_basis(rows_a) == linalg.row_basis(rows_b)


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
            assert augmented_lattice(mixed) == augmented_lattice(q)
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
        assert nondegeneracy(poly)

    def test_duplicated_facet_fails(self):
        tri = simplex(2)
        dup = HPolytope(2, tri.normals + ((1, 0),), tri.offsets + (Fraction(1),))
        assert not nondegeneracy(dup)

    def test_empty_polytope_fails(self):
        empty = HPolytope(1, ((1,), (-1,)), (Fraction(-2), Fraction(1)))
        assert not nondegeneracy(empty)


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
        with pytest.raises(PolytopeFormatError):
            parse_quadrics(json.dumps({"Gamma": gamma, "delta": delta}))

    def test_roundtrip(self):
        q = polytope_to_quadrics(redundant_simplex(5, 2))
        again = parse_quadrics(json.dumps(quadrics_to_json(q)))
        assert again == q

    @settings(max_examples=100, deadline=None)
    @given(quadric_systems())
    def test_roundtrip_property(self, q):
        assert parse_quadrics(json.dumps(quadrics_to_json(q))) == q

    @settings(max_examples=100, deadline=None)
    @given(quadric_systems().filter(lambda q: q.m), coercible_numbers(), st.data())
    def test_rejects_coercible_entry_property(self, q, value, data):
        doc = quadrics_to_json(q)
        i = data.draw(st.integers(0, q.m - 1))
        if data.draw(st.booleans()):
            doc["Gamma"][i][data.draw(st.integers(0, q.n - 1))] = value
        else:
            doc["delta"][i] = value
        with pytest.raises(PolytopeFormatError, match="entry of"):
            parse_quadrics(json.dumps(doc))

    def test_slack_identity_on_sampled_squares(self):
        # Gamma (squares of a polytope point's slacks) = delta, exactly
        poly = product_simplices(4, 8, 2)
        q = polytope_to_quadrics(poly)
        vs = enumerate_vertices(poly)
        pts = [ref.point(poly, v) for v in vs.vertices[:5]]
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
