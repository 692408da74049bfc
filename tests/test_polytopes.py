import json
import random
from fractions import Fraction

import pytest

from delzant import linalg
from delzant.polytopes import (
    HPolytope,
    PolytopeError,
    PolytopeFormatError,
    SubsetBudgetError,
    enumerate_vertices,
    is_bounded,
    is_delzant,
    is_fano,
    is_simple,
    parse_polytope,
    polytope_to_json,
    redundancy,
    structure_report,
)


def interval(lo=-1, hi=1):
    return HPolytope(1, ((1,), (-1,)), (Fraction(-lo), Fraction(hi)))


def unit_square():
    return HPolytope(
        2,
        ((1, 0), (-1, 0), (0, 1), (0, -1)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
    )


def simplex(dim):
    normals = tuple(
        tuple(int(r == i) for r in range(dim)) for i in range(dim)
    ) + ((-1,) * dim,)
    return HPolytope(dim, normals, (Fraction(1),) * (dim + 1))


def product_simplices(p, n, k):
    dim = n - 2
    normals = []
    for i in range(p - 1):
        normals.append(tuple(int(r == i) for r in range(dim)))
    normals.append(tuple(-1 if r < p - 1 else 0 for r in range(dim)))
    for i in range(p - 1, n - 2):
        normals.append(tuple(int(r == i) for r in range(dim)))
    normals.append(tuple(-1 if (r < k or r >= p - 1) else 0 for r in range(dim)))
    return HPolytope(dim, tuple(normals), (Fraction(1),) * n)


def redundant_simplex(n, k):
    dim = n - 2
    normals = []
    for i in range(dim):
        normals.append(tuple(int(r == i) for r in range(dim)))
    normals.append((-1,) * dim)
    normals.append(tuple(-1 if r < k else 0 for r in range(dim)))
    offsets = (Fraction(1),) * (n - 1) + (Fraction(k + 2),)
    return HPolytope(dim, tuple(normals), offsets)


class TestParsing:
    def test_interval(self):
        poly = parse_polytope('{"A": [[1, -1]], "b": ["1", "1"]}')
        assert poly.dim == 1 and poly.n == 2
        assert poly.normals == ((1,), (-1,))
        assert poly.offsets == (Fraction(1), Fraction(1))

    def test_decimal_strings_and_fractions(self):
        poly = parse_polytope('{"A": [["2", -1]], "b": ["1/2", 3]}')
        assert poly.normals == ((2,), (-1,))
        assert poly.offsets == (Fraction(1, 2), Fraction(3))

    def test_malformed_json(self):
        with pytest.raises(PolytopeFormatError, match="malformed JSON"):
            parse_polytope("{not json")

    def test_ragged_rows(self):
        with pytest.raises(PolytopeFormatError, match="dimension mismatch"):
            parse_polytope('{"A": [[1, 0], [0]], "b": ["1", "1"]}')

    def test_offset_count_mismatch(self):
        with pytest.raises(PolytopeFormatError, match="dimension mismatch"):
            parse_polytope('{"A": [[1, -1]], "b": ["1"]}')

    def test_zero_normal_column(self):
        with pytest.raises(PolytopeFormatError, match="zero vector"):
            parse_polytope('{"A": [[1, 0], [0, 0]], "b": ["1", "1"]}')

    def test_bad_rational(self):
        with pytest.raises(PolytopeFormatError, match="p/q"):
            parse_polytope('{"A": [[1, -1]], "b": ["1", "one"]}')

    @pytest.mark.parametrize(
        "a, b",
        [
            ([["1_0", -1]], ["1", "1"]),
            ([["\u0661\u0662", -1]], ["1", "1"]),
            ([[1, -1]], ["1_0", "1"]),
            ([[1, -1]], ["1/2_0", "1"]),
            ([[1, -1]], ["\u0661\u0662", "1"]),
        ],
    )
    def test_rejects_underscores_and_non_ascii_digits(self, a, b):
        # int() and Fraction() would read "1_0" as 10 and Arabic-Indic digits as 12
        with pytest.raises(PolytopeFormatError):
            parse_polytope(json.dumps({"A": a, "b": b}))

    def test_roundtrip(self):
        poly = product_simplices(4, 10, 2)
        again = parse_polytope(json.dumps(polytope_to_json(poly)))
        assert again == poly


class TestVertexEnumeration:
    def test_square(self):
        vs = enumerate_vertices(unit_square())
        points = {v.point for v in vs.vertices}
        assert points == {
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        }
        assert vs.bounded and not vs.empty

    def test_product_of_simplices_vertex_count(self):
        vs = enumerate_vertices(product_simplices(4, 10, 0))
        assert len(vs.vertices) == 4 * 6
        assert vs.bounded

    def test_half_space_unbounded(self):
        vs = enumerate_vertices(HPolytope(1, ((1,),), (Fraction(0),)))
        assert not vs.bounded and not vs.empty
        assert len(vs.vertices) == 1  # x = 0 is a vertex of the ray

    def test_rank_deficient_flagged(self):
        # one normal in R^2: a strip, no vertices, unbounded
        vs = enumerate_vertices(HPolytope(2, ((1, 0), (-1, 0)), (Fraction(1), Fraction(1))))
        assert not vs.pointed and not vs.bounded and not vs.empty
        assert vs.vertices == ()

    def test_empty_polytope(self):
        vs = enumerate_vertices(HPolytope(1, ((1,), (-1,)), (Fraction(-2), Fraction(1))))
        assert vs.empty and vs.vertices == ()

    def test_budget(self):
        with pytest.raises(SubsetBudgetError):
            enumerate_vertices(product_simplices(4, 10, 0), budget=3)

    @pytest.mark.parametrize(
        "search, stage, requested",
        [
            (lambda: enumerate_vertices(product_simplices(4, 10, 0), budget=3), "Gale", 45),
            (lambda: enumerate_vertices(unit_square(), budget=3), "k-subsets", 6),
            (lambda: is_bounded(unit_square(), budget=3), "positive-relation", 6),
        ],
    )
    def test_budget_error_names_count_budget_and_stage(self, search, stage, requested):
        message = f"{stage}.*: {requested} subsets exceed the budget of 3"
        with pytest.raises(SubsetBudgetError, match=message) as info:
            search()
        assert (info.value.requested, info.value.budget) == (requested, 3)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        poly = product_simplices(4, 8, 2)
        base = {v.point for v in enumerate_vertices(poly).vertices}
        order = list(range(poly.n))
        rng.shuffle(order)
        shuffled = HPolytope(
            poly.dim,
            tuple(poly.normals[i] for i in order),
            tuple(poly.offsets[i] for i in order),
        )
        assert {v.point for v in enumerate_vertices(shuffled).vertices} == base


class TestPredicates:
    def test_square_simple_generic_delzant(self):
        poly = unit_square()
        vs = enumerate_vertices(poly)
        assert is_simple(vs, 2)
        assert structure_report(poly).generic
        assert is_delzant(poly, vs)

    def test_square_pyramid_not_simple(self):
        poly = HPolytope(
            3,
            ((-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1), (0, 0, 1)),
            (Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(0)),
        )
        vs = enumerate_vertices(poly)
        assert not is_simple(vs, 3)
        apex = next(v for v in vs.vertices if len(v.active) > 3)
        assert apex.point == (Fraction(0), Fraction(0), Fraction(1))

    def test_redundant_simplex_family_is_simple(self):
        vs = enumerate_vertices(redundant_simplex(5, 2))
        assert is_simple(vs, 3)

    def test_duplicated_facet_not_generic(self):
        tri = simplex(2)
        dup = HPolytope(2, tri.normals + ((1, 0),), tri.offsets + (Fraction(1),))
        assert structure_report(dup).generic is False

    def test_product_family_generic(self):
        poly = product_simplices(4, 10, 2)
        assert structure_report(poly).generic

    def test_product_family_delzant(self):
        poly = product_simplices(4, 10, 2)
        vs = enumerate_vertices(poly)
        assert is_delzant(poly, vs)

    def test_skew_triangle_not_delzant(self):
        poly = HPolytope(
            2, ((1, 0), (0, 1), (-1, -2)), (Fraction(0), Fraction(0), Fraction(2))
        )
        vs = enumerate_vertices(poly)
        assert is_simple(vs, 2) and structure_report(poly).generic
        assert not is_delzant(poly, vs)

    def test_product_family_dichotomy(self):
        # off the degenerate diagonal n-p+k == p (k >= 2) the presentation
        # is Delzant; on it, more than dim facets meet at a vertex
        rng = random.Random(23)
        for _ in range(12):
            p = rng.choice([4, 6])
            n = rng.choice([p + 2, p + 4])
            k = rng.choice(range(0, p - 1, 2))
            poly = product_simplices(p, n, k)
            vs = enumerate_vertices(poly)
            if k >= 2 and n - p + k == p:
                assert not is_simple(vs, poly.dim)
            else:
                assert is_simple(vs, poly.dim)
                assert structure_report(poly).generic
                assert is_delzant(poly, vs)


class TestFano:
    def test_product_family(self):
        ok, constant, translation = is_fano(product_simplices(4, 10, 2))
        assert ok and constant == 1
        assert all(t == 0 for t in translation)

    def test_redundant_family_never_fano(self):
        for n, k in [(5, 2), (9, 4), (13, 8)]:
            ok, constant, translation = is_fano(redundant_simplex(n, k))
            assert not ok and constant is None and translation is None

    def test_interval(self):
        ok, constant, translation = is_fano(interval())
        assert ok and constant == 1 and translation == (Fraction(0),)

    def test_translated_is_fano(self):
        poly = product_simplices(4, 8, 0)
        shift = (2, -1, 0, 1, 3, -2)
        offsets = tuple(
            b + linalg.dot(a, shift) for a, b in zip(poly.normals, poly.offsets)
        )
        moved = HPolytope(poly.dim, poly.normals, offsets)
        ok, constant, translation = is_fano(moved)
        assert ok and constant == 1
        assert tuple(translation) == tuple(Fraction(s) for s in shift)

    def test_imprimitive_normal(self):
        poly = HPolytope(1, ((2,), (-1,)), (Fraction(1), Fraction(1)))
        assert is_fano(poly)[0] is False


class TestRedundancy:
    def test_redundant_simplex_family(self):
        for n, k in [(5, 2), (7, 4), (13, 8)]:
            flags = redundancy(redundant_simplex(n, k))
            assert flags == {n - 1: True}

    def test_simplex_irredundant(self):
        assert redundancy(simplex(3)) == {}

    def test_interval_with_slack(self):
        poly = HPolytope(1, ((1,), (-1,), (1,)), (Fraction(1), Fraction(1), Fraction(5)))
        assert redundancy(poly) == {2: True}

    def test_tangent_inequality_not_strict(self):
        # x + y >= -2 touches the square [-1,1]^2 exactly at a corner
        square = HPolytope(
            2,
            ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)),
            tuple(Fraction(x) for x in (1, 1, 1, 1, 2)),
        )
        assert redundancy(square) == {4: False}

    def test_adding_strictly_redundant_keeps_vertices(self):
        poly = product_simplices(4, 8, 2)
        base = {v.point for v in enumerate_vertices(poly).vertices}
        padded = HPolytope(
            poly.dim, poly.normals + ((1,) * poly.dim,), poly.offsets + (Fraction(100),)
        )
        flags = redundancy(padded)
        assert flags.get(poly.n) is True
        assert {v.point for v in enumerate_vertices(padded).vertices} == base

    def test_unbounded_rejected(self):
        with pytest.raises(PolytopeError):
            redundancy(HPolytope(1, ((1,),), (Fraction(0),)))


class TestBounded:
    def test_square(self):
        assert is_bounded(unit_square())

    def test_half_space(self):
        assert not is_bounded(HPolytope(1, ((1,),), (Fraction(0),)))

    def test_orthant(self):
        poly = HPolytope(2, ((1, 0), (0, 1)), (Fraction(0), Fraction(0)))
        assert not is_bounded(poly)

    def test_families(self):
        assert is_bounded(product_simplices(6, 12, 4))
        assert is_bounded(redundant_simplex(9, 4))


class TestStructureReport:
    def test_product_family(self):
        report = structure_report(product_simplices(4, 10, 2))
        assert report.bounded and not report.empty
        assert report.simple and report.generic and report.delzant
        assert report.fano and report.fano_constant == 1
        assert report.redundant == ()
        assert report.monotone_ready

    def test_redundant_family(self):
        report = structure_report(redundant_simplex(5, 2))
        assert report.delzant and not report.fano
        assert report.redundant == (4,)
        assert report.strict_redundant == (4,)
        assert not report.monotone_ready

    def test_translation_leaves_fano_constant(self):
        poly = product_simplices(4, 8, 2)
        shift = (1, 0, -2, 1, 0, 2)
        moved = HPolytope(
            poly.dim,
            poly.normals,
            tuple(b + linalg.dot(a, shift) for a, b in zip(poly.normals, poly.offsets)),
        )
        base = structure_report(poly)
        other = structure_report(moved)
        assert base.fano_constant == other.fano_constant == 1
        assert tuple(other.fano_translation) == tuple(Fraction(s) for s in shift)


class TestDelzantIndexAgreement:
    def test_vertex_index_matches_snf(self):
        # the determinant ratio used by is_delzant equals the group index
        poly = HPolytope(
            2, ((1, 0), (0, 1), (-1, -2)), (Fraction(0), Fraction(0), Fraction(2))
        )
        vs = enumerate_vertices(poly)
        basis = linalg.row_basis([list(a) for a in poly.normals])
        lattice_det = abs(linalg.det(basis))
        for v in vs.vertices:
            active = [list(poly.normals[i]) for i in v.active]
            ratio = abs(linalg.det(active)) // lattice_det
            assert ratio == linalg.snf_index(active, basis)
