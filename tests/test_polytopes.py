import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from . import primal_reference as ref


def presentations():
    """Presentations of dimension 1-4: nonzero big-integer normals, rational offsets."""

    def of_dim(dim):
        normal = st.lists(st.integers(-(10**20), 10**20), min_size=dim, max_size=dim)
        rows = st.lists(st.tuples(normal.filter(any).map(tuple), st.fractions()), max_size=6)
        return rows.map(lambda r: HPolytope(dim, tuple(a for a, _ in r), tuple(b for _, b in r)))

    return st.integers(1, 4).flatmap(of_dim)


def coercible_numbers():
    """JSON values that ``int`` or ``Fraction`` would read, which every input format rejects.

    Digit-group underscores, decimal digits outside ASCII (Arabic-Indic,
    Extended Arabic-Indic, Devanagari, full-width), floats and bools.
    """
    digits = st.integers(0, 10**6).map(str)
    zeros = st.sampled_from([0x660, 0x6F0, 0x966, 0xFF10])
    return st.one_of(
        st.tuples(digits, digits).map("_".join),
        st.tuples(zeros, digits).map(lambda z: "".join(chr(z[0] + int(c)) for c in z[1])),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
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


def empty_strip():
    """y <= 2, y <= 1 and y >= 2 in the plane: empty, with rank-1 normals."""
    return HPolytope(2, ((0, -1), (0, -2), (0, 1)), (Fraction(2), Fraction(2), Fraction(-2)))


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

    @settings(max_examples=100, deadline=None)
    @given(presentations())
    def test_roundtrip_property(self, poly):
        assert parse_polytope(json.dumps(polytope_to_json(poly))) == poly

    @settings(max_examples=100, deadline=None)
    @given(presentations().filter(lambda p: p.n), coercible_numbers(), st.data())
    def test_rejects_coercible_entry_property(self, poly, value, data):
        doc = polytope_to_json(poly)
        i = data.draw(st.integers(0, poly.n - 1))
        if data.draw(st.booleans()):
            doc["A"][data.draw(st.integers(0, poly.dim - 1))][i] = value
        else:
            doc["b"][i] = value
        with pytest.raises(PolytopeFormatError, match="entry of"):
            parse_polytope(json.dumps(doc))


class TestVertexEnumeration:
    def test_square(self):
        poly = unit_square()
        vs = enumerate_vertices(poly)
        points = {ref.point(poly, v) for v in vs.vertices}
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
            (lambda: is_bounded(redundant_simplex(5, 2), budget=3), "boundedness", 4),
            (lambda: redundancy(empty_strip(), budget=3), "redundancy", 4),
        ],
    )
    def test_budget_error_names_count_budget_and_stage(self, search, stage, requested):
        message = f"{stage}.*: {requested} is over the budget of 3"
        with pytest.raises(SubsetBudgetError, match=message) as info:
            search()
        assert (info.value.requested, info.value.budget) == (requested, 3)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        poly = product_simplices(4, 8, 2)
        base = {ref.point(poly, v) for v in enumerate_vertices(poly).vertices}
        order = list(range(poly.n))
        rng.shuffle(order)
        shuffled = HPolytope(
            poly.dim,
            tuple(poly.normals[i] for i in order),
            tuple(poly.offsets[i] for i in order),
        )
        assert {ref.point(shuffled, v) for v in enumerate_vertices(shuffled).vertices} == base


class TestPredicates:
    def test_square_simple_generic_delzant(self):
        poly = unit_square()
        vs = enumerate_vertices(poly)
        assert is_simple(vs, 2)
        assert structure_report(poly).simple
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
        assert ref.point(poly, apex) == (Fraction(0), Fraction(0), Fraction(1))

    def test_delzant_test_needs_simple_vertices_and_spanning_normals(self):
        pyramid = HPolytope(
            3,
            ((-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1), (0, 0, 1)),
            (Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(0)),
        )
        strip = HPolytope(2, ((1, 0), (-1, 0)), (Fraction(1), Fraction(1)))
        for poly in (pyramid, strip):
            with pytest.raises(PolytopeError, match="requires a simple presentation"):
                is_delzant(poly, enumerate_vertices(poly))

    def test_redundant_simplex_family_is_simple(self):
        vs = enumerate_vertices(redundant_simplex(5, 2))
        assert is_simple(vs, 3)

    def test_duplicated_facet_not_generic(self):
        tri = simplex(2)
        dup = HPolytope(2, tri.normals + ((1, 0),), tri.offsets + (Fraction(1),))
        assert structure_report(dup).simple is False

    def test_product_family_generic(self):
        poly = product_simplices(4, 10, 2)
        assert structure_report(poly).simple

    def test_product_family_delzant(self):
        poly = product_simplices(4, 10, 2)
        vs = enumerate_vertices(poly)
        assert is_delzant(poly, vs)

    def test_skew_triangle_not_delzant(self):
        poly = HPolytope(
            2, ((1, 0), (0, 1), (-1, -2)), (Fraction(0), Fraction(0), Fraction(2))
        )
        vs = enumerate_vertices(poly)
        assert is_simple(vs, 2) and structure_report(poly).simple
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
                assert structure_report(poly).simple
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
        base = {ref.point(poly, v) for v in enumerate_vertices(poly).vertices}
        padded = HPolytope(
            poly.dim, poly.normals + ((1,) * poly.dim,), poly.offsets + (Fraction(100),)
        )
        flags = redundancy(padded)
        assert flags.get(poly.n) is True
        assert {ref.point(padded, v) for v in enumerate_vertices(padded).vertices} == base

    def test_unbounded_rejected(self):
        with pytest.raises(PolytopeError):
            redundancy(HPolytope(1, ((1,),), (Fraction(0),)))

    def test_empty_rank_deficient(self):
        # dropping y <= 2 leaves the empty set empty; dropping y <= 1 leaves
        # the line y = 2, and dropping y >= 2 the half-plane y <= 1
        assert redundancy(empty_strip()) == {0: True}


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
        assert report.vertex_set.bounded and not report.vertex_set.empty
        assert report.simple and report.delzant
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

    def test_dimension_zero(self):
        # the relations are Z^n; an empty normal is not primitive (gcd 0),
        # so only the presentation with no inequalities is Fano
        assert is_fano(HPolytope(0, (), ())) == (True, 1, ())
        twice = HPolytope(0, ((), ()), (Fraction(2), Fraction(2)))
        assert is_fano(twice) == (False, None, None)
        report = structure_report(HPolytope(0, ((), ()), (Fraction(0), Fraction(1))))
        assert report.vertex_set.bounded and not report.vertex_set.empty and not report.simple
        assert (report.redundant, report.strict_redundant) == ((0, 1), (1,))
        assert enumerate_vertices(HPolytope(0, ((),), (Fraction(-1),))).empty


class TestDelzantIndexAgreement:
    def test_vertex_index_matches_snf(self):
        # the determinant ratio used by is_delzant equals the group index: the
        # product of the Smith normal form of the active normals' coefficients
        # in the lattice basis
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        poly = HPolytope(
            2, ((1, 0), (0, 1), (-1, -2)), (Fraction(0), Fraction(0), Fraction(2))
        )
        vs = enumerate_vertices(poly)
        basis = linalg.row_basis([list(a) for a in poly.normals])
        lattice_det = abs(linalg.det(basis))
        inverse = ref.inverse(basis)
        ratios = []
        for v in vs.vertices:
            active = [list(poly.normals[i]) for i in v.active]
            ratio = abs(linalg.det(active)) // lattice_det
            # active == coefficients @ basis, with integer coefficients
            coefficients = ref.mat_mul(active, inverse)
            assert all(x.denominator == 1 for row in coefficients for x in row)
            coeffs = sympy.Matrix([[int(x) for x in row] for row in coefficients])
            snf = smith_normal_form(coeffs, domain=sympy.ZZ)
            assert ratio == abs(snf[0, 0] * snf[1, 1])
            ratios.append(ratio)
        assert sorted(ratios) == [1, 1, 2]
