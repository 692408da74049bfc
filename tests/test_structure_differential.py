"""The structure layer against the primal k-subset reference.

Random presentations on both sides of the enumeration choice (m < k and
m >= k), with non-simple vertices, duplicated facets, tangent inequalities,
implicit equalities, and empty or unbounded feasible sets, must give the
reference's vertices (points and active sets), flags, redundancy and
Delzant verdicts.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from delzant import linalg
from delzant.polytopes import (
    HPolytope,
    PolytopeError,
    enumerate_vertices,
    is_delzant,
    is_fano,
    is_simple,
    redundancy,
    structure_report,
)

from . import primal_reference as ref

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

small = st.integers(-2, 2)
offset = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def presentations(draw):
    """A simplex or box around the origin, then a few random edits: cuts,
    strictly redundant, tangent and separating inequalities, duplicated or
    opposite copies of a row (an opposite copy makes an implicit equality),
    and dropped rows; in random order."""
    simplex = draw(st.booleans())
    k = draw(st.integers(1, 6 if simplex else 3))
    unit = [tuple(int(r == i) for r in range(k)) for i in range(k)]
    if simplex:
        normals = unit + [(-1,) * k]
    else:
        normals = unit + [tuple(-x for x in e) for e in unit]
    offsets = [Fraction(draw(st.integers(0, 3))) for _ in normals]
    low = [-offsets[i] for i in range(k)]
    if len(normals) == k + 1:
        reach = offsets[k] + sum(offsets[:k])
        corners = [low] + [[x + reach * (j == i) for j, x in enumerate(low)] for i in range(k)]
    else:
        corners = [
            [low[i] if bit else offsets[k + i] for i, bit in enumerate(bits)]
            for bits in product((0, 1), repeat=k)
        ]
    edits = ["cut", "loose", "tangent", "beyond", "duplicate", "opposite", "drop"]
    for kind in draw(st.lists(st.sampled_from(edits), max_size=4)):
        if kind == "drop":
            i = draw(st.integers(0, len(normals) - 1))
            if len(normals) > 1:
                del normals[i], offsets[i]
        elif kind in ("duplicate", "opposite"):
            i = draw(st.integers(0, len(normals) - 1))
            scale = draw(st.integers(1, 2)) * (1 if kind == "duplicate" else -1)
            normals.append(tuple(scale * x for x in normals[i]))
            offsets.append(scale * offsets[i])
        else:
            a = tuple(draw(st.lists(small, min_size=k, max_size=k).filter(any)))
            values = [linalg.dot(a, c) for c in corners]
            gap = draw(offset.filter(bool)) ** 2
            normals.append(a)
            if kind == "cut":
                offsets.append(draw(offset))
            elif kind == "beyond":  # misses the base polytope
                offsets.append(-max(values) - gap)
            else:  # supports the base polytope, or clears it
                offsets.append(-min(values) + (gap if kind == "loose" else 0))
    order = draw(st.permutations(range(len(normals))))
    return HPolytope(k, tuple(normals[i] for i in order), tuple(offsets[i] for i in order))


def assert_matches_reference(poly):
    vs = enumerate_vertices(poly)
    expected = ref.enumerate_vertices(poly)
    assert [(v.point, v.active) for v in vs.vertices] == expected["vertices"]
    assert (vs.bounded, vs.empty, vs.pointed) == (
        expected["bounded"],
        expected["empty"],
        expected["pointed"],
    )
    try:
        reference_flags = ref.redundancy(poly)
    except ValueError:
        reference_flags = None
    if reference_flags is None:
        try:
            redundancy(poly)
        except PolytopeError:
            pass
        else:
            raise AssertionError("redundancy accepted an unbounded polytope")
    else:
        assert redundancy(poly) == reference_flags
    report = structure_report(poly)
    if vs.bounded and not vs.empty:
        assert report.redundant == tuple(sorted(reference_flags))
        assert report.strict_redundant == tuple(
            sorted(i for i, s in reference_flags.items() if s)
        )
    if vs.vertices:
        generic = ref.is_generic(poly, expected["vertices"])
        assert report.generic is generic
        if is_simple(vs, poly.dim) and generic:
            assert is_delzant(poly, vs) is ref.is_delzant(poly, expected["vertices"])
            assert report.delzant is is_delzant(poly, vs)


class TestAgainstPrimalReference:
    @SETTINGS
    @given(presentations())
    def test_structured_presentations(self, poly):
        assert_matches_reference(poly)

    @settings(SETTINGS, max_examples=60)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.lists(small, min_size=k, max_size=k).filter(any),
                    min_size=k + 1,
                    max_size=k + 4,
                ),
            )
        ),
        st.data(),
    )
    def test_random_presentations(self, shape, data):
        k, normals = shape
        offsets = data.draw(st.lists(offset, min_size=len(normals), max_size=len(normals)))
        assert_matches_reference(HPolytope(k, tuple(map(tuple, normals)), tuple(offsets)))

    def test_both_sides_are_exercised(self):
        # a simplex with two cuts has m = 3 < k = 5; a box with one cut has m = 6 > k
        simplex = HPolytope(
            5,
            tuple(tuple(int(r == i) for r in range(5)) for i in range(5))
            + ((-1,) * 5, (1, 1, 0, 0, 0), (0, -1, 1, 0, 0)),
            (Fraction(1),) * 6 + (Fraction(2), Fraction(1)),
        )
        box = HPolytope(
            3,
            ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 1)),
            (Fraction(1),) * 6 + (Fraction(3),),
        )
        for poly in (simplex, box):
            assert_matches_reference(poly)
        assert len(enumerate_vertices(simplex).relations) < simplex.dim
        assert len(enumerate_vertices(box).relations) > box.dim


class TestGaleMinors:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                min_size=k + 1,
                max_size=k + 4,
            )
        )
    )
    def test_complementary_minors(self, normals):
        # |det A_S| = L * |det Gamma_{S^c}| for every k-subset S, with Gamma
        # the saturated relation basis and L the index of the normal lattice
        k, n = len(normals[0]), len(normals)
        assume(linalg.rational_rank(normals) == k)
        gamma = linalg.integer_kernel(linalg.transpose(normals))
        assert len(gamma) == n - k
        lattice = abs(linalg.det(linalg.row_basis(normals)))
        for subset in combinations(range(n), k):
            complement = [j for j in range(n) if j not in subset]
            minor = linalg.det([[row[j] for j in complement] for row in gamma])
            active = linalg.det([normals[i] for i in subset])
            assert abs(active) == lattice * abs(minor)


rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def fano_candidates(draw):
    """A simplex with extra normals, random normals, normals on the hyperplane
    ``<., e_1> = 1`` (so ``Gamma 1 = 0``) or normals of rank r < k; made
    primitive or left as drawn.  Offsets are a translated constant
    ``C + <a_i, y>`` (C of either sign, rational y) or arbitrary rationals.
    Bounded, unbounded and empty sets all occur."""
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["simplex", "random", "affine", "deficient"]))
    r = draw(st.integers(1, k - 1)) if shape == "deficient" and k > 1 else k
    normals = []
    if shape == "simplex":
        normals = [[int(i == j) for j in range(k)] for i in range(k)] + [[-1] * k]
    for _ in range(draw(st.integers(0 if normals else 1, 3 if normals else k + 4))):
        a = draw(st.lists(small, min_size=r, max_size=r).filter(any))
        if shape == "affine":
            a[0] = 1
        normals.append(a + [0] * (k - r))
    if r < k:  # hide the deficiency from the coordinates with a unimodular shear
        normals = [a[:-1] + [a[-1] + a[0]] for a in normals]
    if draw(st.booleans()):
        normals = [[x // math.gcd(*a) for x in a] for a in normals]
    if draw(st.booleans()):
        constant = draw(rational)
        y = draw(st.lists(rational, min_size=k, max_size=k))
        offsets = [constant + linalg.dot(a, y) for a in normals]
    else:
        offsets = draw(st.lists(rational, min_size=len(normals), max_size=len(normals)))
    return HPolytope(k, tuple(map(tuple, normals)), tuple(Fraction(b) for b in offsets))


def _exact(result):
    _, constant, translation = result
    if constant is not None:
        assert type(constant) is Fraction
        assert all(type(x) is Fraction for x in translation)
    return result


class TestFanoAgainstReference:
    @settings(SETTINGS, max_examples=200)
    @given(fano_candidates())
    def test_flag_constant_and_translation(self, poly):
        expected = ref.is_fano(poly)
        assert _exact(is_fano(poly)) == expected
        assert _exact(is_fano(poly, enumerate_vertices(poly).relations)) == expected
        report = structure_report(poly)
        assert (report.fano, report.fano_constant, report.fano_translation) == expected

    def test_cases_are_exercised(self):
        # Gamma 1 = 0 with a consistent offset, a rank-deficient translated
        # presentation, and a non-primitive normal
        strip = HPolytope(2, ((1, 0), (1, 1), (1, -1)), (Fraction(3), Fraction(1), Fraction(5)))
        assert not any(sum(row) for row in enumerate_vertices(strip).relations)
        slab = HPolytope(2, ((1, 1), (-1, -1)), (Fraction(5, 2), Fraction(-1, 2)))
        doubled = HPolytope(1, ((2,), (-1,)), (Fraction(1), Fraction(1)))
        for poly, flag in ((strip, True), (slab, True), (doubled, False)):
            assert ref.is_fano(poly)[0] is flag
            assert is_fano(poly) == ref.is_fano(poly)
