"""The structure layer against the primal k-subset reference.

Random presentations on both sides of the enumeration choice (m < k and
m >= k), with non-simple vertices, duplicated facets, tangent inequalities,
implicit equalities, and empty or unbounded feasible sets, must give the
reference's vertices (slack vectors and active sets), flags, redundancy
and Delzant verdicts.  The normals of a pointed presentation span, so
``x -> A^T x + b`` is injective and equal slack vectors mean equal
points.  On m = 2 presentations the sign rule, and on m >= k ones the
primal edge walk, must also give the subset search they replaced exactly,
indices included.
"""

import importlib.util
import math
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from delzant import linalg
from delzant.families import parse_family_spec
from delzant.quadrics import QuadricSystem, polytope_to_quadrics, quadrics_to_polytope
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


@st.composite
def rank_deficient_presentations(draw):
    """Normals ``(a, 0, ..., 0)`` of rank r < k under the unimodular shear
    ``x_k += x_1``, with random offsets: empty sets (redundancy is then
    decided by LP) and unbounded ones (redundancy is rejected)."""
    k = draw(st.integers(2, 4))
    r = draw(st.integers(1, k - 1))
    normal = st.lists(small, min_size=r, max_size=r).filter(any)
    normals = [a + [0] * (k - r - 1) + [a[0]] for a in draw(st.lists(normal, max_size=6))]
    offsets = draw(st.lists(offset, min_size=len(normals), max_size=len(normals)))
    return HPolytope(k, tuple(map(tuple, normals)), tuple(offsets))


@st.composite
def non_unimodular_presentations(draw):
    """A ``presentations()`` polytope in the coordinates ``x = M y`` for a random
    nonsingular integer M, with its offsets scaled by a positive fraction.

    The normals become ``M^T a``, a sublattice of index ``|det M|``, so the
    vertices are fractional and their basis determinants exceed 1 on both
    sides of the enumeration choice; the Delzant verdicts are unchanged.
    """
    poly = draw(presentations())
    k = poly.dim
    square = st.lists(st.lists(small, min_size=k, max_size=k), min_size=k, max_size=k)
    m = draw(square.filter(lambda m: ref.det(m) != 0))
    q = draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
    normals = tuple(tuple(linalg.dot(column, a) for column in zip(*m)) for a in poly.normals)
    return HPolytope(k, normals, tuple(q * b for b in poly.offsets))


@st.composite
def dimension_zero_presentations(draw):
    """Offsets alone: k = 0, so every slack is free and Gamma is the identity."""
    offsets = draw(st.lists(offset, max_size=4))
    return HPolytope(0, ((),) * len(offsets), tuple(offsets))


def _lattice_det(poly):
    """The index of the normal lattice L in Z^k, for normals that span R^k."""
    return abs(ref.det(linalg.row_basis(poly.normals)))


def _basis_minor(poly, active):
    """The index of the one basis a simple vertex is reached from, by the
    reference's elimination: ``|det Gamma_B|`` on the complement B of the
    active set on the Gale side (m < k), ``|det A_S| / det L`` on the active
    normals otherwise."""
    if len(poly.relations) < poly.dim:
        complement = [j for j in range(poly.n) if j not in active]
        return abs(ref.det([[row[j] for j in complement] for row in poly.relations]))
    return abs(ref.det([poly.normals[i] for i in active])) / _lattice_det(poly)


def assert_matches_reference(poly):
    vs = enumerate_vertices(poly)
    expected = ref.enumerate_vertices(poly)
    slacks = [(tuple(Fraction(x, v.den) for x in v.slacks), v.active) for v in vs.vertices]
    assert slacks == expected["vertices"]
    for v in vs.vertices:
        assert v.den > 0 and math.gcd(v.den, *v.slacks) == 1
        if len(v.active) == poly.dim:
            assert v.index == _basis_minor(poly, v.active)
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
        assert report.simple is generic
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

    @SETTINGS
    @given(non_unimodular_presentations())
    def test_non_unimodular_presentations(self, poly):
        assert_matches_reference(poly)

    @pytest.mark.parametrize(
        "poly, gale",
        [
            # P(1,1,2,1): the vertex (-1, -1, 2) has Gamma_B = (2), and its
            # slack numerators 4 over d = 2 reduce to 2 over 1
            (
                HPolytope(
                    3,
                    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)),
                    (Fraction(1), Fraction(1), Fraction(0), Fraction(2)),
                ),
                True,
            ),
            # 2x >= 2, x <= 3: the vertex x = 1 solves 2x = 2 over d = 2
            (HPolytope(1, ((2,), (-1,)), (Fraction(-2), Fraction(3))), False),
        ],
    )
    def test_minor_is_the_basis_determinant_not_the_point_denominator(self, poly, gale):
        vs = enumerate_vertices(poly)
        assert (len(poly.relations) < poly.dim) is gale
        assert any(v.den == 1 and v.index == 2 for v in vs.vertices)
        assert is_delzant(poly, vs) is False
        assert_matches_reference(poly)

    @pytest.mark.parametrize(
        "last, offsets, indices, delzant",
        [
            # the box [0, 2] x [0, 3]: |det A_S| = 2 = det L at every vertex
            ((0, -1), (0, 0, 4, 3), (1, 1, 1, 1), True),
            # a slanted top: (2, -2) spans index 2 in L with (2, 0) and with (-2, 0)
            ((2, -2), (0, 0, 4, 4), (1, 2, 1, 2), False),
        ],
    )
    def test_primal_index_divides_by_the_normal_lattice(self, last, offsets, indices, delzant):
        # the normals span the index-2 lattice {(2a, b)}, and m = k = 2 is the primal side
        normals = ((2, 0), (0, 1), (-2, 0), last)
        poly = HPolytope(2, normals, tuple(map(Fraction, offsets)))
        assert len(poly.relations) == poly.dim and _lattice_det(poly) == 2
        vs = enumerate_vertices(poly)
        assert tuple(v.index for v in vs.vertices) == indices
        assert structure_report(poly).delzant is delzant
        assert_matches_reference(poly)

    @SETTINGS
    @given(rank_deficient_presentations())
    def test_rank_deficient_presentations(self, poly):
        assert not enumerate_vertices(poly).pointed
        assert_matches_reference(poly)

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
        assert len(simplex.relations) < simplex.dim
        assert len(box.relations) > box.dim


class TestRelationBasis:
    @SETTINGS
    @given(
        st.one_of(
            presentations(),
            rank_deficient_presentations(),
            non_unimodular_presentations(),
            dimension_zero_presentations(),
        )
    )
    def test_cached_relations_equal_the_two_step_reference(self, poly):
        # one kernel on the reversed normals against a kernel and then its
        # slack-ordered HNF; det L off the same HNF against a second one; and
        # the offsets over their denominator lcm
        assert poly.relations == ref.relations(poly)
        assert poly.relations is poly.relations
        if len(poly.relations) == poly.n - poly.dim:
            assert poly.normal_lattice_det == _lattice_det(poly)
        scale, offsets = poly.integer_offsets
        assert scale == math.lcm(*(b.denominator for b in poly.offsets))
        assert [Fraction(e, scale) for e in offsets] == list(poly.offsets)
        assert poly.relation_values == tuple(linalg.dot(row, offsets) for row in poly.relations)

    @pytest.mark.parametrize(
        "source, fallbacks, lattice",
        [
            ("product-simplices:p=4,n=10,k=2", 0, 1),
            ("redundant-simplex:n=13,k=8", 0, 1),
            # a box with two cuts ahead of it: in index order the first basis
            # is the cuts' (1, 1), (1, -1) of det -2; the unit normals come first
            (((1, 1), (1, -1), (1, 0), (0, 1), (-1, 0), (0, -1)), 0, 1),
            # unimodular, but no normal is a unit vector
            (((2, 1), (1, 1), (-3, -2)), 0, 1),
            # the diamond: its normals span an index-2 lattice
            (((1, 1), (1, -1), (-1, 1), (-1, -1)), 1, 2),
        ],
        ids=["product", "redundant", "box-cuts", "no-unit", "diamond"],
    )
    def test_unimodular_fast_path_is_taken_exactly_when_det_l_is_one(
        self, monkeypatch, source, fallbacks, lattice
    ):
        calls = []
        image_and_kernel = linalg.image_and_kernel
        monkeypatch.setattr(
            linalg, "image_and_kernel", lambda m: calls.append(m) or image_and_kernel(m)
        )
        if isinstance(source, str):
            poly = parse_family_spec(source)
        else:
            poly = HPolytope(2, source, (Fraction(1),) * len(source))
        assert poly.normal_lattice_det == lattice
        assert len(calls) == fallbacks
        assert poly.relations == ref.relations(poly)

    @pytest.mark.parametrize(
        "source, hnfs",
        [
            ("product-simplices:p=4,n=10,k=2", 0),
            ("redundant-simplex:n=13,k=8", 0),
            # a row ends in a non-unit entry, or two rows end in one column,
            # yet the columns span Z^m
            (((1, 2),), 1),
            (((2, 3),), 1),
            (((3, 1, 0), (2, 0, 5)), 1),
            (((1, 0, 1), (0, 1, 1)), 1),
        ],
    )
    def test_deck_certificate_skips_the_column_hnf_where_it_holds(
        self, monkeypatch, source, hnfs
    ):
        # the refusals of the fallback are pinned in test_invariants.TestDeckData
        if isinstance(source, str):
            system = polytope_to_quadrics(parse_family_spec(source))
        else:
            system = QuadricSystem(source, (Fraction(1),) * len(source))
        calls = []
        row_basis = linalg.row_basis
        monkeypatch.setattr(linalg, "row_basis", lambda m: calls.append(m) or row_basis(m))
        assert system.saturated_gamma is system.gamma
        assert len(calls) == hnfs


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


def _plane_presentation(cols, y, extra):
    """The presentation whose relation rows have the columns ``cols`` (rank 2):
    its normals are the saturated integer kernel of ``Gamma``, so m = 2 and
    k = n - 2, and its offsets are ``<a_i, y> + extra_i``, which makes
    ``Gamma b = Gamma extra``.  None when a normal is zero."""
    n = len(cols)
    kernel = linalg.integer_kernel([list(row) for row in zip(*cols)])
    normals = tuple(tuple(row[i] for row in kernel) for i in range(n))
    if not all(map(any, normals)):
        return None
    offsets = (Fraction(linalg.dot(a, y) + e) for a, e in zip(normals, extra))
    return HPolytope(n - 2, normals, tuple(offsets))


@st.composite
def plane_presentations(draw):
    """m = 2 < k presentations drawn on the Gale side: n = k + 2 columns of
    ``Gamma`` in [-2, 2]^2, a few of them copied with a factor of +-1 or +-2
    (parallel and antiparallel columns), and ``Gamma b`` a random vector, a
    positive multiple of one column (on its ray) or 0.  Non-simple vertices
    and bounded, unbounded and empty sets all occur."""
    k = draw(st.integers(3, 5))
    n = k + 2
    cols = draw(st.lists(st.tuples(small, small), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(st.sampled_from([1, -1, 2, -2]))
        cols[j] = (factor * cols[i][0], factor * cols[i][1])
    assume(linalg.rational_rank(cols) == 2)
    extra = [0] * n
    kind = draw(st.sampled_from(["random", "ray", "zero"]))
    if kind == "random":
        extra = draw(st.lists(offset, min_size=n, max_size=n))
    elif kind == "ray":
        extra[draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
    poly = _plane_presentation(cols, draw(st.lists(offset, min_size=k, max_size=k)), extra)
    assume(poly is not None)
    return poly


class TestGaleSignRule:
    """m = 2: the vertices come from a sign rule on the columns of ``Gamma``,
    and must equal those of solving every pair (``ref.gale_vertex_set``)."""

    @SETTINGS
    @given(plane_presentations())
    def test_vertices_and_flags_equal_the_pair_search(self, poly):
        assert len(poly.relations) == 2 < poly.dim
        assert enumerate_vertices(poly) == ref.gale_vertex_set(poly)
        assert_matches_reference(poly)

    @pytest.mark.parametrize(
        "cols, extra, active",
        [
            # Gamma b = 0 in a positively spanning set: one point, every index tight
            ([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], [0] * 5, [(0, 1, 2, 3, 4)]),
            # Gamma b = gamma_0 = gamma_1 / 2: two vertices, each on one column's ray
            (
                [(1, 0), (2, 0), (-1, 1), (0, -1), (-1, 0)],
                [1, 0, 0, 0, 0],
                [(0, 2, 3, 4), (1, 2, 3, 4)],
            ),
        ],
    )
    def test_degenerate_vertices_equal_the_pair_search(self, cols, extra, active):
        poly = _plane_presentation(cols, [0, 0, 0], extra)
        vs = enumerate_vertices(poly)
        assert sorted(v.active for v in vs.vertices) == active
        assert vs == ref.gale_vertex_set(poly)
        assert_matches_reference(poly)

    def test_m_2_calls_no_solve_square(self, monkeypatch):
        # a fall-back to solving every pair when m = 2 fails here
        calls = []
        solve = linalg.solve_square

        def counting(rows, rhs):
            calls.append(len(rows))
            return solve(rows, rhs)

        monkeypatch.setattr(linalg, "solve_square", counting)
        for spec in ("redundant-simplex:n=13,k=8", "product-simplices:p=4,n=10,k=0"):
            assert enumerate_vertices(parse_family_spec(spec)).vertices
        assert calls == []
        # the 5-simplex with two cuts has m = 3 < k = 5
        unit = tuple(tuple(int(r == i) for r in range(5)) for i in range(5))
        cuts = ((-1,) * 5, (1, 1, 0, 0, 0), (0, -1, 1, 0, 0))
        poly = HPolytope(5, unit + cuts, (Fraction(1),) * 6 + (Fraction(2), Fraction(1)))
        assert len(poly.relations) == 3 < poly.dim
        assert enumerate_vertices(poly).vertices
        assert calls and set(calls) == {3}


def _load_perfbench(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def primal_presentations(draw):
    """m >= k presentations, k = 0 to 3, translated by a rational vector.

    A box ``[-h, h]^k`` cut through some of its corners (non-simple
    vertices), or a pyramid whose apex lies on every lateral facet (many
    when k = 3; unbounded when the lateral normals do not positively span
    the base plane); for k = 0, offsets alone.  Then a few edits: a row
    dropped (unbounded, still pointed, or not pointed), a row duplicated or
    doubled, and an opposite row that empties the set; in random order.
    """
    k = draw(st.integers(0, 3))
    h = draw(st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=3))
    unit = [tuple(int(r == i) for r in range(k)) for i in range(k)]
    normal = st.lists(small, min_size=k, max_size=k).filter(any).map(tuple)
    if not k:
        normals = [()] * draw(st.integers(0, 4))
        offsets = draw(st.lists(offset, min_size=len(normals), max_size=len(normals)))
    elif draw(st.booleans()):
        normals = [s for e in unit for s in (e, tuple(-x for x in e))]
        offsets = [h] * (2 * k)
        for _ in range(draw(st.integers(0, 3))):
            a = draw(normal)
            corner = [draw(st.sampled_from([h, -h])) for _ in range(k)]
            normals.append(a)
            offsets.append(-linalg.dot(a, corner))
    else:
        # the base x_k >= 0 and the lateral facets x_k <= h + <u, x'> through (0, ..., 0, h)
        lateral = st.lists(small, min_size=k - 1, max_size=k - 1).map(lambda u: (*u, -1))
        normals = [unit[-1], *draw(st.lists(lateral, min_size=2 * k - 1, max_size=2 * k + 3))]
        offsets = [Fraction(0)] + [h] * (len(normals) - 1)
    for kind in draw(st.lists(st.sampled_from(["drop", "duplicate", "empty"]), max_size=3)):
        if not normals:
            break
        i = draw(st.integers(0, len(normals) - 1))
        if kind == "drop":
            del normals[i], offsets[i]
        elif kind == "duplicate":
            scale = draw(st.integers(1, 2))
            normals.append(tuple(scale * x for x in normals[i]))
            offsets.append(scale * offsets[i])
        else:  # <a_i, x> <= -b_i - gap misses <a_i, x> >= -b_i
            normals.append(tuple(-x for x in normals[i]))
            offsets.append(-offsets[i] - draw(offset.filter(bool)) ** 2)
    y = draw(st.lists(offset, min_size=k, max_size=k))
    offsets = [b + linalg.dot(a, y) for a, b in zip(normals, offsets)]
    order = draw(st.permutations(range(len(normals))))
    return HPolytope(k, tuple(normals[i] for i in order), tuple(offsets[i] for i in order))


class TestPrimalEdgeWalk:
    """m >= k: the vertices come from a walk along edges from one feasible
    basis, and must equal those of solving every k-subset
    (``ref.primal_vertex_set``), the index of a degenerate vertex included."""

    @SETTINGS
    @given(primal_presentations())
    def test_vertex_set_equals_the_subset_search(self, poly):
        assume(len(poly.relations) == poly.n - poly.dim >= poly.dim)
        assert enumerate_vertices(poly) == ref.primal_vertex_set(poly)
        assert_matches_reference(poly)

    @pytest.mark.parametrize(
        "poly, active, indices",
        [
            # the octahedron |x| + |y| + |z| <= 1: every vertex is on four facets
            (
                HPolytope(3, tuple(product((1, -1), repeat=3)), (Fraction(1),) * 8),
                [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6), (1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7)],
                (1,) * 6,
            ),
            # a pyramid whose apex (0, 0, 1) is on six facets, its first basis of
            # index 2 and its last of index 6, and one base corner on five
            (
                HPolytope(
                    3,
                    tuple((*u, -1) for u in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 2), (-2, -1)))
                    + ((0, 0, 1),),
                    (Fraction(1),) * 6 + (Fraction(0),),
                ),
                [(0, 1, 2, 3, 4, 5), (0, 4, 6), (0, 3, 6), (3, 5, 6), (1, 2, 4, 5, 6)],
                (2, 2, 1, 2, 1),
            ),
        ],
    )
    def test_degenerate_vertices_equal_the_subset_search(self, poly, active, indices):
        vs = enumerate_vertices(poly)
        assert [v.active for v in vs.vertices] == active
        assert tuple(v.index for v in vs.vertices) == indices
        assert vs == ref.primal_vertex_set(poly)
        assert_matches_reference(poly)

    def test_walk_solves_far_fewer_systems_than_the_subsets(self, monkeypatch):
        # the seed-7 cut box (k, n) = (6, 20) has 38,760 6-subsets and 134
        # vertices; a return to solving every subset fails here
        calls = []
        solve = linalg.solve

        def counting(rows, n):
            calls.append(n)
            return solve(rows, n)

        monkeypatch.setattr(linalg, "solve", counting)
        normals, offsets = _load_perfbench("workloads").random_cut_box(random.Random(7), 6, 20)
        vs = enumerate_vertices(HPolytope(6, normals, tuple(map(Fraction, offsets))))
        assert len(vs.vertices) == 134 and vs.bounded
        assert 0 < len(calls) < 2_000


class TestSlackRecords:
    """A vertex is recorded by its slack vector ``s = A^T x + b``, which does
    not depend on the presentation: the polytope that the quadric system
    ``Gamma u^2 = delta`` gives back has the same slack polytope, so it must
    give the same records, index included, on both sides of the
    enumeration choice and at degenerate vertices."""

    @SETTINGS
    @given(st.one_of(presentations(), primal_presentations(), plane_presentations()))
    def test_records_survive_the_quadric_round_trip(self, poly):
        # a pointed presentation with at least one quadric
        assume(len(poly.relations) == poly.n - poly.dim > 0)
        back = quadrics_to_polytope(polytope_to_quadrics(poly))
        assert enumerate_vertices(back) == enumerate_vertices(poly)

    @pytest.mark.parametrize(
        "poly",
        [
            # the octahedron, primal side, every vertex on four facets
            HPolytope(3, tuple(product((1, -1), repeat=3)), (Fraction(1),) * 8),
            # m = 2: Gamma b = 0, one point on every facet
            _plane_presentation([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], [0, 0, 0], [0] * 5),
            # m = 3 < k = 5 with rational offsets
            HPolytope(
                5,
                tuple(tuple(int(r == i) for r in range(5)) for i in range(5))
                + ((-1,) * 5, (1, 1, 0, 0, 0), (0, -1, 1, 0, 0)),
                (Fraction(1, 2),) * 6 + (Fraction(2), Fraction(1, 3)),
            ),
            # the det L = 2 diamond
            HPolytope(2, ((1, 1), (1, -1), (-1, 1), (-1, -1)), (Fraction(1),) * 4),
        ],
        ids=["octahedron", "gale-point", "gale-3", "diamond"],
    )
    def test_records_of_fixed_presentations(self, poly):
        back = quadrics_to_polytope(polytope_to_quadrics(poly))
        assert enumerate_vertices(back) == enumerate_vertices(poly)


class TestSaturatedRelations:
    """The relation rows of a presentation are saturated, so the columns of
    its ``Gamma`` span ``Z^m``: the saturation check accepts every system
    that ``polytope_to_quadrics`` builds, and the pairings of the standard
    dual basis with its columns are ``Gamma`` itself."""

    @SETTINGS
    @given(
        st.one_of(
            presentations(),
            non_unimodular_presentations(),
            dimension_zero_presentations(),
            primal_presentations(),
            plane_presentations(),
        )
    )
    def test_deck_pairings_are_gamma(self, poly):
        # the normals span
        assume(len(poly.relations) == poly.n - poly.dim)
        q = polytope_to_quadrics(poly)
        assert q.saturated_gamma == q.gamma == poly.relations


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
        report = structure_report(poly)
        assert (report.fano, report.fano_constant, report.fano_translation) == expected

    def test_cases_are_exercised(self):
        # Gamma 1 = 0 with a consistent offset, a rank-deficient translated
        # presentation, and a non-primitive normal
        strip = HPolytope(2, ((1, 0), (1, 1), (1, -1)), (Fraction(3), Fraction(1), Fraction(5)))
        assert not any(sum(row) for row in strip.relations)
        slab = HPolytope(2, ((1, 1), (-1, -1)), (Fraction(5, 2), Fraction(-1, 2)))
        doubled = HPolytope(1, ((2,), (-1,)), (Fraction(1), Fraction(1)))
        for poly, flag in ((strip, True), (slab, True), (doubled, False)):
            assert ref.is_fano(poly)[0] is flag
            assert is_fano(poly) == ref.is_fano(poly)
