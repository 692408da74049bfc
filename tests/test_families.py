import math
import warnings
from fractions import Fraction

import pytest

from delzant import families
from delzant.families import (
    FamilyRangeWarning,
    connected_sum_profile,
    even_divisors,
    family_spec,
    gen_product_simplices,
    gen_redundant_simplex,
    parse_family_spec,
    parse_profile_spec,
    recognize_topology,
    redundant_simplex_predicted_divisors,
    redundant_simplex_realized_divisors,
    sphere_power_profile,
    sphere_product_profile,
)
from delzant.invariants import deck_data, loop_lattice, maslov_area_report
from delzant.polytopes import HPolytope, PolytopeFormatError, redundancy, structure_report
from delzant.quadrics import QuadricSystem, polytope_to_quadrics
from delzant.reproduce import (
    product_pipeline_instances,
    realized_product_divisors,
    redundant_pipeline_instances,
)

from .test_golden_output import random_presentation


def pipeline_minimal_maslov(poly):
    q = polytope_to_quadrics(poly)
    deck = deck_data(q)
    strict = sorted(i for i, s in redundancy(poly).items() if s)
    report = maslov_area_report(q, loop_lattice(deck, strict))
    return q, strict, report


class TestGenerators:
    def test_product_shape(self):
        poly = gen_product_simplices(4, 10, 2)
        assert poly.dim == 8 and poly.n == 10
        assert all(b == 1 for b in poly.offsets)

    def test_product_quadric_targets(self):
        q, _, report = pipeline_minimal_maslov(gen_product_simplices(4, 10, 2))
        assert q.delta == (Fraction(4), Fraction(8))
        assert report.minimal_maslov == 4

    def test_product_k0_minimal_maslov(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FamilyRangeWarning)
            poly = gen_product_simplices(4, 10, 0)
        _, _, report = pipeline_minimal_maslov(poly)
        assert report.minimal_maslov == 2  # gcd(4, 6)

    def test_minimal_parameters(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FamilyRangeWarning)
            poly = gen_product_simplices(2, 4, 0)
        assert poly.dim == 2 and poly.n == 4
        assert structure_report(poly).delzant

    def test_boundary_parameters_warn(self):
        with pytest.warns(FamilyRangeWarning):
            gen_product_simplices(4, 8, 0)  # n-p+k = p boundary

    def test_product_hard_errors(self):
        with pytest.raises(ValueError):
            gen_product_simplices(4, 10, 3)
        with pytest.raises(ValueError):
            gen_product_simplices(4, 10, 4)
        with pytest.raises(ValueError):
            gen_product_simplices(4, 5, 0)

    def test_redundant_shape_and_quadrics(self):
        q, strict, report = pipeline_minimal_maslov(gen_redundant_simplex(5, 2))
        assert q.gamma == ((1, 1, 1, 1, 0), (1, 1, 0, 0, 1))
        assert q.delta == (Fraction(4), Fraction(6))
        assert strict == [4]
        assert report.minimal_maslov == 2

    def test_redundant_spot_values(self):
        for n, k, expected in [(13, 8, 6), (31, 24, 10), (31, 20, 6)]:
            _, _, report = pipeline_minimal_maslov(gen_redundant_simplex(n, k))
            assert report.minimal_maslov == expected

    def test_redundant_hard_errors(self):
        with pytest.raises(ValueError):
            gen_redundant_simplex(6, 2)
        with pytest.raises(ValueError):
            gen_redundant_simplex(13, 4)  # k <= (n-3)/2
        with pytest.raises(ValueError):
            gen_redundant_simplex(13, 7)


class TestRealizationSweeps:
    # the product sweeps read N_L off the analyze_polytope report of each twist,
    # with the least twist realizing each value
    def test_twelve_twentyfour(self):
        assert realized_product_divisors(12, 24) == {2: 2, 4: 4, 6: 6, 12: 0}

    def test_four_eight(self):
        assert realized_product_divisors(4, 8) == {4: 0, 2: 2}

    def test_two_four(self):
        assert realized_product_divisors(2, 4) == {2: 0}

    def test_equals_even_divisors_when_n_large(self):
        for p in (4, 6, 8, 10, 12):
            for n in (2 * p, 2 * p + 4, 2 * p + 6):
                assert set(realized_product_divisors(p, n)) == even_divisors(p)

    def test_redundant_thirteen(self):
        assert set(redundant_simplex_realized_divisors(13)) == {2, 6}

    def test_redundant_thirtyone(self):
        realized = redundant_simplex_realized_divisors(31)
        assert set(realized) == {2, 6, 10}
        assert realized[10] == 24 and realized[6] == 20

    def test_redundant_five(self):
        assert redundant_simplex_realized_divisors(5) == {2: 2}

    def test_mod_four_split(self):
        assert redundant_simplex_predicted_divisors(13) == {2, 6}
        assert redundant_simplex_predicted_divisors(31) == {2, 6, 10}
        for n in range(5, 102, 2):
            predicted = redundant_simplex_predicted_divisors(n)
            if (n - 1) % 4 == 0:
                assert all(d % 4 == 2 for d in predicted)
            else:
                assert predicted == {d for d in even_divisors(n - 1) if d < n - 1}


class TestTopology:
    def test_product_family_tag(self):
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        tag = recognize_topology(q, ())
        assert tag is not None
        assert tag.sphere_dims == (5, 3)
        assert tag.torus_rank == 2 and tag.components == 1
        assert tag.orientable
        assert tag.lagrangian == "S^5 x S^3 x T^2"

    def test_product_orientability_criterion(self):
        # orientable iff p and n-p+k are both even
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FamilyRangeWarning)
            q = polytope_to_quadrics(gen_product_simplices(4, 9, 2))
        tag = recognize_topology(q, ())
        assert tag is not None and not tag.orientable  # n-p+k = 7 odd

    def test_flipped_block_sizes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FamilyRangeWarning)
            q = polytope_to_quadrics(gen_product_simplices(8, 10, 2))
        tag = recognize_topology(q, ())
        assert tag is not None
        # n-p+k = 4 < p = 8: the twist block joins the other sphere
        assert tag.sphere_dims == (5, 3)

    def test_redundant_family_tag(self):
        poly = gen_redundant_simplex(5, 2)
        q = polytope_to_quadrics(poly)
        tag = recognize_topology(q, (4,))
        assert tag is not None
        assert tag.sphere_dims == (3,)
        assert tag.components == 2
        assert tag.description == "S^3 x Z_2"
        assert tag.lagrangian == "S^3 x T^2"
        assert tag.orientable

    def test_three_quadrics_unknown(self):
        q = QuadricSystem(
            ((1, 2, 0, 1), (0, 1, 1, 0), (1, 0, 1, 1)),
            (Fraction(3), Fraction(2), Fraction(3)),
        )
        assert recognize_topology(q, ()) is None

    @pytest.mark.parametrize("strict", [(), (0,), (0, 1, 2, 3)])
    def test_core_size_outside_catalog_builds_no_core(self, monkeypatch, strict):
        # m = 4: only a strict set of 2 or 3 leaves a core of one or two quadrics
        def refused(*args):
            raise AssertionError("the core was built")

        monkeypatch.setattr(families, "_core_rows", refused)
        q = QuadricSystem(
            ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1), (1, 0, 1, 0, 1, 1)),
            (Fraction(2), Fraction(2), Fraction(2), Fraction(5)),
        )
        assert recognize_topology(q, strict) is None

    def test_sphere_tag(self):
        q = QuadricSystem(((1, 1, 1, 1),), (Fraction(4),))
        tag = recognize_topology(q, ())
        assert tag is not None and tag.sphere_dims == (3,)
        assert tag.orientable  # 4 coordinates flipped: even

    def test_odd_sphere_not_orientable(self):
        q = QuadricSystem(((1, 1, 1),), (Fraction(3),))
        tag = recognize_topology(q, ())
        assert tag is not None and not tag.orientable

    def test_equal_radii_overlap_unknown(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FamilyRangeWarning)
            q = polytope_to_quadrics(gen_product_simplices(6, 10, 2))
        assert recognize_topology(q, ()) is None  # d1 == d2 degenerates


class TestPipelineClosure:
    def test_product_family_claims(self):
        for p, n, k in [(4, 10, 2), (6, 14, 2), (6, 16, 4), (8, 18, 6)]:
            report = structure_report(gen_product_simplices(p, n, k))
            assert report.delzant and report.fano and report.fano_constant == 1
            assert report.redundant == ()
            assert report.monotone_ready

    def test_redundant_family_claims(self):
        for n, k in [(5, 2), (9, 6), (13, 8)]:
            poly = gen_redundant_simplex(n, k)
            report = structure_report(poly)
            assert report.delzant and not report.fano
            assert report.strict_redundant == (n - 1,)

    def test_maslov_values_even_when_orientable(self):
        for p, n, k in [(4, 10, 2), (6, 16, 4)]:
            poly = gen_product_simplices(p, n, k)
            q, _, report = pipeline_minimal_maslov(poly)
            tag = recognize_topology(q, ())
            assert tag.orientable
            assert all(v % 2 == 0 for v in report.maslov_values)

    def test_closed_form_maslov(self):
        for p, n, k in [(4, 12, 0), (4, 12, 2), (6, 14, 4), (6, 18, 2)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FamilyRangeWarning)
                poly = gen_product_simplices(p, n, k)
            _, _, report = pipeline_minimal_maslov(poly)
            assert report.minimal_maslov == math.gcd(p, n - p + k)
        for n, k in [(7, 4), (11, 6), (15, 8)]:
            _, _, report = pipeline_minimal_maslov(gen_redundant_simplex(n, k))
            assert report.minimal_maslov == math.gcd(n - 1, 2 * k + 2)


class TestProfiles:
    def test_sphere_product(self):
        profile = sphere_product_profile(4, 6)
        assert profile.as_dict() == {0: 1, 3: 1, 5: 1, 8: 1}
        assert profile.l_dim == 10 and profile.orientable

    def test_equal_spheres_double_middle(self):
        profile = sphere_product_profile(4, 4)
        assert profile.as_dict() == {0: 1, 3: 2, 6: 1}

    def test_sphere_power(self):
        profile = sphere_power_profile(4, 3)
        assert profile.as_dict() == {0: 1, 3: 3, 6: 3, 9: 1}
        assert profile.l_dim == 12

    def test_connected_sum(self):
        profile = connected_sum_profile(4)
        assert profile.as_dict() == {0: 1, 7: 5, 10: 5, 17: 1}
        assert profile.l_dim == 20


class TestSpecStrings:
    def test_family_strings(self):
        poly = parse_family_spec("product-simplices:p=4,n=10,k=2")
        assert poly == gen_product_simplices(4, 10, 2)
        poly = parse_family_spec("redundant-simplex:n=13,k=8")
        assert poly == gen_redundant_simplex(13, 8)

    def test_profile_strings(self):
        assert parse_profile_spec("sphere-product:p=4,q=6", 10).l_dim == 10
        assert parse_profile_spec("connected-sum-5:p=4").as_dict()[7] == 5

    def test_unknown_family(self):
        with pytest.raises(PolytopeFormatError):
            parse_family_spec("moment-angle:p=1")

    @pytest.mark.parametrize(
        "spec",
        [
            "product-simplices:p=4,n=10,k=2,k=0",
            "product-simplices:p=4,n=10,k=2,q=9",
            "product-simplices:p=4,n=1_0,k=2",
            "product-simplices:p=4,n=\u0661\u0660,k=2",
            "redundant-simplex:n=13,k=8,p=4",
            "redundant-simplex:n=13,k",
        ],
    )
    def test_family_spec_rejections(self, spec):
        with pytest.raises(PolytopeFormatError):
            parse_family_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "sphere-product:p=4,q=6,zz=1",
            "sphere-product:p=4,q=6,q=8",
            "sphere-power:p=4,m=3,l=1_0",
            "connected-sum-5:p=\u0664",
        ],
    )
    def test_profile_spec_rejections(self, spec):
        with pytest.raises(PolytopeFormatError):
            parse_profile_spec(spec)

    def test_optional_profile_parameter(self):
        assert parse_profile_spec("sphere-power:p=4,m=2,l=3").l_dim == 9

    @pytest.mark.parametrize("spec", ["sphere-power:p=4,m=3", "connected-sum-5:p=4"])
    def test_l_dim_only_for_sphere_product(self, spec):
        with pytest.raises(PolytopeFormatError, match="applies only to sphere-product"):
            parse_profile_spec(spec, 12)


class TestFamilySpec:
    def test_round_trip_over_pipeline_instances(self):
        included, degenerate = product_pipeline_instances()
        specs = [f"product-simplices:p={p},n={n},k={k}" for p, n, k in included + degenerate]
        specs += [f"redundant-simplex:n={n},k={k}" for n, k in redundant_pipeline_instances()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FamilyRangeWarning)
            for spec in specs:
                q = polytope_to_quadrics(parse_family_spec(spec))
                assert family_spec(q) == spec
                assert polytope_to_quadrics(parse_family_spec(family_spec(q))) == q

    def test_other_quadric_counts(self):
        simplex = HPolytope(2, ((1, 0), (0, 1), (-1, -1)), (Fraction(1),) * 3)
        cube = HPolytope(
            3,
            tuple(tuple(s * int(r == i) for r in range(3)) for i in range(3) for s in (1, -1)),
            (Fraction(1),) * 6,
        )
        assert polytope_to_quadrics(simplex).m == 1
        assert polytope_to_quadrics(cube).m == 3
        assert family_spec(polytope_to_quadrics(simplex)) is None
        assert family_spec(polytope_to_quadrics(cube)) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_golden_random_presentations(self, seed):
        assert family_spec(polytope_to_quadrics(random_presentation(seed))) is None

    def test_outside_the_generator_ranges(self):
        # the twisted-product pattern with an odd twist k = p-1 and n-p = 1:
        # gen_product_simplices rejects (4, 5, 3), so no spec names it
        q = QuadricSystem(((1, 1, 1, 1, 0), (1, 1, 1, 0, 1)), (Fraction(4), Fraction(4)))
        assert family_spec(q) is None
        with pytest.raises(ValueError):
            gen_product_simplices(4, 5, 3)


class TestAnalysisAssumptions:
    def test_connected_core_flag_outside_catalog(self):
        # a redundant presentation whose core is not in the catalog carries
        # the connectivity assumption
        from fractions import Fraction

        from delzant.analysis import CONNECTED_CORE_ASSUMPTION, analyze_polytope
        from delzant.polytopes import HPolytope

        # hexagon (not a simplex product) plus one strictly redundant inequality
        hexagon = HPolytope(
            2,
            ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 1)),
            tuple(Fraction(x) for x in (1, 1, 1, 1, 1, 1, 5)),
        )
        report = analyze_polytope(hexagon)
        assert report.structure.strict_redundant == (6,)
        assert report.topology is None
        assert CONNECTED_CORE_ASSUMPTION in report.assumptions

    def test_catalog_family_carries_no_connectivity_flag(self):
        from delzant.analysis import CONNECTED_CORE_ASSUMPTION, analyze_polytope

        report = analyze_polytope(gen_redundant_simplex(5, 2))
        assert report.topology is not None
        assert CONNECTED_CORE_ASSUMPTION not in report.assumptions

    def test_simply_connected_core_needs_no_extension(self):
        from delzant.analysis import analyze_polytope
        from delzant.invariants import ODD_CLASS_ASSUMPTION

        report = analyze_polytope(gen_product_simplices(4, 10, 2))
        assert ODD_CLASS_ASSUMPTION not in report.assumptions
        report = analyze_polytope(gen_redundant_simplex(5, 2))
        assert ODD_CLASS_ASSUMPTION in report.assumptions
