import math
from fractions import Fraction

import numpy as np
import pytest

from delzant.families import gen_product_simplices, gen_redundant_simplex
from delzant.oracle import (
    OracleError,
    TorusLoop,
    closed_form_area,
    expected_maslov,
    loop_area,
    loop_maslov,
    oracle_checks,
    sample_point,
)
from delzant.quadrics import QuadricSystem, polytope_to_quadrics


def circle():
    return QuadricSystem(((1, 1),), (Fraction(2),))


class TestSamplePoint:
    def test_circle_symmetric_point(self):
        point = sample_point(circle(), seed=3)
        assert np.max(np.abs(point.residuals)) <= 1e-10

    def test_product_family_unit_point(self):
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        point = sample_point(q, family="product-simplices:p=4,n=10,k=2")
        assert np.allclose(point.u, 1.0)

    def test_redundant_family_point(self):
        q = polytope_to_quadrics(gen_redundant_simplex(5, 2))
        point = sample_point(q, family="redundant-simplex:n=5,k=2")
        assert np.allclose(point.u, [1, 1, 1, 1, 2])

    def test_hint_for_another_size_rejected(self):
        q = polytope_to_quadrics(gen_redundant_simplex(5, 2))
        with pytest.raises(OracleError, match="inequalities"):
            sample_point(q, family="redundant-simplex:n=7,k=4")

    def test_generic_sampling_deterministic(self):
        q = polytope_to_quadrics(gen_redundant_simplex(7, 4))
        a = sample_point(q, seed=11)
        b = sample_point(q, seed=11)
        assert np.array_equal(a.u, b.u)
        assert np.max(np.abs(a.residuals)) <= 1e-10


class TestLoopArea:
    def test_redundant_slack_loop_area(self):
        # the doubled slack generator measures pi * delta_2 = (2k+2) pi
        q = polytope_to_quadrics(gen_redundant_simplex(5, 2))
        point = sample_point(q, family="redundant-simplex:n=5,k=2")
        loop = TorusLoop((0, 1), doubled=True)
        area = loop_area(q, loop, point)
        assert area == pytest.approx(6 * math.pi, rel=1e-8)
        assert closed_form_area(q, loop) == pytest.approx(6 * math.pi)

    def test_circle_doubled(self):
        q = circle()
        point = sample_point(q)
        area = loop_area(q, TorusLoop((1,), doubled=True), point)
        assert area == pytest.approx(2 * math.pi, rel=1e-8)

    def test_product_first_generator(self):
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        point = sample_point(q, family="product-simplices:p=4,n=10,k=2")
        area = loop_area(q, TorusLoop((1, 0), doubled=True), point)
        assert area == pytest.approx(4 * math.pi, rel=1e-8)

    def test_base_point_independence(self):
        q = polytope_to_quadrics(gen_redundant_simplex(7, 4))
        loop = TorusLoop((1, 1), doubled=True)
        areas = [
            loop_area(q, loop, sample_point(q, seed=seed)) for seed in range(5)
        ]
        reference = closed_form_area(q, loop)
        for area in areas:
            assert area == pytest.approx(reference, rel=1e-8)

    def test_non_closing_loop_rejected(self):
        q = polytope_to_quadrics(gen_redundant_simplex(5, 2))
        point = sample_point(q, family="redundant-simplex:n=5,k=2")
        with pytest.raises(OracleError, match="close"):
            loop_area(q, TorusLoop((0, 1), doubled=False), point)

    def test_plain_loop_on_vanishing_coordinates(self):
        # u_1^2 + 2 u_2^2 = 2 at u = (0, 1): the generator flips only u_1,
        # which vanishes, so the undoubled loop closes with area pi
        q = QuadricSystem(((1, 2),), (Fraction(2),))
        u = np.array([0.0, 1.0])
        from delzant.oracle import RPoint, residuals

        special = RPoint(u, residuals(q, u))
        loop = TorusLoop((1,), doubled=False)
        area = loop_area(q, loop, special)
        assert area == pytest.approx(math.pi, rel=1e-8)
        assert closed_form_area(q, loop) == pytest.approx(math.pi)


class TestLoopMaslov:
    def test_redundant_slack_loop(self):
        q = polytope_to_quadrics(gen_redundant_simplex(5, 2))
        point = sample_point(q, family="redundant-simplex:n=5,k=2")
        loop = TorusLoop((0, 1), doubled=True)
        assert loop_maslov(q, loop, point) == 6
        assert expected_maslov(q, loop) == 6

    def test_product_first_generator(self):
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        point = sample_point(q, family="product-simplices:p=4,n=10,k=2")
        assert loop_maslov(q, TorusLoop((1, 0), doubled=True), point) == 8

    def test_circle_doubled(self):
        q = circle()
        point = sample_point(q)
        assert loop_maslov(q, TorusLoop((1,), doubled=True), point) == 4

    def test_matches_pairing_on_random_classes(self):
        q = polytope_to_quadrics(gen_redundant_simplex(7, 4))
        point = sample_point(q, seed=2)
        rng = np.random.default_rng(7)
        for _ in range(6):
            coeffs = tuple(int(c) for c in rng.integers(-2, 3, size=2))
            if not any(coeffs):
                continue
            loop = TorusLoop(coeffs, doubled=True)
            assert loop_maslov(q, loop, point) == expected_maslov(q, loop)


class TestOracleChecks:
    def test_catalog_records_pass(self):
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        loops = [TorusLoop((1, 0)), TorusLoop((0, 1)), TorusLoop((1, -1))]
        records = oracle_checks(q, loops, family="product-simplices:p=4,n=10,k=2")
        assert all(r["pass"] for r in records)
        assert len(records) == 1 + 2 * len(loops)
