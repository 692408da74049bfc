import hashlib
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from delzant import invariants, oracle
from delzant.families import (
    FamilyRangeWarning,
    gen_product_simplices,
    gen_redundant_simplex,
    parse_family_spec,
)
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
from delzant.polytopes import HPolytope
from delzant.quadrics import QuadricSystem, polytope_to_quadrics
from delzant.reproduce import DEFAULT_ORACLE_SEED, ORACLE_CATALOG


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

    def test_explicit_samples_only_add_to_the_default(self):
        # two samples of (1,-1) would land on the same phase after a whole turn,
        # and one midpoint would double the area
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        point = sample_point(q, family="product-simplices:p=4,n=10,k=2")
        for samples in (1, 2, 5):
            loop = TorusLoop((1, -1), doubled=True, samples=samples)
            assert loop_maslov(q, loop, point) == expected_maslov(q, loop) == -8
            assert loop_area(q, loop, point) == pytest.approx(closed_form_area(q, loop))
            assert closed_form_area(q, loop) == pytest.approx(-4 * math.pi)


class TestOracleChecks:
    def test_catalog_records_pass(self):
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        loops = [TorusLoop((1, 0)), TorusLoop((0, 1)), TorusLoop((1, -1))]
        records = oracle_checks(q, loops, family="product-simplices:p=4,n=10,k=2")
        assert all(r["pass"] for r in records)
        assert len(records) == 1 + 2 * len(loops)


def cut_box(seed: int) -> QuadricSystem:
    """The quadrics of a box [-h, h]^k with a few integer cuts keeping the origin inside."""
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    half = rng.randint(1, 3)
    normals = [tuple(s * int(r == i) for i in range(k)) for r in range(k) for s in (1, -1)]
    offsets = [Fraction(half)] * (2 * k)
    n = 2 * k + rng.randint(1, 3)
    while len(normals) < n:
        a = tuple(rng.randint(-2, 2) for _ in range(k))
        if any(a):
            normals.append(a)
            offsets.append(Fraction(rng.randint(1, half * sum(map(abs, a)))))
    return polytope_to_quadrics(HPolytope(k, tuple(normals), tuple(offsets)))


def stacked_cases():
    """(system, base point, loop coefficients) on catalog and random systems."""
    cases = []
    for spec in ("product-simplices:p=4,n=10,k=2", "redundant-simplex:n=7,k=4"):
        q = polytope_to_quadrics(parse_family_spec(spec))
        cases.append((q, sample_point(q, family=spec)))
    for seed in range(3):
        q = cut_box(seed)
        cases.append((q, sample_point(q, seed=seed)))
    rng = random.Random(5)
    out = []
    for q, point in cases:
        for _ in range(2):
            coeffs = (0,) * q.m
            while not any(coeffs):
                coeffs = tuple(rng.randint(-3, 3) for _ in range(q.m))
            out.append((q, point, coeffs))
    return out


def maslov_floor(system, coeffs) -> int:
    """The sample count the winding bound chooses for the doubled loop of ``coeffs``;
    an explicit count below it is raised to it."""
    pairings = oracle._loop_data(system, TorusLoop(coeffs)).pairings
    return max(oracle.DEFAULT_CONFIG.min_samples, 16 + 16 * int(np.sum(np.abs(pairings))))


def chunk_edges(system, coeffs) -> tuple[int, ...]:
    """Explicit sample counts: one below the floor, the floor, and three whose
    ``samples + 1`` frames lie on both sides of a multiple of the chunk size."""
    floor = maslov_floor(system, coeffs)
    edge = -(-(floor + 2) // oracle._DET_CHUNK) * oracle._DET_CHUNK
    return (1, floor, edge - 2, edge - 1, edge)


def per_sample_winding(system, loop, point) -> int:
    """The unstacked reference winding: one ``np.linalg.det`` call per sample."""
    pairings = oracle._loop_data(system, loop).pairings
    factor = 2.0 if loop.doubled else 1.0
    base = oracle._frame_matrix(system, point.u)
    reference = abs(np.linalg.det(base))
    samples = max(loop.samples, maslov_floor(system, loop.coeffs))
    while True:
        s = np.linspace(0.0, 1.0, samples + 1)
        phases = np.exp(1j * math.pi * factor * np.outer(s, pairings))
        dets = np.array([np.linalg.det(phases[i][:, None] * base) for i in range(len(s))])
        assert np.min(np.abs(dets)) >= 1e-12 * reference
        angles = np.unwrap(np.angle(dets**2))
        if np.max(np.abs(np.diff(angles))) < math.pi / 2:
            return round((angles[-1] - angles[0]) / (2 * math.pi))
        samples *= 2


class TestStackedDeterminant:
    def test_winding_matches_per_sample_loop(self):
        for q, point, coeffs in stacked_cases():
            for samples in chunk_edges(q, coeffs):
                loop = TorusLoop(coeffs, doubled=True, samples=samples)
                assert loop_maslov(q, loop, point) == per_sample_winding(q, loop, point)

    def test_stacked_dets_match_per_sample_dets(self, monkeypatch):
        det = np.linalg.det
        stacks = []

        def recording(a):
            result = det(a)
            if np.ndim(a) == 3:
                stacks.append((np.array(a), result))
            return result

        monkeypatch.setattr(np.linalg, "det", recording)
        for q, point, coeffs in stacked_cases()[::3]:
            floor = maslov_floor(q, coeffs)
            for samples in chunk_edges(q, coeffs):
                start = len(stacks)
                loop_maslov(q, TorusLoop(coeffs, doubled=True, samples=samples), point)
                # the first pass takes max(samples, floor) + 1 frames
                frames = max(samples, floor) + 1
                chunks = -(-frames // oracle._DET_CHUNK)
                assert sum(len(a) for a, _ in stacks[start : start + chunks]) == frames
        monkeypatch.undo()
        assert stacks
        assert max(len(a) for a, _ in stacks) == oracle._DET_CHUNK
        for frames, result in stacks:
            single = np.array([det(frame) for frame in frames])
            assert np.all(np.abs(result - single) <= 1e-12 * np.abs(single))

    def test_zero_column_frame_raises(self, monkeypatch):
        q = polytope_to_quadrics(gen_redundant_simplex(5, 2))
        point = sample_point(q, family="redundant-simplex:n=5,k=2")
        honest = oracle._frame_matrix

        def zero_column(system, u):
            frame = honest(system, u).copy()
            frame[:, -1] = 0
            return frame

        monkeypatch.setattr(oracle, "_frame_matrix", zero_column)
        for samples in chunk_edges(q, (1, 1)):
            with pytest.raises(OracleError, match="frame degeneracy"):
                loop_maslov(q, TorusLoop((1, 1), samples=samples), point)


def catalog_records() -> list:
    """``verify``'s oracle-agreement records: the catalog with its seeded loops."""
    rng = np.random.default_rng(DEFAULT_ORACLE_SEED)
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FamilyRangeWarning)
        for spec in ORACLE_CATALOG:
            system = polytope_to_quadrics(parse_family_spec(spec))
            classes = [(1, 0), (0, 1)]
            while len(classes) < 22:
                candidate = tuple(int(c) for c in rng.integers(-3, 4, size=system.m))
                if any(candidate):
                    classes.append(candidate)
            loops = [TorusLoop(coords, doubled=True) for coords in classes]
            records.extend(oracle_checks(system, loops, family=spec, seed=DEFAULT_ORACLE_SEED))
    return records


# the digest of ``catalog_records()`` as the unstacked per-sample determinant loop gives it
CATALOG_DIGEST = "60c4b28e3cbe34d2fe3cdfe35dc15812cdaf2be780b9faf5b6e673300a9e46e2"


class TestDeckRecord:
    def test_one_deck_data_call_per_system(self, monkeypatch):
        # the cached property calls invariants.deck_data through the module
        # global, so a counter bound there sees every computation
        calls = []
        fresh = invariants.deck_data

        def counting(system):
            calls.append(system)
            return fresh(system)

        monkeypatch.setattr(invariants, "deck_data", counting)
        q = polytope_to_quadrics(gen_redundant_simplex(7, 4))
        point = sample_point(q, seed=1)
        readers = (
            lambda loop: loop_area(q, loop, point),
            lambda loop: loop_maslov(q, loop, point),
            lambda loop: closed_form_area(q, loop),
            lambda loop: expected_maslov(q, loop),
        )
        for i in range(10):
            readers[i % 4](TorusLoop((1, i - 5)))
        assert len(calls) == 1 and calls[0] is q
        other = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        closed_form_area(other, TorusLoop((1, 0)))
        expected_maslov(other, TorusLoop((0, 1)))
        assert len(calls) == 2 and calls[1] is other
        # an equal system is another object with its own record
        twin = QuadricSystem(q.gamma, q.delta)
        expected_maslov(twin, TorusLoop((0, 1)))
        assert len(calls) == 3 and calls[2] is twin

    def test_saturated_gamma_is_gamma_after_one_check(self):
        for q in (
            circle(),
            polytope_to_quadrics(gen_redundant_simplex(13, 8)),
            QuadricSystem(((1, 1, 1),), (Fraction(7, 3),)),
            cut_box(4),
        ):
            # the standard dual basis: the pairings are Gamma itself
            assert q.saturated_gamma is q.gamma
            assert "saturated_gamma" in vars(q)
            assert invariants.deck_data(q) is None

    def test_catalog_records_unchanged(self):
        records = catalog_records()
        assert len(records) == len(ORACLE_CATALOG) * (1 + 2 * 22)
        assert all(r["pass"] for r in records)
        text = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGEST


class TestSampleCap:
    """Both sample floors of a loop come from one helper, and a floor above
    ``max_samples`` refuses the loop in every oracle function."""

    @pytest.mark.parametrize(
        "doubled, pairings, counts",
        [
            # the quadrature's floor 64 (1 + f max|n_j|) sets the cap ...
            (True, [511, 0], (65472, 8192)),
            (True, [512, 0], None),
            (False, [1023, 0], (65536, 8200)),
            (False, [1024, 0], None),
            # ... or the winding's floor 16 + 8 f sum|n_j|; both are at least min_samples
            (True, [1] * 4095, (256, 65536)),
            (True, [1] * 4096, None),
        ],
    )
    def test_floors_at_the_cap(self, doubled, pairings, counts):
        loop = TorusLoop((1,), doubled=doubled)
        if counts is None:
            with pytest.raises(OracleError, match="above the cap of 65536"):
                oracle._sample_counts(loop, pairings)
        else:
            assert oracle._sample_counts(loop, pairings) == counts

    def test_explicit_samples_raise_both_counts(self):
        assert oracle._sample_counts(TorusLoop((1,), samples=1000), [3, 1]) == (1000, 1000)

    def test_every_oracle_function_refuses(self):
        q = polytope_to_quadrics(gen_product_simplices(4, 10, 2))
        point = sample_point(q, family="product-simplices:p=4,n=10,k=2")
        loop = TorusLoop((512, 0))
        for measure in (
            lambda: loop_area(q, loop, point),
            lambda: loop_maslov(q, loop, point),
            lambda: closed_form_area(q, loop),
            lambda: expected_maslov(q, loop),
        ):
            with pytest.raises(OracleError, match=r"loop \(512,0\) needs 65600 samples"):
                measure()
