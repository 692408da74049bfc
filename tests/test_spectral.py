import json
import math
import random

import pytest

from delzant.polytopes import PolytopeFormatError
from delzant.spectral import (
    HomologyProfile,
    ProfileError,
    admissible_maslov,
    binomial_details,
    binomial_lemma,
    brute_force_vanishes,
    collapse_page,
    parse_profile,
    profile_to_json,
    run_engine,
)


def sphere_product(p, q, l_dim):
    dims = {0: 1, p + q - 2: 1}
    dims[p - 1] = dims.get(p - 1, 0) + 1
    dims[q - 1] = dims.get(q - 1, 0) + 1
    return HomologyProfile.from_dims(dims, l_dim, orientable=True)


def sphere_power(p, m, l_dim):
    dims = {r * (p - 1): math.comb(m, r) for r in range(m + 1)}
    return HomologyProfile.from_dims(dims, l_dim, orientable=True)


def connected_sum(p):
    dims = {0: 1, 2 * p - 1: 5, 3 * p - 2: 5, 5 * p - 3: 1}
    return HomologyProfile.from_dims(dims, 5 * p, orientable=True)


class TestProfileJson:
    def test_roundtrip(self):
        profile = sphere_product(4, 6, 10)
        assert parse_profile(json.dumps(profile_to_json(profile))) == profile

    @pytest.mark.parametrize(
        "field, value",
        [
            ("orientable", "false"),
            ("orientable", 1),
            ("L_dim", 3.7),
            ("L_dim", True),
            ("dims", {"0": 1, "3": 1.5}),
            ("dims", {"0": 1, "1.0": 1}),
            ("L_dim", "1_0"),
            ("L_dim", "\u0661\u0662"),
            ("dims", {"0": 1, "1_0": 1}),
            ("dims", {"0": 1, "3": "\u0661\u0662"}),
        ],
    )
    def test_rejects_coercible_fields(self, field, value):
        data = {"dims": {"0": 1, "3": 1}, "L_dim": 8, "orientable": True, field: value}
        with pytest.raises(PolytopeFormatError, match=field.split("_")[0]):
            parse_profile(json.dumps(data))


class TestRunEngine:
    def test_s3_s5_excludes_8(self):
        result = run_engine(sphere_product(4, 6, 10), 8)
        assert result.excluded and result.witness_degree == 0

    def test_s3_s5_admits_4(self):
        assert not run_engine(sphere_product(4, 6, 10), 4).excluded

    def test_s3_s5_admits_6(self):
        assert not run_engine(sphere_product(4, 6, 10), 6).excluded

    def test_connected_sum_excludes_8_at_p4(self):
        # H at degree 3p-2 = 10 can only be hit from degree 2p-1 = 7, which
        # needs rN = p; with N = 8 both 7 and 10 survive, 7 being least
        result = run_engine(connected_sum(4), 8)
        assert result.excluded
        assert result.witness_degree == 7

    def test_collapse_page_formula(self):
        assert collapse_page(10, 8) == 2
        assert collapse_page(10, 2) == 6

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            run_engine(sphere_product(4, 6, 10), 1)


class TestAdmissible:
    def test_s3_s5(self):
        assert admissible_maslov(sphere_product(4, 6, 10), 10) == {2, 4, 6}

    def test_s3_squared(self):
        profile = sphere_power(4, 2, 8)
        assert profile.as_dict() == {0: 1, 3: 2, 6: 1}
        assert admissible_maslov(profile, 8) == {2, 4}

    def test_contractible_cover_rejected(self):
        profile = HomologyProfile.from_dims({0: 1}, 2, orientable=True)
        with pytest.raises(ProfileError, match="non-compact"):
            admissible_maslov(profile, 4)

    def test_orientable_excludes_odd(self):
        admissible = admissible_maslov(sphere_product(4, 6, 10), 9)
        assert all(n % 2 == 0 for n in admissible)

    def test_non_orientable_runs_odd(self):
        dims = {0: 1, 2: 1}
        profile = HomologyProfile.from_dims(dims, 4, orientable=False)
        admissible = admissible_maslov(profile, 4)
        assert 3 in admissible  # page-1 shift 2 cancels 0 against 2


class TestBinomialLemma:
    def test_m_ten(self):
        # central term 252 against tails 2*(1+10+45) = 112
        assert math.comb(10, 5) == 252
        tails = sum(math.comb(10, i) for i in range(0, 3)) + sum(
            math.comb(10, i) for i in range(8, 11)
        )
        assert tails == 112
        assert binomial_lemma(10)

    def test_m_four(self):
        assert binomial_lemma(4)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            binomial_lemma(3)

    def test_exact_validity_range(self):
        # the dominance inequality holds precisely for 4 <= m <= 14; from
        # m = 15 on the tails outgrow the central coefficient
        for m in range(4, 61):
            assert binomial_lemma(m) is (m <= 14)
        d15 = binomial_details(15)
        assert d15["central"] == 6435 and d15["tails"] == 6885

    def test_induction_bound_breaks_at_eight(self):
        for m in range(4, 61, 2):
            assert binomial_details(m)["induction_bound_holds"] is (m in (4, 6))
        assert 2 ** 7 > math.comb(8, 4) + math.comb(8, 5)  # 128 > 126


class TestBruteForce:
    def test_simple_cancellation(self):
        profile = HomologyProfile.from_dims({0: 1, 3: 1}, 4, orientable=True)
        assert brute_force_vanishes(profile, 4)

    def test_unkillable_class(self):
        profile = HomologyProfile.from_dims({0: 1, 3: 1}, 4, orientable=True)
        assert not brute_force_vanishes(profile, 3)

    def test_dimension_mismatch_blocks(self):
        # two classes in degree 3 cannot both cancel against single neighbors
        profile = HomologyProfile.from_dims({0: 1, 3: 2}, 5, orientable=True)
        assert not brute_force_vanishes(profile, 4)

    def test_engine_is_conservative_on_random_profiles(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(60):
            profile = _random_profile(rng)
            for n in range(2, profile.l_dim + 1):
                result = run_engine(profile, n)
                if result.excluded:
                    assert not brute_force_vanishes(profile, n), (profile, n)
                    checked += 1
        assert checked > 30


def _random_profile(rng, max_total=8, max_l=10):
    l_dim = rng.randint(2, max_l)
    cover = rng.randint(1, l_dim)
    dims = {0: 1, cover: 1}
    budget = rng.randint(0, max_total - 2)
    for _ in range(budget):
        d = rng.randint(0, cover)
        dims[d] = dims.get(d, 0) + 1
    return HomologyProfile.from_dims(dims, l_dim, orientable=bool(rng.random() < 0.5))


class TestSpherePowerSweep:
    def test_admissible_within_divisors_up_to_m6(self):
        for p in (2, 4, 6):
            for m in (2, 3, 5, 6):
                profile = sphere_power(p, m, m * (p - 1) + m)
                admissible = admissible_maslov(profile, profile.l_dim)
                evens = {n for n in admissible if n % 2 == 0}
                assert evens <= {d for d in range(2, p + 1, 2) if p % d == 0}, (p, m)
