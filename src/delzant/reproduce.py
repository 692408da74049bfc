"""Reproduction suite: every headline claim as an executable check.

Each check returns a row with a stable key, a pass/fail/flagged status and
human-readable details.  The known factor-two discrepancy in the published
area of the redundant-simplex slack generator is reported as "flagged"
(the numerical measurement is attached); it is not a failure of the tool.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import analyze_polytope
from .families import (
    FamilyRangeWarning,
    connected_sum_profile,
    even_divisors,
    gen_product_simplices,
    gen_redundant_simplex,
    parse_family_spec,
    product_simplices_realized_divisors,
    recognize_topology,
    redundant_simplex_predicted_divisors,
    redundant_simplex_realized_divisors,
    sphere_power_profile,
    sphere_product_profile,
)
from .oracle import TorusLoop, oracle_checks
from .polytopes import enumerate_vertices, is_simple
from .quadrics import polytope_to_quadrics
from .spectral import (
    HomologyProfile,
    admissible_maslov,
    binomial_lemma,
    brute_force_vanishes,
    run_engine,
)

DEFAULT_ORACLE_SEED = 20240801
DEFAULT_PROFILE_SEED = 424242


@dataclass(frozen=True)
class SuiteRow:
    key: str
    description: str
    status: str  # "pass" | "fail" | "flagged"
    details: str

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "description": self.description,
            "status": self.status,
            "details": self.details,
        }


def _row(key, description, failures, detail_ok):
    if failures:
        shown = "; ".join(failures[:6])
        more = f" (+{len(failures) - 6} more)" if len(failures) > 6 else ""
        return SuiteRow(key, description, "fail", shown + more)
    return SuiteRow(key, description, "pass", detail_ok)


def product_pipeline_instances(n_max: int = 20):
    """The product-family grid: all even (p, n, k), p >= 4, n <= n_max.

    Instances with a nonzero twist on the boundary n-p+k == p are excluded:
    there the presentation provably stops being simple (the family is
    undefined on that diagonal); ``check_product_pipeline`` asserts the
    degeneracy for them instead of skipping silently.
    """
    included, degenerate = [], []
    for p in range(4, n_max - 1, 2):
        for n in range(p + 2, n_max + 1, 2):
            for k in range(0, p - 1, 2):
                if k and n - p + k == p:
                    degenerate.append((p, n, k))
                else:
                    included.append((p, n, k))
    return included, degenerate


def check_product_pipeline(n_max: int = 20) -> SuiteRow:
    included, degenerate = product_pipeline_instances(n_max)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FamilyRangeWarning)
        for p, n, k in included:
            poly = gen_product_simplices(p, n, k)
            report = analyze_polytope(poly)
            s = report.structure
            label = f"(p,n,k)=({p},{n},{k})"
            if not (s.delzant and s.fano and s.fano_constant == 1):
                failures.append(f"{label}: not Delzant-Fano with C=1")
            if s.redundant:
                failures.append(f"{label}: unexpected redundancy {s.redundant}")
            expected = math.gcd(p, n - p + k)
            if report.invariants.minimal_maslov != expected:
                failures.append(
                    f"{label}: N_L={report.invariants.minimal_maslov} != gcd={expected}"
                )
            if not (
                report.invariants.monotone
                and report.invariants.monotonicity_coeff == Fraction(1, 2)
            ):
                failures.append(f"{label}: not monotone with c = pi/2")
        for p, n, k in degenerate:
            poly = gen_product_simplices(p, n, k)
            vs = enumerate_vertices(poly)
            if is_simple(vs, poly.dim):
                failures.append(
                    f"(p,n,k)=({p},{n},{k}): expected boundary degeneracy is absent"
                )
    detail = (
        f"{len(included)} instances Delzant+Fano(C=1), irredundant, N_L=gcd(p,n-p+k), "
        f"monotone c=pi/2; {len(degenerate)} boundary instances confirmed non-simple"
    )
    return _row(
        "pipeline-products",
        "twisted simplex products: structure, N_L, monotonicity",
        failures,
        detail,
    )


def check_product_realization() -> SuiteRow:
    failures = []
    count = 0
    for p in (4, 6, 8, 10, 12):
        for n in (2 * p, 2 * p + 4):
            try:
                realized = product_simplices_realized_divisors(p, n)
            except AssertionError as exc:
                failures.append(f"(p,n)=({p},{n}): {exc}")
                continue
            if set(realized) != even_divisors(p):
                failures.append(f"(p,n)=({p},{n}): {sorted(realized)}")
            count += 1
    return _row(
        "realization-products",
        "realized minimal Maslov numbers equal the even divisors",
        failures,
        f"{count} (p,n) sweeps match the even-divisor sets",
    )


def redundant_pipeline_instances(n_max: int = 33):
    instances = []
    for n in range(5, n_max + 1, 2):
        start = (n - 1) // 2
        if start % 2:
            start += 1
        for k in range(start, n - 1, 2):
            instances.append((n, k))
    return instances


def check_redundant_pipeline(n_max: int = 33) -> SuiteRow:
    failures = []
    instances = redundant_pipeline_instances(n_max)
    minimal_maslov = {}
    for n, k in instances:
        poly = gen_redundant_simplex(n, k)
        report = analyze_polytope(poly)
        s = report.structure
        label = f"(n,k)=({n},{k})"
        if s.redundant != (n - 1,) or s.strict_redundant != (n - 1,):
            failures.append(f"{label}: redundancy {s.redundant} not the single slack")
        if report.loops.basis != ((1, 0), (0, 2)) or report.loops.index_in_dual != 2:
            failures.append(f"{label}: loop lattice {report.loops.basis}")
        if report.invariants.maslov_values != (n - 1, 2 * k + 2):
            failures.append(
                f"{label}: Maslov values {report.invariants.maslov_values}"
            )
        minimal_maslov[n, k] = report.invariants.minimal_maslov
        if minimal_maslov[n, k] != math.gcd(n - 1, 2 * k + 2):
            failures.append(f"{label}: N_L {minimal_maslov[n, k]}")
    for n, k, expected in [(13, 8, 6), (31, 24, 10), (31, 20, 6)]:
        found = minimal_maslov.get((n, k))
        if found != expected:
            failures.append(f"spot (n,k)=({n},{k}): N_L {found} != {expected}")
    return _row(
        "pipeline-redundant",
        "redundant simplex family: slack, loop lattice, Maslov values",
        failures,
        f"{len(instances)} instances match (n-1, 2k+2) with N_L = gcd; spot values 6, 10, 6",
    )


def check_redundant_realization(n_max: int = 101) -> SuiteRow:
    failures = []
    count = 0
    for n in range(5, n_max + 1, 2):
        try:
            realized = redundant_simplex_realized_divisors(n)
        except AssertionError as exc:
            failures.append(f"n={n}: {exc}")
            continue
        if set(realized) != redundant_simplex_predicted_divisors(n):
            failures.append(f"n={n}: {sorted(realized)}")
        count += 1
    for n, expected in [(13, {2, 6}), (31, {2, 6, 10})]:
        if set(redundant_simplex_realized_divisors(n)) != expected:
            failures.append(f"n={n}: spot set mismatch")
    return _row(
        "realization-redundant",
        "redundant-family realized sets match the mod-4 prediction",
        failures,
        f"{count} odd n in [5, {n_max}] match the predicted divisor sets",
    )


def check_sphere_product_restriction(n_max: int = 20) -> SuiteRow:
    failures = []
    pairs = 0
    for p in range(4, n_max - 3, 2):
        for n in range(p + 4, n_max + 1, 2):
            q = n - p
            profile = sphere_product_profile(p, q, l_dim=n)
            admissible = admissible_maslov(profile, n)
            allowed = even_divisors(p) | even_divisors(q)
            extras = {a for a in admissible if a % 2 == 0} - allowed
            if extras:
                failures.append(f"S^{p-1}xS^{q-1}: admissible extras {sorted(extras)}")
            pairs += 1
    # consistency: every realized N_L with recognized sphere-product topology
    # is admissible for that topology's profile
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FamilyRangeWarning)
        for p, n, k in product_pipeline_instances(n_max)[0]:
            system = polytope_to_quadrics(gen_product_simplices(p, n, k))
            tag = recognize_topology(system, ())
            if tag is None or len(tag.sphere_dims) != 2 or not tag.orientable:
                continue
            d1, d2 = tag.sphere_dims
            profile = sphere_product_profile(d1 + 1, d2 + 1, l_dim=n)
            value = math.gcd(p, n - p + k)
            if value not in admissible_maslov(profile, n):
                failures.append(f"(p,n,k)=({p},{n},{k}): N_L={value} not admissible")
            checked += 1
    return _row(
        "restriction-sphere-product",
        "sphere-product admissible sets within the divisor union; realized values admissible",
        failures,
        f"{pairs} profiles bounded by divisors; {checked} realized values admissible",
    )


def check_sphere_power_restriction() -> SuiteRow:
    failures = []
    count = 0
    for p in (4, 6, 8, 12):
        for m in (2, 3, 4):
            profile = sphere_power_profile(p, m)
            admissible = admissible_maslov(profile, profile.l_dim)
            extras = {a for a in admissible if a % 2 == 0} - even_divisors(p)
            if extras:
                failures.append(f"(S^{p-1})^{m}: admissible extras {sorted(extras)}")
            count += 1
    return _row(
        "restriction-sphere-power",
        "sphere-power admissible sets within the divisors",
        failures,
        f"{count} profiles bounded by the divisors of p",
    )


def check_binomial() -> SuiteRow:
    failures = []
    for m in range(4, 61):
        if not binomial_lemma(m):
            failures.append(f"m={m}")
    detail = "central binomial dominance verified exactly for m in [4, 60]"
    if failures:
        detail = (
            "inequality false from m=15 on (central 6435 < tails 6885 at m=15); "
            "failing m: " + ", ".join(failures[:8]) + f" (+{len(failures) - 8} more)"
        )
        return SuiteRow(
            "binomial",
            "binomial dominance inequality for m in [4, 60]",
            "fail",
            detail,
        )
    return SuiteRow("binomial", "binomial dominance inequality for m in [4, 60]", "pass", detail)


def check_connected_sum_restriction() -> SuiteRow:
    failures = []
    for p in (2, 4, 6, 8):
        profile = connected_sum_profile(p)
        admissible = admissible_maslov(profile, profile.l_dim)
        extras = {a for a in admissible if a % 2 == 0} - even_divisors(p)
        if extras:
            failures.append(f"p={p}: admissible extras {sorted(extras)}")
    return _row(
        "restriction-connected-sum",
        "five-fold connected sum admissible sets within the divisors",
        failures,
        "profiles for p in {2,4,6,8} bounded by the divisors of p",
    )


ORACLE_CATALOG = (
    "product-simplices:p=4,n=10,k=0",
    "product-simplices:p=4,n=10,k=2",
    "product-simplices:p=6,n=16,k=4",
    "redundant-simplex:n=5,k=2",
    "redundant-simplex:n=13,k=8",
)


def check_oracle_agreement(seed: int = DEFAULT_ORACLE_SEED, random_loops: int = 20) -> SuiteRow:
    failures = []
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    checks = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FamilyRangeWarning)
        for spec in ORACLE_CATALOG:
            system = polytope_to_quadrics(parse_family_spec(spec))
            classes = [(1, 0), (0, 1)]
            while len(classes) < 2 + random_loops:
                candidate = tuple(int(c) for c in rng.integers(-3, 4, size=system.m))
                if any(candidate):
                    classes.append(candidate)
            loops = [TorusLoop(coords, doubled=True) for coords in classes]
            for record in oracle_checks(system, loops, family=spec, seed=seed):
                if not record["pass"]:
                    failures.append(
                        f"{spec} {record['check']}: {record['actual']} vs {record['expected']}"
                    )
            checks += len(loops)
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded the 10s budget")
    return _row(
        "oracle-agreement",
        "numerical areas and windings match the exact pairings",
        failures,
        f"{checks} doubled loops across {len(ORACLE_CATALOG)} catalog systems "
        "within the 10s budget",
    )


def check_engine_soundness(seed: int = DEFAULT_PROFILE_SEED, count: int = 200) -> SuiteRow:
    rng = np.random.default_rng(seed)
    failures = []
    exclusions = 0
    for _ in range(count):
        profile = _random_profile(rng)
        for n in range(2, profile.l_dim + 1):
            if run_engine(profile, n).excluded:
                exclusions += 1
                if brute_force_vanishes(profile, n):
                    failures.append(f"{profile.as_dict()} L={profile.l_dim} N={n}")
    return _row(
        "engine-soundness",
        "the engine never excludes a candidate the rank search can kill",
        failures,
        f"{count} random profiles, {exclusions} exclusions all confirmed by brute force",
    )


def _random_profile(rng, max_total: int = 10, max_l: int = 12) -> HomologyProfile:
    l_dim = int(rng.integers(2, max_l + 1))
    cover = int(rng.integers(1, l_dim + 1))
    dims = {0: 1, cover: 1}
    extra = int(rng.integers(0, max_total - 1))
    for _ in range(extra):
        d = int(rng.integers(0, cover + 1))
        dims[d] = dims.get(d, 0) + 1
    return HomologyProfile.from_dims(dims, l_dim, bool(rng.random() < 0.5))


def check_area_discrepancy(seeds=(DEFAULT_ORACLE_SEED, DEFAULT_ORACLE_SEED + 1)) -> SuiteRow:
    """The factor-two mismatch on the redundant-family slack generator.

    Expected outcome: exactly one discrepancy record per instance, stable
    across seeds and adjudicated by the oracle toward the computed value,
    so the row reports "flagged" rather than pass or fail.
    """
    failures = []
    measured_values = []
    for seed in seeds:
        for n, k in [(5, 2), (13, 8)]:
            poly = gen_redundant_simplex(n, k)
            report = analyze_polytope(poly, with_oracle=True, seed=seed)
            records = report.discrepancies
            if len(records) != 1:
                failures.append(f"(n,k)=({n},{k}) seed={seed}: {len(records)} records")
                continue
            record = records[0]
            if record.published != Fraction(k + 1) or record.computed != Fraction(
                2 * k + 2
            ):
                failures.append(
                    f"(n,k)=({n},{k}): published {record.published}, computed {record.computed}"
                )
            if record.measured is None or abs(record.measured - (2 * k + 2)) > 1e-6:
                failures.append(
                    f"(n,k)=({n},{k}): oracle measurement {record.measured} "
                    f"does not adjudicate to {2 * k + 2}"
                )
            else:
                measured_values.append(record.measured)
    if failures:
        return SuiteRow(
            "area-discrepancy",
            "published slack-generator area differs from the computed one",
            "fail",
            "; ".join(failures[:6]),
        )
    return SuiteRow(
        "area-discrepancy",
        "published slack-generator area differs from the computed one",
        "flagged",
        "published (k+1)*pi vs computed (2k+2)*pi on the doubled slack generator; "
        "oracle measurements side with the computed value "
        f"(e.g. {measured_values[0]:.9f} for (n,k)=(5,2))",
    )


ALL_CHECKS = {
    "pipeline-products": check_product_pipeline,
    "realization-products": check_product_realization,
    "pipeline-redundant": check_redundant_pipeline,
    "realization-redundant": check_redundant_realization,
    "restriction-sphere-product": check_sphere_product_restriction,
    "restriction-sphere-power": check_sphere_power_restriction,
    "binomial": check_binomial,
    "restriction-connected-sum": check_connected_sum_restriction,
    "oracle-agreement": check_oracle_agreement,
    "engine-soundness": check_engine_soundness,
    "area-discrepancy": check_area_discrepancy,
}

SEEDED_CHECKS = {
    "oracle-agreement": lambda seed: check_oracle_agreement(seed=seed),
    "engine-soundness": lambda seed: check_engine_soundness(seed=seed),
    "area-discrepancy": lambda seed: check_area_discrepancy(seeds=(seed, seed + 1)),
}


def run_suite(only: str | None = None, seed: int | None = None) -> list[SuiteRow]:
    rows = []
    for key, check in ALL_CHECKS.items():
        if only is not None and only not in key:
            continue
        if seed is not None and key in SEEDED_CHECKS:
            rows.append(SEEDED_CHECKS[key](seed))
        else:
            rows.append(check())
    return rows
