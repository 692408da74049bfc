"""The benchmark's workloads: seeded inputs, one op each, and answer checks.

Every workload is a closed loop: one caller issues the next op when the
last one returns.  Inputs are made from the seed alone and generated
before the timed pass; the library sees only those inputs.  Inputs are
dealt in blocks, each block holding one input from every stratum (a cost
class), in a seed-shuffled order.  A pass that stops at a block boundary
therefore always has the same mix of cheap and expensive ops, which keeps
throughput and percentiles steady from seed to seed.

Checks run after the timed pass and compare each answer with something
the answer was not computed from: closed forms, an LP solver, exact
identities, or an independent brute force.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from fractions import Fraction

from delzant import analysis, families, oracle, polytopes, quadrics, spectral


def _emit(payload) -> str:
    """The text the command-line tool would print for ``payload``."""
    return json.dumps(payload, indent=2)


def _poly_text(k: int, normals, offsets) -> str:
    rows = [[a[r] for a in normals] for r in range(k)]
    return json.dumps({"A": rows, "b": list(offsets)})


def _deal(strata: list[list], rng: random.Random) -> list:
    """Interleave strata: block j takes the j-th item of every stratum, in random order."""
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for j in range(max(len(s) for s in strata)):
        block = [s[j] for s in strata if j < len(s)]
        rng.shuffle(block)
        order.extend(block)
    return order


class Workload:
    """One named workload.

    ``block``: ops per stratified block; a timed pass ends on a block boundary.
    ``prefix``: ops in the fixed-length passes (traced run, digest).
    ``rate_cap``: ops per second the input pool is sized for.
    """

    name = ""
    block = 1
    prefix = 100
    rate_cap = 0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool_size = max(self.prefix, int(math.ceil(seconds * self.rate_cap)))
        self.inputs = self.generate()

    def generate(self) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the code path once on an input outside the pool."""

    def op(self, item) -> str:
        raise NotImplementedError

    def check(self, item, answer: str) -> list[str]:
        raise NotImplementedError

    def corrupt(self, answer: str) -> str:
        """A deliberately wrong copy of ``answer`` that ``check`` must reject."""
        raise NotImplementedError


def random_cut_box(rng: random.Random, k: int, n: int):
    """A box [-h, h]^k plus n - 2k cuts with small integer normals, in random order."""
    half = rng.randint(1, 3)
    normals = [tuple(s * int(r == i) for i in range(k)) for r in range(k) for s in (1, -1)]
    offsets = [half] * (2 * k)
    while len(normals) < n:
        a = tuple(rng.randint(-2, 2) for _ in range(k))
        if not any(a):
            continue
        # the origin stays strictly inside; an offset of `reach` touches a box
        # corner, a larger one makes the cut strictly redundant
        reach = half * sum(abs(x) for x in a)
        normals.append(a)
        offsets.append(rng.randint(1, reach + 1))
    order = list(range(n))
    rng.shuffle(order)
    return tuple(normals[i] for i in order), tuple(offsets[i] for i in order)


def _analyze_square() -> None:
    """Warm-up for the analysis workloads on the unit square.

    Dimension 2 with 4 inequalities is no input's shape, so the warm-up
    leaves no cache entry that an input could hit.
    """
    text = _poly_text(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 1, 1])
    analysis.analysis_to_json(analysis.analyze_polytope(polytopes.parse_polytope(text)))


class Families(Workload):
    """The 200 presentations of verify's two pipeline rows; the pool is always all of them."""

    name = "families"
    block = 20
    prefix = 60

    @staticmethod
    def product_grid(n_max: int = 20):
        """Even (p, n, k), p >= 4, n <= n_max, minus the non-simple twisted diagonal."""
        return [
            (p, n, k)
            for p in range(4, n_max - 1, 2)
            for n in range(p + 2, n_max + 1, 2)
            for k in range(0, p - 1, 2)
            if not (k and n - p + k == p)
        ]

    @staticmethod
    def redundant_grid(n_max: int = 33):
        grid = []
        for n in range(5, n_max + 1, 2):
            start = (n - 1) // 2
            start += start % 2
            grid.extend((n, k) for k in range(start, n - 1, 2))
        return grid

    def generate(self):
        items = [("product", params) for params in self.product_grid()]
        items += [("redundant", params) for params in self.redundant_grid()]
        # cost grows with n; each stratum is a run of instances of similar n
        items.sort(key=lambda item: (item[1][1] if item[0] == "product" else item[1][0], item))
        size = len(items) // self.block
        strata = [items[i : i + size] for i in range(0, len(items), size)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", families.FamilyRangeWarning)
            order = _deal(strata, self.rng)
            return [(kind, params, self._build(kind, params)) for kind, params in order]

    @staticmethod
    def _build(kind, params):
        if kind == "product":
            return families.gen_product_simplices(*params)
        return families.gen_redundant_simplex(*params)

    def warm_up(self):
        _analyze_square()

    def op(self, item):
        return _emit(analysis.analysis_to_json(analysis.analyze_polytope(item[2])))

    def check(self, item, answer):
        kind, params, _ = item
        out = json.loads(answer)
        s, inv = out["structure"], out["invariants"]
        bad = []
        if kind == "product":
            p, n, k = params
            if not (s["delzant"] is True and s["fano"] is True and s["fano_constant"] == "1"):
                bad.append("not Delzant-Fano with C=1")
            if s["redundant"]:
                bad.append(f"unexpected redundancy {s['redundant']}")
            if inv["N_L"] != math.gcd(p, n - p + k):
                bad.append(f"N_L {inv['N_L']} != gcd")
            if not (inv["monotone"] is True and inv["c_over_pi"] == "1/2"):
                bad.append("not monotone with c = pi/2")
            if out["discrepancies"]:
                bad.append("unexpected discrepancy record")
        else:
            n, k = params
            if s["redundant"] != [n - 1] or s["strict_redundant"] != [n - 1]:
                bad.append(f"redundancy {s['redundant']} is not the single strict slack")
            if out["loop_lattice"]["basis"] != [[1, 0], [0, 2]]:
                bad.append(f"loop basis {out['loop_lattice']['basis']}")
            if inv["maslov"] != [n - 1, 2 * k + 2]:
                bad.append(f"Maslov values {inv['maslov']}")
            if inv["N_L"] != math.gcd(n - 1, 2 * k + 2):
                bad.append(f"N_L {inv['N_L']}")
            # the published area of the doubled slack generator is off by two:
            # exactly one record, published k+1 against computed 2k+2
            records = out["discrepancies"]
            if len(records) != 1 or (records[0]["published"], records[0]["computed"]) != (
                str(k + 1),
                str(2 * k + 2),
            ):
                bad.append(f"discrepancy records {records}")
        return [f"{kind}{params}: {b}" for b in bad]

    def corrupt(self, answer):
        out = json.loads(answer)
        out["invariants"]["N_L"] += 1
        return _emit(out)


class RandomPolytopes(Workload):
    """Seeded bounded nonempty presentations: a box plus random cuts, fed as JSON text."""

    name = "random-polytopes"
    # n <= 12 keeps the slowest shape near 0.15 s per op; with n up to 2k + 8 a
    # few 1-2 s ops (k = 4, n = 16) set p90 and throughput alone
    shapes = [(k, n) for k in (2, 3, 4) for n in range(2 * k + 2, min(2 * k + 8, 12) + 1)]
    block = len(shapes)
    prefix = 6 * len(shapes)
    rate_cap = 40

    def generate(self):
        seen = set()
        strata = []
        per_shape = -(-self.pool_size // self.block)
        for k, n in self.shapes:
            stratum = []
            while len(stratum) < per_shape:
                normals, offsets = random_cut_box(self.rng, k, n)
                if normals in seen:  # the library caches per normal set
                    continue
                seen.add(normals)
                stratum.append((k, normals, offsets, _poly_text(k, normals, offsets)))
            strata.append(stratum)
        return _deal(strata, self.rng)

    def warm_up(self):
        _analyze_square()

    def op(self, item):
        poly = polytopes.parse_polytope(item[3])
        return _emit(analysis.analysis_to_json(analysis.analyze_polytope(poly)))

    def check(self, item, answer):
        import numpy as np
        from scipy.optimize import linprog

        k, normals, offsets, _ = item
        out = json.loads(answer)
        s = out["structure"]
        bad = []
        a = np.array(normals, dtype=float)
        b = np.array(offsets, dtype=float)
        n = len(normals)
        # bounded iff the normals have a strictly positive relation: y >= 1, A^T y = 0
        relation = linprog(
            np.zeros(n), A_eq=a.T, b_eq=np.zeros(k), bounds=[(1, None)] * n, method="highs"
        )
        bounded = relation.status == 0
        if s["bounded"] is not bounded or s["empty"] is not False:
            bad.append(f"bounded={s['bounded']} empty={s['empty']}, LP says bounded={bounded}")
        redundant, strict = [], []
        for i in range(n):
            # min <a_i, x> + b_i over the polytope without inequality i
            rest = [j for j in range(n) if j != i]
            res = linprog(
                a[i], A_ub=-a[rest], b_ub=b[rest], bounds=[(None, None)] * k, method="highs"
            )
            if res.status == 3:  # unbounded below: inequality i is needed
                continue
            if res.status != 0:
                raise RuntimeError(f"LP failed: {res.message}")
            slack = res.fun + b[i]
            if slack > -1e-7:
                redundant.append(i)
                if slack > 1e-7:
                    strict.append(i)
        if s["redundant"] != redundant or s["strict_redundant"] != strict:
            bad.append(
                f"redundant {s['redundant']} strict {s['strict_redundant']}, "
                f"LP says {redundant} strict {strict}"
            )
        gamma = out["quadrics"]["Gamma"]
        delta = [Fraction(d) for d in out["quadrics"]["delta"]]
        if any(sum(g * a_j[r] for g, a_j in zip(row, normals)) for row in gamma for r in range(k)):
            bad.append("Gamma A^T != 0")
        if delta != [sum(Fraction(g * o) for g, o in zip(row, offsets)) for row in gamma]:
            bad.append("delta != Gamma b")
        return [f"k={k} n={len(normals)}: {b_}" for b_ in bad]

    def corrupt(self, answer):
        out = json.loads(answer)
        redundant = out["structure"]["redundant"]
        # toggle index 0 in the redundant set
        if 0 in redundant:
            redundant.remove(0)
        else:
            redundant.insert(0, 0)
        return _emit(out)


class Oracle(Workload):
    """Numerical area and Maslov winding of seeded doubled loops on a pool of systems."""

    name = "oracle"
    # verify's oracle catalog, then two larger members; each with its family hint
    catalog = (
        ("product-simplices", (4, 10, 0)),
        ("product-simplices", (4, 10, 2)),
        ("product-simplices", (6, 16, 4)),
        ("redundant-simplex", (5, 2)),
        ("redundant-simplex", (13, 8)),
        ("product-simplices", (8, 20, 6)),
        ("redundant-simplex", (21, 12)),
    )
    # unhinted random-polytope systems of fixed shapes (k, n), three of each,
    # so that no single random system sets the pace of a seed
    random_shapes = 3 * ((2, 6), (2, 10), (3, 8), (3, 12), (4, 10), (4, 12))
    block = len(catalog) + len(random_shapes)
    prefix = 26 * block
    rate_cap = 250

    def generate(self):
        systems = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", families.FamilyRangeWarning)
            for name, params in self.catalog:
                if name == "product-simplices":
                    poly = families.gen_product_simplices(*params)
                    hint = "product-simplices:p={},n={},k={}".format(*params)
                else:
                    poly = families.gen_redundant_simplex(*params)
                    hint = "redundant-simplex:n={},k={}".format(*params)
                systems.append((quadrics.polytope_to_quadrics(poly), hint))
        for k, n in self.random_shapes:
            normals, offsets = random_cut_box(self.rng, k, n)
            poly = polytopes.HPolytope(k, normals, tuple(map(Fraction, offsets)))
            systems.append((quadrics.polytope_to_quadrics(poly), None))
        self.systems = systems
        self.points = {}
        strata = []
        per_system = -(-self.pool_size // self.block)
        for index, (system, _) in enumerate(systems):
            stratum = []
            while len(stratum) < per_system:
                coeffs = tuple(self.rng.randint(-3, 3) for _ in range(system.m))
                if any(coeffs):
                    stratum.append((index, coeffs))
            strata.append(stratum)
        return _deal(strata, self.rng)

    def warm_up(self):
        poly = families.gen_product_simplices(4, 12, 2)
        system = quadrics.polytope_to_quadrics(poly)
        point = oracle.sample_point(system, family="product-simplices:p=4,n=12,k=2", seed=self.seed)
        loop = oracle.TorusLoop((1, 1), doubled=True)
        oracle.loop_area(system, loop, point)
        oracle.loop_maslov(system, loop, point)

    def op(self, item):
        index, coeffs = item
        system, hint = self.systems[index]
        point = self.points.get(index)
        if point is None:  # one sampled point per system, paid by its first loop
            point = oracle.sample_point(system, family=hint, seed=self.seed + index)
            self.points[index] = point
        loop = oracle.TorusLoop(coeffs, doubled=True)
        area = oracle.loop_area(system, loop, point)
        winding = oracle.loop_maslov(system, loop, point)
        return _emit({"system": index, "loop": list(coeffs), "area": area, "maslov": winding})

    def check(self, item, answer):
        index, coeffs = item
        system, _ = self.systems[index]
        out = json.loads(answer)
        loop = oracle.TorusLoop(coeffs, doubled=True)
        config = oracle.DEFAULT_CONFIG
        bad = []
        target = oracle.closed_form_area(system, loop)
        if abs(out["area"] - target) > config.area_rtol * (1 + abs(target)):
            bad.append(f"area {out['area']} vs {target}")
        if out["maslov"] != oracle.expected_maslov(system, loop):
            bad.append(f"maslov {out['maslov']} vs {oracle.expected_maslov(system, loop)}")
        residual = float(max(abs(r) for r in self.points[index].residuals))
        if residual > config.residual_tol:
            bad.append(f"point residual {residual:.2e}")
        return [f"system {index} loop {coeffs}: {b}" for b in bad]

    def corrupt(self, answer):
        out = json.loads(answer)
        out["maslov"] += 1
        return _emit(out)


class Obstruct(Workload):
    """Admissible Maslov numbers of homology profiles, each exclusion confirmed by brute force."""

    name = "obstruct"
    prefix = 2000
    rate_cap = 800

    @staticmethod
    def catalog():
        """The profiles of verify's three restriction rows, with the even numbers they allow."""
        even = families.even_divisors
        items = []
        for p in range(4, 17, 2):
            for n in range(p + 4, 21, 2):
                profile = families.sphere_product_profile(p, n - p, l_dim=n)
                items.append((profile, even(p) | even(n - p)))
        for p in (4, 6, 8, 12):
            for m in (2, 3, 4):
                items.append((families.sphere_power_profile(p, m), even(p)))
        for p in (2, 4, 6, 8):
            items.append((families.connected_sum_profile(p), even(p)))
        return items

    def _random_profile(self, max_total: int = 16, max_l: int = 20):
        rng = self.rng
        l_dim = rng.randint(2, max_l)
        cover = rng.randint(1, l_dim)
        dims = {0: 1, cover: 1}
        for _ in range(rng.randint(0, max_total - 2)):
            d = rng.randint(0, cover)
            dims[d] = dims.get(d, 0) + 1
        return spectral.HomologyProfile.from_dims(dims, l_dim, rng.random() < 0.5)

    def generate(self):
        catalog = self.catalog()
        seen = {profile for profile, _ in catalog}
        randoms = []
        while len(randoms) < self.pool_size - len(catalog):
            profile = self._random_profile()
            if profile not in seen:
                seen.add(profile)
                randoms.append((profile, None))
        # every catalog profile lies within the fixed-length prefix
        head = catalog + randoms[: self.prefix - len(catalog)]
        self.rng.shuffle(head)
        return head + randoms[self.prefix - len(catalog) :]

    def warm_up(self):
        profile = spectral.HomologyProfile.from_dims({0: 1, 3: 1}, 3, True)
        spectral.admissible_maslov(profile, 3)
        spectral.brute_force_vanishes(profile, 2)

    def op(self, item):
        profile = item[0]
        admissible = spectral.admissible_maslov(profile, profile.l_dim)
        excluded = [
            n
            for n in range(2, profile.l_dim + 1)
            if n not in admissible and not (profile.orientable and n % 2)
        ]
        killed = [n for n in excluded if spectral.brute_force_vanishes(profile, n)]
        return _emit(
            {
                "profile": spectral.profile_to_json(profile),
                "admissible": sorted(admissible),
                "excluded": excluded,
                "killed": killed,
            }
        )

    def check(self, item, answer):
        profile, allowed = item
        out = json.loads(answer)
        bad = []
        if out["killed"]:
            bad.append(f"brute force kills excluded candidates {out['killed']}")
        if allowed is not None:
            extras = {a for a in out["admissible"] if a % 2 == 0} - allowed
            if extras:
                bad.append(f"admissible beyond the even divisors: {sorted(extras)}")
        return [f"{profile.as_dict()} L={profile.l_dim}: {b}" for b in bad]

    def corrupt(self, answer):
        out = json.loads(answer)
        out["killed"].append(out["excluded"][0] if out["excluded"] else 2)
        return _emit(out)


WORKLOADS = {w.name: w for w in (Families, RandomPolytopes, Oracle, Obstruct)}
