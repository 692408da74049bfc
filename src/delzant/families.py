"""Parametric example families, realization enumerators, and the topology catalog.

Two families of presentations are generated: twisted products of two
simplices (n inequalities in R^(n-2), twist parameter k) and the simplex
with one extra inequality that the other n-1 imply (again n inequalities
in R^(n-2)).  The redundant family's realization enumerator sweeps the
twist parameter and compares the closed-form minimal Maslov numbers with
the predicted divisor sets.  Topology recognition matches a quadric
system against a fixed catalog (sphere, product of two spheres, and their
redundant doublings), reading orientability off the system's
``saturated_gamma``, and reports Unknown otherwise.  The spec grammar ``name:key=value,...`` is
parsed here only; ``family_spec`` names a catalog system by the spec that
``parse_family_spec`` reads back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .polytopes import HPolytope, PolytopeFormatError, parse_integer
from .quadrics import QuadricSystem
from .spectral import HomologyProfile


class FamilyRangeWarning(UserWarning):
    """Parameters outside the range where the construction is known to behave."""


@dataclass(frozen=True)
class TopologyTag:
    description: str
    sphere_dims: tuple[int, ...]
    torus_rank: int
    orientable: bool
    components: int
    lagrangian: str | None


def gen_product_simplices(p: int, n: int, k: int) -> HPolytope:
    """Twisted product of simplices: n inequalities with unit offsets in R^(n-2).

    Hard requirements: 0 <= k <= p-2 even, p >= 2, n - p >= 2.  The
    sphere-product topology and monotonicity claims additionally need
    n-p+k > p, p > 2, n-p > 2 and even p, n; violations only warn, since
    the k = 0 instances with n = 2p are used by the realization sweep.
    """
    if k % 2 or k < 0 or k > p - 2:
        raise ValueError("twist parameter k must be even with 0 <= k <= p-2")
    if p < 2 or n - p < 2:
        raise ValueError("block sizes require p >= 2 and n - p >= 2")
    if p % 2 or n % 2:
        warnings.warn("odd p or n: outside the supported parameter range", FamilyRangeWarning)
    if n - p + k <= p:
        message = "n-p+k <= p: outside the supported parameter range"
        if k and n - p + k == p:
            message = "n-p+k == p with a nonzero twist: the presentation degenerates"
        warnings.warn(message, FamilyRangeWarning)
    if p <= 2 or n - p <= 2:
        warnings.warn("p <= 2 or n-p <= 2: outside the supported range", FamilyRangeWarning)
    dim = n - 2
    normals: list[tuple[int, ...]] = []
    for i in range(p - 1):
        normals.append(tuple(int(r == i) for r in range(dim)))
    normals.append(tuple(-1 if r < p - 1 else 0 for r in range(dim)))
    for i in range(p - 1, n - 2):
        normals.append(tuple(int(r == i) for r in range(dim)))
    normals.append(tuple(-1 if (r < k or r >= p - 1) else 0 for r in range(dim)))
    return HPolytope(dim, tuple(normals), (Fraction(1),) * n)


def gen_redundant_simplex(n: int, k: int) -> HPolytope:
    """Simplex in R^(n-2) with one implied inequality appended.

    Requires odd n > 3 and even k with (n-3)/2 < k <= n-2; the appended
    inequality -x_1-...-x_k + k+2 >= 0 follows from the simplex ones.
    """
    if n % 2 == 0 or n <= 3:
        raise ValueError("n must be odd and greater than 3")
    if k % 2 or not ((n - 3) / 2 < k <= n - 2):
        raise ValueError("k must be even with (n-3)/2 < k <= n-2")
    dim = n - 2
    normals: list[tuple[int, ...]] = []
    for i in range(dim):
        normals.append(tuple(int(r == i) for r in range(dim)))
    normals.append((-1,) * dim)
    normals.append(tuple(-1 if r < k else 0 for r in range(dim)))
    offsets = (Fraction(1),) * (n - 1) + (Fraction(k + 2),)
    return HPolytope(dim, tuple(normals), offsets)


def even_divisors(value: int) -> set[int]:
    return {d for d in range(2, value + 1, 2) if value % d == 0}


def redundant_simplex_predicted_divisors(n: int) -> set[int]:
    """The mod-4 case split for which divisors of n-1 are realizable."""
    if n % 2 == 0 or n <= 3:
        raise ValueError("n must be odd and greater than 3")
    divisors = even_divisors(n - 1)
    if (n - 1) % 4 == 0:
        return {d for d in divisors if d % 4 == 2 and d < n - 1}
    return {d for d in divisors if d < n - 1}


def redundant_simplex_realized_divisors(n: int) -> dict[int, int]:
    """Realized gcd(n-1, 2k+2) over valid even k, with the least k realizing each."""
    if n % 2 == 0 or n <= 3:
        raise ValueError("n must be odd and greater than 3")
    witnesses: dict[int, int] = {}
    k = (n - 1) // 2
    if k % 2:
        k += 1
    for k in range(k, n - 1, 2):
        value = math.gcd(n - 1, 2 * k + 2)
        witnesses.setdefault(value, k)
    return dict(sorted(witnesses.items()))


def _core_rows(system: QuadricSystem, strict_redundant: list[int]):
    """Rows of the system pairing trivially with the redundant slack columns.

    Reorders columns so the redundant ones lead, takes HNF, and keeps the
    rows with zeros throughout the leading block; those span exactly the
    sublattice of quadrics not involving the redundant slacks.  Returns
    (core coefficient rows over the remaining columns, core rhs) or None
    when the redundant columns fail to own one pivot each.
    """
    redundant = list(strict_redundant)
    others = [j for j in range(system.n) if j not in redundant]
    order = redundant + others
    delta, scale = linalg.scale_to_integers(system.delta)
    rows = [[row[j] for j in order] + [d] for row, d in zip(system.gamma, delta)]
    h = linalg.row_basis(rows)
    core = [r for r in h if not any(r[: len(redundant)])]
    if len(core) != system.m - len(redundant):
        return None
    coefficients = [r[len(redundant):-1] for r in core]
    rhs = [Fraction(r[-1], scale) for r in core]
    return coefficients, rhs


def recognize_topology(
    system: QuadricSystem, strict_redundant: list[int] | tuple[int, ...] = ()
) -> TopologyTag | None:
    """Match against the fixed catalog; None means Unknown.

    Catalog: a single all-positive quadric is a sphere; two quadrics whose
    columns split into blocks v_b, v_c (and optionally v_a = v_b + v_c)
    with unimodular (v_b, v_c) are a product of two spheres, the splitting
    decided by the right-hand sides.  Strictly redundant slacks multiply
    the component count by two each.  Orientability is read off
    ``system.saturated_gamma``, so a ``Gamma`` whose columns do not span
    ``Z^m`` is refused before any matching.
    """
    gamma = system.saturated_gamma
    strict = sorted(set(strict_redundant))
    # the catalog has one or two core quadrics, and a core has m - |strict| rows
    if system.m - len(strict) not in (1, 2):
        return None
    core = _core_rows(system, strict)
    if core is None:
        return None
    coefficients, rhs = core
    core_columns = [j for j in range(system.n) if j not in strict]
    torus_rank = system.m
    components = 2 ** len(strict)
    # orientable iff no dual basis generator flips an odd number of core coordinates
    orientable = not any(sum(row[j] for j in core_columns) % 2 for row in gamma)

    if len(coefficients) == 1:
        row = coefficients[0]
        if all(x == 1 for x in row) and rhs[0] > 0:
            dim = len(row) - 1
            return _tag((dim,), torus_rank, orientable, components)
        return None
    return _match_two_quadrics(coefficients, rhs, torus_rank, orientable, components)


def _match_two_quadrics(rows, rhs, torus_rank, orientable, components):
    columns = [tuple(r[j] for r in rows) for j in range(len(rows[0]))]
    kinds = sorted(set(columns))
    if len(kinds) == 2:
        vb, vc = kinds
        va = None
    elif len(kinds) == 3:
        va = next(
            (
                x
                for x in kinds
                if any(
                    tuple(a + b for a, b in zip(y, z)) == x
                    for y in kinds
                    for z in kinds
                    if x not in (y, z) and y != z
                )
            ),
            None,
        )
        if va is None:
            return None
        vb, vc = (x for x in kinds if x != va)
    else:
        return None
    (a, b), (c, d) = vb, vc
    det = a * d - b * c
    if abs(det) != 1:
        return None
    # rhs in the basis (vb, vc): rhs = d1 * vb + d2 * vc
    d1 = (d * rhs[0] - c * rhs[1]) / det
    d2 = (a * rhs[1] - b * rhs[0]) / det
    count_a = sum(1 for c in columns if c == va) if va is not None else 0
    count_b = sum(1 for c in columns if c == vb)
    count_c = sum(1 for c in columns if c == vc)
    if d1 <= 0 or d2 <= 0:
        return None
    if count_a == 0:
        dims = (count_b - 1, count_c - 1)
    elif d2 > d1:
        dims = (count_a + count_b - 1, count_c - 1)
    elif d1 > d2:
        dims = (count_a + count_c - 1, count_b - 1)
    else:
        return None  # the overlap block degenerates when the radii agree
    if min(dims) < 0:
        return None
    return _tag(tuple(sorted(dims, reverse=True)), torus_rank, orientable, components)


def _tag(sphere_dims, torus_rank, orientable, components):
    core = " x ".join(f"S^{d}" for d in sphere_dims)
    description = core if components == 1 else f"{core} x Z_2" + (
        f"^{components.bit_length() - 1}" if components > 2 else ""
    )
    lagrangian = f"{core} x T^{torus_rank}" if components in (1, 2) else None
    return TopologyTag(
        description=description,
        sphere_dims=tuple(sphere_dims),
        torus_rank=torus_rank,
        orientable=orientable,
        components=components,
        lagrangian=lagrangian,
    )


def sphere_product_profile(p: int, q: int, l_dim: int | None = None) -> HomologyProfile:
    """Z2 homology of S^(p-1) x S^(q-1); default dim L = p + q (two torus factors)."""
    dims = {0: 1, p + q - 2: 1}
    dims[p - 1] = dims.get(p - 1, 0) + 1
    dims[q - 1] = dims.get(q - 1, 0) + 1
    return HomologyProfile.from_dims(dims, p + q if l_dim is None else l_dim, True)


def sphere_power_profile(p: int, m: int, l: int | None = None) -> HomologyProfile:
    """Z2 homology of (S^(p-1))^m; dim L = m(p-1) + l with l = m by default."""
    dims = {r * (p - 1): math.comb(m, r) for r in range(m + 1)}
    torus = m if l is None else l
    return HomologyProfile.from_dims(dims, m * (p - 1) + torus, True)


def connected_sum_profile(p: int) -> HomologyProfile:
    """Z2 homology of the five-fold connected sum of S^(2p-1) x S^(3p-2)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    dims = {0: 1, 2 * p - 1: 5, 3 * p - 2: 5, 5 * p - 3: 1}
    return HomologyProfile.from_dims(dims, 5 * p, True)


_FAMILY_PARAMETERS = {"product-simplices": ("p", "n", "k"), "redundant-simplex": ("n", "k")}
_PROFILE_PARAMETERS = {
    "sphere-product": ("p", "q"),
    "sphere-power": ("p", "m", "l"),
    "connected-sum-5": ("p",),
}


def _parse_spec(spec: str, catalog: dict[str, tuple[str, ...]], what: str):
    """Split ``name:key=value,...`` into the name and its integer parameters.

    The name must be in ``catalog`` and each key one it lists, at most once.
    """
    name, _, args = spec.partition(":")
    if name not in catalog:
        raise PolytopeFormatError(f"unknown {what} {name!r}")
    params: dict[str, int] = {}
    for item in args.split(",") if args else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in catalog[name]:
            raise PolytopeFormatError(f"{what} {name!r} takes no parameter {key!r}")
        if key in params:
            raise PolytopeFormatError(f"{what} parameter {key!r} is given twice")
        params[key] = parse_integer(value, f"{what} parameter {key!r}")
    return name, params


def parse_family_spec(spec: str) -> HPolytope:
    """CLI family strings: 'product-simplices:p=4,n=10,k=2' or 'redundant-simplex:n=13,k=8'."""
    name, params = _parse_spec(spec, _FAMILY_PARAMETERS, "family")
    try:
        if name == "product-simplices":
            return gen_product_simplices(params["p"], params["n"], params["k"])
        return gen_redundant_simplex(params["n"], params["k"])
    except KeyError as exc:
        raise PolytopeFormatError(f"family {name!r} is missing parameter {exc}") from None


def family_spec(system: QuadricSystem) -> str | None:
    """The spec that ``parse_family_spec`` reads back into a presentation of ``system``.

    Recognizes the canonical quadric systems of both catalog families within
    their generators' parameter ranges; None for any other system.
    """
    if system.m != 2:
        return None
    (row1, row2), n = system.gamma, system.n
    # Gamma = [1^p 0^(n-p); 1^k 0^(p-k) 1^(n-p)], delta = (p, n-p+k)
    p = sum(row1)
    k = sum(row2) - (n - p)
    if (
        k % 2 == 0
        and 0 <= k <= p - 2
        and n - p >= 2
        and list(row1) == [1] * p + [0] * (n - p)
        and list(row2) == [1] * k + [0] * (p - k) + [1] * (n - p)
        and system.delta == (p, n - p + k)
    ):
        return f"product-simplices:p={p},n={n},k={k}"
    # Gamma = [1^(n-1) 0; 1^k 0^(n-1-k) 1], delta = (n-1, 2k+2)
    k = sum(row2) - 1
    if (
        n % 2
        and k % 2 == 0
        and n - 3 < 2 * k <= 2 * n - 4
        and list(row1) == [1] * (n - 1) + [0]
        and list(row2) == [1] * k + [0] * (n - 1 - k) + [1]
        and system.delta == (n - 1, 2 * k + 2)
    ):
        return f"redundant-simplex:n={n},k={k}"
    return None


def parse_profile_spec(spec: str, l_dim: int | None = None) -> HomologyProfile:
    """CLI profile strings: 'sphere-product:p=4,q=6', 'sphere-power:p=4,m=3', 'connected-sum-5:p=4'.

    ``l_dim`` (the CLI's ``--L-dim``) sets dim L of a sphere product only;
    the other profiles refuse it rather than ignore it.
    """
    name, params = _parse_spec(spec, _PROFILE_PARAMETERS, "profile family")
    if l_dim is not None and name != "sphere-product":
        where = "its l= key" if name == "sphere-power" else "p, as 5p"
        raise PolytopeFormatError(
            f"--L-dim applies only to sphere-product; {name} takes dim L from {where}"
        )
    try:
        if name == "sphere-product":
            return sphere_product_profile(params["p"], params["q"], l_dim)
        if name == "sphere-power":
            return sphere_power_profile(params["p"], params["m"], params.get("l"))
        return connected_sum_profile(params["p"])
    except KeyError as exc:
        raise PolytopeFormatError(f"profile {name!r} is missing parameter {exc}") from None
