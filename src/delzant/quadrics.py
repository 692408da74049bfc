"""Translation between H-polytopes and their quadric systems.

A presentation ``<a_i, x> + b_i >= 0`` turns into the real variety
``Gamma u^2 = delta`` by substituting ``u_i^2`` for the i-th slack, where
the rows of ``Gamma`` are a saturated basis of the integer relations among
the normals and ``delta = Gamma b``.  The rows are stored in a canonical
form so equal presentations give bit-equal systems.

The canonical form is the Hermite normal form computed with pivot columns
sought from the last variable backwards ("slack-ordered"): appended slack
variables, like the redundant inequalities of the simplex families, then
own their pivot row, which keeps the per-row invariants aligned with the
natural presentation of those families.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .polytopes import (
    HPolytope,
    PolytopeFormatError,
    enumerate_vertices,
    format_rational,
    is_simple,
    parse_integer,
    parse_rational,
)


class QuadricError(ValueError):
    """Raised for structurally invalid quadric systems."""


@dataclass(frozen=True)
class QuadricSystem:
    """``sum_j gamma[i][j] * u_j^2 = delta[i]`` for i = 1..m."""

    gamma: tuple[tuple[int, ...], ...]
    delta: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.gamma) != len(self.delta):
            raise QuadricError("delta length does not match quadric count")
        widths = {len(r) for r in self.gamma}
        if len(widths) > 1:
            raise QuadricError("ragged coefficient matrix")

    @property
    def m(self) -> int:
        return len(self.gamma)

    @property
    def n(self) -> int:
        return len(self.gamma[0]) if self.gamma else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.gamma)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.n)]

    def zero_columns(self) -> tuple[int, ...]:
        """Variables appearing in no quadric; flagged, not fatal."""
        return tuple(j for j in range(self.n) if not any(self.column(j)))


def slack_ordered_hnf(rows, transform: bool = False):
    """Row HNF with pivots chosen from the last column backwards.

    The result is a canonical representative of the row lattice, with rows
    ordered by ascending pivot column in the original orientation.
    """
    reversed_rows = [list(reversed(r)) for r in rows]
    if transform:
        h, u = linalg.hnf(reversed_rows, transform=True)
    else:
        h = linalg.hnf(reversed_rows)
    restored = [list(reversed(r)) for r in h]
    restored.reverse()
    if transform:
        return restored, list(reversed(u))
    return restored


def polytope_to_quadrics(poly: HPolytope) -> QuadricSystem:
    """The canonical quadric system of a presentation.

    Requires the normals to span R^k; the kernel rows are saturated, so
    every integer relation among the normals is an integer combination of
    the returned rows.
    """
    matrix = poly.matrix()
    if poly.dim > 0 and linalg.rational_rank(matrix) < poly.dim:
        raise QuadricError(
            "normals do not span the ambient space (rank-deficient presentation)"
        )
    kernel = linalg.integer_kernel(matrix) if poly.dim > 0 else linalg.identity(poly.n)
    canonical = [r for r in slack_ordered_hnf(kernel) if any(r)]
    gamma = tuple(tuple(r) for r in canonical)
    delta = tuple(
        sum((g * b for g, b in zip(row, poly.offsets)), Fraction(0)) for row in gamma
    )
    return QuadricSystem(gamma, delta)


def quadrics_to_polytope(system: QuadricSystem) -> HPolytope:
    """Invert the correspondence.

    The normals are a saturated kernel basis of ``Gamma``; the offsets are
    the unique solution of ``Gamma b = delta`` supported on the pivot
    columns of the canonical form (a deterministic particular solution).
    """
    if system.m == 0:
        raise QuadricError("empty quadric system")
    n = system.n
    denominator = math.lcm(*(d.denominator for d in system.delta))
    scaled = [int(d * denominator) for d in system.delta]
    reversed_rows = [list(reversed(r)) for r in system.gamma]
    h, u = linalg.hnf(reversed_rows, transform=True)
    rhs = linalg.mat_vec(u, scaled)
    pivots: list[tuple[int, int]] = []  # (row, column) in reversed orientation
    for i, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            if rhs[i]:
                raise QuadricError("inconsistent right-hand side: no polytope exists")
            continue
        pivots.append((i, nz))
    if len(pivots) < system.m:
        raise QuadricError(
            f"coefficient matrix has rank {len(pivots)} < {system.m} quadrics"
        )
    b_rev = [Fraction(0)] * n
    for i, col in reversed(pivots):
        acc = Fraction(rhs[i], denominator)
        acc -= sum((Fraction(x) * b_rev[j] for j, x in enumerate(h[i]) if j > col), Fraction(0))
        b_rev[col] = acc / h[i][col]
    offsets = tuple(reversed(b_rev))
    kernel = linalg.integer_kernel([list(r) for r in system.gamma])
    k = n - system.m
    if len(kernel) != k:
        raise QuadricError("coefficient matrix is rank-deficient")
    normals = tuple(tuple(row[j] for row in kernel) for j in range(n))
    return HPolytope(k, normals, offsets)


def nondegeneracy(system: QuadricSystem, poly: HPolytope) -> bool:
    """Whether the variety is nonempty and nondegenerate.

    Equivalent to the presentation being generic and feasible; ``poly``
    must be the polytope corresponding to ``system``.
    """
    vertex_set = enumerate_vertices(poly, relations=system.gamma)
    if vertex_set.empty or not vertex_set.pointed:
        return False
    return is_simple(vertex_set, poly.dim)


def augmented_canonical(system: QuadricSystem) -> list[list[Fraction]]:
    """Canonical form of the augmented matrix [Gamma | delta] for comparisons."""
    scale = math.lcm(*(d.denominator for d in system.delta))
    rows = [
        list(r) + [int(d * scale)] for r, d in zip(system.gamma, system.delta)
    ]
    return [
        [Fraction(x) if j < system.n else Fraction(x, scale) for j, x in enumerate(row)]
        for row in linalg.row_basis(rows)
    ]


def parse_quadrics(text: str | bytes) -> QuadricSystem:
    """Parse the quadric JSON schema ``{"Gamma": [[...]], "delta": [...]}``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolytopeFormatError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict) or "Gamma" not in data or "delta" not in data:
        raise PolytopeFormatError("quadric JSON needs keys 'Gamma' and 'delta'")
    rows = data["Gamma"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PolytopeFormatError("'Gamma' must be a list of rows")
    gamma = tuple(tuple(parse_integer(x, "entry of Gamma") for x in row) for row in rows)
    delta_raw = data["delta"]
    if not isinstance(delta_raw, list) or len(delta_raw) != len(gamma):
        raise PolytopeFormatError("'delta' must list one rational per quadric")
    delta = tuple(parse_rational(x, "entry of delta") for x in delta_raw)
    return QuadricSystem(gamma, delta)


def quadrics_to_json(system: QuadricSystem) -> dict:
    return {
        "Gamma": [list(r) for r in system.gamma],
        "delta": [format_rational(d) for d in system.delta],
    }
