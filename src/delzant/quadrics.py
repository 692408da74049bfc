"""Translation between H-polytopes and their quadric systems.

A presentation ``<a_i, x> + b_i >= 0`` turns into the real variety
``Gamma u^2 = delta`` by substituting ``u_i^2`` for the i-th slack, where
the rows of ``Gamma`` are a saturated basis of the integer relations among
the normals and ``delta = Gamma b``.  Both are read off the presentation
(``HPolytope.relations`` in its canonical slack-ordered form, and
``HPolytope.relation_values``), so equal presentations give bit-equal
systems.  Saturated rows have columns that span ``Z^m``, so the torus of the
Lagrangian has the standard dual basis.  A ``QuadricSystem`` caches its
``invariants.DeckData`` as ``deck``: ``Gamma`` as the integer pairings of
that basis with the columns, and ``delta`` over one denominator.  Reading
``deck`` refuses a ``Gamma`` whose columns do not span ``Z^m``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .polytopes import (
    HPolytope,
    PolytopeFormatError,
    enumerate_vertices,
    format_rational,
    is_simple,
    load_json,
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

    @functools.cached_property
    def deck(self):
        """The system's ``invariants.DeckData``, computed on first use."""
        from . import invariants  # which imports this module

        return invariants.deck_data(self)


def polytope_to_quadrics(poly: HPolytope) -> QuadricSystem:
    """The canonical quadric system of a presentation.

    Requires the normals to span R^k, i.e. n - k relation rows; the rows
    are saturated, so every integer relation among the normals is an
    integer combination of them.  ``delta`` is read off the integer
    ``Gamma (scale * b)`` with one Fraction per row.
    """
    if len(poly.relations) != poly.n - poly.dim:
        raise QuadricError(
            "normals do not span the ambient space (rank-deficient presentation)"
        )
    scale = poly.integer_offsets[0]
    delta = tuple(Fraction(v, scale) for v in poly.relation_values)
    return QuadricSystem(poly.relations, delta)


def quadrics_to_polytope(system: QuadricSystem) -> HPolytope:
    """Invert the correspondence.

    The normals are a saturated kernel basis of ``Gamma``; the offsets are
    the unique solution of ``Gamma b = delta`` supported on the pivot
    columns of the canonical form (a deterministic particular solution).
    Those are the pivot columns of the reduced echelon form of the reversed
    rows, whose particular solution ``linalg.solve_affine`` returns.
    """
    if system.m == 0:
        raise QuadricError("empty quadric system")
    n = system.n
    solution = linalg.solve_affine([list(reversed(r)) for r in system.gamma], system.delta)
    if solution is None:
        raise QuadricError("inconsistent right-hand side: no polytope exists")
    b_rev, null_basis = solution
    rank = n - len(null_basis)
    if rank < system.m:
        raise QuadricError(f"coefficient matrix has rank {rank} < {system.m} quadrics")
    # full row rank, so the saturated kernel has n - m rows
    kernel = linalg.integer_kernel([list(r) for r in system.gamma])
    normals = tuple(tuple(row[j] for row in kernel) for j in range(n))
    # a point system (m == n) has only empty normals, which HPolytope accepts
    if kernel:
        for j, normal in enumerate(normals):
            if not any(normal):
                raise QuadricError(
                    f"column {j} of Gamma: the unit vector e_{j} lies in the row space, "
                    f"so inequality {j} would have a zero normal"
                )
    return HPolytope(n - system.m, normals, tuple(reversed(b_rev)))


def nondegeneracy(poly: HPolytope) -> bool:
    """Whether the variety ``Gamma u^2 = delta`` of the presentation is
    nonempty and nondegenerate.

    Equivalent to the presentation being generic and feasible.
    """
    vertex_set = enumerate_vertices(poly)
    if vertex_set.empty or not vertex_set.pointed:
        return False
    return is_simple(vertex_set, poly.dim)


def parse_quadrics(text: str | bytes) -> QuadricSystem:
    """Parse the quadric JSON schema ``{"Gamma": [[...]], "delta": [...]}``."""
    data = load_json(text)
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
