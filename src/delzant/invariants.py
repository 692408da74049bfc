"""Maslov and area invariants of the Lagrangian attached to a quadric system.

The coefficient columns ``gamma_j`` generate a full-rank lattice; the torus
directions of the Lagrangian are indexed by the dual lattice, and the deck
group is dual-mod-doubled.  On a loop class ``v`` (a dual-lattice element)
the Maslov homomorphism evaluates to ``<v, t>`` with ``t = sum_j gamma_j``,
and the symplectic area to ``(pi/2) <v, delta>``.  Both pairings are basis
independent; all loop data below is expressed in coordinates with respect
to the canonical dual basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .polytopes import StructureReport, format_rational
from .quadrics import QuadricSystem

ODD_CLASS_ASSUMPTION = (
    "area values on loop classes outside the doubled lattice use the linear "
    "extension of the closed-form area homomorphism (exact on doubled classes)"
)
UNKNOWN_LOOP_ASSUMPTION = (
    "loop lattice undetermined (non-strict redundancy present); invariants "
    "computed on the doubled dual lattice, which always consists of loops"
)


class InvariantError(ValueError):
    """Raised when the lattice constructions are undefined."""


@dataclass(frozen=True)
class DeckData:
    """Lattice data of the torus factor: basis of the column lattice and its dual."""

    rank: int
    lattice_basis: tuple[tuple[int, ...], ...]
    dual_basis: tuple[tuple[Fraction, ...], ...]

    @property
    def deck_order(self) -> int:
        return 2 ** self.rank


@dataclass(frozen=True)
class LoopLattice:
    """Loop classes in coordinates with respect to the dual basis."""

    basis: tuple[tuple[int, ...], ...]
    index_in_dual: int
    known: bool = True


@dataclass(frozen=True)
class InvariantReport:
    t_vector: tuple[int, ...]
    loop_basis: tuple[tuple[int, ...], ...]
    maslov_values: tuple[int, ...]
    area_coeffs: tuple[Fraction, ...]  # areas are area_coeffs * pi
    minimal_maslov: int
    monotone: bool
    monotonicity_coeff: Fraction | None  # the constant is coeff * pi
    counterexample: tuple[int, ...] | None
    assumptions: tuple[str, ...] = field(default_factory=tuple)


def deck_data(system: QuadricSystem) -> DeckData:
    """Basis of the lattice generated by the coefficient columns, plus its dual."""
    rank = system.m
    if rank == 0:
        return DeckData(rank=0, lattice_basis=(), dual_basis=())
    columns = [list(c) for c in system.columns()]
    basis = linalg.row_basis(columns)
    if len(basis) < rank:
        raise InvariantError(
            "coefficient columns span a rank-deficient lattice; "
            "the torus construction is undefined"
        )
    dual = linalg.dual_lattice(basis)
    return DeckData(
        rank=rank,
        lattice_basis=tuple(tuple(r) for r in basis),
        dual_basis=tuple(tuple(r) for r in dual),
    )


def _pairing_int(dual_vector: Sequence[Fraction], column: Sequence[int]) -> int:
    value = Fraction(linalg.dot(dual_vector, column))
    if value.denominator != 1:
        raise InvariantError("dual vector pairs non-integrally with a lattice column")
    return value.numerator


def loop_lattice(
    deck: DeckData, system: QuadricSystem, strict_redundant: Iterable[int]
) -> LoopLattice:
    """Loop classes: dual vectors pairing evenly with every strict redundant column.

    With no redundancy this is the whole dual lattice.  The congruence rule
    assumes the irredundant core variety is connected.
    """
    redundant = sorted(set(strict_redundant))
    d = deck.rank
    if not redundant:
        return LoopLattice(tuple(tuple(row) for row in linalg.identity(d)), 1, True)
    parity_rows = []
    for s in redundant:
        column = system.column(s)
        parity_rows.append(
            [_pairing_int(eps, column) % 2 for eps in deck.dual_basis]
        )
    solutions = _gf2_kernel(parity_rows, d)
    stacked = solutions + [[2 * x for x in row] for row in linalg.identity(d)]
    basis = linalg.row_basis(stacked)
    index = linalg.snf_index(basis, linalg.identity(d))
    return LoopLattice(tuple(tuple(r) for r in basis), index, True)


def doubled_loop_lattice(deck: DeckData) -> LoopLattice:
    """Fallback when the loop lattice is unknown: doubled classes always close."""
    basis = tuple(tuple(2 * x for x in row) for row in linalg.identity(deck.rank))
    return LoopLattice(basis, 2 ** deck.rank, False)


def _gf2_kernel(rows: list[list[int]], width: int) -> list[list[int]]:
    matrix = [[x % 2 for x in row] for row in rows]
    pivots: dict[int, list[int]] = {}
    for row in matrix:
        for col in range(width):
            if not row[col]:
                continue
            if col in pivots:
                row = [(a + b) % 2 for a, b in zip(row, pivots[col])]
                continue
            pivots[col] = row
            break
    kernel = []
    free = [c for c in range(width) if c not in pivots]
    for f in free:
        vec = [0] * width
        vec[f] = 1
        for col in sorted(pivots, reverse=True):
            value = sum(pivots[col][j] * vec[j] for j in range(col + 1, width)) % 2
            vec[col] = value
        kernel.append(vec)
    return kernel


def _actual_vector(deck: DeckData, coords: Sequence[int]) -> list[Fraction]:
    return [
        sum((Fraction(c) * eps[p] for c, eps in zip(coords, deck.dual_basis)), Fraction(0))
        for p in range(deck.rank)
    ]


def t_vector(system: QuadricSystem) -> tuple[int, ...]:
    return tuple(sum(row) for row in system.gamma)


def maslov_area_report(
    deck: DeckData, system: QuadricSystem, loops: LoopLattice
) -> InvariantReport:
    """Maslov values, area coefficients, minimal Maslov number, monotonicity.

    Monotone means the areas are one positive rational multiple of the
    Maslov values across the whole loop basis; a zero Maslov value with a
    nonzero area defeats monotonicity.
    """
    t = t_vector(system)
    maslov: list[int] = []
    areas: list[Fraction] = []
    for coords in loops.basis:
        vector = _actual_vector(deck, coords)
        maslov.append(_pairing_int(vector, t))
        areas.append(Fraction(linalg.dot(vector, system.delta)) / 2)
    minimal = linalg.gcd_over_basis(maslov)
    coeff: Fraction | None = None
    monotone = True
    counterexample = None
    for coords, mu, area in zip(loops.basis, maslov, areas):
        if mu == 0:
            if area != 0:
                monotone = False
                counterexample = coords
                break
            continue
        ratio = area / mu
        if coeff is None:
            coeff = ratio
        elif ratio != coeff:
            monotone = False
            counterexample = coords
            break
    if monotone and coeff is not None and coeff <= 0:
        monotone = False
        counterexample = next(
            (c for c, mu, a in zip(loops.basis, maslov, areas) if mu and a / mu <= 0),
            loops.basis[0] if loops.basis else None,
        )
    assumptions = []
    if not loops.known:
        assumptions.append(UNKNOWN_LOOP_ASSUMPTION)
    if any(any(c % 2 for c in coords) for coords in loops.basis):
        assumptions.append(ODD_CLASS_ASSUMPTION)
    return InvariantReport(
        t_vector=t,
        loop_basis=loops.basis,
        maslov_values=tuple(maslov),
        area_coeffs=tuple(areas),
        minimal_maslov=minimal,
        monotone=monotone,
        monotonicity_coeff=coeff if monotone else None,
        counterexample=counterexample,
        assumptions=tuple(assumptions),
    )


def fano_monotone_crosscheck(
    structure: StructureReport, report: InvariantReport
) -> bool | None:
    """Whether the Fano verdict of ``structure`` matches the monotone verdict.

    Only applicable to bounded, Delzant, irredundant presentations; returns
    None ("not applicable") otherwise.
    """
    applicable = (
        structure.bounded
        and not structure.empty
        and structure.delzant is True
        and not structure.redundant
    )
    if not applicable:
        return None
    return structure.fano == report.monotone


def report_to_json(report: InvariantReport) -> dict:
    return {
        "t": list(report.t_vector),
        "loop_basis": [list(v) for v in report.loop_basis],
        "maslov": list(report.maslov_values),
        "area_over_pi": [format_rational(a) for a in report.area_coeffs],
        "N_L": report.minimal_maslov,
        "monotone": report.monotone,
        "c_over_pi": None
        if report.monotonicity_coeff is None
        else format_rational(report.monotonicity_coeff),
        "counterexample": None
        if report.counterexample is None
        else list(report.counterexample),
        "assumptions": list(report.assumptions),
    }
