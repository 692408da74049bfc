"""Maslov and area invariants of the Lagrangian attached to a quadric system.

The coefficient columns ``gamma_j`` generate a full-rank lattice; the torus
directions of the Lagrangian are indexed by the dual lattice, and the deck
group is dual-mod-doubled.  On a loop class ``v`` (a dual-lattice element)
the Maslov homomorphism evaluates to ``<v, t>`` with ``t = sum_j gamma_j``,
and the symplectic area to ``(pi/2) <v, delta>``.  Both pairings are basis
independent; all loop data below is expressed in coordinates with respect
to the canonical dual basis.  ``DeckData`` carries the integer pairing
matrix ``<eps_p, gamma_j>`` of that basis with the columns, checked for
integrality once; every parity, Maslov value and loop pairing is read
from it, and every area from its pairings ``<eps_p, delta>``.  A
``QuadricSystem`` computes its ``DeckData`` once, as its cached ``deck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

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
    """Lattice data of the torus factor: basis of the column lattice and its dual.

    The dual basis vector ``eps_p`` is ``dual_numerators[p] / dual_den``, in
    lowest terms.  ``pairings[p][j]`` is the integer ``<eps_p, gamma_j>`` of
    dual basis vector p with column j; ``<eps_p, delta>`` is
    ``delta_numerators[p] / delta_den``, not reduced.
    """

    rank: int
    lattice_basis: tuple[tuple[int, ...], ...]
    dual_numerators: tuple[tuple[int, ...], ...]
    dual_den: int
    pairings: tuple[tuple[int, ...], ...]
    delta_numerators: tuple[int, ...]
    delta_den: int

    @property
    def dual_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dual basis rows as Fractions, built on demand."""
        den = self.dual_den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.dual_numerators)


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
    """Basis of the lattice generated by the coefficient columns, plus its
    dual and their pairings; ``system.deck`` caches the result."""
    rank = system.m
    if rank == 0:
        return DeckData(0, (), (), 1, (), (), 1)
    columns = [list(c) for c in system.columns()]
    basis = linalg.row_basis(columns)
    if len(basis) < rank:
        raise InvariantError(
            "coefficient columns span a rank-deficient lattice; "
            "the torus construction is undefined"
        )
    numerators, den = linalg.dual_lattice(basis)
    scaled = linalg.mat_mul(numerators, system.gamma)
    if any(x % den for row in scaled for x in row):
        raise InvariantError("a dual basis vector pairs non-integrally with a lattice column")
    delta, scale = linalg.scale_to_integers(system.delta)
    return DeckData(
        rank=rank,
        lattice_basis=tuple(tuple(r) for r in basis),
        dual_numerators=tuple(tuple(r) for r in numerators),
        dual_den=den,
        pairings=tuple(tuple(x // den for x in row) for row in scaled),
        delta_numerators=tuple(linalg.dot(eps, delta) for eps in numerators),
        delta_den=den * scale,
    )


def loop_lattice(deck: DeckData, strict_redundant: Iterable[int]) -> LoopLattice:
    """Loop classes: dual vectors pairing evenly with every strict redundant column.

    With no redundancy this is the whole dual lattice.  Otherwise the loops
    are the ``v``-parts of the saturated integer kernel of ``[P | -2I]``,
    where row s of ``P`` pairs ``v`` with strict redundant column s, so
    ``P v = 2 w``.  They contain the doubled lattice, so their HNF basis is
    full rank and its determinant is the index.  The congruence rule
    assumes the irredundant core variety is connected.
    """
    redundant = sorted(set(strict_redundant))
    d = deck.rank
    if not redundant:
        return LoopLattice(tuple(tuple(row) for row in linalg.identity(d)), 1, True)
    relations = [
        [row[s] for row in deck.pairings] + [-2 * (i == t) for t in range(len(redundant))]
        for i, s in enumerate(redundant)
    ]
    basis = linalg.row_basis([v[:d] for v in linalg.integer_kernel(relations)])
    return LoopLattice(tuple(tuple(r) for r in basis), linalg.lattice_det(basis), True)


def doubled_loop_lattice(deck: DeckData) -> LoopLattice:
    """Fallback when the loop lattice is unknown: doubled classes always close."""
    basis = tuple(tuple(2 * x for x in row) for row in linalg.identity(deck.rank))
    return LoopLattice(basis, 2 ** deck.rank, False)


def t_vector(system: QuadricSystem) -> tuple[int, ...]:
    return tuple(sum(row) for row in system.gamma)


def maslov_area_report(system: QuadricSystem, loops: LoopLattice) -> InvariantReport:
    """Maslov values, area coefficients, minimal Maslov number, monotonicity.

    Monotone means the areas are one positive rational multiple of the
    Maslov values across the whole loop basis; a zero Maslov value with a
    nonzero area defeats monotonicity.
    """
    t = t_vector(system)
    deck = system.deck
    generator_maslov = [sum(row) for row in deck.pairings]
    maslov = [linalg.dot(coords, generator_maslov) for coords in loops.basis]
    den = 2 * deck.delta_den
    areas = [Fraction(linalg.dot(c, deck.delta_numerators), den) for c in loops.basis]
    minimal = math.gcd(*maslov)
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
        structure.vertex_set.bounded
        and not structure.vertex_set.empty
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
