"""Maslov and area invariants of the Lagrangian attached to a quadric system.

The Lagrangian is Mironov's ``R x_D T``, whose torus ``T`` is spanned by the
coefficient columns ``gamma_j``; its loops are indexed by the dual of the
lattice those columns span.  The relation rows of a presentation are
saturated, so the columns of its ``Gamma`` span all of ``Z^m``: the dual
basis is the standard one and a loop class is its coordinate vector
``v in Z^m``.  On ``v`` the Maslov homomorphism evaluates to ``<v, t>``
with ``t = sum_j gamma_j``, and the symplectic area to
``(pi/2) <v, delta>``.  ``deck_data`` checks that premise once and refuses
any other ``Gamma``: first by a certificate, rows whose last nonzero
entries are units in distinct columns, which every catalog system
carries, and otherwise by the HNF of the columns.  ``DeckData`` carries
``Gamma`` itself as the integer pairings ``<e_p, gamma_j>``, from which
every parity, Maslov value and loop pairing is read, and ``delta`` over one
denominator, from which every area is read.  A ``QuadricSystem`` computes
its ``DeckData`` once, as its cached ``deck``.
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
    """Pairings of the standard dual basis ``e_p`` with the columns and ``delta``.

    ``pairings[p][j]`` is the integer ``<e_p, gamma_j>``, so ``pairings`` is
    ``Gamma``; ``<e_p, delta>`` is ``delta_numerators[p] / delta_den``.
    """

    pairings: tuple[tuple[int, ...], ...]
    delta_numerators: tuple[int, ...]
    delta_den: int


@dataclass(frozen=True)
class LoopLattice:
    """Loop classes in coordinates with respect to the standard dual basis."""

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


def _unit_triangular(gamma) -> bool:
    """Whether the last nonzero columns ``c_i`` of the rows are distinct, with
    ``|gamma[i][c_i]| == 1``.

    Then the columns ``c_i``, in increasing order, form a triangular matrix
    with unit diagonal, so they alone span ``Z^m``.  A slack-ordered HNF
    whose pivots are all 1 has this shape.
    """
    last = set()
    for row in gamma:
        c = next((j for j in range(len(row) - 1, -1, -1) if row[j]), None)
        if c is None or c in last or abs(row[c]) != 1:
            return False
        last.add(c)
    return True


def deck_data(system: QuadricSystem) -> DeckData:
    """The deck record of a system whose columns span ``Z^m``; ``system.deck``
    caches it.

    Any other ``Gamma`` is refused: loops indexed by ``Z^m`` would miss the
    classes of a larger dual lattice.  The certificate ``_unit_triangular``
    settles the premise for every catalog system; the HNF of the columns
    decides the rest.
    """
    if not _unit_triangular(system.gamma):
        basis = linalg.row_basis([list(c) for c in system.columns()])
        if len(basis) < system.m:
            raise InvariantError(
                "coefficient columns span a rank-deficient lattice; "
                "the torus construction is undefined"
            )
        if basis != linalg.identity(system.m):
            raise InvariantError(
                "coefficient columns span a proper sublattice of Z^m (Gamma is not "
                "saturated); polytope_to_quadrics(quadrics_to_polytope(system)) "
                "gives the saturated system of the same polytope"
            )
    delta, scale = linalg.scale_to_integers(system.delta)
    return DeckData(system.gamma, tuple(delta), scale)


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
    d = len(deck.pairings)
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
    d = len(deck.pairings)
    basis = tuple(tuple(2 * x for x in row) for row in linalg.identity(d))
    return LoopLattice(basis, 2 ** d, False)


def t_vector(system: QuadricSystem) -> tuple[int, ...]:
    return tuple(sum(row) for row in system.gamma)


def maslov_area_report(system: QuadricSystem, loops: LoopLattice) -> InvariantReport:
    """Maslov values, area coefficients, minimal Maslov number, monotonicity.

    Monotone means the areas are one positive rational multiple of the
    Maslov values across the whole loop basis; a zero Maslov value with a
    nonzero area defeats monotonicity.
    """
    # the Maslov value of the standard dual generator e_p is <e_p, t> = t_p
    t = t_vector(system)
    deck = system.deck
    maslov = [linalg.dot(coords, t) for coords in loops.basis]
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
