"""Full analysis pipeline: structure, quadrics, invariants, topology, checks.

One entry point assembles everything the CLI reports for a polytope,
including discrepancy records whenever a recognized catalog family's
published invariant values disagree with the computed ones.  The published
claim for both catalog families is that every loop generator has area
``(pi/2) * maslov``; the redundant-simplex family violates it on the
doubled slack generator (computed area ``pi*(2k+2)`` against a published
``pi*(k+1)``), which the numerical oracle adjudicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import invariants as inv
from . import oracle as orc
from .families import (
    TopologyTag,
    match_product_simplices,
    match_redundant_simplex,
    recognize_topology,
)
from .polytopes import (
    DEFAULT_SUBSET_BUDGET,
    HPolytope,
    StructureReport,
    format_rational,
    structure_report,
    structure_to_json,
)
from .quadrics import QuadricSystem, polytope_to_quadrics, quadrics_to_json

CONNECTED_CORE_ASSUMPTION = (
    "the irredundant core variety is assumed connected (outside the "
    "recognized catalog this is not verified)"
)


@dataclass(frozen=True)
class Discrepancy:
    quantity: str
    published: Fraction
    computed: Fraction
    measured: float | None = None

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "published": format_rational(self.published),
            "computed": format_rational(self.computed),
            "measured": self.measured,
        }


@dataclass(frozen=True)
class AnalysisReport:
    polytope: HPolytope
    structure: StructureReport
    quadrics: QuadricSystem
    deck: inv.DeckData
    loops: inv.LoopLattice
    invariants: inv.InvariantReport
    topology: TopologyTag | None
    assumptions: tuple[str, ...]
    oracle_checks: tuple[dict, ...] = field(default_factory=tuple)
    discrepancies: tuple[Discrepancy, ...] = field(default_factory=tuple)


def family_hint(system: QuadricSystem) -> str | None:
    params = match_product_simplices(system)
    if params:
        p, n, k = params
        return f"product-simplices:p={p},n={n},k={k}"
    params = match_redundant_simplex(system)
    if params:
        n, k = params
        return f"redundant-simplex:n={n},k={k}"
    return None


def published_discrepancies(
    system: QuadricSystem,
    report: inv.InvariantReport,
    measured: dict[tuple[int, ...], float] | None = None,
) -> tuple[Discrepancy, ...]:
    """Mismatches against the published family values (area = maslov/2)."""
    if match_product_simplices(system) is None and match_redundant_simplex(system) is None:
        return ()
    records = []
    for coords, mu, area in zip(
        report.loop_basis, report.maslov_values, report.area_coeffs
    ):
        published = Fraction(mu, 2)
        if area != published:
            label = "(" + ",".join(str(c) for c in coords) + ")"
            records.append(
                Discrepancy(
                    quantity=f"area/pi of doubled loop generator {label}",
                    published=published,
                    computed=area,
                    measured=None if measured is None else measured.get(coords),
                )
            )
    return tuple(records)


def analyze_polytope(
    poly: HPolytope,
    with_oracle: bool = False,
    seed: int = 0,
    samples: int = 0,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> AnalysisReport:
    """Run the whole pipeline on one presentation."""
    system = polytope_to_quadrics(poly)
    structure = structure_report(poly, budget, system.gamma)
    deck = inv.deck_data(system)
    non_strict = set(structure.redundant) - set(structure.strict_redundant)
    if non_strict:
        loops = inv.doubled_loop_lattice(deck)
    else:
        loops = inv.loop_lattice(deck, system, structure.strict_redundant)
    report = inv.maslov_area_report(deck, system, loops)
    topology = recognize_topology(system, structure.strict_redundant, deck)
    assumptions = list(report.assumptions)
    if (
        topology is not None
        and topology.components == 1
        and all(d >= 2 for d in topology.sphere_dims)
    ):
        # a connected, simply connected core: the closed-form areas hold on
        # the whole dual lattice, no extension needed
        assumptions = [a for a in assumptions if a != inv.ODD_CLASS_ASSUMPTION]
    if topology is None and structure.redundant:
        assumptions.append(CONNECTED_CORE_ASSUMPTION)

    checks: tuple[dict, ...] = ()
    measured: dict[tuple[int, ...], float] | None = None
    if with_oracle:
        hint = family_hint(system)
        point = orc.sample_point(system, family=hint, seed=seed)
        records = [
            orc.check_record(
                "point-residual",
                0.0,
                float(max(abs(r) for r in point.residuals)),
                orc.DEFAULT_CONFIG.residual_tol,
            )
        ]
        measured = {}
        for coords in loops.basis:
            loop = orc.TorusLoop(coords, doubled=True, samples=samples)
            label = "(" + ",".join(str(c) for c in coords) + ")"
            area = orc.loop_area(system, loop, point)
            records.append(
                orc.check_record(
                    f"area{label}",
                    orc.closed_form_area(system, loop),
                    area,
                    orc.DEFAULT_CONFIG.area_rtol,
                )
            )
            winding = orc.loop_maslov(system, loop, point)
            records.append(
                orc.check_record(
                    f"maslov{label}", orc.expected_maslov(system, loop), winding, 0
                )
            )
            # the doubled realization of a class measures twice its area
            measured[coords] = area / (2 * math.pi)
        checks = tuple(records)
    discrepancies = published_discrepancies(system, report, measured)
    return AnalysisReport(
        polytope=poly,
        structure=structure,
        quadrics=system,
        deck=deck,
        loops=loops,
        invariants=report,
        topology=topology,
        assumptions=tuple(assumptions),
        oracle_checks=checks,
        discrepancies=discrepancies,
    )


def topology_to_json(tag: TopologyTag | None) -> dict | None:
    if tag is None:
        return None
    return {
        "description": tag.description,
        "sphere_dims": list(tag.sphere_dims),
        "torus_rank": tag.torus_rank,
        "orientable": tag.orientable,
        "components": tag.components,
        "lagrangian": tag.lagrangian,
    }


def analysis_to_json(report: AnalysisReport) -> dict:
    return {
        "polytope": {"dim": report.polytope.dim, "inequalities": report.polytope.n},
        "structure": structure_to_json(report.structure),
        "quadrics": quadrics_to_json(report.quadrics),
        "invariants": inv.report_to_json(report.invariants),
        "loop_lattice": {
            "basis": [list(v) for v in report.loops.basis],
            "index_in_dual": report.loops.index_in_dual,
            "known": report.loops.known,
        },
        "topology": topology_to_json(report.topology),
        "assumptions": list(report.assumptions),
        "oracle_checks": list(report.oracle_checks),
        "discrepancies": [d.to_json() for d in report.discrepancies],
    }
