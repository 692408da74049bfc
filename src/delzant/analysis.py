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
from .families import TopologyTag, family_spec, recognize_topology
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
    loops: inv.LoopLattice
    invariants: inv.InvariantReport
    topology: TopologyTag | None
    assumptions: tuple[str, ...]
    oracle_checks: tuple[dict, ...] = field(default_factory=tuple)
    discrepancies: tuple[Discrepancy, ...] = field(default_factory=tuple)


def published_discrepancies(
    family: str | None,
    report: inv.InvariantReport,
    measured: dict[tuple[int, ...], float] | None = None,
) -> tuple[Discrepancy, ...]:
    """Mismatches against the published values (area = maslov/2) of a catalog family.

    ``family`` is the system's ``family_spec``; outside the catalog there is
    nothing published to compare with.
    """
    if family is None:
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
    structure = structure_report(poly, budget)
    non_strict = set(structure.redundant) - set(structure.strict_redundant)
    if non_strict:
        loops = inv.doubled_loop_lattice(system.deck)
    else:
        loops = inv.loop_lattice(system.deck, structure.strict_redundant)
    report = inv.maslov_area_report(system, loops)
    topology = recognize_topology(system, structure.strict_redundant)
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

    family = family_spec(system)
    checks: tuple[dict, ...] = ()
    measured: dict[tuple[int, ...], float] | None = None
    if with_oracle:
        oracle_loops = [
            orc.TorusLoop(coords, doubled=True, samples=samples) for coords in loops.basis
        ]
        checks = tuple(
            orc.oracle_checks(
                system, oracle_loops, family=family, seed=seed, vertex_set=structure.vertex_set
            )
        )
        areas = [r["actual"] for r in checks if r["check"].startswith("area")]
        # the doubled realization of a class measures twice its area
        measured = {c: a / (2 * math.pi) for c, a in zip(loops.basis, areas)}
    discrepancies = published_discrepancies(family, report, measured)
    return AnalysisReport(
        polytope=poly,
        structure=structure,
        quadrics=system,
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
