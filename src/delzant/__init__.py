"""Exact workbench for lattice polytopes, quadric systems, and Maslov data."""

from .analysis import AnalysisReport, analyze_polytope
from .families import (
    gen_product_simplices,
    gen_redundant_simplex,
    recognize_topology,
)
from .invariants import (
    InvariantReport,
    LoopLattice,
    deck_data,
    fano_monotone_crosscheck,
    loop_lattice,
    maslov_area_report,
)
from .polytopes import (
    HPolytope,
    StructureReport,
    VertexSet,
    enumerate_vertices,
    is_delzant,
    is_fano,
    is_simple,
    parse_polytope,
    redundancy,
    structure_report,
)
from .quadrics import (
    QuadricSystem,
    polytope_to_quadrics,
    quadrics_to_polytope,
)
from .spectral import (
    HomologyProfile,
    admissible_maslov,
    binomial_lemma,
    run_engine,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "HPolytope",
    "HomologyProfile",
    "InvariantReport",
    "LoopLattice",
    "QuadricSystem",
    "StructureReport",
    "VertexSet",
    "admissible_maslov",
    "analyze_polytope",
    "binomial_lemma",
    "deck_data",
    "enumerate_vertices",
    "fano_monotone_crosscheck",
    "gen_product_simplices",
    "gen_redundant_simplex",
    "is_delzant",
    "is_fano",
    "is_simple",
    "loop_lattice",
    "maslov_area_report",
    "parse_polytope",
    "polytope_to_quadrics",
    "quadrics_to_polytope",
    "recognize_topology",
    "redundancy",
    "run_engine",
    "structure_report",
]
