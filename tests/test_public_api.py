"""The names ``delzant`` exports.

``__all__`` is the package's public surface and the unused-import check's
allow-list for ``delzant/__init__.py``.  Pinning it makes every addition or
removal a visible change to this file.
"""

import delzant

PUBLIC = [
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


def test_all_is_sorted():
    assert delzant.__all__ == sorted(delzant.__all__)


def test_every_exported_name_resolves():
    for name in delzant.__all__:
        assert getattr(delzant, name, None) is not None, name


def test_all_is_the_pinned_list():
    assert delzant.__all__ == PUBLIC
