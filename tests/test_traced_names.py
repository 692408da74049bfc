"""The benchmark in ``perfbench/`` calls into the library by name.

``--trace 1`` looks each name in ``perfbench/tracer.py``'s ``LAYERS`` up
with ``getattr`` and fails when one has been renamed or removed, so the
names it wraps must stay public.  The workloads in ``perfbench/workloads.py``
call the library with fixed signatures; one op of each catches a change
that would break them.  A wrapper the tracer binds must see every call it
is meant to count, so each computation goes through the module global.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"delzant.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"delzant.{layer}.{name}"


@pytest.mark.parametrize("name", ["families", "random-polytopes", "oracle", "obstruct"])
def test_workload_runs_one_checked_op(name):
    workload = _load("workloads").WORKLOADS[name](seed=0, seconds=0)
    workload.warm_up()
    item = workload.inputs[0]
    answer = workload.op(item)
    assert workload.check(item, answer) == []
    assert workload.check(item, workload.corrupt(answer)) != []


def _traced_analysis(text):
    """The tracer, installed around ``analyze_polytope(..., with_oracle=True)``
    on a family spec or a polytope JSON text whose oracle records all pass."""
    tracing = _load("tracer")
    for layer in tracing.LAYERS:
        importlib.import_module(f"delzant.{layer}")
    from delzant import analysis, families, polytopes

    if text.startswith("{"):
        poly = polytopes.parse_polytope(text)
    else:
        poly = families.parse_family_spec(text)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = analysis.analyze_polytope(poly, with_oracle=True)
    finally:
        tracer.uninstall()
    assert report.oracle_checks and all(r["pass"] for r in report.oracle_checks)
    return tracer


# the det L = 2 diamond, outside the catalog
DIAMOND = '{"A": [[1, 1, -1, -1], [1, -1, 1, -1]], "b": [1, 1, 1, 1]}'


@pytest.mark.parametrize("text", ["redundant-simplex:n=7,k=4", DIAMOND])
def test_one_traced_deck_data_call_per_analysis(text):
    # the deck record is cached on the quadric system and read by the
    # invariants, the topology and the oracle; a property that bound
    # deck_data at import time would read 0 here, a second record 2
    assert _traced_analysis(text).calls["invariants.deck_data"] == 1


@pytest.mark.parametrize(
    "text",
    [
        DIAMOND,
        # the det L = 2 box [0, 2] x [0, 3], primal side
        '{"A": [[2, 0, -2, 0], [0, 1, 0, -1]], "b": [0, 0, 4, 3]}',
        # a 4-simplex with one cut, m = 2 < k
        '{"A": [[1, 0, 0, 0, -1, -1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, -1, 1], '
        '[0, 0, 0, 1, -1, 0]], "b": [1, 1, 1, 1, 2, 1]}',
    ],
    ids=["diamond", "box", "gale"],
)
def test_one_vertex_enumeration_per_oracle_analysis(text):
    # outside the catalog the oracle samples the structure report's vertices;
    # enumerating them again on the quadric system's polytope reads 2 here
    assert _traced_analysis(text).calls["polytopes.enumerate_vertices"] == 1


@pytest.mark.parametrize(
    "spec", ["sphere-product:p=4,q=6", "sphere-power:p=4,m=3", "connected-sum-5:p=4"]
)
def test_one_traced_engine_call_per_candidate(spec):
    # admissible_maslov runs the engine through the module global once per
    # candidate that parity leaves; a private helper in its place reads 0 here
    tracing = _load("tracer")
    from delzant import families, spectral

    profile = families.parse_profile_spec(spec)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spectral.admissible_maslov(profile, profile.l_dim)
    finally:
        tracer.uninstall()
    candidates = [n for n in range(2, profile.l_dim + 1) if n % 2 == 0 or not profile.orientable]
    assert candidates and tracer.calls["spectral.run_engine"] == len(candidates)
