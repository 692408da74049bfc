"""The per-layer tracer in ``perfbench/tracer.py`` rebinds library functions by name.

``--trace 1`` looks each name up with ``getattr`` and fails when one has
been renamed or removed, so the names it wraps must stay public.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"delzant.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"delzant.{layer}.{name}"
