"""No module of the library imports a name it never uses.

The check reads each source file with the standard ``ast`` module: a name
bound by an ``import`` statement (at any depth) counts as used when a
``Name`` node anywhere in the module reads it, or when the module lists it
in ``__all__``.  ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "delzant"


def unused_imports(source: str) -> list[str]:
    """Names the module imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import json as j\n"
        "from fractions import Fraction\n"
        "from typing import Sequence\n"
        "from .linalg import dot\n"
        "__all__ = ['dot']\n"
        "def f(x: Sequence) -> float:\n"
        "    import re\n"
        "    return os.path.sep + j.dumps(x)\n"
    )
    assert unused_imports(source) == ["math", "Fraction", "re"]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
