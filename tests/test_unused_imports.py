"""No module of the library imports a name it never uses, no module-private
top-level name goes unread, and no module reads another module's private name.

The check reads each source file with the standard ``ast`` module: a name
bound by an ``import`` statement (at any depth) counts as used when a
``Name`` node anywhere in the module reads it, or when the module lists it
in ``__all__``.  ``from __future__`` imports are directives, not names.
A top-level function, class or constant named ``_name`` counts as read when
any module of the library loads it as a ``Name``, reads it as an attribute
(``linalg._bareiss``) or imports it.  A private name stays in its module:
no other module imports it (``from .polytopes import _helper``) or reads it
off an imported library module (``linalg._bareiss``).
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


def private_definitions(source: str) -> list[str]:
    """Top-level ``_name`` functions, classes and constants, in source order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def names_read(source: str) -> set[str]:
    """Every name the module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private top-level name that no module reads."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return [
        f"{module}:{name}"
        for module, source in sources.items()
        for name in private_definitions(source)
        if name not in read
    ]


def test_the_check_sees_unread_private_names():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper(x):\n"
            "    return x\n"
            "def _called_elsewhere():\n"
            "    pass\n"
            "def _imported_elsewhere():\n"
            "    pass\n"
            "def _dead():\n"
            "    _dead_local = 1\n"
            "class _Dead:\n"
            "    def _method(self):\n"
            "        pass\n"
            "def f():\n"
            "    return _helper(_LIMIT)\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _imported_elsewhere\n"
            "a._called_elsewhere()\n"
        ),
    }
    assert unread_private_names(sources) == ["a.py:_UNUSED", "a.py:_dead", "a.py:_Dead"]


def test_no_unread_private_name():
    sources = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert unread_private_names(sources) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """``module.name`` for each private name taken from another library module,
    imported by name or read as an attribute of an imported module, in source order."""
    tree = ast.parse(source)
    modules = {}  # local name -> library module or name imported from one
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "delzant"
        ):
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}" if node.module else alias.name
                if _private(alias.name):
                    found.append((node.lineno, node.col_offset, qualified))
                else:
                    modules[alias.asname or alias.name] = qualified
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append((node.lineno, node.col_offset, f"{modules[node.value.id]}.{node.attr}"))
    return [name for *_, name in sorted(found)]


def test_the_check_sees_private_imports():
    source = (
        "import os\n"
        "from numpy import _private_to_numpy\n"
        "from . import linalg\n"
        "from .polytopes import HPolytope, _relation_rows\n"
        "from .quadrics import _slack as slack\n"
        "from delzant.oracle import _deck_record\n"
        "__all__ = ['HPolytope']\n"
        "def f(x):\n"
        "    return linalg._bareiss(os._exit, linalg.dot, x.__class__, HPolytope._cache)\n"
    )
    assert private_imports(source) == [
        "polytopes._relation_rows",
        "quadrics._slack",
        "delzant.oracle._deck_record",
        "linalg._bareiss",
        "polytopes.HPolytope._cache",
    ]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_import(path):
    assert private_imports(path.read_text()) == []
