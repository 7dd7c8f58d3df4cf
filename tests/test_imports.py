"""No module of the package imports a name it never uses.

No linter ships with the package, so this walks the syntax tree: every name
an import binds must be read somewhere in the module, in code or in a
string annotation.  ``__init__`` re-exports its imports, and an import on
a ``noqa`` line is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "einvex"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound(node):
    """The names an import statement binds."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for name in _bound(node):
            imported.setdefault(name, node.lineno)
    used = _names(tree)
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for c in ast.walk(ann) if ann is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):  # "InvexBlock"
                    used |= _names(ast.parse(c.value, mode="eval"))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    src = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import numpy as np",
        "from typing import Optional, Sequence",
        "import json  # noqa: F401",
        "def f(x: 'Optional[int]') -> 'np.ndarray':",
        "    '''Sequence'''",
        "    return x",
    ])
    assert unused_imports(src) == ["Sequence (line 4)", "os (line 2)"]
