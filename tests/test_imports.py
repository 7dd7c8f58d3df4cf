"""No module of the package imports a name it never uses, and no function,
class, method or property of the package goes unread.

No linter ships with the package, so this walks the syntax tree: every name
an import binds must be read somewhere in the module, in code or in a
string annotation.  ``__init__`` re-exports its imports, and an import on
a ``noqa`` line is exempt.
"""

import ast
import re
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


def _reads(node):
    """The names that code under ``node`` reads, and the words of its strings:
    a docstring that names a function, as Verdict's names the witness
    replays, counts as a reader."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from re.findall(r"[A-Za-z_]\w*", n.value)


def unread_definitions(sources: dict) -> list:
    """The definitions of ``sources`` (file name -> source) that nothing reads
    outside their own definition: the module-level functions and classes,
    and the methods and properties of those classes, but for names that
    start with ``__``, which Python calls.  A class's own statements do not read its name, and
    a member is read by any other statement, its class's included.
    ``__init__`` is not searched: a re-export is not a use."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    readers = []  # (its top-level statement, a statement or class header part, the names it reads)
    for name, tree in trees.items():
        for node in tree.body if name != "__init__.py" else ():
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = [*node.body, *node.bases, *node.keywords, *node.decorator_list]
            readers += [(node, part, set(_reads(part))) for part in parts]
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(node.name in names for top, _, names in readers if top is not node):
                unread.append(f"{name}: {node.name}")
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                        and not any(member.name in names for _, part, names in readers if part is not member)):
                    unread.append(f"{name}: {node.name}.{member.name}")
    return sorted(unread)


def test_every_function_and_class_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []


def test_an_unread_definition_is_found():
    sources = {
        "__init__.py": "from .a import dead, used",
        "a.py": "\n".join([
            "def used():",
            "    return helper()",
            "def helper():",
            "    '''see documented'''",
            "def documented():",
            "    pass",
            "def recursive(n):",
            "    return recursive(n - 1)",
            "def dead():",
            "    pass",
            "class Unused:",
            "    pass",
            "class Lonely:",
            "    def __init__(self):",
            "        self.twin = Lonely",
            "class Base:",
            "    pass",
            "class Point(Base):",
            "    def __init__(self):",
            "        self.norm()",
            "    def norm(self):",
            "        return self.size",
            "    @property",
            "    def size(self):",
            "        return 1",
            "    def again(self):",
            "        return self.again()",
            "    def dead(self):",
            "        pass",
        ]),
        "b.py": "from .a import used, Point\nused()\nPoint()",
    }
    assert unread_definitions(sources) == ["a.py: Lonely", "a.py: Point.again", "a.py: Point.dead",
                                          "a.py: Unused", "a.py: dead", "a.py: recursive"]
