"""Every name a module imports is used in that module.

Scans the modules of ``imdot`` and of these tests.  A name counts as used
when the module reads it anywhere or lists it in ``__all__``.  Exempt are
imports marked ``# noqa: F401``, ``from __future__`` imports and
``imdot/__init__.py``, whose imports are the package's re-exports.
"""

import ast
from pathlib import Path

import imdot

PACKAGE = Path(imdot.__file__).parent
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
MODULES += sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """``(line, name)`` of every imported name that ``source`` never uses."""
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("noqa: F401" in line
                         for line in lines[node.lineno - 1:node.end_lineno])
            if marked or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import Sequence, Callable\n"
              "from json import dumps  # noqa: F401\n"
              "__all__ = ['Callable']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "Sequence")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.parent.name}/{path.name}:{line} {name}"
             for path in MODULES for line, name in unused_imports(path.read_text())]
    assert found == []
