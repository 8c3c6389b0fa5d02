"""Every module-level import of a library module is used in that module.

No linter ships with the project, so this reads each module's syntax tree:
a name that a top-level ``import`` binds must occur somewhere else in the
module.  ``__init__.py`` is left out, since its imports are the package's
exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "loccoh"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    tree = ast.parse((SRC / module).read_text())
    assert _unused_imports(tree) == []


def test_an_unused_import_is_reported():
    assert "extmult.py" in MODULES
    tree = ast.parse("from math import comb, prod\nimport os.path\n\nx = prod([2])\n")
    assert _unused_imports(tree) == ["comb (line 1)", "os (line 2)"]
