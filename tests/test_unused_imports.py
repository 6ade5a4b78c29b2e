"""No module of the package imports a name it never uses.

A deletion that leaves its imports behind fails here. The names that
`ssmopt/__init__.py` lists in `__all__` are re-exports, not leftovers.
"""

import ast
from pathlib import Path

import pytest

import ssmopt

PACKAGE = Path(ssmopt.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """{bound name: line} of every import in the module, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "sens_adjoint.py", "optimizer.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(ssmopt.__all__) if path.name == "__init__.py" else set()
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used and name not in exported
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"
