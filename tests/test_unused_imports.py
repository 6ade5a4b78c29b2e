"""No module of the package imports a name it never uses, no function binds
a local it never reads, and no module-level private function or class goes
unreferenced in the package.

A deletion that leaves its imports, its inputs or its private helpers behind
fails here; a helper that only tests call counts as left behind. The names
that `ssmopt/__init__.py` lists in `__all__` are re-exports, not leftovers.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(fn):
    """Nodes of a function body outside its nested functions and classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(tree):
    """{(function, name): line} of every name a function binds, tuple targets
    included, that neither it nor a closure of it reads. `nonlocal`/`global`
    and augmented assignments count as reads; `_` is the discard name."""
    out = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {}
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        for name, line in bound.items():
            if name not in read and name != "_":
                out[(fn.name, name)] = line
    return out


def private_definitions(tree):
    """{name: line} of every module-level function or class whose name
    starts with one underscore."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def referenced_names(tree, skip=()):
    """Every name a module reads, as a bare name, an attribute or an import,
    outside the top-level definitions named in `skip`: a definition's own
    body does not reference it."""
    out = set()
    for top in tree.body:
        if getattr(top, "name", None) in skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def unreferenced_privates(trees: dict):
    """{(module, name): line} of the module-level private functions and
    classes that no module of `trees` references outside their own body."""
    out = {}
    for mod, tree in trees.items():
        for name, line in private_definitions(tree).items():
            if not any(
                name in referenced_names(other, skip=(name,) if other is tree else ())
                for other in trees.values()
            ):
                out[(mod, name)] = line
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_local(path):
    unused = unused_locals(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} binds locals it never reads: {unused}"


def test_unused_local_guard_sees_tuple_targets_and_closures():
    tree = ast.parse(
        "def f(a):\n"
        "    x, y = a\n"
        "    z = 1\n"
        "    _ = 2\n"
        "    def g():\n"
        "        nonlocal z\n"
        "        return x\n"
        "    return g\n"
    )
    assert unused_locals(tree) == {("f", "y"): 2}


def test_no_unreferenced_private_definition():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    unused = unreferenced_privates(trees)
    assert not unused, f"private definitions that nothing in the package uses: {unused}"


def test_private_definition_guard_sees_other_modules_and_self_reference():
    trees = {
        "a.py": ast.parse(
            "def _used(): pass\n"
            "def _self(n):\n"
            "    return _self(n - 1)\n"
            "class _Lonely: pass\n"
            "def __dunder__(): pass\n"
        ),
        "b.py": ast.parse("from a import _used\n"),
    }
    assert unreferenced_privates(trees) == {("a.py", "_self"): 2, ("a.py", "_Lonely"): 4}
