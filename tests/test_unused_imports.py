"""No module of the package imports a name it never uses, no function binds
a local it never reads, no module-level private function or class goes
unreferenced in the package, no module-level public one goes unreferenced in
the package and in the benchmark (`perfbench/`) unless the package exports
it, and no field of a private dataclass or NamedTuple goes unread.

A deletion that leaves its imports, its inputs, its helpers or the fields
that carried its data behind fails here; a helper that only tests call
counts as left behind. The names that `ssmopt/__init__.py` lists in
`__all__` are re-exports, not leftovers.
"""

import ast
from pathlib import Path

import pytest

import ssmopt

PACKAGE = Path(ssmopt.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


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


def public_definitions(tree):
    """{name: line} of every module-level function or class whose name does
    not start with an underscore."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def names_read(node):
    """Every name a node (a module or a statement) reads, as a bare name, an
    attribute or an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_definitions(trees: dict, defined, used_elsewhere=frozenset()):
    """{(module, name): line} of the module-level definitions that
    `defined(tree)` lists, that no module of `trees` references outside
    their own body (a definition's own body does not reference it) and that
    `used_elsewhere` does not hold."""
    reads = [
        (mod, getattr(top, "name", None), names_read(top))
        for mod, tree in trees.items()
        for top in tree.body
    ]
    return {
        (mod, name): line
        for mod, tree in trees.items()
        for name, line in defined(tree).items()
        if name not in used_elsewhere
        and not any(
            name in names for other, top, names in reads if (other, top) != (mod, name)
        )
    }


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bare_name(node):
    """The name of a decorator, base class or callee: `dataclass`,
    `dataclass(...)`, `typing.NamedTuple`."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None))


def _annotated_names(annotation):
    """The bare names an annotation mentions: `X`, `"X"`, `X | None`."""
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    return {_bare_name(node) for node in ast.walk(annotation)} - {None}


def private_records(trees: dict):
    """{class: {field: (module, line)}} of the annotated fields of every
    module-level private dataclass or NamedTuple."""
    out = {}
    for mod, tree in trees.items():
        private = private_definitions(tree)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in private):
                continue
            if any(_bare_name(d) == "dataclass" for d in cls.decorator_list) or any(
                _bare_name(b) == "NamedTuple" for b in cls.bases
            ):
                out[cls.name] = {
                    stmt.target.id: (mod, stmt.lineno)
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
    return out


def unread_fields(trees: dict):
    """{(module, class, field): line} of the private record fields that no
    function of `trees` reads from an instance of their own class. A read is
    an attribute load on an instance the function holds: an argument
    annotated with the class, `self` in the class's own methods, or a name
    assigned (or annotated) from a call that makes one (the class, one of
    its class methods, a function annotated to return it), or that call
    itself. A field of the same name on another class does not count."""
    records = private_records(trees)
    functions = [f for t in trees.values() for f in ast.walk(t) if isinstance(f, _FUNCTIONS)]
    makers = {cls: {cls} for cls in records}
    for f in functions:
        for cls in _annotated_names(f.returns) & records.keys():
            makers[cls].add(f.name)
    owner = {
        id(f): cls.name
        for t in trees.values()
        for cls in t.body
        if isinstance(cls, ast.ClassDef) and cls.name in records
        for f in cls.body
        if isinstance(f, _FUNCTIONS)
    }

    def makes(node, cls):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == cls:
            return True
        return _bare_name(func) in makers[cls]

    read = {cls: set() for cls in records}
    for f in functions:
        args = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
        for cls in records:
            held = {a.arg for a in args if cls in _annotated_names(a.annotation)}
            if owner.get(id(f)) == cls and args:
                held.add(args[0].arg)
            for node in ast.walk(f):
                if isinstance(node, ast.Assign) and makes(node.value, cls):
                    held.update(t.id for t in node.targets if isinstance(t, ast.Name))
                elif isinstance(node, ast.AnnAssign) and cls in _annotated_names(node.annotation):
                    held.add(getattr(node.target, "id", None))
            for node in ast.walk(f):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    if getattr(node.value, "id", None) in held or makes(node.value, cls):
                        read[cls].add(node.attr)
    return {
        (mod, cls, name): line
        for cls, fields in records.items()
        for name, (mod, line) in fields.items()
        if name not in read[cls]
    }


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
    unused = unreferenced_definitions(trees, private_definitions)
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
    assert unreferenced_definitions(trees, private_definitions) == {
        ("a.py", "_self"): 2,
        ("a.py", "_Lonely"): 4,
    }


def test_no_unreferenced_public_definition():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    used = set(ssmopt.__all__).union(*(names_read(ast.parse(p.read_text())) for p in BENCHMARK))
    unused = unreferenced_definitions(trees, public_definitions, used)
    assert not unused, (
        f"public definitions that neither the package nor perfbench uses, "
        f"and that ssmopt.__all__ does not export: {unused}"
    )


def test_public_definition_guard_sees_the_benchmark_and_the_exports():
    trees = {
        "a.py": ast.parse(
            "def used(): pass\n"
            "def benched(): pass\n"
            "def exported(): pass\n"
            "def helper(n):\n"
            "    return helper(n - 1)\n"
            "class Orphan: pass\n"
            "def _private(): pass\n"
        ),
        "b.py": ast.parse("from a import used\n"),
    }
    used = names_read(ast.parse("import a\na.benched()\n")) | {"exported"}
    assert unreferenced_definitions(trees, public_definitions, used) == {
        ("a.py", "helper"): 4,
        ("a.py", "Orphan"): 6,
    }


def test_no_unread_private_field():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    unread = unread_fields(trees)
    assert not unread, f"private record fields that nothing in the package reads: {unread}"


def test_unread_field_guard_follows_instances():
    trees = {
        "a.py": ast.parse(
            "from dataclasses import dataclass\n"
            "from typing import NamedTuple\n"
            "@dataclass\n"
            "class _Index:\n"
            "    m: tuple\n"
            "    MV: object\n"
            "    lins: list\n"
            "@dataclass\n"
            "class _Rec:\n"
            "    MV: object\n"
            "    w: object\n"
            "    def norm(self):\n"
            "        return self.w\n"
            "class _Pair(NamedTuple):\n"
            "    a: int\n"
            "    b: int\n"
            "def pair() -> '_Pair':\n"
            "    return _Pair(1, 2)\n"
            "def step(ix: '_Index', rec):\n"
            "    ix.MV = rec.MV\n"
            "    return ix.m\n"
            "def walk(rec: _Rec):\n"
            "    ix = _Index((), rec.MV, [])\n"
            "    return ix.lins, pair().a\n"
        ),
        "b.py": ast.parse("from a import pair\ndef f():\n    p = pair()\n    return p.b\n"),
    }
    # _Index.MV is only assigned, and the reads of `MV` are _Rec's
    assert unread_fields(trees) == {("a.py", "_Index", "MV"): 6}
