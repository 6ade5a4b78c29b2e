"""The package's runtime dependencies are the ones it imports.

The third-party packages that `src/ssmopt/*.py` import, anywhere in a module
(a lazy import inside a function counts), must be exactly the distributions
that pyproject's `[project].dependencies` names, so a stale or a missing
runtime dependency fails here. That is numpy alone. jsonschema and scipy,
the references that the config walker and the modes (`MechModel.modes`) are
tested against, are test dependencies only: no module of the package imports
scipy, and importing the CLI loads neither.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ssmopt").glob("*.py"))


def third_party_imports(sources):
    """Top-level names of the absolute imports in the sources that are
    neither standard library nor ssmopt itself."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"ssmopt"}


def declared_dependencies():
    """The distribution names in pyproject's [project].dependencies."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", dep).group().lower() for dep in deps}


def test_imports_match_declared_dependencies():
    assert len(MODULES) > 10
    imported = third_party_imports(p.read_text() for p in MODULES)
    assert imported == declared_dependencies() == {"numpy"}


def test_no_module_imports_scipy():
    # numpy.linalg computes the model's modes and checks its stiffness, and
    # every solve of the SSM divides in those modes
    importing = {p.stem for p in MODULES if "scipy" in third_party_imports([p.read_text()])}
    assert importing == set()


def test_import_guard_sees_lazy_imports_and_skips_stdlib_and_relative():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np, os.path\n"
        "from scipy.linalg import lapack\n"
        "from .config import CONFIG_SCHEMA\n"
        "from ssmopt import cli\n"
        "def f():\n"
        "    import jsonschema.validators\n"
    )
    assert third_party_imports([source]) == {"numpy", "scipy", "jsonschema"}


def test_cli_import_loads_neither_jsonschema_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import ssmopt.cli, sys; print(sorted(m for m in sys.modules"
        " if 'jsonschema' in m or 'scipy' in m))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
