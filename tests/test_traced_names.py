"""Every entry point that the benchmark's tracer wraps exists in the package.

`perfbench/tracer.py` names the functions it wraps in its `TRACED` tuple of
(module, function) pairs. A renamed or removed entry point would otherwise
pass the test suite and fail only a traced benchmark run. The tuple is read
from the file's syntax tree, so the tracer itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def traced_pairs() -> tuple:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


PAIRS = traced_pairs()


@pytest.mark.parametrize("module, function", PAIRS, ids=[f"{m}.{f}" for m, f in PAIRS])
def test_traced_name_is_a_package_function(module, function):
    assert callable(getattr(importlib.import_module(f"ssmopt.{module}"), function, None))


def test_the_tuple_is_read():
    # an empty parametrization would pass without checking anything
    assert ("models", "build_chain") in PAIRS and ("config", "resolve_model") in PAIRS
