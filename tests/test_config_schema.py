"""The config schema walker against jsonschema, the reference implementation.

`config._schema_errors` checks `CONFIG_SCHEMA` without jsonschema. Here
jsonschema (Draft 2020-12 plus the schema's `finite` keyword) is the oracle:
seeded mutations of valid backbone, sens, optimize, bench and matrix-model
configs must give the walker's errors in jsonschema's order and words, so
`validate_config` names the same first error, byte for byte.
"""

import copy
import math
import sys

import numpy as np
import pytest

from ssmopt import config
from ssmopt.errors import ConfigError

jsonschema = pytest.importorskip("jsonschema")


def _finite(validator, finite, instance, schema):
    if finite and validator.is_type(instance, "number") and not abs(instance) <= sys.float_info.max:
        yield jsonschema.ValidationError(f"{instance!r} is not a finite number")


Reference = jsonschema.validators.extend(jsonschema.Draft202012Validator, {"finite": _finite})

CHAIN = {"type": "chain", "n_masses": 2, "mass": 1.0, "k": 1.0, "k2": 0.5, "k3": 0.2,
         "alpha_r": 0.0, "beta_r": 0.1, "params": ["k3", "k"]}
BASES = {
    "backbone": {
        "command": "backbone",
        "model": {"type": "vk_beam", "n_elements": 10, "a1": 0.002, "a2": 0.001},
        "backbone": {"dof": 13, "x_targets": [0.001, 0.002], "order": "auto",
                     "max_order": 9, "eps_tol": 1e-4, "mode": 0},
    },
    "sens": {
        "command": "sens",
        "model": CHAIN,
        "sens": {"dof": 1, "x0": 0.1, "methods": ["adjoint", "direct"], "order": 5, "mode": 0},
    },
    "optimize": {
        "command": "optimize",
        "model": CHAIN,
        "optimize": {
            "objective": {"type": "variable", "name": "k3"},
            "constraints": [
                {"type": "backbone", "dof": 1, "x": 0.2, "omega": 1.05},
                {"type": "eigfreq", "mode": 0, "omega": 1.0},
            ],
            "mu0": [0.2, 1.0],
            "bounds": {"lower": [-1.0, 0.5], "upper": [1.0, 2.0]},
            "tolerances": {"constraint_tol": 1e-8, "eps_tol": 1e-4, "max_order": 7,
                           "max_iter": 20},
            "method": "adjoint",
            "mode": 0,
        },
    },
    "bench": {
        "command": "bench",
        "bench": {"n_masses": 5, "param_counts": [1, 3], "orders": [3, 5], "x0": 0.1,
                  "repeats": 2},
    },
    "matrix": {
        "model": {"type": "matrix", "n": 2, "M": [[1.0, 0.0], [0.0, 1.0]],
                  "K": [[2.0, -1.0], [-1.0, 2.0]], "alpha_r": 0.0, "beta_r": 0.01,
                  "T2": [[0, 0, 0, 0.1]], "T3": [[0, 0, 0, 0, 0.2]]},
        "backbone": {"dof": 0, "x_targets": [0.1], "order": 5},
    },
}
VALUES = [math.nan, math.inf, -math.inf, True, False, None, 9.0, 4.0, 2.5, 0, -1, 7, 1e308,
          10**400, "x", "auto", "adjoint", "chain", [], [1.0], [math.nan], {}, {"type": "chain"}]
STRAY = ["bogus", "aaa", "zzz", "type", "params"]
MUTATIONS = 400


def reference_errors(cfg):
    errors = Reference(config.CONFIG_SCHEMA).iter_errors(cfg)
    return [(tuple(e.path), e.message) for e in errors]


def nodes(value, path=()):
    """(path, value) of the value and of every value inside it."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield from nodes(sub, (*path, key))


def mutate(cfg, rng):
    """The config with one to three seeded edits: a value swapped, a key
    dropped or a stray key added."""
    cfg = copy.deepcopy(cfg)
    for _ in range(rng.integers(1, 4)):
        points = list(nodes(cfg))
        path, node = points[rng.integers(len(points))]
        kind = rng.integers(3)
        if kind == 1 and isinstance(node, dict) and node:
            del node[list(node)[rng.integers(len(node))]]
        elif kind == 2 and isinstance(node, dict):
            node[STRAY[rng.integers(len(STRAY))]] = VALUES[rng.integers(len(VALUES))]
        elif path:
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
        else:
            return copy.deepcopy(VALUES[rng.integers(len(VALUES))])
    return cfg


@pytest.mark.parametrize("name", BASES)
def test_walker_matches_jsonschema_on_mutated_configs(name):
    base = BASES[name]
    assert reference_errors(base) == list(config._schema_errors(config.CONFIG_SCHEMA, base)) == []
    rng = np.random.default_rng(list(BASES).index(name))
    invalid = 0
    for _ in range(MUTATIONS):
        cfg = mutate(base, rng)
        expected = reference_errors(cfg)
        assert list(config._schema_errors(config.CONFIG_SCHEMA, cfg)) == expected, cfg
        if expected:
            invalid += 1
            # the first error by path, which validate_config reports
            path, message = sorted(expected, key=lambda e: e[0])[0]
            where = "/".join(map(str, path)) or "<root>"
            with pytest.raises(ConfigError) as err:
                config.validate_config(cfg)
            assert f"invalid config at '{where}': {message}" in str(err.value)
    # most mutations break a rule, and some leave the config valid
    assert MUTATIONS // 2 < invalid < MUTATIONS


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"type": "array", "maxItems": 1}, [1, 2]),
        ({"additionalProperties": {"type": "number"}}, {"a": "x"}),
        ({"not": {"multipleOf": 0.5}}, 1.0),
    ],
)
def test_walker_rejects_a_keyword_it_does_not_know(schema, value):
    with pytest.raises(ValueError, match="does not support"):
        list(config._schema_errors(schema, value))
