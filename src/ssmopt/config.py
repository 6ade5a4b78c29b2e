"""JSON run-configuration schema and model/problem resolution.

Configs are validated (unknown keys rejected) before any computation; schema
errors carry the JSON path of the offending key. The schema holds every rule
of the run blocks that does not depend on the model: positive and finite
amplitudes, frequencies and tolerances, odd orders, finite numbers. The DOF
and mode bounds, which need the model's size, are checked in code, and so is
the optimize objective (`optimizer.check_objective`, which `OptProblem` runs
before any model is built).

`CONFIG_SCHEMA` is a JSON Schema (Draft 2020-12) plus one keyword, `finite`.
A small walker in this module checks it: it knows only the keywords the
schema uses and raises on any other, and it reports the errors in
jsonschema's order and words. jsonschema is not imported at run time (its
import cost every process about 45 ms and 3.7 MB); the test suite uses it
as the reference that the walker must agree with.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from typing import get_type_hints

import numpy as np

from .errors import ConfigError
from .mechmodel import ParamDerivatives, model_from_json
from .models import FAMILIES, ModelFamily
from .optimizer import GRADIENTS

_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}
_INDEX = {"type": "integer", "minimum": 0}
# the run blocks' numbers; the model blocks keep _NUM, their builders check them.
# `finite` is this schema's own keyword: the comparison keywords let NaN
# through (every comparison with NaN is false), and inf passes every lower bound
_FINITE = {"type": "number", "finite": True}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0, "finite": True}
_ODD_ORDER = {"type": "integer", "minimum": 3, "not": {"multipleOf": 2}}

# JSON Schema's types: a bool is not a number, and 9.0 is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (
        isinstance(x, float) and x.is_integer()
        or isinstance(x, int) and not isinstance(x, bool)
    ),
}


def _schema_errors(schema, x, path=()):
    """(path, message) of each rule of schema that the JSON value x breaks,
    in jsonschema's order and words. Only the keywords the config schema uses
    are known (its enums and consts are strings); any other raises."""
    if schema is True:
        return
    number = _TYPES["number"](x)
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](x):
                yield path, f"{x!r} is not of type {value!r}"
        elif key == "enum":
            if x not in value:
                yield path, f"{x!r} is not one of {value!r}"
        elif key == "const":
            if x != value:
                yield path, f"{value!r} was expected"
        elif key == "properties":
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x:
                        yield from _schema_errors(sub, x[name], (*path, name))
        elif key == "required":
            for name in value if isinstance(x, dict) else ():
                if name not in x:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and value is False:
            extras = sorted(set(x) - set(schema.get("properties", ()))) if isinstance(x, dict) else ()
            if extras:
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    yield from _schema_errors(value, item, (*path, i))
        elif key == "minItems":
            if isinstance(x, list) and len(x) < value:
                yield path, f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "minimum":
            if number and x < value:
                yield path, f"{x!r} is less than the minimum of {value!r}"
        elif key == "exclusiveMinimum":
            if number and x <= value:
                yield path, f"{x!r} is less than or equal to the minimum of {value!r}"
        elif key == "multipleOf" and isinstance(value, int):
            if number and x % value:
                yield path, f"{x!r} is not a multiple of {value}"
        elif key == "finite":
            if value and number and not abs(x) <= sys.float_info.max:
                yield path, f"{x!r} is not a finite number"
        elif key == "not":
            if not any(_schema_errors(value, x)):
                yield path, f"{x!r} should not be valid under {value!r}"
        elif key == "if":
            branch = "else" if any(_schema_errors(value, x)) else "then"
            if branch in schema:
                yield from _schema_errors(schema[branch], x, path)
        elif key == "allOf":
            for sub in value:
                yield from _schema_errors(sub, x, path)
        elif key not in ("then", "else"):
            raise ValueError(f"the config schema walker does not support {key!r}: {value!r}")


def _integers(schema, x):
    """The valid JSON value x with every value that schema types "integer"
    as an int: JSON Schema counts 9.0 as an integer, but the code indexes
    and counts with these values."""
    if schema is True:
        return x
    if schema.get("type") == "integer":
        return int(x)
    if isinstance(x, dict):
        x = {k: _integers(schema.get("properties", {}).get(k, True), v) for k, v in x.items()}
    if isinstance(x, list):
        x = [_integers(schema.get("items", True), v) for v in x]
    if "if" in schema:
        branch = "else" if any(_schema_errors(schema["if"], x)) else "then"
        x = _integers(schema.get(branch, True), x)
    for sub in schema.get("allOf", ()):
        x = _integers(sub, x)
    return x


def _family_schema(family: ModelFamily) -> dict:
    """One property per spec field (int -> positive integer, else number),
    and `params` drawn from the family's parameter names."""
    hints = get_type_hints(family.spec)
    return {
        "properties": {
            "type": True,
            **{name: _POSINT if t is int else _NUM for name, t in hints.items()},
            "params": {"type": "array", "items": {"enum": list(family.params)}},
        },
        "additionalProperties": False,
    }


_MODEL_KINDS = {kind: _family_schema(family) for kind, family in FAMILIES.items()} | {
    "matrix": {
        "properties": {
            "type": True,
            "n": _POSINT,
            "M": {"type": "array"},
            "K": {"type": "array"},
            "alpha_r": _NUM,
            "beta_r": _NUM,
            "T2": {"type": "array"},
            "T3": {"type": "array"},
        },
        "required": ["n", "M", "K"],
        "additionalProperties": False,
    }
}


def _select_by_type(kinds: dict) -> dict:
    """An object schema that applies kinds[type]; selected by if/then rather
    than oneOf, so an error names the key."""
    return {
        "type": "object",
        "properties": {"type": {"enum": list(kinds)}},
        "required": ["type"],
        "allOf": [
            {"if": {"properties": {"type": {"const": kind}}, "required": ["type"]}, "then": schema}
            for kind, schema in kinds.items()
        ],
    }


MODEL_SCHEMA = _select_by_type(_MODEL_KINDS)

_BACKBONE_BLOCK = {
    "type": "object",
    "properties": {
        "dof": _INDEX,
        "x_targets": {"type": "array", "items": _POSITIVE, "minItems": 1},
        "order": {"if": {"type": "string"}, "then": {"const": "auto"}, "else": _ODD_ORDER},
        "max_order": _ODD_ORDER,
        "eps_tol": _POSITIVE,
        "mode": _INDEX,
    },
    "required": ["dof", "x_targets"],
    "additionalProperties": False,
}

_SENS_BLOCK = {
    "type": "object",
    "properties": {
        "dof": _INDEX,
        "x0": _POSITIVE,
        "methods": {
            "type": "array",
            "items": {"enum": list(GRADIENTS)},
            "minItems": 1,
        },
        "order": _ODD_ORDER,
        "mode": _INDEX,
    },
    "required": ["dof", "x0"],
    "additionalProperties": False,
}

_OPT_BLOCK = {
    "type": "object",
    "properties": {
        "objective": {"type": "object"},
        "constraints": {
            "type": "array",
            "items": _select_by_type(
                {
                    "backbone": {
                        "properties": {
                            "type": True,
                            "dof": _INDEX,
                            "x": _POSITIVE,
                            "omega": _POSITIVE,
                        },
                        "required": ["dof", "x", "omega"],
                        "additionalProperties": False,
                    },
                    "eigfreq": {
                        "properties": {"type": True, "mode": _INDEX, "omega": _POSITIVE},
                        "required": ["mode", "omega"],
                        "additionalProperties": False,
                    },
                }
            ),
        },
        "mu0": {"type": "array", "items": _FINITE},
        "bounds": {
            "type": "object",
            "properties": {
                "lower": {"type": "array", "items": _FINITE},
                "upper": {"type": "array", "items": _FINITE},
            },
            "required": ["lower", "upper"],
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "constraint_tol": _POSITIVE,
                "eps_tol": _POSITIVE,
                "max_order": _ODD_ORDER,
                "max_iter": _POSINT,
            },
            "additionalProperties": False,
        },
        "method": {"enum": list(GRADIENTS)},
        "mode": _INDEX,
    },
    "required": ["objective", "constraints", "bounds"],
    "additionalProperties": False,
}

_BENCH_BLOCK = {
    "type": "object",
    "properties": {
        "n_masses": _POSINT,
        "param_counts": {"type": "array", "items": _POSINT, "minItems": 1},
        "orders": {"type": "array", "items": _ODD_ORDER},
        "x0": _POSITIVE,
        "repeats": _POSINT,
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"enum": ["backbone", "sens", "verify", "optimize", "bench"]},
        "model": MODEL_SCHEMA,
        "backbone": _BACKBONE_BLOCK,
        "sens": _SENS_BLOCK,
        "optimize": _OPT_BLOCK,
        "bench": _BENCH_BLOCK,
    },
    "additionalProperties": False,
}


def _field(path) -> str:
    """A JSON path as the field name the code's own checks use:
    optimize.constraints[0].x."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


def validate_config(cfg: dict, command: str | None = None) -> dict:
    errors = sorted(_schema_errors(CONFIG_SCHEMA, cfg), key=lambda e: e[0])
    if errors:
        at, message = errors[0]
        path = "/".join(str(p) for p in at) or "<root>"
        field = _field(at)
        named = "" if field in (path, "") else f" (field {field})"
        raise ConfigError(f"invalid config at '{path}': {message}{named}")
    declared = cfg.get("command")
    if command is not None and declared is not None and declared != command:
        raise ConfigError(
            f"config declares command {declared!r} but {command!r} was invoked"
        )
    if command in ("backbone", "sens", "optimize"):
        for block in ("model", command):
            if block not in cfg:
                raise ConfigError(f"a {command} run needs a {block!r} block")
    return cfg


def load_config(path: str, command: str | None = None, overrides: dict | None = None) -> dict:
    """The validated config in the file at path, each value the schema types
    "integer" an int (9.0 reads as 9).

    overrides ({block: {key: value}}, from command-line options) are written
    into the config's blocks before it is validated, so the schema checks
    them like any other value.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    for block, values in (overrides or {}).items():
        if isinstance(cfg, dict) and isinstance(cfg.get(block), dict):
            cfg[block].update(values)
    return _integers(CONFIG_SCHEMA, validate_config(cfg, command))


def resolve_model(block: dict):
    """The model of a model block, without parameter derivatives."""
    _, mu0, builder = resolve_design(block)
    return builder(mu0, ())[0]


def resolve_design(block: dict):
    """(names, mu0, builder) of a model block.

    names are the declared (or default) design parameters, mu0 their values
    in the block, and builder(mu, derivatives=names) returns (MechModel,
    ParamDerivatives) at the design mu with the derivatives of the names in
    `derivatives`; for a vk_beam each costs two extra assemblies. A matrix
    model has no design parameters.
    """
    if block["type"] == "matrix":
        def matrix_builder(mu, derivatives=()):
            model = model_from_json(block)
            return model, ParamDerivatives.stack(model.n, (), {}, (), ())
        return (), np.zeros(0), matrix_builder
    family = FAMILIES[block["type"]]
    names = tuple(block.get("params", family.params))
    spec = family.spec(**{k: v for k, v in block.items() if k not in ("type", "params")})
    mu0 = np.array([getattr(spec, family.params[p]) for p in names], dtype=float)

    def builder(mu, derivatives=names):
        values = {family.params[p]: float(v) for p, v in zip(names, mu)}
        return family.build(replace(spec, **values), derivatives)

    return names, mu0, builder
