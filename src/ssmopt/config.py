"""JSON run-configuration schema and model/problem resolution.

Configs are validated (unknown keys rejected) before any computation; schema
errors carry the JSON path of the offending key. The schema holds every rule
of the run blocks that does not depend on the model: positive and finite
amplitudes, frequencies and tolerances, odd orders, finite numbers. The DOF
and mode bounds, which need the model's size, are checked in code, and so is
the optimize objective (`optimizer.check_objective`, which `OptProblem` runs
before any model is built).
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from typing import get_type_hints

import numpy as np
from jsonschema import Draft202012Validator, ValidationError, validators

from .errors import ConfigError
from .mechmodel import ParamDerivatives, model_from_json
from .models import FAMILIES, ModelFamily
from .optimizer import GRADIENTS

_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}
_INDEX = {"type": "integer", "minimum": 0}
# the run blocks' numbers; the model blocks keep _NUM, their builders check them
_FINITE = {"type": "number", "finite": True}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0, "finite": True}
_ODD_ORDER = {"type": "integer", "minimum": 3, "not": {"multipleOf": 2}}


def _finite(validator, finite, instance, schema):
    """The `finite` keyword. jsonschema's comparison keywords let NaN through
    (every comparison with NaN is false), and inf passes every lower bound."""
    number = validator.is_type(instance, "number")
    if finite and number and not abs(instance) <= sys.float_info.max:
        yield ValidationError(f"{instance!r} is not a finite number")


ConfigValidator = validators.extend(Draft202012Validator, {"finite": _finite})


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
    errors = sorted(ConfigValidator(CONFIG_SCHEMA).iter_errors(cfg), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        path = "/".join(str(p) for p in e.path) or "<root>"
        field = _field(e.path)
        named = "" if field in (path, "") else f" (field {field})"
        raise ConfigError(f"invalid config at '{path}': {e.message}{named}")
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
    """The validated config in the file at path.

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
    return validate_config(cfg, command)


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
