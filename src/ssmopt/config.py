"""JSON run-configuration schema and model/problem resolution.

Configs are validated (unknown keys rejected) before any computation; schema
errors carry the JSON path of the offending key.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import get_type_hints

import numpy as np
from jsonschema import Draft202012Validator

from .errors import ConfigError
from .mechmodel import ParamDerivatives, model_from_json
from .models import FAMILIES, ModelFamily
from .optimizer import OBJECTIVE_REFS

_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}


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

# selected by `type` (if/then rather than oneOf), so an error names the key
MODEL_SCHEMA = {
    "type": "object",
    "properties": {"type": {"enum": list(_MODEL_KINDS)}},
    "required": ["type"],
    "allOf": [
        {"if": {"properties": {"type": {"const": kind}}, "required": ["type"]}, "then": schema}
        for kind, schema in _MODEL_KINDS.items()
    ],
}

_BACKBONE_BLOCK = {
    "type": "object",
    "properties": {
        "dof": {"type": "integer", "minimum": 0},
        "x_targets": {"type": "array", "items": _NUM, "minItems": 1},
        "order": {"oneOf": [{"type": "integer", "minimum": 3}, {"const": "auto"}]},
        "max_order": {"type": "integer", "minimum": 3},
        "eps_tol": _NUM,
        "mode": {"type": "integer", "minimum": 0},
    },
    "required": ["dof", "x_targets"],
    "additionalProperties": False,
}

_SENS_BLOCK = {
    "type": "object",
    "properties": {
        "dof": {"type": "integer", "minimum": 0},
        "x0": _NUM,
        "methods": {
            "type": "array",
            "items": {"enum": ["adjoint", "direct"]},
            "minItems": 1,
        },
        "order": {"type": "integer", "minimum": 3},
        "mode": {"type": "integer", "minimum": 0},
    },
    "required": ["dof", "x0"],
    "additionalProperties": False,
}

_OPT_BLOCK = {
    "type": "object",
    "properties": {
        "objective": {
            "type": "object",
            "properties": {
                "type": {"enum": list(OBJECTIVE_REFS)},
                "value": _NUM,
                "name": {"type": "string"},
                "coeffs": {"type": "object", "additionalProperties": _NUM},
                "offset": _NUM,
                "vars": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        "constraints": {
            "type": "array",
            "items": {
                "oneOf": [
                    {
                        "type": "object",
                        "properties": {
                            "type": {"const": "backbone"},
                            "dof": {"type": "integer", "minimum": 0},
                            "x": _NUM,
                            "omega": _NUM,
                        },
                        "required": ["type", "dof", "x", "omega"],
                        "additionalProperties": False,
                    },
                    {
                        "type": "object",
                        "properties": {
                            "type": {"const": "eigfreq"},
                            "mode": {"type": "integer", "minimum": 0},
                            "omega": _NUM,
                        },
                        "required": ["type", "mode", "omega"],
                        "additionalProperties": False,
                    },
                ]
            },
        },
        "mu0": {"type": "array", "items": _NUM},
        "bounds": {
            "type": "object",
            "properties": {
                "lower": {"type": "array", "items": _NUM},
                "upper": {"type": "array", "items": _NUM},
            },
            "required": ["lower", "upper"],
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "constraint_tol": _NUM,
                "step_tol": _NUM,
                "eps_tol": _NUM,
                "max_order": {"type": "integer", "minimum": 3},
                "max_iter": _POSINT,
            },
            "additionalProperties": False,
        },
        "method": {"enum": ["adjoint", "direct"]},
        "mode": {"type": "integer", "minimum": 0},
    },
    "required": ["objective", "constraints", "bounds"],
    "additionalProperties": False,
}

_BENCH_BLOCK = {
    "type": "object",
    "properties": {
        "n_masses": _POSINT,
        "param_counts": {"type": "array", "items": _POSINT, "minItems": 1},
        "orders": {
            "type": "array",
            "items": {"type": "integer", "minimum": 3, "not": {"multipleOf": 2}},
        },
        "x0": {"type": "number", "exclusiveMinimum": 0},
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
        "out": {"type": "string"},
    },
    "additionalProperties": False,
}


def validate_config(cfg: dict, command: str | None = None) -> dict:
    errors = sorted(
        Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg), key=lambda e: list(e.path)
    )
    if errors:
        e = errors[0]
        path = "/".join(str(p) for p in e.path) or "<root>"
        raise ConfigError(f"invalid config at '{path}': {e.message}")
    declared = cfg.get("command")
    if command is not None and declared is not None and declared != command:
        raise ConfigError(
            f"config declares command {declared!r} but {command!r} was invoked"
        )
    return cfg


def load_config(path: str, command: str | None = None) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    return validate_config(cfg, command)


def resolve_model(block: dict):
    """The model of a model block, without parameter derivatives."""
    _, mu0, builder = resolve_design(dict(block, params=[]))
    return builder(mu0)[0]


def resolve_design(block: dict):
    """(names, mu0, builder) of a model block.

    names are the declared (or default) design parameters, mu0 their values
    in the block, and builder(mu) returns (MechModel, ParamDerivatives) at the
    design mu with the derivatives of names; for a vk_beam each name costs two
    extra assemblies. A matrix model has no design parameters.
    """
    if block["type"] == "matrix":
        no_params = ParamDerivatives(names=(), dM=(), dK=(), dT2=(), dT3=())
        return (), np.zeros(0), lambda mu: (model_from_json(block), no_params)
    family = FAMILIES[block["type"]]
    names = tuple(block.get("params", family.params))
    spec = family.spec(**{k: v for k, v in block.items() if k not in ("type", "params")})
    mu0 = np.array([getattr(spec, family.params[p]) for p in names], dtype=float)

    def builder(mu):
        values = {family.params[p]: float(v) for p, v in zip(names, mu)}
        return family.build(replace(spec, **values), names)

    return names, mu0, builder
