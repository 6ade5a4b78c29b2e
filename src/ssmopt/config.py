"""JSON run-configuration schema and model/problem resolution.

Configs are validated (unknown keys rejected) before any computation; schema
errors carry the JSON path of the offending key.
"""

from __future__ import annotations

import json

import numpy as np
from jsonschema import Draft202012Validator

from .errors import ConfigError
from .mechmodel import model_from_json
from .models import (
    ChainSpec,
    VkBeamSpec,
    build_chain,
    build_vk_beam,
)

_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}

MODEL_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "chain"},
                "n_masses": _POSINT,
                "mass": _NUM,
                "k": _NUM,
                "k2": _NUM,
                "k3": _NUM,
                "alpha_r": _NUM,
                "beta_r": _NUM,
                "params": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "vk_beam"},
                "n_elements": _POSINT,
                "length": _NUM,
                "thickness": _NUM,
                "width": _NUM,
                "a1": _NUM,
                "a2": _NUM,
                "youngs": _NUM,
                "poisson": _NUM,
                "density": _NUM,
                "alpha_r": _NUM,
                "beta_r": _NUM,
                "params": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "matrix"},
                "n": _POSINT,
                "M": {"type": "array"},
                "K": {"type": "array"},
                "alpha_r": _NUM,
                "beta_r": _NUM,
                "T2": {"type": "array"},
                "T3": {"type": "array"},
            },
            "required": ["type", "n", "M", "K"],
            "additionalProperties": False,
        },
    ]
}

_BACKBONE_BLOCK = {
    "type": "object",
    "properties": {
        "dof": {"type": "integer", "minimum": 0},
        "x_targets": {"type": "array", "items": _NUM, "minItems": 1},
        "n_theta": _POSINT,
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
        "n_theta": _POSINT,
        "mode": {"type": "integer", "minimum": 0},
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
                "n_theta": _POSINT,
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
        "orders": {"type": "array", "items": {"type": "integer", "minimum": 3}},
        "x0": _NUM,
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


def _model_builder(block: dict):
    """(builder, spec, declared parameter names) of a chain or vk_beam block."""
    fields = {k: v for k, v in block.items() if k not in ("type", "params")}
    if block["type"] == "chain":
        params = tuple(block.get("params", ("mass", "k", "k2", "k3")))
        return build_chain, ChainSpec(**fields), params
    params = tuple(block.get("params", ("a1", "a2", "h", "L")))
    return build_vk_beam, VkBeamSpec(**fields), params


def resolve_model(block: dict):
    """The model of a model block, without parameter derivatives."""
    if block["type"] == "matrix":
        return model_from_json(block)
    build, spec, _ = _model_builder(block)
    return build(spec, ())[0]


def resolve_model_params(block: dict):
    """(model, params) of a model block; params is None for a matrix model.

    The derivatives are those of the declared (or default) parameters; for a
    vk_beam each costs two extra assemblies, so only commands that
    differentiate ask for them.
    """
    if block["type"] == "matrix":
        return model_from_json(block), None
    build, spec, params = _model_builder(block)
    return build(spec, params)


def model_design_vector(block: dict) -> tuple[np.ndarray, tuple[str, ...]]:
    """Initial design vector implied by a parametrized model block."""
    kind = block["type"]
    if kind == "chain":
        spec_fields = {"mass", "k", "k2", "k3"}
        params = tuple(block.get("params", ("mass", "k", "k2", "k3")))
        spec = ChainSpec(**{k: v for k, v in block.items() if k not in ("type", "params")})
        vals = []
        for p in params:
            if p not in spec_fields:
                raise ConfigError(f"chain parameter {p!r} has no initial value")
            vals.append(getattr(spec, p))
        return np.array(vals, dtype=float), params
    if kind == "vk_beam":
        field_of = {"a1": "a1", "a2": "a2", "h": "thickness", "L": "length"}
        params = tuple(block.get("params", ("a1", "a2", "h", "L")))
        spec = VkBeamSpec(**{k: v for k, v in block.items() if k not in ("type", "params")})
        return np.array([getattr(spec, field_of[p]) for p in params]), params
    raise ConfigError(f"model type {kind!r} cannot be optimized (no parametrization)")


def make_builder(block: dict):
    """builder(mu) -> (MechModel, ParamDerivatives) for the optimizer."""
    kind = block["type"]
    if kind == "chain":
        _, params = model_design_vector(block)
        base = {k: v for k, v in block.items() if k not in ("type", "params")}

        def build(mu):
            fields = dict(base)
            fields.update({p: float(v) for p, v in zip(params, mu)})
            return build_chain(ChainSpec(**fields), params)

        return build
    if kind == "vk_beam":
        field_of = {"a1": "a1", "a2": "a2", "h": "thickness", "L": "length"}
        _, params = model_design_vector(block)
        base = {k: v for k, v in block.items() if k not in ("type", "params")}

        def build(mu):
            fields = dict(base)
            fields.update({field_of[p]: float(v) for p, v in zip(params, mu)})
            return build_vk_beam(VkBeamSpec(**fields), params)

        return build
    raise ConfigError(f"model type {kind!r} cannot be optimized")
