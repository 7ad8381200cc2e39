"""Experiment configuration: JSON schema, validation, resolved dataclass."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import jsonschema
import numpy as np

from .coefficients import w_bump
from .errors import ConfigError
from .mesh import DEFAULT_PADDING, GeometrySpec, build_tangential_grid, default_boxes

__all__ = ["ExperimentConfig", "CONFIG_SCHEMA", "PARAMS", "load_config",
           "validate_config"]

_tolerance = {"type": "number", "minimum": 0}
_refinements = {"type": "integer", "minimum": 0}
_nodes = {"type": "integer", "minimum": 4}
_levels = {"type": "integer", "minimum": 8}


def _numbers(**bounds) -> dict:
    # an empty sweep would pass having checked nothing, and the runners index
    # the first s value, height, alpha and amplitude
    return {"type": "array", "items": {"type": "number", **bounds}, "minItems": 1}


# The params each experiment reads, with their JSON types, in the order
# `calderon list` prints them.  A key its experiment does not read is refused.
PARAMS = {
    "oracle-crosscheck": {
        "s_values": _numbers(exclusiveMinimum=0, exclusiveMaximum=1),
        "tolerance": _tolerance,
        "calibration_tolerance": _tolerance,
        # null takes the measurement region's centre and a width of 0.45 of
        # its extent
        "bump_center": {"type": ["array", "null"], "items": {"type": "number"}},
        "bump_width": {"type": ["number", "null"], "exclusiveMinimum": 0},
    },
    "duality": {"refinements": _refinements},
    "bridge-residual": {"tolerance": _tolerance, "refinements": _refinements},
    "decay-slopes": {
        "dims": {"type": "array", "minItems": 1,
                 "items": {"type": "integer", "minimum": 1, "maximum": 3}},
        # null takes the default ladder
        "heights": {**_numbers(exclusiveMinimum=0), "type": ["array", "null"]},
        "nodes": _nodes,
        "tolerance": _tolerance,
    },
    "density": {
        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "nodes": _nodes,
        "levels": _levels,
        "basis_size": {"type": "integer", "minimum": 1},
        "target_fraction": {"type": "number", "exclusiveMinimum": 0},
    },
    "tikhonov-sweep": {
        "alphas": _numbers(exclusiveMinimum=0),
        # null takes the default proxy
        "eps": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "noise": {"type": "number", "minimum": 0},
        "alpha_reconstruct": {"type": "number", "exclusiveMinimum": 0},
        "fine_data": {"type": "boolean"},
    },
    "distinguishability": {"amplitudes": _numbers(), "levels": _levels},
}

EXPERIMENT_NAMES = list(PARAMS)

_box = {
    "type": "array",
    "items": {
        "type": "array",
        "items": {"type": "number"},
        "minItems": 2,
        "maxItems": 2,
    },
    "minItems": 1,
    "maxItems": 3,
}

_number = {"type": "number"}
_vector = {"type": "array", "items": _number}


def _record(**keys) -> dict:
    """An object with exactly these keys, all required."""
    return {"type": "object", "properties": keys, "required": list(keys),
            "additionalProperties": False}


# The grammar coefficients.coefficient_from_spec reads: "identity", null, or
# an object naming its type and that type's key.  Lengths that depend on the
# grid (one entry per axis or per node) are checked there.
_COEFFICIENT = {
    "type": ["string", "object", "null"], "pattern": "^identity$",
    "properties": {
        "type": {"enum": ["identity", "diagonal", "table"]},
        "identity_outside": {"type": "boolean"},
        "entries": {"type": "array", "items": {  # one expression per axis
            "type": "object", "additionalProperties": False, "properties": {
                "const": _number,
                "poly": {"type": "array", "items": _record(coef=_number, powers=_vector)},
                "bumps": {"type": "array", "items": _record(
                    amplitude=_number, center=_vector,
                    width={"type": "number", "exclusiveMinimum": 0})}}}},
        "values": {"type": "array", "items": _vector},  # one nodal array per axis
    },
    "required": ["type"], "additionalProperties": False,
    "allOf": [{"if": {"properties": {"type": {"const": name}}, "required": ["type"]},
               "then": {"required": [key]}}
              for name, key in (("diagonal", "entries"), ("table", "values"))],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "calderon experiment configuration",
    "type": "object",
    "properties": {
        "experiment": {"type": "string"},
        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "s": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "omega_box": _box,
        "w_box": _box,
        "nodes": {
            # the branches exclude each other; anyOf stops at the first match
            # where oneOf also tries, and builds an error for, the other
            "anyOf": [
                {"type": "integer", "minimum": 4},
                {"type": "array", "items": {"type": "integer", "minimum": 4}},
            ]
        },
        "levels": {"type": "integer", "minimum": 8},
        "height": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "grading": {"type": ["number", "null"], "minimum": 1},
        "padding": {"type": "number", "minimum": 0},
        "coefficient": _COEFFICIENT,
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": ["string", "null"]},
        "params": {"type": "object"},
    },
    "required": ["experiment"],
    "additionalProperties": False,
}


# built once: jsonschema.validate re-checks the schema itself on every call,
# which cost a hundred times the validation of a config
_Validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_VALIDATOR = _Validator(CONFIG_SCHEMA)
_PARAM_VALIDATORS = {
    name: _Validator({"type": "object", "properties": props})
    for name, props in PARAMS.items()
}


@dataclass
class ExperimentConfig:
    """Resolved experiment configuration with defaults filled in.

    Deterministic contract: the same config and seed reproduce the same
    numeric outputs byte for byte.  ``omega_box`` and ``w_box`` left at None
    take ``mesh.default_boxes(dim)``.
    """

    experiment: str
    dim: int = 1
    s: float = 0.5
    omega_box: tuple | None = None
    w_box: tuple | None = None
    nodes: int | tuple = 64
    levels: int = 64
    height: float | None = None
    grading: float | None = None
    padding: float = DEFAULT_PADDING
    coefficient: object = "identity"
    seed: int = 0
    output: str | None = None
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        omega, w = default_boxes(self.dim)
        if self.omega_box is None:
            self.omega_box = omega
        if self.w_box is None:
            self.w_box = w

    def echo(self) -> dict:
        """JSON-serializable echo of the resolved configuration."""
        return {
            "experiment": self.experiment,
            "dim": self.dim,
            "s": self.s,
            "omega_box": [list(b) for b in self.omega_box],
            "w_box": [list(b) for b in self.w_box],
            "nodes": list(self.nodes) if isinstance(self.nodes, tuple) else self.nodes,
            "levels": self.levels,
            "height": self.height,
            "grading": self.grading,
            "padding": self.padding,
            "coefficient": self.coefficient,
            "seed": self.seed,
            "params": self.params,
        }


def _grid_from_config(cfg: ExperimentConfig, nodes=None, dim=None):
    dim = dim if dim is not None else cfg.dim
    omega, w = (cfg.omega_box, cfg.w_box) if dim == cfg.dim else default_boxes(dim)
    return build_tangential_grid(GeometrySpec(
        dim=dim, omega_box=omega, w_box=w, padding=cfg.padding,
        nodes=nodes if nodes is not None else cfg.nodes))


def _finite(value) -> bool:
    """No NaN or infinity anywhere in a JSON value; the schema lets them by."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _validate_params(cfg: ExperimentConfig):
    """Check ``cfg.params`` against the experiment's row of PARAMS, then what
    the schema cannot express: finite numbers, eps < s, strictly decreasing
    alphas, one bump-centre coordinate per axis and a bump that is nonzero
    on some measurement node.  An unknown experiment is refused when it
    runs."""
    known = PARAMS.get(cfg.experiment)
    if known is None:
        return
    params = cfg.params
    for key in params:
        if key not in known:
            raise ConfigError(f"field 'params.{key}': {cfg.experiment} reads no such "
                              f"param; it reads {', '.join(known)}")
    exc = jsonschema.exceptions.best_match(
        _PARAM_VALIDATORS[cfg.experiment].iter_errors(params))
    if exc is not None:
        raise ConfigError(f"field 'params.{exc.absolute_path[0]}': {exc.message}") from exc
    for key, value in params.items():
        if not _finite(value):
            raise ConfigError(f"field 'params.{key}': numbers must be finite, "
                              f"got {value!r}")
    eps = params.get("eps")
    if eps is not None and eps >= cfg.s:
        raise ConfigError(f"field 'params.eps': must lie in (0, s), got {eps}")
    alphas = params.get("alphas", [])
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("field 'params.alphas': must be strictly decreasing")
    center = params.get("bump_center")
    if center is not None and len(center) != cfg.dim:
        raise ConfigError(f"field 'params.bump_center': need {cfg.dim} "
                          f"coordinates, got {center!r}")
    width = params.get("bump_width")
    # the datum is this bump on W: zero on every node of W leaves no map to
    # measure, and the relative errors would divide by zero
    if (center is not None or width is not None) and not np.any(
            w_bump(_grid_from_config(cfg), center, width)):
        key = "bump_center" if center is not None else "bump_width"
        raise ConfigError(f"field 'params.{key}': the bump is zero on every "
                          "measurement node")


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a raw dict against the schema and range rules."""
    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "config"
        raise ConfigError(f"field '{path}': {exc.message}") from exc

    # only the keys present, converted; ExperimentConfig holds the defaults
    convert = {
        "dim": int, "s": float, "levels": int, "padding": float, "seed": int,
        "omega_box": lambda v: tuple(map(tuple, v)),
        "w_box": lambda v: tuple(map(tuple, v)),
        "nodes": lambda v: tuple(v) if isinstance(v, list) else int(v),
        "params": dict,
    }
    cfg = ExperimentConfig(**{
        key: convert.get(key, lambda v: v)(value) for key, value in raw.items()
    })
    if not 0.0 < cfg.s < 1.0:
        raise ConfigError(f"field 's': must lie in (0, 1), got {cfg.s}")
    if len(cfg.omega_box) != cfg.dim or len(cfg.w_box) != cfg.dim:
        raise ConfigError("field 'omega_box'/'w_box': need one (lo, hi) per axis")
    if not _finite(cfg.coefficient):
        raise ConfigError("field 'coefficient': numbers must be finite")
    _validate_params(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(raw)
