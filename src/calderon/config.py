"""Experiment configuration: JSON schema, validation, resolved dataclass."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .mesh import default_boxes

__all__ = ["ExperimentConfig", "CONFIG_SCHEMA", "load_config", "validate_config"]

EXPERIMENT_NAMES = [
    "oracle-crosscheck",
    "duality",
    "bridge-residual",
    "decay-slopes",
    "density",
    "tikhonov-sweep",
    "distinguishability",
]

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
            "oneOf": [
                {"type": "integer", "minimum": 4},
                {"type": "array", "items": {"type": "integer", "minimum": 4}},
            ]
        },
        "levels": {"type": "integer", "minimum": 8},
        "height": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "grading": {"type": ["number", "null"], "minimum": 1},
        "padding": {"type": "number", "minimum": 0},
        "coefficient": {"type": ["string", "object", "null"]},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": ["string", "null"]},
        "params": {"type": "object"},
    },
    "required": ["experiment"],
    "additionalProperties": False,
}


# built once: jsonschema.validate re-checks the schema itself on every call,
# which cost a hundred times the validation of a config
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


@dataclass
class ExperimentConfig:
    """Resolved experiment configuration with defaults filled in.

    Deterministic contract: the same config and seed reproduce the same
    numeric outputs byte for byte.
    """

    experiment: str
    dim: int = 1
    s: float = 0.5
    omega_box: tuple = ((0.0, 1.0),)
    w_box: tuple = ((1.5, 2.1),)
    nodes: int | tuple = 64
    levels: int = 64
    height: float | None = None
    grading: float | None = None
    padding: float = 0.9
    coefficient: object = "identity"
    seed: int = 0
    output: str | None = None
    params: dict = dc_field(default_factory=dict)

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


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a raw dict against the schema and range rules."""
    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "config"
        raise ConfigError(f"field '{path}': {exc.message}") from exc

    dim = int(raw.get("dim", 1))
    omega_default, w_default = default_boxes(dim)
    cfg = ExperimentConfig(
        experiment=raw["experiment"],
        dim=dim,
        s=float(raw.get("s", 0.5)),
        omega_box=tuple(tuple(b) for b in raw.get("omega_box", omega_default)),
        w_box=tuple(tuple(b) for b in raw.get("w_box", w_default)),
        nodes=(
            tuple(raw["nodes"]) if isinstance(raw.get("nodes"), list)
            else int(raw.get("nodes", 64))
        ),
        levels=int(raw.get("levels", 64)),
        height=raw.get("height"),
        grading=raw.get("grading"),
        padding=float(raw.get("padding", 0.9)),
        coefficient=raw.get("coefficient", "identity"),
        seed=int(raw.get("seed", 0)),
        output=raw.get("output"),
        params=dict(raw.get("params", {})),
    )
    if not 0.0 < cfg.s < 1.0:
        raise ConfigError(f"field 's': must lie in (0, 1), got {cfg.s}")
    if len(cfg.omega_box) != dim or len(cfg.w_box) != dim:
        raise ConfigError("field 'omega_box'/'w_box': need one (lo, hi) per axis")
    eps = cfg.params.get("eps")
    if eps is not None and not 0.0 < float(eps) < cfg.s:
        raise ConfigError(f"field 'params.eps': must lie in (0, s), got {eps}")
    alphas = cfg.params.get("alphas")
    if alphas is not None:
        alphas = [float(a) for a in alphas]
        if any(a <= 0 for a in alphas):
            raise ConfigError("field 'params.alphas': entries must be positive")
        if any(b >= a for a, b in zip(alphas, alphas[1:], strict=False)) and len(alphas) > 1:
            raise ConfigError("field 'params.alphas': must be strictly decreasing")
    noise = cfg.params.get("noise")
    if noise is not None and float(noise) < 0:
        raise ConfigError("field 'params.noise': must be >= 0")
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
