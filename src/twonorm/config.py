"""Run configuration: defaults, strict JSON parsing, file loading."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .basis import require_orthonormal
from .geometry import NormSpec
from .serialize import matrix_from_json
from .space import SpaceSpec, build_space

__all__ = ["RunConfig", "DEFAULT_TOLERANCES", "config_from_mapping", "load_config"]

DEFAULT_TOLERANCES = {
    "membership": 1e-10,
    "section": 1e-9,
    "sqrt": 1e-8,
    "equivalence": 1e-8,
    "geometry": 1e-6,
}

_SPACE_KEYS = {"domain_dim", "grid_points", "spacing", "boundary"}
_CONFIG_KEYS = {
    "seed",
    "space",
    "subspace_dim",
    "trials",
    "tolerances",
    "norm",
    "output_dir",
    "frame_file",
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    space: SpaceSpec = field(default_factory=SpaceSpec)
    subspace_dim: int = 2
    trials: int = 100
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    norm: NormSpec = field(default_factory=lambda: NormSpec.schatten(2.0))
    output_dir: str = "twonorm_out"
    frame_file: str | None = None

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be positive")
        if self.subspace_dim > self.space.n:
            raise ValueError(
                f"subspace_dim {self.subspace_dim} exceeds the space dimension {self.space.n}"
            )
        if self.trials < 1:
            raise ValueError("trials must be positive")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        for k, v in self.tolerances.items():
            if not (isinstance(v, (int, float)) and 0 < v < 1):
                raise ValueError(f"tolerance {k!r} must lie in (0, 1)")

    def tolerance(self, key: str) -> float:
        if key not in DEFAULT_TOLERANCES:
            raise KeyError(key)
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))


def _integer(obj, key: str) -> int:
    """The value under key, which must be a JSON integer (not a float or a boolean)."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _number(obj, key: str) -> float:
    """The value under key, which must be a JSON number (an integer or a float, not a boolean)."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _space_from_mapping(obj) -> SpaceSpec:
    if not isinstance(obj, dict):
        raise ValueError("space must be a mapping")
    unknown = set(obj) - _SPACE_KEYS
    if unknown:
        raise ValueError(f"unknown space keys: {sorted(unknown)}")
    kwargs = {}
    for key in ("domain_dim", "grid_points"):
        if key in obj:
            kwargs[key] = _integer(obj, key)
    if "spacing" in obj:
        kwargs["spacing"] = _number(obj, "spacing")
    if "boundary" in obj:
        kwargs["boundary"] = str(obj["boundary"])
    return SpaceSpec(**kwargs)


def _norm_from_mapping(obj) -> NormSpec:
    """The norm "operator_h1", {"kind": "operator_h1"} or {"kind": "schatten_p", "p": p or "inf"}."""
    if obj in ("operator_h1", {"kind": "operator_h1"}):
        return NormSpec.operator()
    if isinstance(obj, str):
        raise ValueError(f"unknown norm {obj!r}")
    if not isinstance(obj, dict) or set(obj) - {"kind", "p"}:
        raise ValueError("norm must be 'operator_h1' or {kind, p}")
    kind = obj.get("kind")
    if kind == "operator_h1":
        raise ValueError("operator_h1 takes no exponent")
    if kind == "schatten_p":
        return NormSpec(math.inf if obj.get("p") == "inf" else _number(obj, "p"))
    raise ValueError(f"unknown norm kind {kind!r}")


def config_from_mapping(obj) -> RunConfig:
    if not isinstance(obj, dict):
        raise ValueError("configuration must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs = {}
    for key in ("seed", "subspace_dim", "trials"):
        if key in obj:
            kwargs[key] = _integer(obj, key)
    if "space" in obj:
        kwargs["space"] = _space_from_mapping(obj["space"])
    if "tolerances" in obj:
        tol = obj["tolerances"]
        if not isinstance(tol, dict):
            raise ValueError("tolerances must be a mapping")
        kwargs["tolerances"] = {str(k): _number(tol, k) for k in tol}
    if "norm" in obj:
        kwargs["norm"] = _norm_from_mapping(obj["norm"])
    if "output_dir" in obj:
        kwargs["output_dir"] = str(obj["output_dir"])
    if "frame_file" in obj and obj["frame_file"] is not None:
        kwargs["frame_file"] = str(obj["frame_file"])
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read configuration {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"configuration {path!r} is not valid JSON: {exc}") from exc
    cfg = config_from_mapping(obj)
    if cfg.frame_file is not None:  # a bad file fails here, before any campaign work
        msg = "frame file columns are not orthonormal for the weak product"
        require_orthonormal(load_frame_matrix(cfg), build_space(cfg.space), 1e-10, msg)
    return cfg


def load_frame_matrix(cfg: RunConfig):
    """Read the optional frame file named by the configuration; campaigns check it on their own pair."""
    if cfg.frame_file is None:
        return None
    path = cfg.frame_file
    if not os.path.isabs(path):
        path = os.path.join(os.getcwd(), path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read frame file {cfg.frame_file!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"frame file {cfg.frame_file!r} is not valid JSON: {exc}") from exc
    M = matrix_from_json(obj, name="frame")
    if M.shape != (cfg.space.n, cfg.subspace_dim):
        raise ValueError(
            f"frame file has shape {M.shape}, expected ({cfg.space.n}, {cfg.subspace_dim})"
        )
    return M
