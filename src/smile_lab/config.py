"""Experiment configuration: YAML file plus dotted-path overrides."""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field, fields
from typing import List

import yaml

from .data import TaskSpec
from .interpolation import ILConfig
from .train import MODES, PretrainConfig, TrainConfig


class ConfigError(ValueError):
    """Invalid field, unknown key, or unparseable config."""


@dataclass
class ExperimentConfig:
    task: TaskSpec = field(default_factory=TaskSpec)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    diagnostics: ILConfig = field(default_factory=ILConfig)
    subsample_rate: float = 0.3
    ablation_modes: List[str] = field(
        default_factory=lambda: ["FT", "D-SMILE", "SMILE"])
    ablation_seeds: List[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    output_dir: str = "out"
    seed: int = 0


_SECTIONS = ("task", "pretrain", "train", "diagnostics")


# YAML 1.1 reads a float only with a dot and a signed exponent, so 1e-3
# and 1.0e6 arrive as strings
_FLOAT_NUMERAL = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")

_SCALARS = {"float": float, "int": int, "bool": bool}


def _coerce(value, target_type, where: str):
    if target_type is float:
        if isinstance(value, str) and _FLOAT_NUMERAL.fullmatch(value):
            return float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected float, got {value!r}")
        return float(value)
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected int, got {value!r}")
        return value
    if target_type is bool and not isinstance(value, bool):
        raise ConfigError(f"{where}: expected bool, got {value!r}")
    return value


def _fill(target, values: dict, prefix: str = "") -> None:
    """Set fields of a config dataclass, coercing scalar values."""
    types = {f.name: f.type for f in fields(target)}
    for key, val in values.items():
        if key not in types:
            raise ConfigError(f"unknown key {prefix}{key}")
        base = _SCALARS.get(types[key])
        setattr(target, key,
                _coerce(val, base, prefix + key) if base else val)


def load_config(path=None) -> ExperimentConfig:
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return build_config(raw)


def build_config(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key in _SECTIONS:
        if key in raw:
            if not isinstance(raw[key], dict):
                raise ConfigError(f"section {key} must be a mapping")
            _fill(getattr(cfg, key), raw[key], f"{key}.")
    _fill(cfg, {k: v for k, v in raw.items() if k not in _SECTIONS})
    if "seed" in raw:
        for name in _SECTIONS:
            if "seed" not in (raw.get(name) or {}):
                getattr(cfg, name).seed = cfg.seed
    return _validate(cfg)


def apply_overrides(cfg: ExperimentConfig,
                    overrides: List[str]) -> ExperimentConfig:
    """Apply 'dotted.path=value' strings; values parsed as YAML scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        path, _, raw_value = item.partition("=")
        value = yaml.safe_load(raw_value)
        parts = path.split(".")
        target = cfg
        for part in parts[:-1]:
            if not hasattr(target, part):
                raise ConfigError(f"unknown config path {path!r}")
            target = getattr(target, part)
        leaf = parts[-1]
        if not dataclasses.is_dataclass(target) or not hasattr(target, leaf):
            raise ConfigError(f"unknown config path {path!r}")
        current = getattr(target, leaf)
        if type(current) in (float, int, bool):
            value = _coerce(value, type(current), path)
        if current is not None and value is not None \
                and not isinstance(value, type(current)) \
                and not dataclasses.is_dataclass(current):
            raise ConfigError(
                f"override {path!r}: expected {type(current).__name__}, "
                f"got {value!r}")
        setattr(target, leaf, value)
    return _validate(cfg)


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Re-run each section's __post_init__, then check the top-level fields."""
    for name in _SECTIONS:
        try:
            dataclasses.replace(getattr(cfg, name))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {name}: {exc}") from exc
    if not 0 < cfg.subsample_rate <= 1:
        raise ConfigError("subsample_rate must be in (0, 1]")
    for name, kind in (("output_dir", str), ("ablation_modes", list),
                       ("ablation_seeds", list)):
        if not isinstance(getattr(cfg, name), kind):
            raise ConfigError(f"{name}: expected {kind.__name__}, "
                              f"got {getattr(cfg, name)!r}")
    for mode in cfg.ablation_modes:
        if mode not in MODES:
            raise ConfigError(f"unknown ablation mode {mode!r}")
    for seed in cfg.ablation_seeds:
        _coerce(seed, int, "ablation_seeds")
    return cfg
