"""Experiment configuration: YAML file plus dotted-path overrides."""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field, fields
from typing import List

import yaml

from .data import TaskSpec
from .interpolation import ILConfig
from .train import PretrainConfig, TrainConfig


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


def _build_section(dc_cls, values: dict, where: str):
    known = {f.name: f for f in fields(dc_cls)}
    kwargs = {}
    for key, val in values.items():
        if key not in known:
            raise ConfigError(f"unknown key {where}.{key}")
        base = _SCALARS.get(known[key].type)
        kwargs[key] = _coerce(val, base, f"{where}.{key}") if base else val
    try:
        return dc_cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {where}: {exc}") from exc


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
    top_fields = {f.name: f.type for f in fields(ExperimentConfig)}
    global_seed = raw.get("seed", cfg.seed)
    for key, val in raw.items():
        if key not in top_fields:
            raise ConfigError(f"unknown key {key}")
        if key in _SECTIONS:
            if not isinstance(val, dict):
                raise ConfigError(f"section {key} must be a mapping")
            section = _build_section(type(getattr(cfg, key)), val, key)
            if "seed" not in val:
                section.seed = global_seed
            setattr(cfg, key, section)
        else:
            base = _SCALARS.get(top_fields[key])
            setattr(cfg, key, _coerce(val, base, key) if base else val)
    if "seed" in raw:
        for name in _SECTIONS:
            section_raw = raw.get(name) or {}
            if "seed" not in section_raw:
                getattr(cfg, name).seed = global_seed
        cfg.seed = global_seed
    if not 0 < cfg.subsample_rate <= 1:
        raise ConfigError("subsample_rate must be in (0, 1]")
    for mode in cfg.ablation_modes:
        from .train import MODES
        if mode not in MODES:
            raise ConfigError(f"unknown ablation mode {mode!r}")
    return cfg


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
    # re-validate invariants enforced in __post_init__
    for name in _SECTIONS:
        section = getattr(cfg, name)
        try:
            dataclasses.replace(section)
        except ValueError as exc:
            raise ConfigError(f"invalid {name} after overrides: {exc}") from exc
    if not 0 < cfg.subsample_rate <= 1:
        raise ConfigError("subsample_rate must be in (0, 1]")
    from .train import MODES
    for mode in cfg.ablation_modes:
        if mode not in MODES:
            raise ConfigError(f"unknown ablation mode {mode!r}")
    return cfg
