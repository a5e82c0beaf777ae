"""Experiment configuration: YAML file plus dotted-path overrides."""

from __future__ import annotations

import dataclasses
import re
import sys
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

_SCALARS = {"float": float, "int": int}


def _coerce(value, target_type, where: str):
    if target_type is float:
        if isinstance(value, str) and _FLOAT_NUMERAL.fullmatch(value):
            value = float(value)
        # a bound, not math.isfinite: an int past float range (a YAML
        # numeral of 400 digits) has no float to test
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where}: expected finite float, got {value!r}")
        return float(value)
    # an exact type: YAML gives plain ints and bools, and a bool is an int
    if type(value) is not int:
        raise ConfigError(f"{where}: expected int, got {value!r}")
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


def _parse_yaml(text, where: str):
    try:
        return yaml.safe_load(text)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """The YAML file's mapping with the overrides folded in, built once."""
    raw = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            raw = _parse_yaml(fh, str(path)) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return build_config(apply_overrides(raw, overrides))


def build_config(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key in _SECTIONS:
        values = raw.get(key, {})
        if not isinstance(values, dict):
            raise ConfigError(f"section {key} must be a mapping")
        if key == "diagnostics" and "layer" in values:
            raise ConfigError("diagnostics.layer is not a setting: "
                              "diagnose reports both layers")
        if "seed" in raw:  # the top-level seed, unless the section sets one
            values = {"seed": raw["seed"], **values}
        _fill(getattr(cfg, key), values, f"{key}.")
    _fill(cfg, {k: v for k, v in raw.items() if k not in _SECTIONS})
    return _validate(cfg)


def apply_overrides(raw: dict, overrides: List[str]) -> dict:
    """Fold 'key=value' and 'section.key=value' strings into a copy of a
    config mapping, as if the file had set them; values parse as YAML."""
    raw = dict(raw)
    for item in overrides:
        path, eq, text = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} is not key=value")
        value = _parse_yaml(text, path)
        head, dot, key = path.partition(".")
        if not dot and head not in _SECTIONS:
            raw[head] = value
        elif dot and head in _SECTIONS and "." not in key:
            section = raw.get(head, {})
            if not isinstance(section, dict):
                raise ConfigError(f"section {head} must be a mapping")
            raw[head] = {**section, key: value}
        else:
            raise ConfigError(f"unknown config path {path!r}")
    return raw


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Re-run each section's __post_init__, then check the top-level fields."""
    # numpy takes no negative seed; the top-level one is also each
    # section's default, so it is named before any section is checked
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
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
        if _coerce(seed, int, "ablation_seeds") < 0:
            raise ConfigError(f"ablation_seeds: {seed} is negative")
    if not cfg.ablation_modes:
        raise ConfigError("ablation_modes must name at least one mode")
    # a repeated mode trains its cells twice and a repeated seed reruns a
    # cell bit for bit; either would count one run as two samples
    for name in ("ablation_modes", "ablation_seeds"):
        values = getattr(cfg, name)
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} repeats a value: {values}")
    return cfg
