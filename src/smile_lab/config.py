"""Experiment configuration: YAML file plus dotted-path overrides."""

from __future__ import annotations

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

    def __post_init__(self):
        # numpy takes no negative seed; the top-level one is also each
        # section's default, so it is named before any section is built
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.subsample_rate <= 1:
            raise ValueError("subsample_rate must be in (0, 1]")
        for name, kind in (("output_dir", str), ("ablation_modes", list),
                           ("ablation_seeds", list)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name}: expected {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        for mode in self.ablation_modes:
            if mode not in MODES:
                raise ValueError(f"unknown ablation mode {mode!r}")
        for seed in self.ablation_seeds:
            if _coerce(seed, int, "ablation_seeds") < 0:
                raise ValueError(f"ablation_seeds: {seed} is negative")
        if not self.ablation_modes:
            raise ValueError("ablation_modes must name at least one mode")
        # one seed has no spread to report
        if len(self.ablation_seeds) < 2:
            raise ValueError("ablation_seeds must name at least two seeds")
        # a repeated mode trains its cells twice and a repeated seed reruns
        # a cell bit for bit; either would count one run as two samples
        for name in ("ablation_modes", "ablation_seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")


_SECTIONS = {"task": TaskSpec, "pretrain": PretrainConfig,
             "train": TrainConfig, "diagnostics": ILConfig}


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


def _build(cls, values: dict, section: str = ""):
    """cls(**values), its scalar values coerced first. A key cls does not
    declare, or a value its constructor refuses, is a ConfigError."""
    prefix = f"{section}." if section else ""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, val in values.items():
        if key not in types:
            raise ConfigError(f"unknown key {prefix}{key}")
        base = _SCALARS.get(types[key])
        kwargs[key] = _coerce(val, base, prefix + key) if base else val
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section}: {exc}" if section
                          else str(exc)) from exc


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
    """The top level, then each section, each built once by its own
    constructor; a section's seed defaults to the top-level one."""
    cfg = _build(ExperimentConfig,
                 {k: v for k, v in raw.items() if k not in _SECTIONS})
    for key, cls in _SECTIONS.items():
        values = raw.get(key, {})
        if not isinstance(values, dict):
            raise ConfigError(f"section {key} must be a mapping")
        setattr(cfg, key, _build(cls, {"seed": cfg.seed, **values}, key))
    return cfg


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
