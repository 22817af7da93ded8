"""Run configuration: stock defaults, JSON config files, and `--set
section.key=value` overrides (CLI > file > defaults). Each setting takes the
kind of value its field is annotated with, by the one rule in `fields`; any
other value is refused by its key. One global seed fans out to named
sub-streams; the per-stage seeds follow it unless set explicitly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional, get_type_hints

from .augment import AugmentConfig
from .csi_data import SyntheticSpec
from .dsp import FilterSpec, WaveletSpec
from .fields import as_plain, check_fields, checked
from .model import ModelConfig
from .train import TrainConfig

__all__ = [
    "ConfigError",
    "PipelineConfig",
    "RunConfig",
    "load_run_config",
    "run_config_to_dict",
]


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    """The preprocess command's one setting outside the DSP specs."""

    target_np: int = 1500  # packet-count gate/trim threshold

    def __post_init__(self) -> None:
        check_fields(self)
        if self.target_np < 1:
            raise ValueError("target_np must be >= 1")


@dataclass
class RunConfig:
    seed: int = 0
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)
    filter: FilterSpec = field(default_factory=FilterSpec)
    wavelet: WaveletSpec = field(default_factory=WaveletSpec)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        check_fields(self)


_SECTIONS = {name: cls for name, cls in get_type_hints(RunConfig).items() if name != "seed"}


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings like `--set model.attention_placement=none`


def _merge_overrides(raw: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        value = _parse_set_value(value)
        if key == "seed":
            raw["seed"] = value
            continue
        if "." not in key:
            raise ConfigError(f"--set key must be 'seed' or 'section.field', got {key!r}")
        section, fieldname = key.split(".", 1)
        raw.setdefault(section, {})
        if not isinstance(raw[section], dict):
            raise ConfigError(f"config section {section!r} is not an object")
        raw[section][fieldname] = value
    return raw


def _build_section(name: str, cls, provided: dict):
    known = {f.name for f in dataclasses.fields(cls)}
    for key in provided:
        if key not in known:
            raise ConfigError(f"unknown config key: {name}.{key}")
    try:
        return cls(**provided)
    except ValueError as exc:
        raise ConfigError(f"invalid config section {name!r}: {exc}") from exc


def _check_seed(key: str, value) -> int:
    value = checked(key, int, value)
    if value < 0:
        raise ConfigError(f"{key} must be non-negative, got {value}")
    return value


def load_run_config(
    path: Optional[str] = None,
    overrides: Optional[list[str]] = None,
    seed: Optional[int] = None,
) -> RunConfig:
    """Assemble the run config from defaults, an optional JSON file, and
    repeated `--set` overrides; `seed` (the CLI flag) wins over everything."""
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
    raw = _merge_overrides(raw, list(overrides or []))

    for key in raw:
        if key != "seed" and key not in _SECTIONS:
            raise ConfigError(f"unknown config key: {key}")

    global_seed = _check_seed("seed", seed if seed is not None else raw.get("seed", 0))
    sections = {}
    for name, cls in _SECTIONS.items():
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigError(f"config section {name!r} must be an object")
        provided = dict(raw.get(name, {}))
        # Stage seeds follow the global seed unless pinned explicitly.
        if "seed" in {f.name for f in dataclasses.fields(cls)}:
            provided["seed"] = _check_seed(f"{name}.seed", provided.get("seed", global_seed))
        sections[name] = _build_section(name, cls, provided)
    return RunConfig(seed=global_seed, **sections)


def run_config_to_dict(cfg: RunConfig) -> dict:
    return as_plain(cfg)
