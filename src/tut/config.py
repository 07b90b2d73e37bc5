"""Experiment configuration: line-based ``key = value`` files with
[model]/[train]/[data] sections, named dataset presets, and CLI overrides.
Precedence: dataclass defaults < preset < config file < command line.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .errors import ConfigError
from .net import ModelConfig
from .trainer import TrainConfig


@dataclass
class DataConfig:
    root: str = ""
    split: str = "splits/all.bundle"
    sample_rate: int = 1  # temporal stride applied while reading features
    fps: float = 15.0
    ignored_classes: str = ""  # comma-separated class names dropped by metrics

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be >= 1, got {self.sample_rate}")

    def ignored(self) -> set[str]:
        return {part.strip() for part in self.ignored_classes.split(",") if part.strip()}


SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig}

# Table-8-style per-dataset presets (model geometry + optimizer knobs).
PRESETS: dict[str, dict[str, dict]] = {
    "50salads": {
        "model": dict(
            refinement_stages=3, layers=5, window=51, heads=4,
            hidden_dim=128, ffn_dim=128, hidden_dim_refine=64, ffn_dim_refine=64,
            input_dropout=0.4, ffn_dropout=0.3, attention_dropout=0.2,
        ),
        "train": dict(lr=5e-4, weight_decay=1e-5, boundary_weight=0.02),
        "data": dict(sample_rate=2),  # 30 fps source reduced to 15 fps
    },
    "gtea": {
        "model": dict(
            refinement_stages=3, layers=4, window=11, heads=4,
            hidden_dim=64, ffn_dim=64, hidden_dim_refine=64, ffn_dim_refine=64,
            input_dropout=0.5, ffn_dropout=0.3, attention_dropout=0.2,
        ),
        "train": dict(lr=5e-4, weight_decay=1e-5, boundary_weight=0.1),
        "data": {},
    },
    "breakfast": {
        "model": dict(
            refinement_stages=3, layers=5, window=25, heads=6,
            hidden_dim=192, ffn_dim=192, hidden_dim_refine=96, ffn_dim_refine=96,
            input_dropout=0.4, ffn_dropout=0.3, attention_dropout=0.2,
        ),
        "train": dict(lr=2e-4, weight_decay=5e-5, boundary_weight=0.005),
        "data": {},
    },
}


def _coerce(value: str, target_type):
    if target_type is bool:
        lowered = str(value).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {value!r}")
    try:
        return target_type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {target_type.__name__} from {value!r}") from exc


def parse_config_file(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        out[section] = dict(parser.items(section))
    return out


def field_table() -> dict[str, str]:
    """flag/key name -> section; keys are unique across sections."""
    table: dict[str, str] = {}
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            if f.name in table:
                raise ConfigError(f"duplicate config key {f.name}")
            table[f.name] = section
    return table


def build_configs(
    preset: str | None = None,
    config_file: str | None = None,
    overrides: dict[str, object] | None = None,
) -> tuple[ModelConfig, TrainConfig, DataConfig]:
    layers: dict[str, dict] = {name: {} for name in SECTIONS}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        for section, values in PRESETS[preset].items():
            layers[section].update(values)
    if config_file is not None:
        for section, values in parse_config_file(config_file).items():
            layers[section].update(values)
    table = field_table()
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in table:
            raise ConfigError(f"unknown config key {key!r}")
        layers[table[key]][key] = value
    built = {}
    for section, cls in SECTIONS.items():
        kwargs = {}
        types = {f.name: f for f in fields(cls)}
        for key, value in layers[section].items():
            if key not in types:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            target = type(types[key].default)
            kwargs[key] = value if isinstance(value, target) else _coerce(value, target)
        built[section] = cls(**kwargs)
    return built["model"], built["train"], built["data"]


def format_config(model: ModelConfig, train: TrainConfig, data: DataConfig) -> str:
    """Render the effective configuration back out as a config file."""
    lines = []
    for section, cfg in (("model", model), ("train", train), ("data", data)):
        lines.append(f"[{section}]")
        for f in fields(cfg):
            lines.append(f"{f.name} = {getattr(cfg, f.name)}")
        lines.append("")
    return "\n".join(lines)
