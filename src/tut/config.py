"""Experiment configuration: line-based ``key = value`` files with
[model]/[train]/[data] sections, named dataset presets, and CLI overrides.
Precedence: dataclass defaults < preset < config file < command line.
Each config is frozen and checks its values when built. The split, not a
key, gives the model's ``input_dim`` and ``num_classes``.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, fields

from .errors import ConfigError
from .losses import check_boundary_loss
from .net import ModelConfig
from .trainer import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    root: str = ""
    split: str = "splits/all.bundle"
    sample_rate: int = 1  # temporal stride applied while reading features
    ignored_classes: str = ""  # comma-separated class names edit and F1 drop

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ConfigError(
                f"sample_rate must be >= 1, got {self.sample_rate}", ("sample_rate",)
            )

    def ignored(self) -> set[str]:
        return {part.strip() for part in self.ignored_classes.split(",") if part.strip()}


SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig}
# config fields the split gives, not a setting: its features' width and class count
SPLIT_FIELDS = ("input_dim", "num_classes")

# Table-8-style per-dataset presets (model geometry + optimizer knobs).
PRESETS: dict[str, dict[str, dict]] = {
    "50salads": {
        "model": dict(
            refinement_stages=3, layers=5, window=51, heads=4,
            hidden_dim=128, hidden_dim_refine=64,
            input_dropout=0.4, ffn_dropout=0.3, attention_dropout=0.2,
        ),
        "train": dict(lr=5e-4, weight_decay=1e-5, boundary_weight=0.02),
        "data": dict(sample_rate=2),  # 30 frames/s source reduced to 15 frames/s
    },
    "gtea": {
        "model": dict(
            refinement_stages=3, layers=4, window=11, heads=4,
            hidden_dim=64, hidden_dim_refine=64,
            input_dropout=0.5, ffn_dropout=0.3, attention_dropout=0.2,
        ),
        "train": dict(lr=5e-4, weight_decay=1e-5, boundary_weight=0.1),
        "data": {},
    },
    "breakfast": {
        "model": dict(
            refinement_stages=3, layers=5, window=25, heads=6,
            hidden_dim=192, hidden_dim_refine=96,
            input_dropout=0.4, ffn_dropout=0.3, attention_dropout=0.2,
        ),
        "train": dict(lr=2e-4, weight_decay=5e-5, boundary_weight=0.005),
        "data": {},
    },
}


def _coerce(value, target_type, source: str):
    """``value`` as ``target_type``; a failure names ``source``, where it came from."""
    if isinstance(value, target_type):
        return value
    try:
        return target_type(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{source}: cannot parse {target_type.__name__} from {value!r}") from None


def _check_reads_back(value, source: str):
    """Refuse a string that ``format_config`` would write as a value that
    ``parse_config_file`` reads differently: one with leading or trailing
    whitespace, a line break, or a ``;`` that would start a comment."""
    if isinstance(value, str) and (
        value != value.strip() or re.search(r"[\r\n]|(?:^|\s);", value)
    ):
        raise ConfigError(
            f"{source}: {value!r} would not read back from a config file "
            "(leading or trailing whitespace, a line break, or ';' after whitespace)"
        )


def parse_config_file(path) -> dict[str, dict[str, str]]:
    """Section -> {key: raw value}. Values are taken literally (no ``%``
    interpolation), and a ``;`` after whitespace starts a comment.

    A file that cannot be read or parsed, or that names a section or key no
    config has, raises ``ConfigError`` naming it.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else " ".join(str(exc).split())
        raise ConfigError(f"{path}: cannot read config file: {reason}") from None
    table = field_table()
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        out[section] = dict(parser.items(section))
        for key in out[section]:
            if table.get(key) != section:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
    return out


def field_table() -> dict[str, str]:
    """Config key (and flag) -> section, in field order: every config field
    but the ``SPLIT_FIELDS``. Keys are unique across sections."""
    table: dict[str, str] = {}
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            if f.name in SPLIT_FIELDS:
                continue
            if f.name in table:
                raise ConfigError(f"duplicate config key {f.name}")
            table[f.name] = section
    return table


def flag_name(key: str) -> str:
    """A config key's command-line flag: ``--data-root`` for ``root``."""
    return "--data-root" if key == "root" else "--" + key.replace("_", "-")


def build_configs(
    preset: str | None = None, config_file: str | None = None, overrides: dict | None = None,
    required: tuple[str, ...] = (),
) -> tuple[ModelConfig, TrainConfig, DataConfig]:
    """The configs of the keys set by the preset, then the config file, then
    the overrides; a later source wins. A key in ``required`` that no
    source sets raises ``ConfigError`` naming it. A value a config refuses,
    or a boundary weight the model's attention cannot take
    (``losses.check_boundary_loss``), raises ``ConfigError`` prefixed with
    where it came from: of the keys the check names, the one set by the
    latest source (the first of those on a tie)."""
    table = field_table()
    types = {f.name: type(f.default) for cls in SECTIONS.values() for f in fields(cls)}
    layers: dict[str, dict] = {name: {} for name in SECTIONS}
    sources: dict[str, tuple[int, str]] = {}  # key -> (0 preset, 1 file, 2 flag; its source)

    def put(key, value, source, rank):
        value = _coerce(value, types[key], source)
        _check_reads_back(value, source)
        layers[table[key]][key] = value
        sources[key] = (rank, source)

    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        for values in PRESETS[preset].values():
            for key, value in values.items():
                put(key, value, f"preset {preset}: {key}", 0)
    if config_file is not None:
        for section, values in parse_config_file(config_file).items():
            for key, value in values.items():
                put(key, value, f"{config_file}: [{section}] {key}", 1)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in table:
            raise ConfigError(f"unknown config key {key!r}")
        put(key, value, flag_name(key), 2)
    for key in required:
        if key not in layers[table[key]]:
            raise ConfigError(f"no {key} given: pass {flag_name(key)} or set it in --config")
    try:
        model, train, data = (cls(**layers[section]) for section, cls in SECTIONS.items())
        if train.boundary_weight > 0:
            check_boundary_loss(model.attention, model.window)
        return model, train, data
    except ConfigError as exc:
        named = [sources[key] for key in exc.keys if key in sources]
        if not named:
            raise
        source = max(named, key=lambda named_source: named_source[0])[1]
        raise ConfigError(f"{source}: {exc}", exc.keys) from None


def format_config(model: ModelConfig, train: TrainConfig, data: DataConfig) -> str:
    """Render the effective configuration's keys back out as a config file."""
    table = field_table()
    lines = []
    for section, cfg in (("model", model), ("train", train), ("data", data)):
        lines.append(f"[{section}]")
        lines += [f"{key} = {getattr(cfg, key)}" for key in table if table[key] == section]
        lines.append("")
    return "\n".join(lines)
