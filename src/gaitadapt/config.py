"""Experiment configuration: one nested JSON document covering the encoder
shape, training hyperparameters, and both domain specs.

CLI flags override file values; every run writes back a fully resolved
snapshot so it can be reproduced exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import DomainSpec
from .encoder import EncoderShape
from .files import read_json, write_json
from .pipeline import TrainConfig

CONFIG_VERSION = 1

# the JSON values a scalar field takes, by its annotation; type(v) is int
# turns away a bool, which Python counts as an int
_SCALAR_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
}

class ConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


def default_source_spec() -> DomainSpec:
    return DomainSpec(id_prefix="S", height=24, width=24, body_jitter=(0.0, 0.06))


def default_target_spec() -> DomainSpec:
    """Shifted appearance (dilation, noise, scale/shear) and rhythm."""
    return DomainSpec(
        id_prefix="T",
        height=24,
        width=24,
        period=11.0,
        resample=0.8,
        dilate=1,
        noise=0.03,
        scale=(0.94, 1.05),
        shear=0.08,
        body_jitter=(0.0, 0.12),
    )


def separable_source_spec() -> DomainSpec:
    """Source with no walk-to-walk variation at all: every repeat of a walk
    is the same pixels up to condition. Used for pretraining sanity runs."""
    return dataclasses.replace(
        default_source_spec(), body_jitter=(0.0, 0.0), phase_jitter=0.0)


def default_encoder_shape() -> EncoderShape:
    """Sized for the 24x24 synthetic benchmark: 7 pyramid strips of 16."""
    return EncoderShape(height=24, width=24, bands=8, channels=16,
                        scales=3, embed_dim=112)


@dataclass
class ExperimentConfig:
    """Encoder shape, training recipe and both domain specs. Every field
    defaults to the desk recipe, so a partial document, or a partial
    section, fills the rest from it."""

    encoder: EncoderShape = field(default_factory=default_encoder_shape)
    train: TrainConfig = field(default_factory=TrainConfig)
    source: DomainSpec = field(default_factory=default_source_spec)
    target: DomainSpec = field(default_factory=default_target_spec)

    def to_dict(self) -> dict:
        return {"format_version": CONFIG_VERSION, **dataclasses.asdict(self)}

    def check_batches(self) -> "ExperimentConfig":
        """Raise ConfigError unless the source data can fill a P x K batch."""
        src, train = self.source, self.train
        if train.batch_k > src.sequences_per_identity:
            raise ConfigError(
                f"batch_k {train.batch_k} exceeds the {src.sequences_per_identity}"
                " sequences per identity that the source spec yields")
        if train.batch_p > src.identities:
            raise ConfigError(
                f"batch_p {train.batch_p} exceeds the {src.identities} training"
                " identities of the source spec")
        return self

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        version = doc.get("format_version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config format_version {version!r}")
        sections = {"encoder": EncoderShape, "train": TrainConfig,
                    "source": DomainSpec, "target": DomainSpec}
        unknown = sorted(set(doc) - {"format_version", *sections})
        if unknown:
            raise ConfigError(
                f"unknown config section(s) {unknown}, expected format_version"
                f" or one of {sorted(sections)}")
        desk = cls()
        try:
            for section, kind in sections.items():
                if section in doc:
                    _check_scalars(section, kind, doc[section])
            return cls(**{k: dataclasses.replace(getattr(desk, k), **doc.get(k, {}))
                          for k in sections})
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e


def _check_scalars(section: str, kind: type, values: dict) -> None:
    """Raise ConfigError naming section.field for a key that is not a field
    of the section, or for a scalar field whose value does not match its
    annotation."""
    if not isinstance(values, dict):
        raise ConfigError(f"config section {section} must be an object, got {values!r}")
    fields = dataclasses.fields(kind)
    unknown = sorted(set(values) - {f.name for f in fields})
    if unknown:
        raise ConfigError(
            f"unknown config field(s) {[f'{section}.{k}' for k in unknown]},"
            f" expected one of {sorted(f.name for f in fields)}")
    for f in fields:
        wanted, ok = _SCALAR_KINDS.get(f.type, (None, None))
        if ok and f.name in values and not ok(values[f.name]):
            raise ConfigError(f"{section}.{f.name} must be {wanted}, got {values[f.name]!r}")


def preset_config(name: str) -> ExperimentConfig:
    """The named built-in recipe. 'desk', the minutes-scale CPU recipe, is
    the only one, and it is the defaults."""
    if name == "desk":
        return ExperimentConfig()
    raise ConfigError(f"unknown preset {name!r}, expected 'desk'")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return ExperimentConfig.from_dict(read_json(path, ConfigError))


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    write_json(path, cfg.to_dict())


def apply_overrides(cfg: ExperimentConfig, **train_overrides) -> ExperimentConfig:
    """A copy of cfg whose train fields take any non-None overrides (CLI
    flags); a value the field refuses is a ConfigError, as it would be in a
    config file."""
    updates = {k: v for k, v in train_overrides.items() if v is not None}
    try:
        return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, **updates))
    except ValueError as e:
        raise ConfigError(str(e)) from e
