"""Run configuration: one declarative key-value file plus flag overrides.

A run is archivable as a single config file.  Flags win over file values.
The config hash written into output headers covers only the semantic
fields (inputs, thresholds, targets) so reruns into a different output
directory still produce identical bytes.

Relative input paths, in the file or in flags, resolve against the
working directory of the run, not against the config file's directory.

A key's kind is its :class:`RunConfig` annotation: ``str | None`` an input
path, ``str`` the output directory, ``bool``, ``int``, or ``float`` (or
``float | None``) a number.  A test holds each pipeline command's
``--key-name`` flags to these kinds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .csvio import read_text_lines
from .errors import ConfigError

# Sectors dropped from the analysis unless an exclusions file overrides
# the list: hospitals (622), whose direct role in an epidemic a cost model
# of communication does not capture.
DEFAULT_EXCLUSIONS = ("622",)


@dataclass
class RunConfig:
    """Everything a pipeline run needs, with the one copy of each default; see the README."""

    occupations: str | None = None
    matrix: str | None = None
    cbp: str | None = None
    density: str | None = None
    national_sizes: str | None = None
    exclusions: str | None = None
    region_groups: str | None = None
    industry_names: str | None = None
    output_dir: str = "out"
    cutoff: float = 62.5  # strict: a composite must exceed it, not merely reach it
    face_to_face_level: int = 4  # "several times a week" on the 1-5 scale
    proximity_level: int = 3  # "shared office" on the 1-5 scale
    contact_share: float = 0.5
    elasticity: float = 0.04
    fixed_eps: float | None = None
    telecom_cost: float | None = None
    open_bin_mean: float = 1500.0
    lenient: bool = False
    employment_density: bool = False  # use employment/km2 instead of population/km2


# Fields that affect results, in declaration (hash) order.  output_dir is
# excluded on purpose: it changes no output byte.
_HASH_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "output_dir")
# Each key's kind: its annotation, a string under postponed evaluation.
_KINDS = {f.name: f.type for f in fields(RunConfig)}


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse ``key = value`` lines, each key once; blank lines and ``#`` comments ignored."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        entries = read_text_lines(path, lambda line, byte: ConfigError(
            f"cannot read config file {path}: line {line} is not UTF-8: byte {byte:#04x}"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line, stripped in entries:
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = (part.strip() for part in stripped.partition("="))
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already given at line {lines[key]}")
        lines[key], values[key] = lineno, raw
    unknown = sorted(set(values) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return values


def resolve_config(
    file_values: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> RunConfig:
    """Combine file values and flag overrides into a validated RunConfig."""
    cfg = RunConfig()
    for key, raw in (file_values or {}).items():
        setattr(cfg, key, _coerce(key, raw))
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _coerce(key: str, raw: str):
    kind = _KINDS[key]
    if kind in ("str | None", "str"):  # an input path or the output directory
        return raw
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected an integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: expected a number, got {raw!r}") from None


def _validate(cfg: RunConfig) -> None:
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be a finite number, got {value!r}")
    if not 0.0 <= cfg.cutoff <= 100.0:
        raise ConfigError(f"cutoff must lie in [0, 100], got {cfg.cutoff!r}")
    for name in ("face_to_face_level", "proximity_level"):
        if getattr(cfg, name) not in (1, 2, 3, 4, 5):
            raise ConfigError(f"{name} must be in 1..5, got {getattr(cfg, name)!r}")
    if not 0.0 < cfg.contact_share <= 1.0:
        raise ConfigError(f"contact_share must lie in (0, 1], got {cfg.contact_share!r}")
    if cfg.elasticity <= 0.0:
        raise ConfigError(f"elasticity must be positive, got {cfg.elasticity!r}")
    if cfg.fixed_eps is not None and cfg.fixed_eps <= 0.0:
        raise ConfigError(f"fixed_eps must be positive, got {cfg.fixed_eps!r}")
    if cfg.telecom_cost is not None and cfg.telecom_cost <= 0.0:
        raise ConfigError(f"telecom_cost must be positive, got {cfg.telecom_cost!r}")
    if cfg.open_bin_mean <= 0.0:
        raise ConfigError(f"open_bin_mean must be positive, got {cfg.open_bin_mean!r}")
    for key, kind in _KINDS.items():
        value = getattr(cfg, key)
        if kind == "str | None" and value is not None and not Path(value).is_file():
            raise ConfigError(f"input file for {key!r} does not exist: {value}")


def require(cfg: RunConfig, *keys: str) -> None:
    """Fail with a usage error when a subcommand's required inputs are unset."""
    missing = [key for key in keys if getattr(cfg, key) is None]
    if missing:
        raise ConfigError(
            "missing required inputs: " + ", ".join(missing)
            + " (set them in the config file or with flags)"
        )


def config_hash(cfg: RunConfig) -> str:
    """Short hash of the semantic config fields, for output provenance."""
    parts = [f"{key}={getattr(cfg, key)!r}" for key in _HASH_KEYS]
    return params_hash("\n".join(parts))


def params_hash(serialized: str) -> str:
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()[:12]
