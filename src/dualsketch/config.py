"""Experiment configuration: a strict key = value format with defaults.

Configs drive the experiment runner.  The text format is one ``key =
value`` pair per line, ``#`` comments, and optional quotes around string
values.  Unknown keys, type mismatches, and out-of-range values are all
rejected with the offending key named.  Every field has a default except
``experiment`` itself, and the fully-populated config (defaults included)
is echoed into every report.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import get_type_hints

__all__ = ["ExperimentConfig", "ConfigError", "DatasetIOError", "validate_config", "config_from_mapping"]

EXPERIMENTS = (
    "recover",
    "iterate",
    "naive_vs_drp",
    "measurement",
    "span_error",
    "concentration",
    "bounds",
    "full_rank",
)

DATA_KINDS = ("low_rank", "decaying", "csv")
METHODS = ("naive", "drp", "ridge_closed")
FORMATS = ("json", "csv")
LABEL_RULES = ("random", "sign_of_plant")


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad type, bad range)."""


class DatasetIOError(RuntimeError):
    """A dataset or spectrum file is missing or unreadable."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    # dataset
    data: str = "low_rank"
    d: int = 100
    n: int = 50
    rank: int = 5
    label_rule: str = "random"
    decay: float = 1.0
    top_singular: float = 1.0
    csv: str = ""
    # problem
    loss: str = "square"
    lam: float = 1.0
    tol: float = 1e-10
    max_iters: int = 100_000
    reference_tol: float = 1e-12
    # sketch
    sketch_dim: int = 0
    from_bound: bool = False
    identity_sketch: bool = False
    # recovery
    method: str = "drp"
    iters: int = 8
    early_stop: bool = False
    # bounds / concentration
    epsilon: float = 0.5
    delta: float = 0.1
    c: float = 0.0  # 0 means the per-experiment default constant
    full_rank: bool = False
    spectrum: str = ""
    find_min_m: bool = False
    # harness
    trials: int = 1
    seed: int = 0
    output: str = ""
    format: str = "json"


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

# config-file key -> dataclass field (identity unless listed)
_KEY_ALIASES = {"lambda": "lam"}


def _coerce(key: str, raw: str, target_type):
    if target_type is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"key '{key}': expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if target_type is int:
        try:
            return int(raw, 0)
        except ValueError:
            raise ConfigError(f"key '{key}': expected an integer, got {raw!r}") from None
    if target_type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': expected a number, got {raw!r}") from None
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        text = text[1:-1]
    return text


def _check_enum(key: str, value: str, allowed) -> str:
    if value not in allowed:
        raise ConfigError(f"key '{key}': {value!r} is not one of {', '.join(allowed)}")
    return value


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    _check_enum("experiment", cfg.experiment, EXPERIMENTS)
    _check_enum("data", cfg.data, DATA_KINDS)
    _check_enum("method", cfg.method, METHODS)
    _check_enum("format", cfg.format, FORMATS)
    _check_enum("label_rule", cfg.label_rule, LABEL_RULES)
    positive_ints = {"d": cfg.d, "n": cfg.n, "rank": cfg.rank, "trials": cfg.trials,
                     "iters": cfg.iters, "max_iters": cfg.max_iters}
    for key, value in positive_ints.items():
        if value < 1:
            raise ConfigError(f"key '{key}': must be at least 1, got {value}")
    for name, kind in get_type_hints(ExperimentConfig).items():
        if kind is float and not math.isfinite(getattr(cfg, name)):
            key = "lambda" if name == "lam" else name
            raise ConfigError(f"key '{key}': must be finite, got {getattr(cfg, name)}")
    positive_floats = {"decay": cfg.decay, "top_singular": cfg.top_singular,
                       "lambda": cfg.lam, "tol": cfg.tol, "reference_tol": cfg.reference_tol}
    for key, value in positive_floats.items():
        if value <= 0:
            raise ConfigError(f"key '{key}': must be positive, got {value}")
    for key, value in {"sketch_dim": cfg.sketch_dim, "seed": cfg.seed}.items():
        if value < 0:
            raise ConfigError(f"key '{key}': must be nonnegative, got {value}")
    if not 0.0 < cfg.epsilon <= 1.0:
        raise ConfigError(f"key 'epsilon': must lie in (0, 1], got {cfg.epsilon}")
    if cfg.epsilon == 1.0 and cfg.experiment in ("recover", "iterate", "measurement", "span_error",
                                                 "full_rank"):
        raise ConfigError("key 'epsilon': must be below 1 here, since this bound divides by 1 - epsilon")
    if not 0.0 < cfg.delta < 1.0:
        raise ConfigError(f"key 'delta': must lie in (0, 1), got {cfg.delta}")
    if cfg.c < 0.0:
        raise ConfigError(f"key 'c': must be nonnegative, got {cfg.c}")
    if cfg.rank > min(cfg.d, cfg.n) and cfg.data == "low_rank":
        raise ConfigError(f"key 'rank': must not exceed min(d, n) = {min(cfg.d, cfg.n)}")

    needs_sketch = cfg.experiment in ("recover", "iterate", "naive_vs_drp", "measurement",
                                      "span_error", "full_rank")
    derives_m = cfg.from_bound or cfg.identity_sketch or cfg.experiment == "full_rank"
    if needs_sketch and cfg.sketch_dim == 0 and not derives_m:
        raise ConfigError(
            "key 'sketch_dim': required (or set from_bound/identity_sketch) for this experiment"
        )
    if cfg.experiment == "full_rank" and cfg.data == "low_rank":
        raise ConfigError("key 'data': full_rank needs full-rank data (decaying or csv)")
    if cfg.experiment == "recover" and cfg.method == "ridge_closed" and cfg.loss != "square":
        raise ConfigError("key 'method': ridge_closed requires the square loss")
    if cfg.data == "csv":
        if not cfg.csv:
            raise ConfigError("key 'csv': a dataset path is required when data = csv")
        if not os.path.exists(cfg.csv):
            raise DatasetIOError(f"dataset file not found: {cfg.csv}")
    if cfg.experiment == "bounds" and cfg.full_rank:
        if not cfg.spectrum:
            raise ConfigError("key 'spectrum': required for the full-rank bound")
        if not os.path.exists(cfg.spectrum):
            raise DatasetIOError(f"spectrum file not found: {cfg.spectrum}")
    # the loss selector is validated by the loss module; surface its message
    from .losses import parse_loss

    try:
        parse_loss(cfg.loss)
    except ValueError as exc:
        raise ConfigError(f"key 'loss': {exc}") from None
    return cfg


def config_from_mapping(entries: dict) -> ExperimentConfig:
    """Build and validate a config from already-parsed key/value pairs."""
    type_of = get_type_hints(ExperimentConfig)
    resolved = {}
    for key, value in entries.items():
        name = _KEY_ALIASES.get(key, key)
        if name == "method" and isinstance(value, str):
            value = value.replace("-", "_")
        if name not in type_of:
            raise ConfigError(f"unknown key '{key}'")
        expected = type_of[name]
        if isinstance(value, str):
            value = _coerce(key, value, expected)
        elif expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        elif not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
            raise ConfigError(f"key '{key}': expected {expected.__name__}, got {value!r}")
        resolved[name] = value
    if "experiment" not in resolved:
        raise ConfigError("missing required key 'experiment' (one of: " + ", ".join(EXPERIMENTS) + ")")
    return _validate(ExperimentConfig(**resolved))


def validate_config(raw: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse config text, lay ``overrides`` over its entries and validate the result.

    Unknown keys and bad values are fatal; the text may leave out any key
    that ``overrides`` supplies, ``experiment`` included.
    """
    entries: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = value
    return config_from_mapping({**entries, **(overrides or {})})
