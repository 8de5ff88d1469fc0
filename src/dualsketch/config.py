"""Experiment configuration: one declared schema, a strict key = value format.

Each ``ExperimentConfig`` field's metadata is its schema: help text, file
key (default the field name), CLI flag (default ``--`` plus the key with
dashes), allowed values, range rule, the subcommands that take the flag
(default all) and the data sources whose runs read it (default all).
``cli`` derives its flags from it, flag and file values share one coercion
path, ``config_from_mapping``, and a config validates itself when it is made.

The text format is one ``key = value`` pair per line, ``#`` comments, and
optional quotes around string values.  Unknown keys, keys given twice,
type mismatches, out-of-range values and a non-default value for a key
that the experiment or its data source does not read are all rejected
with the offending key named.  Every field has a default except
``experiment`` itself, and the fully-populated config (defaults included)
is echoed into every report.
"""

import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields

from .losses import parse_loss

__all__ = ["ExperimentConfig", "ConfigError", "DatasetIOError", "validate_config", "config_from_mapping"]

# experiment -> its subcommand's help
EXPERIMENTS = {
    "recover": "one-shot recovery of the high-dimensional solution",
    "iterate": "iterative recovery with a single reused sketch",
    "naive_vs_drp": "back-projection versus dual recovery, side by side",
    "measurement": "how well the sketched solution matches R'w measurements",
    "span_error": "prediction error of the naive solution inside the data span",
    "concentration": "spectral deviation of Gaussian sketches over many seeds",
    "bounds": "print the analytic sketch-size bound",
    "full_rank": "recovery on full-rank data with a decaying spectrum",
}
DATA_SOURCES = ("low_rank", "decaying", "csv")
_GENERATED = ("low_rank", "decaying")  # a CSV file fixes d and n and carries its labels
# the experiments that draw a sketch, so need its dimension m
SKETCHED = ("recover", "iterate", "naive_vs_drp", "measurement", "span_error", "full_rank")
# the experiments whose records check an error against a bound in epsilon -> that error's key
BOUNDED = {"recover": "rel_error", "iterate": "rel_error", "measurement": "measurement_error",
           "span_error": "span_rel_error", "full_rank": "rel_error"}
# bounds reads d, the loss and lambda for the effective-rank bound, but no data or solver key
_SKETCHED_AND_BOUNDS = (*SKETCHED, "bounds")
# every experiment but bounds, whose one record, the analytic bound, draws nothing
_SKETCHED_AND_CONCENTRATION = (*SKETCHED, "concentration")

# range rule -> the test a value must pass; the rule names it in the error
_RULES = {
    "be at least 1": lambda v: v >= 1,
    "be positive": lambda v: v > 0,
    "be nonnegative": lambda v: v >= 0,
    "lie in (0, 1]": lambda v: 0 < v <= 1,
    "lie in (0, 1)": lambda v: 0 < v < 1,
}


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad type, bad range)."""


class DatasetIOError(RuntimeError):
    """A dataset or spectrum file is missing or unreadable."""


def _field(default=MISSING, help="", *, key=None, flag=None, choices=(), rule=None,
           commands=tuple(EXPERIMENTS), sources=DATA_SOURCES):
    """A config field whose metadata is its schema (see the module docstring)."""
    return field(default=default, metadata={"help": help, "key": key, "flag": flag,
                                            "choices": choices, "rule": rule, "commands": commands,
                                            "sources": sources})


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = _field(choices=tuple(EXPERIMENTS), commands=())  # the subcommand
    # dataset
    data: str = _field("low_rank", "dataset source", choices=DATA_SOURCES, commands=SKETCHED)
    d: int = _field(100, "feature dimension", rule="be at least 1",
                    commands=_SKETCHED_AND_BOUNDS, sources=_GENERATED)
    n: int = _field(50, "number of examples", rule="be at least 1", commands=SKETCHED,
                    sources=_GENERATED)
    # full_rank's data is never low-rank, and its m comes from the effective-rank bound;
    # decaying data has its planted numerical rank, which the naive bound counts
    rank: int = _field(5, "planted (or assumed) rank", rule="be at least 1",
                       commands=tuple(e for e in EXPERIMENTS if e != "full_rank"),
                       sources=("low_rank", "csv"))
    label_rule: str = _field("random", "synthetic labels", choices=("random", "sign_of_plant"),
                             commands=SKETCHED, sources=_GENERATED)
    decay: float = _field(1.0, "spectrum decay exponent", rule="be positive", commands=SKETCHED,
                          sources=("decaying",))
    top_singular: float = _field(1.0, "largest planted singular value", rule="be positive",
                                 commands=SKETCHED, sources=("decaying",))
    csv: str = _field("", "dataset CSV (label, then features, per row)", commands=SKETCHED)
    # problem
    loss: str = _field("square", "square | logistic | smoothed_hinge:<mu>",
                       commands=_SKETCHED_AND_BOUNDS)
    lam: float = _field(1.0, "regularization weight", key="lambda", rule="be positive",
                        commands=_SKETCHED_AND_BOUNDS)
    tol: float = _field(1e-10, "solver gradient-norm tolerance", rule="be positive",
                        commands=SKETCHED)
    max_iters: int = _field(100_000, "solver iteration cap", rule="be at least 1",
                            commands=SKETCHED)
    reference_tol: float = _field(1e-12, "tolerance for the reference solve", rule="be positive",
                                  commands=SKETCHED)
    # sketch
    sketch_dim: int = _field(0, "projection dimension m (0: from the bound)", rule="be nonnegative",
                             commands=_SKETCHED_AND_CONCENTRATION)
    identity_sketch: bool = _field(False, "inject R = sqrt(m) I (exact sketch smoke test)",
                                   commands=SKETCHED)
    # recovery
    method: str = _field("drp", "recovery route: naive back-projection or dual recovery",
                         choices=("naive", "drp"), commands=("recover",))
    iters: int = _field(8, "number of recovery passes", rule="be at least 1", commands=("iterate",))
    early_stop: bool = _field(False, "stop once the sketched increment is negligible",
                              commands=("iterate",))
    # bounds / concentration
    epsilon: float = _field(0.5, "deviation target epsilon", flag="--eps", rule="lie in (0, 1]")
    delta: float = _field(0.1, "failure probability delta", rule="lie in (0, 1)")
    c: float = _field(0.0, "bound constant (0 means the per-experiment default)", rule="be nonnegative")
    spectrum: str = _field("", "singular values for the effective-rank bound", commands=("bounds",))
    find_min_m: bool = _field(False, "also bisect for an m at which 95% of trials pass",
                              commands=("concentration",))
    # harness
    trials: int = _field(1, "number of trials", rule="be at least 1",
                         commands=_SKETCHED_AND_CONCENTRATION)
    seed: int = _field(0, "base seed; trial t uses seed + t", rule="be nonnegative",
                       commands=_SKETCHED_AND_CONCENTRATION)
    output: str = _field("", "report destination (default stdout)")
    format: str = _field("json", "report format", choices=("json", "csv"))

    def __post_init__(self):
        _validate(self)


# field name -> config-file key
FILE_KEYS = {f.name: f.metadata["key"] or f.name for f in fields(ExperimentConfig)}
# file key or field name -> field
_FIELD_OF = {key: f for f in fields(ExperimentConfig) for key in (f.name, FILE_KEYS[f.name])}

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}
# field type -> (text parser, what a bad value was expected to be)
_PARSERS = {
    bool: (lambda raw: _BOOL_WORDS[raw.strip().lower()], "a boolean"),
    int: (lambda raw: int(raw, 0), "an integer"),
    float: (float, "a number"),
}

# a value up to its comment: an optional quoted head keeps any '#' inside it
_VALUE = re.compile(r"""\s*(?:"[^"]*"|'[^']*')?[^#]*""")


def _coerce(key: str, raw: str, target_type):
    if target_type in _PARSERS:
        parse, expected = _PARSERS[target_type]
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"key '{key}': expected {expected}, got {raw!r}") from None
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        text = text[1:-1]
    return text


def _field_of(key: str):
    if key not in _FIELD_OF:
        raise ConfigError(f"unknown key '{key}'")
    return _FIELD_OF[key]


def _validate(cfg: ExperimentConfig) -> None:
    for f in fields(cfg):
        key, value, meta = FILE_KEYS[f.name], getattr(cfg, f.name), f.metadata
        if f.type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
            object.__setattr__(cfg, f.name, value)  # a frozen field, set while it is made
        elif not isinstance(value, f.type) or (f.type is int and isinstance(value, bool)):
            raise ConfigError(f"key '{key}': expected {f.type.__name__}, got {value!r}")
        if meta["choices"] and value not in meta["choices"]:
            raise ConfigError(f"key '{key}': {value!r} is not one of {', '.join(meta['choices'])}")
        if f.type is float and not math.isfinite(value):
            raise ConfigError(f"key '{key}': must be finite, got {value}")
        if meta["rule"] and not _RULES[meta["rule"]](value):
            raise ConfigError(f"key '{key}': must {meta['rule']}, got {value}")
        if meta["commands"] and cfg.experiment not in meta["commands"] and value != f.default:
            raise ConfigError(f"key '{key}': only {', '.join(meta['commands'])} reads it, "
                              f"not {cfg.experiment}")
        if cfg.data not in meta["sources"] and value != f.default:
            raise ConfigError(f"key '{key}': only data = {' | '.join(meta['sources'])} reads it, "
                              f"not {cfg.data}")
    if cfg.epsilon == 1.0 and cfg.experiment in BOUNDED:
        raise ConfigError("key 'epsilon': must be below 1 here, since this bound divides by 1 - epsilon")
    if cfg.rank > min(cfg.d, cfg.n) and cfg.experiment in SKETCHED and cfg.data == "low_rank":
        raise ConfigError(f"key 'rank': must not exceed min(d, n) = {min(cfg.d, cfg.n)}")

    if cfg.sketch_dim > 0 and cfg.identity_sketch:
        raise ConfigError("keys 'sketch_dim' and 'identity_sketch': each sets the sketch "
                          "dimension m; give one")
    if cfg.experiment == "full_rank" and cfg.data == "low_rank":
        raise ConfigError("key 'data': full_rank needs full-rank data (decaying or csv)")
    if (cfg.data == "csv") != bool(cfg.csv):
        raise ConfigError("keys 'data' and 'csv': data = csv needs a csv path, "
                          "and a csv path needs data = csv")
    if cfg.csv and not os.path.exists(cfg.csv):
        raise DatasetIOError(f"dataset file not found: {cfg.csv}")
    if cfg.spectrum and not os.path.exists(cfg.spectrum):
        raise DatasetIOError(f"spectrum file not found: {cfg.spectrum}")
    # the loss selector is validated by the loss module; surface its message
    try:
        parse_loss(cfg.loss)
    except ValueError as exc:
        raise ConfigError(f"key 'loss': {exc}") from None


def config_from_mapping(entries: dict) -> ExperimentConfig:
    """Build a config, which validates itself, from key/value pairs.

    A key is a file key or a field name; a value is text, coerced as a file's
    value is, or already of the field's type (an int where a float is due).
    """
    resolved = {}
    for key, value in entries.items():
        f = _field_of(key)
        if f.name in resolved:
            raise ConfigError(f"duplicate key '{key}'")
        resolved[f.name] = _coerce(key, value, f.type) if isinstance(value, str) else value
    if "experiment" not in resolved:
        raise ConfigError("missing required key 'experiment' (one of: " + ", ".join(EXPERIMENTS) + ")")
    return ExperimentConfig(**resolved)


def validate_config(raw: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse config text, lay ``overrides`` over its entries and validate the result.

    Unknown keys and bad values are fatal; the text may leave out any key
    that ``overrides`` supplies, ``experiment`` included.  An override may
    not change the text's ``experiment``: the rest of the text was written
    for it.  ``lam`` and ``lambda`` are one key.
    """
    entries = {}  # field name -> (key as written, value)
    for lineno, line in enumerate(raw.splitlines(), start=1):
        key, eq, value = line.partition("=")
        if "#" in key:  # the comment starts before any '='
            key, eq = key.split("#", 1)[0], ""
        key, value = key.strip(), _VALUE.match(value).group().strip()
        if not key and not eq:
            continue
        if not (key and eq and value):
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        name = _field_of(key).name
        if name in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[name] = (key, value)
    for key, value in (overrides or {}).items():
        name = _field_of(key).name
        written = _coerce(*entries[name], str) if name == "experiment" and name in entries else value
        if written != value:
            raise ConfigError(f"key 'experiment': the config names {written!r}, not {value!r}")
        entries[name] = (key, value)
    return config_from_mapping(dict(entries.values()))
