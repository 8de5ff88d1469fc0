"""Command-line entry point: one subcommand per experiment.

Subcommands and flags derive from ``config.EXPERIMENTS`` and the
``ExperimentConfig`` fields, so every config key is a flag.  Each also takes
``--config FILE`` (the key = value format); explicit flags override the
file, which may be partial, and both are coerced and validated as one.
Reports go to ``--output`` or stdout as JSON or CSV.

Exit status: 0 when every trial ran (bound violations are data, not
errors), 1 when some trials did not converge, 2 for an invalid config
(including an unreadable or non-UTF-8 config file, one naming another
experiment, a key that only another subcommand or data source reads, a
bad DUALSKETCH_WORKERS value, an unwritable ``--output`` or a closed
stdout, an iterate or sketch-size bound that overflows (as a tiny
``--eps`` makes it), a sketch too large for numpy to shape, and
``--csv`` without ``--data csv``), 3 for a dataset/spectrum I/O failure (including
non-finite values, generated features whose squares overflow and an
exactly zero reference solution), 4 when every trial failed.
"""

import argparse
import os
import sys
from dataclasses import fields

from .config import EXPERIMENTS, FILE_KEYS, ConfigError, DatasetIOError, ExperimentConfig
from .config import validate_config
from .experiments import run_experiment

EXIT_OK = 0
EXIT_SOME_TRIALS_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DATASET_IO = 3
EXIT_ALL_TRIALS_FAILED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsketch",
        description="sketch, solve low-dimensional, recover high-dimensional",
    )
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for experiment, help_text in EXPERIMENTS.items():
        name = experiment.replace("_", "-")
        p = sub.add_parser(name, aliases=[experiment] if experiment != name else [],
                           help=help_text)
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        for f in fields(ExperimentConfig):
            meta, key = f.metadata, FILE_KEYS[f.name]
            if experiment not in meta["commands"]:
                continue
            flag = meta["flag"] or "--" + key.replace("_", "-")
            if f.type is bool:  # --no-<key> clears a config file's true
                p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                               help=meta["help"])
            else:
                choices = "{" + ",".join(meta["choices"]) + "}" if meta["choices"] else None
                p.add_argument(flag, dest=key, metavar=choices, help=meta["help"])
    return parser


def _merge_config(args: argparse.Namespace):
    """The config file's entries (if any) with the explicit flags laid over them, validated once."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
    flags = {key: value for key, value in vars(args).items() if key != "config" and value is not None}
    flags["experiment"] = args.experiment.replace("-", "_")
    return validate_config(text, flags)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_help()
        return EXIT_BAD_CONFIG
    try:
        cfg = _merge_config(args)
        report = run_experiment(cfg)
    except DatasetIOError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET_IO
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    text = report.to_csv() if cfg.format == "csv" else report.to_json()
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"output error: cannot write {cfg.output}: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    else:
        try:
            print(text)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, say; stdout is then unusable
            # point stdout at /dev/null, or the interpreter's flush at exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"output error: cannot write to stdout: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG

    if report.records and report.errored_trials == len(report.records):
        return EXIT_ALL_TRIALS_FAILED
    if report.errored_trials > 0:
        return EXIT_SOME_TRIALS_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
