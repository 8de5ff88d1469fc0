"""Command-line entry point: one subcommand per experiment.

Every subcommand accepts ``--config FILE`` (the key = value format) and/or
inline flags; flags given explicitly override the file, which may be
partial.  Reports go to ``--output`` or stdout as JSON or CSV.

Exit status: 0 when every trial ran (bound violations are data, not
errors), 1 when some trials failed (no convergence or a singular linear
system), 2 for an invalid config (including a bad DUALSKETCH_WORKERS value,
an unwritable ``--output`` or an iterate bound that overflows), 3 for a
dataset/spectrum I/O failure (including non-finite values, generated
features whose squares overflow and an exactly zero reference solution),
4 when every trial failed.
"""

from __future__ import annotations

import argparse
import sys

from .config import DATA_KINDS, FORMATS, LABEL_RULES
from .config import ConfigError, DatasetIOError, validate_config
from .experiments import run_experiment

EXIT_OK = 0
EXIT_SOME_TRIALS_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DATASET_IO = 3
EXIT_ALL_TRIALS_FAILED = 4

_SUBCOMMANDS = [
    ("recover", "one-shot recovery of the high-dimensional solution"),
    ("iterate", "iterative recovery with a single reused sketch"),
    ("naive-vs-drp", "back-projection versus dual recovery, side by side"),
    ("measurement", "how well the sketched solution matches R'w measurements"),
    ("span-error", "prediction error of the naive solution inside the data span"),
    ("concentration", "spectral deviation of Gaussian sketches over many seeds"),
    ("bounds", "print the analytic sketch-size bound"),
    ("full-rank", "recovery on full-rank data with a decaying spectrum"),
]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    p.add_argument("--output", metavar="FILE", help="report destination (default stdout)")
    p.add_argument("--format", choices=FORMATS, help="report format")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--seed", type=int, help="base seed; trial t uses seed + t")
    p.add_argument("--data", choices=DATA_KINDS, help="dataset source")
    p.add_argument("--d", type=int, help="feature dimension")
    p.add_argument("--n", type=int, help="number of examples")
    p.add_argument("--rank", type=int, help="planted (or assumed) rank")
    p.add_argument("--label-rule", choices=LABEL_RULES, help="synthetic labels")
    p.add_argument("--decay", type=float, help="spectrum decay exponent")
    p.add_argument("--top-singular", type=float, help="largest planted singular value")
    p.add_argument("--csv", metavar="FILE", help="dataset CSV (label, then features, per row)")
    p.add_argument("--loss", help="square | logistic | smoothed_hinge:<mu>")
    p.add_argument("--lambda", dest="lam", type=float, help="regularization weight")
    p.add_argument("--tol", type=float, help="solver gradient-norm tolerance")
    p.add_argument("--max-iters", type=int, help="solver iteration cap")
    p.add_argument("--reference-tol", type=float, help="tolerance for the reference solve")
    p.add_argument("--sketch-dim", type=int, help="projection dimension m")
    p.add_argument("--from-bound", action="store_const", const=True,
                   help="derive m from the analytic bound")
    p.add_argument("--identity-sketch", action="store_const", const=True,
                   help="inject R = sqrt(m) I (exact sketch smoke test)")
    p.add_argument("--eps", dest="epsilon", type=float, help="deviation target epsilon")
    p.add_argument("--delta", type=float, help="failure probability delta")
    p.add_argument("--c", type=float, help="bound constant (defaults per context)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsketch",
        description="sketch, solve low-dimensional, recover high-dimensional",
    )
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    parsers = {}
    for name, help_text in _SUBCOMMANDS:
        canonical = name.replace("-", "_")
        p = sub.add_parser(name, aliases=[canonical] if canonical != name else [],
                           help=help_text)
        _add_common(p)
        parsers[name] = p
    parsers["recover"].add_argument(
        "--method", choices=["naive", "drp", "ridge-closed"], help="recovery route"
    )
    parsers["iterate"].add_argument("--iters", type=int, help="number of recovery passes")
    parsers["iterate"].add_argument(
        "--early-stop", action="store_const", const=True,
        help="stop once the sketched increment is negligible",
    )
    parsers["bounds"].add_argument(
        "--full-rank", action="store_const", const=True, dest="full_rank",
        help="use the effective-rank bound",
    )
    parsers["bounds"].add_argument(
        "--spectrum", metavar="FILE", help="singular values, one per line"
    )
    parsers["concentration"].add_argument(
        "--find-min-m", action="store_const", const=True,
        help="also search for the smallest empirically sufficient m",
    )
    return parser


def _merge_config(args: argparse.Namespace):
    """The config file's entries (if any) with the explicit flags laid over them, validated once."""
    text = ""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
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
    except DatasetIOError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET_IO
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
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
        print(text)

    if report.records and report.errored_trials == len(report.records):
        return EXIT_ALL_TRIALS_FAILED
    if report.errored_trials > 0:
        return EXIT_SOME_TRIALS_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
