#!/usr/bin/env python3
"""Hash the reports of a fixed set of small CLI runs, one line per run.

Each line is the run's name, two hashes and the exit code.  A hash is the
first 16 hex digits of a sha256: the first of ``json.dumps([records,
aggregates])``, the second of ``json.dumps(config)`` (key order included,
wall time left out).  A change to the config echo alone, such as a new or
removed key, moves only the second column.  Run it before and after a
change that should not move any number, and diff the two outputs; run it
under ``DUALSKETCH_WORKERS=1`` and ``2`` to cover the worker pool:

    PYTHONPATH=src python scripts/records_digest.py > before.txt

``--dump DIR`` also writes each run's exit code, records, aggregates and
config to ``DIR/<name>.json``, so two commits whose hashes differ can be
compared value by value; the printed lines are the same with or without it.

A run that ends in ``--format csv`` prints the hash of its CSV report text
in the first column and ``-`` in the second, since a CSV report carries no
config echo.  It checks that the CSV writer sees the same values as JSON:
``json.dumps`` prints a numpy float like a float, the CSV writer does not.

Input files are written to a temporary directory that becomes the working
directory, so the config echo holds the same relative paths on every run.
A run that escapes ``dualsketch.cli.main`` with an exception prints
``traceback`` and its type, and the script then exits 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from dualsketch import Dataset, make_decaying_spectrum, make_low_rank, save_csv
from dualsketch.cli import main as cli_main

LOW = ["--d", "60", "--n", "20", "--rank", "3"]
DECAYING = ["--data", "decaying", "--d", "60", "--n", "20", "--top-singular", "4"]
HELPER = ["--data", "decaying", "--d", "30", "--n", "20", "--top-singular", "4", "--loss",
          "logistic", "--sketch-dim", "10"]

RUNS = {
    "recover-drp": ["recover", *LOW, "--sketch-dim", "20", "--loss", "logistic", "--trials", "3"],
    "recover-naive": ["recover", *LOW, "--sketch-dim", "20", "--method", "naive", "--trials", "2"],
    # the naive lower bound counts the planted numerical rank of the decaying spectrum
    "recover-naive-decaying": ["recover", *DECAYING, "--method", "naive", "--sketch-dim", "20",
                               "--trials", "2"],
    "recover-identity": ["recover", *LOW, "--identity-sketch", "--loss", "logistic"],
    # the exact sketch over two row blocks of R = sqrt(m) I, the second block's product on the
    # helper thread
    "recover-identity-two-blocks": ["recover", "--d", "1100", "--n", "20", "--rank", "3",
                                    "--identity-sketch"],
    # without sketch_dim, m comes from the low-rank or the planted effective-rank bound
    "recover-bound-m": ["recover", *LOW, "--trials", "2"],
    "recover-bound-m-decaying": ["recover", *DECAYING, "--top-singular", "2"],
    "recover-csv": ["recover", "--data", "csv", "--csv", "low.csv", "--sketch-dim", "25",
                    "--loss", "logistic", "--trials", "2"],
    "recover-naive-identity-csv": ["recover", "--data", "csv", "--csv", "low.csv", "--rank", "4",
                                   "--method", "naive", "--identity-sketch"],
    "recover-csv-reference-stall": ["recover", "--data", "csv", "--csv", "stall.csv",
                                    "--sketch-dim", "20", "--loss", "logistic", "--trials", "2"],
    # column norms past 1e102: the Cholesky basis's gate overflows to inf and refuses it
    "recover-csv-huge-scale": ["recover", "--data", "csv", "--csv", "huge.csv", "--sketch-dim", "10",
                               "--loss", "logistic"],
    # low.csv without its header and with every cell of the first row quoted: the same records
    "recover-csv-quoted": ["recover", "--data", "csv", "--csv", "quoted.csv", "--sketch-dim", "25",
                           "--loss", "logistic", "--trials", "2"],
    "recover-no-convergence": ["recover", *LOW, "--sketch-dim", "20", "--loss", "logistic",
                               "--max-iters", "1", "--trials", "2"],
    # the square-loss DRP weights overflow: rel_error reads inf, with no warning
    "recover-tiny-lambda": ["recover", *LOW, "--lambda", "1e-300", "--sketch-dim", "20"],
    "recover-decaying-ill-conditioned": ["recover", *DECAYING, "--decay", "6", "--sketch-dim", "40",
                                         "--loss", "logistic"],
    # spans of exact rank 12, above solve.LOW_RANK_PIVOTS: found once their Gram matrix has no
    # Cholesky factor, so Newton runs in 12 dimensions
    "recover-rank-above-pivot-limit": ["recover", "--d", "60", "--n", "20", "--rank", "12",
                                       "--sketch-dim", "40"],
    # big enough that OpenBLAS splits its products over threads on a multi-core host: its
    # records then depend on the BLAS thread count unless the run pins one thread
    "recover-blas-sized": ["recover", "--d", "400", "--n", "100", "--rank", "5", "--sketch-dim",
                           "60", "--loss", "logistic"],
    # run.cfg spells lam as its file key; one flag completes it and one overrides trials
    "recover-config-file": ["recover", "--config", "run.cfg", "--sketch-dim", "20", "--trials", "2"],
    "iterate": ["iterate", *LOW, "--sketch-dim", "20", "--iters", "4", "--trials", "2"],
    "iterate-logistic-early-stop": ["iterate", *LOW, "--sketch-dim", "20", "--iters", "12",
                                    "--loss", "logistic", "--early-stop"],
    # the exact sketch makes pass 2's increment negligible, so the run stops there
    "iterate-identity-early-stop": ["iterate", *LOW, "--identity-sketch", "--iters", "6",
                                    "--early-stop"],
    "iterate-csv": ["iterate", "--data", "csv", "--csv", "low.csv", "--sketch-dim", "20",
                    "--iters", "3", "--trials", "3"],
    "iterate-decaying-full-rank": ["iterate", *DECAYING, "--sketch-dim", "40", "--iters", "3",
                                   "--loss", "logistic"],
    "iterate-low-rank-reduced": ["iterate", *LOW, "--sketch-dim", "40", "--iters", "3",
                                 "--loss", "logistic"],
    # m > n on a full-rank span: the passes share one CholeskyQR reduction and, for the square
    # loss, one factor of its Hessian
    "iterate-square-reduced": ["iterate", *DECAYING, "--sketch-dim", "40", "--iters", "4"],
    # a curvature that moves with the margins: each Newton step factors its own Hessian
    "iterate-smoothed-hinge": ["iterate", *LOW, "--loss", "smoothed_hinge:0.5", "--sketch-dim",
                               "20", "--iters", "4"],
    "iterate-bound-overflow": ["iterate", *LOW, "--sketch-dim", "20", "--eps", "0.99",
                               "--iters", "200"],
    # pass 1's weights overflow, so no second pass starts: rel_error reads inf, at once
    "iterate-tiny-lambda": ["iterate", *LOW, "--lambda", "1e-300", "--sketch-dim", "20"],
    "iterate-tiny-lambda-early-stop": ["iterate", *LOW, "--lambda", "1e-300", "--sketch-dim", "20",
                                       "--early-stop"],
    "iterate-decaying-tiny-lambda": ["iterate", *DECAYING, "--lambda", "1e-320", "--sketch-dim",
                                     "20"],
    "naive-vs-drp": ["naive-vs-drp", *LOW, "--loss", "logistic", "--trials", "2"],
    # labels are the signs of the planted model's predictions, not coin flips
    "naive-vs-drp-sign-of-plant": ["naive-vs-drp", *LOW, "--label-rule", "sign_of_plant",
                                   "--sketch-dim", "20", "--trials", "2"],
    # d above sketch.SKETCH_BLOCK: the sketched features sum three row blocks of R, the last
    # one projected on the helper thread
    "naive-vs-drp-three-blocks": ["naive-vs-drp", "--d", "2500", "--n", "60", "--rank", "3",
                                  "--sketch-dim", "40", "--trials", "2"],
    # d one row past a block: the helper's product is the last block's single row
    "naive-vs-drp-one-row-tail": ["naive-vs-drp", "--d", "1025", "--n", "30", "--rank", "3",
                                  "--sketch-dim", "20", "--trials", "2"],
    "naive-vs-drp-no-convergence": ["naive-vs-drp", *LOW, "--loss", "logistic", "--max-iters", "1",
                                    "--trials", "2"],
    "measurement": ["measurement", *LOW, "--sketch-dim", "30", "--trials", "2"],
    "measurement-decaying": ["measurement", *DECAYING, "--sketch-dim", "20", "--loss", "logistic",
                             "--trials", "2"],
    # two full blocks: the trial's thread projects the first, the helper the second, and the
    # readout reads the R both came from
    "measurement-two-blocks": ["measurement", "--d", "2048", "--n", "20", "--rank", "3",
                               "--sketch-dim", "30", "--trials", "2"],
    "span-error": ["span-error", *LOW, "--sketch-dim", "30", "--loss", "smoothed_hinge:0.5",
                   "--trials", "2"],
    "span-error-csv": ["span-error", "--data", "csv", "--csv", "low.csv", "--sketch-dim", "25",
                       "--trials", "3"],
    # sigma_i = 4 i^-8 falls below the rank threshold at i = 14: the span is the planted top 13
    "span-error-decaying": ["span-error", *DECAYING, "--decay", "8", "--sketch-dim", "30",
                            "--trials", "2"],
    # the exact sketch, m = d: R is sqrt(m) I, so the naive weights are the sketched solution
    "span-error-identity": ["span-error", *LOW, "--identity-sketch"],
    "concentration": ["concentration", "--rank", "3", "--sketch-dim", "60", "--trials", "4"],
    "concentration-find-min-m": ["concentration", "--rank", "2", "--trials", "5", "--find-min-m"],
    # the pass rate is not monotone in m here, so a search bracketed from the run's m = 2 would
    # answer 66; the search always starts at its own analytic m and answers 54
    "concentration-find-min-m-sketch-dim": ["concentration", "--rank", "2", "--eps", "0.5",
                                            "--trials", "20", "--seed", "10", "--sketch-dim", "2",
                                            "--find-min-m"],
    # the search starts at the analytic m of min(eps, 1/2), whatever --sketch-dim says: too large
    # for numpy to draw at eps 1e-9, and an overflowing bound once epsilon**2 underflows to 0
    "concentration-search-too-large": ["concentration", "--rank", "2", "--eps", "1e-9",
                                       "--sketch-dim", "5", "--trials", "1", "--find-min-m"],
    "concentration-search-overflows": ["concentration", "--rank", "2", "--eps", "1e-300",
                                       "--sketch-dim", "5", "--trials", "1", "--find-min-m"],
    "bounds": ["bounds", "--rank", "5", "--eps", "0.3"],
    "bounds-full-rank": ["bounds", "--spectrum", "sv.txt", "--d", "100", "--loss", "logistic"],
    # epsilon**2 underflows to 0, so the bound overflows: a config error
    "bounds-eps-underflow": ["bounds", "--rank", "5", "--eps", "1e-300"],
    "bounds-spectrum-empty": ["bounds", "--spectrum", "empty.txt", "--d", "10"],
    "full-rank-decaying": ["full-rank", *DECAYING, "--label-rule", "sign_of_plant",
                           "--loss", "logistic", "--trials", "2"],
    "full-rank-identity": ["full-rank", *DECAYING, "--identity-sketch"],
    "full-rank-csv": ["full-rank", "--data", "csv", "--csv", "decaying.csv", "--loss", "logistic"],
    "full-rank-k-zero": ["full-rank", *DECAYING, "--top-singular", "1", "--lambda", "4"],
    # the map-back's division by lambda overflows as well as the error's norm
    "full-rank-tiny-lambda": ["full-rank", *DECAYING, "--lambda", "1e-320", "--sketch-dim", "10"],
    "full-rank-overflowing-data": ["full-rank", *DECAYING, "--top-singular", "1e300",
                                   "--sketch-dim", "6"],
    # R (30 x 10) lands before the data is ready, so the helper thread solves the reference
    # while the trial solves its sketch
    "full-rank-helper": ["full-rank", *HELPER, "--trials", "2"],
    # the sketch fails and the reference does not: each record carries pass 1's error
    "full-rank-helper-no-convergence": ["full-rank", *HELPER, "--max-iters", "1", "--trials", "2"],
}
# CSV twins: bools, the flattened bound, empty trace lists and quoted error texts
for _name in ("full-rank-decaying", "recover-naive", "recover-csv-reference-stall"):
    RUNS[f"{_name}-csv"] = [*RUNS[_name], "--format", "csv"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest(argv: list[str]) -> tuple[str, str, str, dict]:
    """Exit code, records-and-aggregates hash, config hash and report parts of one CLI run."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    except Exception as exc:  # a traceback breaks the exit-code contract
        return f"traceback {type(exc).__name__}", "-", "-", {}
    text = out.getvalue()
    if not text:
        return str(code), "-", "-", {}
    if argv[-2:] == ["--format", "csv"]:
        return str(code), _sha(text), "-", {"csv": text}
    doc = json.loads(text)
    parts = {key: doc[key] for key in ("records", "aggregates", "config")}
    results_sha = _sha(json.dumps([parts["records"], parts["aggregates"]]))
    return str(code), results_sha, _sha(json.dumps(parts["config"])), parts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="DIR", help="also write each run's report parts here")
    args = parser.parse_args()
    dump = args.dump and os.path.abspath(args.dump)
    if dump:
        os.makedirs(dump, exist_ok=True)
    tracebacks = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            low = make_low_rank(60, 30, 4, "random", seed=11)
            save_csv(low, "low.csv")
            # the logistic reference of features this large stalls above its tolerance
            save_csv(Dataset(low.features * 1e5, low.labels), "stall.csv")
            rng = np.random.default_rng(0)
            save_csv(Dataset(rng.standard_normal((30, 4)) * 1e110, rng.choice([-1.0, 1.0], 4)),
                     "huge.csv")
            save_csv(make_decaying_spectrum(60, 30, 1.0, seed=5, top_singular_value=5.0),
                     "decaying.csv")
            with open("low.csv", encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            rows[0] = ",".join(f'"{cell}"' for cell in rows[0].split(","))
            with open("quoted.csv", "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
            np.savetxt("sv.txt", np.arange(1, 101, dtype=float) ** -1.0)
            open("empty.txt", "w").close()
            with open("run.cfg", "w", encoding="utf-8") as fh:
                fh.write("experiment = recover\nd = 60\nn = 20\nrank = 3  # planted\n"
                         "loss = logistic\nlambda = 0.5\ntrials = 5\n")
            for name, argv in RUNS.items():
                code, results_sha, config_sha, parts = digest(argv)
                tracebacks += code.startswith("traceback")
                print(f"{name:32s} {results_sha:16s} {config_sha:16s} exit {code}")
                if dump:
                    with open(os.path.join(dump, f"{name}.json"), "w", encoding="utf-8") as fh:
                        json.dump({"exit": code, **parts}, fh, indent=1)
        finally:
            os.chdir(cwd)
    return 1 if tracebacks else 0


if __name__ == "__main__":
    sys.exit(main())
