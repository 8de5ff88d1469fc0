#!/usr/bin/env python3
"""Show the geometric error decay of iterative dual recovery on one instance.

The pass errors are the ``trace`` of one ``iterate`` trial, the record that
``dualsketch iterate --trials 1`` prints for the same arguments.  Next to
them goes the per-instance contraction cap eps/(1-eps), for eps the
spectral deviation of U'RR'U/m from I; the script rebuilds the data's U and
the sketch R from the record's seed, as the trial draws them.
"""

import argparse

import numpy as np

from dualsketch import gaussian_matrix, make_low_rank, spectrum
from dualsketch.config import config_from_mapping
from dualsketch.experiments import run_experiment


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--d", type=int, default=500)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--sketch-dim", type=int, default=140)
    p.add_argument("--iters", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--loss", default="square")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    rec = run_experiment(config_from_mapping({
        "experiment": "iterate", "d": args.d, "n": args.n, "rank": args.rank, "lam": args.lam,
        "sketch_dim": args.sketch_dim, "iters": args.iters, "loss": args.loss, "seed": args.seed,
    })).records[0]  # one trial, seeded seed + 0
    if "error" in rec:
        raise SystemExit(f"the trial failed: {rec['error']}")
    basis = spectrum(make_low_rank(args.d, args.n, args.rank, seed=rec["seed"])).top_left_basis()
    a = basis.T @ gaussian_matrix(args.d, args.sketch_dim, rec["seed"])
    eps = float(np.max(np.abs(np.linalg.eigvalsh(a @ a.T / args.sketch_dim - np.eye(len(a))))))
    errors = rec["trace"]
    print(f"# d={args.d} n={args.n} rank={args.rank} m={args.sketch_dim} "
          f"loss={args.loss} lambda={args.lam} seed={rec['seed']}")
    print(f"# contraction cap eps/(1-eps) = {eps / (1 - eps):.4f}")
    print(f"{'pass':>4} {'rel_error':>12} {'ratio':>8}")
    for t, err in enumerate(errors):
        ratio = "" if t == 0 else f"{err / errors[t - 1]:8.4f}"
        print(f"{t:>4} {err:>12.3e} {ratio:>8}")


if __name__ == "__main__":
    main()
