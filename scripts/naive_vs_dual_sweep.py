#!/usr/bin/env python3
"""Sweep the sketch dimension and compare naive back-projection with dual recovery.

Prints one row per sketch size with mean relative errors over the trial
seeds, plus the analytic size at which the dual route is guaranteed
accurate.
"""

import argparse

import numpy as np

import dualsketch as ds
from dualsketch.experiments import solve_reference


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--d", type=int, default=1000)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--loss", default="square")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs="+",
                   default=[25, 50, 100, 200, 400])
    args = p.parse_args()

    loss = ds.parse_loss(args.loss)
    analytic = ds.sample_size_bound(args.rank, 0.5, 0.1)
    print(f"# d={args.d} n={args.n} rank={args.rank} loss={args.loss} "
          f"lambda={args.lam} trials={args.trials}")
    print(f"# analytic m for eps=0.5, delta=0.1: {analytic}")
    print(f"{'m':>6} {'naive_mean':>12} {'dual_mean':>12} {'ratio':>8}")
    for m in args.dims:
        naive_rel, dual_rel = [], []
        for t in range(args.trials):
            data = ds.make_low_rank(args.d, args.n, args.rank, "random",
                                    seed=args.seed + t)
            sk = ds.gaussian_sketch(data, m, args.seed + 1000 + t)
            ref = solve_reference(data.features, data.labels, loss, args.lam).weights
            # one sketched solve: DRP is its recovery, naive back-projects its sketched weights
            drp, trace = ds.recover_iterative(data, loss, args.lam, sk, 1, reference=ref)
            naive = ds.recover_naive(sk.matrix_r, trace.sketched_weights, m)
            naive_rel.append(ds.relative_error(naive, ref))
            dual_rel.append(drp.rel_error)
        nm, dm = np.mean(naive_rel), np.mean(dual_rel)
        print(f"{m:>6} {nm:>12.4f} {dm:>12.4f} {nm / dm:>8.1f}")


if __name__ == "__main__":
    main()
