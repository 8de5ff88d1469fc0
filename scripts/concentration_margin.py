#!/usr/bin/env python3
"""Measure the gap between the analytic sketch-size bound and what suffices.

For a given rank and accuracy target, reports the analytic bound, the
empirical failure rate at that size, and the smallest size at which the
deviation event still holds in 95% of trials.  Both come from one run of
the ``concentration`` experiment with ``find_min_m`` set.
"""

import argparse

from dualsketch.concentration import PASS_RATE
from dualsketch.config import config_from_mapping
from dualsketch.experiments import run_experiment


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--rank", type=int, default=10)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    doc = run_experiment(config_from_mapping({
        "experiment": "concentration", "rank": args.rank, "epsilon": args.eps,
        "delta": args.delta, "trials": args.trials, "seed": args.seed, "find_min_m": True,
    }))
    analytic = doc.records[0]["m"]  # sketch_dim unset: the low-rank bound at eps, delta
    failures = sum(1 for rec in doc.records if not rec["pass"])
    empirical = doc.aggregates["smallest_passing_m"]
    print(f"rank {args.rank}, eps {args.eps}, delta {args.delta}:")
    print(f"  analytic bound        m = {analytic}")
    print(f"  failures at bound       = {failures}/{args.trials} "
          f"(worst deviation {doc.aggregates['max_deviation']:.3f})")
    print(f"  smallest m at {PASS_RATE:.0%} pass  = {empirical} "
          f"({analytic / empirical:.1f}x smaller than the bound)")


if __name__ == "__main__":
    main()
