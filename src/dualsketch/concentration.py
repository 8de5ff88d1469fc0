"""Sample-size calculators and empirical spectral-concentration checks.

The recovery guarantees all reduce to how tightly A A'/m concentrates
around the identity for a Gaussian matrix A.  This module exposes the two
analytic sketch-size formulas (low-rank and effective-rank flavors) and
the measured spectral deviation they control.  The analytic
constants are conservative defaults; the Monte-Carlo helpers expose the
gap between them and what actually suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import effective_rank

__all__ = [
    "ConcentrationReport",
    "sample_size_bound",
    "full_rank_sample_bound",
    "spectral_deviation",
    "run_deviation_trials",
    "smallest_passing_m",
    "LOW_RANK_C",
    "FULL_RANK_C",
]

LOW_RANK_C = 0.25
FULL_RANK_C = 1.0 / 32.0


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of repeated deviation trials against a threshold."""

    deviation: float  # worst deviation observed
    threshold: float
    passed: bool
    trials: int
    failures: int


def sample_size_bound(r: int, epsilon: float, delta: float, c: float = LOW_RANK_C) -> int:
    """Sketch size sufficient for an epsilon spectral deviation at rank r.

    Returns ceil((r + 1) ln(2 r / delta) / (c epsilon^2)); natural log.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2] for the low-rank bound")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if c <= 0.0:
        raise ValueError("c must be positive")
    return math.ceil((r + 1) * math.log(2.0 * r / delta) / (c * epsilon**2))


def full_rank_sample_bound(
    singular_values,
    lam: float,
    gamma: float,
    epsilon: float,
    delta: float,
    d: int,
    c: float = FULL_RANK_C,
) -> int:
    """Sketch size from the effective-rank formula for full-rank data.

    Returns ceil(rbar sigma_1^2 / (c epsilon^2 (lam/gamma + sigma_1^2))
    * ln(2 d / delta)) with rbar the regularization-weighted rank; 0 for an
    all-zero spectrum.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1] for the full-rank bound")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be at least 1")
    if c <= 0.0:
        raise ValueError("c must be positive")
    s = np.asarray(singular_values, dtype=float)
    rbar = effective_rank(s, lam, gamma)  # validates lam, gamma, s >= 0
    if rbar == 0.0:
        return 0
    top = float(s[0]) ** 2
    ratio = lam / gamma
    return math.ceil(rbar * top / (c * epsilon**2 * (ratio + top)) * math.log(2.0 * d / delta))


def spectral_deviation(r: int, m: int, seed: int) -> float:
    """Spectral norm of A A'/m - I for a seeded r x m standard Gaussian A."""
    if r < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    a = np.random.default_rng(seed).standard_normal((r, m))
    dev = (a @ a.T) / m - np.eye(r)
    return float(np.max(np.abs(np.linalg.eigvalsh(dev))))


def run_deviation_trials(
    r: int, m: int, epsilon: float, trials: int, base_seed: int, delta: float | None = None
) -> tuple[ConcentrationReport, list[dict]]:
    """Repeat ``spectral_deviation`` over seeds base_seed + t and score trials.

    A trial fails when its deviation exceeds epsilon.  When ``delta`` is
    given, the report passes iff the failure rate stays within
    delta + 3 sqrt(delta (1 - delta) / trials); otherwise it requires zero
    failures.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    records = []
    worst = 0.0
    failures = 0
    for t in range(trials):
        seed = base_seed + t
        dev = spectral_deviation(r, m, seed)
        ok = dev <= epsilon
        failures += 0 if ok else 1
        worst = max(worst, dev)
        records.append({"trial": t, "seed": seed, "deviation": dev, "pass": ok})
    if delta is None:
        passed = failures == 0
    else:
        slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
        passed = failures / trials <= delta + slack
    report = ConcentrationReport(
        deviation=worst, threshold=epsilon, passed=passed, trials=trials, failures=failures
    )
    return report, records


def smallest_passing_m(
    r: int,
    epsilon: float,
    trials: int,
    base_seed: int,
    target_rate: float = 0.95,
    m_hint: int | None = None,
) -> int:
    """Smallest sketch size whose epsilon-deviation event holds at target_rate.

    Geometric bracketing followed by bisection; each probe reruns the full
    trial set, so this is a measurement tool, not a fast path.  The analytic
    bound is a safe starting hint and typically far above the answer.
    """

    def rate(m):
        _, recs = run_deviation_trials(r, m, epsilon, trials, base_seed)
        return sum(1 for rec in recs if rec["pass"]) / trials

    hi = m_hint if m_hint is not None else sample_size_bound(r, min(epsilon, 0.5), 0.1)
    while rate(hi) < target_rate:
        hi *= 2
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate(mid) >= target_rate:
            hi = mid
        else:
            lo = mid
    return hi
