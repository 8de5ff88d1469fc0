"""Sample-size calculators and empirical spectral-concentration checks.

The recovery guarantees all reduce to how tightly A A'/m concentrates
around the identity for a Gaussian matrix A.  This module exposes the two
analytic sketch-size formulas (low-rank and effective-rank flavors), the
measured spectral deviation they control, and the whitened
regularized-Gram check behind the full-rank guarantee.  The analytic
constants are conservative defaults; the Monte-Carlo helpers expose the
gap between them and what actually suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import effective_rank

__all__ = [
    "ConcentrationReport",
    "sample_size_bound",
    "full_rank_sample_bound",
    "spectral_deviation",
    "ridge_identity_deviation",
    "run_deviation_trials",
    "smallest_passing_m",
    "LinearAlgebraFailure",
    "LOW_RANK_C",
    "FULL_RANK_C",
]

LOW_RANK_C = 0.25
FULL_RANK_C = 1.0 / 32.0


class LinearAlgebraFailure(RuntimeError):
    """An eigendecomposition needed by a concentration check failed."""


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
    return float(np.max(np.abs(scipy.linalg.eigvalsh(dev))))


def ridge_identity_deviation(
    features,
    lambda_over_gamma: float,
    m: int,
    seed: int,
    r_matrix=None,
) -> tuple[float, float]:
    """Extreme eigenvalues of the whitened sketched regularized Gram.

    With K = lam' I + X'X and Kh = lam' I + X'(R R'/m)X (lam' the
    regularization-to-smoothness ratio), returns the smallest and largest
    eigenvalues of K^{-1/2} Kh K^{-1/2}.  Both sit in [1-t, 1+t] with high
    probability once m meets the full-rank sample bound.  ``r_matrix``
    overrides the seeded Gaussian projection, which lets tests inject
    sqrt(m) I and get exactly (1, 1).
    """
    if lambda_over_gamma <= 0.0:
        raise ValueError("lambda_over_gamma must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    x = np.asarray(features, dtype=float)
    d, n = x.shape
    if r_matrix is None:
        r_matrix = np.random.default_rng(seed).standard_normal((d, m))
    else:
        r_matrix = np.asarray(r_matrix, dtype=float)
        if r_matrix.shape != (d, m):
            raise ValueError(f"injected projection must be {d} x {m}")
    xs = (r_matrix.T @ x) / np.sqrt(m)

    gram = x.T @ x
    gram[np.diag_indices_from(gram)] += lambda_over_gamma
    gram_sk = xs.T @ xs
    gram_sk[np.diag_indices_from(gram_sk)] += lambda_over_gamma
    try:
        evals, evecs = scipy.linalg.eigh(gram)
        inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    except scipy.linalg.LinAlgError as exc:
        raise LinearAlgebraFailure(f"whitening decomposition failed: {exc}") from exc
    whitened = inv_sqrt @ gram_sk @ inv_sqrt
    whitened = (whitened + whitened.T) / 2.0
    spect = scipy.linalg.eigvalsh(whitened)
    return float(spect[0]), float(spect[-1])


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
