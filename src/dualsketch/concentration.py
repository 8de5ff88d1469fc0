"""Sample-size bounds and the spectral deviation they control.

The recovery guarantees all reduce to how tightly A A'/m concentrates
around the identity for a Gaussian matrix A.  This module exposes the two
analytic sketch-size formulas (low-rank and effective-rank flavors), the
measured spectral deviation they control, and a search for the smallest
sketch size that empirically suffices.  The analytic constants are
conservative defaults; the search exposes the gap between them and what
actually suffices.  The seeded trial set itself is the ``concentration``
experiment in ``experiments``.
"""

from __future__ import annotations

import math

import numpy as np

from .data import effective_rank

__all__ = [
    "sample_size_bound",
    "full_rank_sample_bound",
    "spectral_deviation",
    "smallest_passing_m",
    "LOW_RANK_C",
    "FULL_RANK_C",
    "PASS_RATE",
]

LOW_RANK_C = 0.25
FULL_RANK_C = 1.0 / 32.0
PASS_RATE = 0.95  # the share of trials within epsilon that smallest_passing_m asks for


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


def smallest_passing_m(r: int, epsilon: float, trials: int, base_seed: int,
                       m_hint: int | None = None) -> int:
    """Smallest sketch size whose epsilon-deviation event holds in PASS_RATE of trials.

    Trial t of a probe is ``spectral_deviation(r, m, base_seed + t)``.
    Geometric bracketing followed by bisection; each probe reruns the full
    trial set, so this is a measurement tool, not a fast path.  The analytic
    bound is a safe starting hint and typically far above the answer.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")

    def rate(m):
        return sum(spectral_deviation(r, m, base_seed + t) <= epsilon for t in range(trials)) / trials

    hi = m_hint if m_hint is not None else sample_size_bound(r, min(epsilon, 0.5), 0.1)
    while rate(hi) < PASS_RATE:
        hi *= 2
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate(mid) >= PASS_RATE:
            hi = mid
        else:
            lo = mid
    return hi
