"""Analytic sketch-size bounds and empirical spectral concentration."""

import math

import mpmath
import numpy as np
import pytest

from dualsketch import concentration
from dualsketch.concentration import (
    FULL_RANK_C,
    PASS_RATE,
    full_rank_sample_bound,
    sample_size_bound,
    smallest_passing_m,
    spectral_deviation,
)
from dualsketch.config import config_from_mapping
from dualsketch.experiments import run_experiment


class TestSampleSizeBound:
    def test_reference_value(self):
        # (5+1) ln(100) / (0.25 * 0.25) = 442.06... -> 443
        assert sample_size_bound(5, 0.5, 0.1, 0.25) == 443

    def test_forced_unit_log(self):
        # delta = 2/e makes ln(2 r / delta) = 1 at r = 1
        assert sample_size_bound(1, 0.5, 2.0 / math.e, 0.25) == 32

    def test_matches_extended_precision(self):
        mpmath.mp.dps = 50
        cases = [(5, "0.5", "0.1", "0.25"), (50, "0.5", "0.1", "0.25"),
                 (7, "0.3", "0.05", "0.25"), (100, "0.25", "0.01", "0.25")]
        for r, eps, delta, c in cases:
            got = sample_size_bound(r, float(eps), float(delta), float(c))
            exact = mpmath.ceil(
                (r + 1) * mpmath.log(2 * r / mpmath.mpf(delta))
                / (mpmath.mpf(c) * mpmath.mpf(eps) ** 2)
            )
            assert abs(got - int(exact)) < 1

    def test_monotone_in_epsilon_and_rank(self):
        eps_grid = [0.1, 0.2, 0.3, 0.4, 0.5]
        values = [sample_size_bound(5, e, 0.1) for e in eps_grid]
        assert all(a >= b for a, b in zip(values, values[1:]))
        rank_values = [sample_size_bound(r, 0.5, 0.1) for r in range(1, 30)]
        assert all(a <= b for a, b in zip(rank_values, rank_values[1:]))

    @pytest.mark.parametrize("args", [
        (0, 0.5, 0.1, 0.25), (5, 0.6, 0.1, 0.25), (5, 0.0, 0.1, 0.25),
        (5, 0.5, 0.0, 0.25), (5, 0.5, 1.0, 0.25), (5, 0.5, 0.1, 0.0),
    ])
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            sample_size_bound(*args)


class TestFullRankBound:
    def test_zero_spectrum(self):
        assert full_rank_sample_bound(np.zeros(5), 1.0, 1.0, 0.5, 0.1, 5) == 0

    def test_forced_unit_evaluation(self):
        # sigma = (1), lam/gamma = 1, c eps^2 = 1, 2 d / delta = e
        m = full_rank_sample_bound(np.array([1.0]), 1.0, 1.0, 0.5, 2.0 / math.e, 1, c=4.0)
        assert m == 1  # ceil(0.5 * 0.5 * 1)

    def test_decay_spectrum_beats_naive_rank_bound(self):
        d = 100
        sv = np.arange(1, d + 1, dtype=float) ** -1.0
        full = full_rank_sample_bound(sv, 1.0, 1.0, 0.5, 0.1, d)
        naive = sample_size_bound(d, 0.5, 0.1)
        assert full * 10 <= naive

    def test_matches_extended_precision(self):
        mpmath.mp.dps = 50
        sv = np.arange(1, 41, dtype=float) ** -1.0
        got = full_rank_sample_bound(sv, 1.0, 0.25, 0.5, 0.1, 40)
        rbar = sum(mpmath.mpf(float(s)) ** 2 / (4 + mpmath.mpf(float(s)) ** 2) for s in sv)
        exact = mpmath.ceil(
            rbar * 1 / (mpmath.mpf(FULL_RANK_C) * mpmath.mpf("0.25") * (4 + 1))
            * mpmath.log(80 / mpmath.mpf("0.1"))
        )
        assert abs(got - int(exact)) < 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            full_rank_sample_bound(np.ones(3), 0.0, 1.0, 0.5, 0.1, 3)
        with pytest.raises(ValueError):
            full_rank_sample_bound(np.ones(3), 1.0, 1.0, 1.5, 0.1, 3)


class TestSpectralDeviation:
    def test_law_of_large_numbers(self):
        assert spectral_deviation(2, 200_000, seed=1) <= 0.02

    def test_scalar_case_is_chi_square_mean(self):
        r, m, seed = 1, 64, 5
        a = np.random.default_rng(seed).standard_normal((r, m))
        expected = abs((a @ a.T).item() / m - 1.0)
        assert spectral_deviation(r, m, seed) == pytest.approx(expected, abs=1e-14)

    def test_row_permutation_invariance(self):
        r, m, seed = 6, 40, 11
        base = spectral_deviation(r, m, seed)
        a = np.random.default_rng(seed).standard_normal((r, m))
        perm = np.random.default_rng(0).permutation(r)
        dev = a[perm] @ a[perm].T / m - np.eye(r)
        permuted = float(np.max(np.abs(np.linalg.eigvalsh(dev))))
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_deterministic(self):
        assert spectral_deviation(4, 30, 9) == spectral_deviation(4, 30, 9)

    def test_bound_holds_at_analytic_m(self):
        # the analytic sketch size keeps the deviation under eps essentially always
        m = sample_size_bound(50, 0.5, 0.1)
        hits = sum(1 for s in range(20) if spectral_deviation(50, m, 300 + s) <= 0.5)
        assert hits >= 18


def _concentration(**fields):
    """The ``concentration`` experiment's report for these config fields."""
    return run_experiment(config_from_mapping({"experiment": "concentration", **fields}))


class TestTrialRunner:
    def test_counts_and_report_consistency(self):
        doc = _concentration(rank=3, sketch_dim=20, epsilon=0.5, trials=25, seed=50)
        records = doc.records
        assert doc.aggregates["trials"] == 25 and len(records) == 25
        assert [r["deviation"] for r in records] == [spectral_deviation(3, 20, s)
                                                     for s in range(50, 75)]
        assert all(r["pass"] == (r["deviation"] <= 0.5) for r in records)
        assert doc.aggregates["success_fraction"] == sum(r["pass"] for r in records) / 25
        assert doc.aggregates["max_deviation"] == max(r["deviation"] for r in records)
        seeds = [r["seed"] for r in records]
        assert seeds == list(range(50, 75))

    def test_failure_rate_within_declared_confidence(self):
        # invariant check: at the analytic m the empirical failure rate stays
        # within delta plus three binomial standard errors
        r, eps, delta, trials = 5, 0.5, 0.1, 100
        records = _concentration(rank=r, epsilon=eps, delta=delta, trials=trials, seed=0).records
        assert records[0]["m"] == sample_size_bound(r, eps, delta)
        failures = sum(1 for rec in records if not rec["pass"])
        slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
        assert failures / trials <= delta + slack

    def test_smallest_passing_m_is_sufficient(self):
        m_star = smallest_passing_m(2, 0.5, trials=20, base_seed=10)
        doc = _concentration(rank=2, sketch_dim=m_star, epsilon=0.5, trials=20, seed=10)
        assert doc.aggregates["success_fraction"] >= 0.95
        assert m_star < sample_size_bound(2, 0.5, 0.1)

    def test_smallest_passing_m_doubles_up_from_a_failing_hint(self, monkeypatch):
        probes = []
        deviation = concentration.spectral_deviation
        monkeypatch.setattr(concentration, "spectral_deviation",
                            lambda *args: probes.append(args[1]) or deviation(*args))
        m_star = smallest_passing_m(2, 0.5, trials=20, base_seed=10, m_hint=2)
        assert probes[:20] == [2] * 20 and probes[20:40] == [4] * 20  # m = 2 fails, so it doubles

        def rate(m):
            return sum(deviation(2, m, 10 + t) <= 0.5 for t in range(20)) / 20

        assert rate(m_star) >= PASS_RATE > rate(m_star - 1)

    def test_find_min_m_reads_its_first_probe_off_the_records(self, monkeypatch):
        calls = []
        deviation = concentration.spectral_deviation
        monkeypatch.setattr(concentration, "spectral_deviation",
                            lambda *args: calls.append(args) or deviation(*args))
        doc = _concentration(rank=10, trials=100, find_min_m=True)
        # the records take 100 calls and the search 10 probes of 100; its first probe, at the
        # records' m, reads their pass rate instead of redrawing them
        assert len(calls) == 100 + 1000
        assert sum(m == doc.records[0]["m"] for _, m, _ in calls) == 100
        assert doc.aggregates["smallest_passing_m"] == smallest_passing_m(
            10, 0.5, trials=100, base_seed=0, m_hint=doc.records[0]["m"])

    def test_hint_rate_needs_its_m(self):
        with pytest.raises(ValueError, match="m_hint"):
            smallest_passing_m(2, 0.5, trials=5, base_seed=0, hint_rate=1.0)

    def test_smallest_passing_m_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials"):
            smallest_passing_m(2, 0.5, trials=0, base_seed=10)
