"""Loss values, gradients, conjugates, and the Fenchel identities."""

import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsketch.losses import (
    LossSpec,
    logistic_loss,
    parse_loss,
    smoothed_hinge_loss,
    square_loss,
)

ALL_LOSSES = [square_loss(), logistic_loss(), smoothed_hinge_loss(1.0), smoothed_hinge_loss(0.5)]
LOSS_IDS = [spec.label() for spec in ALL_LOSSES]


def sample_z(rng, size):
    return rng.uniform(-20.0, 20.0, size=size)


def sample_alpha(rng, spec, size):
    lo, hi = spec.dual_domain
    if not np.isfinite(lo):
        return rng.uniform(-10.0, 10.0, size=size)
    return rng.uniform(lo, hi, size=size)


class TestValues:
    def test_square_zero_at_margin_one(self):
        assert square_loss().value(1.0) == 0.0

    def test_logistic_symmetry_point(self):
        assert logistic_loss().value(0.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_smoothed_hinge_middle_branch(self):
        assert smoothed_hinge_loss(1.0).value(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_smoothed_hinge_branches(self):
        spec = smoothed_hinge_loss(0.5)
        assert spec.value(2.0) == 0.0
        assert spec.value(-1.0) == pytest.approx(2.0 - 0.25, abs=1e-12)
        assert spec.value(0.75) == pytest.approx(0.25**2 / 1.0, abs=1e-12)

    def test_logistic_overflow_safe(self):
        spec = logistic_loss()
        assert np.isfinite(spec.value(-1e4))
        assert spec.value(-1e4) == pytest.approx(1e4, rel=1e-12)
        assert spec.value(1e4) == 0.0  # underflows cleanly


class TestGradients:
    def test_square_values(self):
        spec = square_loss()
        assert spec.grad(1.0) == 0.0
        assert spec.grad(0.0) == -1.0

    def test_logistic_symmetry(self):
        assert logistic_loss().grad(0.0) == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("spec", ALL_LOSSES, ids=LOSS_IDS)
    def test_matches_central_finite_difference(self, spec):
        rng = np.random.default_rng(7)
        z = sample_z(rng, 200)
        h = 1e-6
        numeric = (spec.value(z + h) - spec.value(z - h)) / (2.0 * h)
        np.testing.assert_allclose(spec.grad(z), numeric, atol=1e-6)

    @pytest.mark.parametrize("spec", ALL_LOSSES, ids=LOSS_IDS)
    def test_gradient_lands_in_dual_domain(self, spec):
        rng = np.random.default_rng(11)
        z = sample_z(rng, 500)
        assert spec.in_dual_domain(spec.grad(z))

    @pytest.mark.parametrize("spec", ALL_LOSSES, ids=LOSS_IDS)
    def test_lipschitz_estimate_below_gamma(self, spec):
        rng = np.random.default_rng(13)
        z1 = sample_z(rng, 2000)
        z2 = z1 + rng.uniform(-1.0, 1.0, size=z1.size)
        gap = np.abs(z1 - z2)
        mask = gap > 1e-12
        est = np.max(np.abs(spec.grad(z1) - spec.grad(z2))[mask] / gap[mask])
        assert est <= spec.gamma + 1e-6


class TestConjugates:
    def test_square_at_zero(self):
        assert square_loss().conjugate(0.0) == 0.0

    def test_logistic_symmetry_point(self):
        assert logistic_loss().conjugate(-0.5) == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_logistic_endpoints_zero_log_zero(self):
        spec = logistic_loss()
        assert spec.conjugate(0.0) == 0.0
        assert spec.conjugate(-1.0) == 0.0

    @pytest.mark.parametrize("spec", [logistic_loss(), smoothed_hinge_loss(1.0)])
    def test_rejects_outside_domain(self, spec):
        with pytest.raises(ValueError):
            spec.conjugate(0.5)
        with pytest.raises(ValueError):
            spec.conjugate(np.array([-0.5, -1.5]))

    @pytest.mark.parametrize("spec", ALL_LOSSES, ids=LOSS_IDS)
    def test_fenchel_young_equality_at_gradient(self, spec):
        # l(z) = grad(z) * z - l*(grad(z)), checked on 1000 samples
        rng = np.random.default_rng(17)
        z = sample_z(rng, 1000)
        alpha = spec.grad(z)
        np.testing.assert_allclose(alpha * z - spec.conjugate(alpha), spec.value(z), atol=1e-9)

    @pytest.mark.parametrize("spec", ALL_LOSSES, ids=LOSS_IDS)
    def test_fenchel_young_inequality(self, spec):
        rng = np.random.default_rng(19)
        z = sample_z(rng, 1000)
        alpha = sample_alpha(rng, spec, 1000)
        assert np.all(alpha * z - spec.conjugate(alpha) <= spec.value(z) + 1e-12)

    @pytest.mark.parametrize("spec", ALL_LOSSES, ids=LOSS_IDS)
    def test_conjugate_midpoint_convexity(self, spec):
        rng = np.random.default_rng(23)
        a = sample_alpha(rng, spec, 1000)
        b = sample_alpha(rng, spec, 1000)
        mid = spec.conjugate((a + b) / 2.0)
        assert np.all(mid <= (spec.conjugate(a) + spec.conjugate(b)) / 2.0 + 1e-12)


class TestLogisticAgainstScipy:
    """The logistic terms within 4 ulp of ``scipy.special``, with no floating-point warning."""

    Z = np.array([-1e3, -40.0, -1.0, 0.0, 1.0, 40.0, 1e3])
    ALPHA = np.array([-1.0, -0.5, 0.0])

    @staticmethod
    def quietly(fn, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(values), [fn(v) for v in values]  # arrays and 0-d inputs alike

    @pytest.mark.parametrize("term", ["grad", "curvature", "conjugate"])
    def test_within_4_ulp(self, term):
        expit, xlogy = scipy.special.expit, scipy.special.xlogy
        oracle, values = {
            "grad": (lambda z: -expit(-z), self.Z),
            "curvature": (lambda z: expit(z) * (1.0 - expit(z)), self.Z),
            "conjugate": (lambda a: xlogy(-a, -a) + xlogy(1.0 + a, 1.0 + a), self.ALPHA),
        }[term]
        whole, each = self.quietly(getattr(logistic_loss(), term), values)
        np.testing.assert_array_max_ulp(whole, oracle(values), maxulp=4)
        np.testing.assert_array_equal(each, whole)


class TestSmoothnessConstants:
    def test_declared_constants(self):
        assert square_loss().gamma == 1.0
        assert logistic_loss().gamma == 0.25
        assert smoothed_hinge_loss(0.25).gamma == 4.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_smoothed_hinge_gamma_is_reciprocal_mu(self, mu):
        assert smoothed_hinge_loss(mu).gamma == pytest.approx(1.0 / mu, rel=1e-15)

    def test_rejects_nonpositive_smoothing(self):
        with pytest.raises(ValueError):
            smoothed_hinge_loss(0.0)


class TestParse:
    def test_plain_names(self):
        assert parse_loss("square").kind == "square"
        assert parse_loss("logistic").kind == "logistic"

    def test_smoothed_hinge_with_mu(self):
        spec = parse_loss("smoothed_hinge:0.25")
        assert spec.kind == "smoothed_hinge"
        assert spec.smoothing == 0.25

    def test_label_round_trip(self):
        for spec in ALL_LOSSES:
            again = parse_loss(spec.label())
            assert again.kind == spec.kind and again.smoothing == spec.smoothing

    @pytest.mark.parametrize("bad", ["hinge", "smoothed_hinge:x", "smoothed_hinge:-1", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_loss(bad)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            LossSpec("absolute")
