"""Recovery routes, their subspace geometry, and the iterative identities."""

import dataclasses

import numpy as np
import pytest

from dualsketch import recover, solve
from dualsketch.data import make_decaying_spectrum, make_low_rank, spectrum
from dualsketch.losses import logistic_loss, smoothed_hinge_loss, square_loss
from dualsketch.recover import (
    measurement_error,
    recover_iterative,
    recover_naive,
    relative_error,
    span_restricted_error,
)
from dualsketch.sketch import gaussian_sketch, identity_sketch, project
from dualsketch.solve import SolverConfig, dual_from_primal, primal_from_dual, solve_primal

from closed_forms import ridge_closed_form, ridge_drp_closed_form

TOL = 1e-10
CFG = SolverConfig(tolerance=TOL)


def reference(data, loss, lam):
    return solve_primal(data.features, data.labels, loss, lam, SolverConfig(tolerance=1e-12))


class TestNaive:
    def test_zero_solution(self):
        r = np.ones((5, 3))
        np.testing.assert_allclose(recover_naive(r, np.zeros(3), 3), 0.0, atol=0)

    def test_identity_sketch_returns_z(self):
        m = 4
        r = np.sqrt(m) * np.eye(m)
        z = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(recover_naive(r, z, m), z, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            recover_naive(np.ones((5, 3)), np.zeros(4), 4)

    def test_lands_in_projection_span(self):
        data = make_low_rank(60, 20, 3, "random", seed=1)
        sk = gaussian_sketch(data, 10, seed=2)
        z_sol = solve_primal(sk.sketched_features, data.labels, square_loss(), 1.0, CFG)
        w = recover_naive(sk.matrix_r, z_sol.weights, sk.m)
        q, _ = np.linalg.qr(sk.matrix_r)
        out_of_span = w - q @ (q.T @ w)
        assert np.linalg.norm(out_of_span) <= 1e-9 * np.linalg.norm(w)


class TestDrp:
    @pytest.mark.parametrize("loss", [square_loss(), logistic_loss(), smoothed_hinge_loss(1.0)],
                             ids=["square", "logistic", "smoothed_hinge:1"])
    def test_exact_sketch_recovers_exactly(self, loss):
        data = make_low_rank(25, 15, 4, "random", seed=3)
        lam = 1.0
        sk = identity_sketch(data)
        ref = reference(data, loss, lam)
        res = recover_iterative(data, loss, lam, sk, 1, CFG, ref.weights)[0]
        assert res.rel_error <= 10.0 * TOL / lam

    def test_square_path_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            data = make_low_rank(80, 40, 5, "random", seed=40 + trial)
            lam = float(rng.choice([0.1, 1.0, 10.0]))
            sk = gaussian_sketch(data, 25, seed=140 + trial)
            drp = recover_iterative(data, square_loss(), lam, sk, 1, CFG)[0]
            closed = ridge_drp_closed_form(data, lam, sk)
            rel = np.linalg.norm(drp.recovered - closed) / np.linalg.norm(closed)
            assert rel <= 1e-8

    def test_output_lies_in_data_span(self):
        data = make_low_rank(70, 30, 4, "random", seed=5)
        sk = gaussian_sketch(data, 20, seed=6)
        res = recover_iterative(data, logistic_loss(), 1.0, sk, 1, CFG)[0]
        info = spectrum(data)
        basis = info.top_left_basis()
        out = res.recovered - basis @ (basis.T @ res.recovered)
        assert np.linalg.norm(out) <= 1e-9 * np.linalg.norm(res.recovered)

    def test_rejects_mismatched_sketch(self):
        data = make_low_rank(10, 5, 2, "random", seed=7)
        other = make_low_rank(10, 6, 2, "random", seed=8)
        sk = gaussian_sketch(other, 4, seed=9)
        with pytest.raises(ValueError):
            recover_iterative(data, square_loss(), 1.0, sk, 1, CFG)

    def test_rel_error_recomputable(self):
        data = make_low_rank(30, 12, 3, "random", seed=10)
        sk = gaussian_sketch(data, 8, seed=11)
        ref = reference(data, square_loss(), 1.0)
        res = recover_iterative(data, square_loss(), 1.0, sk, 1, CFG, ref.weights)[0]
        again = relative_error(res.recovered, ref.weights)
        assert abs(res.rel_error - again) <= 1e-12


class TestRidgeClosedFormRecovery:
    def test_identity_injection_reduces_to_plain_ridge(self):
        data = make_low_rank(12, 8, 3, "random", seed=12)
        sk = identity_sketch(data)
        w_sketch = ridge_drp_closed_form(data, 0.7, sk)
        w_plain = ridge_closed_form(data.features, data.labels, 0.7)
        assert np.linalg.norm(w_sketch - w_plain) <= 1e-10 * np.linalg.norm(w_plain)

    def test_small_hand_instance(self):
        from dualsketch.data import Dataset

        features = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, -1.0]])
        labels = np.array([1.0, -1.0])
        data = Dataset(features, labels)
        sk = project(data, np.sqrt(3.0) * np.eye(3), 3)
        lam = 2.0
        w = ridge_drp_closed_form(data, lam, sk)
        inner = features.T @ features + lam * np.eye(2)
        expected = features @ np.linalg.solve(inner, labels)
        np.testing.assert_allclose(w, expected, atol=1e-12)


class TestIterative:
    def test_single_pass_equals_one_shot(self):
        data = make_low_rank(50, 25, 4, "random", seed=13)
        lam = 1.0
        sk = gaussian_sketch(data, 15, seed=14)
        # one-shot DRP from its layers: the sketched solve, its duals, the map back through X
        z = solve_primal(sk.sketched_features, data.labels, logistic_loss(), lam, CFG).weights
        alphas = dual_from_primal(sk.sketched_features, data.labels, logistic_loss(), z)
        one_shot = primal_from_dual(data.features, data.labels, lam, alphas)
        res, trace = recover_iterative(data, logistic_loss(), lam, sk, 1, CFG)
        np.testing.assert_array_equal(trace.sketched_weights, z)
        np.testing.assert_array_equal(res.recovered, one_shot)

    @pytest.mark.parametrize("passes", [1, 3])
    def test_no_pass_reads_projection_matrix(self, passes):
        # the offset R'w/sqrt(m) is read off the sketched features as Xhat beta
        data = make_low_rank(50, 25, 4, "random", seed=13)
        sk = gaussian_sketch(data, 15, seed=14)
        blind = dataclasses.replace(sk, matrix_r=np.full_like(sk.matrix_r, np.nan))
        expected, _ = recover_iterative(data, logistic_loss(), 1.0, sk, passes, CFG)
        recovered, _ = recover_iterative(data, logistic_loss(), 1.0, blind, passes, CFG)
        np.testing.assert_array_equal(recovered.recovered, expected.recovered)

    def test_exact_sketch_converges_immediately(self):
        data = make_low_rank(20, 12, 3, "random", seed=15)
        lam = 1.0
        sk = identity_sketch(data)
        ref = reference(data, square_loss(), lam)
        res, trace = recover_iterative(data, square_loss(), lam, sk, 3, CFG, reference=ref.weights)
        errors = trace.per_iteration_errors
        assert errors[0] == 1.0
        assert np.all(errors[1:] <= 10.0 * TOL / lam)
        assert res.rel_error == errors[-1]

    def test_error_contracts_over_passes(self):
        data = make_low_rank(100, 40, 5, "random", seed=16)
        lam = 1.0
        sk = gaussian_sketch(data, 60, seed=17)
        ref = reference(data, square_loss(), lam)
        _, trace = recover_iterative(data, square_loss(), lam, sk, 4, CFG, reference=ref.weights)
        errors = trace.per_iteration_errors
        assert errors[1] < 0.8
        assert errors[4] < errors[1] ** 3  # near-geometric decay

    def test_reference_resolved_once_when_pass_one_is_scored(self):
        # a callable reference is called once, after pass 1's sketched solve; the errors are
        # those of the array, bit for bit
        data = make_low_rank(100, 40, 5, "random", seed=16)
        sk = gaussian_sketch(data, 60, seed=17)
        ref = reference(data, logistic_loss(), 1.0).weights
        calls = []

        def solved_elsewhere():
            calls.append(1)
            return ref

        _, eager = recover_iterative(data, logistic_loss(), 1.0, sk, 4, CFG, reference=ref)
        res, lazy = recover_iterative(data, logistic_loss(), 1.0, sk, 4, CFG,
                                      reference=solved_elsewhere)
        assert calls == [1]
        np.testing.assert_array_equal(lazy.per_iteration_errors, eager.per_iteration_errors)
        assert res.rel_error == eager.per_iteration_errors[-1]

    def test_cumulative_duals_telescope(self):
        # the pass-t duals must equal grad l at the combined margins, and the
        # pass-(t+1) solve of the shifted problem reproduces them
        data = make_low_rank(40, 18, 4, "random", seed=18)
        loss, lam = logistic_loss(), 0.8
        sk = gaussian_sketch(data, 12, seed=19)
        _, trace1 = recover_iterative(data, loss, lam, sk, 1, CFG)
        _, trace2 = recover_iterative(data, loss, lam, sk, 2, CFG)
        w1 = -(data.features @ (data.labels * trace1.duals)) / lam
        xs = sk.sketched_features
        offset = sk.matrix_r.T @ w1 / np.sqrt(sk.m)
        shift = data.labels * (data.features.T @ w1 - xs.T @ offset)
        v2 = solve_primal(xs, data.labels, loss, lam, CFG, margin_shift=shift)
        margins = data.labels * (xs.T @ v2.weights) + shift
        rebuilt = np.asarray(loss.grad(margins))
        np.testing.assert_allclose(trace2.duals, rebuilt, atol=1e-8)
        increment = rebuilt - trace1.duals
        np.testing.assert_allclose(trace1.duals + increment, trace2.duals, atol=1e-12)

    def test_shifted_objective_identity(self):
        # the pass-t objective equals the shifted-loss form plus a constant
        rng = np.random.default_rng(20)
        data = make_low_rank(30, 14, 3, "random", seed=21)
        loss, lam = smoothed_hinge_loss(1.0), 1.3
        sk = gaussian_sketch(data, 10, seed=22)
        _, trace1 = recover_iterative(data, loss, lam, sk, 1, CFG)
        alphas = trace1.duals
        w1 = -(data.features @ (data.labels * alphas)) / lam
        dots = data.features.T @ w1
        offset = sk.matrix_r.T @ w1 / np.sqrt(sk.m)
        xs = sk.sketched_features
        const = 0.5 * lam * np.dot(offset, offset)
        for _ in range(10):
            z = rng.standard_normal(sk.m)
            raw_margins = data.labels * (xs.T @ z)
            lhs = 0.5 * lam * np.dot(z + offset, z + offset) + np.sum(
                loss.value(raw_margins + data.labels * dots)
            )
            shifted_losses = loss.value(raw_margins + data.labels * dots) - alphas * raw_margins
            rhs = 0.5 * lam * np.dot(z, z) + np.sum(shifted_losses) + const
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_early_stop_cuts_passes(self):
        data = make_low_rank(20, 12, 3, "random", seed=23)
        sk = identity_sketch(data)
        ref = reference(data, square_loss(), 1.0)
        _, trace = recover_iterative(data, square_loss(), 1.0, sk, 6, CFG,
                                     reference=ref.weights, early_stop=True)
        assert trace.per_iteration_errors.size < 7

    def test_rejects_zero_iterations(self):
        data = make_low_rank(10, 6, 2, "random", seed=24)
        sk = gaussian_sketch(data, 4, seed=25)
        with pytest.raises(ValueError):
            recover_iterative(data, square_loss(), 1.0, sk, 0, CFG)


def bundled_cholesky():
    """Skip unless numpy bundles the LAPACK routines a Newton step factors and solves by."""
    if None in (solve._openblas()["dpotrf"], solve._openblas()["dpotrs"]):
        pytest.skip("numpy bundles no dpotrf and dpotrs")


def counting(monkeypatch, owner, name):
    """Calls of ``owner.name`` from here on, in a one-item list; ``owner`` is a module or dict."""
    calls, original = [0], (owner[name] if isinstance(owner, dict) else getattr(owner, name))

    def count(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, count)
    else:
        monkeypatch.setattr(owner, name, count)
    return calls


class TestSharedSetup:
    """The passes of one run reduce the sketched span once and, for the square loss, factor
    its Hessian once, with the records of a fresh solve per pass."""

    LOSSES = [square_loss(), logistic_loss()]

    @pytest.mark.parametrize("loss", LOSSES, ids=["square", "logistic"])
    @pytest.mark.parametrize("m, reductions", [(80, 1), (20, 0)], ids=["m>n", "m<=n"])
    def test_one_span_reduction_per_trial(self, monkeypatch, loss, m, reductions):
        data = make_low_rank(200, 40, 3, "random", seed=30)
        sk = gaussian_sketch(data, m, seed=31)
        calls = counting(monkeypatch, solve, "_span_basis")
        recover_iterative(data, loss, 1.0, sk, 8, CFG)
        assert calls == [reductions]

    @pytest.mark.parametrize("loss", [*LOSSES, smoothed_hinge_loss(0.5)],
                             ids=["square", "logistic", "smoothed_hinge:0.5"])
    @pytest.mark.parametrize("span, m", [("low-rank", 80), ("cholesky-qr", 120), ("low-rank", 20)],
                             ids=["rank-3 m>n", "full-rank m>n", "m<=n"])
    def test_passes_equal_fresh_solves(self, monkeypatch, loss, span, m):
        data = (make_low_rank(200, 40, 3, "random", seed=30) if span == "low-rank"
                else make_decaying_spectrum(200, 40, 1.0, seed=15))
        sk = gaussian_sketch(data, m, seed=31)
        ref = reference(data, loss, 1.0).weights
        shared, shared_trace = recover_iterative(data, loss, 1.0, sk, 8, CFG, reference=ref)

        def fresh_solve(*args, setup, **kwargs):
            return solve_primal(*args, **kwargs)

        monkeypatch.setattr(recover, "solve_primal", fresh_solve)
        fresh, fresh_trace = recover_iterative(data, loss, 1.0, sk, 8, CFG, reference=ref)
        assert shared.recovered.tobytes() == fresh.recovered.tobytes()
        assert (shared_trace.per_iteration_errors.tobytes()
                == fresh_trace.per_iteration_errors.tobytes())

    def test_square_loss_factors_once_per_sketch(self, monkeypatch):
        # the iterate_lowrank shape: m <= n, so Newton runs on the sketched features and the
        # only Cholesky factorisations are the Hessian's
        bundled_cholesky()
        data = make_low_rank(500, 200, 2, "random", seed=0)
        sk = gaussian_sketch(data, 55, seed=0)
        factors = counting(monkeypatch, solve._openblas(), "dpotrf")
        solves = counting(monkeypatch, solve._openblas(), "dpotrs")
        recover_iterative(data, square_loss(), 1.0, sk, 8, CFG)
        assert factors == [1] and solves[0] >= 8

    def test_logistic_loss_factors_once_per_step_and_keeps_nothing(self, monkeypatch):
        bundled_cholesky()
        data = make_low_rank(500, 200, 2, "random", seed=0)
        sk = gaussian_sketch(data, 55, seed=0)
        setups = []

        def recording_solve(*args, setup, **kwargs):
            setups.append(setup)
            return solve_primal(*args, setup=setup, **kwargs)

        monkeypatch.setattr(recover, "solve_primal", recording_solve)
        factors = counting(monkeypatch, solve._openblas(), "dpotrf")
        steps = counting(monkeypatch, solve._NewtonSetup, "direction")
        recover_iterative(data, logistic_loss(), 1.0, sk, 8, CFG)
        assert len(setups) == 8 and all(setup is setups[0] for setup in setups)
        assert factors == steps and steps[0] > 8
        held = [value for value in vars(setups[0]).values() if isinstance(value, (tuple, np.ndarray))]
        assert held == [sk.sketched_features]  # no k x k factor, and no reduction at m <= n


class TestErrorFunctionals:
    def test_span_error_identical_vectors(self):
        data = make_low_rank(15, 8, 3, "random", seed=26)
        info = spectrum(data)
        w = np.ones(15)
        assert span_restricted_error(info, w, w) == 0.0

    def test_span_error_orthogonal_difference(self):
        data = make_low_rank(15, 8, 3, "random", seed=27)
        info = spectrum(data)
        basis = info.top_left_basis()
        rng = np.random.default_rng(0)
        diff = rng.standard_normal(15)
        diff -= basis @ (basis.T @ diff)  # orthogonal to the data span
        assert span_restricted_error(info, diff, np.zeros(15)) <= 1e-10

    def test_span_error_unit_component(self):
        data = make_low_rank(15, 8, 3, "random", seed=28)
        info = spectrum(data)
        u1 = info.left_vectors[:, 0]
        assert span_restricted_error(info, u1, np.zeros(15)) == pytest.approx(1.0, abs=1e-12)

    def test_measurement_error_zero_cases(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal((10, 4))
        w = rng.standard_normal(10)
        z = r.T @ w / 2.0  # sqrt(m) = 2
        assert measurement_error(z, r, 4, w) <= 1e-14
        m = 6
        r_id = np.sqrt(m) * np.eye(m)
        w6 = rng.standard_normal(m)
        assert measurement_error(w6, r_id, m, w6) <= 1e-14

    def test_measurement_error_zero_denominator(self):
        r = np.zeros((5, 3))
        with pytest.raises(ValueError):
            measurement_error(np.ones(3), r, 3, np.ones(5))
