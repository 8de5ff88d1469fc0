"""Primal solver certificates, closed forms, conversions, and duality."""

import ctypes
import glob
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from dualsketch import solve
from dualsketch.data import make_decaying_spectrum, make_low_rank
from dualsketch.losses import LossSpec, logistic_loss, smoothed_hinge_loss, square_loss
from dualsketch.recover import recover_iterative
from dualsketch.sketch import gaussian_sketch
from dualsketch.solve import (
    LOW_RANK_PIVOTS,
    _low_rank_pivots,
    _span_basis,
    ConvergenceError,
    SolverConfig,
    dual_from_primal,
    dual_objective,
    primal_from_dual,
    primal_objective,
    solve_primal,
)

from closed_forms import ridge_closed_form

THREE_LOSSES = [square_loss(), logistic_loss(), smoothed_hinge_loss(1.0)]
LOSS_IDS = [spec.label() for spec in THREE_LOSSES]


def random_instance(rng, d, n):
    features = rng.standard_normal((d, n))
    labels = rng.choice([-1.0, 1.0], size=n)
    return features, labels


def count_qr_calls(monkeypatch):
    """Shapes of the matrices handed to ``np.linalg.qr`` from here on."""
    calls = []
    numpy_qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return numpy_qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


def count_triangular_solves(monkeypatch):
    """Number of ``solve._solve_upper`` calls from here on, in a one-item list."""
    calls = [0]
    solve_upper = solve._solve_upper

    def counting_solve_upper(*args):
        calls[0] += 1
        return solve_upper(*args)

    monkeypatch.setattr(solve, "_solve_upper", counting_solve_upper)
    return calls


def greedy_pivoted_cholesky(gram):
    """``(L, piv, rank)`` with ``gram[piv][:, piv] = L L'`` for an n x rank lower-trapezoidal L.

    Unblocked greedy pivoting on the largest remaining diagonal, ties to the
    lowest index, stopping where LAPACK's dpstrf does by default.
    """
    n = len(gram)
    diag = np.diagonal(gram).astype(float)
    stop = n * 0.5 * np.finfo(float).eps * (diag.max() if n else 0.0)
    rows, piv = np.zeros((0, n)), []  # row j: column j of L, over gram's rows
    for _ in range(n):
        q = int(diag.argmax())
        if not diag[q] > stop:
            break
        row = (gram[q] - rows[:, q] @ rows) / np.sqrt(diag[q])
        diag -= row * row
        diag[q] = -np.inf
        rows, piv = np.vstack([rows, row]), piv + [q]
    piv += [j for j in range(n) if j not in piv]
    # tril clears the roundoff left in the pivots' own rows above L's diagonal
    return np.tril(rows.T[piv]), np.array(piv), len(rows)


def stationarity_norm(features, labels, loss, lam, w):
    margins = labels * (features.T @ w)
    return np.linalg.norm(lam * w + features @ (labels * loss.grad(margins)))


class TestSolvePrimal:
    def test_single_example_closed_form(self):
        features = np.array([[1.0], [0.0]])
        labels = np.array([1.0])
        sol = solve_primal(features, labels, square_loss(), 1.0)
        np.testing.assert_allclose(sol.weights, [0.5, 0.0], atol=1e-12)

    def test_heavy_regularization_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        features, labels = random_instance(rng, 5, 8)
        lam = 1e12
        for loss in THREE_LOSSES:
            sol = solve_primal(features, labels, loss, lam)
            cap = sum(abs(loss.grad(0.0)) * np.linalg.norm(features[:, i]) for i in range(8))
            assert np.linalg.norm(sol.weights) <= cap / lam + 1e-15

    @pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
    def test_certificate_holds(self, loss):
        rng = np.random.default_rng(1)
        features, labels = random_instance(rng, 20, 30)
        cfg = SolverConfig(tolerance=1e-10)
        sol = solve_primal(features, labels, loss, 0.5, cfg)
        assert sol.grad_norm <= 1e-10
        assert stationarity_norm(features, labels, loss, 0.5, sol.weights) <= 1e-10

    def test_matches_independent_optimizer(self):
        # generic convex-optimizer oracle on the logistic instance
        rng = np.random.default_rng(2)
        features, labels = random_instance(rng, 20, 30)
        loss, lam = logistic_loss(), 1.0
        sol = solve_primal(features, labels, loss, lam)

        def fun(w):
            return primal_objective(features, labels, loss, lam, w)

        def jac(w):
            margins = labels * (features.T @ w)
            return lam * w + features @ (labels * loss.grad(margins))

        oracle = scipy.optimize.minimize(
            fun, np.zeros(20), jac=jac, method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 5000},
        )
        assert abs(sol.objective - oracle.fun) <= 1e-8

    def test_newton_step_holds_two_hessian_sized_temporaries(self):
        # an unreduced 300 x 300 logistic solve: each step drops the Hessian's square-root
        # factor once the Hessian is formed, and the Hessian once LU has factored it in place,
        # so beside the input the solve holds at most the Hessian and that factor
        data = make_decaying_spectrum(300, 300, 1.0, 0, 4.0, "sign_of_plant")
        tracemalloc.start()
        try:
            sol = solve_primal(data.features, data.labels, logistic_loss(), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.newton_dim == 300 and sol.iterations > 1
        assert peak <= 2 * 300 * 300 * 8 + 32 * 300 * 8  # and a few dozen n-vectors

    def test_reduction_path_tall_problem(self):
        # d well above n exercises the span-reduction branch
        rng = np.random.default_rng(3)
        features, labels = random_instance(rng, 300, 20)
        sol = solve_primal(features, labels, logistic_loss(), 2.0)
        assert sol.grad_norm <= 1e-10
        assert stationarity_norm(features, labels, logistic_loss(), 2.0, sol.weights) <= 2e-10

    @pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
    def test_objective_trace_monotone(self, loss):
        # the objective at w = 0, then after each capped iteration count
        rng = np.random.default_rng(4)
        features, labels = random_instance(rng, 15, 25)
        sol = solve_primal(features, labels, loss, 0.1)
        trace = [primal_objective(features, labels, loss, 0.1, np.zeros(15))]
        for cap in range(1, sol.iterations):
            with pytest.raises(ConvergenceError) as err:
                solve_primal(features, labels, loss, 0.1, SolverConfig(max_iterations=cap))
            trace.append(err.value.best.objective)
        trace = np.array(trace + [sol.objective])
        diffs = np.diff(trace)
        floor = 1e-12 * (1.0 + np.abs(trace[:-1]))
        assert np.all(diffs <= floor)

    def test_line_search_stops_at_the_float_floor(self, monkeypatch):
        # The last Newton steps change f by less than its float noise.  Each then
        # evaluates f once, at the full step, instead of at every halving down to
        # MIN_STEP: one evaluation at w = 0 and one per iteration.
        evaluations = [0]
        value = LossSpec.value

        def counting_value(self, z):
            evaluations[0] += 1
            return value(self, z)

        monkeypatch.setattr(LossSpec, "value", counting_value)
        rng = np.random.default_rng(0)
        features, labels = random_instance(rng, 30, 60)
        sol = solve_primal(features, labels, logistic_loss(), 0.1, SolverConfig(tolerance=1e-12))
        assert sol.grad_norm <= 1e-12
        assert evaluations[0] == sol.iterations + 1

    def test_nonconvergence_carries_best_iterate(self):
        rng = np.random.default_rng(5)
        features, labels = random_instance(rng, 10, 12)
        with pytest.raises(ConvergenceError) as err:
            solve_primal(features, labels, logistic_loss(), 1e-6,
                         SolverConfig(tolerance=1e-10, max_iterations=1))
        best = err.value.best
        assert best.weights.shape == (10,)
        assert best.grad_norm > 1e-10

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            solve_primal(np.eye(2), np.array([1.0, -1.0]), square_loss(), 0.0)

    def test_hessian_factorization_failure_is_a_convergence_error(self, monkeypatch):
        def not_positive_definite(a, b):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        # Cholesky refuses the Hessian, then its LU fallback finds it singular
        monkeypatch.setattr(solve, "_cholesky_solve", not_positive_definite)
        monkeypatch.setattr(solve, "_lu_solve", singular)
        rng = np.random.default_rng(5)
        features, labels = random_instance(rng, 30, 12)
        with pytest.raises(ConvergenceError) as err:
            solve_primal(features, labels, logistic_loss(), 1.0)
        assert str(err.value) == "Hessian solve failed: Singular matrix"
        assert np.isfinite(err.value.best.grad_norm)
        assert err.value.best.grad_norm == pytest.approx(
            stationarity_norm(features, labels, logistic_loss(), 1.0, err.value.best.weights),
            rel=1e-12)

    def test_ascent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # a Cholesky solve that returns H^-1 g, not -H^-1 g: no step along it lowers the convex
        # objective, so without the fallback to -g the line search stalls at once
        cholesky_solve, calls = solve._cholesky_solve, [0]

        def ascent(a, b):
            calls[0] += 1
            return -cholesky_solve(a, b)

        rng = np.random.default_rng(6)
        features, labels = random_instance(rng, 5, 8)
        features *= 0.1  # Hessian eigenvalues in [lam, 1.3 lam]: unit steps along -g contract
        lam, cfg = 1.0, SolverConfig(tolerance=1e-10)
        exact = solve_primal(features, labels, square_loss(), lam, cfg)
        monkeypatch.setattr(solve, "_cholesky_solve", ascent)
        sol = solve_primal(features, labels, square_loss(), lam, cfg)
        assert exact.iterations == 1 and sol.iterations == calls[0] > 1
        assert stationarity_norm(features, labels, square_loss(), lam, sol.weights) <= 1e-10
        # lam-strong convexity: each solution is within its gradient norm / lam of w*
        assert np.linalg.norm(sol.weights - exact.weights) <= 2 * cfg.tolerance / lam


class TestCertificate:
    """The reported grad_norm is the full-space gradient norm on every exit path."""

    @staticmethod
    def instance(shape):
        if shape == "rank-reduced p>n":
            data = make_low_rank(300, 60, 4, "random", seed=16)
            return data.features, data.labels, 4
        d, n = {"p<=n": (20, 30), "full-rank p>n": (300, 60)}[shape]
        return (*random_instance(np.random.default_rng(16), d, n), min(d, n))

    @pytest.mark.parametrize("shape", ["p<=n", "rank-reduced p>n", "full-rank p>n"])
    @pytest.mark.parametrize("converged", [True, False])
    def test_reported_norm_is_the_full_space_gradient(self, shape, converged):
        features, labels, newton_dim = self.instance(shape)
        loss, lam = logistic_loss(), 0.5
        if converged:
            sol = solve_primal(features, labels, loss, lam)
        else:
            with pytest.raises(ConvergenceError) as err:
                solve_primal(features, labels, loss, lam, SolverConfig(max_iterations=1))
            sol = err.value.best
        assert sol.newton_dim == newton_dim
        expected = stationarity_norm(features, labels, loss, lam, sol.weights)
        # relative to the gradient at w = 0, the scale of the gradient's terms
        scale = stationarity_norm(features, labels, loss, lam, np.zeros(features.shape[0]))
        assert abs(sol.grad_norm - expected) <= 1e-12 * max(expected, scale)
        # the objective, too, is evaluated at the returned weights
        assert sol.objective == primal_objective(features, labels, loss, lam, sol.weights)

    def test_converged_full_rank_solve_maps_to_full_space_once(self, monkeypatch):
        # the certificate is evaluated once the reduced gradient passes, so
        # a converged solve maps to the full space only for its answer
        rng = np.random.default_rng(17)
        features, labels = random_instance(rng, 300, 60)
        calls = count_triangular_solves(monkeypatch)
        sol = solve_primal(features, labels, logistic_loss(), 1.0)
        assert sol.newton_dim == 60 and sol.iterations > 1
        assert calls == [1]

    def test_ill_conditioned_full_rank_norm_is_the_full_space_gradient(self):
        # margins from the reduced coordinates differ from the weights' own
        # by the basis's rounding, which here is most of the gradient's norm
        data = make_decaying_spectrum(600, 120, 3.75, seed=8)
        loss, lam = square_loss(), 1e-3
        sol = solve_primal(data.features, data.labels, loss, lam)
        assert sol.newton_dim == 120
        expected = stationarity_norm(data.features, data.labels, loss, lam, sol.weights)
        assert abs(sol.grad_norm - expected) <= 1e-9 * expected


class TestShiftedSolver:
    def test_zero_shift_matches_plain(self):
        rng = np.random.default_rng(6)
        features, labels = random_instance(rng, 12, 18)
        plain = solve_primal(features, labels, logistic_loss(), 0.7)
        shifted = solve_primal(features, labels, logistic_loss(), 0.7, margin_shift=np.zeros(18))
        np.testing.assert_allclose(shifted.weights, plain.weights, atol=1e-9)

    def test_translated_quadratic_is_a_margin_shift(self):
        # min_z lam/2 ||z + u||^2 + sum_i l(y_i x_i'z + s_i) is the plain
        # problem in v = z + u with shift s - y*(X'u), whatever u is: here u
        # has a component outside span(X) and p > n triggers the reduction
        rng = np.random.default_rng(7)
        features, labels = random_instance(rng, 30, 10)
        u, s = 3.0 * rng.standard_normal(30), rng.standard_normal(10)
        basis = np.linalg.qr(features)[0]
        assert np.linalg.norm(u - basis @ (basis.T @ u)) > 1.0
        loss, lam = logistic_loss(), 0.7
        v = solve_primal(features, labels, loss, lam,
                         margin_shift=s - labels * (features.T @ u)).weights
        z = v - u
        margins = labels * (features.T @ z) + s
        grad = lam * (z + u) + features @ (labels * loss.grad(margins))
        assert np.linalg.norm(grad) <= 1e-10

    @pytest.mark.parametrize("shift", [np.inf, np.nan])
    @pytest.mark.parametrize("d, n", [(12, 18), (30, 10)], ids=["full", "reduced"])
    def test_non_finite_start_fails_at_once(self, shift, d, n):
        # no Newton step can start from an infinite or NaN objective: no spinning to max_iters
        features, labels = random_instance(np.random.default_rng(8), d, n)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite") as info:
            solve_primal(features, labels, square_loss(), 0.7, margin_shift=np.full(n, shift))
        assert info.value.best.iterations == 0


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_blocked_back_substitution(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
    z = rng.standard_normal(n)
    np.testing.assert_allclose(upper @ solve._solve_upper(upper, z), z, rtol=0, atol=1e-12)


LU_SIZES = [1, 2, 55, 64, 499, 500, 501, 600]


def lu_system(kind, n):
    """``(a, b)``: a Newton Hessian of the loss labelled ``kind``, formed as the solver forms
    it, or for ``kind == "upper"`` an upper-triangular matrix like a Cholesky factor."""
    rng = np.random.default_rng(n)
    b = rng.standard_normal(n)
    if kind == "upper":
        return np.triu(rng.standard_normal((n, n))) + 4.0 * np.eye(n), b
    loss = THREE_LOSSES[LOSS_IDS.index(kind)]
    root = rng.standard_normal((n, n + 7)) * np.sqrt(loss.curvature(rng.standard_normal(n + 7)))
    hess = root @ root.T
    hess.flat[::n + 1] += 0.1
    return hess, b


def bundled_routine(name, argtypes):
    """numpy's bundled LAPACK routine ``name`` by its ILP64 name, typed, or skip."""
    lib = next((lib for lib in map(ctypes.CDLL, glob.glob(os.path.join(
        os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*.so*")))
        if hasattr(lib, f"scipy_{name}_64_")), None)
    if lib is None:
        pytest.skip(f"numpy bundles no {name}")
    routine = getattr(lib, f"scipy_{name}_64_")
    routine.argtypes, routine.restype = argtypes, None
    return routine


@pytest.fixture(params=["bundled", "fallback"])
def lapack_path(request, monkeypatch):
    """Run the solves on numpy's bundled LAPACK, or on their fallbacks with nothing bound."""
    if request.param == "bundled" and None in solve._openblas().values():
        pytest.skip("numpy bundles no OpenBLAS with these routines")
    if request.param == "fallback":
        unbound = dict.fromkeys(solve._openblas())
        monkeypatch.setattr(solve, "_openblas", lambda: unbound)
    return request.param


def progress_beside(solves):
    """How often a pure-Python thread ran while ``solves`` ran, switching only when the lock is free."""
    count, stop = [0], threading.Event()

    def spin():
        while not stop.is_set():
            count[0] += 1
            time.sleep(0)  # lets the solving thread take the lock back when its call returns

    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)  # no forced switch: the spinner runs only when the lock is free
    spinner = threading.Thread(target=spin)
    try:
        spinner.start()
        before = count[0]
        solves()
        progress = count[0] - before
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        spinner.join(timeout=60)
    assert not spinner.is_alive()
    return progress


class TestLuSolve:
    @pytest.mark.parametrize("n", LU_SIZES)
    @pytest.mark.parametrize("kind", [*LOSS_IDS, "upper"])
    def test_same_bits_as_numpy_solve(self, lapack_path, kind, n):
        a, b = lu_system(kind, n)
        expected = np.linalg.solve(a, b)
        # handed over as the solver does, the Hessian's own buffer, or a triangle's Fortran copy
        handed = np.array(a, order="F") if kind == "upper" else a.T
        rhs = b.copy()
        solution = solve._lu_solve(handed, rhs)
        assert solution.tobytes() == expected.tobytes()
        assert (solution is rhs) == (lapack_path == "bundled")  # dgesv solves in place

    def test_singular_matrix_raises(self, lapack_path):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            solve._lu_solve(np.ones((3, 3), order="F"), np.ones(3))

    def test_another_thread_runs_while_it_factors(self):
        # np.linalg.solve holds the interpreter lock while it factors up to 500 unknowns
        if solve._openblas()["dgesv"] is None:
            pytest.skip("numpy bundles no dgesv")
        systems = [lu_system("logistic", 500) for _ in range(5)]

        def solves():
            for hess, b in systems:
                solve._lu_solve(hess.T, b)

        assert progress_beside(solves) > 0  # exactly 0 while a solve holds the lock throughout


class TestCholeskySolve:
    @pytest.mark.parametrize("n", LU_SIZES)
    @pytest.mark.parametrize("kind", LOSS_IDS)
    def test_matches_numpy_solve(self, lapack_path, kind, n):
        a, b = lu_system(kind, n)
        expected = np.linalg.solve(a, b)
        rhs = b.copy()
        solution = solve._cholesky_solve(a.copy().T, rhs)  # the Hessian's own buffer, as Newton's
        assert (solution is rhs) == (lapack_path == "bundled")  # dpotrs solves in place
        # backward stable, as LU is: a residual at the rounding of a and the solution
        scale = np.linalg.norm(a, 1) * np.linalg.norm(solution, 1)
        assert np.linalg.norm(a @ solution - b, 1) <= 8 * n * np.finfo(float).eps * scale
        np.testing.assert_allclose(solution, expected, rtol=1e-9 * np.linalg.cond(a, 1), atol=0)

    @pytest.mark.parametrize("n", LU_SIZES)
    @pytest.mark.parametrize("kind", LOSS_IDS)
    def test_same_bits_as_dposv(self, kind, n):
        # reference LAPACK's dposv is dpotrf then dpotrs; bind numpy's bundled one here
        size_p, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        # uplo, n, nrhs, a, lda, b, ldb, info and uplo's hidden length
        dposv = bundled_routine("dposv", [ctypes.c_char_p, size_p, size_p, ptr, size_p, ptr,
                                          size_p, size_p, ctypes.c_size_t])
        a, b = lu_system(kind, n)
        expected_a, expected = a.copy().T, b.copy()
        size, info = ctypes.c_int64(n), ctypes.c_int64()
        dposv(b"L", size, ctypes.c_int64(1), expected_a.ctypes.data, size, expected.ctypes.data,
              size, info, 1)
        assert info.value == 0
        handed = a.copy().T
        solution = solve._cholesky_solve(handed, b.copy())
        assert solution.tobytes() == expected.tobytes()
        assert handed.tobytes() == expected_a.tobytes()  # the same factor, kept for dpotrs

    @pytest.mark.parametrize("a", [-np.eye(3), np.diag([1.0, 0.0, 1.0]), np.ones((3, 3))],
                             ids=["negative definite", "zero pivot", "rank one"])
    def test_not_positive_definite_raises(self, a):
        if None in (solve._openblas()["dpotrf"], solve._openblas()["dpotrs"]):
            pytest.skip("numpy bundles no dpotrf and dpotrs")
        with pytest.raises(np.linalg.LinAlgError, match="^Matrix is not positive definite$"):
            solve._cholesky_solve(np.array(a, order="F"), np.ones(3))

    def test_another_thread_runs_while_it_factors(self):
        if None in (solve._openblas()["dpotrf"], solve._openblas()["dpotrs"]):
            pytest.skip("numpy bundles no dpotrf and dpotrs")
        systems = [lu_system("logistic", 500) for _ in range(5)]

        def solves():
            for hess, b in systems:
                solve._cholesky_solve(hess.T, b)

        assert progress_beside(solves) > 0  # exactly 0 while a solve holds the lock throughout

    def test_a_refused_hessian_certifies_through_lu(self, monkeypatch):
        # rank-3 features at lam = 1e-300, as the digest's tiny-lambda runs: the Hessian is
        # singular but for rounding, which Cholesky refuses and LU's pivots get through
        lu_solve, calls = solve._lu_solve, [0]

        def counting_lu_solve(a, b):
            calls[0] += 1
            return lu_solve(a, b)

        monkeypatch.setattr(solve, "_lu_solve", counting_lu_solve)
        data = make_low_rank(20, 20, 3, "random", seed=0)
        sol = solve_primal(data.features, data.labels, square_loss(), 1e-300)
        assert sol.newton_dim == 20 and calls[0] == sol.iterations >= 1
        assert stationarity_norm(data.features, data.labels, square_loss(), 1e-300,
                                 sol.weights) <= 1e-10


class TestNewtonSetup:
    """One set-up shared by solves on the same features gives each the bits of a fresh one."""

    def test_a_refused_hessian_is_never_kept(self, monkeypatch):
        # rank-3 features at lam = 1e-300: Cholesky refuses the square loss's Hessian, which
        # LU then solves, and the set-up keeps no factor for a later step to reuse
        lu_solve, calls = solve._lu_solve, [0]

        def counting_lu_solve(a, b):
            calls[0] += 1
            return lu_solve(a, b)

        monkeypatch.setattr(solve, "_lu_solve", counting_lu_solve)
        data = make_low_rank(20, 20, 3, "random", seed=0)
        x, loss, lam = data.features, square_loss(), 1e-300
        setup = solve._NewtonSetup(x)
        margins, g = np.zeros(20), x @ (data.labels * loss.grad(np.zeros(20)))
        direction = setup.direction(x, lam, loss, margins, g)
        hess = x @ x.T
        hess.flat[::21] += lam
        assert direction.tobytes() == np.linalg.solve(hess, -g).tobytes()  # dgesv's bits
        assert calls == [1] and setup._factor is None

    def test_a_later_solve_the_gate_refuses_matches_a_fresh_one(self, monkeypatch):
        # top singular value 1 and lam = 0.01: the zero shift's norm bound passes CholeskyQR's
        # gate, and shifts of -1000, whose bound is 1000 times larger, fail it
        data = make_decaying_spectrum(200, 40, 2.0, seed=8, top_singular_value=1.0)
        loss, lam = square_loss(), 0.01
        shifts = [np.zeros(40), np.full(40, -1000.0), np.full(40, -1000.0), np.zeros(40)]
        setup = solve._NewtonSetup(data.features)
        qr_calls = count_qr_calls(monkeypatch)
        shared = []
        for shift, explicit in zip(shifts, [[], [(200, 40)], [(200, 40)], [(200, 40)]]):
            shared.append(solve_primal(data.features, data.labels, loss, lam, margin_shift=shift,
                                       setup=setup))
            assert qr_calls == explicit  # the QR formed at the first refusal, and kept
        fresh = [solve_primal(data.features, data.labels, loss, lam, margin_shift=shift)
                 for shift in shifts]
        assert qr_calls == [(200, 40)] * 3
        for one, other in zip(shared, fresh):
            assert one.weights.tobytes() == other.weights.tobytes()
            assert (one.grad_norm, one.iterations) == (other.grad_norm, other.iterations)

    def test_rejects_a_setup_of_other_features(self):
        features, labels = random_instance(np.random.default_rng(0), 30, 10)
        with pytest.raises(ValueError, match="other features"):
            solve_primal(features, labels, square_loss(), 1.0,
                         setup=solve._NewtonSetup(features.copy()))

    @pytest.mark.parametrize("v", [np.array([]), np.array([1.0, np.inf]), np.array([np.nan, 1.0]),
                                   np.full(3, 1e200), np.full(100, 1e200), np.arange(7.0)],
                             ids=["empty", "inf", "nan", "overflow", "long overflow", "finite"])
    def test_the_norm_taken_is_numpys(self, v):
        # the solver's and the recovery's norms are sqrt(v.dot(v)), np.linalg.norm's own sum
        with np.errstate(over="ignore"):
            assert np.float64(math.sqrt(v.dot(v))).tobytes() == np.linalg.norm(v).tobytes()


class TestCholeskyUpper:
    @pytest.mark.parametrize("p, n", [(2484, 500), (300, 60), (10, 1)])
    def test_same_bits_as_numpy_cholesky(self, lapack_path, p, n):
        cols = np.random.default_rng(n).standard_normal((p, n))
        gram = cols.T @ cols
        expected = np.linalg.cholesky(gram).T
        upper = solve._cholesky_upper(gram)
        assert upper.tobytes() == expected.tobytes()
        assert (upper.base is gram or upper is gram) == (lapack_path == "bundled")  # in place


@pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
@pytest.mark.parametrize("d,n", [(40, 60), (200, 80)], ids=["unreduced", "cholesky-qr"])
def test_newton_hands_over_an_exactly_symmetric_hessian(monkeypatch, loss, d, n):
    # dpotrf reads one triangle of the Hessian's C-ordered buffer, read in Fortran order,
    # which is the Hessian only if the Hessian equals its transpose exactly
    handed = []
    cholesky_solve = solve._cholesky_solve

    def recording_cholesky_solve(a, b):
        handed.append((a.shape, a.flags.f_contiguous and np.array_equal(a, a.T)))
        return cholesky_solve(a, b)

    monkeypatch.setattr(solve, "_cholesky_solve", recording_cholesky_solve)
    triangular = count_triangular_solves(monkeypatch)
    features, labels = random_instance(np.random.default_rng(d), d, n)
    sol = solve_primal(features, labels, loss, 0.5)
    k = min(d, n)
    assert sol.newton_dim == k and (triangular[0] > 0) == (d > n)
    hessians = [symmetric for shape, symmetric in handed if shape == (k, k)]
    assert len(hessians) == sol.iterations >= 1 and all(hessians)


class TestPivotedCholesky:
    """The reference ``greedy_pivoted_cholesky`` against LAPACK's dpstrf, through scipy."""

    @staticmethod
    def gram(case):
        rng = np.random.default_rng(21)
        if case == "zero":
            return np.zeros((7, 7))
        if case == "tied diagonal":  # every pivot choice starts from a tie
            return np.eye(6) + np.ones((6, 6))
        rank, n = {"full rank": (40, 40), "full rank, several panels": (150, 150),
                   "rank 1": (1, 40), "rank 5": (5, 40)}[case]
        features = rng.standard_normal((200, rank)) @ rng.standard_normal((rank, n))
        return features.T @ features

    @pytest.mark.parametrize("case", ["full rank", "full rank, several panels", "rank 1",
                                      "rank 5", "zero", "tied diagonal"])
    def test_matches_lapack_rank_and_factors(self, case):
        gram = self.gram(case)
        factor, piv, rank = greedy_pivoted_cholesky(gram)
        assert rank == scipy.linalg.lapack.dpstrf(gram, lower=1)[2]
        assert factor.shape == (len(gram), rank)
        assert np.array_equal(factor, np.tril(factor))
        assert sorted(piv) == list(range(len(gram)))
        residual = gram[np.ix_(piv, piv)] - factor @ factor.T
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(gram)


class TestLowRankPivots:
    """``_low_rank_pivots`` picks ``greedy_pivoted_cholesky``'s pivots without the Gram matrix."""

    @staticmethod
    def columns(case):
        rng = np.random.default_rng(22)
        if case == "zero":
            return np.zeros((30, 7))
        if case == "duplicate columns":  # each diagonal entry is tied with its twin's
            return np.repeat(rng.standard_normal((50, 3)) @ rng.standard_normal((3, 6)), 2, axis=1)
        rank, n = {"rank 1": (1, 40), "rank 5": (5, 40), "rank at the limit": (LOW_RANK_PIVOTS, 40),
                   "low rank, few columns": (3, 6), "rank above the limit": (LOW_RANK_PIVOTS + 1, 40),
                   "full rank": (40, 40), "full rank, few columns": (6, 6)}[case]
        return rng.standard_normal((200, rank)) @ rng.standard_normal((rank, n))

    @pytest.mark.parametrize("case", ["rank 1", "rank 5", "rank at the limit", "zero",
                                      "duplicate columns", "low rank, few columns"])
    def test_matches_the_gram_factorisation(self, case):
        cols = self.columns(case)
        piv, rank = _low_rank_pivots(cols, LOW_RANK_PIVOTS)
        _, gram_piv, gram_rank = greedy_pivoted_cholesky(cols.T @ cols)
        assert rank == gram_rank
        assert np.array_equal(piv, gram_piv[:rank])

    @pytest.mark.parametrize("case", ["rank above the limit", "full rank",
                                      "full rank, few columns"])
    def test_gives_up_above_the_limit_and_at_full_rank(self, case):
        assert _low_rank_pivots(self.columns(case), LOW_RANK_PIVOTS) is None

    @pytest.mark.parametrize("case", ["rank above the limit", "duplicate columns"])
    def test_a_limit_of_n_minus_1_finds_any_rank_below_full(self, case):
        cols = self.columns(case)
        piv, rank = _low_rank_pivots(cols, cols.shape[1] - 1)
        _, gram_piv, gram_rank = greedy_pivoted_cholesky(cols.T @ cols)
        assert rank == gram_rank
        assert np.array_equal(piv, gram_piv[:rank])

    @pytest.mark.parametrize("case", ["full rank", "full rank, few columns"])
    def test_a_limit_of_n_minus_1_gives_up_at_full_rank(self, case):
        cols = self.columns(case)
        assert _low_rank_pivots(cols, cols.shape[1] - 1) is None

    # the digest's recover-rank-above-pivot-limit span (rank 12) and a rank-20 span
    @pytest.mark.parametrize("d,n,r", [(60, 20, 12), (1200, 300, 20)])
    def test_reading_the_gram_matrix_finds_the_same_pivots(self, d, n, r):
        cols = make_low_rank(d, n, r, "random", seed=0).features
        piv, rank = _low_rank_pivots(cols, n - 1)
        gram_piv, gram_rank = _low_rank_pivots(cols, n - 1, cols.T @ cols)
        assert rank == gram_rank == r
        assert np.array_equal(piv, gram_piv)

    def test_the_span_basis_retry_reads_the_gram_matrix_it_formed(self, monkeypatch):
        grams = []

        def spy(cols, limit, gram=None):
            grams.append(gram)
            return _low_rank_pivots(cols, limit, gram)

        monkeypatch.setattr(solve, "_low_rank_pivots", spy)
        cols = make_low_rank(60, 20, 12, "random", seed=0).features
        coords, _, _ = _span_basis(cols)
        assert coords.shape == (12, 20)
        # whole, though the refused Cholesky factorisation overwrote part of the first one
        assert grams[0] is None and grams[1].tobytes() == (cols.T @ cols).tobytes()


class TestSpanReduction:
    """Newton runs in the numerical rank of the span, and falls back to QR when unsure."""

    # ranks above LOW_RANK_PIVOTS are found once the Gram matrix has no Cholesky factor
    @pytest.mark.parametrize("d,n,r", [(3000, 200, 20), (5000, 300, 5), (600, 120, 100)])
    def test_low_rank_runs_in_rank_dimensions(self, d, n, r):
        data = make_low_rank(d, n, r, "random", seed=7)
        coords, to_full, _ = _span_basis(data.features)
        assert coords.shape == (r, n)
        basis = np.column_stack([to_full(e) for e in np.eye(r)])
        assert basis.shape == (d, r)
        assert np.max(np.abs(basis.T @ basis - np.eye(r))) <= 1e-14
        sol = solve_primal(data.features, data.labels, logistic_loss(), 1.0,
                           SolverConfig(tolerance=1e-12))
        assert sol.newton_dim == r
        assert sol.grad_norm <= 1e-12
        assert stationarity_norm(data.features, data.labels, logistic_loss(), 1.0,
                                 sol.weights) <= 1e-12

    def test_low_rank_residual_check_forms_no_full_temporary(self):
        # the check sums the residual over row blocks, so the reduction holds far less than
        # one more copy of the columns
        data = make_low_rank(5000, 300, 5, "random", seed=7)
        tracemalloc.start()
        try:
            coords, _, _ = _span_basis(data.features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coords.shape == (5, 300)
        assert peak <= data.features.nbytes / 4

    @pytest.mark.parametrize("d,n,r", [(5000, 300, 5), (500, 200, 2)])
    def test_low_rank_span_forms_no_gram_matrix(self, monkeypatch, d, n, r):
        def no_gram(gram):
            raise AssertionError("the Gram matrix was factored")

        monkeypatch.setattr(solve, "_cholesky_upper", no_gram)
        data = make_low_rank(d, n, r, "random", seed=7)
        coords, _, _ = _span_basis(data.features)
        assert coords.shape == (r, n)

    # Full rank but ill-conditioned: the Cholesky factor may not exist or
    # fail its gate, and the explicit QR must then keep every direction.
    @pytest.mark.parametrize("lam", [1e-3, 1.0])
    @pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
    @pytest.mark.parametrize("decay", [2.0, 3.0, 6.0])
    def test_ill_conditioned_full_rank_keeps_every_direction(self, decay, loss, lam):
        data = make_decaying_spectrum(600, 120, decay, seed=8)
        sol = solve_primal(data.features, data.labels, loss, lam)
        assert sol.newton_dim == 120
        assert sol.grad_norm <= 1e-10
        assert stationarity_norm(data.features, data.labels, loss, lam, sol.weights) <= 1e-10

    # Full rank with p > n: Newton runs on the Gram matrix's Cholesky factor,
    # Q stays implicit.
    @pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
    def test_full_rank_matches_explicit_basis(self, loss):
        rng = np.random.default_rng(12)
        features, labels = random_instance(rng, 300, 60)
        tight = SolverConfig(tolerance=1e-12)
        sol = solve_primal(features, labels, loss, 1.0, tight)
        assert sol.newton_dim == 60
        assert sol.grad_norm <= 1e-12
        assert stationarity_norm(features, labels, loss, 1.0, sol.weights) <= 1e-12
        basis = np.linalg.qr(features)[0]
        explicit = basis @ solve_primal(basis.T @ features, labels, loss, 1.0, tight).weights
        assert np.linalg.norm(sol.weights - explicit) <= 1e-12 * np.linalg.norm(explicit)

    def test_shifted_full_rank_certifies_in_full_space(self):
        rng = np.random.default_rng(13)
        features, labels = random_instance(rng, 80, 20)
        shift = rng.standard_normal(20)
        sol = solve_primal(features, labels, logistic_loss(), 0.7, margin_shift=shift)
        assert sol.newton_dim == 20
        margins = labels * (features.T @ sol.weights) + shift
        grad = 0.7 * sol.weights + features @ (labels * logistic_loss().grad(margins))
        assert np.linalg.norm(grad) <= 1e-10

    def test_full_rank_span_forms_no_explicit_q(self, monkeypatch):
        qr_calls = count_qr_calls(monkeypatch)
        rng = np.random.default_rng(14)
        features, labels = random_instance(rng, 200, 40)
        solve_primal(features, labels, logistic_loss(), 1.0)
        assert qr_calls == []
        # the same counter sees the low-rank branch's explicit QR
        low = make_low_rank(200, 40, 3, "random", seed=14)
        solve_primal(low.features, low.labels, logistic_loss(), 1.0)
        assert qr_calls == [(200, 3)]
        # a steep span's Gram matrix has no Cholesky factor; the pivoting then stops
        # at rank 15, whose QR fails the residual check, and all the columns get one
        steep = make_decaying_spectrum(600, 120, 6.0, seed=8)
        qr_calls.clear()
        solve_primal(steep.features, steep.labels, logistic_loss(), 1.0)
        assert qr_calls == [(600, 15), (600, 120)]

    def test_cholesky_basis_is_gated_on_its_rounding_floor(self, monkeypatch):
        # CholeskyQR's map back costs about cond(X) digits.  At top singular
        # value 1 its floor is far below the tolerance; at 30 (and lam = 0.01)
        # it is not, and the span gets the explicit QR before any solve.
        qr_calls = count_qr_calls(monkeypatch)
        for top, expected in [(1.0, []), (30.0, [(200, 40)])]:
            data = make_decaying_spectrum(200, 40, 2.0, seed=8, top_singular_value=top)
            qr_calls.clear()
            sol = solve_primal(data.features, data.labels, square_loss(), 0.01)
            assert qr_calls == expected
            assert sol.newton_dim == 40 and sol.grad_norm <= 1e-10
            assert stationarity_norm(data.features, data.labels, square_loss(), 0.01,
                                     sol.weights) <= 1e-10

    @pytest.mark.parametrize("order", ["permuted", "increasing"])
    def test_cholesky_gate_refuses_with_unsorted_column_scales(self, monkeypatch, order):
        # column scales over two decades, out of order: the unpivoted diagonal of U overstates
        # sigma_min more than a pivoted one, yet at top singular value 30 the gate still refuses
        qr_calls = count_qr_calls(monkeypatch)
        perm = {"permuted": np.random.default_rng(3).permutation(40),
                "increasing": np.arange(40)[::-1]}[order]
        for top, expected in [(1.0, []), (30.0, [(200, 40)])]:
            data = make_decaying_spectrum(200, 40, 2.0, seed=8, top_singular_value=top)
            features = (data.features * np.logspace(0, -2, 40))[:, perm]
            qr_calls.clear()
            sol = solve_primal(features, data.labels, square_loss(), 0.01)
            assert qr_calls == expected
            assert sol.newton_dim == 40 and sol.grad_norm <= 1e-10
            assert stationarity_norm(features, data.labels, square_loss(), 0.01,
                                     sol.weights) <= 1e-10

    def test_gate_overflow_refuses_the_cholesky_basis_without_a_warning(self):
        # past column norms of ~1e102 the gate's max(diag G)^1.5 overflows to inf, which
        # refuses the basis; the logistic solve then stalls, as it does at smaller scales
        rng = np.random.default_rng(0)
        features, labels = random_instance(rng, 30, 4)
        features *= 1e110
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="stalled"):
                solve_primal(features, labels, logistic_loss(), 1.0)
            # margins shifted past the hinge give F(0) = 0, a zero norm bound and a NaN gate
            sol = solve_primal(features, labels, smoothed_hinge_loss(1.0), 1.0,
                               margin_shift=np.full(4, 10.0))
        assert sol.grad_norm == 0.0 and not sol.weights.any()

    def test_full_space_margins_refine_a_failed_certificate(self):
        # the reduced solve converges, but its weights miss the tolerance by
        # the basis's rounding; Newton continues on margins from the weights
        data = make_decaying_spectrum(200, 40, 3.75, seed=8, top_singular_value=1000.0)
        sol = solve_primal(data.features, data.labels, square_loss(), 0.01)
        assert sol.newton_dim == 40 and sol.grad_norm <= 1e-10
        assert stationarity_norm(data.features, data.labels, square_loss(), 0.01,
                                 sol.weights) <= 1e-10

    def test_iterative_passes_on_full_rank_sketch_form_no_explicit_q(self, monkeypatch):
        # the shifted passes reduce onto the sketched columns alone, so a
        # full-rank sketched span keeps Q implicit on every pass; the data
        # and sketch are drawn before the counter is installed
        data = make_decaying_spectrum(200, 40, 1.0, seed=15)
        sk = gaussian_sketch(data, 120, seed=15)
        qr_calls = count_qr_calls(monkeypatch)
        recover_iterative(data, logistic_loss(), 1.0, sk, 4)
        assert qr_calls == []

    def test_all_zero_features(self):
        labels = np.array([1.0, -1.0, 1.0, 1.0])
        for loss in THREE_LOSSES:
            sol = solve_primal(np.zeros((10, 4)), labels, loss, 1.0)
            np.testing.assert_array_equal(sol.weights, np.zeros(10))

    def test_square_loss_matches_ridge_closed_form(self):
        data = make_low_rank(800, 60, 4, "random", seed=9)
        sol = solve_primal(data.features, data.labels, square_loss(), 0.5)
        exact = ridge_closed_form(data.features, data.labels, 0.5)
        assert sol.newton_dim == 4
        assert np.linalg.norm(sol.weights - exact) <= 1e-9 * np.linalg.norm(exact)

    def test_shifted_solve_on_low_rank_sketch(self):
        data = make_low_rank(400, 30, 3, "random", seed=10)
        sketched = gaussian_sketch(data, 60, seed=10).sketched_features
        rng = np.random.default_rng(10)
        shift = rng.standard_normal(30)
        sol = solve_primal(sketched, data.labels, logistic_loss(), 0.7, margin_shift=shift)
        assert sol.newton_dim <= 3
        assert sol.grad_norm <= 1e-10
        margins = data.labels * (sketched.T @ sol.weights) + shift
        grad = 0.7 * sol.weights + sketched @ (data.labels * logistic_loss().grad(margins))
        assert np.linalg.norm(grad) <= 1e-10


class TestRidgeClosedForm:
    def test_identity_features(self):
        w = ridge_closed_form(np.eye(2), np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)

    def test_zero_features(self):
        w = ridge_closed_form(np.zeros((3, 2)), np.array([1.0, -1.0]), 0.3)
        np.testing.assert_allclose(w, 0.0, atol=0)

    def test_matches_iterative_solver(self):
        rng = np.random.default_rng(7)
        features, labels = random_instance(rng, 50, 30)
        w_closed = ridge_closed_form(features, labels, 0.7)
        sol = solve_primal(features, labels, square_loss(), 0.7)
        rel = np.linalg.norm(w_closed - sol.weights) / np.linalg.norm(w_closed)
        assert rel <= 1e-7

    def test_both_woodbury_branches_agree(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            d = int(rng.integers(2, 40))
            n = int(rng.integers(2, 40))
            features, labels = random_instance(rng, d, n)
            lam = float(rng.uniform(0.1, 10.0))
            primal_sys = features @ features.T + lam * np.eye(d)
            w_primal = scipy.linalg.solve(primal_sys, features @ labels, assume_a="pos")
            dual_sys = features.T @ features + lam * np.eye(n)
            w_dual = features @ scipy.linalg.solve(dual_sys, labels, assume_a="pos")
            scale = np.linalg.norm(w_primal)
            assert np.linalg.norm(w_primal - w_dual) <= 1e-9 * max(scale, 1e-30)
            w = ridge_closed_form(features, labels, lam)
            assert np.linalg.norm(w - w_primal) <= 1e-9 * max(scale, 1e-30)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            ridge_closed_form(np.eye(2), np.array([1.0, 1.0]), -1.0)


class TestConversions:
    def test_dual_zero_at_unit_margins(self):
        # pick w so every margin is exactly 1
        features = np.eye(3)
        labels = np.array([1.0, -1.0, 1.0])
        w = labels.copy()  # y_i x_i' w = y_i^2 = 1
        dual = dual_from_primal(features, labels, square_loss(), w)
        np.testing.assert_allclose(dual, 0.0, atol=0)

    def test_dual_at_zero_weights(self):
        rng = np.random.default_rng(9)
        features, labels = random_instance(rng, 6, 4)
        dual = dual_from_primal(features, labels, square_loss(), np.zeros(6))
        np.testing.assert_allclose(dual, -1.0, atol=0)

    def test_primal_from_zero_dual(self):
        rng = np.random.default_rng(10)
        features, labels = random_instance(rng, 6, 4)
        w = primal_from_dual(features, labels, 1.0, np.zeros(4))
        np.testing.assert_allclose(w, 0.0, atol=0)

    def test_primal_from_dual_hand_value(self):
        features = np.array([[2.0], [0.0]])
        labels = np.array([-1.0])
        w = primal_from_dual(features, labels, 2.0, np.array([-1.0]))
        np.testing.assert_allclose(w, [-1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
    def test_round_trip_at_optimum(self, loss):
        rng = np.random.default_rng(11)
        features, labels = random_instance(rng, 12, 16)
        lam, tol = 0.5, 1e-10
        sol = solve_primal(features, labels, loss, lam, SolverConfig(tolerance=tol))
        dual = dual_from_primal(features, labels, loss, sol.weights)
        back = primal_from_dual(features, labels, lam, dual)
        assert np.linalg.norm(back - sol.weights) <= 10.0 * tol / lam

    @pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
    def test_dual_at_shifted_margins(self, loss):
        # the read-off of an iterative-recovery pass: the gradient at y_i x_i' w + s_i, bit
        # for bit; with no shift, the unshifted margins' gradient, also bit for bit
        rng = np.random.default_rng(13)
        features, labels = random_instance(rng, 9, 14)
        w, shift = rng.standard_normal(9), rng.standard_normal(14)
        shifted = dual_from_primal(features, labels, loss, w, margin_shift=shift)
        np.testing.assert_array_equal(shifted, loss.grad(labels * (features.T @ w) + shift))
        unshifted = dual_from_primal(features, labels, loss, w)
        np.testing.assert_array_equal(unshifted, loss.grad(labels * (features.T @ w)))
        assert not np.array_equal(shifted, unshifted)


class TestDualObjective:
    def test_zero_dual_square(self):
        g = np.eye(3)
        assert dual_objective(g, square_loss(), 1.0, np.zeros(3)) == 0.0

    def test_hand_value(self):
        g = np.array([[4.0]])
        value = dual_objective(g, square_loss(), 2.0, np.array([-1.0]))
        assert value == pytest.approx(-0.5, abs=1e-14)

    def test_rejects_domain_violation(self):
        g = np.eye(2)
        with pytest.raises(ValueError):
            dual_objective(g, logistic_loss(), 1.0, np.array([0.5, -0.5]))

    @pytest.mark.parametrize("loss", THREE_LOSSES, ids=LOSS_IDS)
    def test_strong_duality_gap(self, loss):
        rng = np.random.default_rng(12)
        for _ in range(5):
            d = int(rng.integers(3, 50))
            n = int(rng.integers(3, 50))
            features, labels = random_instance(rng, d, n)
            lam = float(rng.uniform(0.2, 5.0))
            sol = solve_primal(features, labels, loss, lam)
            dual = dual_from_primal(features, labels, loss, sol.weights)
            g = (features.T @ features) * np.outer(labels, labels)
            gap = sol.objective - dual_objective(g, loss, lam, dual)
            assert abs(gap) <= 1e-6


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
