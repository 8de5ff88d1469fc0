"""Solvers for the regularized ERM problem and primal/dual conversions.

The primal problem in a space of dimension p is

    min_w  lam/2 ||w||^2 + sum_i l(y_i x_i' w)

over the columns x_i of a p x n feature matrix.  ``solve_primal`` also
covers the sketched problem (pass the sketched features) and, through a
per-example margin shift, each pass of iterative recovery.  The contract is
a gradient-norm certificate: a returned solution always satisfies
||grad|| <= tolerance, where the gradient is evaluated in the space the
caller handed in; failure to certify raises ``ConvergenceError`` carrying
the best iterate.

The method is damped Newton with a Cholesky-factored exact Hessian.  When
p exceeds n the iterate provably lies in the span of the feature columns,
so the problem is first reduced onto coordinates in that span; the
certificate is still evaluated in the full space, on every exit and once
the reduced gradient meets the tolerance (its norm never exceeds the full
one).  The span's numerical rank k, not its column count, sets the
dimension: a pivoted Cholesky of the columns' Gram matrix (LAPACK dpstrf)
reveals k and picks k pivot columns, whose p x k Householder QR is an
explicit basis.  Newton then runs in k dimensions, which on rank-r data is
r rather than n.  The rank-k basis is kept only if it reproduces the
columns to within ``SPAN_RESIDUAL`` of their Frobenius norm.  When the
columns have full rank, or are all zero, or the check fails (an
ill-conditioned full-rank span whose small singular values the Cholesky
tolerance cut off), the columns get a Householder QR whose Q stays in
factored form: Newton runs on the R factor, which holds the columns'
coordinates, and the stored reflectors (LAPACK dormqr) map an iterate to
the full space only for the certificate and the returned weights.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .losses import LossSpec

__all__ = [
    "SolverConfig",
    "PrimalSolution",
    "ConvergenceError",
    "LinearSolveError",
    "solve_primal",
    "ridge_closed_form",
    "dual_from_primal",
    "primal_from_dual",
    "dual_objective",
    "primal_objective",
]

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000

ARMIJO_C = 1e-4
MIN_STEP = 2.0**-40
NOISE_EPS = 8.0 * np.finfo(float).eps
# A rank-reduced span basis must reproduce the columns to this relative
# Frobenius residual; exactly low-rank data measures 2-6 eps.
SPAN_RESIDUAL = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class PrimalSolution:
    """Weights plus solver diagnostics."""

    weights: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    newton_dim: int  # dimension of the space Newton ran in


class ConvergenceError(RuntimeError):
    """Raised when the gradient certificate cannot be met; carries the best iterate."""

    def __init__(self, message: str, best: PrimalSolution):
        super().__init__(message)
        self.best = best


class LinearSolveError(RuntimeError):
    """A direct linear solve failed (singular or numerically unusable system)."""


def primal_objective(features, labels, loss: LossSpec, lam: float, weights) -> float:
    """Value of the regularized ERM objective at ``weights``."""
    margins = labels * (features.T @ weights)
    return float(0.5 * lam * np.dot(weights, weights) + np.sum(loss.value(margins)))


def _span_basis(cols: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Coordinates of ``cols`` in a basis of their span, and the map back.

    Returns ``(coords, to_full)``: ``coords`` is k x n with
    ``cols = basis @ coords``, and ``to_full(z)`` is ``basis @ z`` for a
    k-vector ``z``.  When a rank-k subset of the columns reproduces all of
    them to within ``SPAN_RESIDUAL`` of their Frobenius norm, the basis is
    the explicit p x k QR of those columns.  Otherwise (full rank, rank 0 or
    a failed check) it is the Q of the columns' Householder QR, never
    formed: ``coords`` is R, and ``to_full`` applies the reflectors.
    """
    p, n = cols.shape
    _, piv, rank, _ = scipy.linalg.lapack.dpstrf(cols.T @ cols, lower=1)
    if 0 < rank < n:
        basis = np.linalg.qr(cols[:, piv[:rank] - 1])[0]
        coords = basis.T @ cols
        residual = basis @ coords  # one p x n temporary; its norm is ||cols - basis @ coords||
        residual -= cols
        if np.linalg.norm(residual) <= SPAN_RESIDUAL * np.linalg.norm(cols):
            return coords, lambda z: basis @ z
    # The reflectors come back in Fortran order, which dormqr reads without
    # a copy; a C-order array would be copied on every apply.
    (reflectors, tau), r_factor = scipy.linalg.qr(cols, mode="raw", check_finite=False)

    def to_full(z):
        full = np.zeros((p, 1), order="F")
        full[:n, 0] = z
        # lwork=1 selects the unblocked reflector loop, the fastest for one vector
        applied = scipy.linalg.lapack.dormqr("L", "N", reflectors, tau, full, 1, overwrite_c=1)[0]
        return applied[:, 0]

    return r_factor, to_full


def solve_primal(
    features,
    labels,
    loss: LossSpec,
    lam: float,
    config: SolverConfig = SolverConfig(),
    margin_shift=None,
) -> PrimalSolution:
    """Minimize the regularized ERM objective with a gradient-norm certificate.

    Works for the original problem (pass the d x n features) and the
    sketched one (pass the m x n sketched features).  With ``margin_shift``
    it solves

        min_w lam/2 ||w||^2 + sum_i l(y_i w' x_i + margin_shift_i).

    A translated regularizer lam/2 ||z + u||^2 is this problem in w = z + u
    with margin_shift_i reduced by y_i u' x_i; iterative recovery poses
    every pass that way.

    Raises ``ConvergenceError`` carrying the best iterate when the
    certificate cannot be met within ``config.max_iterations``.
    """
    x_full = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    if x_full.ndim != 2 or y.shape != (x_full.shape[1],):
        raise ValueError("features must be p x n with one label per column")
    p, n = x_full.shape
    shift = np.zeros(n) if margin_shift is None else np.asarray(margin_shift, dtype=float)

    # The minimizer lies in the span of the columns of X; reduce when that helps.
    x, to_full = _span_basis(x_full) if p > n else (x_full, lambda z: z)
    k = x.shape[0]

    def evaluate(z):
        margins = y * (x.T @ z) + shift
        f = 0.5 * lam * np.dot(z, z) + float(np.sum(loss.value(margins)))
        return f, margins

    z = np.zeros(k)
    f, margins = evaluate(z)
    coef = y * loss.grad(margins)
    g = lam * z + x @ coef
    iters = 0

    def certified():
        """The current iterate in the full space, with its full-space gradient norm."""
        z_f = to_full(z)
        return PrimalSolution(
            weights=z_f,
            objective=f,
            grad_norm=float(np.linalg.norm(lam * z_f + x_full @ coef)),
            iterations=iters,
            newton_dim=k,
        )

    while True:
        # ||g|| = ||Q'g_full|| <= ||g_full||: the certificate cannot pass first
        if np.linalg.norm(g) <= config.tolerance and (best := certified()).grad_norm <= config.tolerance:
            return best
        if iters >= config.max_iterations:
            best = certified()
            raise ConvergenceError(
                f"no convergence after {iters} iterations (grad norm {best.grad_norm:.3e})", best
            )
        curv = loss.curvature(margins)
        hess = (x * curv) @ x.T
        hess[np.diag_indices_from(hess)] += lam
        c_factor, info = scipy.linalg.lapack.dpotrf(hess, lower=1, overwrite_a=1)
        if info > 0:  # lam > 0 makes this unlikely
            raise ConvergenceError(
                "Hessian factorization failed: "
                f"{info}-th leading minor of the array is not positive definite", certified()
            )
        direction = scipy.linalg.lapack.dpotrs(c_factor, -g, lower=1)[0]
        slope = float(g @ direction)
        if slope >= 0.0:
            direction, slope = -g, -float(g @ g)

        # Accept a backtracked step only while its decrease is measurable
        # above the float noise of evaluating f; otherwise the search would
        # accept zero-progress micro-steps and stall short of the optimum.
        noise = NOISE_EPS * (1.0 + abs(f))
        step = 1.0
        accepted = False
        while step >= MIN_STEP:
            z_new = z + step * direction
            f_new, margins_new = evaluate(z_new)
            if f_new <= f + ARMIJO_C * step * slope and f - f_new > noise:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # Objective differences are below float resolution; take the full
            # Newton step if it still shrinks the gradient (quadratic endgame).
            z_new = z + direction
            f_new, margins_new = evaluate(z_new)
            coef_new = y * loss.grad(margins_new)
            g_new = lam * z_new + x @ coef_new
            if np.linalg.norm(g_new) <= 0.9 * np.linalg.norm(g) and f_new <= f + 1e-12 * (1.0 + abs(f)):
                z, f, margins, coef, g = z_new, f_new, margins_new, coef_new, g_new
                iters += 1
                continue
            best = certified()
            raise ConvergenceError(
                f"stalled at the floating-point floor (grad norm {best.grad_norm:.3e}, "
                f"tolerance {config.tolerance:.3e})",
                best,
            )
        z, f, margins = z_new, f_new, margins_new
        coef = y * loss.grad(margins)
        g = lam * z + x @ coef
        iters += 1


def ridge_closed_form(features, labels, lam: float) -> np.ndarray:
    """Exact ridge solution via whichever of the two normal systems is smaller.

    Solves (lam I + X X') w = X y when d <= n and uses the equivalent
    w = X (lam I + X' X)^{-1} y otherwise; the two agree up to roundoff.
    """
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    d, n = x.shape
    try:
        if d <= n:
            a = x @ x.T
            a[np.diag_indices_from(a)] += lam
            return scipy.linalg.solve(a, x @ y, assume_a="pos")
        a = x.T @ x
        a[np.diag_indices_from(a)] += lam
        return x @ scipy.linalg.solve(a, y, assume_a="pos")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise LinearSolveError(f"ridge system could not be solved: {exc}") from exc


def dual_from_primal(features, labels, loss: LossSpec, weights) -> np.ndarray:
    """Dual vector read off a primal solution: alpha_i = grad l(y_i x_i' w), one per example."""
    margins = np.asarray(labels, dtype=float) * (np.asarray(features, dtype=float).T @ weights)
    return np.asarray(loss.grad(margins), dtype=float)


def primal_from_dual(features, labels, lam: float, alphas) -> np.ndarray:
    """Map a dual vector back to weights: w = -(1/lam) sum_i alpha_i y_i x_i."""
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    return -(x @ (y * np.asarray(alphas, dtype=float))) / lam


def dual_objective(gram_matrix, loss: LossSpec, lam: float, alphas) -> float:
    """Value of the concave dual: -sum_i l*(alpha_i) - alpha' G alpha / (2 lam)."""
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    alphas = np.asarray(alphas, dtype=float)
    conj = loss.conjugate(alphas)  # raises on a domain violation
    quad = float(alphas @ (np.asarray(gram_matrix, dtype=float) @ alphas))
    return float(-np.sum(conj) - quad / (2.0 * lam))
