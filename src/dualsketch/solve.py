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

The method is damped Newton on the exact Hessian, formed as one symmetric
product and solved by LU.  When p exceeds n the iterate lies in the span of
the feature columns, so Newton runs on coordinates in that span; the
certificate is evaluated in the full space, from margins recomputed there.
A greedy pivoted Cholesky of the Gram matrix, run on the columns and forming
only its pivots' Gram columns, looks for a rank k of at most
``LOW_RANK_PIVOTS``; Newton then runs on an explicit QR of the k pivot
columns if it reproduces the columns to within ``SPAN_RESIDUAL``.  Past that
limit the Gram matrix is formed and factored, ``X' X = U' U``, and when the
diagonals put the rounding of the CholeskyQR basis ``X U^-1`` below the
tolerance, Newton runs on U.  A Gram matrix with no Cholesky factor sends
the pivoting on, up to rank n - 1 and reading that matrix's columns, to the
same rank-k check.  Otherwise Newton runs on the explicit QR of all the
columns.  Failed certificates send Newton on with margins computed from the
weights.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import math

import numpy as np

from .losses import LossSpec

__all__ = [
    "SolverConfig",
    "PrimalSolution",
    "ConvergenceError",
    "solve_primal",
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
# the rows of a triangular solve done per block
SOLVE_BLOCK = 64
# the rows of the span residual formed per block
RESIDUAL_ROWS = 512
# the most pivots taken on a span's own columns before its Gram matrix is formed
LOW_RANK_PIVOTS = 8


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


def primal_objective(features, labels, loss: LossSpec, lam: float, weights) -> float:
    """Value of the regularized ERM objective at ``weights``."""
    margins = labels * (features.T @ weights)
    return float(0.5 * lam * np.dot(weights, weights) + np.sum(loss.value(margins)))


def _low_rank_pivots(cols: np.ndarray, limit: int, gram: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, int] | None:
    """Pivots and rank of the pivoted Cholesky of ``cols' cols``, or None past ``limit``.

    Pivots greedily on the largest remaining diagonal and stops, as LAPACK's
    dpstrf does by default, once that is at most n * eps/2 * max(diag).  Each
    pivot reads its own Gram column from ``gram`` when the caller has formed
    it, and otherwise forms only that column, from the columns themselves.
    None when the rank exceeds ``limit`` or is full.
    """
    n = cols.shape[1]
    diag = np.einsum("ij,ij->j", cols, cols)
    stop = n * 0.5 * np.finfo(float).eps * (diag.max() if n else 0.0)
    last = min(limit, n - 1)
    factor = np.empty((limit, n))  # row j: column j of L, over cols' columns
    piv = []
    for rank in range(last + 1):
        q = int(diag.argmax())
        if not diag[q] > stop:  # also stops on NaN
            return np.array(piv, dtype=int), rank
        if rank == last:
            break
        col = factor[rank]
        np.dot(factor[:rank, q], factor[:rank], out=col)
        np.subtract(cols.T @ cols[:, q] if gram is None else gram[:, q], col, out=col)
        col *= 1.0 / math.sqrt(diag[q])
        diag -= col * col
        diag[q] = -np.inf
        piv.append(q)
    return None


def _solve_upper(upper: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``upper^-1 z`` for an upper-triangular ``upper``: back-substitution by blocks of rows.

    Each diagonal block goes to LU, which swaps no rows of a triangular matrix.
    """
    y = np.array(z, dtype=float)
    for start in reversed(range(0, len(y), SOLVE_BLOCK)):
        block = slice(start, start + SOLVE_BLOCK)
        rhs = y[block] - upper[block, block.stop:] @ y[block.stop:]
        y[block] = np.linalg.solve(upper[block, block], rhs)
    return y


def _span_basis(cols: np.ndarray, tolerance: float, bound: float,
                ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Coordinates ``coords`` (k x n) of ``cols`` in a basis of their span, and ``to_full``.

    ``cols = basis @ coords`` and ``to_full(z) = basis @ z``.  At a rank k of
    at most ``LOW_RANK_PIVOTS``, found on the columns themselves, the basis is
    the QR of the k pivot columns if that passes the residual check.  Past
    that limit it is CholeskyQR's ``cols U^-1``, never formed, for the
    Cholesky factor U of the Gram matrix, if the rounding the basis leaves
    in the gradient at weights of norm ``bound`` is within ``tolerance``.
    When U does not exist the pivoting goes on up to rank n - 1, on the
    formed Gram matrix's columns, and a rank k it finds gets the same QR and
    check.  Failing these, the basis is the QR of all the columns.  The
    residual check forms ``cols - basis @ coords`` ``RESIDUAL_ROWS`` rows
    at a time, so no p x n temporary is held beside the columns.
    """
    if (low := _low_rank_pivots(cols, LOW_RANK_PIVOTS)) is None:
        gram = cols.T @ cols
        try:
            upper = np.linalg.cholesky(gram).T
        except np.linalg.LinAlgError:  # a singular Gram matrix: look for the rank below n
            low = _low_rank_pivots(cols, cols.shape[1] - 1, gram)
            del gram
        else:
            # eps * cond * ||cols||^2 from the diagonals, as max(diag G)^1.5 / min(diag U):
            # CholeskyQR's map back loses about cond digits; inf or NaN refuses the basis
            with np.errstate(over="ignore", invalid="ignore"):
                floor = (np.finfo(float).eps * gram.diagonal().max() ** 1.5
                         / upper.diagonal().min() * bound)
            if floor <= tolerance:
                return upper, lambda z: cols @ _solve_upper(upper, z)
            del gram, upper  # not held through the p x n temporaries below
    if low is not None and low[1] > 0:
        basis = np.linalg.qr(cols[:, low[0]])[0]
        coords = basis.T @ cols
        squares = 0.0  # ||cols - basis @ coords||^2, summed over row blocks: no p x n temporary
        for start in range(0, len(cols), RESIDUAL_ROWS):
            rows = slice(start, start + RESIDUAL_ROWS)
            residual = basis[rows] @ coords
            residual -= cols[rows]
            squares += float(np.vdot(residual, residual))
            del residual  # freed before the next block's is formed
        if math.sqrt(squares) <= SPAN_RESIDUAL * np.linalg.norm(cols):
            return coords, lambda z: basis @ z
    basis, coords = np.linalg.qr(cols)
    return coords, lambda z: basis @ z


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
    certificate cannot be met within ``config.max_iterations``, and at once
    when the objective or gradient is not finite at the start or at an
    accepted step (a trial point the line search rejects does not count).
    """
    x_full = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    if x_full.ndim != 2 or y.shape != (x_full.shape[1],):
        raise ValueError("features must be p x n with one label per column")
    p, n = x_full.shape
    shift = np.zeros(n) if margin_shift is None else np.asarray(margin_shift, dtype=float)

    # The minimizer lies in the span of the columns of X; reduce when that helps.  Its
    # norm is at most sqrt(2 F(0) / lam), as F(w*) <= F(0) and the loss is nonnegative.
    x, to_full = (x_full, lambda z: z) if p <= n else _span_basis(
        x_full, config.tolerance, np.sqrt(2.0 * float(np.sum(loss.value(shift))) / lam))
    k = x.shape[0]
    refine = False  # set once the reduced margins have failed the certificate

    def objective(w, features):
        margins = y * (features.T @ w) + shift
        return 0.5 * lam * np.dot(w, w) + float(np.sum(loss.value(margins))), margins

    def evaluate(z):
        return objective(to_full(z), x_full) if refine else objective(z, x)

    z = np.zeros(k)
    f, margins = evaluate(z)
    coef = y * loss.grad(margins)
    g = lam * z + x @ coef
    iters = 0

    def certified():
        """The current iterate in the full space, with its objective and gradient norm there."""
        z_f = to_full(z)
        if x is x_full:  # Newton ran in the caller's space, where g is the gradient
            f_f, grad_norm = f, float(np.linalg.norm(g))
        else:
            f_f, margins_f = (f, margins) if refine else objective(z_f, x_full)
            grad_norm = float(np.linalg.norm(lam * z_f + x_full @ (y * loss.grad(margins_f))))
        return PrimalSolution(weights=z_f, objective=f_f, grad_norm=grad_norm,
                              iterations=iters, newton_dim=k)

    while True:
        grad_norm = float(np.linalg.norm(g))
        if not (math.isfinite(f) and math.isfinite(grad_norm)):  # at the start or an accepted step
            raise ConvergenceError(
                f"non-finite objective or gradient after {iters} iterations "
                f"(objective {f:.3e}, grad norm {grad_norm:.3e})",
                PrimalSolution(weights=to_full(z), objective=f, grad_norm=grad_norm,
                               iterations=iters, newton_dim=k),
            )
        # ||g|| <= ||g_full|| for an orthonormal basis: the cheap gate, the certificate decides
        if grad_norm <= config.tolerance:
            if (best := certified()).grad_norm <= config.tolerance:
                return best
            if not refine and x is not x_full:
                # margins from the weights from here on: then basis @ g is the full-space gradient
                refine = True
                f, margins = evaluate(z)
                coef = y * loss.grad(margins)
                g = lam * z + x @ coef
                continue
        if iters >= config.max_iterations:
            best = certified()
            raise ConvergenceError(
                f"no convergence after {iters} iterations (grad norm {best.grad_norm:.3e})", best
            )
        root = x * np.sqrt(loss.curvature(margins))
        hess = root @ root.T  # one symmetric product: BLAS syrk
        del root  # freed before the LU solve copies hess
        hess.flat[::k + 1] += lam
        try:
            direction = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError as exc:  # lam > 0 makes this unlikely
            raise ConvergenceError(f"Hessian solve failed: {exc}", certified()) from None
        del hess  # freed before the line search's temporaries
        slope = float(g @ direction)
        if slope >= 0.0:
            direction, slope = -g, -float(g @ g)

        # Accept a backtracked step only while its decrease is measurable
        # above the float noise of evaluating f; otherwise the search would
        # accept zero-progress micro-steps and stall short of the optimum.
        noise = NOISE_EPS * (1.0 + abs(f))
        step = 1.0
        while step >= MIN_STEP:
            z_new = z + step * direction
            f_new, margins_new = evaluate(z_new)
            if f_new <= f + ARMIJO_C * step * slope and f - f_new > noise:
                break
            if step == 1.0 and abs(f - f_new) <= noise:
                # The full step is already at the float floor, and on the quadratic model
                # every shorter one changes f by less still: go to the endgame with it.
                step = 0.0
                break
            step *= 0.5
        else:
            # Objective differences are below float resolution; take the full
            # Newton step if it still shrinks the gradient (quadratic endgame).
            z_new = z + direction
            f_new, margins_new = evaluate(z_new)
        coef_new = y * loss.grad(margins_new)
        g_new = lam * z_new + x @ coef_new
        if step < MIN_STEP and not (np.linalg.norm(g_new) <= 0.9 * np.linalg.norm(g)
                                    and f_new <= f + 1e-12 * (1.0 + abs(f))):
            best = certified()
            raise ConvergenceError(
                f"stalled at the floating-point floor (grad norm {best.grad_norm:.3e}, "
                f"tolerance {config.tolerance:.3e})",
                best,
            )
        z, f, margins, coef, g = z_new, f_new, margins_new, coef_new, g_new
        iters += 1


def dual_from_primal(features, labels, loss: LossSpec, weights, margin_shift=None) -> np.ndarray:
    """Dual vector read off a primal solution: alpha_i = grad l(y_i x_i' w + margin_shift_i).

    ``margin_shift`` is ``solve_primal``'s; without it the margins are unshifted.
    """
    margins = np.asarray(labels, dtype=float) * (np.asarray(features, dtype=float).T @ weights)
    if margin_shift is not None:
        margins = margins + np.asarray(margin_shift, dtype=float)
    return np.asarray(loss.grad(margins), dtype=float)


def primal_from_dual(features, labels, lam: float, alphas) -> np.ndarray:
    """Map a dual vector back to weights: w = -(1/lam) sum_i alpha_i y_i x_i."""
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    with np.errstate(over="ignore"):  # a tiny lambda overflows w to inf, which callers report
        return -(x @ (y * np.asarray(alphas, dtype=float))) / lam


def dual_objective(gram_matrix, loss: LossSpec, lam: float, alphas) -> float:
    """Value of the concave dual: -sum_i l*(alpha_i) - alpha' G alpha / (2 lam)."""
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    alphas = np.asarray(alphas, dtype=float)
    conj = loss.conjugate(alphas)  # raises on a domain violation
    quad = float(alphas @ (np.asarray(gram_matrix, dtype=float) @ alphas))
    return float(-np.sum(conj) - quad / (2.0 * lam))
