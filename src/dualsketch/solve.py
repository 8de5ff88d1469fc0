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
product and solved by Cholesky (LAPACK's dpotrf, then dpotrs), LU only
where Cholesky refuses a Hessian positive definite only up to rounding.
When p exceeds n the iterate lies in the span of the feature columns, so
Newton runs on coordinates in that span; the certificate is evaluated in
the full space, from margins recomputed there.
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

Solves on one feature matrix can share a ``_NewtonSetup``, as the passes
of iterative recovery do.  The span is then reduced once per sketch, and
the square loss's Hessian, which no pass changes, is factored once per
sketch.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import ctypes
import functools
import math
import os

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


@functools.cache
def _openblas() -> dict:
    """numpy's bundled OpenBLAS routines, typed, or None each; bound on first use, not at import."""
    import glob

    size, ptr, char = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_char_p
    length = ctypes.c_size_t  # the hidden length of a Fortran character argument, passed last
    routines = {  # ILP64 names, numpy 2's wheels' first, then numpy 1's; argument types
        "set_num_threads": (("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"),
                            [ctypes.c_int]),
        "dgesv": (("scipy_dgesv_64_", "dgesv_64_"),  # n, nrhs, a, lda, ipiv, b, ldb, info
                  [size, size, ptr, size, ptr, ptr, size, size]),
        "dpotrf": (("scipy_dpotrf_64_", "dpotrf_64_"),  # uplo, n, a, lda, info
                   [char, size, ptr, size, size, length]),
        "dpotrs": (("scipy_dpotrs_64_", "dpotrs_64_"),  # uplo, n, nrhs, a, lda, b, ldb, info
                   [char, size, size, ptr, size, ptr, size, size, length]),
        "dtrtrs": (("scipy_dtrtrs_64_", "dtrtrs_64_"),  # uplo, trans, diag, n, nrhs, a, lda, b, ldb, info
                   [char, char, char, size, size, ptr, size, ptr, size, size, length, length, length]),
    }
    folder = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    # already loaded by numpy, so CDLL returns their handles
    libs = [ctypes.CDLL(path) for path in sorted(glob.glob(os.path.join(folder, "*openblas*.so*")))]
    found = {}
    for routine, (names, argtypes) in routines.items():
        found[routine] = next((getattr(lib, name) for lib in libs for name in names
                               if hasattr(lib, name)), None)
        if found[routine] is not None:
            found[routine].argtypes, found[routine].restype = argtypes, None
    return found


def _bound(routine: str, a: np.ndarray, b: np.ndarray | None = None):
    """The bundled ``routine`` if there is one and it can work in place on the square,
    Fortran-ordered float64 ``a`` and the float64 vector ``b``; else None."""
    n = len(a)
    fits = (n and a.shape == (n, n) and a.dtype == np.float64 and a.flags.f_contiguous and a.flags.behaved
            and (b is None or b.shape == (n,) and b.dtype == np.float64 and b.flags.carray))
    return _openblas()[routine] if fits else None


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` for a symmetric positive definite ``a`` by LAPACK's dpotrf and dpotrs, in place.

    Half LU's flops, and ctypes releases the interpreter lock for the calls.
    dpotrf reads the lower triangle of a Fortran-ordered ``a`` and
    overwrites it with the factor; ``_factored_solve`` then overwrites ``b``
    with the solution.  Reference LAPACK's dposv is these two calls, so the
    bits are its.  Returns ``b`` itself, ``a`` then holding the factor, which
    is how the square loss's Hessian is factored once per sketch.
    Raises ``LinAlgError`` where ``a`` is not positive definite.  Arrays
    dpotrf cannot take, or no bundled dpotrf and dpotrs: ``np.linalg.solve``,
    an LU solve, as numpy exposes no Cholesky solve; it returns a new array
    and leaves ``a`` as it was.
    """
    if (dpotrf := _bound("dpotrf", a, b)) is None or _openblas()["dpotrs"] is None:
        return np.linalg.solve(a, b)
    size, info = ctypes.c_int64(len(b)), ctypes.c_int64()
    dpotrf(b"L", size, a.ctypes.data, size, info, 1)
    if info.value:  # a leading minor that is not positive definite
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return _factored_solve(a, b)


def _factored_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` by LAPACK's dpotrs, in place, from the factor of ``a`` that
    ``_cholesky_solve`` left in ``factor``: two triangular solves."""
    size = ctypes.c_int64(len(b))
    _openblas()["dpotrs"](b"L", size, ctypes.c_int64(1), factor.ctypes.data, size, b.ctypes.data,
                          size, ctypes.c_int64(), 1)
    return b


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` by LAPACK's dgesv, overwriting a Fortran-ordered ``a`` and ``b`` in place.

    Newton's step where Cholesky refuses the Hessian.  ``np.linalg.solve``
    calls the same routine, so the bits are the same, but holds the
    interpreter lock while it factors at most 500 unknowns; ctypes releases
    it.  Arrays dgesv cannot take, or no bundled dgesv: numpy's solve.
    """
    if (dgesv := _bound("dgesv", a, b)) is None:
        return np.linalg.solve(a, b)
    size, info, ipiv = ctypes.c_int64(len(b)), ctypes.c_int64(), np.empty(len(b), dtype=np.int64)
    dgesv(size, ctypes.c_int64(1), a.ctypes.data, size, ipiv.ctypes.data, b.ctypes.data, size, info)
    if info.value:  # a zero pivot
        raise np.linalg.LinAlgError("Singular matrix")
    return b


def _cholesky_upper(gram: np.ndarray) -> np.ndarray:
    """The Cholesky factor U of ``gram = U' U``, factored in ``gram``'s own buffer by dpotrf.

    The bits are ``np.linalg.cholesky(gram).T``'s, which runs where dpotrf
    cannot take ``gram`` or numpy bundles none.  Raises ``LinAlgError``
    where ``gram`` is not positive definite, having overwritten part of it.
    """
    # an exactly symmetric gram read in Fortran order is gram, and its lower factor L, read
    # back in C order, is U = L' in the upper triangle
    if (dpotrf := _bound("dpotrf", gram.T)) is None:
        return np.linalg.cholesky(gram).T
    size, info = ctypes.c_int64(len(gram)), ctypes.c_int64()
    dpotrf(b"L", size, gram.ctypes.data, size, info, 1)
    if info.value:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    for row in range(1, len(gram)):  # below the diagonal dpotrf leaves the Gram matrix's entries
        gram[row, :row] = 0.0
    return gram


def _solve_upper(upper: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``upper^-1 z`` for an upper-triangular ``upper`` by LAPACK's dtrtrs: back-substitution.

    dtrtrs reads ``upper``'s C-ordered buffer in Fortran order, as the
    lower-triangular ``upper'``, and solves with its transpose.  Arrays
    dtrtrs cannot take, or no bundled dtrtrs: ``np.linalg.solve``.
    """
    y = np.array(z, dtype=float)
    if (dtrtrs := _bound("dtrtrs", upper.T, y)) is None:
        return np.linalg.solve(upper, y)
    size, info = ctypes.c_int64(len(y)), ctypes.c_int64()
    dtrtrs(b"L", b"T", b"N", size, ctypes.c_int64(1), upper.ctypes.data, size, y.ctypes.data,
           size, info, 1, 1, 1)
    if info.value:  # a zero on the diagonal
        raise np.linalg.LinAlgError("Singular matrix")
    return y


def _span_basis(cols: np.ndarray,
                ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray], float | None]:
    """Coordinates ``coords`` (k x n) of ``cols`` in a basis of their span, ``to_full``
    and CholeskyQR's gate.

    ``cols = basis @ coords`` and ``to_full(z) = basis @ z``.  At a rank k of
    at most ``LOW_RANK_PIVOTS``, found on the columns themselves, the basis is
    the QR of the k pivot columns if that passes the residual check.  Past
    that limit it is CholeskyQR's ``cols U^-1``, never formed, for the
    Cholesky factor U of the Gram matrix.  Its gate, eps * max(diag G)^1.5
    / min(diag U), times a bound on the weights' norm is the rounding the
    basis leaves in the gradient; a solve whose tolerance is below that
    takes the QR of all the columns instead (``_NewtonSetup.reduce``).  The
    gate is None for every other basis.  When U does not exist the pivoting
    goes on up to rank n - 1, on the formed Gram matrix's columns, and a
    rank k it finds gets the same QR and check.  Failing these, the basis is
    the QR of all the columns.  The residual check forms ``cols - basis @
    coords`` ``RESIDUAL_ROWS`` rows at a time, so no p x n temporary is held
    beside the columns.
    """
    if (low := _low_rank_pivots(cols, LOW_RANK_PIVOTS)) is None:
        gram = cols.T @ cols
        top = gram.diagonal().max()  # read before the factor overwrites the diagonal
        try:
            upper = _cholesky_upper(gram)
        except np.linalg.LinAlgError:  # a singular Gram matrix: look for the rank below n
            gram = cols.T @ cols  # formed again, as the refused factorisation overwrote part
            low = _low_rank_pivots(cols, cols.shape[1] - 1, gram)
            del gram
        else:
            # eps * cond * ||cols||^2 from the diagonals, as max(diag G)^1.5 / min(diag U):
            # CholeskyQR's map back loses about cond digits; inf or NaN refuses the basis
            with np.errstate(over="ignore", invalid="ignore"):
                gate = np.finfo(float).eps * top ** 1.5 / upper.diagonal().min()
            return upper, lambda z: cols @ _solve_upper(upper, z), gate
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
            return coords, lambda z: basis @ z, None
    return *_explicit_basis(cols), None


def _explicit_basis(cols: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """``coords`` and ``to_full`` of the QR of all of ``cols``: ``cols = Q coords``."""
    basis, coords = np.linalg.qr(cols)
    return coords, lambda z: basis @ z


class _NewtonSetup:
    """What Newton's solves on one feature matrix share: the span reduction (p > n),
    formed at the first solve, and the square loss's Hessian factor.

    Only CholeskyQR's gate reads the solve, through its bound on the weights'
    norm; a refused gate takes the QR of all the columns, formed at the first
    refusal and kept.  The square loss's Hessian lam I + X X' depends on the
    Newton features X and lam alone, so the factor Cholesky leaves in place
    is kept with them and later steps solve by dpotrs alone.  Other losses,
    and a Hessian Cholesky refuses, keep nothing.
    """

    def __init__(self, cols: np.ndarray):
        self.cols = cols
        self._basis = None  # _span_basis(cols), at the first reduction
        self._explicit = None  # _explicit_basis(cols), at the first refused gate
        self._factor = None  # (x, lam, factor) of the square loss's Hessian

    def reduce(self, tolerance: float, bound: float,
               ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """``coords`` and ``to_full`` for a solve to ``tolerance`` whose weights' norm is at
        most ``bound``."""
        if self._basis is None:
            self._basis = _span_basis(self.cols)
        coords, to_full, gate = self._basis
        if gate is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                floor = gate * bound
            if not floor <= tolerance:  # NaN refuses too
                if self._explicit is None:
                    self._explicit = _explicit_basis(self.cols)
                return self._explicit
        return coords, to_full

    def direction(self, x: np.ndarray, lam: float, loss: LossSpec, margins: np.ndarray,
                  g: np.ndarray) -> np.ndarray:
        """The Newton direction ``-H^-1 g`` for ``H = lam I + x diag(l''(margins)) x'``.

        By Cholesky, or LU where Cholesky refuses ``H``, positive definite only
        up to rounding, as at a tiny lam; raises ``LinAlgError`` where LU fails too.
        """
        if loss.kind == "square" and (kept := self._factor) and kept[0] is x and kept[1] == lam:
            return _factored_solve(kept[2], -g)
        rhs = -g
        # .T reads the Hessian's buffer in Fortran order: the same matrix, factored in place
        # and, unless kept, freed on return, before the line search's temporaries
        hess = _hessian(x, lam, loss, margins).T
        try:
            direction = _cholesky_solve(hess, rhs)
        except np.linalg.LinAlgError:
            del hess  # overwritten by the refused factorisation: LU factors a new one
            return _lu_solve(_hessian(x, lam, loss, margins).T, -g)
        if loss.kind == "square" and direction is rhs:  # solved in place: hess holds the factor
            self._factor = x, lam, hess
        return direction


def _hessian(x: np.ndarray, lam: float, loss: LossSpec, margins: np.ndarray) -> np.ndarray:
    """lam I + x diag(l''(margins)) x'."""
    root = x * np.sqrt(loss.curvature(margins))
    hess = root @ root.T  # one symmetric product: BLAS syrk, mirrored, so exactly symmetric
    hess.flat[::len(hess) + 1] += lam
    return hess


def solve_primal(
    features,
    labels,
    loss: LossSpec,
    lam: float,
    config: SolverConfig = SolverConfig(),
    margin_shift=None,
    *,
    setup: _NewtonSetup | None = None,
) -> PrimalSolution:
    """Minimize the regularized ERM objective with a gradient-norm certificate.

    Works for the original problem (pass the d x n features) and the
    sketched one (pass the m x n sketched features).  With ``margin_shift``
    it solves

        min_w lam/2 ||w||^2 + sum_i l(y_i w' x_i + margin_shift_i).

    A translated regularizer lam/2 ||z + u||^2 is this problem in w = z + u
    with margin_shift_i reduced by y_i u' x_i; iterative recovery poses
    every pass that way.

    ``setup`` is a ``_NewtonSetup`` built on ``features``, which iterative
    recovery hands to every pass: the span is then reduced once per sketch,
    and the square loss's Hessian factored once per sketch.  Without one the
    call builds its own, so the records are the same either way.

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
    if setup is None:
        setup = _NewtonSetup(x_full)
    elif setup.cols is not x_full:
        raise ValueError("the Newton set-up was built on other features")

    # The minimizer lies in the span of the columns of X; reduce when that helps.  Its
    # norm is at most sqrt(2 F(0) / lam), as F(w*) <= F(0) and the loss is nonnegative.
    x, to_full = (x_full, lambda z: z) if p <= n else setup.reduce(
        config.tolerance, np.sqrt(2.0 * float(np.sum(loss.value(shift))) / lam))
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
            f_f, grad_norm = f, math.sqrt(g.dot(g))
        else:
            f_f, margins_f = (f, margins) if refine else objective(z_f, x_full)
            g_f = lam * z_f + x_full @ (y * loss.grad(margins_f))
            grad_norm = math.sqrt(g_f.dot(g_f))
        return PrimalSolution(weights=z_f, objective=f_f, grad_norm=grad_norm,
                              iterations=iters, newton_dim=k)

    while True:
        grad_norm = math.sqrt(g.dot(g))  # np.linalg.norm's sum, without its overhead
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
        try:
            direction = setup.direction(x, lam, loss, margins, g)
        except np.linalg.LinAlgError as exc:  # LU failed too; lam > 0 makes this unlikely
            raise ConvergenceError(f"Hessian solve failed: {exc}", certified()) from None
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
        if step < MIN_STEP and not (math.sqrt(g_new.dot(g_new)) <= 0.9 * grad_norm
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
