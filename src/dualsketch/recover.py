"""Recovery of the high-dimensional solution from a sketched solve.

Two routes are implemented:

- ``recover_naive``: map the sketched solution back through the projection
  matrix, R z / sqrt(m).  Lands in the random subspace and is a provably
  poor approximation of the true weights.
- ``recover_iterative``: read the sketched solve's dual vector off the
  loss gradient and rebuild the weights through the *original* data
  matrix, w = -(1/lam) X D(y) alpha, in the span of the data.  One pass
  is DRP; each later pass repeats it on the residual with shifted losses,
  reusing the one sketch, and the error contracts geometrically per pass.

Plus the error functionals used to check the recovery guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SpectrumInfo
from .losses import LossSpec
from .sketch import ProjectionSketch
from .solve import ConvergenceError, SolverConfig, dual_from_primal, primal_from_dual, solve_primal

__all__ = [
    "RecoveryResult",
    "IterationTrace",
    "recover_naive",
    "recover_iterative",
    "span_restricted_error",
    "measurement_error",
    "relative_error",
]

@dataclass(frozen=True)
class RecoveryResult:
    """A recovered weight vector and, when a reference was given, its relative error."""

    recovered: np.ndarray
    rel_error: float | None = None


@dataclass(frozen=True)
class IterationTrace:
    """Relative-error trail of the iterative recovery plus its last pass's solutions.

    ``per_iteration_errors[t]`` is ||w_t - w*|| / ||w*||; entry 0 is exactly
    1 because the iteration starts from the zero vector.  Errors are NaN
    when no reference was supplied.  ``duals`` and ``sketched_weights`` are
    the last pass's alpha and v; after one pass, ``sketched_weights`` is the
    one-shot sketched solution z*, which naive recovery and the measurement
    ratio read.
    """

    per_iteration_errors: np.ndarray
    duals: np.ndarray
    sketched_weights: np.ndarray


def relative_error(recovered, reference) -> float:
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0.0:
        raise ValueError("reference vector has zero norm")
    with np.errstate(over="ignore"):  # weights overflowed by a tiny lambda: the error is inf
        return float(np.linalg.norm(np.asarray(recovered) - np.asarray(reference)) / ref_norm)


def recover_naive(r_matrix, z_star, m: int) -> np.ndarray:
    """Back-projection R z / sqrt(m) of a sketched solution."""
    r_matrix = np.asarray(r_matrix, dtype=float)
    z_star = np.asarray(z_star, dtype=float)
    if r_matrix.ndim != 2 or z_star.shape != (r_matrix.shape[1],) or r_matrix.shape[1] != m:
        raise ValueError("projection matrix must be d x m and z of length m")
    return (r_matrix @ z_star) / np.sqrt(m)


def recover_iterative(
    data: Dataset,
    loss: LossSpec,
    lam: float,
    sketch: ProjectionSketch,
    t_iters: int,
    config: SolverConfig = SolverConfig(),
    reference=None,
    early_stop: bool = False,
) -> tuple[RecoveryResult, IterationTrace]:
    """Iterative dual recovery with shifted losses, reusing one sketch.

    Starting from w_0 = 0, each pass t solves the sketched residual problem

        min_z lam/2 ||z + o||^2 + sum_i l(y_i z' xhat_i + y_i w_{t-1}' x_i),

    with o = R' w_{t-1} / sqrt(m).  In v = z + o it is the one-shot
    sketched problem with margins shifted by s_i = y_i (w_{t-1}' x_i -
    xhat_i' o), which ``solve_primal`` solves as is; pass 1 (w_0 = 0) is
    exactly one-shot DRP.  The pass reads off the cumulative dual
    alpha_t,i = grad l(y_i xhat_i' v + s_i) and rebuilds
    w_t = -(1/lam) X D(y) alpha_t.  The same map through the sketched
    features gives the next offset, o = Xhat beta with beta = -(1/lam) D(y)
    alpha_t (``primal_from_dual``), so no pass reads R; only
    ``recover_naive`` and ``measurement_error`` do.  At w_0 = 0 the offset
    and the shift are zero, so pass 1 reads only the sketched features.

    ``reference`` is w* as an array, or a zero-argument callable that
    returns it; a callable is called once, when pass 1's error is due, so
    the caller can still be solving w* while pass 1's sketched solve runs.

    Solver failure at any pass raises ``ConvergenceError`` with the pass
    index in the message.  ``early_stop`` ends the loop once the sketched
    increment z = v - o is negligible next to the current iterate.  The
    loop also ends at weights whose norm is not finite (a tiny ``lam``
    overflows them), since no pass can start from them; the last error
    then reads inf.
    """
    if t_iters < 1:
        raise ValueError("t_iters must be at least 1")
    xs = sketch.sketched_features
    if xs.shape != (sketch.m, data.n):
        raise ValueError("sketch does not match the dataset")
    ref = reference  # a callable is replaced by what it returns when pass 1's error is due

    w = np.zeros(data.d)
    offset, shift = np.zeros(sketch.m), np.zeros(data.n)  # their values at w_0 = 0
    errors = [1.0 if ref is not None else np.nan]
    for t in range(1, t_iters + 1):
        if t > 1:  # pass 1 reads only the sketched features
            offset = primal_from_dual(xs, data.labels, lam, alphas)
            shift = data.labels * (data.features.T @ w - xs.T @ offset)
        try:
            v = solve_primal(xs, data.labels, loss, lam, config, margin_shift=shift).weights
        except ConvergenceError as exc:
            raise ConvergenceError(f"pass {t}: {exc}", exc.best) from exc
        alphas = dual_from_primal(xs, data.labels, loss, v, margin_shift=shift)
        w = primal_from_dual(data.features, data.labels, lam, alphas)
        if callable(ref):
            ref = ref()
        errors.append(relative_error(w, ref) if ref is not None else np.nan)
        with np.errstate(over="ignore"):
            w_norm = np.linalg.norm(w)
        if not np.isfinite(w_norm):  # overflowed at a tiny lambda: no pass can start from w
            break
        if early_stop and np.linalg.norm(v - offset) <= 1e-12 * w_norm:
            break
    trace = IterationTrace(per_iteration_errors=np.array(errors), duals=alphas,
                           sketched_weights=v)
    return RecoveryResult(w, None if ref is None else errors[-1]), trace


def span_restricted_error(spec: SpectrumInfo, w_a, w_b) -> float:
    """Worst-case prediction gap over unit vectors in the span of the data.

    Equals ||U' (w_a - w_b)|| for the rank-r left singular basis U, since
    the maximizing unit vector lies in the span of the data columns.
    """
    diff = np.asarray(w_a, dtype=float) - np.asarray(w_b, dtype=float)
    return float(np.linalg.norm(spec.top_left_basis().T @ diff))


def measurement_error(z_star, r_matrix, m: int, w_star) -> float:
    """How far sqrt(m) z strays from the random measurements R' w of the truth."""
    r_matrix = np.asarray(r_matrix, dtype=float)
    measured = r_matrix.T @ np.asarray(w_star, dtype=float)
    denom = np.linalg.norm(measured)
    if denom == 0.0:
        raise ValueError("R' w has zero norm; the measurement ratio is undefined")
    return float(np.linalg.norm(np.sqrt(m) * np.asarray(z_star, dtype=float) - measured) / denom)
