"""Square-loss closed forms: the oracles the Newton solver and dual recovery are checked against.

Neither is a route of the package; both solve a positive definite n x n
(or d x d) system directly, so they serve as exact references in tests.
"""

import numpy as np

from dualsketch.data import Dataset
from dualsketch.sketch import ProjectionSketch


class LinearSolveError(RuntimeError):
    """A direct linear solve failed (singular or numerically unusable system)."""


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
    if d <= n:
        a = x @ x.T
        a.flat[::d + 1] += lam
        return _solve_positive(a, x @ y, "ridge system")
    a = x.T @ x
    a.flat[::n + 1] += lam
    return x @ _solve_positive(a, y, "ridge system")


def ridge_drp_closed_form(data: Dataset, lam: float, sketch: ProjectionSketch) -> np.ndarray:
    """Square-loss dual recovery in closed form through an n x n system.

    Evaluates X (lam I + X' (R R'/m) X)^{-1} y; the middle matrix is just
    the Gram of the sketched features, so no d x d system appears.
    """
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    xs = sketch.sketched_features
    if xs.shape != (sketch.m, data.n):
        raise ValueError("sketch does not match the dataset")
    a = xs.T @ xs
    a.flat[::data.n + 1] += lam
    return data.features @ _solve_positive(a, data.labels, "sketched ridge system")


def _solve_positive(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """``a^-1 b`` for a symmetric ``a`` that must be numerically positive definite."""
    try:
        np.linalg.cholesky(a)  # LU alone would solve an indefinite system without a word
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"{what} could not be solved: {exc}") from exc
