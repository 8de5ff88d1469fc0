"""Gaussian random projection of a dataset's feature matrix.

The projection matrix R is d x m with iid N(0, 1) entries; the sketched
features are R' X / sqrt(m), so inner products are preserved in
expectation (E[R R'/m] = I).  Sampling uses NumPy's PCG64 generator
(``numpy.random.default_rng``) with float64 ``standard_normal``, which is
stable across platforms for a fixed NumPy major version; the seed is
recorded so any sketch can be rebuilt exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

__all__ = [
    "ProjectionSketch",
    "gaussian_matrix",
    "project",
    "gaussian_sketch",
    "identity_sketch",
]


@dataclass(frozen=True)
class ProjectionSketch:
    """A projection matrix together with the sketched features it produced.

    ``seed`` is None for injected (non-Gaussian) matrices; otherwise
    ``gaussian_matrix(d, m, seed)`` reproduces ``matrix_r`` exactly.  The
    constructors below always set ``matrix_r``; dual recovery reads only
    the sketched features, so a caller that reads R for nothing else may
    keep a copy with ``matrix_r=None`` and let the d x m matrix go.
    """

    matrix_r: np.ndarray | None
    m: int
    seed: int | None
    sketched_features: np.ndarray


def gaussian_matrix(d: int, m: int, seed: int) -> np.ndarray:
    """d x m matrix of iid standard normals, deterministic per seed."""
    if d < 1 or m < 1:
        raise ValueError("projection dimensions must be positive")
    return np.random.default_rng(seed).standard_normal((d, m))


def project(data: Dataset, r_matrix: np.ndarray, m: int, seed: int | None = None) -> ProjectionSketch:
    """Sketch a dataset through a given projection matrix.

    ``r_matrix`` may be any d x m matrix, which lets tests inject
    deterministic projections (for example sqrt(m) * I, which makes the
    sketch exact).  The input dataset is not modified.
    """
    r_matrix = np.asarray(r_matrix, dtype=float)
    if r_matrix.shape != (data.d, m):
        raise ValueError(
            f"projection matrix must be {data.d} x {m}, got {r_matrix.shape}"
        )
    sketched = (r_matrix.T @ data.features) / np.sqrt(m)
    return ProjectionSketch(matrix_r=r_matrix, m=m, seed=seed, sketched_features=sketched)


def gaussian_sketch(data: Dataset, m: int, seed: int) -> ProjectionSketch:
    """Sample a fresh Gaussian projection for ``data`` and apply it."""
    return project(data, gaussian_matrix(data.d, m, seed), m, seed)


def identity_sketch(data: Dataset) -> ProjectionSketch:
    """The exact sketch R = sqrt(m) I with m = d; useful as a smoke oracle."""
    m = data.d
    return project(data, np.sqrt(m) * np.eye(data.d), m, seed=None)

