"""Datasets, their spectral structure, and synthetic generators.

A dataset is a feature matrix with examples as *columns* (d rows of
features, n columns of examples) plus a vector of binary labels in
{-1, +1}.  Generators are deterministic per seed (NumPy PCG64 via
``default_rng``), so trial workers can derive independent streams from
``base_seed + trial_index``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "SpectrumInfo",
    "make_low_rank",
    "make_decaying_spectrum",
    "spectrum",
    "gram",
    "effective_rank",
    "numerical_rank",
    "save_csv",
    "load_csv",
]

DEFAULT_RANK_THRESHOLD = 1e-9


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (d x n, one example per column) and labels in {-1, +1}.

    The features, and the sum of their squares, must be finite.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a d x n matrix with d, n >= 1")
        if labs.shape != (feats.shape[1],):
            raise ValueError(
                f"labels must have length n={feats.shape[1]}, got shape {labs.shape}"
            )
        if not np.all(np.abs(labs) == 1.0):
            raise ValueError("every label must be exactly -1 or +1")
        if not np.isfinite(np.vdot(feats, feats)):  # also catches squares that overflow
            raise ValueError("features must be finite, with a finite sum of squares")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def d(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SpectrumInfo:
    """Thin SVD of a feature matrix plus its thresholded rank."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank: int

    def top_left_basis(self) -> np.ndarray:
        """Left singular vectors spanning the (thresholded-rank) column space."""
        return self.left_vectors[:, : self.rank]


def make_low_rank(d: int, n: int, r: int, label_rule: str = "random", seed: int = 0) -> Dataset:
    """Dataset whose features are a product of d x r and r x n Gaussian factors.

    The product has rank exactly r (almost surely, and in practice at these
    sizes).  ``label_rule`` is either ``random`` (iid signs) or
    ``sign_of_plant``: a planted unit vector in the column space of the
    features determines labels by the sign of its margins, ties going to +1.
    """
    if d < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if not 1 <= r <= min(d, n):
        raise ValueError(f"rank must satisfy 1 <= r <= min(d, n) = {min(d, n)}")
    if label_rule not in ("random", "sign_of_plant"):
        raise ValueError(f"unknown label rule {label_rule!r}")
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((d, r))
    right = rng.standard_normal((r, n))
    feats = left @ right
    if label_rule == "random":
        labels = rng.choice([-1.0, 1.0], size=n)
    else:
        plant = left @ rng.standard_normal(r)
        plant /= np.linalg.norm(plant)
        labels = np.where(plant @ feats >= 0.0, 1.0, -1.0)
    return Dataset(feats, labels)


def make_decaying_spectrum(
    d: int,
    n: int,
    decay: float,
    seed: int = 0,
    top_singular_value: float = 1.0,
    label_rule: str = "random",
) -> Dataset:
    """Full-rank dataset with a planted power-law spectrum.

    Singular values follow sigma_i = top_singular_value * i**(-decay) for
    i = 1..min(d, n); the singular bases are Haar-random orthonormal
    factors.  ``label_rule = random`` draws iid signs; ``sign_of_plant``
    labels by the sign of the margin against the leading left singular
    direction, which concentrates the learned weights near the top of the
    spectrum.
    """
    if d < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if decay <= 0:
        raise ValueError("decay exponent must be positive")
    if top_singular_value <= 0:
        raise ValueError("top singular value must be positive")
    if label_rule not in ("random", "sign_of_plant"):
        raise ValueError(f"unknown label rule {label_rule!r}")
    rng = np.random.default_rng(seed)
    k = min(d, n)
    sigma = top_singular_value * np.arange(1, k + 1, dtype=float) ** (-decay)
    u, _ = np.linalg.qr(rng.standard_normal((d, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    feats = (u * sigma) @ v.T
    if label_rule == "random":
        labels = rng.choice([-1.0, 1.0], size=n)
    else:
        labels = np.where(u[:, 0] @ feats >= 0.0, 1.0, -1.0)
    return Dataset(feats, labels)


def spectrum(data: Dataset) -> SpectrumInfo:
    """Thin SVD of the features; rank counts sigma_i > DEFAULT_RANK_THRESHOLD * sigma_1."""
    u, s, vt = np.linalg.svd(data.features, full_matrices=False)
    rank = int(np.count_nonzero(s > DEFAULT_RANK_THRESHOLD * s[0])) if s[0] > 0 else 0
    return SpectrumInfo(singular_values=s, left_vectors=u, right_vectors=vt.T, rank=rank)


def gram(data: Dataset) -> np.ndarray:
    """Label-signed Gram matrix: entry (i, j) = y_i y_j x_i' x_j."""
    y = data.labels
    return (data.features.T @ data.features) * np.outer(y, y)


def effective_rank(singular_values: np.ndarray, lam: float, gamma: float) -> float:
    """Regularization-weighted rank: sum_i sigma_i^2 / (lam/gamma + sigma_i^2).

    Raises ``OverflowError`` when some sigma_i^2 overflows a float.
    """
    if lam <= 0 or gamma <= 0:
        raise ValueError("lam and gamma must be positive")
    s = np.asarray(singular_values, dtype=float)
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    with np.errstate(over="ignore"):
        squares = s**2
    if not np.all(np.isfinite(squares)):
        raise OverflowError("a squared singular value overflows a float")
    return float(np.sum(squares / (lam / gamma + squares)))


def numerical_rank(singular_values: np.ndarray, nu: float) -> int:
    """Largest r with sigma_r > nu >= sigma_{r+1} (0 if sigma_1 <= nu).

    The comparison is strict on the left, so a singular value exactly equal
    to nu is not counted.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    s = np.asarray(singular_values, dtype=float)
    return int(np.count_nonzero(s > nu))


def save_csv(data: Dataset, path) -> None:
    """Write a header row, then one example per row: label first, then the d feature values.

    Values are emitted with 17 significant digits so a round trip is exact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["label"] + [f"f{j}" for j in range(data.d)]) + "\n")
        for i in range(data.n):
            row = [f"{data.labels[i]:.17g}"] + [f"{v:.17g}" for v in data.features[:, i]]
            fh.write(",".join(row) + "\n")


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    A header row is optional and detected by a non-numeric first cell.
    ``Dataset`` rejects ``nan`` and ``inf`` cells.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty dataset file: {path}")
    first_cell = lines[0].split(",")[0].strip()
    try:
        float(first_cell)
    except ValueError:
        lines = lines[1:]
    if not lines:
        raise ValueError(f"dataset file has a header but no rows: {path}")
    rows = [np.array([float(c) for c in ln.split(",")]) for ln in lines]
    width = rows[0].size
    if width < 2 or any(r.size != width for r in rows):
        raise ValueError("every row must contain a label followed by d feature values")
    table = np.vstack(rows)
    return Dataset(features=table[:, 1:].T.copy(), labels=table[:, 0].copy())
