"""Datasets, their spectral structure, and synthetic generators.

A dataset is a feature matrix with examples as *columns* (d rows of
features, n columns of examples) plus a vector of binary labels in
{-1, +1}.  Generators are deterministic per seed: each draws from
``default_rng(seed)`` (NumPy PCG64).  ``sketch.gaussian_matrix`` seeds the
same way, so a dataset and a sketch drawn from one seed share a stream, not
independent ones: the sketch's first entries are the dataset's draws.  The
experiments draw both from the trial seed; ROADMAP item 3 gives the sketch
a stream of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "SpectrumInfo",
    "make_low_rank",
    "make_decaying_spectrum",
    "planted_spectrum",
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

    The features, and the sum of their squares, must be finite.  ``planted``
    is the features' SVD: planted by a generator, or measured once for a CSV run.
    """

    features: np.ndarray
    labels: np.ndarray
    planted: SpectrumInfo | None = field(default=None, compare=False, repr=False)

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
    """sigma, the left singular vectors U and the thresholded rank of a feature matrix; no V."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
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


def planted_spectrum(d: int, n: int, decay: float, top_singular_value: float = 1.0) -> np.ndarray:
    """The power law sigma_i = top_singular_value * i**(-decay), i = 1..min(d, n)."""
    return top_singular_value * np.arange(1, min(d, n) + 1, dtype=float) ** (-decay)


def make_decaying_spectrum(
    d: int,
    n: int,
    decay: float,
    seed: int = 0,
    top_singular_value: float = 1.0,
    label_rule: str = "random",
) -> Dataset:
    """Full-rank dataset with a planted power-law spectrum.

    Singular values follow ``planted_spectrum``; the singular bases are
    Haar-random orthonormal factors.  ``label_rule = random`` draws iid
    signs; ``sign_of_plant`` labels by the sign of the margin against the
    leading left singular direction, which concentrates the learned weights
    near the top of the spectrum.  The dataset's ``planted`` field holds these sigma and the
    left factor, with the rank counted as ``spectrum`` counts it.
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
    sigma = planted_spectrum(d, n, decay, top_singular_value)
    u, _ = np.linalg.qr(rng.standard_normal((d, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    feats = (u * sigma) @ v.T
    if label_rule == "random":
        labels = rng.choice([-1.0, 1.0], size=n)
    else:
        labels = np.where(u[:, 0] @ feats >= 0.0, 1.0, -1.0)
    rank = numerical_rank(sigma, DEFAULT_RANK_THRESHOLD * sigma[0])
    return Dataset(feats, labels, SpectrumInfo(sigma, u, rank))


def spectrum(data: Dataset) -> SpectrumInfo:
    """The features' sigma and U (thin SVD); rank counts sigma_i > DEFAULT_RANK_THRESHOLD * sigma_1.

    A dataset's planted SVD is returned as it is; other data is decomposed.
    """
    if data.planted is not None:
        return data.planted
    u, s, _ = np.linalg.svd(data.features, full_matrices=False)
    return SpectrumInfo(singular_values=s, left_vectors=u,
                        rank=numerical_rank(s, DEFAULT_RANK_THRESHOLD * s[0]))


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
    header = ",".join(["label"] + [f"f{j}" for j in range(data.d)])
    np.savetxt(path, np.column_stack([data.labels, data.features.T]), fmt="%.17g",
               delimiter=",", header=header, comments="")


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    A header row is optional: the first row is one when none of its cells,
    with double quotes stripped, parses as a number.  Cells may be quoted,
    with whitespace around the quotes; blank lines are skipped.  ``Dataset``
    rejects ``nan`` and ``inf`` cells.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # each cell is stripped before numpy reads its quotes
        lines = [",".join(cell.strip() for cell in ln.split(",")) for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty dataset file: {path}")
    if not any(_is_number(cell.strip('"')) for cell in lines[0].split(",")):
        lines = lines[1:]
    if not lines:
        raise ValueError(f"dataset file has a header but no rows: {path}")
    table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"')
    if table.shape[1] < 2:
        raise ValueError("every row must contain a label followed by d feature values")
    return Dataset(features=table[:, 1:].T.copy(), labels=table[:, 0].copy())


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
