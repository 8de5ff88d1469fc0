"""Gaussian random projection of a dataset's feature matrix.

The projection matrix R is d x m with iid N(0, 1) entries; the sketched
features are R' X / sqrt(m), so inner products are preserved in
expectation (E[R R'/m] = I).  Sampling uses NumPy's PCG64 generator
(``numpy.random.default_rng``) with float64 ``standard_normal``, which is
stable across platforms for a fixed NumPy major version; the seed is
recorded so any sketch can be rebuilt exactly, whether R was drawn in one
call or block by block (``draw_blocks``): both read one stream in order.

The sketched features are the sum of R_b' X_b over R's row blocks of
``SKETCH_BLOCK`` rows, added in block order, so each block can be applied
as soon as it is drawn.  For d <= ``SKETCH_BLOCK`` that is the single
product R' X.  ``draw_blocks`` fills R on a helper thread, and ``project``
can hand that thread the last block's product; the experiments module
docstring describes how a trial schedules both.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass

import numpy as np

from .data import Dataset

__all__ = [
    "ProjectionSketch",
    "SKETCH_BLOCK",
    "row_blocks",
    "gaussian_matrix",
    "draw_blocks",
    "project",
    "gaussian_sketch",
    "identity_sketch",
]

# Rows of R per block of the projection sum; a fixed constant, so no thread,
# pool or core count moves the sum's rounding.
SKETCH_BLOCK = 1024


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


def row_blocks(d: int) -> list[slice]:
    """R's row blocks: ``SKETCH_BLOCK`` rows each, the last one shorter."""
    return [slice(start, min(start + SKETCH_BLOCK, d)) for start in range(0, d, SKETCH_BLOCK)]


def _fill(rng: np.random.Generator, rows: np.ndarray) -> None:
    rng.standard_normal(out=rows)  # returns nothing, so a done future holds no view of R


def draw_blocks(d: int, m: int, seed: int, executor: Executor) -> tuple[np.ndarray, list[Future]]:
    """``gaussian_matrix(d, m, seed)`` filled on ``executor``, one job per row block.

    Returns the matrix and one future per block, done once that block has
    landed.  One generator fills the blocks in order, so the executor must
    run its jobs one at a time, in the order submitted (a one-thread pool);
    the matrix is then ``gaussian_matrix``'s bit for bit.  The calling
    thread allocates it, so glibc serves its pages from that thread's
    malloc arena, not the executor thread's.
    """
    r_matrix = np.empty((d, m))
    rng = np.random.default_rng(seed)
    return r_matrix, [executor.submit(_fill, rng, r_matrix[rows]) for rows in row_blocks(d)]


def project(data: Dataset, r_matrix: np.ndarray, m: int, seed: int | None = None,
            landed: Sequence[Future] = (), helper: Executor | None = None) -> ProjectionSketch:
    """Sketch a dataset through a given projection matrix.

    ``r_matrix`` may be any d x m matrix, which lets tests inject
    deterministic projections (for example sqrt(m) * I, which makes the
    sketch exact).  The input dataset is not modified.  R' X is summed
    over R's row blocks in order; with ``landed`` (``draw_blocks``'s
    futures) each block is applied once its future is done.

    With ``helper`` and more than one block, the last block's product
    R_B' X_B is submitted to ``helper`` first; the calling thread computes
    blocks 0..B-2 as they land and adds the helper's product last.  Like
    ``draw_blocks``, this relies on ``helper`` being a one-thread pool
    that runs its jobs first in, first out, and on it being the pool that
    fills ``landed``: the product job, queued behind the last fill, starts
    once that block has landed.  Each block is the same product on either
    thread and the sum keeps block order, so the sketch is the one without
    ``helper`` bit for bit.  The job is settled before this returns or
    raises, so none runs on past the call.
    """
    r_matrix = np.asarray(r_matrix, dtype=float)
    if r_matrix.shape != (data.d, m):
        raise ValueError(f"projection matrix must be {data.d} x {m}, got {r_matrix.shape}")
    blocks, job = row_blocks(data.d), None
    if helper is not None and len(blocks) > 1:
        last = blocks.pop()  # the job's arguments are its block's slices, bound here
        job = helper.submit(np.matmul, r_matrix[last].T, data.features[last])
    try:
        sketched = part = None
        for b, rows in enumerate(blocks):
            if landed:
                landed[b].result()
            if sketched is None:
                sketched = r_matrix[rows].T @ data.features[rows]
            else:  # later blocks share one m x n buffer
                part = np.matmul(r_matrix[rows].T, data.features[rows], out=part)
                sketched += part
        if job is not None:
            sketched += job.result()
    finally:
        if job is not None:  # a failed block leaves no product job running
            job.cancel()
            wait([job])
    sketched /= np.sqrt(m)  # in place: no second m x n array
    return ProjectionSketch(matrix_r=r_matrix, m=m, seed=seed, sketched_features=sketched)


def gaussian_sketch(data: Dataset, m: int, seed: int) -> ProjectionSketch:
    """Sample a fresh Gaussian projection for ``data`` and apply it."""
    return project(data, gaussian_matrix(data.d, m, seed), m, seed)


def identity_sketch(data: Dataset) -> ProjectionSketch:
    """The exact sketch R = sqrt(m) I with m = d; useful as a smoke oracle."""
    m = data.d
    return project(data, np.sqrt(m) * np.eye(data.d), m, seed=None)

