"""Recover high-dimensional regularized ERM solutions from Gaussian sketches.

The workflow: project the data matrix with a seeded Gaussian matrix, solve
the small sketched problem, read the dual vector off the loss gradient,
and map it back through the original data matrix.  One sketch suffices;
iterating the recovery on the residual drives the error down geometrically.
"""

from .concentration import (
    full_rank_sample_bound,
    sample_size_bound,
    spectral_deviation,
)
from .config import ConfigError, DatasetIOError, ExperimentConfig, validate_config
from .data import (
    Dataset,
    SpectrumInfo,
    effective_rank,
    gram,
    load_csv,
    make_decaying_spectrum,
    make_low_rank,
    numerical_rank,
    save_csv,
    spectrum,
)
from .experiments import ReportDocument, run_experiment
from .losses import LossSpec, logistic_loss, parse_loss, smoothed_hinge_loss, square_loss
from .recover import (
    IterationTrace,
    RecoveryResult,
    measurement_error,
    recover_iterative,
    recover_naive,
    relative_error,
    span_restricted_error,
)
from .sketch import (
    ProjectionSketch,
    gaussian_matrix,
    gaussian_sketch,
    identity_sketch,
    project,
)
from .solve import (
    ConvergenceError,
    PrimalSolution,
    SolverConfig,
    dual_from_primal,
    dual_objective,
    primal_from_dual,
    primal_objective,
    solve_primal,
)

__version__ = "0.1.0"
