"""Experiment drivers: one runnable experiment per recovery guarantee.

Each experiment maps a config to a ``ReportDocument``: a config echo, one
record per trial, and aggregates recomputable from the records.  Records
hold built-in Python values only, so JSON and CSV print the same numbers.
A sketched experiment's trial is one ``recover_iterative`` run (``iters``
passes for iterate, one elsewhere) plus its readouts: DRP is the run's
recovered weights, and naive recovery and the measurement ratio read its
sketched solution.
Trial t derives every random object (generated dataset, projection) from
``seed + t``, so runs are reproducible and resumable; a worker pool (size
from the DUALSKETCH_WORKERS environment variable) only changes wall time,
never the records.  Every run first applies one per-process runtime policy
(``_process_policy``: pinned malloc thresholds, one malloc arena and one
BLAS thread), as does each pool worker when it starts, and the report's
``runtime`` block says what took.  The run's constants (the sketch size
m, the full-rank k, the bound value and, for ``--csv`` data, the dataset,
its reference solution and its spectrum) are derived once, before the
first trial, so a config error never costs a solve.  A pool worker
receives them once, when it starts; each job then carries only its trial
index.

The runtime schedule.  Each process has one helper thread, a one-thread
first-in, first-out pool, started at its first job.  A trial allocates
its Gaussian R first, and the helper fills R's row blocks in order while
the trial makes its dataset; the identity sketch, sqrt(m) I, has nothing
to fill.  If R has landed by then, the trial projects it and the helper
solves the reference w* (generated data only; a --csv run solves it
once) while the trial runs ``recover_iterative``, whose pass 1 joins it.
Otherwise the trial solves w* itself meanwhile, holding R (the solve's
span check keeps no d x n temporary), then projects each block as it
lands.  Either way the helper computes a multi-block R's last block
product right after the last fill while the trial computes the others,
which on a 2-core host ends a d = 5000, m = 500 projection one block
product after the last fill, not two.  The trial settles every job it
gave the helper before it returns or raises.  Records do not depend on
the schedule: R, the block sum and both solves are the same wherever and
whenever they run, and a failed reference outranks a failed sketched
solve, as when the two ran in turn.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
# numpy loads np.random on first use, in every trial; importing it here puts that
# one-time cost in start-up, not in the first trial.
import numpy.random  # noqa: F401

from . import concentration as conc
from . import recover as rec
from .config import SKETCHED, ConfigError, DatasetIOError, ExperimentConfig
from .data import Dataset, load_csv, make_decaying_spectrum, make_low_rank
from .data import DEFAULT_RANK_THRESHOLD, numerical_rank, planted_spectrum, spectrum
from .losses import LossSpec, parse_loss
from .sketch import draw_blocks, project
from .solve import ConvergenceError, PrimalSolution, SolverConfig, solve_primal

__all__ = ["ReportDocument", "run_experiment", "solve_reference", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1

WORKERS_ENV = "DUALSKETCH_WORKERS"

# glibc's mallopt parameters.  The mmap threshold is pinned at glibc's own
# 64-bit ceiling for it (DEFAULT_MMAP_THRESHOLD_MAX) and the trim threshold
# at twice that, which is what glibc's dynamic rule would set there; the
# process keeps one malloc arena.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD = 32 << 20
# numpy's bundled OpenBLAS: the numpy 2 wheels' symbol, then the numpy 1 wheels'
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


@dataclass(frozen=True)
class ReportDocument:
    """Everything one experiment run produced."""

    schema_version: int
    config: dict
    records: list
    aggregates: dict
    wall_seconds: float
    runtime: dict = field(default_factory=dict)  # what _process_policy set; never in records

    @property
    def errored_trials(self) -> int:
        return sum(1 for r in self.records if "error" in r)

    def to_json(self) -> str:
        # records hold built-in values only, so asdict's deep copy would buy nothing
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)

    def to_csv(self) -> str:
        """Per-trial table; the header carries the schema version.

        Nested objects (like the bound block) flatten into key_subkey
        columns so the table stays one row per trial.
        """
        import csv  # here, so a JSON run does not pay for the import
        flat_records = [_flatten(r) for r in self.records]
        columns = list(dict.fromkeys(key for record in flat_records for key in record))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["schema_version", *columns])
        for record in flat_records or [{}]:  # no records still print the schema version row
            writer.writerow([self.schema_version, *(_csv_cell(record.get(key)) for key in columns)])
        return out.getvalue()


def _flatten(record: dict) -> dict:
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            for sub, subval in value.items():
                out[f"{key}_{sub}"] = subval
        else:
            out[key] = value
    return out


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(map(str, value))
    return value


def solve_reference(features, labels, loss: LossSpec, lam: float, tol: float = 1e-12) -> PrimalSolution:
    """Exact-solver reference at tight tolerance, with a float64 escape hatch.

    Tries the requested tolerance first; if the solver stalls at the
    floating-point floor, accepts the best iterate provided its certificate
    is still at most 1e-10 (far below every recovery error measured here).
    """
    try:
        return solve_primal(features, labels, loss, lam, SolverConfig(tolerance=tol))
    except ConvergenceError as exc:
        if exc.best.grad_norm <= max(tol, 1e-10):
            return exc.best
        raise


@dataclass(frozen=True)
class _Plan:
    """A run's constants, derived from the config and any --csv data before the first trial."""

    data: Dataset | None  # the --csv dataset, with its SVD planted for span_error and full_rank
    loss: LossSpec
    solver: SolverConfig
    m: int  # sketch size; the bound's m for bounds and concentration
    k: int  # numerical rank behind the full-rank bound; 0 elsewhere
    bound: float  # the experiment's bound value; 0.0 where it has none
    w_star: np.ndarray | None  # the --csv reference solution; None for generated data
    reference_error: str  # why the --csv reference solve failed; every trial reports it
    # the process's helper thread (module docstring); set per process, never pickled to a worker
    helper: ThreadPoolExecutor | None = None


def _read(loader, path: str, what: str):
    try:
        return loader(path)
    except OSError as exc:
        raise DatasetIOError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetIOError(f"bad {what} file {path}: {exc}") from exc


def _load_spectrum(path: str) -> np.ndarray:
    with warnings.catch_warnings():  # an empty file is reported below, as a bad file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        sv = np.loadtxt(path, dtype=float, ndmin=1)
    if not (np.all(np.isfinite(sv) & (sv >= 0)) and np.any(sv > 0)):  # all zeros: no rank to bound
        raise ValueError("values must be finite and nonnegative, at least one of them positive")
    return sv


def _reference(cfg: ExperimentConfig, data: Dataset, loss: LossSpec) -> np.ndarray:
    w_star = solve_reference(data.features, data.labels, loss, cfg.lam, cfg.reference_tol).weights
    if np.linalg.norm(w_star) == 0.0:  # for every loss, w* = 0 exactly when X y = 0
        raise DatasetIOError("the reference solution has zero norm (X y = 0, or lambda so large "
                             "that it underflows); relative errors are undefined")
    return w_star


def _plan(cfg: ExperimentConfig) -> _Plan:
    """Derive m, k, the bound value and every CSV result, once per run.

    m is d under ``identity_sketch``, else ``sketch_dim`` if above 0, else
    the analytic bound: the effective-rank one given a spectrum (measured
    for ``full_rank`` on CSV data, planted for decaying data, read from
    ``spectrum`` for ``bounds``), else the low-rank one.  Every config error
    (the ``find_min_m`` search's first m included) is raised here, before
    the CSV reference solve.  ``spectrum`` returns a planted SVD: generated
    decaying data's, or the one planted here on CSV data for ``span_error``
    and ``full_rank``; generated low-rank data is decomposed per trial.
    """
    exp, eps = cfg.experiment, cfg.epsilon
    sketched = exp in SKETCHED
    loss = parse_loss(cfg.loss)
    data = _read(load_csv, cfg.csv, "dataset") if sketched and cfg.data == "csv" else None
    d = cfg.d if data is None else data.d
    if data is not None and exp in ("span_error", "full_rank"):
        data = replace(data, planted=spectrum(data))
    sv = data.planted.singular_values if exp == "full_rank" and data is not None else None
    if exp == "bounds" and cfg.spectrum:
        sv = _read(_load_spectrum, cfg.spectrum, "spectrum")
    elif sketched and cfg.data == "decaying":
        sv = planted_spectrum(cfg.d, cfg.n, cfg.decay, cfg.top_singular)

    try:
        if sketched and cfg.identity_sketch:
            m = d
        elif exp != "bounds" and cfg.sketch_dim > 0:  # bounds always reports the analytic m
            m = cfg.sketch_dim
        elif sv is None:
            m = conc.sample_size_bound(cfg.rank, eps, cfg.delta, cfg.c or conc.LOW_RANK_C)
        else:
            m = conc.full_rank_sample_bound(sv, cfg.lam, loss.gamma, eps, cfg.delta, d,
                                            cfg.c or conc.FULL_RANK_C)
        start = conc._search_start(cfg.rank, eps) if cfg.find_min_m else 0  # the search's first m
    except ValueError as exc:  # epsilon above 1/2 for the low-rank bound
        raise ConfigError(str(exc)) from None
    # squares of sv, or the bound itself, overflow a float; or epsilon**2 underflows to 0
    except (OverflowError, ZeroDivisionError):
        raise ConfigError("the analytic sketch-size bound overflows a float") from None
    if sketched and m < 1:
        raise ConfigError("derived sketch dimension is zero; supply sketch_dim explicitly")
    # the Gaussian draw is d x m, or rank x m for concentration; bounds only reports m
    for what, size in (("sketch dimension m", m), ("the --find-min-m search's first m", start)):
        if exp != "bounds" and (d if sketched else cfg.rank) * size * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"{what} = {size} is too large for numpy to draw the sketch")

    k, bound = 0, 0.0
    if exp == "full_rank":
        k = numerical_rank(sv, math.sqrt(cfg.lam / loss.gamma))
        if k < 1:
            raise ConfigError("the top singular value must exceed sqrt(lambda/gamma) "
                              "for the full-rank bound to apply")
        sigma_k = float(sv[k - 1])  # records hold built-in types only; sv is a numpy array
        bound = (eps / (1.0 - eps)) * (1.0 + math.sqrt(cfg.lam) / (math.sqrt(loss.gamma) * sigma_k))
    elif exp == "iterate":
        try:
            bound = (eps / (1.0 - eps)) ** cfg.iters
        except OverflowError:
            raise ConfigError(f"the bound (eps/(1-eps))**iters overflows at epsilon {eps} "
                              f"and {cfg.iters} iterations") from None
    elif exp == "recover" and cfg.method == "naive":  # a lower bound; at most 0 for eps above ~0.376
        rank = cfg.rank if sv is None else numerical_rank(sv, DEFAULT_RANK_THRESHOLD * sv[0])
        shortfall = 1.0 - eps * math.sqrt(2.0 * (1.0 + eps)) / (1.0 - eps)
        bound = 0.5 * math.sqrt(max(d - rank, 0) / m) * shortfall
    elif exp == "recover":
        bound = eps / (1.0 - eps)
    elif exp == "measurement":
        bound = math.sqrt(2.0) * eps / math.sqrt(1.0 - eps)
    elif exp == "span_error":
        bound = eps * (1.0 + 1.0 / (1.0 - eps))

    w_star, reference_error = None, ""
    if data is not None:
        try:
            w_star = _reference(cfg, data, loss)
        except ConvergenceError as exc:
            reference_error = str(exc)
    solver = SolverConfig(tolerance=cfg.tol, max_iterations=cfg.max_iters)
    return _Plan(data, loss, solver, m, k, bound, w_star, reference_error)


# --- per-trial workers -------------------------------------------------

def _dataset(cfg: ExperimentConfig, plan: _Plan, seed: int) -> Dataset:
    """The trial's dataset: the run's own for --csv data, else drawn from ``seed``."""
    if plan.data is not None:
        return plan.data
    try:
        if cfg.data == "low_rank":
            return make_low_rank(cfg.d, cfg.n, cfg.rank, cfg.label_rule, seed)
        return make_decaying_spectrum(cfg.d, cfg.n, cfg.decay, seed, cfg.top_singular,
                                      cfg.label_rule)
    except ValueError as exc:  # the config is valid, so the features overflowed
        raise DatasetIOError(f"generated dataset is unusable: {exc}") from None


def _landed(fills) -> bool:
    """Whether every block of the trial's R has been drawn; true when it draws none."""
    return all(fill.done() for fill in fills)


def _trial_sketched(cfg: ExperimentConfig, plan: _Plan, t: int) -> dict:
    """Trial t of a sketched experiment: one ``recover_iterative`` run and its readouts.

    The module docstring gives its runtime schedule.  Only naive recovery
    and the measurement ratio read R; every other route frees it right
    after projection, before the sketched solve.  Dataset and sketch share
    the seed's stream, not independent ones (see the data module).
    """
    seed, exp = cfg.seed + t, cfg.experiment
    d = cfg.d if plan.data is None else plan.data.d
    if cfg.identity_sketch:  # exact, m = d: nothing to draw
        r_matrix, landed = np.sqrt(plan.m) * np.eye(d), []
    else:
        r_matrix, landed = draw_blocks(d, plan.m, seed, plan.helper)
    try:
        data, w_star = _dataset(cfg, plan, seed), plan.w_star
        if w_star is None and not _landed(landed):  # solved here while R lands
            w_star = _reference(cfg, data, plan.loss)
        sk = project(data, r_matrix, plan.m, None if cfg.identity_sketch else seed, landed,
                     helper=plan.helper)
    finally:
        for fill in landed:  # a trial that fails before projecting leaves no fill writing to R
            fill.cancel()
        wait(landed)
    naive_read = cfg.method == "naive" or exp in ("naive_vs_drp", "span_error")
    r_matrix = sk.matrix_r if naive_read or exp == "measurement" else None
    sk = replace(sk, matrix_r=None)  # the solve reads only the sketched features

    # R has landed and gone where no readout reads it: the helper solves the reference
    job = None if w_star is not None else plan.helper.submit(_reference, cfg, data, plan.loss)
    head = {"trial": t, "seed": seed, "m": sk.m}
    bound = {"epsilon": cfg.epsilon, "value": plan.bound}
    try:
        result, trace = rec.recover_iterative(
            data, plan.loss, cfg.lam, sk, cfg.iters if exp == "iterate" else 1, plan.solver,
            reference=w_star if job is None else job.result, early_stop=cfg.early_stop,
        )
    except Exception:
        if job is not None:  # waits, so no reference runs on into the next trial
            job.result()  # a failed reference outranks the sketch's failure
        raise
    if job is not None:
        w_star = job.result()  # pass 1 has joined it
    rel, z = result.rel_error, trace.sketched_weights
    if naive_read:
        naive = rec.recover_naive(r_matrix, z, sk.m)
        naive_rel = rec.relative_error(naive, w_star)

    if exp in ("recover", "iterate"):
        method = "drp_iterative" if exp == "iterate" else cfg.method
        rel = naive_rel if method == "naive" else rel
        return {
            "trial": t, "seed": seed, "method": method, "m": sk.m, "rel_error": rel, "bound": bound,
            # the naive bound is a lower bound: failure to be bad is the anomaly
            "within_bound": rel >= plan.bound if method == "naive" else rel <= plan.bound,
            "trace": [float(v) for v in trace.per_iteration_errors] if exp == "iterate" else [],
        }
    if exp == "naive_vs_drp":
        return {**head, "naive_rel_error": naive_rel, "drp_rel_error": rel,
                "ratio": naive_rel / rel if rel > 0 else math.inf}
    if exp == "measurement":
        ratio = rec.measurement_error(z, r_matrix, sk.m, w_star)
        return {**head, "measurement_error": ratio, "bound": bound,
                "within_bound": ratio <= plan.bound}
    if exp == "span_error":
        span_rel = (rec.span_restricted_error(spectrum(data), naive, w_star)
                    / float(np.linalg.norm(w_star)))
        return {**head, "span_rel_error": span_rel, "full_rel_error": naive_rel, "bound": bound,
                "within_bound": span_rel <= plan.bound}
    top_k = spectrum(data).left_vectors[:, :plan.k]  # full_rank
    leakage = float(np.linalg.norm(w_star - top_k @ (top_k.T @ w_star)) / np.linalg.norm(w_star))
    return {**head, "k": plan.k, "rel_error": rel, "subspace_leakage": leakage, "bound": bound,
            "within_bound": rel <= plan.bound}


def _trial_concentration(cfg: ExperimentConfig, plan: _Plan, t: int) -> dict:
    seed = cfg.seed + t
    dev = conc.spectral_deviation(cfg.rank, plan.m, seed)
    return {"trial": t, "seed": seed, "m": plan.m, "deviation": dev, "pass": dev <= cfg.epsilon}


def _run_one(cfg: ExperimentConfig, plan: _Plan, t: int) -> dict:
    error = plan.reference_error
    if not error:
        try:
            trial = _trial_concentration if cfg.experiment == "concentration" else _trial_sketched
            return trial(cfg, plan, t)
        except ConvergenceError as exc:
            error = str(exc)
    return {"trial": t, "seed": cfg.seed + t, "error": error}


_worker_run: tuple | None = None  # a pool worker's (cfg, plan), installed when it starts


def _install_run(cfg: ExperimentConfig, plan: _Plan) -> None:
    global _worker_run
    _process_policy()  # a forked worker inherits it; a spawned one starts without it
    _worker_run = (cfg, replace(plan, helper=ThreadPoolExecutor(max_workers=1)))


def _run_installed(t: int) -> dict:
    return _run_one(*_worker_run, t)


# --- aggregation -------------------------------------------------------

def _clean(records, key):
    return [r[key] for r in records if "error" not in r and key in r]


def _median(values: list) -> float:
    """``np.median(values)`` bit for bit, without the numpy.ma import it makes for its NaN check."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered, mid = sorted(values), len(values) // 2
    return ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _aggregate(cfg: ExperimentConfig, records: list) -> dict:
    agg: dict = {"trials": len(records), "errored_trials": sum(1 for r in records if "error" in r)}
    if cfg.experiment == "naive_vs_drp":
        naive = _clean(records, "naive_rel_error")
        drp = _clean(records, "drp_rel_error")
        if naive and drp:
            agg["mean_naive_rel_error"] = float(np.mean(naive))
            agg["mean_drp_rel_error"] = float(np.mean(drp))
            agg["ratio_of_means"] = (
                agg["mean_naive_rel_error"] / agg["mean_drp_rel_error"]
                if agg["mean_drp_rel_error"] > 0 else math.inf
            )
        return agg
    if cfg.experiment == "concentration":
        devs = _clean(records, "deviation")
        passes = _clean(records, "pass")
        if devs:
            agg["max_deviation"] = float(np.max(devs))
            agg["mean_deviation"] = float(np.mean(devs))
            agg["success_fraction"] = float(np.mean(passes))
        return agg
    if cfg.experiment == "bounds":
        return agg
    metric = {
        "recover": "rel_error",
        "iterate": "rel_error",
        "measurement": "measurement_error",
        "span_error": "span_rel_error",
        "full_rank": "rel_error",
    }[cfg.experiment]
    values = _clean(records, metric)
    if values:
        agg["mean_" + metric] = float(np.mean(values))
        agg["median_" + metric] = _median(values)
        agg["max_" + metric] = float(np.max(values))
        within = _clean(records, "within_bound")
        agg["success_fraction"] = float(np.mean(within))
    return agg


def _run_bounds(cfg: ExperimentConfig, plan: _Plan) -> list:
    if cfg.spectrum:
        return [{
            "trial": 0, "m": plan.m, "kind": "full_rank", "epsilon": cfg.epsilon,
            "delta": cfg.delta, "c": cfg.c or conc.FULL_RANK_C, "d": cfg.d,
        }]
    return [{
        "trial": 0, "m": plan.m, "kind": "low_rank", "rank": cfg.rank,
        "epsilon": cfg.epsilon, "delta": cfg.delta, "c": cfg.c or conc.LOW_RANK_C,
    }]


def _pool_size(jobs: int) -> int:
    """DUALSKETCH_WORKERS capped at the job count, since the pool starts every worker up front."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return min(workers, jobs)


def _process_policy() -> dict:
    """Pin glibc's malloc to fixed thresholds and one arena, and numpy's OpenBLAS to one thread.

    glibc's dynamic rule raises the mmap threshold to the largest block it
    has unmapped (here a trial's ~800 KB arrays) and the trim threshold to
    twice that, so each trial's frees hand the top of the heap back to the
    kernel and the next trial faults the same pages in again.  Pinned, the
    pages stay with the process.  One arena keeps the helper thread's
    temporaries (the reference solve it may run) in the heap the trial
    thread reuses, not in a second heap that holds its own pages.  One
    BLAS thread keeps the records from depending on the host's core
    count, and pool workers from competing for cores.  Either half is
    skipped where its library or symbol is missing (not glibc, or not
    numpy's bundled OpenBLAS), and the returned block, the report's
    ``runtime``, says so: ``blas_threads`` is 1 or None (the library's own
    count) and ``malloc_thresholds`` is "pinned" (both thresholds and the
    one arena took) or "dynamic" (glibc's rule, or another allocator's).
    Neither half moves a record computed at one BLAS thread.
    """
    import ctypes  # here, so that start-up does not pay for it
    import glob

    runtime = {"blas_threads": None, "malloc_thresholds": "dynamic"}
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        mallopt = None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        # mallopt returns 1 on success and 0 for a value it refuses
        if (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
                and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD) == 1
                and mallopt(_M_ARENA_MAX, 1) == 1):
            runtime["malloc_thresholds"] = "pinned"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)  # already loaded by numpy, so this returns its handle
        setter = next((getattr(lib, name) for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            runtime["blas_threads"] = 1
            break
    return runtime


def run_experiment(cfg: ExperimentConfig) -> ReportDocument:
    """Execute the configured experiment and assemble its report.

    Bound violations are data, not errors; a record gains an ``error`` key
    only when a trial's solver fails to converge.
    """
    start = time.perf_counter()
    runtime = _process_policy()  # before _plan, which solves a CSV reference
    echo = asdict(cfg)
    plan = _plan(cfg)
    if cfg.experiment == "bounds":
        records = _run_bounds(cfg, plan)
    else:
        workers = _pool_size(cfg.trials)
        if workers > 1:  # each worker starts its own helper
            with ProcessPoolExecutor(max_workers=workers, initializer=_install_run,
                                     initargs=(cfg, plan)) as pool:
                records = list(pool.map(_run_installed, range(cfg.trials)))
        else:  # the helper's thread starts at the first draw, so a run that draws none starts none
            with ThreadPoolExecutor(max_workers=1) as helper:
                plan = replace(plan, helper=helper)
                records = [_run_one(cfg, plan, t) for t in range(cfg.trials)]
    aggregates = _aggregate(cfg, records)
    if cfg.find_min_m:  # a concentration key
        aggregates["smallest_passing_m"] = conc.smallest_passing_m(cfg.rank, cfg.epsilon,
                                                                   cfg.trials, cfg.seed)
    wall = time.perf_counter() - start
    return ReportDocument(
        schema_version=REPORT_SCHEMA_VERSION,
        config=echo,
        records=records,
        aggregates=aggregates,
        wall_seconds=wall,
        runtime=runtime,
    )
