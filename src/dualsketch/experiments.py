"""Experiment drivers: one runnable experiment per recovery guarantee.

Each experiment maps a config to a ``ReportDocument``: a config echo, one
record per trial, and aggregates recomputable from the records.  Trial t
derives every random object (generated dataset, projection) from
``seed + t``, so runs are reproducible and resumable; a worker pool (size
from the DUALSKETCH_WORKERS environment variable) only changes wall time,
never the records.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import concentration as conc
from . import recover as rec
from .config import ConfigError, DatasetIOError, ExperimentConfig
from .data import Dataset, load_csv, make_decaying_spectrum, make_low_rank, numerical_rank, spectrum
from .losses import LossSpec, parse_loss
from .sketch import gaussian_sketch, identity_sketch
from .solve import ConvergenceError, LinearSolveError, PrimalSolution, SolverConfig, solve_primal
from .solve import dual_from_primal, primal_from_dual

__all__ = ["ReportDocument", "run_experiment", "solve_reference", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1

WORKERS_ENV = "DUALSKETCH_WORKERS"


@dataclass(frozen=True)
class ReportDocument:
    """Everything one experiment run produced."""

    schema_version: int
    config: dict
    records: list
    aggregates: dict
    wall_seconds: float

    @property
    def errored_trials(self) -> int:
        return sum(1 for r in self.records if "error" in r)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "config": self.config,
                "records": self.records,
                "aggregates": self.aggregates,
                "wall_seconds": self.wall_seconds,
            },
            indent=2,
        )

    def to_csv(self) -> str:
        """Per-trial table; the header carries the schema version.

        Nested objects (like the bound block) flatten into key_subkey
        columns so the table stays one row per trial.
        """
        flat_records = [_flatten(r) for r in self.records]
        if not flat_records:
            return f"schema_version\n{self.schema_version}\n"
        columns = []
        for record in flat_records:
            for key in record:
                if key not in columns:
                    columns.append(key)
        out = io.StringIO()
        out.write(",".join(["schema_version"] + columns) + "\n")
        for record in flat_records:
            cells = [str(self.schema_version)]
            for key in columns:
                cells.append(_csv_cell(record.get(key)))
            out.write(",".join(cells) + "\n")
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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if ("," in text or '"' in text) else text


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


def _build_dataset(cfg: ExperimentConfig, seed: int) -> Dataset:
    if cfg.data == "low_rank":
        return make_low_rank(cfg.d, cfg.n, cfg.rank, cfg.label_rule, seed)
    if cfg.data == "decaying":
        return make_decaying_spectrum(
            cfg.d, cfg.n, cfg.decay, seed, cfg.top_singular, cfg.label_rule
        )
    try:
        return load_csv(cfg.csv)
    except OSError as exc:
        raise DatasetIOError(f"cannot read dataset {cfg.csv}: {exc}") from exc
    except ValueError as exc:
        raise DatasetIOError(f"bad dataset file {cfg.csv}: {exc}") from exc


def _bound_spectrum(cfg: ExperimentConfig, data: Dataset, spec=None) -> np.ndarray:
    """Singular values behind the full-rank k, m and bound: measured for CSV data, planted otherwise."""
    if cfg.data == "csv":
        return (spectrum(data) if spec is None else spec).singular_values
    k = min(cfg.d, cfg.n)
    return cfg.top_singular * np.arange(1, k + 1, dtype=float) ** (-cfg.decay)


def _bound_m(cfg: ExperimentConfig, singular_values=None, d: int = 0) -> int:
    """Analytic sketch size: the effective-rank bound for the singular values of
    d-dimensional data when given, else the low-rank bound."""
    try:
        if singular_values is None:
            return conc.sample_size_bound(cfg.rank, cfg.epsilon, cfg.delta, cfg.c or conc.LOW_RANK_C)
        return conc.full_rank_sample_bound(
            singular_values, cfg.lam, parse_loss(cfg.loss).gamma,
            cfg.epsilon, cfg.delta, d, cfg.c or conc.FULL_RANK_C,
        )
    except ValueError as exc:  # epsilon above 1/2 for the low-rank bound
        raise ConfigError(str(exc)) from None


def _sketch_dim(cfg: ExperimentConfig, data: Dataset) -> int:
    if cfg.sketch_dim > 0:
        return cfg.sketch_dim
    if cfg.experiment == "full_rank" or (cfg.from_bound and cfg.data == "decaying"):
        m = _bound_m(cfg, _bound_spectrum(cfg, data), data.d)
    else:
        m = _bound_m(cfg)
    if m < 1:
        raise ConfigError("derived sketch dimension is zero; supply sketch_dim explicitly")
    return m


def _setup(cfg: ExperimentConfig, t: int):
    """Trial t's seed, dataset, loss, sketch, reference weights and solver config."""
    seed = cfg.seed + t
    data = _build_dataset(cfg, seed)
    loss = parse_loss(cfg.loss)
    sk = identity_sketch(data) if cfg.identity_sketch else gaussian_sketch(data, _sketch_dim(cfg, data), seed)
    w_star = solve_reference(data.features, data.labels, loss, cfg.lam, cfg.reference_tol).weights
    if np.linalg.norm(w_star) == 0.0:  # for every loss, w* = 0 exactly when X y = 0
        raise DatasetIOError("the reference solution has zero norm (X y = 0, or lambda so large "
                             "that it underflows); relative errors are undefined")
    solver = SolverConfig(tolerance=cfg.tol, max_iterations=cfg.max_iters)
    return seed, data, loss, sk, w_star, solver


def _naive_lower_bound(cfg: ExperimentConfig, d: int, m: int) -> float:
    eps = cfg.epsilon
    return 0.5 * math.sqrt(max(d - cfg.rank, 0) / m) * (1.0 - eps * math.sqrt(2.0 * (1.0 + eps)) / (1.0 - eps))


# --- per-trial workers -------------------------------------------------

def _trial_recover(cfg: ExperimentConfig, t: int) -> dict:
    seed, data, loss, sk, w_star, solver = _setup(cfg, t)
    eps = cfg.epsilon
    if cfg.method == "naive":
        z_sol = solve_primal(sk.sketched_features, data.labels, loss, cfg.lam, solver)
        w = rec.recover_naive(sk.matrix_r, z_sol.weights, sk.m)
        rel = rec.relative_error(w, w_star)
        bound_value = _naive_lower_bound(cfg, data.d, sk.m)
        ok = rel >= bound_value  # lower bound: failure to be bad is the anomaly
    elif cfg.method == "ridge_closed":
        w = rec.ridge_drp_closed_form(data, cfg.lam, sk)
        rel = rec.relative_error(w, w_star)
        bound_value = eps / (1.0 - eps)
        ok = rel <= bound_value
    else:
        result = rec.recover_drp(data, loss, cfg.lam, sk, solver, reference=w_star)
        rel = result.rel_error
        bound_value = eps / (1.0 - eps)
        ok = rel <= bound_value
    return {
        "trial": t, "seed": seed, "method": cfg.method, "m": sk.m,
        "rel_error": rel, "bound": {"epsilon": eps, "value": bound_value},
        "within_bound": ok, "trace": [],
    }


def _trial_iterate(cfg: ExperimentConfig, t: int) -> dict:
    seed, data, loss, sk, w_star, solver = _setup(cfg, t)
    result, trace = rec.recover_iterative(
        data, loss, cfg.lam, sk, cfg.iters, solver,
        reference=w_star, early_stop=cfg.early_stop,
    )
    eps = cfg.epsilon
    bound_value = (eps / (1.0 - eps)) ** cfg.iters
    return {
        "trial": t, "seed": seed, "method": "drp_iterative", "m": sk.m,
        "rel_error": result.rel_error, "bound": {"epsilon": eps, "value": bound_value},
        "within_bound": result.rel_error <= bound_value,
        "trace": [float(v) for v in trace.per_iteration_errors],
    }


def _trial_naive_vs_drp(cfg: ExperimentConfig, t: int) -> dict:
    seed, data, loss, sk, w_star, solver = _setup(cfg, t)
    z = solve_primal(sk.sketched_features, data.labels, loss, cfg.lam, solver).weights
    naive_rel = rec.relative_error(rec.recover_naive(sk.matrix_r, z, sk.m), w_star)
    dual = dual_from_primal(sk.sketched_features, data.labels, loss, z)
    drp_rel = rec.relative_error(primal_from_dual(data.features, data.labels, cfg.lam, dual), w_star)
    return {
        "trial": t, "seed": seed, "m": sk.m,
        "naive_rel_error": naive_rel, "drp_rel_error": drp_rel,
        "ratio": naive_rel / drp_rel if drp_rel > 0 else math.inf,
    }


def _trial_measurement(cfg: ExperimentConfig, t: int) -> dict:
    seed, data, loss, sk, w_star, solver = _setup(cfg, t)
    z_sol = solve_primal(sk.sketched_features, data.labels, loss, cfg.lam, solver)
    ratio = rec.measurement_error(z_sol.weights, sk.matrix_r, sk.m, w_star)
    eps = cfg.epsilon
    bound_value = math.sqrt(2.0) * eps / math.sqrt(1.0 - eps)
    return {
        "trial": t, "seed": seed, "m": sk.m, "measurement_error": ratio,
        "bound": {"epsilon": eps, "value": bound_value},
        "within_bound": ratio <= bound_value,
    }


def _trial_span_error(cfg: ExperimentConfig, t: int) -> dict:
    seed, data, loss, sk, w_star, solver = _setup(cfg, t)
    z_sol = solve_primal(sk.sketched_features, data.labels, loss, cfg.lam, solver)
    naive = rec.recover_naive(sk.matrix_r, z_sol.weights, sk.m)
    spec = spectrum(data)
    w_norm = float(np.linalg.norm(w_star))
    span_rel = rec.span_restricted_error(spec, naive, w_star) / w_norm
    full_rel = rec.relative_error(naive, w_star)
    eps = cfg.epsilon
    bound_value = eps * (1.0 + 1.0 / (1.0 - eps))
    return {
        "trial": t, "seed": seed, "m": sk.m,
        "span_rel_error": span_rel, "full_rel_error": full_rel,
        "bound": {"epsilon": eps, "value": bound_value},
        "within_bound": span_rel <= bound_value,
    }


def _trial_full_rank(cfg: ExperimentConfig, t: int) -> dict:
    seed, data, loss, sk, w_star, solver = _setup(cfg, t)
    spec = spectrum(data)
    sv = _bound_spectrum(cfg, data, spec)
    k = numerical_rank(sv, math.sqrt(cfg.lam / loss.gamma))
    if k < 1:
        raise ConfigError(
            "the top singular value must exceed sqrt(lambda/gamma) for the full-rank bound to apply"
        )
    result = rec.recover_drp(data, loss, cfg.lam, sk, solver, reference=w_star)
    top_k = spec.left_vectors[:, :k]
    w_norm = float(np.linalg.norm(w_star))
    leakage = float(np.linalg.norm(w_star - top_k @ (top_k.T @ w_star)) / w_norm)
    eps = cfg.epsilon
    bound_value = (eps / (1.0 - eps)) * (1.0 + math.sqrt(cfg.lam) / (math.sqrt(loss.gamma) * sv[k - 1]))
    return {
        "trial": t, "seed": seed, "m": sk.m, "k": k,
        "rel_error": result.rel_error, "subspace_leakage": leakage,
        "bound": {"epsilon": eps, "value": bound_value},
        "within_bound": result.rel_error <= bound_value,
    }


def _trial_concentration(cfg: ExperimentConfig, t: int) -> dict:
    seed = cfg.seed + t
    m = cfg.sketch_dim or _bound_m(cfg)
    dev = conc.spectral_deviation(cfg.rank, m, seed)
    return {
        "trial": t, "seed": seed, "m": m, "deviation": dev,
        "pass": dev <= cfg.epsilon,
    }


_TRIALS = {
    "recover": _trial_recover,
    "iterate": _trial_iterate,
    "naive_vs_drp": _trial_naive_vs_drp,
    "measurement": _trial_measurement,
    "span_error": _trial_span_error,
    "full_rank": _trial_full_rank,
    "concentration": _trial_concentration,
}


def _py(value):
    """Coerce numpy scalars and arrays so records serialize as plain JSON."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_py(v) for v in value]
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    return value


def _run_one(args) -> dict:
    cfg, t = args
    try:
        record = _TRIALS[cfg.experiment](cfg, t)
        return {key: _py(val) for key, val in record.items()}
    except (ConvergenceError, LinearSolveError) as exc:
        return {"trial": t, "seed": cfg.seed + t, "error": str(exc)}


# --- aggregation -------------------------------------------------------

def _clean(records, key):
    return [r[key] for r in records if "error" not in r and key in r]


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
        agg["median_" + metric] = float(np.median(values))
        agg["max_" + metric] = float(np.max(values))
        within = _clean(records, "within_bound")
        agg["success_fraction"] = float(np.mean(within))
    return agg


def _run_bounds(cfg: ExperimentConfig) -> list:
    if cfg.full_rank:
        try:
            sv = np.loadtxt(cfg.spectrum, dtype=float, ndmin=1)
        except OSError as exc:
            raise DatasetIOError(f"cannot read spectrum {cfg.spectrum}: {exc}") from exc
        except ValueError as exc:
            raise DatasetIOError(f"bad spectrum file {cfg.spectrum}: {exc}") from exc
        if not np.all(np.isfinite(sv) & (sv >= 0)):
            raise DatasetIOError(f"bad spectrum file {cfg.spectrum}: values must be finite and nonnegative")
        m = _bound_m(cfg, sv, cfg.d)
        return [{
            "trial": 0, "m": m, "kind": "full_rank", "epsilon": cfg.epsilon,
            "delta": cfg.delta, "c": cfg.c or conc.FULL_RANK_C, "d": cfg.d,
        }]
    return [{
        "trial": 0, "m": _bound_m(cfg), "kind": "low_rank", "rank": cfg.rank,
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


def run_experiment(cfg: ExperimentConfig) -> ReportDocument:
    """Execute the configured experiment and assemble its report.

    Bound violations are data, not errors; a record gains an ``error`` key
    only when a trial's solver fails to converge or a linear solve fails.
    """
    start = time.perf_counter()
    echo = asdict(cfg)
    if cfg.experiment == "bounds":
        records = _run_bounds(cfg)
    else:
        jobs = [(cfg, t) for t in range(cfg.trials)]
        workers = _pool_size(len(jobs))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_run_one, jobs))
        else:
            records = [_run_one(job) for job in jobs]
    aggregates = _aggregate(cfg, records)
    if cfg.experiment == "concentration" and cfg.find_min_m:
        aggregates["smallest_passing_m"] = conc.smallest_passing_m(
            cfg.rank, cfg.epsilon, cfg.trials, cfg.seed,
            m_hint=records[0]["m"] if records else None,
        )
    wall = time.perf_counter() - start
    return ReportDocument(
        schema_version=REPORT_SCHEMA_VERSION,
        config=echo,
        records=records,
        aggregates=aggregates,
        wall_seconds=wall,
    )
