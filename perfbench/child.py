"""One benchmark invocation: a fresh process that runs ``dualsketch.cli.main``.

Usage: python3 perfbench/child.py '<job json>'

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src``
and OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 already in the environment, so
numpy is imported with the thread count the benchmark records.  The job
holds the workload's fields, the CLI seed, the report path and whether
to trace.

The process validates the config it is about to run (the end of set-up),
runs the CLI untraced, and checks the report: exit code 0 or 1 and
consistent with the errored trials, the config echo, one record per trial
with the right seed, and aggregates that recompute from the records.  With
``trace`` set it then replays every trial through the public layer
functions with a span around each call and requires the replayed errors
to equal the CLI's records bit for bit.  The last stdout line is a JSON
result for ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import Workload, cli_argv, config_fields  # noqa: E402


class Tracer:
    """Spans kept in memory: name, start, end, parent span index and trial id.

    A span may also carry a ``count`` (solver iterations, passes, bytes).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trial=None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = self.spans[parent]["trial"]
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "trial": trial}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of opening and closing one empty span."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe", trial=0):
            pass
    return (time.perf_counter() - start) / samples


def records_sha256(records: list) -> str:
    """Hash of the records' canonical JSON, for byte-identity across commits."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def accuracy(experiment: str, record: dict) -> tuple[float, bool]:
    """(relative error, within bound) of one trial; DRP beating naive counts as within."""
    if experiment == "naive_vs_drp":
        return record["drp_rel_error"], record["naive_rel_error"] > record["drp_rel_error"]
    return record["rel_error"], record["within_bound"]


def expected_aggregates(experiment: str, records: list) -> dict:
    """The report aggregates, recomputed independently from the records."""
    import numpy as np

    ok = [r for r in records if "error" not in r]
    agg = {"trials": len(records), "errored_trials": len(records) - len(ok)}
    if not ok:
        return agg
    if experiment == "naive_vs_drp":
        naive = float(np.mean([r["naive_rel_error"] for r in ok]))
        drp = float(np.mean([r["drp_rel_error"] for r in ok]))
        agg.update(mean_naive_rel_error=naive, mean_drp_rel_error=drp,
                   ratio_of_means=naive / drp if drp > 0 else math.inf)
    else:
        errors = [r["rel_error"] for r in ok]
        agg.update(mean_rel_error=float(np.mean(errors)),
                   median_rel_error=float(np.median(errors)),
                   max_rel_error=float(np.max(errors)),
                   success_fraction=float(np.mean([r["within_bound"] for r in ok])))
    return agg


def check_report(w: Workload, cfg, code, doc: dict) -> list[str]:
    """Problems with one CLI report; an empty list means it passed."""
    problems = []
    records = doc.get("records", [])
    errored = sum(1 for r in records if "error" in r)
    if code not in (0, 1) or code != (1 if errored else 0):
        problems.append(f"exit code {code} with {errored} errored trials")
    if doc.get("config") != asdict(cfg):
        problems.append("report config differs from the validated config")
    if [(r.get("trial"), r.get("seed")) for r in records] != [
        (t, cfg.seed + t) for t in range(w.trials)
    ]:
        problems.append("records do not match trials 0..T-1 with seeds seed + t")
    expected = expected_aggregates(w.experiment, records)
    got = doc.get("aggregates", {})
    if set(got) != set(expected) or not all(
        math.isclose(got[k], v, rel_tol=1e-12) for k, v in expected.items()
    ):
        problems.append(f"aggregates {got} do not recompute from the records ({expected})")
    return problems


def replay_trial(tr: Tracer, cfg, m: int, t: int) -> dict:
    """Redo trial ``t`` through public layer functions under spans.

    The DRP map-back is replayed from the one sketched solve (dual read-off
    plus map through X), which is all the method needs; the CLI solves the
    sketched problem a second time inside ``recover_drp``, and that
    repeated work shows up as ``experiments.unaccounted_s``.
    """
    import numpy as np

    from dualsketch import (
        ConvergenceError, SolverConfig, dual_from_primal, gaussian_matrix,
        make_decaying_spectrum, make_low_rank, numerical_rank, parse_loss,
        primal_from_dual, project, recover_iterative, recover_naive,
        relative_error, solve_primal, spectrum,
    )
    from dualsketch.experiments import solve_reference

    seed = cfg.seed + t
    loss = parse_loss(cfg.loss)
    solver = SolverConfig(tolerance=cfg.tol, max_iterations=cfg.max_iters)
    with tr.span("experiments.trial", trial=t):
        try:
            with tr.span("data.generate"):
                if cfg.data == "decaying":
                    data = make_decaying_spectrum(cfg.d, cfg.n, cfg.decay, seed,
                                                  cfg.top_singular, cfg.label_rule)
                else:
                    data = make_low_rank(cfg.d, cfg.n, cfg.rank, cfg.label_rule, seed)
            with tr.span("sketch.draw"):
                r_matrix = gaussian_matrix(data.d, m, seed)
            with tr.span("sketch.project"):
                sk = project(data, r_matrix, m, seed)
            with tr.span("solve.reference") as sp:
                ref = solve_reference(data.features, data.labels, loss, cfg.lam,
                                      cfg.reference_tol)
            sp["count"] = ref.iterations
            w_star = ref.weights

            if cfg.experiment == "iterate":
                with tr.span("recover.iterative") as sp:
                    result, trace = recover_iterative(
                        data, loss, cfg.lam, sk, cfg.iters, solver,
                        reference=w_star, early_stop=cfg.early_stop,
                    )
                sp["count"] = len(trace.per_iteration_errors) - 1
                return {"rel_error": result.rel_error,
                        "trace": [float(v) for v in trace.per_iteration_errors]}

            with tr.span("solve.sketched") as sp:
                z_sol = solve_primal(sk.sketched_features, data.labels, loss, cfg.lam, solver)
            sp["count"] = z_sol.iterations
            with tr.span("recover.drp"):
                dual = dual_from_primal(sk.sketched_features, data.labels, loss, z_sol.weights)
                w_drp = primal_from_dual(data.features, data.labels, cfg.lam, dual)
            drp_rel = relative_error(w_drp, w_star)

            if cfg.experiment == "naive_vs_drp":
                with tr.span("recover.naive"):
                    naive = recover_naive(r_matrix, z_sol.weights, m)
                return {"naive_rel_error": relative_error(naive, w_star),
                        "drp_rel_error": drp_rel}

            with tr.span("data.spectrum"):
                spec = spectrum(data)
            planted = cfg.top_singular * np.arange(1, min(cfg.d, cfg.n) + 1,
                                                   dtype=float) ** (-cfg.decay)
            k = numerical_rank(planted, math.sqrt(cfg.lam / loss.gamma))
            top_k = spec.left_vectors[:, :k]
            leakage = float(np.linalg.norm(w_star - top_k @ (top_k.T @ w_star))
                            / np.linalg.norm(w_star))
            return {"k": k, "rel_error": drp_rel, "subspace_leakage": leakage}
        except ConvergenceError as exc:
            return {"error": str(exc)}


def replay(cfg, doc: dict, report_copy: str) -> dict:
    """Traced replay of every trial plus the report serialisation."""
    from dualsketch import ReportDocument

    tr = Tracer()
    m = next(r["m"] for r in doc["records"] if "m" in r)
    mismatched = []
    for t, record in enumerate(doc["records"]):
        replayed = replay_trial(tr, cfg, m, t)
        if any(record.get(key) != value for key, value in replayed.items()):
            mismatched.append(t)
    with tr.span("experiments.report") as sp:
        report = ReportDocument(**{f.name: doc[f.name] for f in fields(ReportDocument)})
        text = report.to_json()
        with open(report_copy, "w", encoding="utf-8") as fh:
            fh.write(text)
    sp["count"] = len(text.encode("utf-8"))
    return {
        "spans": tr.spans,
        "span_cost_s": span_cost_s(),
        "matrix_mb": cfg.d * m * 8 / 1e6,
        "problems": [f"replayed trials {mismatched} differ from the CLI records"]
        if mismatched else [],
    }


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[Path(path).name] = int(getter())
                    break
    return found


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(job: dict) -> dict:
    import dualsketch
    from dualsketch import cli
    from dualsketch.config import config_from_mapping

    w = Workload(**job["workload"])
    cfg = config_from_mapping(config_fields(w, job["seed"], job["output"]))
    ready = time.monotonic()

    source = Path("src", "dualsketch").resolve()
    if Path(dualsketch.__file__).resolve().parent != source:
        raise RuntimeError(f"imported dualsketch from {dualsketch.__file__}, not {source}")

    start = time.perf_counter()
    code = cli.main(cli_argv(w, job["seed"], job["output"]))
    wall = time.perf_counter() - start
    with open(job["output"], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = check_report(w, cfg, code, doc)
    records = doc.get("records", [])
    ok = [r for r in records if "error" not in r]
    result = {
        "ready_monotonic": ready,
        "cli_wall_s": wall,
        "trials": len(records),
        "errored": len(records) - len(ok),
        "accuracy": [accuracy(w.experiment, r) for r in ok],
        "records_sha256": records_sha256(records),
        "problems": problems,
        "environment": environment(),
    }
    if job["trace"]:
        traced = replay(cfg, doc, job["output"] + ".replay")
        result["problems"] = problems + traced.pop("problems")
        result.update(traced)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = peak_kb / 1024.0
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    try:
        outcome = main(job)
    except Exception:  # the run is lost; report why instead of a bare traceback
        outcome = {"lost": traceback.format_exc()}
    print(json.dumps(outcome))
