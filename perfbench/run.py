"""Benchmark of the dualsketch CLI: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program runs from the checkout's ``src`` directory; nothing is
installed.  Each invocation of ``dualsketch.cli.main`` gets a fresh process
(``child.py``) with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, so total BLAS
threads stay within the core count: one in serial workloads, one per worker
in the pool workload.  With default OpenBLAS threading every process asks
for as many threads as there are cores and the timings measure the
scheduler instead (see README.md).

The loop is closed: invocations run back to back until ``--seconds`` have
passed; with ``--trace 0`` at least the workload's panel always runs.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: process start through ``import dualsketch`` and config
  validation, median over invocations;
- ``trials_per_s``: trials completed without error divided by the wall
  time of ``cli.main``, summed over invocations;
- ``peak_rss_mb``: the larger of the process's peak RSS and its children's,
  median over invocations;
- ``completed_frac``: 1 - failed_frac, where failed trials are errored ones
  plus every trial of a lost invocation (bad exit code, traceback, timeout);
- ``within_bound_frac`` and ``rel_error_median``: over the trials of the
  fixed panel (see ``workloads.py``), the fraction within the paper's bound
  (naive error above DRP error for naive-vs-drp) and the median relative
  error of the recovered weights.

The two timings are scaled to a reference host speed.  On the shared VM the
bounds were set on, the same work runs up to 30% slower for stretches of
seconds to minutes; that drift, not the code, set the run-to-run spread.
So the parent times a fixed calibration kernel (``calibrate``) before,
between and after the invocations.  The run's slowness is the median
kernel time over ``CALIBRATION_REFERENCE_S``.  ``setup_s`` is divided by
it and ``trials_per_s`` multiplied by it.  The uncorrected figures and the
slowness are printed above the result.

``--trace 1`` replays every trial under spans (see ``child.py``) and
prints the per-layer metrics: medians per trial of each layer's time and
iteration counts, trial-time percentiles, report serialisation, the share
of CLI time the replay does not account for, pool efficiency and the
measured tracing overhead.  Spans are written to
``.perfbench_out/spans-<workload>-seed<N>.json`` when the run ends.

Both modes check every report (see ``child.py``); the last stdout line is
the JSON result.  The script exits 2 without a result when the checkout
has no ``src/dualsketch``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, cli_argv, cli_seed  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
OUT_DIR = ".perfbench_out"
# The whole run must end well inside three minutes.
RUN_LIMIT_S = 170.0
# Time of ``calibrate()`` on the 2-core VM the bounds were set on, in a fast stretch.
CALIBRATION_REFERENCE_S = 0.11

LAYERS = ("data.generate", "data.spectrum", "sketch.draw", "sketch.project",
          "solve.reference", "solve.sketched", "recover.drp", "recover.naive",
          "recover.iterative")
COUNTS = {"solve.reference_iters": "solve.reference", "solve.sketched_iters": "solve.sketched",
          "recover.iterative_passes": "recover.iterative"}


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved ({ref})"


def invoke(root: Path, w: Workload, seed: int, out_dir: Path, trace: bool,
           timeout: float) -> dict:
    """Run one CLI invocation in a fresh process and return its result."""
    report = out_dir / f"report-{seed}.json"
    job = {"workload": asdict(w), "seed": seed, "output": str(report), "trace": trace}
    env = dict(os.environ, PYTHONPATH=str(root / "src"), DUALSKETCH_WORKERS=str(w.workers),
               **BLAS_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"lost": f"CLI seed {seed}: timed out after {timeout:.0f}s"}
    finally:
        # pool workers share the child's session; none may outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"lost": f"exit {proc.returncode}, no result; stderr: {err[-2000:]}"}
    if proc.returncode != 0 and "lost" not in result:
        result = {"lost": f"exit {proc.returncode}; stderr: {err[-2000:]}"}
    if "lost" in result:
        result["lost"] = f"CLI seed {seed}: {result['lost']}"
        return result
    result["setup_s"] = result.pop("ready_monotonic") - spawned
    result["cli_seed"] = seed
    return result


def calibrate() -> float:
    """Seconds a fixed mix of BLAS and interpreter work takes on this host now.

    This process never imports dualsketch, so no change to the program can
    move this figure; it tracks only how fast the host runs at the moment.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((1500, 300))
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.qr(a)
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def measure(root: Path, w: Workload, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], float]:
    """Run invocations back to back for ``seconds`` (at least the panel).

    Returns the invocations' results and the host's slowness: the median
    of two ``calibrate()`` runs before, between and after them, divided by
    ``CALIBRATION_REFERENCE_S``.
    """
    (root / OUT_DIR).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / OUT_DIR))
    minimum = 1 if trace else w.panel
    results = []
    start = time.monotonic()
    calibrations = [calibrate(), calibrate()]
    try:
        while len(results) < minimum or time.monotonic() - start < seconds:
            left = RUN_LIMIT_S - (time.monotonic() - start)
            if left <= 0:
                break
            results.append(invoke(root, w, cli_seed(w, seed, len(results)), scratch, trace,
                                  left))
            calibrations += [calibrate(), calibrate()]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return results, statistics.median(calibrations) / CALIBRATION_REFERENCE_S


def quantile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(w: Workload, good: list, failed: int, attempted: int,
               slowness: float = 1.0) -> dict:
    """End-to-end metrics; ``slowness`` scales the timings to the reference host speed."""
    accuracy = [a for r in good[: w.panel] for a in r["accuracy"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in good) / slowness,
        "trials_per_s": sum(r["trials"] - r["errored"] for r in good)
        / sum(r["cli_wall_s"] for r in good) * slowness,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "completed_frac": 1.0 - failed / attempted,
        "within_bound_frac": sum(1 for _, ok in accuracy if ok) / len(accuracy),
        "rel_error_median": statistics.median(err for err, _ in accuracy),
    }


def per_layer(w: Workload, good: list) -> dict:
    per_trial = []  # one dict per replayed trial: layer -> summed span seconds
    spans_per_trial, counts = [], defaultdict(list)
    trial_s, report_s, report_kb, unaccounted, efficiency = [], [], [], [], []
    for r in good:
        by_trial = defaultdict(lambda: defaultdict(float))
        for sp in r["spans"]:
            duration = sp["end"] - sp["start"]
            if sp["name"] == "experiments.report":
                report_s.append(duration)
                report_kb.append(sp["count"] / 1024.0)
                continue
            by_trial[sp["trial"]][sp["name"]] += duration
            if "count" in sp:
                counts[sp["name"]].append(sp["count"])
        per_trial += by_trial.values()
        spans_per_trial += [sum(1 for sp in r["spans"] if sp["trial"] == t) for t in by_trial]
        spent = [t["experiments.trial"] for t in by_trial.values()]
        trial_s += spent
        worker_time = w.workers * r["cli_wall_s"]
        unaccounted.append((worker_time - sum(spent)) / len(spent))
        efficiency.append(sum(spent) / worker_time)

    # A layer the workload never calls reads as the measured cost of one
    # span, the least time a span can show, rather than as an exact zero.
    span_cost = statistics.median(r["span_cost_s"] for r in good)
    metrics = {f"{name}_s": statistics.median(t.get(name, 0.0) for t in per_trial)
               if any(name in t for t in per_trial) else span_cost for name in LAYERS}
    metrics.update({key: statistics.median(counts[layer]) if counts[layer] else 0
                    for key, layer in COUNTS.items()})
    metrics.update({
        "sketch.matrix_mb": statistics.median(r["matrix_mb"] for r in good),
        "solve.convergence_errors": sum(r["errored"] for r in good),
        "experiments.trials": len(trial_s),
        "experiments.trial_s_p50": quantile(trial_s, 50),
        "experiments.trial_s_p90": quantile(trial_s, 90),
        "experiments.report_s": statistics.median(report_s),
        "experiments.report_kb": statistics.median(report_kb),
        "experiments.unaccounted_s": statistics.median(unaccounted),
        "experiments.pool_efficiency": statistics.median(efficiency),
        "experiments.trace_overhead_s": span_cost * statistics.median(spans_per_trial),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    os.environ.update(BLAS_ENV)  # before calibrate() first imports numpy here
    root = Path.cwd()
    if not (root / "src" / "dualsketch" / "__init__.py").is_file():
        print(f"perfbench: no dualsketch source under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    results, slowness = measure(root, w, args.seed, args.seconds, bool(args.trace))

    good = [r for r in results if "lost" not in r]
    attempted = w.trials * len(results)
    failed = sum(r["errored"] for r in good) + w.trials * (len(results) - len(good))
    problems = [r["lost"] for r in results if "lost" in r]
    problems += [f"CLI seed {r['cli_seed']}: {p}" for r in good for p in r["problems"]]
    if not any(r["accuracy"] for r in good):
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        print("perfbench: no invocation completed a trial; nothing to measure", file=sys.stderr)
        return 1

    if args.trace:
        values, section = per_layer(w, good), "per_layer"
        spans = {"workload": w.name, "seed": args.seed,
                 "invocations": [{"cli_seed": r["cli_seed"], "spans": r["spans"]} for r in good]}
        (root / OUT_DIR / f"spans-{w.name}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        values, section = end_to_end(w, good, failed, attempted, slowness), "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in benchmark[section]}

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {len(results)} invocations "
          f"of {w.trials} trials, {w.workers} worker(s); first argv: dualsketch "
          + " ".join(cli_argv(w, good[0]["cli_seed"], "REPORT")))
    print("environment:", json.dumps({**good[0]["environment"], "git_commit": git_commit(root)}))
    print(f"records_sha256: {good[0]['records_sha256']} (CLI seed {good[0]['cli_seed']})")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} trials)")
    if not args.trace:
        raw = end_to_end(w, good, failed, attempted)
        print(f"host slowness {slowness:.4f}; uncorrected setup_s {raw['setup_s']:.6g} s, "
              f"trials_per_s {raw['trials_per_s']:.6g} 1/s")
    for p in problems:
        print(f"problem: {p}")
    for name, value in values.items():
        print(f"  {name:32s} {value:>14.6g} {unit_of[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
