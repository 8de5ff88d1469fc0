"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Heavy trial sets are shared through module-scoped fixtures; every
random object is seeded, so the whole suite is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

import dualsketch as ds
from dualsketch.config import config_from_mapping
from dualsketch.experiments import run_experiment, solve_reference

from closed_forms import ridge_drp_closed_form

REFERENCE_TOL = 1e-12
SOLVER = ds.SolverConfig(tolerance=1e-10)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


def timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


# ----------------------------------------------------------------------
# shared trial sets


@pytest.fixture(scope="module")
def low_rank_m443_trials():
    """Criteria 2 and 6 share these: d=2000, n=300, r=5, m=443, both losses."""
    m = ds.sample_size_bound(5, 0.5, 0.1)
    assert m == 443
    out = {}
    elapsed = timer()
    for loss_name in ("square", "logistic"):
        loss = ds.parse_loss(loss_name)
        rel_errors, measurement = [], []
        for t in range(20):
            data = ds.make_low_rank(2000, 300, 5, "random", seed=20000 + t)
            sk = ds.gaussian_sketch(data, m, 30000 + t)
            ref = solve_reference(data.features, data.labels, loss, 1.0, REFERENCE_TOL)
            z_sol = ds.solve_primal(sk.sketched_features, data.labels, loss, 1.0, SOLVER)
            dual = ds.dual_from_primal(sk.sketched_features, data.labels, loss, z_sol.weights)
            drp = ds.primal_from_dual(data.features, data.labels, 1.0, dual)
            rel_errors.append(ds.relative_error(drp, ref.weights))
            measurement.append(
                ds.measurement_error(z_sol.weights, sk.matrix_r, m, ref.weights)
            )
        out[loss_name] = (np.array(rel_errors), np.array(measurement))
    out["m"] = m
    out["seconds"] = elapsed()
    return out


@pytest.fixture(scope="module")
def high_dim_naive_trials():
    """Criteria 3 and 4 share these: d=5000, n=300, r=5, m=500, square loss."""
    d, n, r, m = 5000, 300, 5, 500
    naive_rel, drp_rel, span_rel = [], [], []
    elapsed = timer()
    for t in range(20):
        data = ds.make_low_rank(d, n, r, "random", seed=40000 + t)
        sk = ds.gaussian_sketch(data, m, 50000 + t)
        ref = solve_reference(data.features, data.labels, ds.square_loss(), 1.0, REFERENCE_TOL)
        z_sol = ds.solve_primal(sk.sketched_features, data.labels, ds.square_loss(), 1.0, SOLVER)
        naive = ds.recover_naive(sk.matrix_r, z_sol.weights, m)
        dual = ds.dual_from_primal(sk.sketched_features, data.labels, ds.square_loss(),
                                   z_sol.weights)
        drp = ds.primal_from_dual(data.features, data.labels, 1.0, dual)
        info = ds.spectrum(data)
        naive_rel.append(ds.relative_error(naive, ref.weights))
        drp_rel.append(ds.relative_error(drp, ref.weights))
        span_rel.append(
            ds.span_restricted_error(info, naive, ref.weights) / np.linalg.norm(ref.weights)
        )
    return {
        "d": d, "r": r, "m": m,
        "naive": np.array(naive_rel),
        "drp": np.array(drp_rel),
        "span": np.array(span_rel),
        "seconds": elapsed(),
    }


# ----------------------------------------------------------------------
# criteria


def test_criterion_1_ridge_path_equivalence():
    # recover via the dual route and via the sketched-Gram closed form must
    # agree to 1e-8 relative on 50 instances, lambda cycling {0.1, 1, 10}
    elapsed = timer()
    lams = [0.1, 1.0, 10.0]
    worst = 0.0
    for i in range(50):
        data = ds.make_low_rank(200, 100, 10, "random", seed=60000 + i)
        sk = ds.gaussian_sketch(data, 60, 70000 + i)
        lam = lams[i % 3]
        drp = ds.recover_iterative(data, ds.square_loss(), lam, sk, 1, SOLVER)[0]
        closed = ridge_drp_closed_form(data, lam, sk)
        worst = max(worst, float(np.linalg.norm(drp.recovered - closed)
                                 / np.linalg.norm(closed)))
    seconds = elapsed()
    ok = worst <= 1e-8 and seconds < 30.0
    report("criterion 1: ridge path equivalence",
           ok, f"max relative gap {worst:.2e} (tol 1e-8), {seconds:.1f}s (< 30s)")
    assert worst <= 1e-8
    assert seconds < 30.0


def test_criterion_2_low_rank_recovery_bound(low_rank_m443_trials):
    # at m = 443 (rank 5, eps 0.5, delta 0.1) the relative recovery error
    # stays below eps/(1-eps) = 1 in at least 18 of 20 seeds per loss
    bound = 1.0
    ok = True
    details = [f"m={low_rank_m443_trials['m']}"]
    for loss_name in ("square", "logistic"):
        rels, _ = low_rank_m443_trials[loss_name]
        hits = int(np.sum(rels <= bound))
        details.append(f"{loss_name}: {hits}/20 within bound, median {np.median(rels):.4f}")
        ok = ok and hits >= 18
    seconds = low_rank_m443_trials["seconds"]
    ok = ok and seconds < 120.0
    report("criterion 2: low-rank recovery bound", ok,
           "; ".join(details) + f", {seconds:.1f}s (< 120s)")
    for loss_name in ("square", "logistic"):
        rels, _ = low_rank_m443_trials[loss_name]
        assert int(np.sum(rels <= bound)) >= 18
    assert seconds < 120.0


def test_criterion_3_naive_back_projection_fails(high_dim_naive_trials):
    trials = high_dim_naive_trials
    d, r, m = trials["d"], trials["r"], trials["m"]
    mean_naive = float(trials["naive"].mean())
    mean_drp = float(trials["drp"].mean())
    ratio = mean_naive / mean_drp
    # lower bound evaluated at the epsilon proxy implied by the measured
    # dual-recovery error rho = eps/(1-eps)
    rho = float(np.median(trials["drp"]))
    eps_proxy = rho / (1.0 + rho)
    lower = 0.5 * np.sqrt((d - r) / m) * (
        1.0 - eps_proxy * np.sqrt(2.0 * (1.0 + eps_proxy)) / (1.0 - eps_proxy)
    )
    seconds = trials["seconds"]
    ok = mean_naive >= lower and mean_naive >= 1.0 and mean_drp <= 0.5 and ratio >= 10.0
    ok = ok and seconds < 120.0
    report("criterion 3: naive back-projection fails", ok,
           f"mean naive {mean_naive:.3f} (>= max(1.0, {lower:.3f})), "
           f"mean dual {mean_drp:.4f} (<= 0.5), ratio {ratio:.1f} (>= 10), "
           f"{seconds:.1f}s (< 120s)")
    assert mean_naive >= lower
    assert mean_naive >= 1.0
    assert mean_drp <= 0.5
    assert ratio >= 10.0
    assert seconds < 120.0


def test_criterion_4_in_span_error_dichotomy(high_dim_naive_trials):
    # the naive solution predicts well inside the data span ((eps)(1 + 1/(1-eps))
    # = 1.5 at eps = 0.5) even though its full-space error exceeds 1
    trials = high_dim_naive_trials
    span_hits = int(np.sum(trials["span"] <= 1.5))
    full_hits = int(np.sum(trials["naive"] >= 1.0))
    both = int(np.sum((trials["span"] <= 1.5) & (trials["naive"] >= 1.0)))
    ok = both >= 18
    report("criterion 4: in-span error dichotomy", ok,
           f"span error <= 1.5 in {span_hits}/20 (max {trials['span'].max():.2e}), "
           f"full error >= 1.0 in {full_hits}/20, jointly {both}/20 (>= 18)")
    assert both >= 18


def test_criterion_5_iterative_geometric_decay():
    # literal reading: with m chosen so the median single-shot error rho is
    # in [0.2, 0.4], every consecutive error ratio must stay below 1.2 rho
    # in >= 18/20 trials and 8 passes must reach 1e-4 in >= 18/20.
    #
    # The per-pass contraction provably (and measurably) approaches the
    # worst deviation eigenvalue eps/(1-eps) of the trial's projection,
    # while the single-shot error reflects an average over the planted
    # rank directions, so the two differ by a geometry factor; the
    # supplementary count below checks the actual guarantee.
    elapsed = timer()
    d, n, r, m, lam, T = 500, 200, 2, 55, 1.0, 8
    traces, caps = [], []
    for t in range(20):
        data = ds.make_low_rank(d, n, r, "random", seed=80000 + t)
        sk = ds.gaussian_sketch(data, m, 90000 + t)
        ref = solve_reference(data.features, data.labels, ds.square_loss(), lam, REFERENCE_TOL)
        _, trace = ds.recover_iterative(
            data, ds.square_loss(), lam, sk, T, SOLVER, reference=ref.weights
        )
        traces.append(trace.per_iteration_errors)
        basis = ds.spectrum(data).top_left_basis()
        a = basis.T @ sk.matrix_r
        eps = float(np.max(np.abs(np.linalg.eigvalsh(a @ a.T / m - np.eye(r)))))
        caps.append(eps / (1.0 - eps))
    traces = np.array(traces)
    rho = float(np.median(traces[:, 1]))
    ratios = traces[:, 1:] / traces[:, :-1]
    ratio_hits = int(np.sum(ratios.max(axis=1) <= 1.2 * rho))
    final_hits = int(np.sum(traces[:, -1] <= 1e-4))
    cap_hits = int(np.sum(ratios.max(axis=1) <= np.array(caps)))
    seconds = elapsed()
    ok = 0.2 <= rho <= 0.4 and ratio_hits >= 18 and final_hits >= 18 and seconds < 180.0
    report("criterion 5: iterative geometric decay", ok,
           f"median single-shot {rho:.3f} (in [0.2, 0.4]), "
           f"ratios <= 1.2*median in {ratio_hits}/20 (>= 18), "
           f"T=8 error <= 1e-4 in {final_hits}/20 (>= 18); "
           f"supplementary: ratios <= per-trial eps/(1-eps) cap in {cap_hits}/20, "
           f"{seconds:.1f}s (< 180s)")
    assert 0.2 <= rho <= 0.4
    assert seconds < 180.0
    assert ratio_hits >= 18, (
        "consecutive ratios exceed 1.2x the median single-shot error; the "
        "per-pass rate approaches the worst deviation eigenvalue rather than "
        f"the single-shot average (theoretical cap held in {cap_hits}/20)"
    )
    assert final_hits >= 18


def test_criterion_6_measurement_approximation(low_rank_m443_trials):
    # sqrt(m) z must approximate the random measurements R'w within
    # sqrt(2) eps / sqrt(1-eps) = 1 at eps = 0.5 in >= 18/20 seeds
    bound = np.sqrt(2.0) * 0.5 / np.sqrt(0.5)
    ok = True
    details = []
    for loss_name in ("square", "logistic"):
        _, meas = low_rank_m443_trials[loss_name]
        hits = int(np.sum(meas <= bound))
        details.append(f"{loss_name}: {hits}/20 within {bound:.1f}, max {meas.max():.3f}")
        ok = ok and hits >= 18
    report("criterion 6: measurement approximation", ok, "; ".join(details))
    for loss_name in ("square", "logistic"):
        _, meas = low_rank_m443_trials[loss_name]
        assert int(np.sum(meas <= bound)) >= 18


def test_criterion_7_spectral_concentration():
    # at the analytic sketch size for rank 50 the deviation stays under
    # eps = 0.5 in at least 95 of 100 seeded trials
    elapsed = timer()
    m = ds.sample_size_bound(50, 0.5, 0.1)
    doc = run_experiment(config_from_mapping({
        "experiment": "concentration", "rank": 50, "epsilon": 0.5, "delta": 0.1,
        "trials": 100, "seed": 100000,
    }))
    records = doc.records
    assert [rec["m"] for rec in records] == [m] * 100
    hits = sum(1 for rec in records if rec["pass"])
    seconds = elapsed()
    ok = hits >= 95 and seconds < 60.0
    report("criterion 7: spectral concentration", ok,
           f"m={m}, deviation <= 0.5 in {hits}/100 (>= 95), "
           f"worst {doc.aggregates['max_deviation']:.3f}, {seconds:.1f}s (< 60s)")
    assert hits >= 95
    assert seconds < 60.0


def test_criterion_8_full_rank_recovery():
    # decay-1 spectrum, logistic loss, m from the effective-rank bound;
    # the recovery error must beat (eps/(1-eps)) (1 + sqrt(lam)/(sqrt(gamma)
    # sigma_k)) in >= 16/20 seeds, with the top-k leakage of w* reported
    elapsed = timer()
    d = n = 500
    top = 4.0
    loss, lam, eps, delta = ds.logistic_loss(), 1.0, 0.5, 0.1
    sv = top * np.arange(1, d + 1, dtype=float) ** -1.0
    k = ds.numerical_rank(sv, np.sqrt(lam / loss.gamma))
    assert k >= 1
    m = ds.full_rank_sample_bound(sv, lam, loss.gamma, eps, delta, d)
    bound = (eps / (1.0 - eps)) * (1.0 + np.sqrt(lam) / (np.sqrt(loss.gamma) * sv[k - 1]))
    rels, leaks = [], []
    for t in range(20):
        data = ds.make_decaying_spectrum(d, n, 1.0, seed=110000 + t,
                                         top_singular_value=top,
                                         label_rule="sign_of_plant")
        sk = ds.gaussian_sketch(data, m, 120000 + t)
        ref = solve_reference(data.features, data.labels, loss, lam, REFERENCE_TOL)
        res = ds.recover_iterative(data, loss, lam, sk, 1, SOLVER, ref.weights)[0]
        basis = ds.spectrum(data).left_vectors[:, :k]
        w = ref.weights
        leaks.append(float(np.linalg.norm(w - basis @ (basis.T @ w)) / np.linalg.norm(w)))
        rels.append(res.rel_error)
    rels, leaks = np.array(rels), np.array(leaks)
    hits = int(np.sum(rels <= bound))
    seconds = elapsed()
    ok = hits >= 16 and seconds < 180.0
    report("criterion 8: full-rank recovery", ok,
           f"m={m}, k={k}, bound {bound:.2f}, {hits}/20 within (>= 16), "
           f"median error {np.median(rels):.4f}, "
           f"top-k leakage mean {leaks.mean():.3f} (hypothesis held approximately), "
           f"{seconds:.1f}s (< 180s)")
    assert hits >= 16
    assert seconds < 180.0


def test_criterion_9_duality_and_conversions():
    # strong duality and both primal/dual round trips on 100 small
    # instances across the three losses, plus the conjugate identity suite
    elapsed = timer()
    losses = [ds.square_loss(), ds.logistic_loss(), ds.smoothed_hinge_loss(1.0)]
    rng = np.random.default_rng(130000)
    tol = 1e-10
    worst_gap = worst_primal_rt = worst_sketch_rt = 0.0
    for i in range(100):
        loss = losses[i % 3]
        d = int(rng.integers(3, 51))
        n = int(rng.integers(3, 51))
        data = ds.make_low_rank(d, n, min(3, d, n), "random", seed=140000 + i)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        sol = ds.solve_primal(data.features, data.labels, loss, lam,
                              ds.SolverConfig(tolerance=tol))
        dual = ds.dual_from_primal(data.features, data.labels, loss, sol.weights)
        back = ds.primal_from_dual(data.features, data.labels, lam, dual)
        worst_primal_rt = max(worst_primal_rt,
                              float(np.linalg.norm(back - sol.weights)) / (10.0 * tol / lam))
        gap = sol.objective - ds.dual_objective(ds.gram(data), loss, lam, dual)
        worst_gap = max(worst_gap, abs(gap))
        # sketched-space round trip
        sk = ds.gaussian_sketch(data, max(2, d // 2), seed=150000 + i)
        z_sol = ds.solve_primal(sk.sketched_features, data.labels, loss, lam,
                                ds.SolverConfig(tolerance=tol))
        z_dual = ds.dual_from_primal(sk.sketched_features, data.labels, loss, z_sol.weights)
        z_back = ds.primal_from_dual(sk.sketched_features, data.labels, lam, z_dual)
        worst_sketch_rt = max(worst_sketch_rt,
                              float(np.linalg.norm(z_back - z_sol.weights)) / (10.0 * tol / lam))
    # conjugate identity at the gradient, 1000 samples per loss
    fy_worst = 0.0
    z = np.random.default_rng(160000).uniform(-20.0, 20.0, size=1000)
    for loss in losses:
        alpha = loss.grad(z)
        fy_worst = max(fy_worst,
                       float(np.max(np.abs(alpha * z - loss.conjugate(alpha) - loss.value(z)))))
    seconds = elapsed()
    ok = (worst_gap <= 1e-6 and worst_primal_rt <= 1.0 and worst_sketch_rt <= 1.0
          and fy_worst <= 1e-9 and seconds < 60.0)
    report("criterion 9: duality and conversions", ok,
           f"max gap {worst_gap:.2e} (<= 1e-6), round trips at "
           f"{max(worst_primal_rt, worst_sketch_rt):.3f} of the 10 tol/lambda budget, "
           f"conjugate identity {fy_worst:.2e} (<= 1e-9), {seconds:.1f}s (< 60s)")
    assert worst_gap <= 1e-6
    assert worst_primal_rt <= 1.0
    assert worst_sketch_rt <= 1.0
    assert fy_worst <= 1e-9
    assert seconds < 60.0


def test_criterion_10_determinism():
    # rerunning any configuration reproduces all per-trial numerics exactly
    configs = [
        {"experiment": "naive_vs_drp", "d": 150, "n": 60, "rank": 3,
         "sketch_dim": 40, "trials": 5, "seed": 17},
        {"experiment": "iterate", "d": 80, "n": 40, "rank": 2,
         "sketch_dim": 25, "iters": 4, "trials": 3, "seed": 23},
        {"experiment": "concentration", "rank": 6, "sketch_dim": 80,
         "epsilon": 0.5, "trials": 10, "seed": 31},
    ]
    ok = True
    for raw in configs:
        cfg = config_from_mapping(dict(raw))
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        ok = ok and first.records == second.records
    report("criterion 10: determinism", ok,
           f"{len(configs)} configurations re-ran with identical per-trial records")
    assert ok
