"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS, cli_argv, cli_seed, config_fields  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Every workload's shape at a size that runs in about a second.
TINY = {
    "drp_highdim": {"d": 200, "n": 30, "rank": 3, "sketch_dim": 40},
    "iterate_lowrank": {"d": 60, "n": 30, "sketch_dim": 20},
    "full_rank_decaying": {"d": 40, "n": 40},
    "drp_pool2": {"d": 200, "n": 30, "rank": 3, "sketch_dim": 40},
}


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, fields={**w.fields, **TINY[name]}, trials=3, panel=1)


def test_names_are_plain_and_match_the_code():
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names = workloads + metrics
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert workloads == list(WORKLOADS) == list(TINY)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])


def test_seed_reaches_the_argv():
    for w in WORKLOADS.values():
        panel = [cli_seed(w, 7, i) for i in range(w.panel)]
        assert panel == [cli_seed(w, 8, i) for i in range(w.panel)]
        assert panel == [i * w.trials for i in range(w.panel)]
        seed = cli_seed(w, 7, w.panel + 2)
        assert seed == 8 * SEED_STRIDE + 2 * w.trials != cli_seed(w, 8, w.panel + 2)
        argv = cli_argv(w, seed, "report.json")
        assert argv[0] == w.subcommand
        assert argv[argv.index("--seed") + 1] == str(seed)
        assert config_fields(w, seed, "report.json")["seed"] == seed
        with pytest.raises(ValueError):
            cli_seed(w, -1, w.panel)


def test_measure_runs_the_panel_first(monkeypatch, tmp_path):
    w = WORKLOADS["drp_highdim"]
    seen = []
    monkeypatch.setattr(run, "invoke", lambda root, wl, seed, *rest: seen.append(seed) or {})
    _, slowness = run.measure(tmp_path, w, 4, 0, trace=False)
    assert slowness > 0
    assert seen == [cli_seed(w, 4, i) for i in range(w.panel)]


def test_output_check_rejects_tampered_reports():
    w = tiny("drp_highdim")
    cfg = run_config(w)
    records = [{"trial": t, "seed": cfg.seed + t, "m": 40, "naive_rel_error": 3.0 + t,
                "drp_rel_error": 0.1 * (t + 1), "ratio": 1.0} for t in range(w.trials)]
    doc = {"config": asdict(cfg), "records": records,
           "aggregates": child.expected_aggregates(w.experiment, records)}
    assert child.check_report(w, cfg, 0, doc) == []
    assert child.check_report(w, cfg, 1, doc)  # exit 1 needs an errored trial
    bad = json.loads(json.dumps(doc))
    bad["aggregates"]["mean_drp_rel_error"] *= 1.001
    assert child.check_report(w, cfg, 0, bad)
    bad = json.loads(json.dumps(doc))
    bad["records"][1]["seed"] += 1
    assert child.check_report(w, cfg, 0, bad)


def run_config(w):
    from dualsketch.config import config_from_mapping

    return config_from_mapping(config_fields(w, 11, "report.json"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_passes_the_output_check(name, trace):
    w = tiny(name)
    results, _ = run.measure(ROOT, w, 0, 0, trace)
    assert len(results) == 1
    assert "lost" not in results[0], results[0]["lost"]
    assert results[0]["problems"] == [] and results[0]["errored"] == 0
    if trace:
        metrics, section = run.per_layer(w, results), "per_layer"
        assert metrics["experiments.trials"] == w.trials
    else:
        metrics, section = run.end_to_end(w, results, 0, w.trials), "end_to_end"
    assert list(metrics) == [m["name"] for m in BENCHMARK[section]]


def test_exits_without_a_result_outside_a_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "drp_highdim", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
