"""Config validation, experiment reports, and the command-line surface."""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from multiprocessing import get_context
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsketch import experiments, recover, solve
from dualsketch.cli import _build_parser, _merge_config, main
from dualsketch.config import (
    BOUNDED,
    FILE_KEYS,
    ConfigError,
    DatasetIOError,
    ExperimentConfig,
    config_from_mapping,
    validate_config,
)
from dualsketch.concentration import FULL_RANK_C, full_rank_sample_bound, sample_size_bound
from dualsketch.data import (
    Dataset,
    load_csv,
    make_decaying_spectrum,
    make_low_rank,
    numerical_rank,
    save_csv,
    spectrum,
)
from dualsketch.experiments import _reference, run_experiment, solve_reference
from dualsketch.losses import parse_loss
from dualsketch.recover import (
    measurement_error,
    recover_iterative,
    recover_naive,
    relative_error,
    span_restricted_error,
)
from dualsketch.sketch import draw_blocks, gaussian_matrix, gaussian_sketch, identity_sketch, project
from dualsketch.solve import ConvergenceError, SolverConfig, solve_primal

SMALL = ["--d", "20", "--n", "10", "--rank", "2", "--sketch-dim", "6"]
SMALL_RECOVER = ["recover", *SMALL, "--trials", "2"]
DECAYING = ["--data", "decaying", "--d", "20", "--n", "10", "--top-singular", "4"]
ZERO_CSV = ["--data", "csv", "--csv", "{tmp}/zero.csv", "--sketch-dim", "4"]
LOW_ENTRIES = {"d": 60, "n": 20, "rank": 3}

# Flag pools for the argv fuzz: each flag maps to its candidate values (None
# for a switch).  Sizes stay small and the valid values of c and epsilon stay
# at or above 0.25 and 0.1 (c = 0 selects the default constant), so every
# derived sketch dimension stays modest.
FUZZ_FLAGS = {
    "--d": ["1", "4", "12", "30", "0", "-3"],
    "--n": ["1", "6", "30", "0", "-2"],
    "--rank": ["1", "3", "30", "0", "-1"],
    "--data": ["low_rank", "decaying"],
    "--label-rule": ["random", "sign_of_plant"],
    "--decay": ["0.5", "1", "0", "-1", "nan", "inf"],
    "--top-singular": ["4", "1e-3", "1e300", "0", "-2", "nan", "inf"],
    "--loss": ["square", "logistic", "smoothed_hinge:0.5", "smoothed_hinge:0",
               "smoothed_hinge:nan", "smoothed_hinge:inf", "hinge"],
    "--lambda": ["1e-30", "1", "1e30", "0", "-1", "nan", "inf"],
    "--tol": ["1e-8", "0", "-1", "nan", "inf"],
    "--max-iters": ["1", "50", "0", "-1"],
    "--reference-tol": ["1e-12", "0", "nan", "inf"],
    "--sketch-dim": ["0", "1", "5", "40", "-2", "99999999999999999999"],
    "--identity-sketch": None,
    "--no-identity-sketch": None,
    "--eps": ["0.3", "0.5", "0.75", "0.99", "1", "0", "-0.5", "nan", "inf"],
    "--delta": ["0.1", "0.5", "0", "1", "nan"],
    "--c": ["0.25", "1", "0", "-1", "nan", "inf", "1e-300"],
    "--trials": ["1", "2", "0", "-1"],
    "--seed": ["0", "7", "-5"],
}
FUZZ_SUBCOMMAND_FLAGS = {
    "recover": {"--method": ["naive", "drp"]},
    "iterate": {"--iters": ["1", "3", "200", "0"], "--early-stop": None, "--no-early-stop": None},
    "naive-vs-drp": {},
    "measurement": {},
    "span-error": {},
    # epsilons whose --find-min-m search starts too large to draw, or at an overflowing bound
    "concentration": {"--find-min-m": None, "--eps": [*FUZZ_FLAGS["--eps"], "1e-9", "1e-300"]},
    "bounds": {"--spectrum": ["no-such-spectrum.txt"]},
    "full-rank": {},
}

# The option strings every subcommand takes, and each subcommand's own.
COMMON_OPTIONS = {"-h", "--help", "--config", "--output", "--format", "--eps", "--delta", "--c"}
# every subcommand that draws a sketch takes the data, problem, sketch and trial options
SKETCHED_OPTIONS = {
    "--trials", "--seed", "--data", "--d", "--n", "--label-rule", "--decay", "--top-singular",
    "--csv", "--loss", "--lambda", "--tol", "--max-iters", "--reference-tol", "--sketch-dim",
    "--identity-sketch", "--no-identity-sketch",
}
# full-rank alone takes no --rank: its data is never low-rank, and its m comes from its spectrum
SUBCOMMAND_OPTIONS = {
    "recover": SKETCHED_OPTIONS | {"--rank", "--method"},
    "iterate": SKETCHED_OPTIONS | {"--rank", "--iters", "--early-stop", "--no-early-stop"},
    "naive-vs-drp": SKETCHED_OPTIONS | {"--rank"},
    "measurement": SKETCHED_OPTIONS | {"--rank"},
    "span-error": SKETCHED_OPTIONS | {"--rank"},
    "concentration": {"--rank", "--trials", "--seed", "--sketch-dim", "--find-min-m",
                      "--no-find-min-m"},
    "bounds": {"--rank", "--d", "--loss", "--lambda", "--spectrum"},
    "full-rank": SKETCHED_OPTIONS,
}

# A valid value, other than the default, for every field that has a flag.
FIELD_TEXT = {
    "data": "decaying", "d": "12", "n": "9", "rank": "3", "label_rule": "sign_of_plant",
    "decay": "0.5", "top_singular": "4", "csv": "x.csv", "loss": "logistic", "lam": "2.5",
    "tol": "1e-8", "max_iters": "50", "reference_tol": "1e-11", "sketch_dim": "7",
    "identity_sketch": "true", "method": "naive", "iters": "3", "early_stop": "true",
    "epsilon": "0.25", "delta": "0.2", "c": "2", "spectrum": "sv.txt", "find_min_m": "true",
    "trials": "4", "seed": "0x10", "output": "report.json", "format": "csv",
}


@st.composite
def fuzz_argv(draw):
    sub = draw(st.sampled_from(sorted(FUZZ_SUBCOMMAND_FLAGS)))
    taken = COMMON_OPTIONS | SUBCOMMAND_OPTIONS[sub]
    pools = {flag: values for flag, values in {**FUZZ_FLAGS, **FUZZ_SUBCOMMAND_FLAGS[sub]}.items()
             if flag in taken}
    argv = [sub]
    for flag, value in [("--d", "12"), ("--n", "10"), ("--rank", "2"), ("--sketch-dim", "6"),
                        ("--output", os.devnull)]:
        argv += [flag, value] if flag in taken else []
    for flag in draw(st.lists(st.sampled_from(sorted(pools)), max_size=6, unique=True)):
        values = pools[flag]
        argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    return argv


class TestValidateConfig:
    def test_empty_input_names_required_key(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config("")

    def test_minimal_config_applies_defaults(self):
        cfg = validate_config("experiment = recover\nsketch_dim = 10\n")
        assert cfg.tol == 1e-10
        assert cfg.trials == 1
        assert cfg.loss == "square"
        assert cfg.format == "json"

    def test_zero_trials_is_range_error(self):
        with pytest.raises(ConfigError, match="trials"):
            validate_config("experiment = recover\nsketch_dim = 10\ntrials = 0\n")

    def test_unknown_key_is_fatal(self):
        with pytest.raises(ConfigError, match="sketchdim"):
            validate_config("experiment = recover\nsketchdim = 10\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="'d'"):
            validate_config("experiment = recover\nsketch_dim = 4\nd = many\n")

    def test_comments_and_quotes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a#b.txt").write_text("1.0\n")  # a spectrum file must exist
        cfg = validate_config(
            "# a bounds run\nexperiment = bounds  # inline\n"
            'loss = "logistic"\nd = 12\n'
            'spectrum = "a#b.txt"  # a quoted # is part of the value\n'
            "# commented = out\noutput = it's.json # an unpaired quote quotes nothing\n"
        )
        assert cfg.loss == "logistic"
        assert cfg.d == 12
        assert cfg.spectrum == "a#b.txt"
        assert cfg.output == "it's.json"

    @pytest.mark.parametrize("lines", ["d = 5\nd = 6", "lam = 1\nlambda = 2", "lambda = 1\nlam = 2"])
    def test_duplicate_key_rejected(self, lines):
        with pytest.raises(ConfigError, match="line 3: duplicate"):
            validate_config(f"experiment = recover\n{lines}\nsketch_dim = 2\n")

    def test_lambda_alias(self):
        cfg = validate_config("experiment = bounds\nlambda = 2.5\n")
        assert cfg.lam == 2.5

    @pytest.mark.parametrize("line", ["method = naive", "iters = 3", "early_stop = true",
                                      "spectrum = sv.txt", "find_min_m = true"])
    def test_key_of_another_subcommand_rejected(self, tmp_path, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sv.txt").write_text("1.0\n")
        with pytest.raises(ConfigError, match=f"key '{line.split()[0]}': only "):
            validate_config(f"experiment = measurement\n{line}\n")

    @pytest.mark.parametrize("experiment, line", [
        ("concentration", "data = decaying"), ("concentration", "csv = x.csv"),
        ("concentration", "loss = logistic"), ("concentration", "lambda = 3"),
        ("concentration", "d = 20"), ("bounds", "csv = x.csv"), ("bounds", "sketch_dim = 10"),
        ("bounds", "tol = 1e-6"), ("bounds", "trials = 3"), ("full_rank", "rank = 7"),
    ])
    def test_keys_concentration_and_bounds_never_read(self, experiment, line):
        with pytest.raises(ConfigError, match=f"key '{line.split()[0]}': only "):
            validate_config(f"experiment = {experiment}\n{line}\n")

    @pytest.mark.parametrize("experiment", ["concentration", "bounds"])
    def test_rank_not_capped_by_unread_dimensions(self, experiment):
        # d and n default to 100 and 50, but neither experiment builds a dataset
        assert config_from_mapping({"experiment": experiment, "rank": 60}).rank == 60

    def test_key_of_another_subcommand_at_its_default(self):
        cfg = validate_config("experiment = measurement\nmethod = drp\niters = 8\n")
        assert (cfg.method, cfg.iters) == ("drp", 8)

    @pytest.mark.parametrize("first, second", [("lam", "lambda"), ("lambda", "lam")])
    def test_key_and_alias_are_one_key(self, first, second):
        with pytest.raises(ConfigError, match="duplicate key"):
            config_from_mapping({"experiment": "bounds", first: 1.0, second: 2.0})
        # an override replaces the file's entry under either spelling
        assert validate_config(f"experiment = bounds\n{first} = 1\n", {second: "2"}).lam == 2.0

    def test_bad_loss_selector(self):
        with pytest.raises(ConfigError, match="loss"):
            validate_config("experiment = bounds\nloss = hinge\n")

    @pytest.mark.parametrize("text", ["experiment = recover\n", 'experiment = "recover"\n', ""])
    def test_override_may_repeat_the_experiment(self, text):
        cfg = validate_config(text + "sketch_dim = 5\n", {"experiment": "recover"})
        assert cfg.experiment == "recover"

    def test_override_may_not_change_the_experiment(self):
        with pytest.raises(ConfigError, match="key 'experiment': the config names 'bounds', not "
                                              "'recover'"):
            validate_config("experiment = bounds\n", {"experiment": "recover", "sketch_dim": "5"})

    @pytest.mark.parametrize("experiment", ["recover", "full_rank"])
    def test_one_source_of_the_sketch_dimension(self, experiment):
        given = {"sketch_dim": 6, "identity_sketch": True}
        entries = {"experiment": experiment, "data": "decaying", "d": 20, "n": 10}
        with pytest.raises(ConfigError, match="keys 'sketch_dim' and 'identity_sketch'"):
            config_from_mapping({**entries, **given})
        for key, value in given.items():
            assert getattr(config_from_mapping({**entries, key: value}), key) == value
        # bounds draws no sketch and reports the analytic m, so it reads neither key
        for key, value in given.items():
            with pytest.raises(ConfigError, match=f"key '{key}': only "):
                config_from_mapping({"experiment": "bounds", key: value})

    def test_missing_sketch_dim_takes_the_bound(self):
        cfg = validate_config("experiment = recover\n")
        assert cfg.sketch_dim == 0
        assert experiments._plan(cfg).m == sample_size_bound(cfg.rank, cfg.epsilon, cfg.delta)

    @pytest.mark.parametrize("key", ["from_bound", "full_rank"])
    def test_removed_switches_are_unknown_keys(self, tmp_path, capsys, key):
        (tmp_path / "run.cfg").write_text(f"{key} = true\n")
        assert main(["bounds", "--config", str(tmp_path / "run.cfg")]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_missing_csv_file_is_io_error(self):
        with pytest.raises(DatasetIOError):
            config_from_mapping(
                {"experiment": "recover", "data": "csv", "csv": "/nonexistent.csv",
                 "sketch_dim": 5}
            )

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            config_from_mapping({"experiment": "bounds", "epsilon": 1.5})

    @pytest.mark.parametrize("entries, error, key", [
        ({"experiment": "iterate", "epsilon": 1.0, "sketch_dim": 10}, ConfigError, "'epsilon'"),
        ({"experiment": "recover", "d": 10, "n": 10, "rank": 50, "sketch_dim": 5}, ConfigError,
         "'rank'"),
        ({"experiment": "bounds", "sketch_dim": 5}, ConfigError, "'sketch_dim'"),
        ({"experiment": "recover", "data": "csv", "csv": "/nonexistent.csv"}, DatasetIOError,
         "/nonexistent.csv"),
    ])
    def test_config_built_directly_checks_itself(self, entries, error, key):
        # not only a parsed config: iterate at epsilon 1 would divide by zero in its bound
        with pytest.raises(error, match=key):
            ExperimentConfig(**entries)

    @pytest.mark.parametrize("field, value, expected", [
        ("d", "10", "int"), ("identity_sketch", "no", "bool"), ("trials", 2.5, "int"),
    ])
    def test_config_built_directly_checks_its_types(self, field, value, expected):
        # text is coerced only on the way in from a file or a flag: here "no" would be truthy
        with pytest.raises(ConfigError, match=f"^key '{field}': expected {expected}, got "):
            ExperimentConfig(experiment="recover", **{field: value})

    def test_config_built_directly_takes_an_int_for_a_float(self):
        cfg = ExperimentConfig(experiment="recover", lam=2)
        assert type(cfg.lam) is float and cfg == config_from_mapping({"experiment": "recover",
                                                                      "lambda": "2"})

    def test_replaced_config_checks_itself(self):
        cfg = config_from_mapping({"experiment": "recover", "sketch_dim": 10})
        with pytest.raises(ConfigError, match="trials"):
            replace(cfg, trials=0)


def in_process_pool(sizes, jobs):
    """A ProcessPoolExecutor stand-in that runs jobs in this process, recording sizes and jobs."""

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            jobs.extend(items)
            return map(fn, items)

    return InProcessPool


# The routes a trial's helper thread serves: (experiment, its own config fields).
HELPER_ROUTES = [
    ("naive_vs_drp", {"loss": "logistic"}),
    ("measurement", {}),
    ("span_error", {}),
    ("recover", {"method": "naive"}),
    ("recover", {"method": "drp", "loss": "logistic"}),
    ("iterate", {"iters": 3}),
    ("full_rank", {"data": "decaying", "top_singular": 4.0}),
    ("recover", {"identity_sketch": True}),
]
HELPER_ROUTE_IDS = ["naive_vs_drp", "measurement", "span_error", "recover-naive", "recover-drp",
                    "iterate", "full_rank", "identity"]


def helper_route_config(experiment: str, entries: dict, d: int):
    """A two-trial run of one helper route at dimension ``d``, m = 20 unless the sketch is exact."""
    return config_from_mapping({"experiment": experiment, "d": d, "n": 20,
                                **({} if "data" in entries else {"rank": 3}), **entries,
                                **({} if entries.get("identity_sketch") else {"sketch_dim": 20}),
                                "trials": 2, "seed": 3})


# Every trial route: (experiment, its own config fields).
TRIAL_ROUTES = [
    ("recover", {"method": "drp", "loss": "logistic"}),
    ("recover", {"method": "naive"}),
    ("iterate", {"iters": 3, "loss": "logistic"}),
    ("naive_vs_drp", {}),
    ("measurement", {}),
    ("span_error", {}),
    ("full_rank", {"loss": "logistic"}),
]


def _builtin_only(value) -> bool:
    """True when value and everything in it is a built-in int, float, bool, str, list or dict.

    ``type(...) in`` rather than ``isinstance``: np.float64 subclasses float.
    """
    if type(value) is list:
        return all(_builtin_only(v) for v in value)
    if type(value) is dict:
        return all(_builtin_only(v) for v in value.values())
    return type(value) in (int, float, bool, str)


class TestRunExperiment:
    @pytest.mark.parametrize("source", ["generated", "csv"])
    @pytest.mark.parametrize("experiment, extra", TRIAL_ROUTES, ids=[
        f"{e}-{x['method']}" if "method" in x else e for e, x in TRIAL_ROUTES])
    def test_records_hold_builtin_types(self, tmp_path, source, experiment, extra):
        cfg = {"experiment": experiment, "sketch_dim": 15, "trials": 2, **extra}
        if source == "csv":
            path = tmp_path / "decaying.csv"
            save_csv(make_decaying_spectrum(30, 12, 1.0, seed=5, top_singular_value=5.0), path)
            cfg.update(data="csv", csv=str(path))
        else:
            cfg.update(d=30, n=12)
            cfg.update({"data": "decaying", "top_singular": 4.0} if experiment == "full_rank"
                       else {"data": "low_rank", "rank": 2})
        doc = run_experiment(config_from_mapping(cfg))
        assert doc.errored_trials == 0
        assert all(_builtin_only(record) for record in doc.records)

    @pytest.mark.parametrize("fields", [
        {"experiment": "concentration", "rank": 3, "trials": 2, "find_min_m": True},
        {"experiment": "bounds"},
        {"experiment": "bounds", "spectrum": "sv.txt"},
        {"experiment": "recover", "d": 20, "n": 10, "rank": 2, "sketch_dim": 6,
         "loss": "logistic", "max_iters": 1},  # error records
    ], ids=["concentration", "bounds", "bounds-spectrum", "errored"])
    def test_other_records_hold_builtin_types(self, tmp_path, monkeypatch, fields):
        monkeypatch.chdir(tmp_path)
        np.savetxt("sv.txt", np.arange(1, 31, dtype=float) ** -1.0)
        doc = run_experiment(config_from_mapping(fields))
        assert all(_builtin_only(record) for record in doc.records)

    def test_identity_sketch_smoke(self):
        cfg = config_from_mapping({
            "experiment": "recover", "d": 40, "n": 25, "rank": 3,
            "identity_sketch": True, "trials": 3, "seed": 1,
        })
        report = run_experiment(cfg)
        assert report.aggregates["success_fraction"] == 1.0
        assert report.aggregates["max_rel_error"] <= 1e-8

    def test_bounds_reference_value(self):
        cfg = config_from_mapping({
            "experiment": "bounds", "rank": 5, "epsilon": 0.5, "delta": 0.1,
        })
        report = run_experiment(cfg)
        assert report.records[0]["m"] == 443
        assert report.records[0]["kind"] == "low_rank"  # no spectrum file

    def test_full_rank_bounds_from_spectrum_file(self, tmp_path):
        path = tmp_path / "spectrum.txt"
        sv = np.arange(1, 101, dtype=float) ** -1.0
        np.savetxt(path, sv)
        cfg = config_from_mapping({
            "experiment": "bounds", "spectrum": str(path),
            "d": 100, "loss": "logistic", "lambda": 1.0,
        })
        report = run_experiment(cfg)
        assert report.records[0]["kind"] == "full_rank"
        assert report.records[0]["m"] == full_rank_sample_bound(
            sv, 1.0, parse_loss("logistic").gamma, 0.5, 0.1, 100, FULL_RANK_C)
        assert report.records[0]["m"] == 69  # the low-rank bound at rank 5 is 443

    def test_records_reproducible_bitwise(self):
        cfg = config_from_mapping({
            "experiment": "naive_vs_drp", "d": 120, "n": 40, "rank": 3,
            "sketch_dim": 30, "trials": 4, "seed": 9,
        })
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first.records == second.records

    # entries, the error a record checks against its bound (None: no bound), and whether some
    # record must fall outside its bound
    @pytest.mark.parametrize("entries, key, outside", [
        pytest.param({"experiment": "recover", **LOW_ENTRIES, "sketch_dim": 20, "loss": "logistic",
                      "trials": 5, "seed": 2}, "rel_error", False, id="recover"),
        # DRP at m = 5 misses eps/(1 - eps) = 0.11: within_bound false for <=
        pytest.param({"experiment": "recover", **LOW_ENTRIES, "sketch_dim": 5, "epsilon": 0.1,
                      "trials": 3}, "rel_error", True, id="recover-outside"),
        pytest.param({"experiment": "recover", **LOW_ENTRIES, "method": "naive", "sketch_dim": 20,
                      "trials": 3}, "rel_error", False, id="recover-naive"),
        # the exact sketch beats the naive lower bound (0.41 at eps 0.1): within_bound false for >=
        pytest.param({"experiment": "recover", **LOW_ENTRIES, "method": "naive",
                      "identity_sketch": True, "epsilon": 0.1}, "rel_error", True,
                     id="recover-naive-outside"),
        pytest.param({"experiment": "recover", **LOW_ENTRIES, "sketch_dim": 20, "loss": "logistic",
                      "max_iters": 1, "trials": 2}, "rel_error", False, id="recover-errored"),
        pytest.param({"experiment": "iterate", **LOW_ENTRIES, "sketch_dim": 20, "iters": 3,
                      "trials": 3}, "rel_error", False, id="iterate"),
        pytest.param({"experiment": "naive_vs_drp", **LOW_ENTRIES, "sketch_dim": 20, "trials": 3},
                     None, False, id="naive_vs_drp"),
        pytest.param({"experiment": "measurement", **LOW_ENTRIES, "sketch_dim": 30, "trials": 3},
                     "measurement_error", False, id="measurement"),
        pytest.param({"experiment": "span_error", **LOW_ENTRIES, "sketch_dim": 30, "trials": 3},
                     "span_rel_error", False, id="span_error"),
        pytest.param({"experiment": "concentration", "rank": 3, "sketch_dim": 40, "trials": 6},
                     None, False, id="concentration"),
        pytest.param({"experiment": "bounds", "rank": 3, "epsilon": 0.3}, None, False,
                     id="bounds"),
        pytest.param({"experiment": "full_rank", "data": "decaying", "d": 60, "n": 20,
                      "top_singular": 4, "loss": "logistic", "trials": 3}, "rel_error", False,
                     id="full_rank"),
    ])
    def test_aggregates_recomputable_from_records(self, entries, key, outside):
        cfg = config_from_mapping(entries)
        report = run_experiment(cfg)
        records = report.records
        clean = [r for r in records if "error" not in r]
        expected = {"trials": len(records), "errored_trials": len(records) - len(clean)}
        if cfg.experiment == "naive_vs_drp":
            naive = float(np.mean([r["naive_rel_error"] for r in clean]))
            drp = float(np.mean([r["drp_rel_error"] for r in clean]))
            expected.update(mean_naive_rel_error=naive, mean_drp_rel_error=drp,
                            ratio_of_means=naive / drp)
        elif cfg.experiment == "concentration":
            devs = [r["deviation"] for r in clean]
            expected.update(max_deviation=float(np.max(devs)), mean_deviation=float(np.mean(devs)),
                            success_fraction=float(np.mean([r["pass"] for r in clean])))
        assert BOUNDED.get(cfg.experiment) == key
        if key is not None and clean:
            errors = [r[key] for r in clean]
            # the naive bound is a lower bound; every other bound is an upper bound
            within = [r[key] >= r["bound"]["value"] if cfg.method == "naive"
                      else r[key] <= r["bound"]["value"] for r in clean]
            assert [r["within_bound"] for r in clean] == within
            assert not outside or not all(within)
            expected.update({f"mean_{key}": float(np.mean(errors)),
                             f"median_{key}": float(np.median(errors)),
                             f"max_{key}": float(np.max(errors)),
                             "success_fraction": float(np.mean(within))})
        assert report.aggregates == expected

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300) | st.just(math.nan), min_size=1, max_size=12))
    @example([0.3, 0.1, 0.2]).via("odd length")
    @example([0.4, 0.1, 0.3, 0.2]).via("even length")
    @example([0.1, math.nan, 0.2]).via("odd length with a NaN")
    @example([0.3, 0.2, 0.1, math.nan]).via("even length with a NaN")
    def test_median_equals_numpys(self, values):
        median, expected = experiments._median(values), float(np.median(values))
        assert type(median) is float
        assert median == expected or math.isnan(median) and math.isnan(expected)

    def test_report_round_trips_json(self):
        cfg = config_from_mapping({
            "experiment": "iterate", "d": 50, "n": 20, "rank": 2,
            "sketch_dim": 15, "iters": 3, "trials": 2, "seed": 4,
        })
        report = run_experiment(cfg)
        blob = json.loads(report.to_json())
        assert blob["schema_version"] == 1
        assert blob["config"]["experiment"] == "iterate"
        assert len(blob["records"]) == 2
        assert len(blob["records"][0]["trace"]) == 4
        assert blob["records"][0]["trace"][0] == 1.0
        assert set(blob["records"][0]["bound"]) == {"epsilon", "value"}

    def test_csv_report_carries_schema_version(self):
        cfg = config_from_mapping({
            "experiment": "concentration", "rank": 4, "sketch_dim": 50,
            "epsilon": 0.5, "trials": 3, "seed": 0,
        })
        report = run_experiment(cfg)
        lines = report.to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "schema_version"
        assert {"seed", "deviation", "pass"} <= set(header)
        assert len(lines) == 4

    @pytest.mark.parametrize("records, text", [
        ([], "schema_version\n1\n"),
        ([{"trial": 0, "seed": 3, "error": 'pass 1: no convergence, "grad" 2.5'},
          {"trial": 1, "seed": 4, "m": 6, "rel_error": 0.25, "bound": {"epsilon": 0.5, "value": 1.0},
           "within_bound": True, "trace": [1.0, 0.5, 1e-17]},
          {"trial": 2, "seed": 5, "m": 6, "rel_error": float("inf"), "within_bound": False,
           "trace": []}],
         "schema_version,trial,seed,error,m,rel_error,bound_epsilon,bound_value,within_bound,trace\n"
         '1,0,3,"pass 1: no convergence, ""grad"" 2.5",,,,,,\n'
         "1,1,4,,6,0.25,0.5,1.0,true,1.0;0.5;1e-17\n"
         "1,2,5,,6,inf,,,false,\n"),
    ], ids=["no-records", "mixed-records"])
    def test_csv_report_text(self, records, text):
        report = experiments.ReportDocument(1, {}, records, {}, 0.0)
        assert report.to_csv() == text

    def test_json_report_text_matches_asdict(self):
        records = [
            {"trial": 0, "seed": 3, "error": "pass 1: no convergence"},
            {"trial": 1, "seed": 4, "m": 6, "rel_error": 0.25,
             "bound": {"epsilon": 0.5, "value": 1.0}, "within_bound": True,
             "trace": [1.0, 0.5, 1e-17]},
        ]
        report = experiments.ReportDocument(
            1, {"experiment": "iterate", "loss": "square"}, records,
            {"trials": 2, "errored_trials": 1}, 0.5, {"blas_threads": 1, "malloc_thresholds": "pinned"})
        assert report.to_json() == json.dumps(asdict(report), indent=2)

    def test_csv_dataset_experiment(self, tmp_path):
        data = make_low_rank(20, 10, 2, "random", seed=3)
        path = tmp_path / "train.csv"
        save_csv(data, path)
        cfg = config_from_mapping({
            "experiment": "recover", "data": "csv", "csv": str(path),
            "sketch_dim": 8, "trials": 2, "seed": 0,
        })
        report = run_experiment(cfg)
        assert report.errored_trials == 0
        assert all(r["m"] == 8 for r in report.records)

    def test_full_rank_csv_bound_uses_measured_spectrum(self, tmp_path):
        path = tmp_path / "decaying.csv"
        save_csv(make_decaying_spectrum(60, 30, 1.0, seed=5, top_singular_value=5.0), path)
        cfg = config_from_mapping({"experiment": "full_rank", "data": "csv", "csv": str(path),
                                   "loss": "logistic", "lambda": 1.0})
        record = run_experiment(cfg).records[0]
        sv = spectrum(load_csv(path)).singular_values
        gamma = parse_loss("logistic").gamma
        assert record["k"] == numerical_rank(sv, math.sqrt(1.0 / gamma))
        assert record["m"] == full_rank_sample_bound(sv, 1.0, gamma, cfg.epsilon, cfg.delta, 60,
                                                     FULL_RANK_C)

    def test_naive_bound_uses_data_and_sketch_dimensions(self, tmp_path):
        path = tmp_path / "train.csv"
        save_csv(make_low_rank(60, 30, 4, "random", seed=11), path)
        cfg = config_from_mapping({"experiment": "recover", "method": "naive", "rank": 4,
                                   "identity_sketch": True, "data": "csv", "csv": str(path)})
        record = run_experiment(cfg).records[0]
        eps = cfg.epsilon
        expected = 0.5 * math.sqrt((60 - 4) / 60) * (1 - eps * math.sqrt(2 * (1 + eps)) / (1 - eps))
        assert record["m"] == 60
        assert record["bound"]["value"] == pytest.approx(expected)  # about -0.354

    def test_naive_bound_when_rank_exceeds_d(self):
        cfg = config_from_mapping({"experiment": "recover", "method": "naive", "data": "decaying",
                                   "d": 3, "n": 10, "sketch_dim": 4})
        assert run_experiment(cfg).records[0]["bound"]["value"] == 0.0

    def test_naive_recovery_is_worse_than_drp(self):
        base = {"experiment": "recover", "d": 80, "n": 30, "rank": 3,
                "sketch_dim": 25, "trials": 2, "seed": 5}
        naive = run_experiment(config_from_mapping({**base, "method": "naive"}))
        drp = run_experiment(config_from_mapping(dict(base)))
        assert naive.aggregates["mean_rel_error"] > drp.aggregates["mean_rel_error"]

    def test_measurement_and_span_experiments(self):
        base = {"d": 200, "n": 50, "rank": 3, "sketch_dim": 80, "trials": 2, "seed": 1}
        meas = run_experiment(config_from_mapping({**base, "experiment": "measurement"}))
        assert "measurement_error" in meas.records[0]
        assert meas.records[0]["bound"]["value"] == pytest.approx(1.0)
        span = run_experiment(config_from_mapping({**base, "experiment": "span_error"}))
        assert {"span_rel_error", "full_rel_error"} <= set(span.records[0])

    def test_sketch_dim_from_bound(self):
        cfg = config_from_mapping({
            "experiment": "recover", "d": 600, "n": 100, "rank": 5,
            "epsilon": 0.5, "delta": 0.1, "trials": 1, "seed": 0,
        })
        report = run_experiment(cfg)
        assert report.records[0]["m"] == 443

    @pytest.mark.parametrize("experiment", ["recover", "iterate", "naive_vs_drp", "measurement",
                                            "span_error"])
    def test_every_sketched_experiment_takes_m_from_the_bound(self, experiment):
        low = config_from_mapping({"experiment": experiment, "d": 20, "n": 10, "rank": 2})
        assert run_experiment(low).records[0]["m"] == sample_size_bound(2, 0.5, 0.1)
        decaying = config_from_mapping({"experiment": experiment, "data": "decaying", "d": 20,
                                        "n": 10, "top_singular": 4.0, "loss": "logistic"})
        planted = 4.0 * np.arange(1, 11, dtype=float) ** -1.0
        assert run_experiment(decaying).records[0]["m"] == full_rank_sample_bound(
            planted, 1.0, parse_loss("logistic").gamma, 0.5, 0.1, 20, FULL_RANK_C)

    @pytest.mark.parametrize("entries", [
        {"experiment": "recover", "d": 5, "n": 3, "rank": 1, "sketch_dim": 10**20},
        {"experiment": "recover", "d": 5, "n": 3, "rank": 1, "sketch_dim": 2 * 10**18},
        {"experiment": "concentration", "rank": 3, "c": 1e-300},
    ], ids=["beyond-intp", "too-many-bytes", "derived"])
    def test_unshapeable_sketch_fails_in_the_plan(self, entries):
        cfg = config_from_mapping(entries)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="too large"):
                experiments._plan(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_concentration_find_min_m(self):
        cfg = config_from_mapping({
            "experiment": "concentration", "rank": 2, "epsilon": 0.5,
            "trials": 5, "seed": 11, "find_min_m": True,
        })
        report = run_experiment(cfg)
        assert report.aggregates["smallest_passing_m"] >= 1
        assert report.aggregates["smallest_passing_m"] <= report.records[0]["m"]

    def test_worker_pool_reproduces_serial_records(self, monkeypatch):
        cfg = config_from_mapping({
            "experiment": "naive_vs_drp", "d": 100, "n": 30, "rank": 3,
            "sketch_dim": 20, "trials": 4, "seed": 2,
        })
        serial = run_experiment(cfg)
        monkeypatch.setenv("DUALSKETCH_WORKERS", "2")
        pooled = run_experiment(cfg)
        assert pooled.records == serial.records

    def test_pool_capped_at_trial_count(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", in_process_pool(sizes, []))
        monkeypatch.setenv("DUALSKETCH_WORKERS", "64")
        cfg = config_from_mapping({
            "experiment": "concentration", "rank": 2, "sketch_dim": 20, "trials": 3,
        })
        assert len(run_experiment(cfg).records) == 3
        assert sizes == [3]

    def test_pool_jobs_carry_only_the_trial_index(self, tmp_path, monkeypatch):
        path = tmp_path / "train.csv"
        save_csv(make_low_rank(40, 20, 3, "random", seed=3), path)
        jobs = []
        cfg = config_from_mapping({"experiment": "span_error", "data": "csv", "csv": str(path),
                                   "sketch_dim": 10, "trials": 3})
        serial = run_experiment(cfg)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", in_process_pool([], jobs))
        monkeypatch.setenv("DUALSKETCH_WORKERS", "2")
        assert run_experiment(cfg).records == serial.records
        # each job is a bare trial index: no dataset, spectrum or plan array rides along
        assert jobs == [0, 1, 2] and all(type(job) is int for job in jobs)

    @pytest.mark.parametrize("experiment, method, sketched_solves", [
        ("recover", "drp", 1), ("recover", "naive", 1), ("iterate", "drp", 3), ("naive_vs_drp", "drp", 1), ("measurement", "drp", 1),
        ("span_error", "drp", 1), ("full_rank", "drp", 1),
    ])
    def test_naive_vs_drp_solves_once_per_problem(self, monkeypatch, experiment, method,
                                                  sketched_solves):
        # every route shares one sketched solve per pass
        shapes = []

        def counting_solve(features, *args, **kwargs):
            shapes.append(np.shape(features))
            return solve_primal(features, *args, **kwargs)

        monkeypatch.setattr(experiments, "solve_primal", counting_solve)
        monkeypatch.setattr(recover, "solve_primal", counting_solve)
        entries = {"rank": 3, **({"iters": 3} if experiment == "iterate" else {})}
        if experiment == "full_rank":
            entries = {"data": "decaying", "top_singular": 4.0}
        cfg = config_from_mapping({
            "experiment": experiment, "d": 80, "n": 30, **entries, "method": method,
            "sketch_dim": 20, "trials": 1, "seed": 3,
        })
        assert run_experiment(cfg).errored_trials == 0
        # one reference and the sketched passes, in an order that depends on the schedule: the
        # helper may solve the reference while this thread solves the sketch
        assert Counter(shapes) == Counter({(80, 30): 1, (20, 30): sketched_solves})

    def test_trial_peak_memory(self):
        # R fills on the helper thread from the top of the trial; while it is still filling the
        # trial solves its reference, so R is held through that solve, whose span check forms
        # its residual a block of rows at a time, never d x n at once: the peak stays below
        # X + R + X/2
        cfg = config_from_mapping({
            "experiment": "naive_vs_drp", "d": 4000, "n": 200, "rank": 3,
            "sketch_dim": 300, "loss": "logistic", "trials": 1, "seed": 0,
        })
        with ThreadPoolExecutor(max_workers=1) as helper:
            plan = replace(experiments._plan(cfg), helper=helper)
            tracemalloc.start()
            try:
                record = experiments._run_one(cfg, plan, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert "error" not in record
        x_bytes, r_bytes = 4000 * 200 * 8, 4000 * 300 * 8
        assert peak <= x_bytes + r_bytes + x_bytes / 2

    @pytest.mark.parametrize("experiment, entries", HELPER_ROUTES, ids=HELPER_ROUTE_IDS)
    def test_helper_moves_no_record(self, monkeypatch, experiment, entries):
        # every Gaussian R fills on the helper, one block at d = 60 and two at d = 1100; the
        # records are those of R drawn in one call on the trial's thread.  The identity sketch
        # is draw_blocks' seedless draw, which fills nothing, but at d = 1100 the helper still
        # computes its last block's product; its records are those of identity_sketch, projected
        # on the trial's thread alone
        identity = entries.get("identity_sketch", False)
        for d in (60, 1100):
            cfg = helper_route_config(experiment, entries, d)
            draws, helpers = [], []

            def counting(*args):
                draws.append(args[:3])
                return draw_blocks(*args)

            def projecting(*args, helper=None):
                helpers.append(helper is not None)
                return project(*args, helper=helper)

            monkeypatch.setattr(experiments, "draw_blocks", counting)
            monkeypatch.setattr(experiments, "project", projecting)
            filled = run_experiment(cfg)
            # once a trial
            assert draws == ([(d, d, None)] * 2 if identity else [(d, 20, 3), (d, 20, 4)])
            assert helpers == [True, True]
            monkeypatch.setattr(experiments, "draw_blocks",
                                lambda d, m, seed, helper: (gaussian_matrix(d, m, seed), []))
            monkeypatch.setattr(experiments, "project", project if not identity else
                                lambda data, *args, **kwargs: identity_sketch(data))
            one_call = run_experiment(cfg)
            assert one_call.errored_trials == 0
            assert filled.records == one_call.records

    def test_pool_workers_start_their_own_helpers(self, monkeypatch):
        cfg = config_from_mapping({"experiment": "naive_vs_drp", "d": 1100, "n": 20, "rank": 3,
                                   "sketch_dim": 20, "trials": 2, "seed": 3})
        serial = run_experiment(cfg)
        monkeypatch.setenv("DUALSKETCH_WORKERS", "2")
        pooled = run_experiment(cfg)
        assert pooled.records == serial.records

    def test_no_helper_thread_outlives_a_serial_run(self, monkeypatch):
        cfg = config_from_mapping({"experiment": "naive_vs_drp", "d": 100, "n": 20, "rank": 3,
                                   "sketch_dim": 20, "trials": 2, "seed": 3})
        before, during = threading.active_count(), []

        def counting(*args):
            r_matrix, landed = draw_blocks(*args)
            during.append(threading.active_count())
            return r_matrix, landed

        def failing(cfg, data, loss):
            raise ConvergenceError("reference failed", None)

        monkeypatch.setattr(experiments, "draw_blocks", counting)
        assert run_experiment(cfg).errored_trials == 0
        assert threading.active_count() == before
        monkeypatch.setattr(experiments, "_reference", failing)
        assert run_experiment(cfg).errored_trials == 2
        assert threading.active_count() == before
        assert during == [before + 1] * 4  # the helper ran in every trial of both runs

    def test_failed_reference_leaves_no_fill_running(self, monkeypatch):
        fills = []

        def recording(*args):
            r_matrix, landed = draw_blocks(*args)
            fills.extend(landed)
            return r_matrix, landed

        def failing(cfg, data, loss):
            raise ConvergenceError("reference failed", None)

        monkeypatch.setattr(experiments, "draw_blocks", recording)
        monkeypatch.setattr(experiments, "_reference", failing)
        # three blocks of 1024 x 2000 normals: the reference fails long before they are drawn
        cfg = config_from_mapping({"experiment": "naive_vs_drp", "d": 3000, "n": 20, "rank": 3,
                                   "sketch_dim": 2000, "trials": 1})
        with ThreadPoolExecutor(max_workers=1) as helper:
            plan = replace(experiments._plan(cfg), helper=helper)
            assert experiments._run_one(cfg, plan, 0)["error"] == "reference failed"
            assert len(fills) == 3 and all(fill.done() for fill in fills)

    @pytest.mark.parametrize("experiment, entries", HELPER_ROUTES, ids=HELPER_ROUTE_IDS)
    def test_reference_schedule_moves_no_record(self, monkeypatch, experiment, entries):
        # the trial hands its reference to the helper once R has landed, and solves it itself
        # while R is still filling; forced each way, serially and in the pool, the records
        # are the same
        reference, threads = experiments._reference, []

        def recording(*args):
            threads.append(threading.current_thread() is threading.main_thread())
            return reference(*args)

        monkeypatch.setattr(experiments, "_reference", recording)
        records = []
        for workers in ("1", "2"):
            monkeypatch.setenv("DUALSKETCH_WORKERS", workers)
            for landed in (False, True):
                monkeypatch.setattr(experiments, "_landed", lambda fills, landed=landed: landed)
                report = run_experiment(helper_route_config(experiment, entries, 60))
                assert report.errored_trials == 0
                records.append(report.records)
        assert all(run == records[0] for run in records[1:])
        # the serial runs: the trial's own thread solved the first two, the helper the others
        assert threads == [True, True, False, False]

    @pytest.mark.parametrize("landed", [False, True], ids=["trial-thread", "helper"])
    def test_failed_reference_outranks_a_failed_sketch(self, monkeypatch, landed):
        # both solves fail; the record carries the reference's error, as when the reference
        # ran first, even though here the sketch fails before the helper's reference does
        sketch_failed = threading.Event()

        def failing(cfg, data, loss):
            if landed:  # on the helper: fail only once the sketch has
                sketch_failed.wait(timeout=30)
            raise ConvergenceError("reference failed", None)

        def flagging(*args, **kwargs):
            try:
                return recover_iterative(*args, **kwargs)
            except ConvergenceError:
                sketch_failed.set()
                raise

        monkeypatch.setattr(experiments, "_reference", failing)
        monkeypatch.setattr(recover, "recover_iterative", flagging)
        monkeypatch.setattr(experiments, "_landed", lambda fills: landed)
        cfg = config_from_mapping({"experiment": "full_rank", "data": "decaying", "d": 30,
                                   "n": 20, "top_singular": 4.0, "loss": "logistic",
                                   "sketch_dim": 10, "max_iters": 1, "trials": 2})
        report = run_experiment(cfg)
        assert [r["error"] for r in report.records] == ["reference failed"] * 2
        assert sketch_failed.is_set() == landed  # on the trial's thread, the sketch never ran
        monkeypatch.setattr(experiments, "_reference", _reference)  # the sketch's error alone
        assert all(r["error"].startswith("pass 1: no convergence")
                   for r in run_experiment(cfg).records)

    @pytest.mark.parametrize("identity", [False, True], ids=["gaussian", "identity"])
    def test_failed_sketch_leaves_no_reference_running(self, monkeypatch, identity):
        # the sketch fails at once; the trial still waits for the helper's reference, so none
        # runs on into the next trial, and no helper thread outlives the run
        finished = []

        def slow(cfg, data, loss):
            time.sleep(0.05)
            w_star = _reference(cfg, data, loss)
            finished.append(threading.current_thread() is not threading.main_thread())
            return w_star

        monkeypatch.setattr(experiments, "_reference", slow)
        monkeypatch.setattr(experiments, "_landed", lambda fills: True)
        entries = {"identity_sketch": True} if identity else {"sketch_dim": 20}
        cfg = config_from_mapping({"experiment": "recover", "d": 60, "n": 20, "rank": 3,
                                   "loss": "logistic", "max_iters": 1, **entries, "trials": 2})
        with ThreadPoolExecutor(max_workers=1) as helper:
            plan = replace(experiments._plan(cfg), helper=helper)
            record = experiments._run_one(cfg, plan, 0)
            assert record["error"].startswith("pass 1: no convergence")
            assert finished == [True]
        before = threading.active_count()
        assert run_experiment(cfg).errored_trials == 2
        assert threading.active_count() == before
        assert finished == [True] * 3

    def test_failed_projection_leaves_no_product_running(self, monkeypatch):
        # block 0 fails on the trial's thread while the helper computes the last block's
        # product; the trial still waits for that product, so none runs on into the next
        # trial, and no helper thread outlives the run
        started, finished = [], []

        def slow_product(*args):
            started[-1].set()
            time.sleep(0.05)
            product = np.matmul(*args)
            finished.append(threading.current_thread() is not threading.main_thread())
            return product

        class SlowProducts(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(slow_product if fn is np.matmul else fn, *args, **kwargs)

        class FailedBlock(Future):  # read, it fails once the product job has started
            def result(self, timeout=None):
                started[-1].wait(timeout=30)
                return super().result(timeout)

        def drawing(*args):
            r_matrix, landed = draw_blocks(*args)
            started.append(threading.Event())
            failed = FailedBlock()
            failed.set_exception(ConvergenceError("block 0 failed", None))
            return r_matrix, [failed, *landed[1:]]

        monkeypatch.setattr(experiments, "draw_blocks", drawing)
        cfg = config_from_mapping({"experiment": "naive_vs_drp", "d": 3000, "n": 20, "rank": 3,
                                   "sketch_dim": 20, "trials": 2})
        with SlowProducts(max_workers=1) as helper:
            plan = replace(experiments._plan(cfg), helper=helper)
            assert experiments._run_one(cfg, plan, 0)["error"] == "block 0 failed"
            assert finished == [True]
        before = threading.active_count()
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", SlowProducts)
        assert run_experiment(cfg).errored_trials == 2
        assert threading.active_count() == before
        assert finished == [True] * 3

    @pytest.mark.parametrize("landed", [False, True])
    def test_reference_tol_that_accepts_zero_is_a_config_error(self, monkeypatch, capsys, landed):
        # ||X y|| = 23, so w* is not zero: the tolerance is what certifies w = 0, at iteration 0,
        # whether the trial or the helper solves the reference
        monkeypatch.setattr(experiments, "_landed", lambda fills: landed)
        argv = ["recover", "--d", "30", "--n", "10", "--rank", "2", "--sketch-dim", "5"]
        assert main([*argv, "--reference-tol", "100"]) == 2
        assert capsys.readouterr().err == (
            "config error: key 'reference_tol': so loose that w = 0 meets it (grad norm 23)\n")
        assert main([*argv, "--reference-tol", "10"]) == 0

    def test_zero_norm_reference_on_the_helper_keeps_its_exit(self, monkeypatch, capsys):
        # lambda 1e300 underflows w* to zero; raised on the helper, the error reaches the CLI
        # as the same dataset error, exit 3
        threads = []

        def recording(*args):
            threads.append(threading.current_thread() is threading.main_thread())
            return _reference(*args)

        monkeypatch.setattr(experiments, "_reference", recording)
        monkeypatch.setattr(experiments, "_landed", lambda fills: True)
        assert main(["recover", *SMALL, "--lambda", "1e300"]) == 3
        assert threads == [False]
        assert capsys.readouterr().err == (
            "dataset error: the reference solution has zero norm (X y = 0, or lambda so large "
            "that it underflows); relative errors are undefined\n")

    def test_full_rank_trial_peak_memory_with_the_reference_on_the_helper(self, monkeypatch):
        # full_rank_decaying's trial, d = n = 500 and m = 2484 from the bound.  The trial
        # projects and lets R go before the helper's reference solve starts; run one after the
        # other, the two solves peak at projection, 22.8 MiB.  Overlapped they read 22.9 MiB,
        # and 26.9 MiB if each Newton step held its Hessian's square-root factor and Hessian
        # through the LU solve and the line search
        monkeypatch.setattr(experiments, "_landed", lambda fills: True)
        cfg = config_from_mapping({"experiment": "full_rank", "data": "decaying", "d": 500,
                                   "n": 500, "top_singular": 4.0, "label_rule": "sign_of_plant",
                                   "loss": "logistic", "trials": 1})
        with ThreadPoolExecutor(max_workers=1) as helper:
            plan = replace(experiments._plan(cfg), helper=helper)
            tracemalloc.start()
            try:
                record = experiments._run_one(cfg, plan, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert record["m"] == 2484 and "error" not in record
        assert peak <= 24 << 20

    @staticmethod
    def _watch_projections(monkeypatch) -> list:
        """Weak references to the R of every sketch the trials draw, in draw order."""
        refs = []

        def watching(make):
            def wrapped(*args, **kwargs):
                sk = make(*args, **kwargs)
                refs.append(weakref.ref(sk.matrix_r))
                return sk
            return wrapped

        # every R, Gaussian or identity, reaches the trial through project
        monkeypatch.setattr(experiments, "project", watching(project))
        return refs

    @pytest.mark.parametrize("experiment, method, entries", [
        ("full_rank", "drp", {"data": "decaying", "top_singular": 4.0, "sketch_dim": 20}),
        ("iterate", "drp", {"rank": 3, "sketch_dim": 20, "iters": 3}),
        ("iterate", "drp", {"rank": 3, "identity_sketch": True, "iters": 3}),
        ("recover", "drp", {"rank": 3, "sketch_dim": 20}),
    ], ids=["full_rank", "iterate", "iterate-identity", "recover-drp"])
    def test_projection_freed_before_the_sketched_solve(self, monkeypatch, experiment, method,
                                                        entries):
        # no readout of these routes reads R, so it is gone before the solve starts
        refs = self._watch_projections(monkeypatch)
        freed = []

        def checking(route):
            def wrapped(*args, **kwargs):
                freed.append(refs[-1]() is None)
                return route(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(recover, "recover_iterative", checking(recover_iterative))
        cfg = config_from_mapping({"experiment": experiment, "method": method, "d": 80, "n": 30,
                                   **entries, "trials": 2, "seed": 3})
        assert run_experiment(cfg).errored_trials == 0
        assert len(refs) == 2 and freed == [True, True]

    @pytest.mark.parametrize("experiment, method, entries", [
        ("naive_vs_drp", "drp", {"sketch_dim": 20}),
        ("measurement", "drp", {"sketch_dim": 20}),
        ("span_error", "drp", {"sketch_dim": 20}),
        ("recover", "naive", {"sketch_dim": 20}),
        ("recover", "naive", {"identity_sketch": True}),
    ], ids=["naive_vs_drp", "measurement", "span_error", "recover-naive", "recover-naive-identity"])
    def test_projection_kept_for_the_readouts_that_read_it(self, monkeypatch, experiment, method,
                                                           entries):
        refs = self._watch_projections(monkeypatch)
        same = []

        def checking(route, position):
            def wrapped(*args):
                same.append(args[position] is refs[-1]())
                return route(*args)
            return wrapped

        monkeypatch.setattr(recover, "recover_naive", checking(recover_naive, 0))
        monkeypatch.setattr(recover, "measurement_error", checking(measurement_error, 1))
        cfg = config_from_mapping({"experiment": experiment, "method": method, "d": 80, "n": 30,
                                   "rank": 3, **entries, "trials": 2, "seed": 3})
        assert run_experiment(cfg).errored_trials == 0
        assert len(refs) == 2 and same == [True, True]

    def test_csv_loaded_once_per_run(self, tmp_path, monkeypatch):
        path = tmp_path / "train.csv"
        save_csv(make_low_rank(20, 10, 2, "random", seed=3), path)
        calls = []

        def counting_load(p):
            calls.append(p)
            return load_csv(p)

        monkeypatch.setattr(experiments, "load_csv", counting_load)
        cfg = config_from_mapping({"experiment": "recover", "data": "csv", "csv": str(path),
                                   "sketch_dim": 8, "trials": 3})
        assert len(run_experiment(cfg).records) == 3
        assert calls == [str(path)]

    @pytest.mark.parametrize("source, svds", [("decaying", 0), ("csv", 1)])
    def test_full_rank_svds_per_run(self, tmp_path, monkeypatch, source, svds):
        # generated decaying data carries its planted SVD; CSV data is decomposed once per run
        path = tmp_path / "decaying.csv"
        save_csv(make_decaying_spectrum(30, 12, 1.0, seed=5, top_singular_value=4.0), path)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1)
                            or svd(*args, **kwargs))
        data = {"data": "csv", "csv": str(path)} if source == "csv" else {
            "data": "decaying", "d": 30, "n": 12, "top_singular": 4.0}
        cfg = config_from_mapping({"experiment": "full_rank", **data, "trials": 3})
        assert run_experiment(cfg).errored_trials == 0
        assert len(calls) == svds

    def test_full_rank_planted_leakage_matches_the_svd(self, monkeypatch):
        cfg = config_from_mapping({"experiment": "full_rank", "data": "decaying", "d": 40,
                                   "n": 25, "top_singular": 4.0, "label_rule": "sign_of_plant",
                                   "loss": "logistic", "trials": 3})
        planted = run_experiment(cfg).records
        # the same run with every spectrum measured by an SVD of the features
        monkeypatch.setattr(experiments, "spectrum",
                            lambda data: spectrum(Dataset(data.features, data.labels)))
        measured = run_experiment(cfg).records
        for a, b in zip(planted, measured):
            assert a["subspace_leakage"] == pytest.approx(b["subspace_leakage"], rel=1e-12)
            assert {**a, "subspace_leakage": 0} == {**b, "subspace_leakage": 0}

    @pytest.mark.parametrize("experiment", ["span_error", "iterate"])
    def test_csv_reference_and_spectrum_once_per_run(self, tmp_path, monkeypatch, experiment):
        path = tmp_path / "train.csv"
        save_csv(make_low_rank(40, 20, 3, "random", seed=3), path)
        shapes, svds = [], []
        svd = np.linalg.svd

        def counting_solve(features, *args, **kwargs):
            shapes.append(np.shape(features))
            return solve_primal(features, *args, **kwargs)

        monkeypatch.setattr(experiments, "solve_primal", counting_solve)
        monkeypatch.setattr(recover, "solve_primal", counting_solve)
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: svds.append(a.shape)
                            or svd(a, *args, **kwargs))
        cfg = config_from_mapping({"experiment": experiment, "data": "csv", "csv": str(path),
                                   "sketch_dim": 10, "trials": 3,
                                   **({"iters": 2} if experiment == "iterate" else {})})
        assert run_experiment(cfg).errored_trials == 0
        assert shapes.count((40, 20)) == 1
        assert svds == ([(40, 20)] if experiment == "span_error" else [])  # iterate reads none

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_full_rank_k_zero_fails_before_any_solve(self, monkeypatch, workers):
        solves, pools = [], []

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve_primal(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_primal", counting_solve)
        monkeypatch.setattr(recover, "solve_primal", counting_solve)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
        monkeypatch.setenv("DUALSKETCH_WORKERS", workers)
        cfg = config_from_mapping({"experiment": "full_rank", "data": "decaying", "d": 20,
                                   "n": 10, "top_singular": 1.0, "lambda": 4.0, "trials": 2})
        with pytest.raises(ConfigError, match="sqrt"):
            run_experiment(cfg)
        assert solves == [] and pools == []

    @pytest.mark.parametrize("experiment, method", [
        ("recover", "drp"), ("recover", "naive"), ("iterate", "drp"), ("naive_vs_drp", "drp"), ("measurement", "drp"), ("span_error", "drp"),
        ("full_rank", "drp"),
    ])
    def test_naive_vs_drp_matches_recovery_routes(self, experiment, method):
        # each record holds the public route functions' values, bit for bit
        if experiment == "full_rank":
            entries = {"data": "decaying", "top_singular": 4.0}
            data = make_decaying_spectrum(120, 40, 1.0, seed=9, top_singular_value=4.0)
        else:
            entries = {"rank": 3}
            data = make_low_rank(120, 40, 3, "random", seed=9)
        cfg = config_from_mapping({
            "experiment": experiment, "d": 120, "n": 40, **entries, "method": method,
            "sketch_dim": 30, "trials": 1, "seed": 9, "loss": "logistic",
        })
        record = run_experiment(cfg).records[0]
        loss = parse_loss("logistic")
        sk = gaussian_sketch(data, 30, seed=9)
        w_star = solve_reference(data.features, data.labels, loss, cfg.lam,
                                 cfg.reference_tol).weights
        solver = SolverConfig(tolerance=cfg.tol, max_iterations=cfg.max_iters)
        z = solve_primal(sk.sketched_features, data.labels, loss, cfg.lam, solver).weights
        naive = recover_naive(sk.matrix_r, z, sk.m)
        drp = recover_iterative(data, loss, cfg.lam, sk, 1, solver, w_star)[0].rel_error
        if experiment == "recover":
            rel = {"drp": drp, "naive": relative_error(naive, w_star)}
            expected = {"rel_error": rel[method]}
        elif experiment == "iterate":
            result, trace = recover_iterative(data, loss, cfg.lam, sk, cfg.iters, solver,
                                              reference=w_star)
            expected = {"rel_error": result.rel_error,
                        "trace": [float(v) for v in trace.per_iteration_errors]}
        elif experiment == "naive_vs_drp":
            expected = {"naive_rel_error": relative_error(naive, w_star), "drp_rel_error": drp}
        elif experiment == "measurement":
            expected = {"measurement_error": measurement_error(z, sk.matrix_r, sk.m, w_star)}
        elif experiment == "span_error":
            span = span_restricted_error(spectrum(data), naive, w_star) / np.linalg.norm(w_star)
            expected = {"span_rel_error": span, "full_rel_error": relative_error(naive, w_star)}
        else:
            top_k = spectrum(data).left_vectors[:, :record["k"]]
            leakage = np.linalg.norm(w_star - top_k @ (top_k.T @ w_star)) / np.linalg.norm(w_star)
            expected = {"rel_error": drp, "subspace_leakage": leakage}
        assert {key: record[key] for key in expected} == expected


def numpy_openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None where it has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                return get, set_
    return None


@pytest.fixture
def blas():
    """(get, set) of numpy's OpenBLAS thread count, set to 2 now and restored afterwards.

    Two threads rather than whatever an earlier test or the environment left,
    so that a policy which does not run is seen.
    """
    lib = numpy_openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, set_ = lib
    before = get()
    set_(2)
    yield lib
    set_(before)


def _two_blas_threads_then_install(cfg, plan):
    """A spawned worker's initializer: start at two BLAS threads, then install as the pool does."""
    numpy_openblas()[1](2)
    experiments._install_run(cfg, plan)


def _worker_blas_threads(_):
    return numpy_openblas()[0]()


POLICY_CONFIG = {"experiment": "iterate", "d": 30, "n": 12, "rank": 2, "sketch_dim": 8,
                 "iters": 2, "trials": 2, "seed": 1}


def fake_libraries(monkeypatch, libc, openblas=None):
    """Make ``ctypes.CDLL`` return ``libc`` for libc.so.6 (raise it if an exception) and,
    when ``openblas`` is given, ``openblas(library)`` for numpy's OpenBLAS ``library``, whose
    routines are then bound afresh (the test then needs ``unbind_openblas``)."""
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name == "libc.so.6":
            if isinstance(libc, Exception):
                raise libc
            return libc
        if openblas is not None and "openblas" in os.path.basename(name):
            return openblas(real(name, *args, **kwargs))
        return real(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    if openblas is not None:
        solve._openblas.cache_clear()


@pytest.fixture
def unbind_openblas():
    """Clear the cached OpenBLAS bindings after the test, so no faked library outlives it."""
    yield
    solve._openblas.cache_clear()


class WithoutSetter:
    """numpy's OpenBLAS without its thread-count setter; every other routine is the library's."""

    def __init__(self, lib):
        self.lib = lib

    def __getattr__(self, name):
        if "set_num_threads" in name:
            raise AttributeError(name)
        return getattr(self.lib, name)


class TestProcessPolicy:
    """One runtime policy per process: pinned malloc thresholds and one BLAS thread."""

    def test_applied_before_the_first_trial(self, monkeypatch, blas):
        events = []

        def mallopt(param, value):
            events.append(("mallopt", param, value))
            return 1

        fake_libraries(monkeypatch, SimpleNamespace(mallopt=mallopt))
        run_one = experiments._run_one

        def recording_run_one(cfg, plan, t):
            events.append(("trial", t, blas[0]()))
            return run_one(cfg, plan, t)

        monkeypatch.setattr(experiments, "_run_one", recording_run_one)
        report = run_experiment(config_from_mapping(POLICY_CONFIG))
        # M_MMAP_THRESHOLD at 32 MiB, M_TRIM_THRESHOLD at twice that, then one arena (M_ARENA_MAX)
        assert events == [("mallopt", -3, 32 << 20), ("mallopt", -1, 64 << 20),
                          ("mallopt", -8, 1), ("trial", 0, 1), ("trial", 1, 1)]
        assert report.runtime == {"blas_threads": 1, "malloc_thresholds": "pinned"}

    def test_spawned_pool_workers_apply_it(self, blas):
        cfg = config_from_mapping(POLICY_CONFIG)
        with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn"),
                                 initializer=_two_blas_threads_then_install,
                                 initargs=(cfg, experiments._plan(cfg))) as pool:
            assert pool.submit(_worker_blas_threads, 0).result(timeout=120) == 1

    def test_runtime_block_is_in_json_reports_only(self):
        report = run_experiment(config_from_mapping(POLICY_CONFIG))
        assert report.runtime["blas_threads"] == (None if numpy_openblas() is None else 1)
        if platform.libc_ver()[0] == "glibc":
            assert report.runtime["malloc_thresholds"] == "pinned"
        assert json.loads(report.to_json())["runtime"] == report.runtime
        assert report.to_csv() == replace(report, runtime={}).to_csv()

    @pytest.mark.parametrize("libc, openblas, expected", [
        (OSError("libc.so.6: cannot open shared object file"), None,
         {"blas_threads": 1, "malloc_thresholds": "dynamic"}),
        (SimpleNamespace(), None, {"blas_threads": 1, "malloc_thresholds": "dynamic"}),
        (SimpleNamespace(mallopt=lambda param, value: 0), None,
         {"blas_threads": 1, "malloc_thresholds": "dynamic"}),
        (SimpleNamespace(mallopt=lambda param, value: 1), WithoutSetter,
         {"blas_threads": None, "malloc_thresholds": "pinned"}),
    ], ids=["no-libc", "no-mallopt", "mallopt-refuses", "no-openblas-setter"])
    def test_a_missing_half_is_reported_not_raised(self, monkeypatch, blas, unbind_openblas,
                                                   libc, openblas, expected):
        get, set_ = blas
        cfg = config_from_mapping(POLICY_CONFIG)
        records = run_experiment(cfg).records
        set_(2)
        fake_libraries(monkeypatch, libc, openblas)
        report = run_experiment(cfg)
        assert report.runtime == expected
        assert report.records == records
        # a missing setter leaves the library's own count
        assert get() == (2 if expected["blas_threads"] is None else 1)

    def test_a_run_with_no_routine_bound_succeeds(self, monkeypatch, capsys, unbind_openblas):
        # numpy's own solves then run: records may move at rounding, as numpy has no
        # Cholesky solve, but the run ends as one does
        fake_libraries(monkeypatch, SimpleNamespace(mallopt=lambda param, value: 1),
                       lambda lib: SimpleNamespace())
        assert main(["iterate", "--d", "30", "--n", "12", "--rank", "2", "--sketch-dim", "8",
                     "--iters", "2", "--trials", "2", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["runtime"]["blas_threads"] is None

    def test_the_bundled_openblas_binds_both_routines(self):
        # a numpy whose OpenBLAS renames a LAPACK routine would otherwise lose the lock-free
        # Cholesky and LU solves silently
        if numpy_openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        assert all(routine is not None for routine in solve._openblas().values())


class TestCliProcess:
    def test_bounds_subcommand(self, capsys):
        code = main(["bounds", "--rank", "5", "--eps", "0.5", "--delta", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["records"][0]["m"] == 443

    def test_recover_with_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "experiment = recover\nd = 30\nn = 20\nrank = 2\n"
            "identity_sketch = true\ntrials = 2\nseed = 1\n"
        )
        code = main(["recover", "--config", str(cfg_file)])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["aggregates"]["success_fraction"] == 1.0

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "experiment = recover\nd = 30\nn = 20\nrank = 2\n"
            "identity_sketch = true\ntrials = 1\nseed = 1\n"
        )
        code = main(["recover", "--config", str(cfg_file), "--trials", "3"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["records"]) == 3

    def test_config_file_without_experiment(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("d = 30\nn = 20\nrank = 2\nidentity_sketch = true\n")
        assert main(["recover", "--config", str(cfg_file)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["experiment"] == "recover"

    def test_config_file_completed_by_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("experiment = recover\nd = 30\nn = 20\nrank = 2\n")
        assert main(["recover", "--config", str(cfg_file), "--sketch-dim", "12"]) == 0
        assert json.loads(capsys.readouterr().out)["records"][0]["m"] == 12

    def test_output_file_and_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "concentration", "--rank", "3", "--sketch-dim", "40",
            "--eps", "0.5", "--trials", "2", "--seed", "7",
            "--output", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("schema_version,")
        assert len(lines) == 3

    def test_lambda_flag_overrides_lam_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("experiment = bounds\nlam = 1\n")
        assert main(["bounds", "--config", str(cfg_file), "--lambda", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["lam"] == 2.0

    def test_each_subcommand_takes_its_pinned_options(self):
        subparsers = next(action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        taken = {name: {option for action in parser._actions for option in action.option_strings}
                 for name, parser in subparsers.choices.items()}
        expected = {name: COMMON_OPTIONS | own for name, own in SUBCOMMAND_OPTIONS.items()}
        for alias in ("naive_vs_drp", "span_error", "full_rank"):
            expected[alias] = expected[alias.replace("_", "-")]
        assert taken == expected

    @pytest.mark.parametrize("f", [f for f in fields(ExperimentConfig) if f.metadata["commands"]],
                             ids=lambda f: f.name)
    def test_flag_and_file_key_give_equal_configs(self, tmp_path, monkeypatch, f):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sv.txt").write_text("1.0\n0.5\n")
        (tmp_path / "x.csv").write_text("")
        commands, key, text = f.metadata["commands"], FILE_KEYS[f.name], FIELD_TEXT[f.name]
        sub = "bounds" if "bounds" in commands else commands[0].replace("_", "-")
        data = "csv" if f.name == "csv" else f.metadata["sources"][0]  # a source that reads f
        base = [sub] if data == "low_rank" else [sub, "--data", data]
        flag = f.metadata["flag"] or "--" + key.replace("_", "-")
        (tmp_path / "run.cfg").write_text(f"{key} = {text}\n")
        parser = _build_parser()
        from_flag = _merge_config(parser.parse_args([*base, flag] + ([] if f.type is bool else [text])))
        from_file = _merge_config(parser.parse_args([*base, "--config", "run.cfg"]))
        assert from_flag == from_file
        assert getattr(from_flag, f.name) != f.default

    @pytest.mark.parametrize("f", [f for f in fields(ExperimentConfig) if f.type is bool],
                             ids=lambda f: f.name)
    def test_no_flag_clears_a_file_true(self, tmp_path, f):
        sub = f.metadata["commands"][0] if len(f.metadata["commands"]) == 1 else "recover"
        (tmp_path / "run.cfg").write_text(f"{f.name} = true\n")
        parser = _build_parser()
        args = [sub.replace("_", "-"), "--config", str(tmp_path / "run.cfg")]
        assert getattr(_merge_config(parser.parse_args(args)), f.name) is True
        no_flag = "--no-" + f.name.replace("_", "-")
        assert getattr(_merge_config(parser.parse_args([*args, no_flag])), f.name) is False

    def test_no_early_stop_is_echoed(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("early_stop = true\n")
        assert main(["iterate", *SMALL, "--iters", "2", "--config", str(tmp_path / "run.cfg"),
                     "--no-early-stop"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["early_stop"] is False

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_ridge_closed_is_no_method(self, tmp_path, capsys, source):
        # the square-loss closed form is a reference for tests, not a route of the CLI
        (tmp_path / "run.cfg").write_text("method = ridge_closed\n")
        extra = {"flag": ["--method", "ridge-closed"], "file": ["--config", str(tmp_path / "run.cfg")]}
        assert main([*SMALL_RECOVER, *extra[source]]) == 2
        assert "is not one of naive, drp" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["recover", "--d", "60", "--n", "20", "--rank", "3", "--lambda", "1e-300"],
        ["full-rank", "--data", "decaying", "--d", "60", "--n", "20", "--top-singular", "4",
         "--lambda", "1e-320"],
    ], ids=["norm-overflows", "map-back-overflows"])
    def test_overflowing_drp_weights_read_inf(self, capsys, argv):
        # a tiny lambda overflows the square-loss DRP weights: the record says inf, and no
        # RuntimeWarning escapes to become a traceback under -W error
        assert main([*argv, "--sketch-dim", "20"]) == 0
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert record["rel_error"] == math.inf and record["within_bound"] is False

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["iterate", "--d", "60", "--n", "20", "--rank", "3", "--lambda", "1e-300"],
        ["iterate", "--d", "60", "--n", "20", "--rank", "3", "--lambda", "1e-300", "--early-stop"],
        ["iterate", "--data", "decaying", "--d", "60", "--n", "20", "--top-singular", "4",
         "--lambda", "1e-320"],
    ], ids=["low-rank", "early-stop", "decaying"])
    def test_iterate_stops_at_overflowed_weights(self, capsys, argv):
        # pass 1's weights overflow at a tiny lambda; no second pass starts from them
        assert main([*argv, "--sketch-dim", "20"]) == 0
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert record["trace"] == [1.0, math.inf] and record["rel_error"] == math.inf

    def test_invalid_config_exits_two(self, capsys):
        code = main(["recover", "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_allocation_exits_two(self, monkeypatch, capsys, workers):
        # the generator raises numpy's MemoryError for a 728 TiB array without allocating it; a
        # pool worker's pickles back to the parent
        def too_large(*args):
            raise _ArrayMemoryError((10**7, 10**7), np.dtype(float))

        monkeypatch.setattr(experiments, "make_low_rank", too_large)
        monkeypatch.setenv("DUALSKETCH_WORKERS", workers)
        assert main(SMALL_RECOVER) == 2
        err = capsys.readouterr().err
        assert err.startswith("memory error: Unable to allocate ") and err.count("\n") == 1
        assert "(10000000, 10000000)" in err

    @pytest.mark.parametrize("argv, env, code", [
        pytest.param(SMALL_RECOVER + ["--seed", "-5"], {}, 2, id="negative-seed"),
        pytest.param(["recover", "--d", "abc"], {}, 2, id="d-not-integer"),
        pytest.param(["recover", "--d", "010"], {}, 2, id="d-leading-zero"),
        pytest.param(["recover", "--format", "xml"], {}, 2, id="format-not-a-choice"),
        pytest.param(SMALL_RECOVER + ["--config", "{tmp}/latin1.cfg"], {}, 2, id="config-not-utf8"),
        pytest.param(SMALL_RECOVER + ["--config", "{tmp}/no-such.cfg"], {}, 2, id="config-missing"),
        pytest.param(SMALL_RECOVER + ["--config", "{tmp}/bounds.cfg"], {}, 2,
                     id="config-names-another-experiment"),
        pytest.param(["recover", "--d", "20", "--n", "10", "--rank", "2", "--identity-sketch",
                      "--sketch-dim", "6"], {}, 2, id="sketch-dim-and-identity-sketch"),
        pytest.param(SMALL_RECOVER, {"DUALSKETCH_WORKERS": "abc"}, 2, id="workers-not-integer"),
        pytest.param(SMALL_RECOVER, {"DUALSKETCH_WORKERS": "0"}, 2, id="workers-zero"),
        # bounds runs its one trial through the same loop, so it reads the worker count too
        pytest.param(["bounds"], {"DUALSKETCH_WORKERS": "abc"}, 2, id="bounds-workers-not-integer"),
        pytest.param(["recover", "--data", "csv", "--csv", "{tmp}/nan.csv", "--sketch-dim", "4"],
                     {}, 3, id="csv-nan"),
        pytest.param(["recover", "--data", "csv", "--csv", "{tmp}/inf.csv", "--sketch-dim", "4"],
                     {}, 3, id="csv-inf"),
        pytest.param(SMALL_RECOVER + ["--output", "{tmp}/no-such-dir/report.json"], {}, 2,
                     id="unwritable-output"),
        pytest.param(["full-rank", "--d", "20", "--n", "10", "--top-singular", "4"], {}, 2,
                     id="full-rank-low-rank-data"),
        *[pytest.param(["recover", *SMALL, flag, value], {}, 2, id=f"{flag[2:]}-{value}")
          for flag, value in [("--lambda", "nan"), ("--lambda", "inf"), ("--tol", "nan"),
                              ("--reference-tol", "nan"), ("--reference-tol", "inf"),
                              ("--loss", "smoothed_hinge:nan"), ("--loss", "smoothed_hinge:inf")]],
        pytest.param(["full-rank", *DECAYING, "--decay", "nan"], {}, 2, id="decay-nan"),
        pytest.param(["full-rank", *DECAYING, "--top-singular", "inf"], {}, 2,
                     id="top-singular-inf"),
        pytest.param(["bounds", "--c", "nan"], {}, 2, id="c-nan"),
        *[pytest.param([sub, *(DECAYING if sub == "full-rank" else SMALL), "--eps", "1"], {}, 2,
                       id=f"{sub}-eps-1")
          for sub in ("recover", "iterate", "measurement", "span-error", "full-rank")],
        pytest.param(["recover", "--d", "20", "--n", "10", "--rank", "2", "--eps", "0.75"], {}, 2,
                     id="bound-m-eps-0.75"),
        pytest.param(["bounds", "--eps", "0.75"], {}, 2, id="bounds-eps-0.75"),
        # epsilon**2 underflows to 0, so the bound overflows
        *[pytest.param([sub, "--rank", rank, "--eps", "1e-300"], {}, 2, id=f"{sub}-eps-underflow",
                       marks=pytest.mark.filterwarnings("error"))
          for sub, rank in (("bounds", "5"), ("recover", "1"))],
        pytest.param(["concentration", "--rank", "2", "--eps", "0.75"], {}, 2,
                     id="concentration-eps-0.75"),
        # the search starts at the analytic m of min(eps, 1/2), whatever --sketch-dim says: too
        # large for numpy to draw, or (epsilon**2 underflowing to 0) a bound that overflows
        *[pytest.param(["concentration", "--rank", "2", "--eps", eps, "--sketch-dim", "5",
                        "--trials", "1", "--find-min-m"], {}, 2, id=f"find-min-m-eps-{eps}")
          for eps in ("1e-9", "1e-300")],
        *[pytest.param([sub, *ZERO_CSV], {}, 3, id=f"{sub}-zero-reference")
          for sub in ("recover", "iterate", "naive-vs-drp", "measurement", "span-error")],
        pytest.param(["recover", *SMALL, "--lambda", "1e300"], {}, 3, id="reference-norm-underflow"),
        pytest.param(["bounds", "--spectrum", "{tmp}/nan-spectrum.txt"], {}, 3, id="spectrum-nan"),
        # numpy's "input contained no data" warning must not escape as a traceback
        pytest.param(["bounds", "--spectrum", "{tmp}/empty-spectrum.txt", "--d", "10"], {}, 3,
                     id="spectrum-empty", marks=pytest.mark.filterwarnings("error")),
        pytest.param(["bounds", "--spectrum", "{tmp}/zero-spectrum.txt", "--d", "10"], {}, 3,
                     id="spectrum-all-zero"),
        # the squares overflow: a config error, with no RuntimeWarning before it
        pytest.param(["full-rank", "--data", "decaying", "--d", "5", "--n", "3", "--top-singular",
                      "1e200"], {}, 2, id="full-rank-bound-overflows",
                     marks=pytest.mark.filterwarnings("error")),
        pytest.param(["bounds", "--spectrum", "{tmp}/huge-spectrum.txt"], {}, 2,
                     id="spectrum-bound-overflows", marks=pytest.mark.filterwarnings("error")),
        *[pytest.param(["measurement", *SMALL, "--config", f"{{tmp}}/{key}.cfg"], {}, 2,
                       id=f"config-{key}-of-another-subcommand") for key in ("method", "iters")],
        pytest.param(["recover", *SMALL, "--csv", "{tmp}/good.csv"], {}, 2,
                     id="csv-without-data-csv"),
        pytest.param(["recover", "--data", "csv", "--csv", "{tmp}/quoted-comma.csv"], {}, 3,
                     id="csv-comma-in-quoted-cell"),
        pytest.param(["iterate", *SMALL, "--eps", "0.99", "--iters", "200"], {}, 2,
                     id="iterate-bound-overflows"),
        pytest.param(["full-rank", *DECAYING, "--top-singular", "1e300", "--sketch-dim", "6"], {}, 3,
                     id="generated-features-overflow"),
    ])
    def test_bad_input_exit_code(self, tmp_path, monkeypatch, capsys, argv, env, code):
        save_csv(Dataset(np.zeros((6, 4)), np.array([1.0, -1.0, 1.0, -1.0])), tmp_path / "zero.csv")
        save_csv(make_low_rank(12, 6, 2, "random", seed=0), tmp_path / "good.csv")
        (tmp_path / "nan-spectrum.txt").write_text("1.0\nnan\n")
        (tmp_path / "huge-spectrum.txt").write_text("1e200\n")
        (tmp_path / "empty-spectrum.txt").write_text("")
        (tmp_path / "zero-spectrum.txt").write_text("0\n0\n")
        (tmp_path / "quoted-comma.csv").write_text(' "1,5" , 0.25\n-1,0.5\n')
        (tmp_path / "latin1.cfg").write_bytes("loss = logistic  # caf\u00e9\n".encode("latin-1"))
        (tmp_path / "bounds.cfg").write_text("experiment = bounds\n")
        (tmp_path / "method.cfg").write_text("method = naive\n")
        (tmp_path / "iters.cfg").write_text("iters = 3\n")
        rows = (tmp_path / "good.csv").read_text().splitlines()
        for name in ("nan", "inf"):
            bad = rows[:2] + [rows[2].rsplit(",", 1)[0] + "," + name] + rows[3:]
            (tmp_path / f"{name}.csv").write_text("\n".join(bad) + "\n")
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        assert capsys.readouterr().err

    @given(fuzz_argv())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_any_argv_ends_in_a_documented_exit_code(self, argv):
        assert main(argv) in range(5)

    @pytest.mark.parametrize("argv, key", [
        pytest.param(["recover", *SMALL, "--decay", "3"], "decay", id="low_rank-decay"),
        pytest.param(["recover", *SMALL, "--top-singular", "7"], "top_singular",
                     id="low_rank-top_singular"),
        pytest.param(["naive-vs-drp", *DECAYING, "--rank", "7", "--sketch-dim", "6"], "rank",
                     id="decaying-rank"),
        pytest.param(["recover", "--method", "naive", *DECAYING, "--rank", "1", "--sketch-dim", "6"],
                     "rank", id="decaying-rank-naive"),
        *[pytest.param(["recover", "--data", "csv", "--csv", "{tmp}/good.csv", "--sketch-dim", "4",
                        flag, value], flag[2:].replace("-", "_"), id=f"csv-{flag[2:]}")
          for flag, value in [("--d", "77"), ("--n", "99"), ("--label-rule", "sign_of_plant"),
                              ("--decay", "5"), ("--top-singular", "2")]],
        pytest.param(["full-rank", "--data", "csv", "--csv", "{tmp}/good.csv", "--decay", "2"],
                     "decay", id="csv-decay-full-rank"),
    ])
    def test_key_its_data_never_reads_exits_two(self, tmp_path, capsys, argv, key):
        save_csv(make_low_rank(12, 6, 2, "random", seed=0), tmp_path / "good.csv")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        assert f"config error: key '{key}': only data = " in capsys.readouterr().err

    def test_naive_bound_on_decaying_data_counts_the_planted_rank(self, capsys):
        # sigma_i = 4/i, i = 1..10, are all above the rank threshold: d - rank = 20 - 10
        assert main(["recover", "--method", "naive", *DECAYING, "--sketch-dim", "6",
                     "--eps", "0.2"]) == 0
        bound = json.loads(capsys.readouterr().out)["records"][0]["bound"]["value"]
        shortfall = 1 - 0.2 * math.sqrt(2 * 1.2) / 0.8
        assert bound == pytest.approx(0.5 * math.sqrt((20 - 10) / 6) * shortfall, rel=1e-12)

    def test_missing_dataset_exits_three(self, capsys):
        code = main(["recover", "--data", "csv", "--csv", "/no/such/file.csv",
                     "--sketch-dim", "4"])
        assert code == 3

    def test_csv_reference_stall_is_a_trial_error(self, tmp_path, monkeypatch, capsys):
        # features scaled by 1e5 leave the logistic reference stalled above its 1e-12 tolerance
        data = make_low_rank(60, 30, 4, "random", 11)
        save_csv(Dataset(data.features * 1e5, data.labels), tmp_path / "stall.csv")
        shapes = []

        def counting_solve(features, *args, **kwargs):
            shapes.append(np.shape(features))
            return solve_primal(features, *args, **kwargs)

        monkeypatch.setattr(experiments, "solve_primal", counting_solve)
        code = main(["recover", "--data", "csv", "--csv", str(tmp_path / "stall.csv"),
                     "--sketch-dim", "20", "--loss", "logistic", "--trials", "2"])
        assert code == 4
        records = json.loads(capsys.readouterr().out)["records"]
        error = records[0]["error"]
        assert error.startswith("stalled at the floating-point floor (grad norm ")
        assert error.endswith(", tolerance 1.000e-12)")
        assert records == [{"trial": t, "seed": t, "error": error} for t in range(2)]
        assert shapes == [(60, 30)]

    def test_solver_failure_exits_four(self, capsys):
        # a one-iteration budget cannot certify a logistic solve
        code = main([
            "recover", "--d", "20", "--n", "10", "--rank", "2",
            "--sketch-dim", "6", "--loss", "logistic", "--max-iters", "1",
            "--trials", "2", "--seed", "0",
        ])
        assert code == 4
        blob = json.loads(capsys.readouterr().out)
        assert all("error" in r for r in blob["records"])

    @pytest.mark.parametrize("argv", [
        ["recover", *SMALL], ["recover", *SMALL, "--method", "naive"], ["iterate", *SMALL],
        ["naive-vs-drp", *SMALL], ["measurement", *SMALL], ["span-error", *SMALL],
        ["full-rank", *DECAYING, "--sketch-dim", "6"],
    ], ids=["recover-drp", "recover-naive", "iterate", "naive-vs-drp", "measurement", "span-error",
            "full-rank"])
    def test_sketched_solve_failure_names_its_pass(self, capsys, argv):
        # every sketched route solves through recover_iterative, whose errors name the pass
        assert main([*argv, "--loss", "logistic", "--max-iters", "1", "--trials", "2"]) == 4
        records = json.loads(capsys.readouterr().out)["records"]
        assert [r["error"][:len("pass 1: ")] for r in records] == ["pass 1: "] * 2

    def test_underscore_alias_subcommand(self, capsys):
        code = main(["naive_vs_drp", "--d", "60", "--n", "20", "--rank", "2",
                     "--sketch-dim", "15", "--trials", "1", "--seed", "0"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert "ratio_of_means" in blob["aggregates"]


# Every subcommand that solves, on both span branches, with scipy unimportable.
NUMPY_ONLY = """
import os, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from dualsketch.cli import main
low = ["--d", "40", "--n", "15", "--rank", "3", "--trials", "2", "--output", os.devnull]
decaying = ["--data", "decaying", "--d", "40", "--n", "15", "--top-singular", "4",
            "--trials", "2", "--output", os.devnull]
runs = [
    ["recover", *low, "--sketch-dim", "30", "--loss", "logistic"],
    ["recover", *low, "--sketch-dim", "10", "--method", "naive"],
    ["iterate", *low, "--sketch-dim", "30", "--iters", "3", "--loss", "logistic"],
    ["naive-vs-drp", *low, "--sketch-dim", "30", "--loss", "smoothed_hinge:0.5"],
    ["full-rank", *decaying, "--loss", "logistic"],
    ["concentration", "--rank", "3", "--sketch-dim", "20", "--trials", "2",
     "--output", os.devnull],
]
sys.exit(max(main(argv) for argv in runs))
"""


def _subprocess_env() -> dict:
    """This environment, serial, with the checkout's src first on the import path."""
    env = {key: value for key, value in os.environ.items() if key != "DUALSKETCH_WORKERS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_runs_without_scipy():
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_run_leaves_numpy_ma_unimported():
    # np.median imports numpy.ma for its NaN check; the aggregates' median does not
    code = ("import os, sys; from dualsketch.cli import main; "
            "code = main(['recover', *sys.argv[1:], '--output', os.devnull]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *SMALL, "--trials", "3"],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_import_binds_no_openblas_routine():
    # binding globs numpy.libs and opens the library through ctypes: a run pays for it when
    # it applies its runtime policy, not at import
    code = ("import dualsketch.cli; from dualsketch import solve; "
            "print(solve._openblas.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_closed_stdout_is_an_output_error():
    # as under `dualsketch ... | head -c 10`, but deterministic: the reader is gone before
    # the first write, so every write to the pipe fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from dualsketch.cli import main; sys.exit(main())",
             "iterate", *SMALL, "--trials", "2"],
            env=_subprocess_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("output error: cannot write to stdout: "), proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
