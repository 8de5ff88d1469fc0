"""The runnable scripts under scripts/ finish cleanly at tiny sizes and read CLI runs; the
README's quick start runs as written."""

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dualsketch.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# a script reads the numbers of a CLI run; it does not solve or sketch one itself
TRIAL_LAYERS = {"solve_reference", "solve_primal", "gaussian_sketch", "recover_iterative",
                "recover_naive"}


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script, args", [
    ("iteration_decay.py", ["--d", "40", "--n", "20", "--rank", "3", "--sketch-dim", "15",
                            "--iters", "3"]),
    ("records_digest.py", []),
])
def test_script_exits_zero(script, args):
    assert run_script(script, args)


def test_iteration_decay_prints_the_trace_of_the_cli_run():
    args = ["--d", "40", "--n", "20", "--rank", "3", "--sketch-dim", "15", "--iters", "4",
            "--loss", "logistic", "--seed", "3"]
    rows = [line.split() for line in run_script("iteration_decay.py", args).splitlines()
            if line[:1] != "#"][1:]  # past the column header
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["iterate", *args]) == 0
    trace = json.loads(out.getvalue())["records"][0]["trace"]
    assert [row[1] for row in rows] == [f"{err:.3e}" for err in trace]


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_runs_no_trial_layer_by_hand(script):
    names = set()
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    assert sorted(names & TRIAL_LAYERS) == []


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    # one single-shot error, then the per-pass trace: 1 and six pass errors
    errors = [float(token) for token in out.getvalue().replace("[", " ").replace("]", " ").split()]
    assert len(errors) == 8 and all(math.isfinite(err) for err in errors)
