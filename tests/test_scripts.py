"""The runnable scripts under scripts/ finish cleanly at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("concentration_margin.py", ["--rank", "2", "--trials", "5"]),
    ("iteration_decay.py", ["--d", "40", "--n", "20", "--rank", "3", "--sketch-dim", "15",
                            "--iters", "3"]),
    ("naive_vs_dual_sweep.py", ["--d", "40", "--n", "20", "--rank", "3", "--trials", "2",
                                "--dims", "10", "20"]),
    ("records_digest.py", []),
])
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
