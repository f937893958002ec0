"""Every demo runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"03_train_uniform", "04_train_replay", "05_train_adversary"}
DEMOS = [
    pytest.param(path, id=path.stem, marks=[pytest.mark.smoke] if path.stem in SLOW else [])
    for path in sorted((ROOT / "demos").glob("*.py"))
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # Demos write their outputs into the working directory.
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
