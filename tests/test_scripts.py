"""Smoke test of the experiment script under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_wireless_prints_one_line_per_seed_and_the_medians():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_wireless.py"), "--rounds", "2",
         "--seeds", "0"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line]
    assert len(lines) == 2
    assert lines[0].startswith("seed 0: equal-split acc ")
    assert lines[1].startswith("median final accuracy: equal-split ")
