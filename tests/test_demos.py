"""The demos run end to end against the public API.

Demo 04 is left out: it runs a two-worker multi-trial sweep (about 20 s
on two cores) and writes its tables next to the script.  CI runs it as a
step of its own.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_tensor_algebra_tour.py",
        "02_recovery_from_measurements.py",
        "03_recovery_guarantees.py",
    ],
)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_demo03_delta_hat_nondecreasing_in_rank():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_recovery_guarantees.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the estimate over a larger rank set can only grow
    values = [float(v) for v in re.findall(r"^rank +\d+: delta_hat = ([0-9.]+)", proc.stdout, re.M)]
    assert len(values) == 4
    assert values == sorted(values)
