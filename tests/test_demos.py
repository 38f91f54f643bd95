"""The demos run end to end against the public API, with every
RuntimeWarning (numpy's overflow and invalid-value warnings among them)
raised as an error in the demo's own process.

Demo 04 is left out: it runs a two-worker multi-trial sweep (about 20 s
on two cores) and writes its tables next to the script.  CI runs it as a
step of its own, under the same warnings filter.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(demo):
    # pytest's warnings filter covers only its own process
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "demo",
    [
        "01_tensor_algebra_tour.py",
        "02_recovery_from_measurements.py",
        "03_recovery_guarantees.py",
    ],
)
def test_demo_exits_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_demo03_delta_hat_nondecreasing_in_rank():
    proc = run_demo("03_recovery_guarantees.py")
    assert proc.returncode == 0, proc.stderr
    # the estimate over a larger rank set can only grow
    values = [float(v) for v in re.findall(r"^rank +\d+: delta_hat = ([0-9.]+)", proc.stdout, re.M)]
    assert len(values) == 4
    assert values == sorted(values)
