"""Tests of the benchmark itself: smoke runs, declared metrics, hooks and checks.

Run with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hooks  # noqa: E402
import run  # noqa: E402
import tubal.solver  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Smoke sweep: one sigma, two lambdas, one operator.
FACTORS_PER_OPERATOR = {"sweep_case1": 2.0, "solve_mid": 1.0, "rip_campaign": 0.0}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        assert result["metrics"]["solver.factor_per_operator"]["value"] == FACTORS_PER_OPERATOR[workload]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "solve_mid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_every_hook_site_resolves():
    assert hooks.missing_sites() == {}


def test_missing_hook_site_reports_layer_absent(capsys):
    gone = hooks.Layer("solver.gone", (("tubal.solver", "no_such_function"),), frozenset({"solve_mid"}))
    tracer = hooks.Tracer(layers=hooks.LAYERS + (gone,))
    assert tracer.absent == {"solver.gone": ["tubal.solver.no_such_function"]}
    original = tubal.solver.tsvt
    wl = workloads.SolveMid(3, smoke=True)
    with tracer.installed():
        assert tubal.solver.tsvt is not original
        wl.run()
    assert tubal.solver.tsvt is original
    values = run.layer_metrics({}, [tracer.snapshot()], "solve_mid", tracer)
    assert values["solver.tsvt_calls"] > 0
    assert not any(name.startswith("solver.gone") for name in values)
    assert "solver.gone absent" in capsys.readouterr().err


def test_layer_reached_but_never_called_is_absent(capsys):
    tracer = hooks.Tracer()
    values = run.layer_metrics({}, [{"solver.tsvt_calls": 0.0}], "solve_mid", tracer)
    assert "solver.tsvt_calls" not in values
    assert values["analysis.estimate_ric_calls"] == 0.0
    assert "solver.tsvt was never called" in capsys.readouterr().err


def test_check_rejects_scaled_solution():
    wl = workloads.SolveMid(3, smoke=True)
    result = wl.run()
    ref = wl.reference()
    assert wl.check(result, ref) == 0
    assert wl.check(dataclasses.replace(result, x_hat=0.5 * result.x_hat), ref) == 1


def test_check_rejects_low_snr_and_aborts():
    wl = workloads.SweepCase1(3, smoke=True)
    result = wl.run()
    ref = wl.reference()
    assert wl.check(result, ref) == 0
    result.mean_snr_db[0, 0] -= 2 * workloads.SNR_TOL_DB
    result.aborted_trials[1, 0] = 1
    assert wl.check(result, ref) == 2


def test_check_rejects_wrong_distortion():
    wl = workloads.RipCampaign(3, smoke=True)
    rows = wl.run()
    ref = wl.reference()
    assert wl.check(rows, ref) == 0
    rows[0] = dataclasses.replace(rows[0], delta_hat=0.5 * rows[0].delta_hat)
    assert wl.check(rows, ref) == wl.probes
