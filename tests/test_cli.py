import json

import numpy as np
import pytest

import tubal.cli
from tubal import estimate_ric, tsvd
from tubal import io as tio
from tubal.cli import main

from conftest import rand_tensor


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_tsvd_subcommand(tmp_path):
    x = rand_tensor(80, (4, 3, 2))
    tensor_path = tmp_path / "x.bin"
    tio.save_tensor(tensor_path, x)
    prefix = str(tmp_path / "fac")
    assert main(["tsvd", str(tensor_path), "--out", prefix]) == 0
    summary = json.loads((tmp_path / "fac.json").read_text())
    assert summary["dims"] == [4, 3, 2]
    assert summary["relative_reconstruction_error"] <= 1e-10
    u = tio.load_tensor(tmp_path / "fac_u.bin")
    assert np.allclose(u, tsvd(x).u)


def test_tsvd_missing_file(tmp_path):
    assert main(["tsvd", str(tmp_path / "absent.bin")]) == 2


def test_solve_subcommand(tmp_path):
    spec = write_spec(
        tmp_path,
        "solve.json",
        {"n": 6, "n3": 2, "r": 1, "sigma": 0.0, "lambda": 0.5, "seed": 5,
         "save_estimate": str(tmp_path / "xhat.bin")},
    )
    out = str(tmp_path / "result.json")
    assert main(["solve", "--spec", spec, "--out", out]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["m"] == 2 * 1 * 13 * 2
    assert doc["converged"] is True
    assert doc["snr_db"] > 10.0
    assert (tmp_path / "xhat.bin").exists()


def test_experiment_subcommand(tmp_path):
    spec = write_spec(
        tmp_path,
        "exp.json",
        {"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 2.0,
         "sigma_list": [0.0], "lambda_list": [0.5], "trials": 2, "base_seed": 3},
    )
    out = str(tmp_path / "grid.csv")
    assert main(["experiment", "--spec", spec, "--out", out, "--format", "csv"]) == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "snr_db,sigma=0"
    assert lines[1].startswith("lambda=0.5,")


def test_experiment_invalid_spec_exit_2(tmp_path):
    spec = write_spec(tmp_path, "bad.json", {"case_name": "x", "n": 6})
    assert main(["experiment", "--spec", spec]) == 2


@pytest.mark.parametrize("grid", ["sigma_list", "lambda_list"])
def test_experiment_empty_grid_exit_2(tmp_path, grid):
    obj = {"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 2.0,
           "sigma_list": [0.0], "lambda_list": [0.5], "trials": 2, "base_seed": 3}
    obj[grid] = []
    spec = write_spec(tmp_path, "exp.json", obj)
    out = tmp_path / "grid.csv"
    assert main(["experiment", "--spec", spec, "--out", str(out)]) == 2
    assert not out.exists()


def test_experiment_malformed_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["experiment", "--spec", str(path)]) == 2


def test_rip_subcommand(tmp_path):
    spec = write_spec(
        tmp_path,
        "rip.json",
        {"m": 30, "n": 4, "n3": 2, "seed": 2, "rank_list": [1, 2], "trials": 10, "t": 2.0},
    )
    out = str(tmp_path / "rip.csv")
    assert main(["rip", "--spec", spec, "--out", out]) == 0
    lines = (tmp_path / "rip.csv").read_text().splitlines()
    assert lines[0].startswith("r,trials,delta_hat,threshold_t=2")
    assert len(lines) == 3


@pytest.mark.parametrize("rank_list", [[], [1, 2, 5]], ids=["empty", "rank-above-kappa"])
def test_rip_rejects_bad_rank_list_exit_2(tmp_path, rank_list):
    spec = write_spec(
        tmp_path,
        "rip.json",
        {"m": 30, "n": 4, "n3": 2, "seed": 2, "rank_list": rank_list, "trials": 10},
    )
    out = tmp_path / "rip.csv"
    assert main(["rip", "--spec", spec, "--out", str(out)]) == 2
    assert not out.exists()


def test_bounds_constants_mode(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "bounds.json",
        {"delta": 0.1, "t": 2.0, "r": 1, "n3": 5, "lambda": 0.1},
    )
    assert main(["bounds", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["epsilon"] == pytest.approx(0.05)
    assert doc["eta2"] < 1.0
    assert doc["c2"] == pytest.approx(doc["c2_matched"] * 0.1, rel=1e-12)


def test_bounds_condition_failure_exit_3(tmp_path):
    spec = write_spec(
        tmp_path,
        "bounds.json",
        {"delta": 0.8, "t": 2.0, "r": 1, "n3": 5, "lambda": 0.1},
    )
    assert main(["bounds", "--spec", spec]) == 3


def test_bounds_estimates_once_per_probe_rank(tmp_path, monkeypatch):
    ranks = []

    def counting(op, r, trials, seed):
        ranks.append(r)
        return estimate_ric(op, r, trials, seed)

    monkeypatch.setattr(tubal.cli, "estimate_ric", counting)
    # r = 1 on 10x10 slices: the default t grid maps to probe ranks
    # 2, 2, 3, 5, 8, 10, 10, 10
    spec = write_spec(
        tmp_path,
        "bounds_e2e.json",
        {"n": 10, "n3": 5, "r": 1, "sigma": 0.01, "lambda": 0.1, "seed": 7,
         "rip_trials": 5, "max_iters": 20},
    )
    out = str(tmp_path / "report.json")
    assert main(["bounds", "--spec", spec, "--out", out]) == 0
    assert sorted(ranks) == [2, 3, 5, 8, 10]
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [e["probe_rank"] for e in doc["reports"]] == [2, 2, 3, 5, 8, 10, 10, 10]


def test_bounds_end_to_end_mode(tmp_path):
    spec = write_spec(
        tmp_path,
        "bounds_e2e.json",
        {"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 0.1, "seed": 7,
         "t_grid": [5.0, 12.0], "rip_trials": 10},
    )
    out = str(tmp_path / "report.json")
    assert main(["bounds", "--spec", spec, "--out", out]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "reports" in doc and len(doc["reports"]) == 2
    assert "tightest_satisfied" in doc
    for entry in doc["reports"]:
        if entry.get("condition_met"):
            assert entry["satisfied"] == [True, True]


INSTANCE_SPEC = {"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 0.1, "seed": 7,
                 "t_grid": [5.0], "rip_trials": 5, "max_iters": 20}


@pytest.mark.parametrize("command", ["solve", "bounds"])
@pytest.mark.parametrize(
    "key, value", [("max_iters", None), ("rip_trials", None), ("t_grid", 3)],
    ids=["max_iters-null", "rip_trials-null", "t_grid-scalar"],
)
def test_instance_spec_malformed_key_exit_2(tmp_path, command, key, value):
    spec = write_spec(tmp_path, "instance.json", {**INSTANCE_SPEC, key: value})
    out = tmp_path / "out.json"
    assert main([command, "--spec", spec, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, spec",
    [
        ("solve", INSTANCE_SPEC),
        ("bounds", INSTANCE_SPEC),
        ("experiment", {"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 2.0,
                        "sigma_list": [0.0], "lambda_list": [0.5], "trials": 1}),
        ("rip", {"m": 30, "n": 4, "n3": 2, "seed": 2, "rank_list": [1], "trials": 10}),
    ],
    ids=["solve", "bounds", "experiment", "rip"],
)
def test_spec_naming_variance_mode_exit_2(tmp_path, command, spec):
    # the unit-variance scaling is gone; ignoring the key would silently
    # change what such a spec measures
    path = write_spec(tmp_path, "spec.json", {**spec, "variance_mode": "unit"})
    out = tmp_path / "out.txt"
    assert main([command, "--spec", path, "--out", str(out)]) == 2
    assert not out.exists()
