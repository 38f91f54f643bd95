import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubal.bench
import tubal.cli
from tubal import admm_solve, estimate_ric, run_rip_campaign, tnn, tsvd
from tubal.cli import main
from tubal.rng import derive_key

from conftest import rand_tensor, strict_json


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def saved_bytes(arr, save=np.save, **kwargs):
    buf = io.BytesIO()
    save(buf, arr, **kwargs)
    return buf.getvalue()


def test_tsvd_subcommand(tmp_path):
    x = rand_tensor(80, (4, 3, 2))
    tensor_path = tmp_path / "x.npy"
    np.save(tensor_path, x)
    prefix = str(tmp_path / "fac")
    assert main(["tsvd", str(tensor_path), "--out", prefix]) == 0
    summary = json.loads((tmp_path / "fac.json").read_text())
    assert summary["dims"] == [4, 3, 2]
    assert summary["tnn"] == tnn(x)
    assert summary["relative_reconstruction_error"] <= 1e-10
    factors = tsvd(x)
    assert summary["factors"] == {name: f"{prefix}_{name}.npy" for name in ("u", "s", "v")}
    for name in ("u", "s", "v"):
        assert np.array_equal(np.load(summary["factors"][name]), getattr(factors, name))


def test_tsvd_missing_file(tmp_path):
    assert main(["tsvd", str(tmp_path / "absent.npy"), "--out", str(tmp_path / "fac")]) == 2
    assert list(tmp_path.iterdir()) == []


GOOD_NPY = saved_bytes(rand_tensor(81, (2, 2, 2)))


@pytest.mark.parametrize(
    "content",
    [
        b"",
        b"NOPE" + b"\x00" * 24,
        GOOD_NPY[:20],
        GOOD_NPY[:-8],
        # the container tubal wrote before it used .npy: magic, dims, doubles
        b"TNS3" + np.array([2, 2, 2], dtype="<u8").tobytes() + np.zeros(8, dtype="<f8").tobytes(),
        saved_bytes(np.array([[[1.0]]], dtype=object), allow_pickle=True),
        saved_bytes(rand_tensor(81, (2, 2, 2)), save=np.savez),
        saved_bytes(np.ones((2, 2, 2), dtype=complex)),
        saved_bytes(np.ones((2, 2))),
        saved_bytes(np.array([[[1.0, np.nan]]])),
    ],
    ids=["empty", "garbage", "truncated-header", "truncated-payload", "old-container",
         "object-array", "npz", "complex", "2-d", "nan"],
)
def test_tsvd_rejects_bad_input_exit_2(tmp_path, capsys, content):
    # a missing file is test_tsvd_missing_file
    path = tmp_path / "x.npy"
    path.write_bytes(content)
    assert main(["tsvd", str(path), "--out", str(tmp_path / "fac")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["x.npy"]
    assert str(path) in capsys.readouterr().err


def test_solve_subcommand(tmp_path, monkeypatch):
    results = []

    def recording(*args):
        results.append(admm_solve(*args))
        return results[-1]

    monkeypatch.setattr(tubal.cli, "admm_solve", recording)
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
    assert doc["gap"] == results[0].gap and 0.0 <= doc["gap"] <= 1e-6
    assert doc["snr_db"] > 10.0
    # the estimate is .npy at exactly the given path, whatever its suffix
    assert not (tmp_path / "xhat.bin.npy").exists()
    assert np.array_equal(np.load(tmp_path / "xhat.bin"), results[0].x_hat)


def test_solve_writes_an_infinite_snr_as_null(tmp_path, monkeypatch):
    # an exact recovery's SNR is +inf, which strict JSON cannot hold
    monkeypatch.setattr(tubal.cli, "snr_db", lambda x, x_hat: float("inf"))
    spec = write_spec(tmp_path, "solve.json", {"n": 6, "n3": 2, "r": 1, "lambda": 0.5, "seed": 5})
    out = tmp_path / "result.json"
    assert main(["solve", "--spec", spec, "--out", str(out)]) == 0
    doc = strict_json(out.read_text())
    assert doc["snr_db"] is None
    assert doc["converged"] is True and 0.0 <= doc["gap"] <= 1e-6


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


def test_rip_verdict_is_pinned(tmp_path):
    # the console-script spec: at t = 2 the threshold is sqrt(1/5), rank 1
    # lies below it and rank 2 above, so both verdicts are printed
    spec = write_spec(
        tmp_path, "spec.json", {"m": 30, "n": 4, "n3": 2, "seed": 2, "rank_list": [1, 2], "trials": 10}
    )
    csv_path, json_path = tmp_path / "rip.csv", tmp_path / "rip.json"
    assert main(["rip", "--spec", spec, "--out", str(csv_path)]) == 0
    assert csv_path.read_text() == (
        "r,trials,delta_hat,threshold_t=2,satisfied\n"
        "1,10,0.354363354827,0.4472135955,true\n"
        "2,10,0.669084049626,0.4472135955,false\n"
    )
    assert main(["rip", "--spec", spec, "--format", "json", "--out", str(json_path)]) == 0
    doc = json.loads(json_path.read_text())
    assert [list(row)[:6] for row in doc] == [["r", "trials", "delta_hat", "threshold", "t", "satisfied"]] * 2
    assert [(row["threshold"], row["t"], row["satisfied"]) for row in doc] == [
        (0.4472135954999579, 2.0, True),
        (0.4472135954999579, 2.0, False),
    ]


def test_rip_validates_its_grid_once(tmp_path, monkeypatch):
    # the grid is read before the map is drawn, and the campaign probes
    # the ranks that read returned without reading them again
    calls, real = [], tubal.bench.check_rip_grid

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tubal.cli, "check_rip_grid", counting)
    monkeypatch.setattr(tubal.bench, "check_rip_grid", counting)
    spec = write_spec(tmp_path, "rip.json", {**RIP_SPEC, "rank_list": [2, 1, 2]})
    out = tmp_path / "rip.csv"
    assert main(["rip", "--spec", spec, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["1", "2"]


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


# constants-mode output on CONSTANTS_SPEC, the CI spec, to the last digit
CONSTANTS_TEXT = (
    '{\n'
    '  "delta": 0.1,\n'
    '  "t": 2.0,\n'
    '  "r": 1,\n'
    '  "n3": 5,\n'
    '  "lambda": 0.1,\n'
    '  "epsilon": 0.05,\n'
    '  "threshold": 0.19611613513818404,\n'
    '  "eta1": 2.118805753879094,\n'
    '  "eta2": 0.22473328748774737,\n'
    '  "c1": 0.9439279633531364,\n'
    '  "c2": 0.5237611507758188,\n'
    '  "c3": 16.194617730236263,\n'
    '  "c4": 6.31094629957749,\n'
    '  "c1_matched": 0.9439279633531364,\n'
    '  "c2_matched": 5.237611507758188,\n'
    '  "c3_matched": 16.194617730236263,\n'
    '  "c4_matched": 63.109462995774905\n'
    '}\n'
)


def test_bounds_constants_mode_text_is_pinned(tmp_path, capsys):
    spec = write_spec(tmp_path, "bounds.json", CONSTANTS_SPEC)
    assert main(["bounds", "--spec", spec]) == 0
    assert capsys.readouterr().out == CONSTANTS_TEXT


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

    monkeypatch.setattr(tubal.bench, "estimate_ric", counting)
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
    assert list(doc) == ["snr_db", "epsilon_realized", "lambda", "reports"]
    assert len(doc["reports"]) == 2
    for entry in doc["reports"]:
        if entry.get("condition_met"):
            assert entry["satisfied"] == [True, True]


INSTANCE_SPEC = {"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 0.1, "seed": 7,
                 "t_grid": [5.0], "rip_trials": 5, "max_iters": 20}
# solve reads neither t_grid nor rip_trials and rejects both
SOLVE_SPEC = {k: v for k, v in INSTANCE_SPEC.items() if k not in ("t_grid", "rip_trials")}


@pytest.mark.parametrize("command", ["solve", "bounds"])
@pytest.mark.parametrize(
    "key, value", [("max_iters", None), ("rip_trials", None), ("t_grid", 3)],
    ids=["max_iters-null", "rip_trials-null", "t_grid-scalar"],
)
def test_instance_spec_malformed_key_exit_2(tmp_path, command, key, value):
    # for solve, rip_trials and t_grid are keys it does not read
    base = SOLVE_SPEC if command == "solve" else INSTANCE_SPEC
    spec = write_spec(tmp_path, "instance.json", {**base, key: value})
    out = tmp_path / "out.json"
    assert main([command, "--spec", spec, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, spec, key",
    [
        ("solve", SOLVE_SPEC, "lambda"),
        ("rip", {"m": 30, "n": 4, "n3": 2, "rank_list": [1]}, "m"),
        ("bounds", {"delta": 0.1, "t": 2.0, "r": 1, "n3": 5, "lambda": 0.1}, "t"),
    ],
    ids=["solve", "rip", "constants"],
)
def test_missing_spec_key_is_named_exit_2(tmp_path, capsys, command, spec, key):
    path = write_spec(tmp_path, "spec.json", {k: v for k, v in spec.items() if k != key})
    assert main([command, "--spec", path, "--out", str(tmp_path / "out.txt")]) == 2
    assert f"missing key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, spec",
    [
        ("solve", SOLVE_SPEC),
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


# a 10x10x5 rank-1 bounds instance, with fewer probes and iterations than the defaults
E2E_SPEC = {"n": 10, "n3": 5, "r": 1, "sigma": 0.01, "lambda": 0.1, "seed": 7,
            "rip_trials": 20, "max_iters": 50}


@pytest.fixture(scope="module")
def bounds_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bounds")
    spec = write_spec(tmp, "spec.json", E2E_SPEC)
    texts = []
    for name in ("first.json", "second.json"):
        assert main(["bounds", "--spec", spec, "--out", str(tmp / name)]) == 0
        texts.append((tmp / name).read_text())
    return texts


def entry_delta(entry):
    # every entry, met or refuted, reports the campaign's estimate as delta
    return entry["delta"]


def test_bounds_json_is_reproducible(bounds_runs):
    assert bounds_runs[0] == bounds_runs[1]


def test_bounds_delta_hat_nondecreasing_in_probe_rank(bounds_runs):
    entries = sorted(json.loads(bounds_runs[0])["reports"], key=lambda e: e["probe_rank"])
    deltas = [entry_delta(e) for e in entries]
    assert deltas == sorted(deltas)


def test_bounds_delta_hat_is_the_campaign_row(bounds_runs):
    # the instance's map, drawn as bounds draws it: sample_factor 2 and the "instance" key of seed 7
    _, op, *_ = tubal.bench.draw_instance(10, 5, 1, tubal.bench.measurement_count(2.0, 1, 10, 5), 7, "instance")
    rows = run_rip_campaign(op, [2, 3, 5, 8, 10], E2E_SPEC["rip_trials"], derive_key(7, "bounds"))
    delta_hats = {row.r: row.delta_hat for row in rows}
    for entry in json.loads(bounds_runs[0])["reports"]:
        assert entry_delta(entry) == delta_hats[entry["probe_rank"]]


CONSTANTS_SPEC = {"delta": 0.1, "t": 2.0, "r": 1, "n3": 5, "lambda": 0.1}
EXPERIMENT_SPEC = {"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 2.0,
                   "sigma_list": [0.0], "lambda_list": [0.5], "trials": 1}
RIP_SPEC = {"m": 30, "n": 4, "n3": 2, "seed": 2, "rank_list": [1], "trials": 10}


@pytest.mark.parametrize(
    "key, value",
    [
        ("t", 1.0), ("rank_list", [0]), ("rank_list", [5]), ("trials", 0),
        ("n", 0), ("n3", 0), ("n", 4.5),
    ],
    ids=["t-at-1", "rank-0", "rank-above-kappa", "trials-0", "n-0", "n3-0", "n-fraction"],
)
def test_rip_rejects_bad_grid_before_drawing_the_map(tmp_path, monkeypatch, key, value):
    def forbidden(*args, **kwargs):
        raise AssertionError("the grid should be rejected before the map is drawn")

    monkeypatch.setattr(tubal.cli, "gaussian_map", forbidden)
    path = write_spec(tmp_path, "rip.json", {**RIP_SPEC, key: value})
    out = tmp_path / "rip.csv"
    assert main(["rip", "--spec", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a solve or a t-RIP probe runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the spec should be rejected before any solve or probe")

    monkeypatch.setattr(tubal.cli, "admm_solve", forbidden)
    monkeypatch.setattr(tubal.bench, "admm_solve", forbidden)
    monkeypatch.setattr(tubal.bench, "estimate_ric", forbidden)


@pytest.fixture
def no_draw(no_work, monkeypatch):
    """Fail the test if a truth or a map is drawn, or a solve or a probe runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the spec should be rejected before any draw")

    monkeypatch.setattr(tubal.cli, "gaussian_map", forbidden)
    monkeypatch.setattr(tubal.bench, "gaussian_map", forbidden)
    monkeypatch.setattr(tubal.bench, "generate_lowrank", forbidden)


DROP = object()  # the row's key is left out of the spec


@pytest.mark.parametrize(
    "command, what, spec, key, value",
    [
        ("solve", "solve", SOLVE_SPEC, "lambda", DROP),
        ("solve", "solve", SOLVE_SPEC, "n3", 2.5),
        ("solve", "solve", SOLVE_SPEC, "r", 7),
        ("bounds", "bounds", INSTANCE_SPEC, "n", DROP),
        ("bounds", "bounds", INSTANCE_SPEC, "rip_trials", 2.5),
        ("bounds", "bounds", INSTANCE_SPEC, "t_grid", [5.0, 1.0]),
        ("bounds", "bounds", INSTANCE_SPEC, "t_grid", 3),
        ("bounds", "bounds constants", CONSTANTS_SPEC, "t", DROP),
        ("bounds", "bounds constants", CONSTANTS_SPEC, "n3", 2.5),
        ("bounds", "bounds constants", CONSTANTS_SPEC, "epsilon", -1),
        ("rip", "rip", RIP_SPEC, "m", DROP),
        ("rip", "rip", RIP_SPEC, "m", 30.5),
        ("rip", "rip", RIP_SPEC, "rank_list", [1, 5]),
        ("rip", "rip", RIP_SPEC, "rank_list", 3),
        ("experiment", "experiment", EXPERIMENT_SPEC, "n", DROP),
        ("experiment", "experiment", EXPERIMENT_SPEC, "trials", 1.5),
        ("experiment", "experiment", EXPERIMENT_SPEC, "r", 7),
        ("experiment", "experiment", EXPERIMENT_SPEC, "sigma_list", 0.5),
    ],
    ids=["solve-missing", "solve-fraction", "solve-range", "bounds-missing", "bounds-fraction", "bounds-range",
         "bounds-scalar", "constants-missing", "constants-fraction", "constants-range", "rip-missing",
         "rip-fraction", "rip-range", "rip-scalar", "experiment-missing", "experiment-fraction",
         "experiment-range", "experiment-scalar"],
)
def test_every_spec_kind_is_rejected_in_one_form(tmp_path, capsys, no_draw, command, what, spec, key, value):
    # solve and constants mode read no list; r = 7 and rank 5 exceed n, the
    # bounds that measurement_count and check_rip_grid state
    obj = {k: v for k, v in spec.items() if k != key} if value is DROP else {**spec, key: value}
    path = write_spec(tmp_path, "spec.json", obj)
    out = tmp_path / "out.txt"
    assert main([command, "--spec", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    prefix = f"invalid input: invalid {what} spec: "
    assert err.startswith(prefix), err
    reason = err[len(prefix):]
    assert f"missing key {key!r}" in reason if value is DROP else re.search(rf"\b{key}\b", reason), err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_experiment_rejects_workers_below_1_exit_2(tmp_path, no_work, workers):
    path = write_spec(tmp_path, "exp.json", EXPERIMENT_SPEC)
    out = tmp_path / "grid.csv"
    assert main(["experiment", "--spec", path, "--out", str(out), "--workers", workers]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, spec, key",
    [
        ("solve", SOLVE_SPEC, "max_iter"),
        ("bounds", INSTANCE_SPEC, "rip_trial"),
        ("bounds", CONSTANTS_SPEC, "eps"),
        ("experiment", EXPERIMENT_SPEC, "trails"),
        ("rip", RIP_SPEC, "rank"),
    ],
    ids=["solve", "bounds", "bounds-constants", "experiment", "rip"],
)
def test_spec_unknown_key_exit_2(tmp_path, capsys, no_work, command, spec, key):
    path = write_spec(tmp_path, "spec.json", {**spec, key: 5})
    out = tmp_path / "out.txt"
    assert main([command, "--spec", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, spec, key, value",
    [
        ("rip", RIP_SPEC, "m", 1e999),
        ("rip", RIP_SPEC, "rank_list", [1.5]),
        ("solve", SOLVE_SPEC, "sample_factor", 1e999),
        ("solve", SOLVE_SPEC, "n", 6.7),
        ("solve", SOLVE_SPEC, "lambda", "0.1"),
        ("bounds", INSTANCE_SPEC, "t_grid", [1e999]),
        ("bounds", INSTANCE_SPEC, "t_grid", [5.0, 1.0]),
        ("bounds", INSTANCE_SPEC, "t_grid", []),
        ("bounds", INSTANCE_SPEC, "rip_trials", 0),
        ("bounds", CONSTANTS_SPEC, "r", 1.5),
        ("bounds", CONSTANTS_SPEC, "lambda", True),
        ("experiment", EXPERIMENT_SPEC, "n", 6.7),
        ("experiment", EXPERIMENT_SPEC, "r", 0.1),
    ],
    ids=["rip-m-inf", "rip-rank-fraction", "solve-sample_factor-inf", "solve-n-fraction",
         "solve-lambda-string", "bounds-t-inf", "bounds-t-at-1", "bounds-t_grid-empty",
         "bounds-rip_trials-0", "bounds-constants-r-fraction", "bounds-constants-lambda-bool",
         "experiment-n-fraction", "experiment-r-fraction"],
)
def test_spec_malformed_number_exit_2_before_work(tmp_path, no_work, command, spec, key, value):
    path = tmp_path / "spec.json"
    # JSON reads 1e999 as inf; json.dumps would write it as Infinity
    path.write_text(json.dumps({**spec, key: value}).replace("Infinity", "1e999"))
    out = tmp_path / "out.txt"
    assert main([command, "--spec", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("value", [2, ""], ids=["fd-2", "empty"])
def test_solve_save_estimate_must_be_a_path_exit_2(tmp_path, no_work, value):
    path = write_spec(tmp_path, "spec.json", {**SOLVE_SPEC, "save_estimate": value})
    assert main(["solve", "--spec", path, "--out", str(tmp_path / "out.json")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]
    os.fstat(2)


@pytest.mark.parametrize(
    "command, spec, key, value",
    [
        ("solve", SOLVE_SPEC, "t_grid", [5.0]),
        ("solve", SOLVE_SPEC, "rip_trials", 5),
        ("bounds", INSTANCE_SPEC, "save_estimate", "estimate.bin"),
    ],
    ids=["solve-t_grid", "solve-rip_trials", "bounds-save_estimate"],
)
def test_instance_command_rejects_keys_it_does_not_read(tmp_path, capsys, no_work, monkeypatch,
                                                       command, spec, key, value):
    monkeypatch.chdir(tmp_path)
    path = write_spec(tmp_path, "spec.json", {**spec, key: value})
    assert main([command, "--spec", path, "--out", str(tmp_path / "out.json")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, spec, names",
    [
        # an instance is sized by sample_factor alone, a rip map by n and n3 alone
        ("solve", {**SOLVE_SPEC, "m": 30}, ("unknown", "'m'")),
        ("bounds", {**INSTANCE_SPEC, "m": 30}, ("unknown", "'m'")),
        ("rip", {**RIP_SPEC, "dims": [4, 4, 2]}, ("unknown", "'dims'")),
        # 0.01 * 1 * 13 * 2 rounds to no measurement at all
        ("solve", {**SOLVE_SPEC, "sample_factor": 0.01}, ("sample_factor", "0 measurements")),
        ("solve", {**SOLVE_SPEC, "sigma": -0.5}, ("sigma must be >= 0",)),
        # a rank is read as a rank before it sizes the instance
        ("solve", {**SOLVE_SPEC, "r": 0}, ("r must be >= 1, got 0",)),
        # SOLVE_SPEC and INSTANCE_SPEC have n = 6
        ("bounds", {**INSTANCE_SPEC, "r": 7}, ("r must be <= 6, got 7",)),
        ("solve", {**SOLVE_SPEC, "n": 0}, ("n must be >= 1, got 0",)),
        # RIP_SPEC has n = 4
        ("rip", {**RIP_SPEC, "rank_list": [1, 5]}, ("rank_list must be <= 4, got 5",)),
    ],
    ids=["solve-m", "bounds-m", "rip-dims", "solve-no-measurement", "solve-sigma-negative",
         "solve-r-zero", "bounds-r-above-n", "solve-n-zero", "rip-rank-above-n"],
)
def test_input_the_command_would_ignore_exit_2_before_any_draw(tmp_path, capsys, no_draw, command, spec, names):
    path = write_spec(tmp_path, "spec.json", spec)
    out = tmp_path / "out.txt"
    assert main([command, "--spec", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert all(name in err for name in names)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 60), n3=st.integers(1, 20), data=st.data())
def test_sample_factor_reaches_every_measurement_count(n, n3, data):
    # an instance spec sets m only through sample_factor: the factor
    # m / (r (2n + 1) n3) gives back every count m >= 1
    r = data.draw(st.integers(1, n))
    m = data.draw(st.integers(1, 4 * r * (2 * n + 1) * n3))
    assert tubal.bench.measurement_count(m / (r * (2 * n + 1) * n3), r, n, n3) == m


@pytest.mark.parametrize(
    "command, spec",
    [
        ("solve", SOLVE_SPEC),
        ("bounds", INSTANCE_SPEC),
        ("bounds", CONSTANTS_SPEC),
        ("experiment", EXPERIMENT_SPEC),
        ("rip", RIP_SPEC),
    ],
    ids=["solve", "bounds", "bounds-constants", "experiment", "rip"],
)
def test_no_command_takes_a_seed_option(tmp_path, capsys, no_work, command, spec):
    # a run's output is set by its spec file alone: a seed is a key of the spec
    path = write_spec(tmp_path, "spec.json", spec)
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", path, "--out", str(out), "--seed", "3"])
    assert exc.value.code == 2
    assert not out.exists()
    assert "--seed" in capsys.readouterr().err


def test_bounds_constants_mode_matches_each_met_entry(tmp_path, capsys, bounds_runs):
    # the end-to-end entries and constants mode report one record under one set of names
    met = [e for e in json.loads(bounds_runs[0])["reports"] if e["condition_met"]]
    assert met
    for entry in met:
        keys = ("delta", "t", "r", "n3", "lambda", "epsilon")
        path = write_spec(tmp_path, "constants.json", {k: entry[k] for k in keys})
        assert main(["bounds", "--spec", path]) == 0
        constants = json.loads(capsys.readouterr().out)
        assert list(constants)[:6] == list(keys)
        assert {k: entry[k] for k in constants} == constants
