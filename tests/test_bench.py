import dataclasses
import json
import math

import numpy as np
import pytest

import tubal.bench
from tubal import (
    ExperimentSpec,
    GaussianLinearMap,
    SpecValidationError,
    case1_spec,
    emit,
    emit_campaign,
    gaussian_map,
    generate_lowrank,
    run_experiment,
    run_rip_campaign,
    tubal_rank,
)


def mini_spec(**overrides):
    base = dict(
        case_name="mini",
        n=6,
        n3=2,
        r=1,
        sample_factor=2.0,
        sigma_list=(0.0, 0.05),
        lambda_list=(0.5, 0.05),
        trials=3,
        base_seed=123,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# data generation


def test_generate_lowrank_rank_and_determinism():
    x1 = generate_lowrank(4, 5, 3, 2, seed=11)
    x2 = generate_lowrank(4, 5, 3, 2, seed=11)
    assert np.array_equal(x1, x2)
    assert tubal_rank(x1, tol=1e-8) == 2
    assert not np.array_equal(x1, generate_lowrank(4, 5, 3, 2, seed=12))


def test_generate_lowrank_full_rank_square():
    x = generate_lowrank(4, 4, 2, 4, seed=3)
    assert tubal_rank(x, tol=1e-8) == 4


def test_generate_lowrank_validation():
    with pytest.raises(ValueError):
        generate_lowrank(4, 4, 2, 0, seed=0)
    with pytest.raises(ValueError):
        generate_lowrank(4, 4, 2, 5, seed=0)


# ---------------------------------------------------------------------------
# spec


def test_spec_fractional_rank_and_samples():
    spec = ExperimentSpec(
        case_name="case1",
        n=10,
        n3=5,
        r=0.1,
        sample_factor=2.0,
        sigma_list=(0.01,),
        lambda_list=(0.1,),
    )
    assert spec.rank == 1
    assert spec.sample_count == 210


def test_spec_absolute_rank():
    assert mini_spec(r=2).rank == 2
    with pytest.raises(SpecValidationError):
        mini_spec(r=2.5).rank


def test_spec_validation():
    with pytest.raises(SpecValidationError):
        mini_spec(n=0)
    with pytest.raises(SpecValidationError):
        mini_spec(r=7)
    with pytest.raises(SpecValidationError):
        mini_spec(trials=0)
    with pytest.raises(SpecValidationError):
        mini_spec(sigma_list=(-0.1,))
    with pytest.raises(SpecValidationError):
        mini_spec(lambda_list=(0.0,))
    with pytest.raises(SpecValidationError):
        mini_spec(variance_mode="nope")
    with pytest.raises(SpecValidationError):
        ExperimentSpec.from_dict({"case_name": "x"})


def test_spec_round_trip():
    spec = mini_spec()
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# experiment runs


@pytest.fixture(scope="module")
def mini_result():
    return run_experiment(mini_spec())


def test_experiment_shapes_and_sanity(mini_result):
    assert mini_result.mean_snr_db.shape == (2, 2)
    assert np.all(mini_result.ok_trials == 3)
    assert np.all(mini_result.aborted_trials == 0)
    assert np.all(np.isfinite(mini_result.mean_snr_db))
    # noiseless column with the smaller lambda recovers better
    assert mini_result.mean_snr_db[1, 0] > mini_result.mean_snr_db[0, 0]


def test_experiment_deterministic_csv(tmp_path, mini_result):
    again = run_experiment(mini_spec())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(mini_result, "csv", p1)
    emit(again, "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_experiment_workers_match_serial(tmp_path, mini_result):
    parallel = run_experiment(mini_spec(), workers=2)
    assert np.array_equal(parallel.mean_snr_db, mini_result.mean_snr_db)
    assert np.array_equal(parallel.ok_trials, mini_result.ok_trials)


def test_experiment_counts_exact_recovery_as_ok(monkeypatch):
    # an exact recovery scores SNR = +inf; it is a success, not a failure
    monkeypatch.setattr("tubal.bench.snr_db", lambda x, x_hat: math.inf)
    spec = mini_spec(trials=2, lambda_list=(0.5,))
    result = run_experiment(spec)
    assert np.all(result.ok_trials == spec.trials)
    assert np.all(result.aborted_trials == 0)
    assert np.all(result.mean_snr_db == math.inf)


def test_experiment_reports_truncated_solves(tmp_path):
    # at sigma=0.01 the lambda=1 solve converges (343 iterations) and the
    # lambda=1e-4 solve stops at max_iters=500
    spec = dataclasses.replace(case1_spec(trials=1), sigma_list=(0.01,), lambda_list=(1.0, 1e-4))
    result = run_experiment(spec)
    assert result.truncated_trials.tolist() == [[0], [1]]
    assert result.mean_iterations.tolist() == [[343.0], [500.0]]
    assert result.ok_trials.tolist() == [[1], [1]]
    path = tmp_path / "grid.json"
    emit(result, "json", path)
    cells = json.loads(path.read_text())["cells"]
    assert [row[0]["truncated_trials"] for row in cells] == [0, 1]


def test_emit_csv_layout(tmp_path, mini_result):
    path = tmp_path / "grid.csv"
    emit(mini_result, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_db,sigma=0,sigma=0.05"
    assert len(lines) == 3
    assert lines[1].startswith("lambda=0.5,")
    assert lines[2].startswith("lambda=0.05,")
    cells = lines[1].split(",")[1:]
    assert all(len(c.split(".")[-1]) == 4 for c in cells)


def test_emit_json_round_trip(tmp_path, mini_result):
    path = tmp_path / "grid.json"
    emit(mini_result, "json", path)
    doc = json.loads(path.read_text())
    assert doc["spec"]["case_name"] == "mini"
    assert doc["sample_count"] == mini_spec().sample_count
    assert len(doc["cells"]) == 2
    assert len(doc["cells"][0]) == 2
    assert doc["cells"][1][0]["mean_snr_db"] == pytest.approx(
        float(mini_result.mean_snr_db[1, 0])
    )


def test_emit_header_only_for_empty_grid(tmp_path):
    spec = mini_spec(sigma_list=(), lambda_list=())
    result = run_experiment(spec)
    path = tmp_path / "empty.csv"
    emit(result, "csv", path)
    assert path.read_text() == "snr_db\n"


def test_emit_rejects_unknown_format(tmp_path, mini_result):
    with pytest.raises(ValueError):
        emit(mini_result, "xml", tmp_path / "x.xml")


# ---------------------------------------------------------------------------
# distortion campaigns


def test_campaign_isometry(tmp_path):
    n = 4 * 4 * 1
    op = GaussianLinearMap(m=n, dims=(4, 4, 1), matrix=np.eye(n), seed=0, variance_mode="unit")
    rows = run_rip_campaign(op, [1], trials=10, seed=3, t=2.0)
    assert len(rows) == 1
    assert rows[0].delta_hat <= 1e-12
    assert rows[0].satisfied


def test_campaign_nested_ranks_nondecreasing():
    op = gaussian_map(40, (5, 5, 2), seed=8)
    rows = run_rip_campaign(op, [3, 1, 2], trials=15, seed=4, t=2.0)
    assert [row.r for row in rows] == [1, 2, 3]
    deltas = [row.delta_hat for row in rows]
    assert all(a <= b for a, b in zip(deltas, deltas[1:]))


def test_campaign_empty_rank_list():
    op = gaussian_map(10, (3, 3, 2), seed=1)
    with pytest.raises(ValueError, match="must not be empty"):
        run_rip_campaign(op, [], trials=5, seed=0)


@pytest.mark.parametrize(
    "ranks, trials",
    [([1, 2, 4], 5), ([0, 1], 5), ([1, 2], 0)],
    ids=["rank-above-kappa", "rank-zero", "no-trials"],
)
def test_campaign_validates_grid_before_probing(monkeypatch, ranks, trials):
    calls = []
    monkeypatch.setattr(tubal.bench, "estimate_ric", lambda *args: calls.append(args))
    op = gaussian_map(10, (3, 3, 2), seed=1)
    with pytest.raises(ValueError):
        run_rip_campaign(op, ranks, trials=trials, seed=0)
    assert calls == []


def test_emit_campaign_formats(tmp_path):
    op = gaussian_map(40, (5, 5, 2), seed=8)
    rows = run_rip_campaign(op, [1, 2], trials=10, seed=4, t=2.0)
    csv_path = tmp_path / "rip.csv"
    emit_campaign(rows, "csv", csv_path, t=2.0)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r,trials,delta_hat,threshold_t=2,satisfied"
    assert len(lines) == 3
    json_path = tmp_path / "rip.json"
    emit_campaign(rows, "json", json_path, t=2.0)
    doc = json.loads(json_path.read_text())
    assert len(doc) == 2
    assert len(doc[0]["distortion_samples"]) == 10
