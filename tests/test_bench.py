import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubal.analysis
import tubal.bench
import tubal.rng
import tubal.solver
from tubal import (
    ExperimentSpec,
    GaussianLinearMap,
    SolverConfig,
    SpecValidationError,
    add_noise,
    admm_solve,
    case1_spec,
    check_guarantee,
    emit,
    emit_campaign,
    estimate_ric,
    gaussian_map,
    generate_lowrank,
    run_experiment,
    run_rip_campaign,
    tubal_rank,
)
from tubal.bench import draw_instance, measurement_count

from conftest import strict_json


def test_draw_instance_pins_the_key_scheme():
    # truth, map and noise come from the "data", "map" and "noise" keys
    # under the caller's key; perfbench/reference.py rebuilds sweeps this way
    x, op, y_clean, noise_seed = draw_instance(6, 2, 1, 30, 7, "instance")
    want_x = generate_lowrank(6, 6, 2, 1, tubal.rng.derive_key(7, "instance", "data"))
    want_op = gaussian_map(30, (6, 6, 2), tubal.rng.derive_key(7, "instance", "map"))
    assert np.array_equal(x, want_x)
    assert op.dims == want_op.dims
    assert np.array_equal(op.matrix, want_op.matrix)
    assert np.array_equal(y_clean, tubal.apply(want_op, want_x))
    assert noise_seed == tubal.rng.derive_key(7, "instance", "noise")


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
    assert tubal_rank(x1) == 2
    assert not np.array_equal(x1, generate_lowrank(4, 5, 3, 2, seed=12))


def test_generate_lowrank_full_rank_square():
    x = generate_lowrank(4, 4, 2, 4, seed=3)
    assert tubal_rank(x) == 4


def test_generate_lowrank_validation():
    with pytest.raises(ValueError):
        generate_lowrank(4, 4, 2, 0, seed=0)
    with pytest.raises(ValueError):
        generate_lowrank(4, 4, 2, 5, seed=0)


# ---------------------------------------------------------------------------
# spec


def test_spec_fractional_rank_and_samples():
    # r is a tubal rank, never a fraction of n: 0.1 is no rank
    with pytest.raises(SpecValidationError, match="invalid experiment spec: expected an integer for r"):
        ExperimentSpec(
            case_name="case1", n=10, n3=5, r=0.1, sample_factor=2.0, sigma_list=(0.01,), lambda_list=(0.1,)
        )
    spec = ExperimentSpec(
        case_name="case1", n=10, n3=5, r=1, sample_factor=2.0, sigma_list=(0.01,), lambda_list=(0.1,)
    )
    assert spec.sample_count == 210


@pytest.mark.parametrize(
    "name, args",
    [("n", dict(n=0)), ("n", dict(n=-1, r=-1)), ("n3", dict(n3=-1)), ("r", dict(r=0))],
    ids=["n-zero", "n-and-r-negative", "n3-negative", "r-zero"],
)
def test_measurement_count_reads_its_sizes(name, args):
    # a library caller's sizes are read as well as a spec's: each of n, n3
    # and r below 1 is rejected by name, n before the r it bounds
    sizes = {**dict(r=1, n=4, n3=2), **args}
    with pytest.raises(ValueError) as info:
        measurement_count(2.0, sizes["r"], sizes["n"], sizes["n3"])
    assert str(info.value) == f"{name} must be >= 1, got {args[name]}"


def test_spec_absolute_rank():
    spec = mini_spec(r=2.0)
    assert spec.r == 2 and type(spec.r) is int
    assert spec.sample_count == 104  # 2.0 * 2 * (2 * 6 + 1) * 2
    assert not hasattr(spec, "rank")


@pytest.mark.parametrize(
    "r, message",
    [
        (0.1, "invalid experiment spec: expected an integer for r, got 0.1"),
        (1.5, "invalid experiment spec: expected an integer for r, got 1.5"),
        (0, "invalid experiment spec: r must be >= 1, got 0"),
        (7, "invalid experiment spec: r must be <= 6, got 7"),
    ],
    ids=["fraction", "one-and-a-half", "zero", "n-plus-1"],
)
def test_spec_rank_is_an_integer_from_1_to_n(r, message):
    # mini_spec has n = 6
    with pytest.raises(SpecValidationError) as info:
        mini_spec(r=r)
    assert str(info.value) == message
    with pytest.raises(SpecValidationError):
        ExperimentSpec.from_dict({**mini_spec().to_dict(), "r": r})


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
    for grid in ("sigma_list", "lambda_list"):
        for bad in (math.nan, math.inf):
            with pytest.raises(SpecValidationError):
                mini_spec(**{grid: (0.5, bad)})
            with pytest.raises(SpecValidationError):
                ExperimentSpec.from_dict({**mini_spec().to_dict(), grid: [bad]})
    for bad in (math.nan, math.inf):
        with pytest.raises(SpecValidationError):
            mini_spec(sample_factor=bad)
    # mini_spec has r (2n + 1) n3 = 26, and 0.01 of it rounds to 0: the spec
    # rejects it when built, not trial 0 when it draws its map
    for bad in (0.01, 0.0, -2.0):
        with pytest.raises(SpecValidationError, match="gives .* measurements"):
            mini_spec(sample_factor=bad)
    with pytest.raises(SpecValidationError):
        ExperimentSpec.from_dict({"case_name": "x"})


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("trails", 1, "'trails'"),
        ("n", 6.7, "expected an integer"),
        ("trials", math.inf, "expected an integer"),
        ("r", "1", "expected an integer"),
        ("base_seed", True, "expected an integer"),
        ("case_name", "", "case_name"),
        ("case_name", ["a"], "case_name"),
    ],
    ids=["unknown-key", "fractional-int", "inf-int", "string", "bool", "empty-name", "list-name"],
)
def test_spec_from_dict_rejects_bad_keys(key, value, match):
    with pytest.raises(SpecValidationError, match=match):
        ExperimentSpec.from_dict({**mini_spec().to_dict(), key: value})


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("n", 6.5, "invalid experiment spec: expected an integer for n,"),
        ("n3", True, "invalid experiment spec: expected an integer for n3,"),
        ("trials", 1.5, "invalid experiment spec: expected an integer for trials,"),
        ("base_seed", 1.5, "invalid experiment spec: expected an integer for base_seed,"),
        ("r", math.inf, "invalid experiment spec: expected an integer for r,"),
        ("r", True, "invalid experiment spec: expected an integer for r,"),
        ("sample_factor", "2", "invalid experiment spec: expected a finite number for sample_factor,"),
        ("sigma_list", (True,), "invalid experiment spec: expected a finite number for sigma_list,"),
        ("lambda_list", 0.5, "invalid experiment spec: lambda_list must be a non-empty list, got 0.5"),
    ],
    ids=["n-fraction", "n3-bool", "trials-fraction", "base_seed-fraction", "r-inf", "r-bool",
         "sample_factor-string", "sigma-bool", "lambda-scalar"],
)
def test_spec_checks_its_fields_when_built(key, value, match):
    with pytest.raises(SpecValidationError, match=match):
        mini_spec(**{key: value})


def test_spec_stores_fields_by_type():
    spec = ExperimentSpec("c", 10.0, np.int64(5), 1.0, 2, [0.01], (np.float32(0.5),), trials=2.0, base_seed=7.0)
    assert spec == ExperimentSpec("c", 10, 5, 1, 2.0, (0.01,), (0.5,), trials=2, base_seed=7)
    assert [type(getattr(spec, k)) for k in ("n", "n3", "r", "trials", "base_seed", "sample_factor")] == (
        [int] * 5 + [float]
    )
    assert type(spec.sigma_list) is tuple and type(spec.lambda_list[0]) is float


def test_spec_from_dict_takes_integral_floats():
    assert ExperimentSpec.from_dict({**mini_spec().to_dict(), "n": 6.0, "trials": 3.0}) == mini_spec()


def test_spec_round_trip():
    spec = mini_spec()
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    d = spec.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(ExperimentSpec)]
    assert type(d["sigma_list"]) is list and type(d["lambda_list"]) is list


# ---------------------------------------------------------------------------
# experiment runs


@pytest.fixture(scope="module")
def mini_result():
    return run_experiment(mini_spec())


def test_experiment_shapes_and_sanity(mini_result):
    assert mini_result.mean_snr_db.shape == (2, 2)
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


def test_case1_sweep_matches_pinned_values():
    # seed-determined outputs of the solver on the paper's case 1: a
    # change to the spectral or linear algebra that moves the results
    # beyond roundoff shows up here.  Each sigma column is a lambda path,
    # so the lambda = 0.01 row counts the sweeps of its warm solves
    spec = dataclasses.replace(case1_spec(trials=1), sigma_list=(0.01, 0.1), lambda_list=(1.0, 0.01))
    result = run_experiment(spec)
    expected_snr = [[22.578098798782484, 19.697904905694756], [39.7833789472697, 21.413649207458842]]
    assert np.allclose(result.mean_snr_db, expected_snr, rtol=0.0, atol=1e-6)
    assert np.array_equal(result.mean_iterations, [[88, 92], [108, 103]])


@pytest.fixture(scope="module")
def case1_trial0():
    spec = case1_spec(trials=1)
    return spec, run_experiment(spec)


def test_case1_trial0_converges_in_every_cell(case1_trial0):
    # every cell of the paper's table stops on its duality gap under the
    # default cap, the lambda = 1e-3 and 1e-4 rows included
    spec, result = case1_trial0
    assert np.all(result.truncated_trials == 0) and np.all(result.aborted_trials == 0)
    assert np.all(result.max_gap <= tubal.solver._GAP_TOL)


def test_case1_smallest_lambda_row_matches_the_next(case1_trial0):
    # lambda = 1e-4 and 1e-3 are both far below the noise level, so their
    # minimizers score alike; a solve stopped short of its minimizer would not
    spec, result = case1_trial0
    snr = dict(zip(spec.lambda_list, result.mean_snr_db))
    assert np.all(np.abs(snr[1e-4] - snr[1e-3]) <= 0.1)


def test_experiment_workers_match_serial(tmp_path, mini_result):
    parallel = run_experiment(mini_spec(), workers=2)
    assert np.array_equal(parallel.mean_snr_db, mini_result.mean_snr_db)
    assert np.array_equal(parallel.aborted_trials, mini_result.aborted_trials)


def test_experiment_counts_exact_recovery_as_ok(monkeypatch, tmp_path):
    # an exact recovery scores SNR = +inf; it is a success, not a failure
    monkeypatch.setattr("tubal.bench.snr_db", lambda x, x_hat: math.inf)
    spec = mini_spec(trials=2, lambda_list=(0.5,))
    result = run_experiment(spec)
    assert np.all(result.aborted_trials == 0)
    assert np.all(result.mean_snr_db == math.inf)
    # the JSON stays strict: the infinite SNR is written as null
    path = tmp_path / "grid.json"
    emit(result, "json", path)
    for row in strict_json(path.read_text())["cells"]:
        for cell in row:
            assert cell["mean_snr_db"] is None and cell["aborted_trials"] == 0


def test_experiment_reports_no_gap_for_aborted_cells(monkeypatch, tmp_path):
    # a cell whose every solve aborts has no exit gap: NaN, without a warning
    def abort(*args):
        raise tubal.solver.NumericalError("aborted")

    monkeypatch.setattr("tubal.bench.admm_solve", abort)
    result = run_experiment(mini_spec(trials=2, lambda_list=(0.5,)))
    assert np.all(result.aborted_trials == 2)
    assert np.all(np.isnan(result.max_gap)) and np.all(np.isnan(result.mean_snr_db))
    # the JSON stays strict: every NaN statistic is written as null
    path = tmp_path / "grid.json"
    emit(result, "json", path)
    for row in strict_json(path.read_text())["cells"]:
        for cell in row:
            assert cell["aborted_trials"] == 2
            for key in ("mean_snr_db", "std_snr_db", "max_gap", "mean_iterations", "mean_seconds"):
                assert cell[key] is None, key


def test_import_loads_neither_the_process_pool_nor_scipy():
    # a sweep's set-up pays for `import tubal`, and run_experiment imports
    # the process pool only when it runs more than one worker
    src = str(Path(tubal.bench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, tubal; print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'scipy'}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_experiment_aborts_only_the_cell_that_fails_numerically():
    # base seed 0 gives max|y| = 4.9 at both sigmas, so the solve's unit is
    # c = 4 and lam / c underflows at lam = 5e-324: that cell aborts, and the
    # other cells on the same instance are solved.  lam = 1e305 is far above
    # ||M^T y||_2, so x = 0 is certified before any sweep and scores 0 dB
    result = run_experiment(mini_spec(trials=1, base_seed=0, lambda_list=(0.1, 1e305, 5e-324)))
    assert result.aborted_trials.tolist() == [[0, 0], [0, 0], [1, 1]]
    assert np.isfinite(result.mean_snr_db[0]).all() and np.isnan(result.mean_snr_db[2]).all()
    assert result.mean_snr_db[1].tolist() == [0.0, 0.0]
    assert result.mean_iterations[1].tolist() == [1.0, 1.0]


def test_experiment_solves_the_cell_after_an_aborted_one_cold():
    # each sigma column is a lambda path, but an aborted cell leaves no
    # answer to start from: the lambda = 0.01 cell after the aborted
    # lambda = 5e-324 one takes the cold solve's sweeps, not those of a
    # start from the lambda = 0.1 answer, which differ at sigma = 0.05
    spec = mini_spec(trials=1, base_seed=0, lambda_list=(0.1, 5e-324, 0.01))
    result = run_experiment(spec)
    assert result.aborted_trials.tolist() == [[0, 0], [1, 1], [0, 0]]
    x, op, y_clean, noise_seed = draw_instance(spec.n, spec.n3, spec.r, spec.sample_count, 0, "mini", 0)
    cold, warm = [], []
    for sigma in spec.sigma_list:
        y = add_noise(y_clean, sigma, noise_seed).y
        cold.append(admm_solve(op, y, SolverConfig(lam=0.01)).iterations)
        warm.append(admm_solve(op, y, SolverConfig(lam=0.01), admm_solve(op, y, SolverConfig(lam=0.1))).iterations)
    assert result.mean_iterations[2].tolist() == cold
    assert cold != warm


def test_experiment_aborts_a_cell_whose_start_objective_reads_inf():
    # at c = 4, lam = 1e-310 leaves a positive lam / c, but
    # P(0) = ||y / c||^2 / (2 lam / c) reads inf: the solve stops at its
    # door, and the cell is aborted, not truncated after max_iters sweeps
    result = run_experiment(mini_spec(trials=1, base_seed=0, lambda_list=(0.1, 1e-310)))
    assert result.aborted_trials.tolist() == [[0, 0], [1, 1]]
    assert result.truncated_trials.tolist() == [[0, 0], [0, 0]]


def test_experiment_reports_truncated_solves(monkeypatch, tmp_path):
    # at sigma=0.01 both solves converge under the default cap (72 and
    # 195 iterations, the lambda=1e-4 solve starting from the lambda=30
    # answer); with max_iters=88 the lambda=30 solve still converges, and
    # the lambda=1e-4 solve stops at the cap, its duality gap far above
    # the tolerance.  Both hold at every cap from 78 to 98, where the
    # capped gap reads 0.188 to 0.401
    spec = dataclasses.replace(case1_spec(trials=1), sigma_list=(0.01,), lambda_list=(30.0, 1e-4))
    default = run_experiment(spec)
    assert default.truncated_trials.tolist() == [[0], [0]]
    assert default.mean_iterations.tolist() == [[72.0], [195.0]]
    assert np.all(default.max_gap <= tubal.solver._GAP_TOL)
    monkeypatch.setattr("tubal.bench.SolverConfig", lambda lam: tubal.solver.SolverConfig(lam=lam, max_iters=88))
    result = run_experiment(spec)
    assert result.truncated_trials.tolist() == [[0], [1]]
    assert result.mean_iterations.tolist() == [[72.0], [88.0]]
    assert result.aborted_trials.tolist() == [[0], [0]]
    path = tmp_path / "grid.json"
    emit(result, "json", path)
    cells = json.loads(path.read_text())["cells"]
    assert [row[0]["truncated_trials"] for row in cells] == [0, 1]
    gaps = [row[0]["max_gap"] for row in cells]
    assert gaps[0] <= tubal.solver._GAP_TOL < 0.1 < gaps[1]


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
    assert list(doc) == ["spec", "sample_count", "cells", "created_at", "version"]
    assert doc["spec"]["case_name"] == "mini"
    assert doc["sample_count"] == mini_spec().sample_count
    assert len(doc["cells"]) == 2
    assert len(doc["cells"][0]) == 2
    assert doc["cells"][1][0]["mean_snr_db"] == pytest.approx(
        float(mini_result.mean_snr_db[1, 0])
    )


def test_spec_rejects_empty_grid():
    # an empty grid would draw every trial's data and operator for no cell
    for grid in (dict(sigma_list=()), dict(lambda_list=()), dict(sigma_list=(), lambda_list=())):
        with pytest.raises(SpecValidationError):
            mini_spec(**grid)


def test_emit_rejects_unknown_format(tmp_path, mini_result):
    with pytest.raises(ValueError):
        emit(mini_result, "xml", tmp_path / "x.xml")


# ---------------------------------------------------------------------------
# distortion campaigns


def test_campaign_isometry(tmp_path):
    n = 4 * 4 * 1
    op = GaussianLinearMap(dims=(4, 4, 1), matrix=np.eye(n))
    rows = run_rip_campaign(op, [1], trials=10, seed=3)
    assert len(rows) == 1
    assert rows[0].delta_hat <= 1e-12
    csv_path = tmp_path / "rip.csv"
    emit_campaign(rows, "csv", csv_path, t=2.0, n3=1)
    assert csv_path.read_text().splitlines()[1].endswith(",true")


def test_campaign_nested_ranks_nondecreasing():
    op = gaussian_map(40, (5, 5, 2), seed=8)
    rows = run_rip_campaign(op, [3, 1, 2], trials=15, seed=4)
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
    rows = run_rip_campaign(op, [1, 2], trials=10, seed=4)
    csv_path = tmp_path / "rip.csv"
    emit_campaign(rows, "csv", csv_path, t=2.0, n3=2)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r,trials,delta_hat,threshold_t=2,satisfied"
    assert len(lines) == 3
    json_path = tmp_path / "rip.json"
    emit_campaign(rows, "json", json_path, t=2.0, n3=2)
    doc = json.loads(json_path.read_text())
    assert len(doc) == 2
    assert len(doc[0]["distortion_samples"]) == 10


def test_check_guarantee_matches_campaign_rows():
    n, n3, r = 6, 2, 1
    op = gaussian_map(60, (n, n, n3), seed=5)
    x = generate_lowrank(n, n, n3, r, seed=6)
    y = tubal.apply(op, x)
    t_grid = [50.0, 2.0, 3.0, 1.5]
    entries = check_guarantee(x, x, op, y, r, t_grid, lam=0.1, epsilon=0.0, trials=10, seed=9)
    rows = {row.r: row.delta_hat for row in run_rip_campaign(op, [6, 2, 3], trials=10, seed=9)}
    assert [e["t"] for e in entries] == t_grid
    assert [e["probe_rank"] for e in entries] == [6, 2, 3, 2]
    for e in entries:
        assert e["delta"] == rows[e["probe_rank"]]
        assert e["condition_met"] == (e["delta"] < tubal.ric_threshold(e["t"], n3))


def test_check_guarantee_entries_share_one_shape():
    n, n3, r = 6, 2, 1
    op = gaussian_map(60, (n, n, n3), seed=5)
    x = generate_lowrank(n, n, n3, r, seed=6)
    y = tubal.apply(op, x)
    entries = check_guarantee(x, x, op, y, r, [50.0, 2.0, 3.0, 1.5], lam=0.1, epsilon=0.0, trials=10, seed=9)
    assert {e["condition_met"] for e in entries} == {True, False}
    for e in entries:
        assert list(e)[:5] == ["t", "probe_rank", "delta", "threshold", "condition_met"]
        if e["condition_met"]:
            # the rest of the verify_bounds record follows, in its own order
            record = tubal.verify_bounds(x, x, op, y, r, e["t"], e["delta"], 0.1, 0.0)
            assert list(e)[5:] == [k for k in record if k not in ("t", "delta", "threshold")]
            assert {k: e[k] for k in record} == record
        else:
            assert len(e) == 5


@pytest.mark.parametrize(
    "ranks, trials",
    [([2.7], 5), ([1, 1.5], 5), ([2], 2.5), ([2], "5"), ([True], 5)],
    ids=["rank-2.7", "rank-1.5", "trials-2.5", "trials-string", "rank-bool"],
)
def test_campaign_rejects_non_integral_rank_or_trials(monkeypatch, ranks, trials):
    op = gaussian_map(30, (4, 4, 2), seed=1)
    with pytest.raises(ValueError, match="expected an integer"):
        tubal.analysis.estimate_ric(op, ranks[-1], trials, 0)
    calls = []
    monkeypatch.setattr(tubal.bench, "estimate_ric", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="expected an integer"):
        run_rip_campaign(op, ranks, trials, seed=0)
    assert calls == []


def test_campaign_accepts_integral_rank_and_trials():
    op = gaussian_map(30, (4, 4, 2), seed=1)
    (row,) = run_rip_campaign(op, [2.0], 5.0, seed=0)
    (want,) = run_rip_campaign(op, [2], 5, seed=0)
    assert (row.r, row.trials, row.delta_hat) == (want.r, want.trials, want.delta_hat)
    assert type(row.r) is int and type(row.trials) is int
    est = tubal.analysis.estimate_ric(op, np.int64(2), np.int64(5), 0)
    assert (est.r, est.trials, est.delta_hat) == (2, 5, want.estimate.delta_hat)


def test_rip_campaign_matches_pinned_values():
    # seed-determined outputs of the probe path, as the case1 test pins
    # the solver's: a change to the t-product, the measurement product or
    # the blocking of the 300 probes that moves the samples beyond
    # roundoff shows up here
    rows = run_rip_campaign(gaussian_map(210, (10, 10, 5), 1), [1, 2, 5, 10], 300, 1)
    expected = [0.293746399490, 0.293746399490, 0.317471166932, 0.330609562838]
    assert [row.delta_hat for row in rows] == pytest.approx(expected, rel=1e-11)


# every seeded draw of the package, as a function of (op, seed)
SEEDED_DRAWS = {
    "gaussian_map": lambda op, seed: gaussian_map(30, (4, 4, 2), seed).matrix,
    "add_noise": lambda op, seed: add_noise(np.ones(30), 0.1, seed).y,
    "generate_lowrank": lambda op, seed: generate_lowrank(4, 4, 2, 1, seed),
    "estimate_ric": lambda op, seed: estimate_ric(op, 2, 5, seed).distortion_samples,
}


@pytest.mark.parametrize("name", SEEDED_DRAWS)
def test_seeded_draws_reject_fractional_seed(monkeypatch, name):
    op = gaussian_map(30, (4, 4, 2), seed=1)
    streams = []
    monkeypatch.setattr(tubal.rng, "stream", lambda *parts: streams.append(parts))
    with pytest.raises(ValueError, match="expected an integer"):
        SEEDED_DRAWS[name](op, 2.7)
    assert streams == []


@pytest.mark.parametrize("seed", [2.0, np.int64(2)], ids=["float", "int64"])
@pytest.mark.parametrize("name", SEEDED_DRAWS)
def test_seeded_draws_take_integral_seed(name, seed):
    op = gaussian_map(30, (4, 4, 2), seed=1)
    assert np.array_equal(SEEDED_DRAWS[name](op, seed), SEEDED_DRAWS[name](op, 2))


# every count argument of the seeded draws, as (draw of that count, a valid count)
COUNT_ARGS = {
    "gaussian_map-m": (lambda v: gaussian_map(v, (4, 4, 2), 1).matrix, 30),
    "gaussian_map-n1": (lambda v: gaussian_map(30, (v, 4, 2), 1).matrix, 4),
    "gaussian_map-n2": (lambda v: gaussian_map(30, (4, v, 2), 1).matrix, 4),
    "gaussian_map-n3": (lambda v: gaussian_map(30, (4, 4, v), 1).matrix, 2),
    "generate_lowrank-n1": (lambda v: generate_lowrank(v, 4, 2, 1, 1), 4),
    "generate_lowrank-n2": (lambda v: generate_lowrank(4, v, 2, 1, 1), 4),
    "generate_lowrank-n3": (lambda v: generate_lowrank(4, 4, v, 1, 1), 2),
    "generate_lowrank-r": (lambda v: generate_lowrank(4, 4, 2, v, 1), 1),
}


@pytest.mark.parametrize("bad", ["fraction", "bool"])
@pytest.mark.parametrize("name", COUNT_ARGS)
def test_seeded_draws_reject_non_integral_counts(monkeypatch, name, bad):
    draw, count = COUNT_ARGS[name]
    streams = []
    monkeypatch.setattr(tubal.rng, "stream", lambda *parts: streams.append(parts))
    with pytest.raises(ValueError, match="expected an integer"):
        draw(count + 0.5 if bad == "fraction" else True)
    assert streams == []


@pytest.mark.parametrize("name", COUNT_ARGS)
def test_seeded_draws_take_integral_float_counts(name):
    draw, count = COUNT_ARGS[name]
    assert np.array_equal(draw(float(count)), draw(count))


def test_gaussian_map_records_integral_counts_as_ints():
    op = gaussian_map(30.0, (4.0, np.int64(4), 2.0), 1)
    assert (op.m, op.dims) == (30, (4, 4, 2))
    assert all(type(v) is int for v in (op.m, *op.dims))


@pytest.mark.parametrize("seed", [2.0, np.int64(2)], ids=["float", "int64"])
def test_recorded_seeds_are_checked_ints(seed):
    # the map and the sample keep no seed; the fields they keep are read
    # by the package's rules whatever form the seed took
    op = gaussian_map(30, (4, 4, 2), seed)
    assert (op.m, op.dims) == (30, (4, 4, 2))
    assert all(type(v) is int for v in (op.m, *op.dims))
    for sigma in (0.1, 0.0):
        sample = add_noise(np.ones(3), sigma, seed)
        assert np.array_equal(sample.noise, add_noise(np.ones(3), sigma, 2).noise)
    with pytest.raises(ValueError, match="expected an integer"):
        add_noise(np.ones(3), 0.0, 2.7)


@pytest.mark.parametrize(
    "bad",
    [dict(t_grid=[2.0, 1.0]), dict(t_grid=[]), dict(r=1.5), dict(r=0), dict(lam=0.0), dict(lam=-1.0),
     dict(epsilon=-5.0)],
    ids=["t-at-1", "empty", "r-fraction", "r-zero", "lam-zero", "lam-negative", "epsilon-negative"],
)
def test_check_guarantee_validates_grid_before_probing(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(tubal.bench, "estimate_ric", lambda *args: calls.append(args))
    op = gaussian_map(10, (3, 3, 2), seed=1)
    x = generate_lowrank(3, 3, 2, 1, seed=2)
    args = {**dict(r=1, t_grid=[2.0], lam=0.1, epsilon=0.0), **bad}
    with pytest.raises(ValueError):
        check_guarantee(x, x, op, tubal.apply(op, x), **args, trials=5, seed=0)
    assert calls == []


def test_check_guarantee_rejects_an_empty_t_grid_by_name(monkeypatch):
    # an empty grid names t_grid, not the rank_list of the campaign it
    # would have run
    monkeypatch.setattr(tubal.bench, "run_rip_campaign", lambda *args: pytest.fail("no campaign should run"))
    op = gaussian_map(10, (3, 3, 2), seed=1)
    x = generate_lowrank(3, 3, 2, 1, seed=2)
    with pytest.raises(ValueError, match="^t_grid must not be empty$"):
        check_guarantee(x, x, op, tubal.apply(op, x), 1, [], lam=0.1, epsilon=0.0, trials=5, seed=0)
