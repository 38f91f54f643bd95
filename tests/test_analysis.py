import math

import numpy as np
import pytest

from tubal import (
    GaussianLinearMap,
    RipConditionError,
    add_noise,
    apply,
    estimate_ric,
    fro_norm,
    gaussian_map,
    generate_lowrank,
    guarantee_constants,
    ric_threshold,
    tprod,
    verify_bounds,
)
from tubal import analysis, rng

T_GRID = [1.1, 1.5, 2.0, 3.0, 5.0, 10.0]
N3_GRID = [1, 2, 3, 5, 10]


# ---------------------------------------------------------------------------
# threshold


def test_ric_threshold_reference_values():
    assert ric_threshold(2.0, 1) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert ric_threshold(2.0, 5) == pytest.approx(math.sqrt(1.0 / 26.0), abs=1e-12)


def test_ric_threshold_vanishes_as_t_to_1():
    assert ric_threshold(1.0 + 1e-12, 3) <= 1e-5


def test_ric_threshold_monotonicity():
    for n3 in N3_GRID:
        vals = [ric_threshold(t, n3) for t in T_GRID]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for t in T_GRID:
        vals = [ric_threshold(t, n3) for n3 in N3_GRID]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ric_threshold_rejects_t_at_most_1():
    with pytest.raises(ValueError):
        ric_threshold(1.0, 3)
    with pytest.raises(ValueError):
        ric_threshold(0.5, 3)


@pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
def test_ric_threshold_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="finite number for t"):
        ric_threshold(t, 5)


# ---------------------------------------------------------------------------
# guarantee constants: eta1, eta2


def test_eta_limits_at_zero_delta():
    rec = guarantee_constants(0.0, 2.0, 1, 4, 1.0, 0.0)
    assert rec["eta1"] == pytest.approx(2.0, abs=1e-15)
    assert rec["eta2"] == 0.0


def test_eta_reference_value():
    eta1 = guarantee_constants(0.5, 2.0, 1, 1, 1.0, 0.0)["eta1"]
    assert eta1 == pytest.approx(2.0 / (0.5 * math.sqrt(1.5)), abs=1e-12)
    assert eta1 == pytest.approx(3.26598632371, abs=1e-9)


def test_eta2_at_threshold_is_inverse_sqrt_n3():
    # the record rejects delta at the threshold, so take the float just below it
    for t in T_GRID:
        for n3 in N3_GRID:
            delta = math.nextafter(ric_threshold(t, n3), 0.0)
            eta2 = guarantee_constants(delta, t, 1, n3, 1.0, 0.0)["eta2"]
            assert eta2 == pytest.approx(1.0 / math.sqrt(n3), abs=1e-12)


def test_eta2_below_one_under_threshold():
    for t in T_GRID:
        for n3 in N3_GRID:
            delta = 0.999 * ric_threshold(t, n3)
            assert guarantee_constants(delta, t, 1, n3, 1.0, 0.0)["eta2"] < 1.0


def test_eta_validation():
    with pytest.raises(ValueError):
        guarantee_constants(1.0, 2.0, 1, 3, 1.0, 0.0)
    with pytest.raises(ValueError):
        guarantee_constants(-0.1, 2.0, 1, 3, 1.0, 0.0)
    with pytest.raises(ValueError):
        guarantee_constants(0.5, 1.0, 1, 3, 1.0, 0.0)


# ---------------------------------------------------------------------------
# guarantee constants: c1..c4 and the matched-noise set


def coefficients(rec, suffix=""):
    return [rec[f"c{i}{suffix}"] for i in range(1, 5)]


def test_bound_constants_zero_delta_reference():
    c1, c2, c3, c4 = coefficients(guarantee_constants(0.0, 2.0, 1, 1, 1.0, 0.0))
    assert c1 == pytest.approx(1.0, abs=1e-12)
    assert c2 == pytest.approx(4.0, abs=1e-12)
    assert c3 == pytest.approx(6.0, abs=1e-12)
    assert c4 == pytest.approx(16.0, abs=1e-12)


def test_bound_constants_epsilon_zero_c2():
    delta, t, r, n3, lam = 0.1, 2.0, 2, 3, 0.3
    rec = guarantee_constants(delta, t, r, n3, lam, 0.0)
    assert rec["c2"] == pytest.approx(2.0 * math.sqrt(r) * rec["eta1"] * lam, rel=1e-12)


def test_bound_constants_reject_delta_at_threshold():
    thr = ric_threshold(2.0, 5)
    with pytest.raises(RipConditionError):
        guarantee_constants(thr, 2.0, 1, 5, 0.1, 0.0)
    with pytest.raises(RipConditionError):
        guarantee_constants(0.9, 2.0, 1, 5, 0.1, 0.0)


def test_bound_constants_validation():
    with pytest.raises(ValueError):
        guarantee_constants(0.1, 2.0, 0, 5, 0.1, 0.0)
    with pytest.raises(ValueError):
        guarantee_constants(0.1, 2.0, 1, 5, 0.0, 0.0)
    with pytest.raises(ValueError):
        guarantee_constants(0.1, 2.0, 1, 5, 0.1, -1.0)


def test_bound_constants_finite_near_threshold():
    for t in (1.5, 2.0, 5.0):
        for n3 in (1, 3, 5):
            delta = 0.9 * ric_threshold(t, n3)
            vals = coefficients(guarantee_constants(delta, t, 2, n3, 0.5, 0.1))
            assert all(np.isfinite(v) and v > 0 for v in vals)


def test_matched_constants_zero_delta_reference():
    c1t, c2t, c3t, c4t = coefficients(guarantee_constants(0.0, 2.0, 1, 1, 0.3, 0.2), "_matched")
    assert c1t == pytest.approx(1.0, abs=1e-12)
    assert c2t == pytest.approx(5.0, abs=1e-12)
    assert c3t == pytest.approx(6.5, abs=1e-12)
    assert c4t == pytest.approx(27.5, abs=1e-12)


def test_matched_constants_consistent_with_general():
    for t in (1.5, 3.0):
        for n3 in (1, 2, 5):
            for r in (1, 3):
                for lam in (0.05, 1.0):
                    delta = 0.5 * ric_threshold(t, n3)
                    rec = guarantee_constants(delta, t, r, n3, lam, lam / 2.0)
                    c1, c2, c3, c4 = coefficients(rec)
                    c1t, c2t, c3t, c4t = coefficients(rec, "_matched")
                    assert c1 == pytest.approx(c1t, rel=1e-12)
                    assert c2 == pytest.approx(c2t * lam, rel=1e-12)
                    assert c3 == pytest.approx(c3t, rel=1e-12)
                    assert c4 == pytest.approx(c4t * lam, rel=1e-12)


def test_matched_constants_reject_delta_at_threshold():
    with pytest.raises(RipConditionError):
        guarantee_constants(ric_threshold(2.0, 3), 2.0, 1, 3, 1.0, 0.5)


def test_guarantee_constants_takes_the_threshold_once(monkeypatch):
    calls = []

    def counting(t, n3):
        calls.append((t, n3))
        return ric_threshold(t, n3)

    monkeypatch.setattr(analysis, "ric_threshold", counting)
    rec = guarantee_constants(0.1, 2.0, 1, 5, 0.1, 0.05)
    assert calls == [(2.0, 5)]
    assert rec["threshold"] == ric_threshold(2.0, 5)


@pytest.mark.parametrize("key", ["delta", "t", "lam", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, True, "0.1"], ids=["nan", "inf", "bool", "string"])
def test_guarantee_constants_rejects_non_finite_reals(key, value):
    # at nan or inf the formulas would give nan or inf constants, not an error
    args = {**dict(delta=0.1, t=2.0, r=1, n3=5, lam=0.1, epsilon=0.05), key: value}
    with pytest.raises(ValueError, match=f"finite number for {key}"):
        guarantee_constants(**args)


@pytest.mark.parametrize("key", ["r", "n3"])
@pytest.mark.parametrize("value", [1.5, True, math.inf], ids=["fraction", "bool", "inf"])
def test_guarantee_constants_rejects_non_integral_counts(key, value):
    args = {**dict(delta=0.01, t=2.0, r=1, n3=1, lam=0.1, epsilon=0.05), key: value}
    with pytest.raises(ValueError, match="expected an integer"):
        guarantee_constants(**args)


def test_guarantee_constants_reads_integral_floats_as_counts():
    rec = guarantee_constants(np.float64(0.1), 2, 1.0, 5.0, 0.1, 0.05)
    assert rec == guarantee_constants(0.1, 2.0, 1, 5, 0.1, 0.05)
    assert [type(rec[k]) for k in ("delta", "t", "r", "n3")] == [float, float, int, int]


def test_guarantee_constants_reads_each_input_once_by_name(monkeypatch):
    # a bad n3 is reported as n3's, and t is not read again after ric_threshold has read it
    with pytest.raises(ValueError, match="expected an integer for n3, got 2.5"):
        guarantee_constants(0.1, 2.0, 1, 2.5, 0.1, 0.05)
    names = []
    for reader in ("_as_int", "_as_real"):

        def counting(value, name="", *args, _read=getattr(analysis, reader), **kwargs):
            names.append(name)
            return _read(value, name, *args, **kwargs)

        monkeypatch.setattr(analysis, reader, counting)
    guarantee_constants(0.1, 2.0, 1, 5, 0.1, 0.05)
    assert sorted(names) == sorted(["delta", "t", "r", "n3", "lam", "epsilon"])


# ---------------------------------------------------------------------------
# empirical distortion


def identity_map(dims, scale=1.0):
    n = dims[0] * dims[1] * dims[2]
    return GaussianLinearMap(dims=dims, matrix=scale * np.eye(n))


def test_estimate_ric_isometry():
    est = estimate_ric(identity_map((4, 4, 2)), r=1, trials=20, seed=5)
    assert est.delta_hat <= 1e-12
    assert est.distortion_samples.shape == (20,)
    assert est.delta_hat == est.distortion_samples.max()


def test_estimate_ric_scaled_identity():
    est = estimate_ric(identity_map((3, 3, 2), scale=2.0), r=1, trials=10, seed=5)
    assert est.delta_hat == pytest.approx(3.0, rel=1e-10)


def test_estimate_ric_deterministic():
    op = gaussian_map(30, (4, 4, 3), seed=3)
    a = estimate_ric(op, r=2, trials=25, seed=9)
    b = estimate_ric(op, r=2, trials=25, seed=9)
    assert np.array_equal(a.distortion_samples, b.distortion_samples)


def _per_probe_distortions(op, r, trials, seed):
    """One matrix-vector product per probe, probe by probe."""
    n1, n2, n3 = op.dims
    samples = np.empty(trials)
    for i in range(trials):
        gen = rng.stream(int(seed), "rip", int(r), i)
        a = gen.standard_normal((n1, r, n3))
        b = gen.standard_normal((r, n2, n3))
        x = tprod(a, b)
        x /= fro_norm(x)
        mx = apply(op, x)
        samples[i] = abs(float(mx @ mx) - 1.0)
    return samples


_BUILD, _BLOCK = analysis._BUILD_BLOCK, analysis._PROBE_BLOCK
# both sides of a sub-block edge and of a block edge, plus counts whose
# sub-blocks (2 * _BUILD + 1) and blocks (2 * _BLOCK + 1) split unevenly;
# 4 * _BUILD - 1, 4 * _BUILD and 4 * _BUILD + 1 fill one block with four
# sub-blocks, the last one short, four full ones, or five near-equal ones
BLOCK_EDGE_TRIALS = [
    1,
    _BUILD - 1,
    _BUILD,
    _BUILD + 1,
    2 * _BUILD + 1,
    4 * _BUILD - 1,
    4 * _BUILD,
    4 * _BUILD + 1,
    _BLOCK - 1,
    _BLOCK,
    _BLOCK + 1,
    2 * _BLOCK + 1,
]


@pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
def test_estimate_ric_blocks_match_per_probe_loop(trials):
    op = gaussian_map(40, (4, 5, 3), seed=13)
    est = estimate_ric(op, r=2, trials=trials, seed=21)
    expected = _per_probe_distortions(op, 2, trials, 21)
    assert est.distortion_samples.shape == (trials,)
    np.testing.assert_allclose(est.distortion_samples, expected, rtol=0, atol=1e-12)
    assert est.delta_hat == est.distortion_samples.max()


def test_estimate_ric_samples_do_not_depend_on_blocking():
    op = gaussian_map(40, (4, 5, 3), seed=13)
    long = estimate_ric(op, r=2, trials=_BLOCK + 1, seed=21)
    short = estimate_ric(op, r=2, trials=_BUILD + 1, seed=21)
    np.testing.assert_allclose(
        long.distortion_samples[: _BUILD + 1], short.distortion_samples, rtol=0, atol=1e-12
    )


def test_estimate_ric_small_blocks_match_default(monkeypatch):
    op = gaussian_map(40, (4, 5, 3), seed=13)
    default = estimate_ric(op, r=2, trials=23, seed=21)
    # 23 trials in blocks of 5, 5, 5, 5, 3, built 2 + 2 + 1 and 2 + 1
    monkeypatch.setattr(analysis, "_PROBE_BLOCK", 5)
    monkeypatch.setattr(analysis, "_BUILD_BLOCK", 2)
    small = estimate_ric(op, r=2, trials=23, seed=21)
    np.testing.assert_allclose(small.distortion_samples, default.distortion_samples, rtol=0, atol=1e-12)


def test_estimate_ric_measures_400_trials_in_two_blocks(monkeypatch):
    sizes = []

    def recorder(op, x):
        sizes.append(x.shape[0])
        return apply(op, x)

    monkeypatch.setattr(analysis, "apply", recorder)
    estimate_ric(gaussian_map(40, (4, 5, 3), seed=13), r=2, trials=400, seed=21)
    assert sizes == [200, 200]


def test_estimate_ric_shrinks_with_more_measurements():
    dims = (6, 6, 3)
    small, large = [], []
    for seed in range(5):
        small.append(estimate_ric(gaussian_map(40, dims, seed=seed), 1, 40, seed).delta_hat)
        large.append(estimate_ric(gaussian_map(90, dims, seed=seed), 1, 40, seed).delta_hat)
    assert 0.0 < np.mean(large) < np.mean(small) < 1.5
    assert all(0.0 < d for d in small)


def test_estimate_ric_validation():
    op = gaussian_map(10, (3, 3, 2), seed=1)
    with pytest.raises(ValueError):
        estimate_ric(op, r=0, trials=5, seed=0)
    with pytest.raises(ValueError):
        estimate_ric(op, r=4, trials=5, seed=0)
    with pytest.raises(ValueError):
        estimate_ric(op, r=1, trials=0, seed=0)


# ---------------------------------------------------------------------------
# bound verification


def test_verify_bounds_exact_recovery_trivially_satisfied():
    x = generate_lowrank(4, 4, 2, 1, seed=2)
    op = identity_map((4, 4, 2))
    y = apply(op, x)
    rep = verify_bounds(x, x, op, y, r=1, t=2.0, delta=0.1, lam=0.5, epsilon=0.0)
    assert rep["lhs_meas"] == 0.0
    assert rep["lhs_fro"] == 0.0
    assert rep["satisfied"] == [True, True]
    assert rep["tail_tnn"] <= 1e-10


def test_verify_bounds_rejects_condition_failure():
    x = generate_lowrank(4, 4, 2, 1, seed=2)
    op = identity_map((4, 4, 2))
    y = apply(op, x)
    with pytest.raises(RipConditionError):
        verify_bounds(x, x, op, y, r=1, t=2.0, delta=0.9, lam=0.5, epsilon=0.0)


def test_verify_bounds_rejects_understated_epsilon():
    x = generate_lowrank(4, 4, 2, 1, seed=2)
    op = identity_map((4, 4, 2))
    sample = add_noise(apply(op, x), 0.1, noise_seed=3)
    with pytest.raises(ValueError):
        verify_bounds(x, x, op, sample.y, r=1, t=2.0, delta=0.1, lam=0.5, epsilon=0.0)


@pytest.mark.parametrize(
    "key, value", [("r", 1.5), ("r", True), ("lam", np.nan), ("epsilon", np.inf), ("delta", np.nan)]
)
def test_verify_bounds_reads_its_scalars_by_the_package_rules(key, value):
    # a fractional r was truncated in the record but not in the tail
    x = generate_lowrank(4, 4, 2, 1, seed=2)
    op = identity_map((4, 4, 2))
    args = {**dict(r=1, t=2.0, delta=0.1, lam=0.5, epsilon=0.0), key: value}
    with pytest.raises(ValueError, match="expected a finite number|expected an integer"):
        verify_bounds(x, x, op, apply(op, x), **args)


def test_verify_bounds_takes_integral_floats():
    x = generate_lowrank(4, 4, 2, 1, seed=2)
    op = identity_map((4, 4, 2))
    y = apply(op, x)
    a = verify_bounds(x, 0.9 * x, op, y, r=2.0, t=3, delta=0.1, lam=1, epsilon=0)
    b = verify_bounds(x, 0.9 * x, op, y, r=2, t=3.0, delta=0.1, lam=1.0, epsilon=0.0)
    assert a == b and type(a["r"]) is int


@pytest.mark.parametrize("bad", ["nan", "inf", "column", "short"])
def test_verify_bounds_rejects_bad_measurements(bad):
    x = generate_lowrank(4, 4, 2, 1, seed=2)
    op = identity_map((4, 4, 2))
    y = apply(op, x)
    if bad == "nan":
        y[3] = np.nan
    elif bad == "inf":
        y[3] = np.inf
    elif bad == "column":
        y = y[:, None]
    else:
        y = y[:-1]
    with pytest.raises(ValueError, match="measurement"):
        verify_bounds(x, x, op, y, r=1, t=2.0, delta=0.1, lam=0.5, epsilon=1e6)


def test_verify_bounds_rhs_shrinks_with_lambda():
    # noiseless, exact rank: the Frobenius bound is proportional to lam
    x = generate_lowrank(4, 4, 2, 1, seed=7)
    op = identity_map((4, 4, 2))
    y = apply(op, x)
    rhs = [
        verify_bounds(x, x, op, y, r=1, t=2.0, delta=0.1, lam=lam, epsilon=0.0)["rhs_fro"]
        for lam in (1e-2, 1e-3, 1e-4)
    ]
    assert rhs[0] > rhs[1] > rhs[2]
    assert rhs[2] == pytest.approx(rhs[0] * 1e-2, rel=1e-9)


def test_verify_bounds_report_fields():
    x = generate_lowrank(5, 5, 2, 2, seed=8)
    op = identity_map((5, 5, 2))
    y = apply(op, x)
    doc = verify_bounds(x, 0.99 * x, op, y, r=2, t=3.0, delta=0.05, lam=0.2, epsilon=0.0)
    for key in ("t", "r", "n3", "delta", "eta1", "eta2", "c1", "c4_matched", "lhs_meas", "rhs_fro"):
        assert key in doc
    assert doc["satisfied"] == [True, True]
    assert fro_norm(0.01 * x) == pytest.approx(doc["lhs_fro"], rel=1e-12)
