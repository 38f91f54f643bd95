import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubal import (
    GaussianLinearMap,
    SolverConfig,
    add_noise,
    admm_solve,
    apply,
    fro_norm,
    gaussian_map,
    snr_db,
    unvec,
    vec,
    verify_bounds,
)
from tubal import solver

from conftest import rand_tensor


def identity_map(dims):
    n = dims[0] * dims[1] * dims[2]
    return GaussianLinearMap(dims=dims, matrix=np.eye(n))


def test_vec_order_is_slice_major_column_major():
    x = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
    v = vec(x)
    n1, n2 = 2, 3
    for k in range(2):
        for j in range(3):
            for i in range(2):
                assert v[k * n1 * n2 + j * n1 + i] == x[i, j, k]
    assert np.array_equal(unvec(v, (2, 3, 2)), x)


def test_unvec_rejects_bad_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), (2, 2, 2))


def test_unvec_reads_a_real_vector():
    with pytest.raises(ValueError, match="vector"):
        unvec(np.ones(8) + 1j, (2, 2, 2))


@pytest.mark.parametrize("defect", ["complex", "nan", "inf", "bool", "1-d"])
def test_map_reads_a_real_finite_matrix(defect):
    matrix = np.ones((3, 8))
    if defect == "complex":
        matrix = matrix + 1j
    elif defect == "bool":
        matrix = matrix.astype(bool)
    elif defect == "1-d":
        matrix = matrix.ravel()
    else:
        matrix[1, 2] = np.nan if defect == "nan" else np.inf
    with pytest.raises(ValueError, match="matrix"):
        GaussianLinearMap(dims=(2, 2, 2), matrix=matrix)


def test_map_reads_its_dims_as_counts_and_takes_m_from_the_matrix():
    op = GaussianLinearMap(dims=(2.0, np.int64(2), 2), matrix=np.ones((3, 8), dtype=np.float32))
    assert op.dims == (2, 2, 2)
    assert all(type(d) is int for d in op.dims)
    assert (op.m, op.matrix.dtype) == (3, np.float64)
    for dims in ((2, 2.5, 2), (0, 2, 2), (2, 2, True), (2, 2, 3)):
        with pytest.raises(ValueError):
            GaussianLinearMap(dims=dims, matrix=np.ones((3, 8)))


def test_gaussian_map_deterministic():
    a = gaussian_map(20, (3, 3, 2), seed=7)
    b = gaussian_map(20, (3, 3, 2), seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    c = gaussian_map(20, (3, 3, 2), seed=8)
    assert not np.array_equal(a.matrix, c.matrix)


def test_gaussian_map_validation():
    with pytest.raises(ValueError):
        gaussian_map(0, (2, 2, 2), seed=1)
    with pytest.raises(ValueError):
        gaussian_map(4, (0, 2, 2), seed=1)
    with pytest.raises(ValueError):
        GaussianLinearMap(dims=(2, 2, 2), matrix=np.zeros((3, 7)))


@pytest.mark.parametrize("dims", [(4, 4), (4, 4, 2, 1), 5, "abc", (4, 4, 0)], ids=["two", "four", "int", "str", "zero"])
def test_gaussian_map_says_what_dims_must_be(dims):
    with pytest.raises(ValueError, match="dims must be three integers >= 1"):
        gaussian_map(30, dims, seed=1)


def test_gaussian_map_moments():
    # 1000 x 1000 = 1e6 draws at variance 1/m
    op = gaussian_map(1000, (10, 10, 10), seed=42)
    entries = op.matrix.ravel()
    assert abs(entries.mean()) <= 4.0 * math.sqrt(1.0 / (1000 * entries.size))
    assert entries.var() == pytest.approx(1.0 / 1000, rel=0.05)


def test_apply_zero_and_linearity():
    op = gaussian_map(15, (3, 2, 2), seed=3)
    assert np.all(apply(op, np.zeros((3, 2, 2))) == 0.0)
    x1 = rand_tensor(31, (3, 2, 2))
    x2 = rand_tensor(32, (3, 2, 2))
    lhs = apply(op, 2.5 * x1 - 1.5 * x2)
    rhs = 2.5 * apply(op, x1) - 1.5 * apply(op, x2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_apply_identity_map_is_vec():
    x = rand_tensor(33, (2, 3, 2))
    op = identity_map((2, 3, 2))
    assert np.array_equal(apply(op, x), vec(x))


def test_apply_rejects_dim_mismatch():
    op = gaussian_map(5, (2, 2, 2), seed=0)
    with pytest.raises(ValueError):
        apply(op, np.zeros((2, 2, 3)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    m=st.integers(1, 20),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_stack_rows_match_single_tensors(dims, m, k, seed):
    op = gaussian_map(m, dims, seed=seed)
    stack = np.random.default_rng(seed).standard_normal((k, *dims))
    out = apply(op, stack)
    assert out.shape == (k, m)
    for i in range(k):
        single = apply(op, stack[i])
        assert np.linalg.norm(out[i] - single) <= 1e-12 * np.linalg.norm(single)


def test_apply_transposed_view_matches_contiguous_stack():
    op = gaussian_map(30, (4, 3, 2), seed=6)
    view = rand_tensor(7, (5, 2, 3, 4)).transpose(0, 3, 2, 1)
    out = apply(op, view)
    expected = apply(op, np.ascontiguousarray(view))
    for i in range(5):
        assert np.linalg.norm(out[i] - expected[i]) <= 1e-12 * np.linalg.norm(expected[i])


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_apply_rejects_bad_dims_and_nan(stacked):
    op = gaussian_map(5, (2, 2, 2), seed=0)
    lead = (3,) if stacked else ()
    with pytest.raises(ValueError):
        apply(op, np.zeros(lead + (2, 2, 3)))
    bad = np.zeros(lead + (2, 2, 2))
    bad[(0,) * bad.ndim] = np.nan
    with pytest.raises(ValueError):
        apply(op, bad)


def test_add_noise_sigma_zero():
    y = np.arange(5, dtype=float)
    sample = add_noise(y, 0.0, noise_seed=4)
    assert np.array_equal(sample.y, y)
    assert np.all(sample.noise == 0.0)


def test_add_noise_deterministic_and_scaled():
    y = np.zeros(8)
    a = add_noise(y, 0.05, noise_seed=11)
    b = add_noise(y, 0.05, noise_seed=11)
    assert np.array_equal(a.y, b.y)
    # same seed at doubled sigma scales the same unit draw
    c = add_noise(y, 0.10, noise_seed=11)
    assert np.allclose(c.noise, 2.0 * a.noise)


def test_add_noise_moments():
    sample = add_noise(np.zeros(1_000_000), 0.05, noise_seed=2)
    assert sample.noise.std() == pytest.approx(0.05, rel=0.05)


def test_add_noise_validation():
    with pytest.raises(ValueError):
        add_noise(np.zeros(4), -0.1, noise_seed=0)
    with pytest.raises(ValueError):
        add_noise(np.zeros((2, 2)), 0.1, noise_seed=0)


def _spoil_measurements(y, defect, where):
    """`y` with one defect: a complex or bool dtype, one NaN or +-inf
    entry, an axis too many, no entries, or one entry too few."""
    if defect == "complex":
        return y + 1j
    if defect == "bool":
        return y > 0
    if defect == "2-d":
        return y[:, None]
    if defect == "empty":
        return y[:0]
    if defect == "short":
        return y[:-1]
    y = y.copy()
    y[where % y.size] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[defect]
    return y


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    m=st.integers(1, 6),
    defect=st.sampled_from(["complex", "bool", "nan", "inf", "-inf", "2-d", "empty", "short"]),
    where=st.integers(0, 10**6),
)
def test_measurement_readers_reject_bad_vectors(dims, m, defect, where):
    # every reader of y reads it by one rule and names it in the error
    op = gaussian_map(m, dims, seed=0)
    x = np.ones(dims)
    y = _spoil_measurements(apply(op, x), defect, where)
    with mock.patch.object(solver, "NormalEquationSolver", side_effect=AssertionError("factored")):
        with pytest.raises(ValueError, match="measurements"):
            admm_solve(op, y, SolverConfig(lam=1.0))
    with pytest.raises(ValueError, match="measurements"):
        verify_bounds(x, x, op, y, r=1, t=2.0, delta=0.0, lam=0.5, epsilon=1.0)
    if defect != "short":  # add_noise has no m to hold a length against
        with pytest.raises(ValueError, match="measurements"):
            add_noise(y, 0.1, noise_seed=0)


@pytest.mark.parametrize(
    "sigma", [math.nan, math.inf, True, False, "0.1"], ids=["nan", "inf", "true", "false", "string"]
)
def test_noise_level_must_be_finite(sigma):
    with pytest.raises(ValueError, match="sigma"):
        add_noise(np.zeros(4), sigma, noise_seed=0)


def test_snr_db_values():
    x = rand_tensor(34, (3, 3, 2))
    assert snr_db(x, np.zeros_like(x)) == pytest.approx(0.0, abs=1e-12)
    assert snr_db(x, x) == math.inf
    assert snr_db(x, 0.9 * x) == pytest.approx(20.0, rel=1e-12)


def test_snr_db_rejects_zero_truth():
    with pytest.raises(ValueError):
        snr_db(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))


def test_snr_db_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        snr_db(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


def test_fro_norm_consistency_with_vec():
    x = rand_tensor(35, (4, 2, 3))
    assert fro_norm(x) == pytest.approx(float(np.linalg.norm(vec(x))), rel=1e-15)
