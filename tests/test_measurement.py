import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubal import (
    GaussianLinearMap,
    add_noise,
    adjoint_apply,
    apply,
    fro_norm,
    gaussian_map,
    snr_db,
    unvec,
    vec,
)

from conftest import rand_tensor


def identity_map(dims):
    n = dims[0] * dims[1] * dims[2]
    return GaussianLinearMap(m=n, dims=dims, matrix=np.eye(n), seed=0)


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
        GaussianLinearMap(m=3, dims=(2, 2, 2), matrix=np.zeros((3, 7)), seed=0)


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


def test_adjoint_zero_and_identity():
    op = gaussian_map(6, (2, 2, 2), seed=1)
    assert np.all(adjoint_apply(op, np.zeros(6)) == 0.0)
    eye = identity_map((2, 2, 2))
    v = np.arange(8, dtype=float)
    assert np.array_equal(adjoint_apply(eye, v), unvec(v, (2, 2, 2)))


def test_adjoint_identity_random_pairs():
    op = gaussian_map(12, (3, 3, 2), seed=5)
    gen = np.random.default_rng(99)
    for _ in range(100):
        x = gen.standard_normal((3, 3, 2))
        v = gen.standard_normal(12)
        lhs = float(apply(op, x) @ v)
        rhs = float(np.vdot(adjoint_apply(op, v).ravel(), x.ravel()))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


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
