import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubal import (
    NumericalError,
    SolverConfig,
    admm_solve,
    apply,
    fro_norm,
    gaussian_map,
    generate_lowrank,
    prox_optimality_check,
    tnn,
    tsvt,
    tubal_rank,
    unvec,
    vec,
)
from tubal import solver
from tubal.solver import NormalEquationSolver

from conftest import rand_tensor


def matrix_svt(a, tau):
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


# ---------------------------------------------------------------------------
# t-SVT


def test_tsvt_full_shrinkage():
    x = rand_tensor(50, (4, 4, 3))
    xf = np.fft.fft(x, axis=2)
    top = max(np.linalg.svd(xf[:, :, k], compute_uv=False)[0] for k in range(3))
    assert np.all(tsvt(x, top * 1.001) == 0.0)


def test_tsvt_zero_threshold_returns_input():
    x = rand_tensor(51, (5, 3, 4))
    assert fro_norm(tsvt(x, 0.0) - x) <= 1e-12 * fro_norm(x)


@pytest.mark.parametrize("seed", range(5))
def test_tsvt_n3_1_matches_matrix_svt(seed):
    a = rand_tensor(seed, (5, 5, 1))
    out = tsvt(a, 0.3)
    assert np.max(np.abs(out[:, :, 0] - matrix_svt(a[:, :, 0], 0.3))) <= 1e-10


def test_tsvt_does_not_raise_rank():
    x = generate_lowrank(5, 5, 3, 2, seed=1)
    assert tubal_rank(tsvt(x, 0.4)) <= tubal_rank(x)


def test_tsvt_rejects_negative_tau():
    with pytest.raises(ValueError):
        tsvt(np.zeros((2, 2, 2)), -1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
    n3=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    tau_frac=st.floats(0.0, 1.2),
)
@example(n1=3, n2=4, n3=1, seed=0, tau_frac=0.0)
@example(n1=4, n2=3, n3=4, seed=1, tau_frac=0.5)
@example(n1=4, n2=4, n3=5, seed=2, tau_frac=1.01)
def test_tsvt_is_the_prox_and_shrinks_the_spectrum(n1, n2, n3, seed, tau_frac):
    # tau_frac scales the largest Fourier-slice singular value, so 0 keeps
    # the input and values above 1 shrink everything to zero
    y = rand_tensor(seed, (n1, n2, n3))
    svals = np.linalg.svd(np.fft.fft(y, axis=2).transpose(2, 0, 1), compute_uv=False)
    tau = tau_frac * svals.max()
    x = tsvt(y, tau)
    assert prox_optimality_check(y, tau, x) <= 1e-9
    assert tnn(x) == pytest.approx(np.maximum(svals - tau, 0.0).sum() / n3, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# prox oracle


@pytest.mark.parametrize("n3", [1, 2, 3, 5])
def test_prox_output_is_stationary(n3):
    g = rand_tensor(60 + n3, (4, 4, n3))
    x = tsvt(g, 0.5)
    assert prox_optimality_check(g, 0.5, x) <= 1e-9


def test_prox_detects_unshrunk_candidate():
    g = rand_tensor(61, (4, 4, 3))
    assert prox_optimality_check(g, 2.0, g) > 1e-6


def test_prox_tiny_threshold_accepts_input():
    g = rand_tensor(62, (4, 4, 3))
    assert prox_optimality_check(g, 1e-15, g) <= 1e-9


# ---------------------------------------------------------------------------
# data-fit block


def z_block(matrix, y, k_mult, x_next, rho):
    """The loop's z update: solve (M^T M + rho I) z = M^T y + vec(k) + rho vec(x).

    Returns z and the solver's M z (None for a tall or square matrix).
    """
    b = matrix.T @ y + vec(k_mult) + rho * vec(x_next)
    z, mz = NormalEquationSolver(matrix).solve(b, matrix @ b, rho)
    return unvec(z, k_mult.shape), mz


def test_normal_equation_solver_zero_matrix_map():
    dims = (3, 3, 2)
    k_mult = rand_tensor(70, dims)
    x_next = rand_tensor(71, dims)
    z, mz = z_block(np.zeros((4, 18)), np.zeros(4), k_mult, x_next, rho=2.0)
    assert np.allclose(z, x_next + k_mult / 2.0, atol=1e-12)
    assert np.all(mz == 0.0)


def test_normal_equation_solver_large_rho_limit():
    dims = (3, 3, 2)
    op = gaussian_map(6, dims, seed=9)
    k_mult = rand_tensor(72, dims)
    x_next = rand_tensor(73, dims)
    y = np.arange(6, dtype=float)
    z, _ = z_block(op.matrix, y, k_mult, x_next, rho=1e12)
    assert np.max(np.abs(z - x_next)) <= 1e-6


def _rank_deficient(gen, m, n):
    """A Gaussian m x n matrix whose second half of rows (wide) or columns
    (tall) repeats the first half, so its rank is min(m, n) // 2."""
    matrix = gen.standard_normal((m, n))
    half = min(m, n) // 2
    if m < n:
        matrix[half : 2 * half] = matrix[:half]
    else:
        matrix[:, half : 2 * half] = matrix[:, :half]
    return matrix


@pytest.mark.parametrize(
    "m,n,deficient",
    [(6, 18, False), (30, 18, False), (18, 18, False), (6, 18, True), (30, 18, True)],
    ids=["6-18", "30-18", "18-18", "6-18-deficient", "30-18-deficient"],
)
def test_normal_equation_solver_matches_dense_solve(m, n, deficient):
    dims = (3, 3, 2)
    gen = np.random.default_rng(m)
    matrix = _rank_deficient(gen, m, n) if deficient else gen.standard_normal((m, n))
    assert np.linalg.matrix_rank(matrix) == (min(m, n) // 2 if deficient else min(m, n))
    k_mult = gen.standard_normal(dims)
    x_next = gen.standard_normal(dims)
    y = gen.standard_normal(m)
    for rho in (1e-4, 1.0, 1e4):
        z, mz = z_block(matrix, y, k_mult, x_next, rho=rho)
        b = matrix.T @ y + vec(k_mult) + rho * vec(x_next)
        ref = np.linalg.solve(matrix.T @ matrix + rho * np.eye(n), b)
        assert np.max(np.abs(vec(z) - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
        if m < n:
            # The Woodbury solve's u is M z; the loop carries M k with it.
            # matrix @ z = (M b - M M^T u) / rho cancels two terms of size
            # |M b| / rho, so the comparison is relative to that size: at
            # rho = 1e-4 it resolves only ~1e-10 of |M z|.
            mz_ref = matrix @ vec(z)
            scale = max(np.linalg.norm(mz_ref), np.linalg.norm(matrix @ b) / rho)
            assert np.linalg.norm(mz - mz_ref) <= 1e-12 * scale
        else:
            assert mz is None


@pytest.mark.parametrize("shape", [(6, 18), (30, 18)], ids=["wide", "tall"])
def test_normal_equation_solver_rejects_nan_matrix(shape):
    matrix = np.ones(shape)
    matrix[1, 2] = np.nan
    with pytest.raises(NumericalError):
        NormalEquationSolver(matrix)


def test_normal_equation_solver_rejects_nonpositive_rho():
    solver = NormalEquationSolver(np.eye(3))
    with pytest.raises(ValueError):
        solver.solve(np.ones(3), np.ones(3), 0.0)


# ---------------------------------------------------------------------------
# full solves


def case1_instance(trial, sigma=0.0):
    from tubal.rng import derive_key
    from tubal import add_noise

    x = generate_lowrank(10, 10, 5, 1, derive_key(500, "solver-test", trial, "data"))
    op = gaussian_map(210, (10, 10, 5), derive_key(500, "solver-test", trial, "map"))
    sample = add_noise(apply(op, x), sigma, derive_key(500, "solver-test", trial, "noise"))
    return x, op, sample


def test_admm_zero_measurements():
    op = gaussian_map(10, (3, 3, 2), seed=1)
    res = admm_solve(op, np.zeros(10), SolverConfig(lam=0.5))
    assert res.converged
    assert np.all(res.x_hat == 0.0)
    assert res.iterations == 1


def test_admm_histories_and_objective_decrease():
    x, op, sample = case1_instance(0, sigma=0.01)
    config = SolverConfig(lam=0.1)
    res = admm_solve(op, sample.y, config)
    assert res.converged
    assert res.residual_history.shape == (res.iterations, 3)
    assert res.objective_history.shape == (res.iterations,)
    start = float(sample.y @ sample.y) / (2 * config.lam)
    assert res.objective_history[0] == pytest.approx(start, rel=1e-12)
    assert res.objective_history[-1] <= start
    # consensus gap below tolerance at convergence
    assert res.residual_history[-1].max() <= solver._VARPI


def test_admm_deterministic():
    x, op, sample = case1_instance(1, sigma=0.01)
    res1 = admm_solve(op, sample.y, SolverConfig(lam=0.1))
    res2 = admm_solve(op, sample.y, SolverConfig(lam=0.1))
    assert np.array_equal(res1.x_hat, res2.x_hat)
    assert res1.iterations == res2.iterations


def test_admm_kkt_spot_check():
    x, op, sample = case1_instance(2, sigma=0.01)
    res = admm_solve(op, sample.y, SolverConfig(lam=0.1))
    state = res.final_state
    viol = prox_optimality_check(state.last_prox_input, state.last_prox_tau, res.x_hat)
    assert viol <= 1e-6


def test_admm_noiseless_recovery_small_lambda():
    x, op, sample = case1_instance(3, sigma=0.0)
    res = admm_solve(op, sample.y, SolverConfig(lam=1e-4, max_iters=20000))
    assert fro_norm(res.x_hat - x) <= 1e-2 * fro_norm(x)


def reference_admm(op, y, config):
    """admm_solve with M b and the residual M x formed from the matrix in
    every sweep, instead of carried: the reference for the carried products.

    Returns (x, iterations, converged, objectives, rho, tau), where rho and
    tau are the penalty and threshold of the last sweep's prox step."""
    matrix, dims = op.matrix, op.dims
    ne_solver = NormalEquationSolver(matrix)
    mty = matrix.T @ y
    x = z = k_mult = np.zeros(dims)
    rho = solver._RHO0
    objectives = []
    for iteration in range(1, config.max_iters + 1):
        x_prev, z_prev = x, z
        tau = config.lam / rho
        x = tsvt(z - k_mult / rho, tau)
        b = mty + vec(k_mult) + rho * vec(x)
        z = unvec(ne_solver.solve(b, matrix @ b, rho)[0], dims)
        k_mult = k_mult + rho * (x - z)
        x_step = np.max(np.abs(x - x_prev))
        z_step = np.max(np.abs(z - z_prev))
        consensus = np.max(np.abs(x - z))
        residual = y - matrix @ vec(x)
        objectives.append(tnn(x) + float(residual @ residual) / (2.0 * config.lam))
        converged = max(x_step, z_step, consensus) <= solver._VARPI
        if converged or iteration == config.max_iters:
            return x, iteration, converged, np.asarray(objectives), rho, tau
        if consensus > solver._BALANCE_RATIO * rho * z_step:
            rho = min(solver._VARTHETA * rho, solver._RHO_MAX)
        elif rho * z_step > solver._BALANCE_RATIO * consensus:
            rho = max(rho / solver._VARTHETA, solver._RHO0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3)),
    shape=st.sampled_from(["wide", "square", "tall", "deficient"]),
    m_frac=st.floats(0.2, 0.9),
    lam=st.sampled_from([1e-3, 0.1, 1.0]),
    max_iters=st.sampled_from([2000, 1, 3, 10]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=(4, 4, 3), shape="wide", m_frac=0.5, lam=0.1, max_iters=2000, seed=0)
@example(dims=(3, 4, 2), shape="deficient", m_frac=0.7, lam=0.01, max_iters=2000, seed=1)
@example(dims=(3, 3, 2), shape="tall", m_frac=0.5, lam=0.1, max_iters=2000, seed=2)
def test_admm_matches_loop_that_forms_every_product(dims, shape, m_frac, lam, max_iters, seed):
    # The solver carries M k and takes M z from the wide solve; drift in the
    # carried product would show as a different objective or iterate.
    n = int(np.prod(dims))
    m = {"square": n, "tall": 2 * n}.get(shape, max(2, int(m_frac * n)))
    op = gaussian_map(m, dims, seed)
    if shape == "deficient":
        # the second half of the rows repeats the first half
        matrix = op.matrix.copy()
        matrix[m // 2 : 2 * (m // 2)] = matrix[: m // 2]
        op = dataclasses.replace(op, matrix=matrix)
    x_true = generate_lowrank(dims[0], dims[1], dims[2], 1, seed)
    y = apply(op, x_true) + 0.01 * np.random.default_rng(seed).standard_normal(m)
    config = SolverConfig(lam=lam, max_iters=max_iters)

    res = admm_solve(op, y, config)
    x_ref, iterations, converged, objectives, rho, tau = reference_admm(op, y, config)

    assert res.iterations == iterations
    assert res.converged == converged
    # a capped solve still reports the penalty its last prox step used, not
    # the one rebalanced after it
    assert res.final_state.iteration == iterations
    assert res.final_state.rho == rho
    assert res.final_state.last_prox_tau == tau
    assert fro_norm(res.x_hat - x_ref) <= 1e-10 * fro_norm(x_ref)
    # y - M x cancels as x fits the data, so the objective is compared on the
    # scale of its first value, |y|^2 / (2 lam) at x = 0
    assert np.all(np.abs(res.objective_history - objectives) <= 1e-10 * objectives[0])


def test_admm_rejects_nonfinite_measurements():
    op = gaussian_map(8, (2, 2, 2), seed=3)
    for bad in (np.nan, np.inf, -np.inf):
        y = np.ones(8)
        y[5] = bad
        with pytest.raises(ValueError, match="finite"):
            admm_solve(op, y, SolverConfig(lam=1.0))


def test_admm_nonfinite_abort():
    op = gaussian_map(8, (2, 2, 2), seed=3)
    y = np.full(8, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            admm_solve(op, y, SolverConfig(lam=1.0))


def test_admm_rejects_bad_measurement_length():
    op = gaussian_map(8, (2, 2, 2), seed=3)
    with pytest.raises(ValueError):
        admm_solve(op, np.zeros(7), SolverConfig(lam=1.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, max_iters=0)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError):
            SolverConfig(lam=lam)
