import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubal import (
    GaussianLinearMap,
    NumericalError,
    SolveResult,
    SolverConfig,
    admm_solve,
    apply,
    conj_transpose,
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


def dual_norm(v):
    """The TNN's dual norm: the largest singular value over the Fourier slices."""
    return np.linalg.svd(np.fft.fft(v, axis=2).transpose(2, 0, 1), compute_uv=False).max()


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


def test_tsvt_overflow_is_a_numerical_error():
    # a finite input whose slice spectrum passes the largest float
    with pytest.raises(NumericalError, match="finite range"):
        tsvt(np.full((3, 3, 4), 3e307), 0.1)


def test_tsvt_rejects_negative_tau():
    with pytest.raises(ValueError):
        tsvt(np.zeros((2, 2, 2)), -1.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf, True, "0.5"], ids=["nan", "inf", "bool", "string"])
def test_tsvt_reads_a_finite_real_tau(tau):
    # a NaN tau would return an all-NaN tensor, and True would threshold at 1.0
    with pytest.raises(ValueError, match="tau"):
        tsvt(rand_tensor(9, (2, 2, 2)), tau)


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


# dims up to 8x8x6, v at scales 10^+-30, and tau from 1e-12 of the largest
# slice singular value of v to past it, where x = 0
bound_cases = dict(
    dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-30.0, 30.0),
    log_tau_frac=st.floats(-12.0, math.log10(1.6)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**bound_cases)
@example(dims=(8, 8, 6), seed=0, log_scale=30.0, log_tau_frac=-12.0)
@example(dims=(8, 8, 6), seed=1, log_scale=-30.0, log_tau_frac=-1.0)
@example(dims=(1, 8, 1), seed=2, log_scale=0.0, log_tau_frac=math.log10(1.6))
def test_free_tnn_of_the_prox_is_its_tnn_within_the_slack(dims, seed, log_scale, log_tau_frac):
    # tsvt keeps each slice singular value above tau, shrunk by tau, so
    # tau TNN(x) = <x, v - x>; the solver takes a sweep's TNN from this
    # identity whenever that sweep cannot stop
    v = 10.0**log_scale * rand_tensor(seed, dims)
    tau = 10.0**log_tau_frac * dual_norm(v)
    x = tsvt(v, tau)
    tnn_free, slack = solver._free_tnn(vec(x), vec(v), tau)
    assert abs(tnn_free - tnn(x)) <= slack


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**bound_cases, aligned=st.booleans(), log_k_scale=st.floats(-30.0, 30.0))
@example(dims=(8, 8, 6), seed=0, log_scale=0.0, log_tau_frac=-1.0, aligned=True, log_k_scale=0.0)
@example(dims=(8, 8, 6), seed=1, log_scale=30.0, log_tau_frac=-3.0, aligned=False, log_k_scale=-30.0)
def test_dual_norm_times_tnn_bounds_the_inner_product(dims, seed, log_scale, log_tau_frac, aligned, log_k_scale):
    # Hoelder for the TNN and its dual norm, |<k, x>| <= ||k||_2 TNN(x), on
    # which the solver's free lower bound on ||k||_2 rests.  k = v - x is
    # tau times a subgradient of the TNN at x, where equality holds
    v = 10.0**log_scale * rand_tensor(seed, dims)
    x = tsvt(v, 10.0**log_tau_frac * dual_norm(v))
    k = v - x if aligned else 10.0**log_k_scale * rand_tensor(seed + 1, dims)
    assert abs(float(vec(k) @ vec(x))) <= dual_norm(k) * tnn(x) * (1 + 1e-12)


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

    Returns z and the solver's M z.
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
        # The solve's M z is what the loop carries M k with; it must be M
        # times the returned z and the dense reference.  On a wide M it is
        # the Woodbury u: matrix @ z = (M b - M M^T u) / rho cancels two
        # terms of size |M b| / rho, so the comparison is relative to that
        # size: at rho = 1e-4 it resolves only ~1e-10 of |M z|.
        for mz_ref in (matrix @ vec(z), matrix @ ref):
            scale = max(np.linalg.norm(mz_ref), np.linalg.norm(matrix @ b) / rho)
            assert np.linalg.norm(mz - mz_ref) <= 1e-12 * scale


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


def test_admm_zero_measurements_certify_a_zero_gap():
    # y = 0 gives P(0) = D(0) = 0: the gap is 0 by definition, not 0/0
    op = gaussian_map(10, (3, 3, 2), seed=1)
    res = admm_solve(op, np.zeros(10), SolverConfig(lam=0.5))
    assert res.converged and res.iterations == 1
    assert res.gap == 0.0
    assert np.all(res.dual == 0.0)


def test_admm_zero_operator_leaves_the_dual_scale_unbounded():
    # M = 0 keeps the multiplier at 0, so every multiple of y - M z is
    # feasible and the unconstrained maximizer u = y / lam certifies x = 0
    op = gaussian_map(6, (2, 2, 2), seed=4)
    op = dataclasses.replace(op, matrix=np.zeros_like(op.matrix))
    y = np.arange(1.0, 7.0)
    res = admm_solve(op, y, SolverConfig(lam=0.5))
    assert res.converged and res.iterations == 1
    assert np.all(res.x_hat == 0.0)
    assert res.gap == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(res.dual, y / 0.5, rtol=1e-15, atol=0.0)


def test_dual_point_maximizes_on_the_feasible_interval():
    y, lam, objective = np.array([3.0, 4.0]), 2.0, 12.5

    def gap(residual, k_norm):
        return solver._gap(objective, float(y @ residual), float(residual @ residual), k_norm, lam)

    # <y, u0> > 0 with no bound: s maximizes D, here s = 1 and u = residual / lam
    value, s = gap(y, 0.0)
    assert s == 1.0 and value == pytest.approx((objective - 25.0 / 4.0) / objective)
    # a bound of lam / k_norm = 0.25 caps s
    value, s = gap(y, 8.0)
    assert s == 0.25 and value == pytest.approx((objective - (0.25 * 12.5 - 0.25**2 * 6.25)) / objective)
    # a residual against y gives s = 0: u = 0 and D = 0
    value, s = gap(-y, 1.0)
    assert s == 0.0 and value == 1.0


@pytest.mark.parametrize("case", ["wide", "square", "tall", "start-certified", "capped"])
def test_admm_certificate_checks_from_dual_alone(case):
    # the reported dual point is feasible and its gap is the reported one,
    # checked from y, lam, x_hat and one product by M^T, at each of the
    # solve's ends: a stop, the start certificate and the cap
    dims = (4, 4, 3)
    m = {"square": 48, "tall": 96}.get(case, 30)
    op = gaussian_map(m, dims, seed=11)
    y = apply(op, generate_lowrank(4, 4, 3, 1, seed=11)) + 0.01 * np.random.default_rng(11).standard_normal(m)
    lam = 2.0 * dual_norm(unvec(op.matrix.T @ y, dims)) if case == "start-certified" else 0.1
    res = admm_solve(op, y, SolverConfig(lam=lam, max_iters=3 if case == "capped" else 500))
    if case == "capped":
        assert res.iterations == 3
    else:
        assert res.converged and 0.0 <= res.gap <= solver._GAP_TOL
    assert (res.iterations == 1) == (case == "start-certified")
    assert dual_norm(unvec(op.matrix.T @ res.dual, dims)) <= 1.0 + 1e-12
    residual = y - apply(op, res.x_hat)
    primal = tnn(res.x_hat) + float(residual @ residual) / (2.0 * lam)
    dual = float(y @ res.dual) - 0.5 * lam * float(res.dual @ res.dual)
    assert primal - dual == pytest.approx(res.gap * primal, rel=1e-9)


def small_instance(dims, shape, m_frac, seed):
    """A wide, square, tall or rank-deficient map on dims and noisy data of a
    rank-1 truth; the deficient map repeats its first half of rows."""
    n = int(np.prod(dims))
    m = {"square": n, "tall": 2 * n}.get(shape, max(2, int(m_frac * n)))
    op = gaussian_map(m, dims, seed)
    if shape == "deficient":
        matrix = op.matrix.copy()
        matrix[m // 2 : 2 * (m // 2)] = matrix[: m // 2]
        op = dataclasses.replace(op, matrix=matrix)
    y = apply(op, generate_lowrank(dims[0], dims[1], dims[2], 1, seed))
    return op, y + 0.01 * np.random.default_rng(seed).standard_normal(m)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3)),
    shape=st.sampled_from(["wide", "square", "tall", "deficient"]),
    m_frac=st.floats(0.2, 0.9),
    lam=st.sampled_from([1e-4, 1e-3, 0.1, 1.0]),
    max_iters=st.sampled_from([2000, 2, 10, 40]),
    seed=st.integers(0, 2**32 - 1),
    start_factor=st.sampled_from([None, 0.1, 10.0]),
)
@example(dims=(4, 4, 3), shape="wide", m_frac=0.5, lam=1e-3, max_iters=40, seed=0, start_factor=None)
@example(dims=(3, 4, 2), shape="deficient", m_frac=0.7, lam=1e-4, max_iters=2000, seed=1, start_factor=None)
@example(dims=(4, 4, 3), shape="tall", m_frac=0.5, lam=1e-4, max_iters=2000, seed=2, start_factor=10.0)
def test_accelerated_solve_is_certified_from_outside(dims, shape, m_frac, lam, max_iters, seed, start_factor):
    # the mixed points never reach the exit: from y, lam, x_hat and the dual
    # point alone, u is feasible and, when the solve converged, its gap is
    # within the tolerance (up to the roundoff of forming P and D here);
    # the final state replays x_hat, capped solves included.  The solve
    # starts from x = 0 or from the same instance solved at another lam
    op, y = small_instance(dims, shape, m_frac, seed)
    start = None
    if start_factor is not None:
        start = admm_solve(op, y, SolverConfig(lam=start_factor * lam, max_iters=max_iters))
    res = admm_solve(op, y, SolverConfig(lam=lam, max_iters=max_iters), start)
    assert dual_norm(unvec(op.matrix.T @ res.dual, dims)) <= 1.0 + 1e-9
    if res.converged:
        residual = y - apply(op, res.x_hat)
        primal = tnn(res.x_hat) + float(residual @ residual) / (2.0 * lam)
        dual = float(y @ res.dual) - 0.5 * lam * float(res.dual @ res.dual)
        assert primal - dual <= (solver._GAP_TOL + 1e-9) * primal
    state = res.final_state
    assert tsvt(state.last_prox_input, state.last_prox_tau).tobytes() == res.x_hat.tobytes()


def test_admm_safeguard_rejects_a_bad_mix_and_still_converges(monkeypatch):
    # a mix that overshoots five steps past the newest output is still an
    # affine combination of sweep outputs, so it keeps M^T (y - M z) = -k,
    # but it grows the residual: the safeguard goes back to the last plain
    # output and clears the memory, and the solve reaches the objective of
    # the unpatched one
    x, op, sample = case1_instance(0, sigma=0.01)
    config = SolverConfig(lam=0.1)
    plain = admm_solve(op, sample.y, config)
    real_mix, real_clear = solver._AndersonMixer.mix, solver._AndersonMixer.clear
    clears, taus = [], []

    def overshooting_mix(self, f, g):
        mixed = real_mix(self, f, g)
        newest = self._dg[(self._slot - 1) % solver._AA_MEMORY]
        return None if mixed is None else g + 5.0 * newest

    def counting_clear(self):
        clears.append(len(taus))
        real_clear(self)

    real_tsvt = solver.tsvt
    monkeypatch.setattr(solver._AndersonMixer, "mix", overshooting_mix)
    monkeypatch.setattr(solver._AndersonMixer, "clear", counting_clear)
    monkeypatch.setattr(solver, "tsvt", lambda v, tau: taus.append(tau) or real_tsvt(v, tau))
    res = admm_solve(op, sample.y, config)
    # a clear after a sweep whose penalty the next one keeps is a rejection
    rejections = [i for i in clears if 0 < i < len(taus) and taus[i] == taus[i - 1]]
    assert len(rejections) >= 5
    assert res.converged and res.gap <= solver._GAP_TOL
    assert res.objective_history[-1] == pytest.approx(plain.objective_history[-1], rel=2e-6)


@pytest.mark.parametrize("lam", [0.1, 1e-4])
def test_zblock_identity_holds_during_a_solve(monkeypatch, lam):
    # M^T (y - M z) = -k, with the loop's carried y - M z, holds after
    # every multiplier update and at every mixed point, an affine
    # combination of such states.  After the first sweep the z block solves
    # (M^T M + rho I) (z' - z) = rho (x - z), so each sweep's input state
    # is read back from the solve's right-hand sides b and M b and the
    # prox input z - k/rho
    x, op, sample = case1_instance(0, sigma=0.01)
    solves, prox = [], []
    real_solve, real_tsvt = NormalEquationSolver.solve, solver.tsvt

    def recording_solve(self, b, mb, rho):
        step = real_solve(self, b, mb, rho)
        solves.append((b, mb, rho, *step))
        return step

    def recording_tsvt(v, tau):
        prox.append((vec(v), real_tsvt(v, tau)))
        return prox[-1][1]

    monkeypatch.setattr(NormalEquationSolver, "solve", recording_solve)
    monkeypatch.setattr(solver, "tsvt", recording_tsvt)
    admm_solve(op, sample.y, SolverConfig(lam=lam, max_iters=300))
    assert len(prox) > 100
    # the loop runs in units of c, the power of two with c <= max|y| < 2c
    c = math.ldexp(0.5, math.frexp(np.max(np.abs(sample.y)))[1])
    y, matrix = sample.y / c, op.matrix
    for (b, mb, rho, step, m_step), (v, x_next) in list(zip(solves, prox))[1:]:
        x_vec = vec(x_next)
        z, mz = x_vec - b / rho, matrix @ x_vec - mb / rho
        k_mult = rho * (z - v)
        z_next = z + step
        for z, mz, k_mult in ((z, mz, k_mult), (z_next, mz + m_step, k_mult + rho * (x_vec - z_next))):
            identity = matrix.T @ (y - mz) + k_mult
            assert np.linalg.norm(identity) <= 1e-9 * np.linalg.norm(k_mult)
            assert np.linalg.norm(mz - matrix @ z) <= 1e-9 * np.linalg.norm(mz)


def scaling_instance(dims, m_frac, seed):
    n = int(np.prod(dims))
    m = max(2, int(m_frac * n))
    op = gaussian_map(m, dims, seed)
    y = apply(op, generate_lowrank(dims[0], dims[1], dims[2], 1, seed))
    return op, y + 0.01 * np.random.default_rng(seed).standard_normal(m)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3)),
    m_frac=st.floats(0.3, 0.9),
    lam=st.sampled_from([1e-2, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=(4, 4, 3), m_frac=0.5, lam=0.1, seed=0)
def test_admm_scaling_data_and_lambda_scales_the_answer(dims, m_frac, lam, seed):
    # (y, lam) -> (c y, c lam) scales P, D and every iterate by c at the
    # same penalty, so the stopping rule fires at the same sweep; the
    # solve runs in units near max|y|, so this holds up to the ends of the
    # float range, and x_hat / c is compared since c x_hat itself
    # overflows at c = 1e160.  A start solved at 10 lam, scaled with the
    # data, starts every scaled solve at the same point in units of c
    op, y = scaling_instance(dims, m_frac, seed)

    def scaled(start, c):
        return None if start is None else dataclasses.replace(start, x_hat=c * start.x_hat)

    for start in (None, admm_solve(op, y, SolverConfig(lam=10.0 * lam))):
        base = admm_solve(op, y, SolverConfig(lam=lam), start)
        assert base.converged
        for c in (1e-300, 1e-160, 1e-3, 1e3, 1e160, 1e300):
            res = admm_solve(op, c * y, SolverConfig(lam=c * lam), scaled(start, c))
            assert res.iterations == base.iterations and res.converged
            assert fro_norm(res.x_hat / c - base.x_hat) <= 1e-9 * fro_norm(base.x_hat)
        # a power of two changes only the solve's unit, which is exact
        for c in (2.0**-1000, 2.0**1000):
            res = admm_solve(op, c * y, SolverConfig(lam=c * lam), scaled(start, c))
            assert res.iterations == base.iterations and res.gap == base.gap
            assert np.array_equal(res.x_hat / c, base.x_hat)


def test_admm_at_the_top_of_the_float_range_solves_the_base_problem():
    # P(0) = |y|^2 / (2 lam) exceeds the float range and reads inf, without
    # a warning; the iterates, in units of max|y|, do not
    op, y = scaling_instance((4, 4, 3), 0.5, 0)
    base = admm_solve(op, y, SolverConfig(lam=0.1))
    c = 1e307 / np.max(np.abs(y))
    res = admm_solve(op, c * y, SolverConfig(lam=c * 0.1))
    assert res.converged and res.iterations == base.iterations
    assert fro_norm(res.x_hat / c - base.x_hat) <= 1e-9 * fro_norm(base.x_hat)
    assert res.objective_history[0] == np.inf


def refuse_to_factor(matrix):
    raise AssertionError("the solve should not factor the measurement matrix")


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3)),
    m_frac=st.floats(0.3, 1.5),
    log_a=st.floats(0.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=(4, 4, 3), m_frac=0.5, log_a=0.0, seed=0)
@example(dims=(3, 3, 2), m_frac=1.5, log_a=300.0, seed=1)
def test_admm_certifies_zero_before_any_sweep(dims, m_frac, log_a, seed):
    # at lam >= ||M^T y||_2 the zero start is optimal: z = 0 has the
    # multiplier -M^T y, so its gap is certified before M is factored
    op, y = scaling_instance(dims, m_frac, seed)
    lam = 10.0**log_a * dual_norm(unvec(op.matrix.T @ y, dims))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "NormalEquationSolver", refuse_to_factor)
        res = admm_solve(op, y, SolverConfig(lam=lam))
    assert res.iterations == 1 and res.converged
    assert np.all(res.x_hat == 0.0)
    assert res.gap <= 1e-6
    assert dual_norm(unvec(op.matrix.T @ res.dual, dims)) <= 1.0 + 1e-12
    assert res.objective_history.tolist() == pytest.approx([float(y @ y) / (2.0 * lam)], rel=1e-12)
    state = res.final_state
    assert state.rho == solver._RHO0 and np.all(state.last_prox_input == 0.0)
    assert state.last_prox_tau == 0.0
    # below ||M^T y||_2, x = 0 is not optimal: the loop runs and moves off
    # it.  The certified solve as a start is x = 0 at _RHO0, the cold start,
    # so it reproduces the cold solve byte for byte
    config = SolverConfig(lam=0.5 * lam / 10.0**log_a)
    cold, warm = admm_solve(op, y, config), admm_solve(op, y, config, res)
    assert cold.iterations > 1 and np.any(cold.x_hat != 0.0)
    assert warm.iterations == cold.iterations and warm.gap == cold.gap
    for name in ("x_hat", "objective_history", "dual"):
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
    assert warm.final_state.rho == cold.final_state.rho
    assert warm.final_state.last_prox_input.tobytes() == cold.final_state.last_prox_input.tobytes()


@pytest.mark.parametrize(
    "x_hat, rho",
    [(np.zeros((4, 4, 2)), 1.0), (np.full((4, 4, 3), np.nan), 1.0), (np.full((4, 4, 3), np.inf), 1.0),
     (np.zeros((4, 4, 3)), np.nan), (np.zeros((4, 4, 3)), 0.0), (np.zeros((4, 4, 3)), 1e12),
     (np.zeros((4, 4, 3)), 1e-30)],
    ids=["dims", "nan", "inf", "rho-nan", "rho-zero", "rho-above-bracket", "rho-below-bracket"],
)
def test_admm_rejects_a_start_it_cannot_read_before_factoring(monkeypatch, x_hat, rho):
    # a start is read at the door, like y: before the start certificate and
    # before the measurement matrix is factored
    op, y = scaling_instance((4, 4, 3), 0.5, 0)
    good = admm_solve(op, y, SolverConfig(lam=1.0))
    start = dataclasses.replace(good, x_hat=x_hat, final_state=dataclasses.replace(good.final_state, rho=rho))
    monkeypatch.setattr(solver, "NormalEquationSolver", refuse_to_factor)
    with pytest.raises(ValueError, match="start"):
        admm_solve(op, y, SolverConfig(lam=0.1), start)


def test_admm_start_certified_state_replays_at_any_lambda():
    # the start certificate exits in the state of the no-op sweep
    # x = tsvt(0, 0) = 0, so the state stays finite and replays where
    # lam / _RHO0 overflows; case1 trial 0 at sigma = 0.01
    from tubal import add_noise, case1_spec
    from tubal.bench import draw_instance

    spec = case1_spec(trials=1)
    x, op, y_clean, noise_seed = draw_instance(
        spec.n, spec.n3, spec.r, spec.sample_count, spec.base_seed, spec.case_name, 0
    )
    res = admm_solve(op, add_noise(y_clean, 0.01, noise_seed).y, SolverConfig(lam=1e305))
    assert res.iterations == 1 and res.converged
    state = res.final_state
    assert math.isfinite(state.rho) and math.isfinite(state.last_prox_tau)
    assert np.isfinite(state.last_prox_input).all()
    assert tsvt(state.last_prox_input, state.last_prox_tau).tobytes() == res.x_hat.tobytes()


def test_admm_lam_that_overflows_against_the_data_is_a_numerical_error(monkeypatch):
    # lam / max|y| = 1e310 is above the float range: read as inf, it would
    # certify x = 0 with a zero gap, so the solve stops at the door
    monkeypatch.setattr(solver, "NormalEquationSolver", refuse_to_factor)
    op = gaussian_map(8, (2, 2, 2), seed=3)
    with pytest.raises(NumericalError, match="overflows"):
        admm_solve(op, np.full(8, 1e-300), SolverConfig(lam=1e10))


@pytest.mark.parametrize("lam", [1e-8, 1e-5, 1e-3])
def test_admm_certificate_near_the_top_of_the_float_range(lam):
    # capped solves of y ~ 1e307: the gap is the unit-scale one, not NaN
    op = gaussian_map(30, (3, 3, 4), 0)
    y = np.random.default_rng(0).standard_normal(30) / 3
    base = admm_solve(op, y, SolverConfig(lam=lam, max_iters=200))
    res = admm_solve(op, 1e307 * y, SolverConfig(lam=1e307 * lam, max_iters=200))
    assert np.isfinite(res.gap) and res.gap == pytest.approx(base.gap, rel=1e-3)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(1, 4)),
    lam=st.sampled_from([0.1, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=(4, 7, 3), lam=1e-3, seed=0)
@example(dims=(7, 4, 2), lam=0.1, seed=1)
@example(dims=(5, 5, 4), lam=1e-3, seed=2)
def test_admm_is_equivariant_under_transpose(dims, lam, seed):
    # TNN(x^T) = TNN(x), so with M' vec(x^T) = M vec(x) the problem for
    # x^T is the problem for x, and the solve takes the same path; capped
    # solves (max_iters=500 at lam=1e-3) are compared too
    n1, n2, n3 = dims
    n = n1 * n2 * n3
    m = max(2, n // 2)
    op = gaussian_map(m, dims, seed)
    y = apply(op, generate_lowrank(n1, n2, n3, 1, seed)) + 0.01 * np.random.default_rng(seed).standard_normal(m)
    # column p of M' is the column of M that vec(x^T)[p] comes from
    perm = vec(conj_transpose(unvec(np.arange(n, dtype=float), dims))).astype(int)
    op_t = GaussianLinearMap(dims=(n2, n1, n3), matrix=op.matrix[:, perm])
    probe = rand_tensor(seed % 1000, dims)
    assert np.allclose(apply(op_t, conj_transpose(probe)), apply(op, probe), rtol=1e-12, atol=1e-12)

    base = admm_solve(op, y, SolverConfig(lam=lam))
    res = admm_solve(op_t, y, SolverConfig(lam=lam))
    assert res.iterations == base.iterations
    assert res.converged == base.converged
    assert abs(res.gap - base.gap) <= 1e-9
    assert fro_norm(res.x_hat - conj_transpose(base.x_hat)) <= 1e-10 * fro_norm(base.x_hat)


def test_admm_histories_and_objective_decrease():
    x, op, sample = case1_instance(0, sigma=0.01)
    config = SolverConfig(lam=0.1)
    res = admm_solve(op, sample.y, config)
    assert res.converged
    assert res.objective_history.shape == (res.iterations,)
    start = float(sample.y @ sample.y) / (2 * config.lam)
    assert res.objective_history[0] == pytest.approx(start, rel=1e-12)
    assert res.objective_history[-1] <= start
    # relative duality gap below tolerance at convergence
    assert res.gap <= solver._GAP_TOL


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
    """admm_solve with M b, the residual M x and the dual point's M z and
    M^T u0 formed from the matrix in every sweep, instead of carried or
    taken from the z-block identity: the reference for the carried products.
    Its Anderson mixing restacks the last differences of f = g - w and of
    g = (z, k) each sweep and solves the regularized normal equations of
    ``||f - dF gamma||`` afresh, with f in the coordinates (z, k / rho).

    Returns (x, iterations, converged, objectives, gaps, rho, tau), where
    gaps holds every sweep's relative duality gap and rho and tau are the
    penalty and threshold of the last sweep's prox step; a start
    certificate returns x = 0 after 1 iteration with tau = 0."""
    matrix, dims, lam = op.matrix, op.dims, config.lam

    def objective_and_gap(x, z):
        residual = y - matrix @ vec(x)
        objective = tnn(x) + float(residual @ residual) / (2.0 * lam)
        # D(s u0) = s <y, u0> - (lam/2) s^2 |u0|^2 on |M^T (s u0)| <= 1
        u0 = (y - matrix @ vec(z)) / lam
        s = max(float(y @ u0) / (lam * float(u0 @ u0)), 0.0) if u0 @ u0 > 0 else 0.0
        bound = dual_norm(unvec(matrix.T @ u0, dims))
        if bound > 0:
            s = min(s, 1.0 / bound)
        dual = s * float(y @ u0) - 0.5 * lam * s * s * float(u0 @ u0)
        return objective, (objective - dual) / objective if objective > 0 else 0.0

    x = z = k_mult = np.zeros(dims)
    rho = solver._RHO0
    # the start certificate: x = z = 0, whose multiplier is -M^T y
    objective, gap = objective_and_gap(x, z)
    if gap <= solver._GAP_TOL:
        return x, 1, True, np.array([objective]), np.array([gap]), rho, 0.0
    ne_solver = NormalEquationSolver(matrix)
    objectives, gaps = [], []
    history, mixed, f_norm = [], False, math.inf
    for iteration in range(1, config.max_iters + 1):
        z_prev, k_prev = z, k_mult
        tau = lam / rho
        x = tsvt(z - k_mult / rho, tau)
        if iteration == 1:
            # from x = z = k = 0 the z update is (M^T M + rho I)^-1 M^T y,
            # taken as M^T (M M^T + rho I)^-1 y, which divides by no rho
            z = unvec(matrix.T @ np.linalg.solve(matrix @ matrix.T + rho * np.eye(len(y)), y), dims)
        else:
            # M^T (y - M z) = -k after every update, so the update solves
            # (M^T M + rho I) (z' - z) = rho (x - z)
            b = rho * vec(x - z)
            z = z + unvec(ne_solver.solve(b, matrix @ b, rho)[0], dims)
        k_mult = k_mult + rho * (x - z)
        z_step = np.max(np.abs(z - z_prev))
        consensus = np.max(np.abs(x - z))
        objective, gap = objective_and_gap(x, z)
        objectives.append(objective)
        gaps.append(gap)
        converged = gaps[-1] <= solver._GAP_TOL
        if converged or iteration == config.max_iters:
            return x, iteration, converged, np.asarray(objectives), np.asarray(gaps), rho, tau
        # the absolute balance in max-norms and the relative one in 2-norms,
        # primal p = |x - z| / max(|x|, |z|) against dual d = rho |z - z_prev| / |k|:
        # grow when both call for it, shrink when either does
        p = fro_norm(x - z) / max(fro_norm(x), fro_norm(z))
        d = rho * fro_norm(z - z_prev) / fro_norm(k_mult)
        sweep_rho = rho
        if consensus > solver._BALANCE_RATIO * rho * z_step and d < solver._BAND_LOW * p:
            rho = min(solver._VARTHETA * rho, solver._RHO_MAX)
        elif rho * z_step > solver._BALANCE_RATIO * consensus or d > solver._BAND_HIGH * p:
            rho = max(rho / solver._VARTHETA, solver._RHO0)
        # Anderson mixing at fixed rho: a step from a mixed point that grew
        # |f| goes back to the last plain output, and a new rho starts over
        f = np.concatenate((vec(z - z_prev), vec(k_mult - k_prev) / sweep_rho))
        f_norm, f_norm_last = np.linalg.norm(f), f_norm
        if mixed and not f_norm <= f_norm_last:
            history, mixed = [], False
            z, k_mult = history_plain
        elif rho != sweep_rho:
            history, mixed = [], False
        else:
            history_plain = z, k_mult
            history = (history + [(f, np.concatenate((vec(z), vec(k_mult))))])[-solver._AA_MEMORY - 1 :]
            mixed = len(history) > 1
            if mixed:
                df = np.array([b[0] - a[0] for a, b in zip(history, history[1:])])
                dg = np.array([b[1] - a[1] for a, b in zip(history, history[1:])])
                gram = df @ df.T
                reg = solver._AA_REG * np.linalg.norm(gram) * np.eye(len(df))
                g = history[-1][1] - np.linalg.solve(gram + reg, df @ f) @ dg
                z, k_mult = unvec(g[: z.size], dims), unvec(g[z.size :], dims)


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
# taking the exact gap only where a free upper bound on it is within 100x
# the tolerance stops 114 sweeps late here
@example(dims=(2, 2, 1), shape="wide", m_frac=0.5, lam=1e-3, max_iters=2000, seed=0)
def test_admm_matches_loop_that_forms_every_product(dims, shape, m_frac, lam, max_iters, seed):
    # The solver carries y - M z, mixed with the rest of its state, and
    # takes the image of each z step from the wide solve; drift in the
    # carried residual would show as a different objective or iterate.
    op, y = small_instance(dims, shape, m_frac, seed)
    config = SolverConfig(lam=lam, max_iters=max_iters)

    res = admm_solve(op, y, config)
    x_ref, iterations, converged, objectives, gaps, rho, tau = reference_admm(op, y, config)

    assert res.iterations == iterations
    assert res.converged == converged
    # a capped solve still reports the penalty its last prox step used, not
    # the one rebalanced after it
    assert res.final_state.rho == rho
    assert res.final_state.last_prox_tau == tau
    assert fro_norm(res.x_hat - x_ref) <= 1e-10 * fro_norm(x_ref)
    # y - M x cancels as x fits the data, so the objective is compared on the
    # scale of its first value, |y|^2 / (2 lam) at x = 0
    assert np.all(np.abs(res.objective_history - objectives) <= 1e-10 * objectives[0])
    # weak duality: no sweep's gap is negative beyond roundoff, and the
    # solver's exit gap, from the z-block identity, agrees with the one the
    # matrix products give to a tenth of the tolerance (they differ by up to
    # 2e-9 on these examples)
    assert np.all(gaps >= -1e-12) and res.gap >= -1e-12
    assert abs(res.gap - gaps[-1]) <= 0.1 * solver._GAP_TOL


@pytest.mark.parametrize("max_iters", [500, 5], ids=["converged", "capped"])
def test_admm_takes_the_exact_tnn_in_the_last_sweep_only(monkeypatch, max_iters):
    # a free lower bound on the gap shows that every earlier sweep cannot
    # stop, so only the last sweep, the stop or the cap, runs tnn(x)
    x, op, sample = case1_instance(0, sigma=0.01)
    calls, real_tnn = [], solver.tnn

    def counting_tnn(t):
        calls.append(t)
        return real_tnn(t)

    monkeypatch.setattr(solver, "tnn", counting_tnn)
    res = admm_solve(op, sample.y, SolverConfig(lam=0.1, max_iters=max_iters))
    assert res.converged == (max_iters == 500)
    assert res.iterations > 5 if res.converged else res.iterations == 5
    assert len(calls) == 1


def test_admm_rejects_nonfinite_measurements():
    op = gaussian_map(8, (2, 2, 2), seed=3)
    for bad in (np.nan, np.inf, -np.inf):
        y = np.ones(8)
        y[5] = bad
        with pytest.raises(ValueError, match="finite"):
            admm_solve(op, y, SolverConfig(lam=1.0))


def _raises_without_warning(match, solve):
    # the solve's failure is its NumericalError, with no warning first,
    # whether or not warnings are errors
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(NumericalError, match=match):
                solve()
        assert caught == []


def test_admm_nonfinite_abort():
    op = gaussian_map(8, (2, 2, 2), seed=3)
    y = np.full(8, 1e308)
    _raises_without_warning("underflows", lambda: admm_solve(op, y, SolverConfig(lam=1.0)))


def test_admm_map_whose_products_overflow_is_a_numerical_error():
    # finite maps whose M^T y (entries 1e308) or Gram product (1e160)
    # overflows: the failure is a NumericalError, with no warning first
    for entry, match in ((1e308, "M\\^T y"), (1e160, "Gram")):
        op = GaussianLinearMap((2, 2, 2), np.full((3, 8), entry))
        _raises_without_warning(match, lambda: admm_solve(op, np.ones(3), SolverConfig(lam=1.0)))


def test_admm_iterates_whose_products_overflow_are_a_numerical_error():
    # M^T y and the Gram product of a 1e120 map are finite, but |y - M x|^2
    # overflows in the second sweep: the solve raises, with no warning
    # first and whether or not warnings are errors
    op = GaussianLinearMap((2, 2, 2), 1e120 * np.random.default_rng(0).standard_normal((3, 8)))
    _raises_without_warning(
        "non-finite residual norms at iteration 2", lambda: admm_solve(op, np.ones(3), SolverConfig(lam=1.0))
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    m_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    k=st.integers(-1000, 1000),
    log_lam=st.floats(-12.0, 6.0),
)
def test_admm_ends_in_a_result_or_a_numerical_error_at_any_scale(dims, m_frac, seed, k, log_lam):
    # y scaled by 2^k and lam / max|y| from 1e-12 to 1e6: whatever the
    # warnings filter, a solve returns or raises its NumericalError, and
    # nothing else leaves it
    n = math.prod(dims)
    m = 1 + round(m_frac * 2 * n)
    op = gaussian_map(m, dims, seed=seed)
    y = math.ldexp(1.0, k) * np.random.default_rng(seed).standard_normal(m)
    lam = 10.0**log_lam * float(np.max(np.abs(y)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(admm_solve(op, y, SolverConfig(lam=lam, max_iters=50)), SolveResult)
        except NumericalError:
            pass


@pytest.mark.parametrize(
    "x, z, z_prev, k_mult",
    [
        # k = 0 with x != z and z still moving: the absolute test calls for
        # growth, and the ratio d / p is infinite
        (np.ones(4), np.zeros(4), np.full(4, 1e-9), np.zeros(4)),
        # x = z = 0 and z at rest: p and d are both 0 / 0
        (np.zeros(4), np.zeros(4), np.zeros(4), np.ones(4)),
    ],
    ids=["k-zero", "x-z-zero"],
)
def test_penalty_rule_holds_rho_where_the_relative_balance_has_no_ratio(x, z, z_prev, k_mult):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver._rebalance(1.0, x, z, z_prev, k_mult) == 1.0


@pytest.mark.parametrize(
    "owner, name, fault, match",
    [
        (NormalEquationSolver, "solve", lambda self, b, mb, rho: (np.full_like(b, np.nan), np.full_like(mb, np.nan)),
         "multiplier at iteration 1"),
        (NormalEquationSolver, "solve", lambda self, b, mb, rho: (np.zeros_like(b), np.full_like(mb, np.nan)),
         "residual norms at iteration 1"),
        (solver, "tsvt", lambda v, tau: np.full(v.shape, np.nan), "multiplier at iteration 1"),
        # the first mixed point is formed after sweep 18
        (solver._AndersonMixer, "mix", lambda self, f, g: np.full_like(g, np.inf), "prox input at iteration 19"),
    ],
    ids=["z-block-solve", "z-block-image", "prox-step", "mixed-point"],
)
def test_admm_nonfinite_iterate_is_a_numerical_error(monkeypatch, owner, name, fault, match):
    # a sweep checks its threshold and prox input, then its multiplier and
    # residual norms: a non-finite x, M x, z or y - M z shows in the second
    # check of its own sweep, and a mixed point in the next sweep's, as a
    # numerical failure, not an input tsvt or tnn rejects
    op = gaussian_map(8, (2, 2, 2), seed=3)
    monkeypatch.setattr(owner, name, fault)
    _raises_without_warning(match, lambda: admm_solve(op, np.ones(8), SolverConfig(lam=1.0)))


def test_admm_overflowing_prox_input_is_a_numerical_error(monkeypatch):
    # z = 1.7e308 and k = rho (x - z) = -1.7e304 pass the first sweep's
    # check, but z - k/rho overflows in the second, and the solver reports it
    op = gaussian_map(8, (2, 2, 2), seed=3)
    monkeypatch.setattr(
        NormalEquationSolver, "solve", lambda self, b, mb, rho: (np.full_like(b, 1.7e308), np.zeros_like(mb))
    )
    _raises_without_warning("prox input at iteration 2", lambda: admm_solve(op, np.ones(8), SolverConfig(lam=1.0)))


def test_admm_near_the_float_range_is_the_solve_in_units_of_max_y():
    # y = 1e307 is solved as y / c with lam / c, c = 2^1019, and every
    # output is multiplied back by c exactly
    op = gaussian_map(30, (3, 3, 4), seed=1)
    y = np.full(30, 1e307)
    c = math.ldexp(0.5, math.frexp(1e307)[1])
    # at lam = 0.1, lam / c ~ 1.8e-308 and P(0) = ||y / c||^2 / (2 lam / c)
    # reads inf on both sides: the door stops both, before any sweep
    for data, lam in ((y, 0.1), (y / c, 0.1 / c)):
        with pytest.raises(NumericalError, match="underflows"):
            admm_solve(op, data, SolverConfig(lam=lam))
    lam = 1e306
    res = admm_solve(op, y, SolverConfig(lam=lam))
    unit = admm_solve(op, y / c, SolverConfig(lam=lam / c))
    assert res.converged and unit.converged and res.iterations == unit.iterations
    assert res.gap == unit.gap and np.array_equal(res.dual, unit.dual)
    assert np.array_equal(res.x_hat, c * unit.x_hat)
    assert np.array_equal(res.final_state.last_prox_input, c * unit.final_state.last_prox_input)
    assert res.final_state.last_prox_tau == c * unit.final_state.last_prox_tau
    with np.errstate(over="ignore"):
        assert np.array_equal(res.objective_history, c * unit.objective_history)


def test_admm_lam_that_underflows_against_the_data_is_a_numerical_error():
    # lam / max|y| = 1e-330 is below the float range, so the certificate
    # cannot be computed
    op = gaussian_map(8, (2, 2, 2), seed=3)
    with pytest.raises(NumericalError, match="underflows"):
        admm_solve(op, np.full(8, 1e300), SolverConfig(lam=1e-30))


def test_admm_rejects_bad_measurement_length():
    op = gaussian_map(8, (2, 2, 2), seed=3)
    with pytest.raises(ValueError):
        admm_solve(op, np.zeros(7), SolverConfig(lam=1.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, max_iters=0)
    for lam in (np.nan, np.inf, True, "0.1"):
        with pytest.raises(ValueError):
            SolverConfig(lam=lam)


@pytest.mark.parametrize("lam", [1, np.float32(0.5), np.int64(2)], ids=["int", "float32", "int64"])
def test_solver_config_stores_lam_as_float(lam):
    config = SolverConfig(lam=lam)
    assert config.lam == float(lam) and type(config.lam) is float


@pytest.mark.parametrize("max_iters", [2.5, np.inf, True, "5"], ids=["fraction", "inf", "bool", "string"])
def test_solver_config_rejects_non_integral_max_iters(max_iters):
    with pytest.raises(ValueError, match="expected an integer"):
        SolverConfig(lam=0.1, max_iters=max_iters)


@pytest.mark.parametrize("max_iters", [2.0, np.int64(2)], ids=["float", "int64"])
def test_solver_config_stores_integral_max_iters_as_int(max_iters):
    config = SolverConfig(lam=0.1, max_iters=max_iters)
    assert config.max_iters == 2 and type(config.max_iters) is int
