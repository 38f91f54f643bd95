"""Frozen reference implementations used by the benchmark's correctness checks.

Each function restates, with numpy alone, what the seed version of
``tubal`` computes: content-keyed Philox streams, the t-product, the
tensor nuclear norm, singular value thresholding and the ADMM loop with
residual balancing.  The benchmark compares the program's outputs
against these, so they import nothing from ``tubal`` and must not follow
later changes to it.  At the commit that introduced them they reproduce
the program's numbers to roundoff.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Defaults of the seed's SolverConfig.
RHO0 = 1e-4
RHO_MAX = 1e10
VARTHETA = 1.5
VARPI = 1e-8
MAX_ITERS = 500
BALANCE_RATIO = 100.0


def derive_key(*parts: int | str) -> int:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        data = str(part).encode() if isinstance(part, int) else part.encode()
        tag = b"i" if isinstance(part, int) else b"s"
        h.update(tag + len(data).to_bytes(4, "little") + data)
    return int.from_bytes(h.digest(), "little")


def stream(*parts: int | str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def vec(x: np.ndarray) -> np.ndarray:
    return x.ravel(order="F")


def tprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cf = np.einsum("ijk,jlk->ilk", np.fft.rfft(a, axis=2), np.fft.rfft(b, axis=2))
    return np.fft.irfft(cf, n=a.shape[2], axis=2)


def _real_slice(j: int, n3: int) -> bool:
    return j == 0 or (n3 % 2 == 0 and j == n3 // 2)


def tnn(x: np.ndarray) -> float:
    """Mean over the full Fourier spectrum of the slice nuclear norms."""
    n3 = x.shape[2]
    sv = np.linalg.svd(np.fft.rfft(x, axis=2).transpose(2, 0, 1), compute_uv=False)
    weights = np.full(n3 // 2 + 1, 2.0)
    weights[0] = 1.0
    if n3 % 2 == 0:
        weights[-1] = 1.0
    return float(weights @ sv.sum(axis=1) / n3)


def tsvt(y: np.ndarray, tau: float) -> np.ndarray:
    n3 = y.shape[2]
    yf = np.fft.rfft(y, axis=2)
    out = np.empty_like(yf)
    for j in range(yf.shape[2]):
        mat = yf[:, :, j].real if _real_slice(j, n3) else yf[:, :, j]
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        out[:, :, j] = (u * np.maximum(s - tau, 0.0)) @ vt
    return np.fft.irfft(out, n=n3, axis=2)


def objective(matrix: np.ndarray, y: np.ndarray, lam: float, x: np.ndarray) -> float:
    """Regularized objective ``tnn(x) + ||y - M vec(x)||^2 / (2 lam)``."""
    residual = y - matrix @ vec(x)
    return tnn(x) + float(residual @ residual) / (2.0 * lam)


def admm(matrix: np.ndarray, dims: tuple[int, int, int], y: np.ndarray, lam: float):
    """The seed's ADMM loop at default settings; returns (x, iterations, converged)."""
    _, svals, vt = np.linalg.svd(matrix, full_matrices=False)
    v = np.ascontiguousarray(vt.T)
    svals_sq = svals**2
    complete = v.shape[0] == v.shape[1]

    def z_solve(b, rho):
        vtb = v.T @ b
        ranged = v @ (vtb / (svals_sq + rho))
        return ranged if complete else ranged + (b - v @ vtb) / rho

    def unvec(w):
        return np.ascontiguousarray(w.reshape(dims, order="F"))

    mty = matrix.T @ y
    x = np.zeros(dims)
    z = np.zeros(dims)
    k_mult = np.zeros(dims)
    rho = RHO0
    for iteration in range(1, MAX_ITERS + 1):
        x_prev, z_prev = x, z
        x = tsvt(z - k_mult / rho, lam / rho)
        z = unvec(z_solve(mty + vec(k_mult) + rho * vec(x), rho))
        k_mult = k_mult + rho * (x - z)
        x_step = float(np.max(np.abs(x - x_prev)))
        z_step = float(np.max(np.abs(z - z_prev)))
        consensus = float(np.max(np.abs(x - z)))
        if max(x_step, z_step, consensus) <= VARPI:
            return x, iteration, True
        dual_residual = rho * z_step
        if consensus > BALANCE_RATIO * dual_residual:
            rho = min(VARTHETA * rho, RHO_MAX)
        elif dual_residual > BALANCE_RATIO * consensus:
            rho = max(rho / VARTHETA, RHO0)
    return x, MAX_ITERS, False


def snr_db(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    err = float(np.linalg.norm((x_true - x_hat).ravel()))
    if err < 1e-300:
        return math.inf
    return 20.0 * math.log10(float(np.linalg.norm(x_true.ravel())) / err)


def sweep_snr(
    case_name: str,
    base_seed: int,
    n: int,
    n3: int,
    r: int,
    m: int,
    sigma_list: tuple[float, ...],
    lambda_list: tuple[float, ...],
) -> np.ndarray:
    """Per-cell SNR of trial 0 of a sweep, shape (len(lambda_list), len(sigma_list)).

    Rebuilds the trial's instance from the base seed the way the seed's
    sweep harness does: one ground truth, one operator and one unit
    noise direction shared by every cell.
    """
    dims = (n, n, n3)
    data = stream(derive_key(base_seed, case_name, 0, "data"), "data")
    x_true = tprod(data.standard_normal((n, r, n3)), data.standard_normal((r, n, n3)))
    matrix = stream(derive_key(base_seed, case_name, 0, "map"), "map").standard_normal(
        (m, n * n * n3)
    ) / math.sqrt(m)
    y_clean = matrix @ vec(x_true)
    noise_seed = derive_key(base_seed, case_name, 0, "noise")
    snr = np.empty((len(lambda_list), len(sigma_list)))
    for si, sigma in enumerate(sigma_list):
        y = y_clean + sigma * stream(noise_seed, "noise").standard_normal(m)
        for li, lam in enumerate(lambda_list):
            x_hat, _, _ = admm(matrix, dims, y, lam)
            snr[li, si] = snr_db(x_true, x_hat)
    return snr


def rip_deltas(matrix: np.ndarray, dims: tuple[int, int, int], rank_list, trials: int, seed: int):
    """Cumulative largest distortion ``| ||M vec(x)||^2 - 1 |`` per rank, ranks ascending."""
    n1, n2, n3 = dims
    out = []
    running = 0.0
    for r in sorted(set(rank_list)):
        for i in range(trials):
            gen = stream(seed, "rip", r, i)
            x = tprod(gen.standard_normal((n1, r, n3)), gen.standard_normal((r, n2, n3)))
            mx = matrix @ vec(x / np.linalg.norm(x.ravel()))
            running = max(running, abs(float(mx @ mx) - 1.0))
        out.append((r, running))
    return out
