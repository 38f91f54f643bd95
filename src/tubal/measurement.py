"""Linear measurement of third-order tensors and recovery metrics.

A measurement operator is a dense m x (n1*n2*n3) matrix applied to the
vectorization of a tensor.  Vectorization order is frontal-slice-major,
column-major within a slice (Fortran ravel of an (n1, n2, n3) array);
every serialized artifact and every matrix in this package uses that
order, so measurements are reproducible bit-for-bit.

:func:`apply` also measures a stack of k tensors, shape (k, n1, n2, n3),
as one matrix-matrix product with a (k, m) result.  That reads the
matrix once for the whole stack instead of once per tensor, which is
what makes many-probe loops such as the isometry estimate cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .algebra import _as_stack, as_tensor3, fro_norm

__all__ = [
    "GaussianLinearMap",
    "NoisySample",
    "add_noise",
    "adjoint_apply",
    "apply",
    "gaussian_map",
    "snr_db",
    "unvec",
    "vec",
]


def vec(x: np.ndarray) -> np.ndarray:
    """Vectorize a tensor in the package storage order."""
    return as_tensor3(x).ravel(order="F")


def unvec(v: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`vec` for the given (n1, n2, n3)."""
    v = np.asarray(v, dtype=np.float64)
    n1, n2, n3 = dims
    if v.size != n1 * n2 * n3:
        raise ValueError(f"vector of length {v.size} does not fill dims {dims}")
    return np.ascontiguousarray(v.reshape((n1, n2, n3), order="F"))


@dataclass(frozen=True)
class GaussianLinearMap:
    """Dense linear map from (n1, n2, n3) tensors to m-vectors.

    ``matrix`` has shape (m, n1*n2*n3); `seed` records how
    :func:`gaussian_map` drew it, so it can be regenerated bit-exactly.
    """

    m: int
    dims: tuple[int, int, int]
    matrix: np.ndarray
    seed: int

    def __post_init__(self):
        n1, n2, n3 = self.dims
        if self.matrix.shape != (self.m, n1 * n2 * n3):
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with "
                f"m={self.m} and dims={self.dims}"
            )


def gaussian_map(m: int, dims: tuple[int, int, int], seed: int) -> GaussianLinearMap:
    """Draw a measurement matrix with i.i.d. N(0, 1/m) entries.

    The 1/m variance gives ``E ||M(x)||^2 = ||x||_F^2`` for every x, so
    the map is an isometry in expectation: the scaling under which the
    t-RIP's distortion ``| ||M(x)||^2 / ||x||_F^2 - 1 |`` is small.
    Entries come from the "map" stream of `seed`, so the same arguments
    always reproduce the same matrix.
    """
    n1, n2, n3 = (int(d) for d in dims)
    if m < 1:
        raise ValueError(f"measurement count must be >= 1, got {m}")
    if min(n1, n2, n3) < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    gen = rng.stream(int(seed), "map")
    matrix = gen.standard_normal((m, n1 * n2 * n3))
    matrix /= math.sqrt(m)
    return GaussianLinearMap(m=m, dims=(n1, n2, n3), matrix=matrix, seed=int(seed))


def apply(op: GaussianLinearMap, x: np.ndarray) -> np.ndarray:
    """Measure a tensor: ``matrix @ vec(x)``.

    A stack of shape (k, n1, n2, n3) gives the (k, m) array whose row i
    measures ``x[i]``; it is computed as one product with ``matrix.T``,
    so rows agree with single-tensor calls to roundoff, not bitwise.
    Any strided stack is accepted.  The (k, n1, n2, n3) transpose of a
    C-ordered (k, n3, n2, n1) array already holds each row's
    vectorization contiguously, so it is measured without a copy; other
    layouts are copied once into that order first.
    """
    if np.ndim(x) == 4:
        x = _as_stack(x)
        if x.shape[1:] != op.dims:
            raise ValueError(f"stacked tensor dims {x.shape[1:]} do not match map dims {op.dims}")
        return x.reshape(x.shape[0], op.matrix.shape[1], order="F") @ op.matrix.T
    x = as_tensor3(x)
    if x.shape != op.dims:
        raise ValueError(f"tensor dims {x.shape} do not match map dims {op.dims}")
    return op.matrix @ vec(x)


def _as_measurements(op: GaussianLinearMap, y) -> np.ndarray:
    """Validate and return `y` as a finite float64 vector of length m."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.m,):
        raise ValueError(f"measurement length {y.shape} does not match m={op.m}")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    return y


def adjoint_apply(op: GaussianLinearMap, v: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`apply`: ``unvec(matrix.T @ v)``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (op.m,):
        raise ValueError(f"vector shape {v.shape} does not match m={op.m}")
    return unvec(op.matrix.T @ v, op.dims)


@dataclass(frozen=True)
class NoisySample:
    """Measurement vector with additive Gaussian noise.

    ``noise`` keeps the realized draw so callers can use its 2-norm as
    the noise level when checking recovery bounds.
    """

    y: np.ndarray
    sigma: float
    noise_seed: int
    noise: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.y.shape != self.noise.shape:
            raise ValueError("noise and measurement lengths differ")


def add_noise(y: np.ndarray, sigma: float, noise_seed: int) -> NoisySample:
    """Add N(0, sigma^2) noise drawn from the "noise" stream of `noise_seed`.

    sigma = 0 returns the measurements unchanged (no draw is consumed).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("measurements must be a vector")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return NoisySample(y=y.copy(), sigma=0.0, noise_seed=int(noise_seed), noise=np.zeros_like(y))
    w = sigma * rng.stream(int(noise_seed), "noise").standard_normal(y.size)
    return NoisySample(y=y + w, sigma=float(sigma), noise_seed=int(noise_seed), noise=w)


def snr_db(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    """Recovery quality 20*log10(||x_true||_F / ||x_true - x_hat||_F) in dB.

    Returns +inf when the error norm is numerically zero; a zero ground
    truth is rejected since the ratio is undefined.
    """
    x_true = as_tensor3(x_true)
    x_hat = as_tensor3(x_hat)
    if x_true.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x_true.shape} vs {x_hat.shape}")
    signal = fro_norm(x_true)
    if signal == 0.0:
        raise ValueError("SNR is undefined for a zero ground truth")
    err = fro_norm(x_true - x_hat)
    if err < 1e-300:
        return math.inf
    return 20.0 * math.log10(signal / err)
