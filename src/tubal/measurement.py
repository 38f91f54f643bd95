"""Linear measurement of third-order tensors and recovery metrics.

A measurement operator is a dense m x (n1*n2*n3) matrix applied to the
vectorization of a tensor.  Vectorization order is frontal-slice-major,
column-major within a slice (Fortran ravel of an (n1, n2, n3) array);
every matrix in this package uses that order, so measurements are
reproducible bit-for-bit.

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
from .algebra import _as_array, _as_int, _as_real, as_tensor3, fro_norm

__all__ = [
    "GaussianLinearMap",
    "NoisySample",
    "add_noise",
    "apply",
    "gaussian_map",
    "snr_db",
    "unvec",
    "vec",
]


def vec(x: np.ndarray) -> np.ndarray:
    """Vectorize a tensor in the package storage order."""
    return _vec(as_tensor3(x))


def unvec(v: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`vec` for the given (n1, n2, n3); `v` is read as a real, finite vector."""
    v = _as_array(v, 1, "vector")
    n1, n2, n3 = dims
    if v.size != n1 * n2 * n3:
        raise ValueError(f"vector of length {v.size} does not fill dims {dims}")
    return np.ascontiguousarray(_unvec(v, dims))


def _vec(x: np.ndarray) -> np.ndarray:
    """:func:`vec` of a tensor the caller made: no read, a view when the layout allows."""
    return x.ravel(order="F")


def _unvec(v: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """:func:`unvec` of a vector the caller made: no read, and a view, not a copy."""
    return v.reshape(dims, order="F")


def _as_dims(dims) -> tuple[int, int, int]:
    """Read tensor dimensions (n1, n2, n3): three integers >= 1, else ``ValueError``."""
    try:
        shape = tuple(_as_int(d) for d in dims)
    except TypeError:  # dims is not iterable
        shape = ()
    except ValueError as exc:  # an entry is not an integer
        raise ValueError(f"dims must be three integers >= 1, got {dims!r}: {exc}") from None
    if len(shape) != 3 or min(shape) < 1:
        raise ValueError(f"dims must be three integers >= 1, got {dims!r}")
    return shape


@dataclass(frozen=True)
class GaussianLinearMap:
    """Dense linear map from (n1, n2, n3) tensors to m-vectors.

    ``matrix`` has shape (m, n1*n2*n3), and `m` is its row count.  When
    the map is built, `dims` is read as three integers >= 1 and `matrix`
    as a real, finite 2-D float64 array with n1*n2*n3 columns; anything
    else raises ``ValueError``.
    """

    dims: tuple[int, int, int]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        object.__setattr__(self, "matrix", _as_array(self.matrix, 2, "matrix"))
        if self.matrix.shape[1] != math.prod(self.dims):
            raise ValueError(f"matrix: {self.matrix.shape[1]} columns do not match dims {self.dims}")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def gaussian_map(m: int, dims: tuple[int, int, int], seed: int) -> GaussianLinearMap:
    """Draw a measurement matrix with i.i.d. N(0, 1/m) entries.

    The 1/m variance gives ``E ||M(x)||^2 = ||x||_F^2`` for every x, so
    the map is an isometry in expectation: the scaling under which the
    t-RIP's distortion ``| ||M(x)||^2 / ||x||_F^2 - 1 |`` is small.
    Entries come from the "map" stream of `seed`, so the same arguments
    always reproduce the same matrix; the map does not keep the seed.  A
    non-integral `m`, dimension or `seed` raises ``ValueError``.
    """
    m = _as_int(m, "measurement count", least=1)
    dims = _as_dims(dims)
    matrix = rng.stream(_as_int(seed), "map").standard_normal((m, math.prod(dims)))
    matrix /= math.sqrt(m)
    return GaussianLinearMap(dims=dims, matrix=matrix)


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
    x = _as_array(x, 4 if np.ndim(x) == 4 else 3)
    if x.shape[-3:] != op.dims:
        raise ValueError(f"tensor dims {x.shape[-3:]} do not match map dims {op.dims}")
    if x.ndim == 4:
        return x.reshape(x.shape[0], op.matrix.shape[1], order="F") @ op.matrix.T
    return op.matrix @ x.ravel(order="F")


def _as_measurements(op: GaussianLinearMap, y) -> np.ndarray:
    """Validate and return `y` as a real, finite float64 vector of length m."""
    y = _as_array(y, 1, "measurements")
    if y.size != op.m:
        raise ValueError(f"measurements: length {y.size} does not match m={op.m}")
    return y


@dataclass(frozen=True)
class NoisySample:
    """Measurement vector with additive Gaussian noise, as :func:`add_noise`
    builds it; the caller knows the sigma it asked for.

    ``noise`` keeps the realized draw, not its seed, so callers can use
    its 2-norm as the noise level when checking recovery bounds.
    """

    y: np.ndarray
    noise: np.ndarray = field(repr=False)


def add_noise(y: np.ndarray, sigma: float, noise_seed: int) -> NoisySample:
    """Add N(0, sigma^2) noise drawn from the "noise" stream of `noise_seed`.

    sigma = 0 returns the measurements unchanged.
    `y` must be a real, finite, non-empty vector, and a non-integral
    `noise_seed` raises ``ValueError``, whatever sigma is.
    """
    y = _as_array(y, 1, "measurements")
    sigma = _as_real(sigma, "sigma", least=0.0)
    noise_seed = _as_int(noise_seed)
    w = sigma * rng.stream(noise_seed, "noise").standard_normal(y.size)
    return NoisySample(y=y + w, noise=w)


def snr_db(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    """Recovery quality 20*log10(||x_true||_F / ||x_true - x_hat||_F) in dB.

    Returns +inf when x_hat equals x_true; a zero ground truth is rejected
    since the ratio is undefined.  Both norms are taken in units of the
    tensor's max entry (:func:`fro_norm`), so scaling both tensors by a
    power of two leaves the SNR bitwise unchanged wherever the scaled
    entries and their differences stay normal floats.
    """
    x_true = as_tensor3(x_true)
    x_hat = as_tensor3(x_hat)
    if x_true.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x_true.shape} vs {x_hat.shape}")
    signal = fro_norm(x_true)
    if signal == 0.0:
        raise ValueError("SNR is undefined for a zero ground truth")
    err = fro_norm(x_true - x_hat)
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(signal / err)
