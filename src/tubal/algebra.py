"""Third-order tensor algebra under the t-product.

A real tensor ``x`` of shape ``(n1, n2, n3)`` is treated as an n1 x n2
matrix of length-n3 tubes.  The t-product of two such tensors is the
circular convolution of their tubes, equivalently ``fold(bcirc(a) @
unfold(b))``.  All heavy operations here (t-product, t-SVD, singular
value thresholding, norms) act on the frontal slices of a DFT along the
tube axis, which block-diagonalizes the circulant structure; conjugate
symmetry of the transform of a real tensor means only ``n3 // 2 + 1``
slices are ever touched.  Every spectral operation takes the SVDs of
those slices in one stacked call (:func:`_slice_svd`) and rebuilds a
tensor from them in one more (:func:`_from_slices`).  The explicit
block-circulant path survives only as a test oracle.

:func:`tprod` also multiplies stacks, (k, n1, n2, n3) x (k, n2, n4, n3)
-> (k, n1, n4, n3), row by row.  The transforms run along the last
axis and the slice products broadcast over the leading one, so a
stack costs one call instead of k, and each row of the result is
bitwise the 3-d product of that row.  Loops over many small tensors,
such as the isometry probes, build their tensors this way.

Conventions fixed here and relied on elsewhere in the package:

* vectorization order is frontal-slice-major, column-major within a
  slice, i.e. Fortran ravel of an ``(n1, n2, n3)`` array;
* singular tubes are ordered so the first-frontal-slice diagonal of the
  t-SVD middle factor is nonincreasing;
* index sets over singular tubes are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "TsvdFactors",
    "as_tensor3",
    "average_rank",
    "bcirc",
    "complement_indices",
    "conj_transpose",
    "fold",
    "fro_norm",
    "identity_tensor",
    "is_fdiagonal",
    "is_orthogonal",
    "restrict",
    "tnn",
    "tprod",
    "truncate",
    "tsvd",
    "tubal_rank",
    "unfold",
]

# relative threshold below which a singular value counts as zero in a rank
_RANK_TOL = 1e-8


def as_tensor3(x) -> np.ndarray:
    """Validate and return `x` as a finite float64 array of shape (n1, n2, n3)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ValueError(f"tensor dimensions must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return arr


def _as_stack(x) -> np.ndarray:
    """Validate and return `x` as a float64 stack of shape (k, n1, n2, n3)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"expected a (k, n1, n2, n3) stack, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ValueError(f"stack dimensions must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return arr


# ---------------------------------------------------------------------------
# transforms and unfoldings


def _rfft(x: np.ndarray) -> np.ndarray:
    """Half-spectrum DFT along tubes (the last axis): n3//2 + 1 complex slices."""
    return np.fft.rfft(x, axis=-1)


def _irfft(xf: np.ndarray, n3: int) -> np.ndarray:
    return np.fft.irfft(xf, n=n3, axis=-1)


def _half_weights(n3: int) -> np.ndarray:
    """Multiplicity of each retained slice in the full spectrum."""
    w = np.full(n3 // 2 + 1, 2.0)
    w[0] = 1.0
    if n3 % 2 == 0:
        w[-1] = 1.0
    return w


def unfold(x: np.ndarray) -> np.ndarray:
    """Stack the frontal slices vertically into an (n1*n3, n2) matrix."""
    x = as_tensor3(x)
    n1, n2, n3 = x.shape
    return x.transpose(2, 0, 1).reshape(n1 * n3, n2)


def fold(mat: np.ndarray, n3: int) -> np.ndarray:
    """Inverse of :func:`unfold`; `mat` must have n3 row blocks."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("fold expects a matrix")
    rows, n2 = mat.shape
    if n3 < 1 or rows % n3 != 0:
        raise ValueError(f"row count {rows} is not divisible by n3={n3}")
    n1 = rows // n3
    return np.ascontiguousarray(mat.reshape(n3, n1, n2).transpose(1, 2, 0))


def bcirc(x: np.ndarray) -> np.ndarray:
    """Block-circulant matrix of `x`: block (p, q) is slice (p - q) mod n3.

    Quadratic in n3; kept as the definitional oracle for the
    Fourier-domain fast paths.
    """
    x = as_tensor3(x)
    n1, n2, n3 = x.shape
    out = np.empty((n1 * n3, n2 * n3))
    for p in range(n3):
        for q in range(n3):
            out[p * n1 : (p + 1) * n1, q * n2 : (q + 1) * n2] = x[:, :, (p - q) % n3]
    return out


# ---------------------------------------------------------------------------
# products


def tprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t-product of an (n1, n2, n3) tensor with an (n2, n4, n3) tensor.

    Computed as slicewise matrix products in the Fourier domain, which
    equals ``fold(bcirc(a) @ unfold(b))``.  Two stacks of k tensors,
    (k, n1, n2, n3) and (k, n2, n4, n3), give the (k, n1, n4, n3) stack
    of row-by-row products in one call; each row is bitwise equal to
    the product of that row alone.  A stack cannot be mixed with a
    single tensor.
    """
    if np.ndim(a) == 4 or np.ndim(b) == 4:
        a = _as_stack(a)
        b = _as_stack(b)
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"t-product stack lengths differ: {a.shape} * {b.shape}")
    else:
        a = as_tensor3(a)
        b = as_tensor3(b)
    if a.shape[-2] != b.shape[-3] or a.shape[-1] != b.shape[-1]:
        raise ValueError(f"t-product shape mismatch: {a.shape} * {b.shape}")
    cf = np.einsum("...ijk,...jlk->...ilk", _rfft(a), _rfft(b))
    return _irfft(cf, a.shape[-1])


def conj_transpose(x: np.ndarray) -> np.ndarray:
    """Transpose each frontal slice and reverse the order of slices 2..n3."""
    x = as_tensor3(x)
    out = np.empty((x.shape[1], x.shape[0], x.shape[2]))
    out[:, :, 0] = x[:, :, 0].T
    if x.shape[2] > 1:
        out[:, :, 1:] = x[:, :, :0:-1].transpose(1, 0, 2)
    return out


def identity_tensor(n: int, n3: int) -> np.ndarray:
    """Identity for the t-product: eye(n) in slice 1, zeros elsewhere."""
    if n < 1 or n3 < 1:
        raise ValueError("identity_tensor dimensions must be >= 1")
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


def is_orthogonal(q: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff q^* * q and q * q^* are within `tol` of the identity (Frobenius)."""
    q = as_tensor3(q)
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"orthogonality requires square slices, got {q.shape}")
    eye = identity_tensor(q.shape[0], q.shape[2])
    qt = conj_transpose(q)
    left = np.linalg.norm((tprod(qt, q) - eye).ravel())
    right = np.linalg.norm((tprod(q, qt) - eye).ravel())
    return bool(left <= tol and right <= tol)


def is_fdiagonal(s: np.ndarray, tol: float = 0.0) -> bool:
    """True iff every frontal slice is diagonal up to `tol` (entrywise)."""
    s = as_tensor3(s)
    k = min(s.shape[0], s.shape[1])
    off = s.copy()
    off[np.arange(k), np.arange(k), :] = 0.0
    return bool(np.max(np.abs(off), initial=0.0) <= tol)


# ---------------------------------------------------------------------------
# t-SVD


@dataclass(frozen=True)
class TsvdFactors:
    """Orthogonal factors u (n1,n1,n3), v (n2,n2,n3) and f-diagonal s with
    x = u * s * v^*.  ``spectrum`` is the first-frontal-slice diagonal of s,
    nonnegative and nonincreasing."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def spectrum(self) -> np.ndarray:
        k = min(self.s.shape[0], self.s.shape[1])
        return self.s[np.arange(k), np.arange(k), 0]

    def compose(self) -> np.ndarray:
        """Rebuild u * s * v^*."""
        return tprod(tprod(self.u, self.s), conj_transpose(self.v))


def _slice_svd(x: np.ndarray, full_matrices: bool = False):
    """SVDs of the half-spectrum slices of `x`, in one stacked call.

    The slice index moves in front of each slice's rows, so a tensor
    gives (u, s, vt) of shapes (h, n1, .), (h, kappa), (h, ., n2) with
    h = n3 // 2 + 1; leading stack axes pass through.  Self-conjugate
    slices are real and go through the same complex SVD.
    """
    return np.linalg.svd(np.moveaxis(_rfft(x), -1, -3), full_matrices=full_matrices)


def _from_slices(u: np.ndarray, s: np.ndarray, vt: np.ndarray, n3: int) -> np.ndarray:
    """Inverse of :func:`_slice_svd`: ``u diag(s) vt`` per slice, transformed back.

    The inverse transform keeps only the real part of the self-conjugate
    slices.
    """
    return _irfft(np.moveaxis((u * s[..., None, :]) @ vt, -3, -1), n3)


def _unit_phases(a: np.ndarray, axis: int) -> np.ndarray:
    """Conjugate phase of each vector's largest-magnitude entry along `axis`.

    The vectors are columns or rows of a unitary matrix, so that entry
    is never zero.
    """
    piv = np.take_along_axis(a, np.expand_dims(np.argmax(np.abs(a), axis=axis), axis), axis)
    return np.conj(piv) / np.abs(piv)


def _fix_phases(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate paired singular vectors so each u column's largest-magnitude
    entry is real and positive; unpaired columns/rows are fixed alone.

    Works on stacks of slices.  Pins down the per-slice unitary freedom
    so factorizations are reproducible; u @ diag(s) @ vt is unchanged.
    """
    k = min(u.shape[-1], vt.shape[-2])
    c = _unit_phases(u, axis=-2)
    u = u * c
    vt = vt.copy()
    vt[..., :k, :] *= np.conj(c[..., 0, :k, None])
    vt[..., k:, :] *= _unit_phases(vt[..., k:, :], axis=-1)
    return u, vt


def tsvd(x: np.ndarray) -> TsvdFactors:
    """t-SVD factorization x = u * s * v^*.

    Computed by one stacked SVD of the half-spectrum Fourier slices,
    with phases fixed as in :func:`_fix_phases`, followed by the inverse
    transform.  Per-slice singular values are each sorted descending,
    so the first-slice diagonal of s (their mean across the full
    spectrum) is nonnegative and nonincreasing.

    The all-zero tensor gets identity u, v and zero s.
    """
    x = as_tensor3(x)
    n1, n2, n3 = x.shape
    if not x.any():
        return TsvdFactors(
            u=identity_tensor(n1, n3), s=np.zeros((n1, n2, n3)), v=identity_tensor(n2, n3)
        )
    uf, sf, vtf = _slice_svd(x, full_matrices=True)
    uf, vtf = _fix_phases(uf, vtf)
    k = min(n1, n2)
    sf_embed = np.zeros((n1, n2, sf.shape[0]))
    sf_embed[np.arange(k), np.arange(k), :] = sf.T
    u = _irfft(np.moveaxis(uf, -3, -1), n3)
    s = _irfft(sf_embed, n3)
    v = _irfft(np.moveaxis(vtf.conj().swapaxes(-1, -2), -3, -1), n3)
    return TsvdFactors(u=u, s=s, v=v)


def _half_spectrum_svals(x: np.ndarray) -> np.ndarray:
    """Descending singular values of each half-spectrum slice, shape (h, kappa)."""
    return np.linalg.svd(np.moveaxis(_rfft(x), -1, -3), compute_uv=False)


def _mean_spectrum(x: np.ndarray) -> np.ndarray:
    """First-frontal-slice diagonal of the t-SVD middle factor.

    Equals the mean over all n3 Fourier slices of the sorted per-slice
    singular values, evaluated on the half spectrum with multiplicities.
    """
    sv = _half_spectrum_svals(x)
    w = _half_weights(x.shape[2])
    return (w @ sv) / x.shape[2]


def tubal_rank(x: np.ndarray) -> int:
    """Number of singular tubes whose first-slice value exceeds 1e-8 * largest."""
    x = as_tensor3(x)
    spec = _mean_spectrum(x)
    if spec.size == 0 or spec[0] == 0.0:
        return 0
    return int(np.count_nonzero(spec > _RANK_TOL * spec[0]))


def average_rank(x: np.ndarray) -> Fraction:
    """Rank of the block-diagonal Fourier matrix divided by n3, as a Fraction.

    Per-slice ranks count singular values above 1e-8 times the largest
    singular value across all slices.
    """
    x = as_tensor3(x)
    n3 = x.shape[2]
    sv = _half_spectrum_svals(x)
    top = sv.max(initial=0.0)
    if top == 0.0:
        return Fraction(0)
    counts = (sv > _RANK_TOL * top).sum(axis=1)
    total = int(np.rint(_half_weights(n3) @ counts))
    return Fraction(total, n3)


def tnn(x: np.ndarray) -> float:
    """Tensor nuclear norm: sum of the first-slice diagonal of the t-SVD
    middle factor, equal to the mean over Fourier slices of the slice
    nuclear norms."""
    x = as_tensor3(x)
    sv = _half_spectrum_svals(x)
    return float(_half_weights(x.shape[2]) @ sv.sum(axis=1) / x.shape[2])


def fro_norm(x: np.ndarray) -> float:
    """Frobenius norm: sqrt of the sum of squared entries."""
    return float(np.linalg.norm(as_tensor3(x).ravel()))


# ---------------------------------------------------------------------------
# spectral truncation and index restriction


def _select_components(x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sum of the selected rank-1 tubal components of x, via the half spectrum.

    The sum does not depend on the singular vectors' phases, so they are
    left as the SVD returns them.
    """
    if indices.size == 0:
        return np.zeros_like(x)
    u, s, vt = _slice_svd(x)
    return _from_slices(u[..., indices], s[..., indices], vt[..., indices, :], x.shape[2])


def truncate(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Split x into its best tubal-rank-r approximation and the residual.

    Returns ``(head, tail)`` where head keeps the r leading singular
    tubes and ``tail = x - head``.
    """
    x = as_tensor3(x)
    kappa = min(x.shape[0], x.shape[1])
    if not 0 <= r <= kappa:
        raise ValueError(f"truncation rank {r} outside [0, {kappa}]")
    head = _select_components(x, np.arange(r))
    return head, x - head


def _validate_index_set(indices: Sequence[int], kappa: int) -> np.ndarray:
    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.intp)
    if idx.size and (idx[0] < 0 or idx[-1] >= kappa):
        raise ValueError(f"index set entries must lie in [0, {kappa})")
    if np.unique(idx).size != idx.size:
        raise ValueError("index set entries must be distinct")
    return idx


def complement_indices(indices: Sequence[int], kappa: int) -> tuple[int, ...]:
    """Complement of a 0-based index set within range(kappa)."""
    idx = set(_validate_index_set(indices, kappa).tolist())
    return tuple(i for i in range(kappa) if i not in idx)


def restrict(x: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """Sum of the singular-tube components of x selected by a 0-based index set.

    ``restrict(x, g) + restrict(x, complement_indices(g, kappa))``
    reconstructs x.
    """
    x = as_tensor3(x)
    kappa = min(x.shape[0], x.shape[1])
    idx = _validate_index_set(indices, kappa)
    return _select_components(x, idx)
