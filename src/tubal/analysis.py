"""Restricted-isometry thresholds, recovery-bound constants, verification.

A linear map has restricted isometry constant delta at tubal rank r when
``(1-delta) ||x||_F^2 <= ||M(x)||^2 <= (1+delta) ||x||_F^2`` for every
tensor of tubal rank at most r.  For the regularized nuclear-norm
recovery problem, a constant below ``sqrt((t-1) / (n3^2 + t - 1))`` at
rank t*r (any oversampling factor t > 1) guarantees two error bounds on
the recovered tensor: one on the measurement-domain error, one on the
Frobenius error, each affine in the nuclear norm of the part of the
ground truth beyond tubal rank r.

True constants are suprema over rank manifolds and cannot be certified
by sampling; :func:`estimate_ric` therefore reports the max observed
distortion as an explicit lower estimate, and :func:`verify_bounds`
evaluates the guarantees with whatever delta the caller supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .algebra import fro_norm, tnn, tprod, truncate, as_tensor3
from .measurement import GaussianLinearMap, _as_measurements, apply

__all__ = [
    "BoundReport",
    "RipConditionError",
    "RipEstimate",
    "bound_constants",
    "estimate_ric",
    "eta_constants",
    "matched_bound_constants",
    "ric_threshold",
    "verify_bounds",
]


class RipConditionError(ValueError):
    """The supplied isometry constant violates the guarantee's precondition."""


def ric_threshold(t: float, n3: int) -> float:
    """Largest isometry constant for which the recovery guarantee applies.

    Equals ``sqrt((t-1) / (n3^2 + t - 1))``: strictly increasing in the
    oversampling factor t, strictly decreasing in n3, and reducing to
    the matrix-recovery threshold ``sqrt((t-1)/t)`` at n3 = 1.
    """
    if t <= 1:
        raise ValueError(f"oversampling factor t must exceed 1, got {t}")
    if n3 < 1:
        raise ValueError("n3 must be >= 1")
    return math.sqrt((t - 1.0) / (n3 * n3 + t - 1.0))


def eta_constants(delta: float, t: float, n3: int) -> tuple[float, float]:
    """Distortion-derived constants feeding the error bounds.

    eta1 = 2 / ((1 - delta) * sqrt(1 + delta))
    eta2 = sqrt(n3) * delta / sqrt((1 - delta^2) * (t - 1))

    eta2 < 1 whenever delta < ric_threshold(t, n3); it equals
    1/sqrt(n3) exactly at the threshold.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if t <= 1:
        raise ValueError(f"oversampling factor t must exceed 1, got {t}")
    eta1 = 2.0 / ((1.0 - delta) * math.sqrt(1.0 + delta))
    eta2 = math.sqrt(n3) * delta / math.sqrt((1.0 - delta * delta) * (t - 1.0))
    return eta1, eta2


def _require_condition(delta: float, t: float, n3: int) -> None:
    thr = ric_threshold(t, n3)
    if not 0.0 <= delta < thr:
        raise RipConditionError(
            f"delta={delta:.6g} is not below the guarantee threshold "
            f"{thr:.6g} for t={t:.6g}, n3={n3}"
        )


def bound_constants(
    delta: float, t: float, r: int, n3: int, lam: float, epsilon: float
) -> tuple[float, float, float, float]:
    """Coefficients (c1, c2, c3, c4) of the recovery error bounds.

    With h = x_hat - x_true and tail = nuclear norm of the ground truth
    beyond tubal rank r, the guarantees read

        ||M(h)||_2 <= c1 * tail + c2
        ||h||_F    <= c3 * tail + c4

    for a noise level ||w||_2 <= epsilon and regularization weight lam.
    Requires delta < ric_threshold(t, n3), which keeps eta2 < 1 and all
    four constants finite and positive.
    """
    if r < 1:
        raise ValueError("rank r must be >= 1")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    _require_condition(delta, t, n3)
    eta1, eta2 = eta_constants(delta, t, n3)
    sr = math.sqrt(r)
    srn = math.sqrt(n3 * r)
    sn = math.sqrt(n3)
    c1 = 2.0 / (sr * eta1)
    c2 = 2.0 * sr * eta1 * lam + 2.0 * epsilon
    c3 = (2.0 * sr * eta1 * (2.0 * srn + 1.0 + eta2) * lam + 2.0 * (srn + eta2) * epsilon) / (
        r * eta1 * (1.0 - eta2) * lam
    )
    c4 = (
        ((srn + 1.0) * eta1 * lam + (srn - sn * eta2 + sn + 1.0) * epsilon)
        * (2.0 * sr * eta1 * lam + 2.0 * epsilon)
        / ((1.0 - eta2) * lam)
    )
    return c1, c2, c3, c4


def matched_bound_constants(
    delta: float, t: float, r: int, n3: int
) -> tuple[float, float, float, float]:
    """Coefficients for the noise level matched to the regularization,
    epsilon = lam / 2.

    The bounds become ``||M(h)||_2 <= c1t * tail + c2t * lam`` and
    ``||h||_F <= c3t * tail + c4t * lam``; the lam-dependence factors
    out entirely, so these take no lam argument.  Consistent with
    :func:`bound_constants`: at epsilon = lam/2, c2 = c2t * lam,
    c3 = c3t and c4 = c4t * lam.
    """
    return bound_constants(delta, t, r, n3, lam=1.0, epsilon=0.5)


# ---------------------------------------------------------------------------
# empirical distortion

# estimate_ric splits its trials into near-equal blocks of at most
# _PROBE_BLOCK probes, each measured by one matrix-matrix product: the
# product reads the dense matrix once per block, and more rows per pass
# keep it from being bound by memory bandwidth.  Within a block, probes
# are built _BUILD_BLOCK at a time by one stacked t-product, because a
# t-product's complex Fourier-domain intermediates are larger than the
# probes it builds, and a whole block at once would raise peak memory.
_PROBE_BLOCK = 128
_BUILD_BLOCK = 32


def _equal_split(n: int, cap: int) -> int:
    """Size of the blocks when n items are split into the fewest blocks
    of at most `cap`; only the last block can be shorter, by fewer items
    than there are blocks."""
    blocks = -(-n // cap)
    return -(-n // blocks)


@dataclass(frozen=True)
class RipEstimate:
    """Monte-Carlo lower estimate of an isometry constant.

    distortion_samples holds ``| ||M(x)||^2 - 1 |`` for unit-Frobenius
    random tensors of tubal rank `r`; delta_hat is their maximum.  The
    true constant is a supremum over the whole rank manifold, so this
    is a lower estimate only, never a certificate.
    """

    r: int
    trials: int
    delta_hat: float
    distortion_samples: np.ndarray = field(repr=False)


def estimate_ric(op: GaussianLinearMap, r: int, trials: int, seed: int) -> RipEstimate:
    """Sample the isometry distortion of `op` over random tubal-rank-r tensors.

    Each probe is a product of independent Gaussian factor tensors,
    normalized to unit Frobenius norm; draws come from per-trial
    "rip" streams of `seed`, so estimates are reproducible and trials
    can be evaluated in any order.

    Trials are measured in near-equal blocks of at most ``_PROBE_BLOCK``
    probes, one stacked :func:`apply` each, so the dense matrix is read
    once per block rather than once per probe.  Each block is built in
    near-equal sub-blocks of at most ``_BUILD_BLOCK``, which keeps the
    t-product's complex intermediates small: each probe's factors are
    drawn into reused factor stacks, and a sub-block is multiplied by
    one stacked :func:`tprod`, normalized at once and written into a
    reused buffer.  The buffer is laid out (rows, n3, n2, n1), so its
    (rows, n1, n2, n3) transpose, which is what :func:`apply` is given,
    holds each probe's vectorization contiguously and is measured
    without a copy.  The normalized probes equal the per-probe
    ``x / fro_norm(x)`` of 3-d products, and the samples match
    per-probe measurements to roundoff.
    """
    n1, n2, n3 = op.dims
    kappa = min(n1, n2)
    if not 1 <= r <= kappa:
        raise ValueError(f"probe rank {r} outside [1, {kappa}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples = np.empty(trials)
    rows = _equal_split(trials, _PROBE_BLOCK)
    size = _equal_split(rows, _BUILD_BLOCK)
    fa = np.empty((size, n1, r, n3))
    fb = np.empty((size, r, n2, n3))
    probes = np.empty((rows, n3, n2, n1)).transpose(0, 3, 2, 1)
    for start in range(0, trials, rows):
        k = min(rows, trials - start)
        for lo in range(0, k, size):
            s = min(size, k - lo)
            for j in range(s):
                gen = rng.stream(int(seed), "rip", int(r), start + lo + j)
                gen.standard_normal(out=fa[j])
                gen.standard_normal(out=fb[j])
            x = tprod(fa[:s], fb[:s]).reshape(s, 1, -1)
            # one dot product per probe, the sum fro_norm takes on a single tensor
            x /= np.sqrt(x @ x.transpose(0, 2, 1))
            probes[lo : lo + s] = x.reshape(s, n1, n2, n3)
            del x  # freed before the next t-product allocates its own
        mx = apply(op, probes[:k])
        samples[start : start + k] = np.abs(np.einsum("ij,ij->i", mx, mx) - 1.0)
        del mx  # not held while the next block is built
    return RipEstimate(r=r, trials=trials, delta_hat=float(samples.max()), distortion_samples=samples)


# ---------------------------------------------------------------------------
# bound verification


@dataclass(frozen=True)
class BoundReport:
    """Both recovery bounds evaluated on a solved instance.

    lhs/rhs pairs are the two sides of the measurement-domain and
    Frobenius-domain inequalities; `satisfied` collects the two
    comparisons.  All constants are recorded at full precision.
    """

    t: float
    r: int
    n3: int
    delta: float
    eta1: float
    eta2: float
    c1: float
    c2: float
    c3: float
    c4: float
    c1t: float
    c2t: float
    c3t: float
    c4t: float
    lam: float
    epsilon: float
    tail_tnn: float
    lhs_meas: float
    rhs_meas: float
    lhs_fro: float
    rhs_fro: float
    satisfied: tuple[bool, bool]

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["satisfied"] = list(self.satisfied)
        return out


def verify_bounds(
    x_true: np.ndarray,
    x_hat: np.ndarray,
    op: GaussianLinearMap,
    y: np.ndarray,
    r: int,
    t: float,
    delta: float,
    lam: float,
    epsilon: float,
) -> BoundReport:
    """Evaluate both recovery bounds on a solved instance.

    `y` must be a finite vector of length m, else ``ValueError``;
    `epsilon` must dominate the realized noise ``||y - M(x_true)||_2``
    (the guarantee assumes a noise level, and the realized norm is the
    honest choice); `delta` is whatever isometry constant the caller
    trusts for rank t*r, typically an empirical lower estimate.
    """
    x_true = as_tensor3(x_true)
    x_hat = as_tensor3(x_hat)
    if x_true.shape != op.dims or x_hat.shape != op.dims:
        raise ValueError("tensor dims do not match the measurement map")
    n3 = op.dims[2]
    y = _as_measurements(op, y)
    realized = float(np.linalg.norm(y - apply(op, x_true)))
    if realized > epsilon * (1.0 + 1e-9) + 1e-12:
        raise ValueError(
            f"epsilon={epsilon:.6g} is below the realized noise norm {realized:.6g}"
        )
    c1, c2, c3, c4 = bound_constants(delta, t, r, n3, lam, epsilon)
    c1t, c2t, c3t, c4t = matched_bound_constants(delta, t, r, n3)
    eta1, eta2 = eta_constants(delta, t, n3)

    tail = truncate(x_true, r)[1]
    tail_tnn = tnn(tail)
    diff = x_hat - x_true
    lhs_meas = float(np.linalg.norm(apply(op, diff)))
    rhs_meas = c1 * tail_tnn + c2
    lhs_fro = fro_norm(diff)
    rhs_fro = c3 * tail_tnn + c4
    return BoundReport(
        t=float(t),
        r=int(r),
        n3=int(n3),
        delta=float(delta),
        eta1=eta1,
        eta2=eta2,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c1t=c1t,
        c2t=c2t,
        c3t=c3t,
        c4t=c4t,
        lam=float(lam),
        epsilon=float(epsilon),
        tail_tnn=tail_tnn,
        lhs_meas=lhs_meas,
        rhs_meas=rhs_meas,
        lhs_fro=lhs_fro,
        rhs_fro=rhs_fro,
        satisfied=(lhs_meas <= rhs_meas, lhs_fro <= rhs_fro),
    )
