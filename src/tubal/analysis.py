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
:func:`guarantee_constants` is the only code that computes eta1, eta2
and the bound constants, for the caller's noise level and for the one
matched to the regularization; it takes the threshold from
:func:`ric_threshold`.  Its scalar inputs follow the package's rules:
reals must be finite and counts integral, and bools are neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .algebra import _as_int, _as_real, _norm, _unit, as_tensor3, fro_norm, tnn, tprod, truncate
from .measurement import GaussianLinearMap, _as_measurements, apply

__all__ = [
    "RipConditionError",
    "RipEstimate",
    "estimate_ric",
    "guarantee_constants",
    "ric_threshold",
    "verify_bounds",
]


class RipConditionError(ValueError):
    """The supplied isometry constant violates the guarantee's precondition."""


def ric_threshold(t: float, n3: int) -> float:
    """Largest isometry constant for which the recovery guarantee applies.

    Equals ``sqrt((t-1) / (n3^2 + t - 1))``: strictly increasing in the
    oversampling factor t, strictly decreasing in n3, and reducing to
    the matrix-recovery threshold ``sqrt((t-1)/t)`` at n3 = 1.  A t that
    is not a finite real above 1, or an n3 that is not an integer >= 1,
    raises ``ValueError``.
    """
    t, n3 = _as_real(t, "t", above=1.0), _as_int(n3, "n3", least=1)
    return math.sqrt((t - 1.0) / (n3 * n3 + t - 1.0))


def guarantee_constants(delta: float, t: float, r: int, n3: int, lam: float, epsilon: float) -> dict:
    """Everything the guarantee derives from its inputs, as one record.

    With h = x_hat - x_true and tail = nuclear norm of the ground truth
    beyond tubal rank r, the guarantees read

        ||M(h)||_2 <= c1 * tail + c2
        ||h||_F    <= c3 * tail + c4

    for a noise level ||w||_2 <= epsilon and regularization weight lam.
    The coefficients are built from

        eta1 = 2 / ((1 - delta) * sqrt(1 + delta))
        eta2 = sqrt(n3) * delta / sqrt((1 - delta^2) * (t - 1))

    and need delta below :func:`ric_threshold` (t, n3), else
    ``RipConditionError``.  That keeps eta2 < 1 (it reaches 1/sqrt(n3)
    at the threshold) and all constants positive.  c2 and c4 carry the
    unit of lam and epsilon: they are formed in units of the larger of
    the two, to a power of two, and multiplied back, so each leaves the
    float range only where its value does.  A c3 or c4 whose denominator,
    a multiple of ``(1 - eta2) lam`` in those units, underflows to 0
    reads inf.

    c1_matched..c4_matched are the coefficients at the noise level
    matched to the regularization, epsilon = lam / 2.  The bounds then
    read ``||M(h)||_2 <= c1_matched * tail + c2_matched * lam`` and
    ``||h||_F <= c3_matched * tail + c4_matched * lam``: lam factors out,
    and they are c1..c4 at lam = 1, epsilon = 1/2.  At epsilon = lam/2,
    c1 = c1_matched, c2 = c2_matched * lam, c3 = c3_matched and
    c4 = c4_matched * lam, exactly when lam is a power of two.

    delta, t, lam and epsilon must be finite reals, r and n3 integers
    (``ValueError`` otherwise, naming the input); r >= 1, lam > 0,
    epsilon >= 0, and t > 1 and n3 >= 1 as :func:`ric_threshold` reads
    them.  Each is read once.  The
    keys, in order, are delta, t, r, n3, lambda, epsilon (the inputs),
    threshold, eta1, eta2, c1..c4 and c1_matched..c4_matched.  This is
    what constants-mode ``tubal bounds`` prints, and the head of every
    :func:`verify_bounds` record.
    """
    delta = _as_real(delta, "delta")
    lam, epsilon = _as_real(lam, "lam", above=0.0), _as_real(epsilon, "epsilon", least=0.0)
    r = _as_int(r, "r", least=1)
    thr = ric_threshold(t, n3)
    # ric_threshold has read t as a finite real > 1 and n3 as an integer >= 1
    t, n3 = float(t), int(n3)
    if not 0.0 <= delta < thr:
        raise RipConditionError(
            f"delta={delta:.6g} is not below the guarantee threshold "
            f"{thr:.6g} for t={t:.6g}, n3={n3}"
        )
    eta1 = 2.0 / ((1.0 - delta) * math.sqrt(1.0 + delta))
    eta2 = math.sqrt(n3) * delta / math.sqrt((1.0 - delta * delta) * (t - 1.0))
    sr = math.sqrt(r)
    srn = math.sqrt(n3 * r)
    sn = math.sqrt(n3)

    def coefficients(lam: float, epsilon: float) -> list[float]:
        # in units of c, the larger of lam and epsilon to a power of two:
        # c2 and c4 scale with c, and c1 and c3 have no unit
        c = _unit(np.array([lam, epsilon]))
        lam, epsilon = lam / c, epsilon / c
        c1 = 2.0 / (sr * eta1)
        c2 = 2.0 * sr * eta1 * lam + 2.0 * epsilon
        den3, den4 = r * eta1 * (1.0 - eta2) * lam, (1.0 - eta2) * lam
        num3 = 2.0 * sr * eta1 * (2.0 * srn + 1.0 + eta2) * lam + 2.0 * (srn + eta2) * epsilon
        c3 = num3 / den3 if den3 else math.inf
        c4 = ((srn + 1.0) * eta1 * lam + (srn - sn * eta2 + sn + 1.0) * epsilon) * c2 / den4 if den4 else math.inf
        return [c1, c2 * c, c3, c4 * c]

    record = {"delta": delta, "t": t, "r": r, "n3": n3, "lambda": lam, "epsilon": epsilon,
              "threshold": thr, "eta1": eta1, "eta2": eta2}
    record.update(zip(("c1", "c2", "c3", "c4"), coefficients(lam, epsilon)))
    record.update(zip(("c1_matched", "c2_matched", "c3_matched", "c4_matched"), coefficients(1.0, 0.5)))
    return record


# ---------------------------------------------------------------------------
# empirical distortion

# estimate_ric splits its trials into near-equal blocks of at most
# _PROBE_BLOCK probes, each measured by one matrix-matrix product: the
# product reads the dense matrix once per block, and more rows per pass
# keep it from being bound by memory bandwidth.  On the 1640x4000 map
# (2-core AMD EPYC, OpenBLAS 0.3.31, 2 threads) one probe's share of the
# product costs 66.5 us in 100-row blocks, 59.4 us in 200-row blocks and
# 55.7 us in 400-row blocks.  The cap of 256 measures 400 trials as two
# 200-row blocks, not one 400-row block: that would save another 6% of
# the product but add about 9 MB of peak RSS (98 to 107 MB for a
# 400-trial campaign over five ranks).  Within a block, probes
# are built _BUILD_BLOCK at a time by one stacked t-product, because a
# t-product's complex Fourier-domain intermediates are larger than the
# probes it builds, and a whole block at once would raise peak memory.
_PROBE_BLOCK = 256
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

    A non-integral `r`, `trials` or `seed`, an `r` outside [1, min(n1, n2)]
    or ``trials < 1`` raises ``ValueError``.
    """
    n1, n2, n3 = op.dims
    r, trials = _as_int(r, "r", least=1, most=min(n1, n2)), _as_int(trials, "trials", least=1)
    seed = _as_int(seed)
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
                gen = rng.stream(seed, "rip", r, start + lo + j)
                gen.standard_normal(out=fa[j])
                gen.standard_normal(out=fb[j])
            x = tprod(fa[:s], fb[:s]).reshape(s, 1, -1)
            # one dot product per probe, the sum fro_norm takes on a single tensor
            x /= np.sqrt(x @ x.transpose(0, 2, 1))
            probes[lo : lo + s] = x.reshape(s, n1, n2, n3)
            del x  # freed before the next t-product allocates its own
        mx = apply(op, probes[:k])
        samples[start : start + k] = np.abs((mx[:, None, :] @ mx[:, :, None]).ravel() - 1.0)
        del mx  # not held while the next block is built
    return RipEstimate(r=r, trials=trials, delta_hat=float(samples.max()), distortion_samples=samples)


# ---------------------------------------------------------------------------
# bound verification


def _read_instance(x_true, x_hat, op: GaussianLinearMap, y, epsilon: float):
    """Return a solved instance read for the guarantee: `x_true` and `x_hat`
    as tensors of ``op.dims`` and `y` as m finite measurements, with the
    read `epsilon` at least the realized noise ``||y - M(x_true)||_2``, up
    to ``1e-12 ||y||``, the roundoff of forming it; else ``ValueError``."""
    x_true, x_hat = as_tensor3(x_true), as_tensor3(x_hat)
    if x_true.shape != op.dims or x_hat.shape != op.dims:
        raise ValueError("tensor dims do not match the measurement map")
    y = _as_measurements(op, y)
    realized = _norm(y - apply(op, x_true))
    if realized > epsilon * (1.0 + 1e-9) + 1e-12 * _norm(y):
        raise ValueError(f"epsilon={epsilon:.6g} is below the realized noise norm {realized:.6g}")
    return x_true, x_hat, y


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
) -> dict:
    """Evaluate both recovery bounds on a solved instance.

    The instance is read as :func:`_read_instance` reads it: `y` must
    be a finite vector of length m, and `epsilon` must dominate the
    realized noise (the guarantee assumes a noise level, and the realized
    norm is the honest choice), else ``ValueError``; `delta` is whatever
    isometry constant the caller trusts for rank t*r, typically an
    empirical lower estimate.  The scalars are read and checked by
    :func:`guarantee_constants` before any measurement is taken.  Each
    norm is taken in units of its vector's max entry, so no square
    overflows or underflows.

    Returns the :func:`guarantee_constants` record followed by tail_tnn
    (the nuclear norm of the ground truth beyond tubal rank r), the two
    sides of each bound (lhs_meas, rhs_meas, lhs_fro, rhs_fro) and
    satisfied, a list of the two comparisons.
    """
    record = guarantee_constants(delta, t, r, op.dims[2], lam, epsilon)
    x_true, x_hat, y = _read_instance(x_true, x_hat, op, y, record["epsilon"])
    tail_tnn = tnn(truncate(x_true, r)[1])
    diff = x_hat - x_true
    lhs_meas = _norm(apply(op, diff))
    rhs_meas = record["c1"] * tail_tnn + record["c2"]
    lhs_fro = fro_norm(diff)
    rhs_fro = record["c3"] * tail_tnn + record["c4"]
    return {
        **record,
        "tail_tnn": tail_tnn,
        "lhs_meas": lhs_meas,
        "rhs_meas": rhs_meas,
        "lhs_fro": lhs_fro,
        "rhs_fro": rhs_fro,
        "satisfied": [lhs_meas <= rhs_meas, lhs_fro <= rhs_fro],
    }
