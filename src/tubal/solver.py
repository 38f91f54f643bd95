"""ADMM solver for regularized tensor-nuclear-norm recovery.

Solves ``min_x ||x||_* + (1/(2*lam)) * ||y - M vec(x)||^2`` by variable
splitting: an auxiliary tensor carries the data-fit term, the nuclear
norm is handled by its exact proximal map (singular value thresholding
of each Fourier slice), and a scalar penalty is adapted by residual
balancing (Boyd et al. 2011, section 3.4.1) within [_RHO0, _RHO_MAX].
Iterations stop when the entrywise changes of both blocks and their
disagreement all fall below _VARPI.

The data-fit block update solves ``(M^T M + rho I) z = b`` exactly.  The
Gram matrix of the smaller side of the m x N measurement matrix is
eigendecomposed once per solve and reused for every penalty value: for a
wide M (m < N), ``M M^T = Q diag(l) Q^T`` and the inverse acts as
``(b - M^T u) / rho`` with ``u = Q (l+rho)^-1 Q^T M b``, the Woodbury form
of the m x m system; for a tall or square M, ``M^T M = Q diag(l) Q^T`` and
the inverse is ``Q (l+rho)^-1 Q^T b``.  Either way a solve is a few
matrix-vector products, however often rho changes.  This replaces a thin
SVD of M, which has the same flop order but runs several times slower
than the symmetric Gram product and ``eigh``, and which keeps an N x m
factor of right singular vectors beside M.

On a wide M the loop reads M twice per iteration: ``M x``, which serves
both the objective's residual and the z-block's ``M b``, and ``M^T u``
inside the solve.  ``M b = M M^T y + M k + rho M x`` is assembled from
m-vectors: ``M M^T y`` is formed once per solve, and ``M k`` is carried
forward with the multiplier.  That carry needs ``M z``, which the Woodbury
form gives for free: ``M z = (M b - M M^T u) / rho = u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import as_tensor3, fro_norm, tnn, _from_slices, _slice_svd
from .measurement import GaussianLinearMap, _as_measurements, unvec, vec

__all__ = [
    "AdmmState",
    "NormalEquationSolver",
    "NumericalError",
    "SolveResult",
    "SolverConfig",
    "admm_solve",
    "prox_optimality_check",
    "tsvt",
]


class NumericalError(RuntimeError):
    """A linear-algebra kernel failed or an iterate left the finite range."""


# Penalty bracket, growth factor and balancing ratio of the penalty rule
# (see SolverConfig), and the entrywise stopping tolerance.
_RHO0 = 1e-4
_RHO_MAX = 1e10
_VARTHETA = 1.5
_BALANCE_RATIO = 100.0
_VARPI = 1e-8

# prox_optimality_check: number, relative size and seed of its probes
_PROBE_COUNT = 200
_PROBE_REL_SIZE = 1e-3
_PROBE_SEED = 0


@dataclass(frozen=True)
class SolverConfig:
    """The settings of the splitting scheme that callers choose.

    lam is the regularization weight of the data-fit term, finite and
    positive; max_iters caps the number of sweeps.

    The penalty follows residual balancing: rho starts at _RHO0, grows
    by _VARTHETA (up to _RHO_MAX) when the consensus residual exceeds
    _BALANCE_RATIO times the dual residual, shrinks by _VARTHETA (never
    below _RHO0) in the opposite case, and holds otherwise.  The penalty
    stays bounded, so the entrywise stopping rule fires only at a genuine
    fixed point of the splitting, i.e. at a minimizer.  The geometric
    schedule (rho times _VARTHETA every iteration) is not offered: its
    escalating penalty freezes the iterates, and the stopping rule
    fires, before the minimizer is reached.

    The penalty constants and the stopping tolerance _VARPI are fixed,
    not scaled to the data.  They stay module constants until a
    data-scaled initial penalty and absolute-plus-relative tolerances
    (Boyd et al. 2011, section 3.3) replace them.
    """

    lam: float
    max_iters: int = 500

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class AdmmState:
    """Iterates of the splitting scheme after an update sweep.

    last_prox_input / last_prox_tau record the argument and threshold of
    the most recent nuclear-norm proximal step, so optimality of the
    final x-block can be audited after the fact.
    """

    x: np.ndarray
    z: np.ndarray
    k_mult: np.ndarray
    rho: float
    iteration: int
    last_prox_input: np.ndarray | None = None
    last_prox_tau: float | None = None


@dataclass
class SolveResult:
    """Outcome of :func:`admm_solve`.

    residual_history rows are the three entrywise gaps
    (x step, z step, x-z disagreement) per iteration; objective_history
    tracks the regularized objective at each x iterate.
    """

    x_hat: np.ndarray
    iterations: int
    converged: bool
    residual_history: np.ndarray
    objective_history: np.ndarray
    final_state: AdmmState


# ---------------------------------------------------------------------------
# nuclear-norm proximal map


def tsvt(y_tensor: np.ndarray, tau: float) -> np.ndarray:
    """Tensor singular value thresholding, the proximal map of the TNN.

    Minimizes ``tau * ||x||_* + 0.5 * ||x - y_tensor||_F^2`` by soft
    thresholding the singular values of each Fourier slice by `tau` and
    transforming back, with one stacked SVD of the half spectrum.  The
    (1/n3) factors in the tensor norms cancel, so the per-slice
    threshold is `tau` itself.
    """
    y_tensor = as_tensor3(y_tensor)
    if tau < 0:
        raise ValueError("threshold tau must be >= 0")
    try:
        u, s, vt = _slice_svd(y_tensor)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"slice SVD failed during thresholding: {exc}") from exc
    return _from_slices(u, np.maximum(s - tau, 0.0), vt, y_tensor.shape[2])


def prox_optimality_check(y_tensor: np.ndarray, tau: float, x_out: np.ndarray) -> float:
    """Largest objective decrease found by random probing around `x_out`.

    Evaluates ``tau * ||x||_* + 0.5 * ||x - y_tensor||_F^2`` at `x_out`
    and at 200 seeded random offsets of relative size 1e-3, returning
    the maximum decrease (negative when every probe is worse).
    A true minimizer keeps this at roundoff level; an unshrunk or
    mis-scaled candidate shows a clearly positive value.
    """
    y_tensor = as_tensor3(y_tensor)
    x_out = as_tensor3(x_out)
    if x_out.shape != y_tensor.shape:
        raise ValueError("candidate and target shapes differ")

    def objective(x):
        return tau * tnn(x) + 0.5 * fro_norm(x - y_tensor) ** 2

    base = objective(x_out)
    scale = _PROBE_REL_SIZE * max(fro_norm(x_out), fro_norm(y_tensor))
    gen = rng.stream(_PROBE_SEED, "probe")
    best = -np.inf
    for _ in range(_PROBE_COUNT):
        step = gen.standard_normal(x_out.shape)
        norm = np.linalg.norm(step.ravel())
        if norm == 0.0 or scale == 0.0:
            continue
        best = max(best, base - objective(x_out + (scale / norm) * step))
    return float(best) if np.isfinite(best) else 0.0


# ---------------------------------------------------------------------------
# data-fit block


class NormalEquationSolver:
    """Solver for ``(M^T M + rho I) z = b`` at arbitrary rho > 0.

    Eigendecomposes the Gram matrix of the smaller side once: ``M M^T``
    (m x m) when M is wide, ``M^T M`` (N x N) otherwise, so forming it and
    running ``eigh`` costs ``O(min(m, N)^2 max(m, N))`` flops and
    ``min(m, N)^2`` floats of storage.  A wide M is kept by reference, and
    each solve multiplies by its transpose once and by the m x m
    eigenvectors twice; the caller supplies ``M b``, so no N x m factor is
    stored and no other pass over M is made.  Eigenvalues that roundoff
    pushed below zero are clamped to 0, their exact value when M is
    rank-deficient.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("measurement matrix must be 2-d")
        self._wide = matrix.shape[0] < matrix.shape[1]
        gram = matrix @ matrix.T if self._wide else matrix.T @ matrix
        try:
            evals, self._q = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition of the Gram matrix failed: {exc}") from exc
        self._evals = np.maximum(evals, 0.0)
        self._matrix = matrix if self._wide else None

    def solve(self, b: np.ndarray, mb: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray | None]:
        """Return ``z`` and, for a wide M, ``M z``.

        `mb` is ``M b``.  A wide M solves the m x m system for
        ``u = (M M^T + rho I)^-1 M b`` and returns ``z = (b - M^T u) / rho``
        together with ``M z``, which equals ``u``.  A tall or square M
        uses neither `mb` nor ``M z`` and returns ``(z, None)``.
        """
        if rho <= 0:
            raise ValueError("rho must be positive")
        if not self._wide:
            return self._q @ ((self._q.T @ b) / (self._evals + rho)), None
        # m < N: b/rho minus the row-space correction of the Woodbury identity
        u = self._q @ ((self._q.T @ mb) / (self._evals + rho))
        return (b - self._matrix.T @ u) / rho, u


# ---------------------------------------------------------------------------
# main loop


def admm_solve(op: GaussianLinearMap, y: np.ndarray, config: SolverConfig) -> SolveResult:
    """Run the splitting scheme from zero initialization.

    Per sweep: the x block applies :func:`tsvt` to ``z - k/rho`` with
    threshold ``lam/rho``; the z block solves the regularized normal
    equations; the multiplier absorbs ``rho * (x - z)``; the penalty
    is then rebalanced as described in :class:`SolverConfig`.  Stops
    when the three entrywise gaps (x step, z step, x-z) all drop below
    _VARPI, or at `max_iters` with ``converged=False``.

    Each sweep computes ``M x`` once, for the objective's residual and
    for the z block's ``M b = M M^T y + M k + rho M x``; ``M M^T y`` is
    formed once per solve and ``M k`` is updated alongside the
    multiplier from the ``M z`` that a wide solve returns.  On a wide M
    a sweep therefore reads M twice (``M x`` and the solve's ``M^T u``).

    Fully deterministic given (op, y, config).

    Raises
    ------
    ValueError
        If `y` has the wrong length or a non-finite entry; this is checked
        before the measurement matrix is factored.
    NumericalError
        If an iterate acquires non-finite entries.
    """
    y = _as_measurements(op, y)
    dims = op.dims

    ne_solver = NormalEquationSolver(op.matrix)
    mty = op.matrix.T @ y
    mmty = op.matrix @ mty
    mk = np.zeros(op.m)
    x = np.zeros(dims)
    z = np.zeros(dims)
    k_mult = np.zeros(dims)
    rho = _RHO0

    gaps_hist: list[tuple[float, float, float]] = []
    obj_hist: list[float] = []
    converged = False

    for iteration in range(1, config.max_iters + 1):
        # the final state reports the penalty of its sweep, not the one
        # rebalanced after it
        x_prev, z_prev, sweep_rho = x, z, rho

        prox_input = z - k_mult / rho
        tau = config.lam / rho
        x = tsvt(prox_input, tau)

        mx = op.matrix @ vec(x)
        b = mty + vec(k_mult) + rho * vec(x)
        z_vec, mz = ne_solver.solve(b, mmty + mk + rho * mx, rho)
        z = unvec(z_vec, dims)

        k_mult = k_mult + rho * (x - z)
        if mz is not None:
            mk = mk + rho * (mx - mz)

        if not (np.isfinite(x).all() and np.isfinite(z).all() and np.isfinite(k_mult).all()):
            raise NumericalError(
                f"non-finite iterate at iteration {iteration} (rho={rho:.3e}, lam={config.lam:.3e})"
            )

        x_step = float(np.max(np.abs(x - x_prev)))
        z_step = float(np.max(np.abs(z - z_prev)))
        consensus = float(np.max(np.abs(x - z)))
        residual = y - mx
        objective = tnn(x) + float(residual @ residual) / (2.0 * config.lam)
        gaps_hist.append((x_step, z_step, consensus))
        obj_hist.append(objective)

        if max(x_step, z_step, consensus) <= _VARPI:
            converged = True
            break
        dual_residual = rho * z_step
        if consensus > _BALANCE_RATIO * dual_residual:
            rho = min(_VARTHETA * rho, _RHO_MAX)
        elif dual_residual > _BALANCE_RATIO * consensus:
            rho = max(rho / _VARTHETA, _RHO0)

    return SolveResult(
        x_hat=x,
        iterations=iteration,
        converged=converged,
        residual_history=np.asarray(gaps_hist),
        objective_history=np.asarray(obj_hist),
        final_state=AdmmState(
            x=x,
            z=z,
            k_mult=k_mult,
            rho=sweep_rho,
            iteration=iteration,
            last_prox_input=prox_input,
            last_prox_tau=tau,
        ),
    )
