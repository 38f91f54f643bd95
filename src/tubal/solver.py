"""ADMM solver for regularized tensor-nuclear-norm recovery.

Solves ``min_x P(x) = ||x||_* + (1/(2*lam)) * ||y - M vec(x)||^2`` by
variable splitting: an auxiliary variable z carries the data-fit term, the
nuclear norm is handled by its exact proximal map (singular value
thresholding of each Fourier slice), and a scalar penalty is adapted by
two residual balance tests within [_RHO0, _RHO_MAX].

The penalty grows only when both tests call for it and shrinks when
either does.  The absolute test (Boyd et al. 2011, section 3.4.1)
compares ``max|x - z|`` with ``rho max|z - z_prev|``.  The relative test
(Wohlberg 2017, arXiv:1704.06209) compares
``p = ||x - z|| / max(||x||, ||z||)`` with ``d = rho ||z - z_prev|| / ||k||``
in 2-norms, with the dead band ``_BAND_LOW p <= d <= _BAND_HIGH p``.
Alone, the absolute test lets rho grow far above lam/c at small lam,
where the threshold tau = lam/rho then barely moves the iterates: on
case1 (10x10x5, m = 210; one trial at base seeds 1, 61 and 71, three at
2024 and 7) 87 of the 90 lam = 1e-3 and 1e-4 solves stopped at 500
sweeps, and the lam = 1e-4 cells read 5.9-7.8 dB.  Alone, the relative
test took more than 1.5 times the absolute test's sweeps on 13 of 60
small random instances (6.3 times at worst).  Together they cap no case1
cell there (the largest cell mean is 339 sweeps) and take 32-35% fewer
sweeps; the lam = 1e-4 row reads 29.7-31.5 dB in the mean, within
0.07 dB of the lam = 1e-3 row, and rows with lam >= 0.01 move by at most
0.001 dB.  On the 20x20x10 instance with m = 1640 at seed 1, lam = 0.1
still took 215 sweeps, lam = 1e-3 369 instead of 972, and lam = 1e-4
663 instead of more than 2000.  These counts are of the loop without
the accelerated step below, which takes about a third fewer.

Iterations stop on a certified duality gap.  By Fenchel duality (Boyd &
Vandenberghe 2004, section 5) every u with ``||M^T u||_2 <= 1`` gives
the lower bound ``D(u) = <y, u> - (lam/2) ||u||^2 <= min P``, where
``||.||_2``, the dual norm of the TNN, is the largest singular value over
the Fourier slices (Lu et al. 2016, "Tensor robust PCA").  The loop
stops when ``P(x) - D(u) <= _GAP_TOL * P(x)``.

The solve runs in one unit, c, the power of two with
``c <= max|y| < 2c``.  y and lam are divided by c at the door, every
iterate, P, D and the gap are computed in units of c, and x_hat,
``objective_history`` and the final prox step are multiplied by c at the
exit; the dual point has no unit.  Both steps are exact, so scaling
(y, lam) by a power of two scales the answer bitwise, and by any other
factor changes only roundoff: the rule and the iteration count do not
depend on the units of the data (Boyd et al. 2011, section 3.4.1).

The loop's state lives in the z block's vector form: z, the multiplier
k and the residual ``r = y - M z`` are flat vectors, viewed as tensors
only where :func:`tsvt` and the dual norm need them.  The z update
solves ``(M^T M + rho I) z' = M^T y + k + rho x``.  Each update leaves
``M^T (y - M z') = -k'`` (below), so after the first sweep, which
starts at k = 0 (and z = 0 unless a start is given, below),
``M^T y + k = M^T M z`` and the update is the step
``(M^T M + rho I) (z' - z) = rho (x - z)``, solved exactly, which returns
``(z' - z, M (z' - z))`` for every shape of M.  The step's right-hand
side shrinks as the loop converges; the full one, about ``M^T y`` in
size, loses ``eps ||M^T y|| / rho`` of roundoff in the Woodbury form
below, which the mixing of the accelerated step amplifies: between a
5x5x4 instance and its transpose, x_hat differed by 1.7e-10 of its norm
with the full right-hand side, against 1.1e-12 in the step form.  The
Gram matrix of the smaller side of the m x N measurement matrix is
eigendecomposed once per solve and reused for every penalty value: for
a wide M (m < N), ``M M^T = Q diag(l) Q^T`` and the inverse acts on b as
``(b - M^T u) / rho`` with ``u = Q (l+rho)^-1 Q^T M b``, the Woodbury
form of the m x m system, and ``M (M^T M + rho I)^-1 b = u``; for a tall
or square M, ``M^T M = Q diag(l) Q^T``, the inverse is
``Q (l+rho)^-1 Q^T b`` and its image under M takes one more product.

On a wide M the loop reads M twice per iteration: ``M x``, which serves
both the objective's residual and ``M b = rho (r - (y - M x))``, and
``M^T u`` inside the solve.  ``M M^T r`` of the start's residual
(``M M^T y`` from zero) is formed once per solve, for the first sweep,
and r is carried forward from the solve's image of the step.

The gap costs no pass over M.  After the multiplier update
``M^T (y - M z) = -k``, so with ``r = y - M z`` the point
``u = (s / lam) r`` has ``||M^T u||_2 = s ||k||_2 / lam``, one
values-only slice SVD of k.  s maximizes D(u) on ``[0, lam / ||k||_2]``;
its unconstrained maximizer ``<y, r> / ||r||^2`` needs no lam.  So the
gap is one scalar function, ``_gap``, of P, ``<y, r>``, ``||r||^2``, the
dual norm and lam, and a sweep forms ``<y, r>`` and ``||r||^2`` once; u
itself is built once, at the exit, from the s and r of the last sweep,
which always takes the exact gap.  The first sweep's Woodbury solve
loses about 1e-10 of z's relative accuracy at rho = _RHO0, but with the
solve's own image of z, which the next step absorbs into z, the
identity held to 1.6e-10 of ``||k||`` in every sweep of a 10x10x5
instance with m = 210 at lam = 0.1 and 1e-4, and ``||M^T u||_2`` stayed
within 5e-11 of 1 on 150 case1 cells, so the certificate is accurate
far below _GAP_TOL.  r is carried rather than ``M z``: its roundoff,
``eps ||r||``, is far below that of ``M z``, ``eps ||y||``, which added
up to 1e-9 of ``||k||`` in 170 sweeps at lam = 1e-4.

A sweep takes neither the TNN nor the dual norm by SVD when a lower
bound on the gap that costs no SVD shows it cannot stop.  The x
block keeps each slice singular value of the prox input v above
``tau = lam / rho``, shrunk by tau, so ``tau TNN(x) = <x, v - x>``; this
free TNN is within ``slack = _TNN_SLACK ||x|| ||v|| / tau`` of
``tnn(x)``.  tau is positive in every sweep: the door keeps lam/c above
``||y/c||^2 / (2 DBL_MAX) >= 1 / (2 DBL_MAX)`` and rho is at most
_RHO_MAX, so tau is at least 2.7e-319.  Hoelder's inequality for the
TNN and its dual norm gives ``|<k, x>| <= ||k||_2 TNN(x)``, so
``k_lo = |<k, x>| / (TNN_free + slack)`` is at most ``||k||_2``.  With
``P_lo = fit + TNN_free - slack`` <= P, and D taken at the norm k_lo,
which loosens the cap on s and so bounds D from above, ``_gap`` of P_lo
is at most the gap.  When that bound exceeds _GAP_TOL by _SKIP_MARGIN
the sweep cannot stop and skips both SVDs.  Otherwise ``||k||_2`` is taken by SVD; when the bound with it
still clears the tolerance the sweep skips ``tnn(x)``, and only then do
``tnn(x)``, the certificate and the stop test run.  The last sweep and
any sweep whose bound is not finite, or whose P_lo is not positive, take
that exact path.  So every stop falls where a loop that takes the exact
gap every sweep puts it, and since the iterates never read the gap, x_hat,
the iteration count, the gap, u and the final objective are bitwise that
loop's.  A sweep that cannot stop records ``fit + TNN_free`` as its
objective, P to within the slack.  On case1 trial 0 (base seed 2024, 30
cells solved as lambda paths) ``tnn`` ran once per solve and the dual
norm's SVD in 1334 of the 2298 sweeps (58%), so 42% of the sweeps skipped
both SVDs: a warm solve starts near its stop, where the free bound rules
out fewer sweeps.

Sweeps at one rho are Anderson-accelerated: type-II Anderson mixing
(Walker & Ni 2011) with a safeguard (Zhang, O'Donoghue & Boyd 2020).  A
sweep maps its input w = (z, k / rho) to the plain output
g = (z', k' / rho), and the next input is the mixed point
``g - dG gamma`` instead of g, where gamma minimizes ``||f - dF gamma||``
for the residual f = g - w, over the last _AA_MEMORY differences dF of
f and dG of g.  r is mixed with the same gamma.  The differences sit in
ring buffers, and gamma solves the normal equations with the Tikhonov
weight _AA_REG times the Frobenius norm of ``dF^T dF``: without it, a
nearly singular ``dF^T dF`` made x_hat of a test instance and of its
transpose differ by 6e-4 of its norm.  Every sweep stays a plain
evaluation from its input, mixed or not: tsvt, the z step, the
multiplier update, the gap test and the rebalance.  The memory is
cleared whenever rho changes, since the map changes with it.  A step
from a mixed point that leaves a larger ``||f||`` than the sweep before
is dropped, with the memory: the next input is the previous sweep's
plain output.  A mixed point is an affine combination of plain outputs,
whose weights sum to 1, so it keeps ``M^T r = -k`` and ``r = y - M z``,
and the z step from it is exact.  The certificate is taken on plain
outputs, and the stop and the cap leave before the next input is
formed, so every stop falls where the exact gap puts it and
``tsvt(last_prox_input, last_prox_tau)`` still replays x_hat.  On the
20x20x10 instance with m = 1640, lam = 0.1 took 141-167 sweeps instead
of 215-226 at seeds 0-5, 61-63 and 71, with no step dropped, and the
objective moved by at most 2.5e-11 of itself; at seed 1, lam = 1e-3
took 250 sweeps instead of 369, and lam = 1e-4 304 instead of 663.  One
case1 trial at base seeds 0, 1 and 61 took 3033-3172 sweeps instead of
5055-5734, and no cell's mean SNR moved by more than 0.003 dB.

The same function certifies x = 0 before any sweep: at z = 0 the
residual is y and the multiplier ``-M^T y``, so the gap of x = 0 costs
one values-only slice SVD of ``M^T y``, which the loop needs anyway.
The start sets the exit state of a first sweep whose prox step is the
no-op ``tsvt(0, 0) = 0``: x_hat = 0 after 1 iteration, rho = _RHO0, a
zero prox input and the threshold 0, so the state replays x_hat at any
lam.  When the start gap is at most _GAP_TOL, as it is for every
``lam >= ||M^T y||_2``, the solve skips the factorization and the
loop.  The start certificate, the stop and the cap leave by one exit,
which converts to data units, checks finiteness and builds the one
:class:`SolveResult`.

A solve can start where another one ended, such as the previous lam of
a regularization path on the same operator and data (continuation, as
in Toh & Yun 2010 and Ma, Goldfarb & Chen 2011).  Only the start's
x_hat and final rho are read, the rho within [_RHO0, _RHO_MAX] as every
solve leaves it: the loop begins at z = x_hat / c, k = 0 and
``r = y - M z``, at that rho.  The z update's right-hand side less
``(M^T M + rho I) z`` is ``M^T r + k + rho (x - z)``.  After every
sweep ``M^T r + k = 0``, but at the start, with k = 0, ``M^T r`` is
left, so the first sweep's step carries that offset, and its image
``M M^T r``, on its right-hand side.  At x_hat = 0 and rho = _RHO0 the
offset is ``M^T y`` and the start is the cold one, so there is one loop
and one initialization, and a start-certified solve given as the start
reproduces the cold solve byte for byte.  Setting k to ``-M^T r``
instead, which needs no offset, would make the first prox input
``z - k / rho`` read ``M^T y / rho`` at x_hat = 0, not the cold
start's 0.  The start certificate of x = 0 still runs first, and the
solve stops on its own gap.  Solving each sigma column of the case1
table as a path in its lambda order (10 down to 1e-4) took one trial
2115, 2256 and 2298 sweeps instead of 3161, 3163 and 3264 at base seeds
101, 1 and 2024, with no cell capped, and the full table (50 trials at
base seed 2024) 2173 instead of 3089 per trial; in the ascending order
one trial took 2763 at seed 101.  A start far from the answer can cost
sweeps: from lam = 30, the lam = 1e-4 cell of case1 trial 0 at
sigma = 0.01 took 195 instead of the cold 183.

One failure rule holds for a solve.  ``y``, the config and the start
are read at the door, and a bad value raises ``ValueError``.  After that a failure
is a :class:`NumericalError`: a lam/c that leaves the float range, or is
so small that ``P(0) = ||y||^2 / (2 lam)`` reads inf in units of c and
the start gap NaN; an ``M^T y`` that leaves the float range, checked
before the start certificate's SVD; a Gram product that leaves it, which
fails the eigendecomposition; a failed eigendecomposition or
thresholding SVD, or a thresholding that leaves the finite range; a
non-finite value among the four that each sweep checks, the threshold
lam/rho and the prox input before :func:`tsvt` reads them, and the
multiplier and ``(||y - M x||^2, <y, r>, ||r||^2)`` after the multiplier
update; and at the exit, an x_hat or final prox step that leaves the
float range in data units.  Those four cover every other iterate: a
non-finite x or z shows in the multiplier ``k + rho (x - z)``, a
non-finite ``M x`` in ``||y - M x||^2``, a non-finite ``y - M z`` in
``<y, r>`` and ``||r||^2``, and a non-finite mixed point in the checks
of the sweep that starts from it, since the stop and the cap leave
before a point is mixed.  The solve runs from the door to the exit under
one numpy error state, in which an overflow or an invalid operation
leaves inf or NaN without a warning, so the check that finds it raises
the NumericalError whatever the warnings filter; an objective above the
float range reads inf.  :func:`~tubal.bench.run_experiment` marks such a
cell aborted, and ``tubal`` exits 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .algebra import _as_array, _as_int, _as_real, _bounded, _unit, as_tensor3, fro_norm, tnn, _from_slices, _slice_svd
from .measurement import GaussianLinearMap, _as_measurements, _unvec, _vec

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


# Penalty bracket and growth factor, the ratio of the absolute balance
# test and the dead band [_BAND_LOW, _BAND_HIGH] of the relative one (see
# SolverConfig), and the relative duality gap that stops the loop.
_RHO0 = 1e-4
_RHO_MAX = 1e10
_VARTHETA = 1.5
# Anderson acceleration at fixed rho: how many past differences it mixes,
# and the Tikhonov weight of its least-squares step, relative to the
# Frobenius norm of the differences' Gram matrix (module docstring)
_AA_MEMORY = 5
_AA_REG = 1e-6
_BALANCE_RATIO = 100.0
_BAND_LOW = 10.0
_BAND_HIGH = 250.0
_GAP_TOL = 1e-6

# The free TNN's error bound, in units of ||x|| ||v|| / tau (the largest
# error seen over 42,057 sweeps of case1 and 20x20x10 solves was 1.2e-15
# in those units), and the margin by which a free lower bound on the gap
# must clear _GAP_TOL to skip the exact gap, which covers the few-eps
# roundoff of the scalar arithmetic that forms it (module docstring).
_TNN_SLACK = 1e-12
_SKIP_MARGIN = 1e-12

# prox_optimality_check: number, relative size and seed of its probes
_PROBE_COUNT = 200
_PROBE_REL_SIZE = 1e-3
_PROBE_SEED = 0


@dataclass(frozen=True)
class SolverConfig:
    """The settings of the splitting scheme that callers choose.

    lam is the regularization weight of the data-fit term, a finite
    positive real stored as a float (a bool is rejected); max_iters caps
    the number of sweeps, an integer >= 1 (an integral float such as 2.0
    is stored as 2).

    The penalty follows two residual balance tests (module docstring):
    rho starts at _RHO0 and grows by _VARTHETA (up to _RHO_MAX) only when
    both call for it, that is when ``max|x - z|`` exceeds _BALANCE_RATIO
    times ``rho max|z - z_prev|`` and the relative dual residual
    ``rho ||z - z_prev|| / ||k||`` is below _BAND_LOW times the relative
    primal one ``||x - z|| / max(||x||, ||z||)``.  It shrinks by
    _VARTHETA (never below _RHO0) when either calls for the opposite,
    the relative test at _BAND_HIGH times, and holds otherwise.  The
    geometric schedule (rho times _VARTHETA every iteration) is not
    offered: its escalating penalty freezes the iterates before the
    minimizer is reached.

    A solve stops when the relative duality gap ``(P - D) / P`` of the
    module docstring falls to _GAP_TOL, a bound on how far the objective
    is above its minimum (Fenchel duality, Boyd & Vandenberghe 2004,
    section 5; the TNN's dual norm, Lu et al. 2016).  The gap is
    unchanged when (y, lam) are scaled together, and so is the penalty
    rule, whose tests each compare two quantities of the same units, so
    no constant needs scaling to the data.
    """

    lam: float
    max_iters: int = 500

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_real(self.lam, "lam", above=0.0))
        object.__setattr__(self, "max_iters", _as_int(self.max_iters, "max_iters", least=1))


@dataclass
class AdmmState:
    """The last update sweep of the splitting scheme.

    rho is the penalty that sweep used.  last_prox_input / last_prox_tau
    record the argument and threshold of its nuclear-norm proximal step,
    so optimality of the final x-block can be audited after the fact and
    ``tsvt(last_prox_input, last_prox_tau)`` replays x_hat.  A solve that
    the start certificate ends records the no-op step ``tsvt(0, 0) = 0`` at
    rho = _RHO0 (module docstring).
    """

    rho: float
    last_prox_input: np.ndarray
    last_prox_tau: float


@dataclass
class SolveResult:
    """Outcome of :func:`admm_solve`.

    objective_history tracks the regularized objective P at each x
    iterate; an entry above the float range reads inf.  The last entry is
    ``tnn(x_hat)`` plus the data fit; a sweep that a free lower bound on
    the gap showed could not stop records its TNN as
    ``<x, v - x> / tau``, the identity of the module docstring, so its
    entry is P to within ``_TNN_SLACK ||x|| ||v|| / tau``.  dual is the
    m-vector u of the sweep that set `gap`, the last one, with
    ``||M^T u||_2 <= 1`` up to roundoff, and gap is the exit relative gap
    ``(P(x_hat) - D(u)) / P(x_hat)`` (0 when P(x_hat) = 0): anyone can
    check the certificate from y, lam, x_hat and one product by M^T.
    converged means gap <= _GAP_TOL.
    """

    x_hat: np.ndarray
    iterations: int
    converged: bool
    objective_history: np.ndarray
    final_state: AdmmState
    gap: float
    dual: np.ndarray


# ---------------------------------------------------------------------------
# nuclear-norm proximal map


def tsvt(y_tensor: np.ndarray, tau: float) -> np.ndarray:
    """Tensor singular value thresholding, the proximal map of the TNN.

    Minimizes ``tau * ||x||_* + 0.5 * ||x - y_tensor||_F^2`` by soft
    thresholding the singular values of each Fourier slice by `tau` and
    transforming back, with one stacked SVD of the half spectrum.  The
    (1/n3) factors in the tensor norms cancel, so the per-slice
    threshold is `tau` itself, a finite real >= 0.  A result that
    leaves the finite range, as it can when the input nears the largest
    float, raises :class:`NumericalError`.
    """
    y_tensor = as_tensor3(y_tensor)
    tau = _as_real(tau, "tau", least=0.0)
    # an overflow shows in the result, and is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u, s, vt = _slice_svd(y_tensor)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"slice SVD failed during thresholding: {exc}") from exc
        x = _from_slices(u, np.maximum(s - tau, 0.0), vt, y_tensor.shape[2])
    if not np.isfinite(x).all():
        raise NumericalError("thresholding left the finite range")
    return x


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
    ``min(m, N)^2`` floats of storage.  M is kept by reference.  Each
    solve returns ``(z, M z)``: on a wide M it multiplies by the
    transpose once and by the m x m eigenvectors twice, with ``M b``
    from the caller; on a tall or square M it multiplies by the N x N
    eigenvectors twice and by M once.  M is used as given, as a
    checked :class:`GaussianLinearMap` matrix.  Eigenvalues that roundoff
    pushed below zero are clamped to 0, their exact value when M is
    rank-deficient.
    """

    def __init__(self, matrix: np.ndarray):
        self._wide = matrix.shape[0] < matrix.shape[1]
        # an overflow makes eigh fail, which is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            gram = matrix @ matrix.T if self._wide else matrix.T @ matrix
        try:
            evals, self._q = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition of the Gram matrix failed: {exc}") from exc
        self._evals = np.maximum(evals, 0.0)
        self._matrix = matrix

    def solve(self, b: np.ndarray, mb: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(z, M z)`` for every shape of M.

        `mb` is ``M b``.  A wide M solves the m x m system for
        ``u = (M M^T + rho I)^-1 M b`` and returns ``z = (b - M^T u) / rho``
        with ``M z = u``, which costs no product.  A tall or square M
        ignores `mb`, solves in the eigenbasis of ``M^T M`` and forms
        ``M z`` with one product.
        """
        if rho <= 0:
            raise ValueError("rho must be positive")
        if not self._wide:
            z = self._q @ ((self._q.T @ b) / (self._evals + rho))
            return z, self._matrix @ z
        # m < N: b/rho minus the row-space correction of the Woodbury identity
        u = self._q @ ((self._q.T @ mb) / (self._evals + rho))
        return (b - self._matrix.T @ u) / rho, u


# ---------------------------------------------------------------------------
# main loop


def _check_finite(iteration: int, rho: float, *named) -> None:
    """Raise :class:`NumericalError` naming the first (name, value) pair with a non-finite entry."""
    for name, value in named:
        if not np.isfinite(value).all():
            raise NumericalError(f"non-finite {name} at iteration {iteration} (rho={rho:.3e})")


def _gap(objective: float, yr: float, rr: float, k_norm: float, lam: float) -> tuple[float, float]:
    """The relative gap ``(P - D(u)) / P`` of P = `objective`, and the scale s of ``u = (s / lam) r``.

    r is ``y - M z``, `yr` is ``<y, r>``, `rr` is ``||r||^2`` and `k_norm`
    is the dual norm of z's multiplier, so ``||M^T u||_2 = s k_norm / lam``.
    s maximizes ``D(u) = (s / lam) (<y, r> - s ||r||^2 / 2)`` on
    ``[0, lam / k_norm]``, which keeps u feasible; the interval has no
    upper end when k_norm is 0.  The gap is 0 when P is 0, and NaN when
    P reads inf.  All values share one unit.
    """
    s = max(yr / rr, 0.0) if rr > 0 else 0.0
    if k_norm > 0:
        s = min(s, lam / k_norm)
    dual_value = (s / lam) * (yr - 0.5 * s * rr)
    return (objective - dual_value) / objective if objective > 0 else 0.0, s


def _dual_norm(k_mult: np.ndarray, dims) -> float:
    """The TNN's dual norm of the N-vector `k_mult`: one values-only slice SVD."""
    return float(_slice_svd(_unvec(k_mult, dims), compute_uv=False).max())


def _free_tnn(x_vec: np.ndarray, v: np.ndarray, tau: float) -> tuple[float, float]:
    """``TNN(x)`` for ``x = tsvt(v, tau)``, as ``<x, v - x> / tau``, and its error bound.

    `x_vec` and `v` are N-vectors and tau is positive.  The bound is
    ``_TNN_SLACK ||x|| ||v|| / tau`` (module docstring)."""
    tnn_free = float(x_vec @ (v - x_vec)) / tau
    return tnn_free, _TNN_SLACK * math.sqrt(float(x_vec @ x_vec) * float(v @ v)) / tau


def _cannot_stop(p_lo: float, yr: float, rr: float, k_lo: float, lam: float) -> bool:
    """Whether every P >= `p_lo` and dual norm >= `k_lo` give a gap above _GAP_TOL.

    A smaller dual norm loosens the cap on s, so ``D`` at `k_lo` bounds
    the dual value from above and :func:`_gap` of `p_lo` at `k_lo` bounds
    the gap from below.  The bound must clear _GAP_TOL by _SKIP_MARGIN,
    which covers this scalar arithmetic's roundoff; a non-finite or
    non-positive input, or a D that reads inf, gives False."""
    if not (0.0 < p_lo < math.inf and math.isfinite(k_lo)):
        return False
    return _gap(p_lo, yr, rr, k_lo, lam)[0] > _GAP_TOL + _SKIP_MARGIN


def _rebalance(rho: float, x_vec: np.ndarray, z: np.ndarray, z_prev: np.ndarray, k_mult: np.ndarray) -> float:
    """The penalty of the next sweep, from two residual balance tests (see :class:`SolverConfig`).

    rho grows by _VARTHETA when both tests call for it and shrinks when
    either does.  The absolute test compares ``max|x - z|`` with
    ``rho max|z - z_prev|``.  The relative one compares
    ``p = ||x - z|| / max(||x||, ||z||)`` with
    ``d = rho ||z - z_prev|| / ||k||`` in 2-norms, as the products
    ``rho ||z - z_prev|| max(||x||, ||z||)`` and ``||x - z|| ||k||``, so a
    zero ``||k||``, or x = z = 0, holds rho instead of dividing by zero.
    A norm above the float range reads inf, and a test it makes read NaN
    does not call for a change.
    """
    xz, dz = x_vec - z, z - z_prev
    consensus, z_step = float(np.max(np.abs(xz))), float(np.max(np.abs(dz)))
    xz_norm, dz_norm, x_norm, z_norm, k_norm = (math.sqrt(float(v @ v)) for v in (xz, dz, x_vec, z, k_mult))
    dual_residual = rho * z_step
    # d < _BAND_LOW p and d > _BAND_HIGH p, multiplied out
    dual_rel, primal_rel = rho * dz_norm * max(x_norm, z_norm), xz_norm * k_norm
    if consensus > _BALANCE_RATIO * dual_residual and dual_rel < _BAND_LOW * primal_rel:
        return min(_VARTHETA * rho, _RHO_MAX)
    if dual_residual > _BALANCE_RATIO * consensus or dual_rel > _BAND_HIGH * primal_rel > 0.0:
        return max(rho / _VARTHETA, _RHO0)
    return rho


class _AndersonMixer:
    """Type-II Anderson mixing of the sweep map at fixed rho (module docstring).

    Keeps the last _AA_MEMORY differences of the residual f = g - w and
    of the plain output g in ring buffers, and the Gram matrix of the f
    differences, so a sweep costs one new Gram row and one
    _AA_MEMORY x _AA_MEMORY solve.
    """

    def __init__(self, f_size: int, g_size: int):
        self._df = np.empty((_AA_MEMORY, f_size))
        self._dg = np.empty((_AA_MEMORY, g_size))
        self._gram = np.empty((_AA_MEMORY, _AA_MEMORY))
        self.clear()

    def clear(self) -> None:
        self._last, self._count, self._slot = None, 0, 0

    def mix(self, f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """Record the plain evaluation (f, g); return ``g - dG gamma``, or None before there is a difference.

        gamma minimizes ``||f - dF gamma||`` over the stored differences,
        by the regularized normal equations; a solve that fails or a
        gamma that is not finite also gives None, the plain step.  An
        overflow shows in gamma or in the mixed point, which the loop
        checks."""
        if self._last is not None:
            j = self._slot
            np.subtract(f, self._last[0], out=self._df[j])
            np.subtract(g, self._last[1], out=self._dg[j])
            self._slot, self._count = (j + 1) % _AA_MEMORY, min(self._count + 1, _AA_MEMORY)
            row = self._df[: self._count] @ self._df[j]
            self._gram[j, : self._count] = self._gram[: self._count, j] = row
        self._last = f, g
        n = self._count
        if n == 0:
            return None
        gram = self._gram[:n, :n]
        try:
            gamma = np.linalg.solve(gram + _AA_REG * np.linalg.norm(gram) * np.eye(n), self._df[:n] @ f)
        except np.linalg.LinAlgError:
            return None
        return g - gamma @ self._dg[:n] if np.isfinite(gamma).all() else None


def _read_start(start: SolveResult | None, dims) -> tuple[np.ndarray, float]:
    """The loop's start point and penalty: x = 0 at _RHO0, or `start`'s
    x_hat, a finite array of shape `dims`, at its final rho, a real in the
    penalty bracket [_RHO0, _RHO_MAX] (``ValueError`` otherwise)."""
    if start is None:
        return np.zeros(dims), _RHO0
    x = _as_array(start.x_hat, 3, "start x_hat")
    if x.shape != tuple(dims):
        raise ValueError(f"start x_hat: shape {x.shape} does not match the operator's {tuple(dims)}")
    return x, _bounded(_as_real(start.final_state.rho, "start rho"), "start rho", _RHO0, most=_RHO_MAX)


def admm_solve(
    op: GaussianLinearMap, y: np.ndarray, config: SolverConfig, start: SolveResult | None = None
) -> SolveResult:
    """Run the splitting scheme from x = 0, or from a previous solve `start`.

    x = 0 is tried first, by the start certificate of the module
    docstring, which on success skips the loop.  Otherwise the loop
    starts at z = x_hat / c of `start` (0 without one), with the
    multiplier k = 0 and the residual ``r = y - M z``, at `start`'s final
    penalty (_RHO0 without one).  `start` should be a solve on the same
    operator, such as the one at the previous lam of a path; only its
    x_hat and ``final_state.rho`` are read.  The first sweep's z step
    carries the offset ``M^T r`` that k = 0 leaves on its right-hand
    side, which from x_hat = 0 at _RHO0 is the cold start's ``M^T y``:
    so a start-certified solve given as `start` reproduces the cold
    solve byte for byte, and there is one loop for both.  The module
    docstring gives the sweeps that such a path saves on case1.

    z, the multiplier k and the residual ``r = y - M z`` are vectors.  Per
    sweep: the x block applies :func:`tsvt` to ``z - k/rho``, viewed as a
    tensor, with threshold ``lam/rho``; the z block takes the exact step of
    the regularized normal equations and updates r with its image; the
    multiplier absorbs ``rho * (vec(x) - z)``; the penalty is then
    rebalanced as described in :class:`SolverConfig`, and at an unchanged
    penalty the next input is the safeguarded Anderson mix of the module
    docstring.  Stops when the relative duality gap of the module docstring
    is at most _GAP_TOL, or at `max_iters` with ``converged=False``.  The
    start certificate, the stop and the cap share one exit, which builds the
    dual point from the last sweep's exact gap and plain output and returns
    to data units.

    Each sweep computes ``M x`` once, for the objective's residual and for
    the z step's ``M b = rho (r - (y - M x))``; the start's ``M^T r`` and
    ``M M^T r`` are formed once per solve, for the first sweep.  On a wide M
    a sweep therefore reads M twice (``M x`` and the solve's ``M^T u``), and
    a tall or square M once more, inside the solve, for the step's image.
    The gap's TNN and its values-only slice SVD of the multiplier run only
    in sweeps that a free lower bound on the gap, from
    ``tau TNN(x) = <x, v - x>`` and ``|<k, x>| <= ||k||_2 TNN(x)``, cannot
    rule out as the last (module docstring); the last sweep always takes
    them.  A skipped sweep's objective is P to within
    ``_TNN_SLACK ||x|| ||v|| / tau``.

    Fully deterministic given (op, y, config, start).

    Raises
    ------
    ValueError
        If `y` is not a real, finite vector of length m, or `start`'s
        x_hat is not a finite array of the operator's dims or its rho not
        a real in [_RHO0, _RHO_MAX], the bracket that every solve's final
        rho lies in; this is checked before the measurement matrix is
        factored.
    NumericalError
        For any failure after `y`, `config` and `start` are read, as the
        module docstring lists.
    """
    # one floating-point regime from the door to the exit: an overflow or an
    # invalid operation leaves inf or NaN, without a warning, for the checks
    # below to report as a NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        y = _as_measurements(op, y)
        dims = op.dims
        x_start, rho_start = _read_start(start, dims)
        # the solve's unit c, a power of two near max|y| (algebra._unit): the
        # loop's values stay near 1, and returning to data units is exact
        c = _unit(y)
        y, lam = y / c, config.lam / c
        yy = float(y @ y)
        # lam/c also underflows where P(0) = ||y||^2 / (2 lam) reads inf
        if not (0.0 < lam < math.inf and yy / (2.0 * lam) < math.inf):
            flow = "overflows" if lam == math.inf else "underflows"
            raise NumericalError(f"lam={config.lam:.3e} {flow} in units of max|y| ~ {c:.3e}")

        mty = op.matrix.T @ y
        # the start certificate, in the exit state of the no-op first sweep
        # x = tsvt(0, 0) = 0: z = 0 has the residual y and the multiplier
        # -M^T y, whose dual norm is that of M^T y
        x = prox_input = np.zeros(dims)
        iteration, sweep_rho, tau, z_residual = 1, _RHO0, 0.0, y
        _check_finite(iteration, sweep_rho, ("M^T y", mty))
        obj_hist = [yy / (2.0 * lam)]
        gap, s = _gap(obj_hist[0], yy, yy, _dual_norm(mty, dims), lam)

        if gap > _GAP_TOL:
            ne_solver = NormalEquationSolver(op.matrix)
            # the z block's right-hand side less (M^T M + rho I) z is
            # M^T y + k - M^T M z + rho (x - z); the first three terms sum to
            # M^T (y - M z) at the start, where k = 0 (M^T y when z = 0 too),
            # and to 0 after every sweep
            z = _vec(x_start) / c
            z_residual = y - op.matrix @ z
            offset = op.matrix.T @ z_residual
            m_offset = op.matrix @ offset
            k_mult = np.zeros_like(z)
            rho = rho_start
            obj_hist = []
            n = z.size
            anderson, mixed, f_norm = _AndersonMixer(2 * n, 2 * n + op.m), False, math.inf

            for iteration in range(1, config.max_iters + 1):
                # the final state reports the penalty of its sweep, not the one
                # rebalanced after it
                z_prev, k_prev, sweep_rho = z, k_mult, rho

                v = z - k_mult / rho
                prox_input = _unvec(v, dims)
                tau = lam / rho
                _check_finite(iteration, rho, ("threshold lam/rho", tau), ("prox input", prox_input))
                x = tsvt(prox_input, tau)

                x_vec = _vec(x)
                residual = y - op.matrix @ x_vec
                # M (x - z) = (y - M z) - (y - M x)
                step, m_step = ne_solver.solve(offset + rho * (x_vec - z), m_offset + rho * (z_residual - residual), rho)
                z, z_residual, offset, m_offset = z + step, z_residual - m_step, 0.0, 0.0
                k_mult = k_mult + rho * (x_vec - z)
                rx, yr, rr = float(residual @ residual), float(y @ z_residual), float(z_residual @ z_residual)
                # with the prox input's check, these catch a non-finite x, M x,
                # z or y - M z of this sweep and a mixed point of the last one
                _check_finite(iteration, rho, ("multiplier", k_mult), ("residual norms", (rx, yr, rr)))
                # the fit reads inf when lam/c is tiny
                fit = rx / (2.0 * lam)

                # the free TNN and a free lower bound on the dual norm bound the
                # gap from below; a sweep they show cannot stop skips the exact
                # TNN and dual norm (module docstring), and the last sweep is exact
                may_stop, k_norm = True, None
                if iteration < config.max_iters:
                    tnn_free, slack = _free_tnn(x_vec, v, tau)
                    tnn_hi, p_lo = tnn_free + slack, fit + tnn_free - slack
                    k_lo = abs(float(k_mult @ x_vec)) / tnn_hi if tnn_hi > 0.0 else 0.0
                    may_stop = not _cannot_stop(p_lo, yr, rr, k_lo, lam)
                    if may_stop:
                        k_norm = _dual_norm(k_mult, dims)
                        may_stop = not _cannot_stop(p_lo, yr, rr, k_norm, lam)
                if may_stop:
                    obj_hist.append(tnn(x) + fit)
                    if k_norm is None:
                        k_norm = _dual_norm(k_mult, dims)
                    # M^T (y - M z) = -k, so the dual norm of k bounds the dual point
                    gap, s = _gap(obj_hist[-1], yr, rr, k_norm, lam)
                    # the stop and the cap leave with this sweep's plain output
                    if gap <= _GAP_TOL or iteration == config.max_iters:
                        break
                else:
                    obj_hist.append(fit + tnn_free)
                rho = _rebalance(rho, x_vec, z, z_prev, k_mult)

                # the next input: the plain output, the previous sweep's plain
                # output when this step from a mixed point grew the residual,
                # or a mix of the outputs at fixed rho (module docstring)
                f = np.concatenate((z - z_prev, (k_mult - k_prev) / sweep_rho))
                f_norm, f_norm_last = math.sqrt(float(f @ f)), f_norm
                if mixed and not f_norm <= f_norm_last:
                    anderson.clear()
                    (z, k_mult, z_residual), mixed = plain, False
                elif rho != sweep_rho:
                    anderson.clear()
                    mixed = False
                else:
                    plain = z, k_mult, z_residual
                    g = anderson.mix(f, np.concatenate(plain))
                    mixed = g is not None
                    if mixed:
                        z, k_mult, z_residual = np.split(g, (n, 2 * n))

        # the one exit: the last sweep took the exact gap, and its s and
        # residual give the dual point; back to data units, where P itself may
        # exceed the float range and read inf
        x, prox_input, obj_hist, tau = c * x, c * prox_input, c * np.asarray(obj_hist), c * tau
        _check_finite(iteration, sweep_rho, ("x_hat", x), ("prox input", prox_input), ("threshold lam/rho", tau))
        return SolveResult(
            x_hat=x,
            iterations=iteration,
            converged=gap <= _GAP_TOL,
            objective_history=obj_hist,
            final_state=AdmmState(rho=sweep_rho, last_prox_input=prox_input, last_prox_tau=tau),
            gap=gap,
            dual=(s / lam) * z_residual,
        )
