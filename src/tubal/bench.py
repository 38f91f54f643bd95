"""Synthetic-recovery benchmark harness.

Drives the full pipeline per trial: draw a low-tubal-rank ground truth,
draw a Gaussian measurement matrix, measure, add noise, solve the
regularized problem for every (sigma, lambda) cell of a grid, and score
with the SNR metric.  One trial shares its ground truth, measurement
matrix and unit noise direction across all grid cells (noise is the
direction scaled by sigma), so cross-cell comparisons are paired and
the grid trends are stable at moderate trial counts.

Everything derives from a single base seed through named streams, so a
sweep is reproducible byte-for-byte regardless of worker count or trial
execution order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import rng
from .algebra import tprod, tubal_rank
from .analysis import RipEstimate, estimate_ric, ric_threshold
from .measurement import GaussianLinearMap, add_noise, apply, gaussian_map, snr_db
from .solver import NumericalError, SolverConfig, admm_solve

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "RipCampaignRow",
    "SpecValidationError",
    "emit",
    "emit_campaign",
    "generate_lowrank",
    "run_experiment",
    "run_rip_campaign",
]


class SpecValidationError(ValueError):
    """An experiment description failed validation."""


def generate_lowrank(n1: int, n2: int, n3: int, r: int, seed: int) -> np.ndarray:
    """Random tensor of exact tubal rank r: a t-product of two standard
    Gaussian factor tensors of inner size r.

    Draws from the "data" stream of `seed`.  Generic factors give rank
    exactly r with probability 1; this is checked and a degenerate draw
    is rejected rather than silently returned.
    """
    if not 1 <= r <= min(n1, n2):
        raise ValueError(f"rank {r} outside [1, {min(n1, n2)}]")
    gen = rng.stream(int(seed), "data")
    a = gen.standard_normal((n1, r, n3))
    b = gen.standard_normal((r, n2, n3))
    x = tprod(a, b)
    if tubal_rank(x) != r:
        raise NumericalError(f"degenerate factor draw: tubal rank != {r}")
    return x


def measurement_count(sample_factor: float, r: int, n: int, n3: int) -> int:
    """Measurement count ``round(sample_factor * r * (2n + 1) * n3)`` for a
    rank-r tensor of size n x n x n3."""
    return round(sample_factor * r * (2 * n + 1) * n3)


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one benchmark case.

    `r` may be an absolute rank (>= 1) or a fraction of n (in (0, 1)),
    rounded to the nearest integer with a floor of 1.  The measurement
    count is :func:`measurement_count` of the rank.  Sigma values must be
    finite and >= 0, lambda values finite and > 0.
    """

    case_name: str
    n: int
    n3: int
    r: float
    sample_factor: float
    sigma_list: tuple[float, ...]
    lambda_list: tuple[float, ...]
    trials: int = 50
    base_seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.n3 < 1:
            raise SpecValidationError("n and n3 must be >= 1")
        if self.r <= 0:
            raise SpecValidationError("r must be positive")
        if self.rank > self.n:
            raise SpecValidationError(f"rank {self.rank} exceeds n={self.n}")
        if not (math.isfinite(self.sample_factor) and self.sample_factor > 0):
            raise SpecValidationError("sample_factor must be finite and positive")
        if self.trials < 1:
            raise SpecValidationError("trials must be >= 1")
        if not self.sigma_list or not self.lambda_list:
            raise SpecValidationError("sigma_list and lambda_list must be non-empty")
        if not all(math.isfinite(s) and s >= 0 for s in self.sigma_list):
            raise SpecValidationError("sigma values must be finite and >= 0")
        if not all(math.isfinite(l) and l > 0 for l in self.lambda_list):
            raise SpecValidationError("lambda values must be finite and positive")

    @property
    def rank(self) -> int:
        if 0 < self.r < 1:
            return max(1, round(self.r * self.n))
        if self.r != int(self.r):
            raise SpecValidationError(f"absolute rank must be an integer, got {self.r}")
        return int(self.r)

    @property
    def sample_count(self) -> int:
        return measurement_count(self.sample_factor, self.rank, self.n, self.n3)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n3)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentSpec":
        try:
            return cls(
                case_name=str(obj["case_name"]),
                n=int(obj["n"]),
                n3=int(obj["n3"]),
                r=float(obj["r"]),
                sample_factor=float(obj["sample_factor"]),
                sigma_list=tuple(float(s) for s in obj["sigma_list"]),
                lambda_list=tuple(float(l) for l in obj["lambda_list"]),
                trials=int(obj.get("trials", 50)),
                base_seed=int(obj.get("base_seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SpecValidationError):
                raise
            raise SpecValidationError(f"invalid experiment spec: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "case_name": self.case_name,
            "n": self.n,
            "n3": self.n3,
            "r": self.r,
            "sample_factor": self.sample_factor,
            "sigma_list": list(self.sigma_list),
            "lambda_list": list(self.lambda_list),
            "trials": self.trials,
            "base_seed": self.base_seed,
        }


@dataclass
class ExperimentResult:
    """Aggregated sweep output; all arrays are (len(lambda_list), len(sigma_list)).

    truncated_trials counts the solves of a cell that stopped at
    ``max_iters`` without meeting the stopping rule; their SNR is still
    scored and averaged into mean_snr_db, and they count in ok_trials.
    """

    spec: ExperimentSpec
    mean_snr_db: np.ndarray
    std_snr_db: np.ndarray
    ok_trials: np.ndarray
    aborted_trials: np.ndarray
    truncated_trials: np.ndarray
    mean_iterations: np.ndarray
    mean_seconds: np.ndarray
    created_at: str = ""
    version: str = ""

    def to_dict(self) -> dict:
        cells = []
        for li in range(len(self.spec.lambda_list)):
            row = []
            for si in range(len(self.spec.sigma_list)):
                row.append(
                    {
                        "mean_snr_db": float(self.mean_snr_db[li, si]),
                        "std_snr_db": float(self.std_snr_db[li, si]),
                        "ok_trials": int(self.ok_trials[li, si]),
                        "aborted_trials": int(self.aborted_trials[li, si]),
                        "truncated_trials": int(self.truncated_trials[li, si]),
                        "mean_iterations": float(self.mean_iterations[li, si]),
                        "mean_seconds": float(self.mean_seconds[li, si]),
                    }
                )
            cells.append(row)
        return {
            "spec": self.spec.to_dict(),
            "sample_count": self.spec.sample_count,
            "rank": self.spec.rank,
            "cells": cells,
            "created_at": self.created_at,
            "version": self.version,
        }


def _trial_worker(spec: ExperimentSpec, trial: int):
    """Run one trial: all grid cells against a shared instance.

    Returns (snr, iterations, seconds, aborted, truncated) arrays of
    shape (len(lambda_list), len(sigma_list)).
    """
    nl, ns = len(spec.lambda_list), len(spec.sigma_list)
    snr = np.full((nl, ns), np.nan)
    iters = np.full((nl, ns), np.nan)
    secs = np.full((nl, ns), np.nan)
    aborted = np.zeros((nl, ns), dtype=bool)
    truncated = np.zeros((nl, ns), dtype=bool)

    data_seed = rng.derive_key(spec.base_seed, spec.case_name, trial, "data")
    map_seed = rng.derive_key(spec.base_seed, spec.case_name, trial, "map")
    noise_seed = rng.derive_key(spec.base_seed, spec.case_name, trial, "noise")

    x = generate_lowrank(spec.n, spec.n, spec.n3, spec.rank, data_seed)
    op = gaussian_map(spec.sample_count, spec.dims, map_seed)
    y_clean = apply(op, x)

    for si, sigma in enumerate(spec.sigma_list):
        sample = add_noise(y_clean, sigma, noise_seed)
        for li, lam in enumerate(spec.lambda_list):
            config = SolverConfig(lam=lam)
            start = time.perf_counter()
            try:
                result = admm_solve(op, sample.y, config)
            except NumericalError:
                aborted[li, si] = True
                continue
            secs[li, si] = time.perf_counter() - start
            iters[li, si] = result.iterations
            snr[li, si] = snr_db(x, result.x_hat)
            truncated[li, si] = not result.converged
    return snr, iters, secs, aborted, truncated


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run every (sigma, lambda, trial) combination and aggregate.

    Trials are independent work units; with workers > 1 they run in
    separate processes.  Results are keyed by trial index before
    reduction, so aggregates do not depend on scheduling.  A solver
    abort marks its cell for that trial and the sweep continues.
    """
    nt = spec.trials
    if workers > 1:
        # Imported here: the process pool costs every `import tubal` time
        # and memory, and only this branch uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(_trial_worker, [spec] * nt, range(nt)))
    else:
        outs = [_trial_worker(spec, trial) for trial in range(nt)]
    snr, iters, secs, aborted, truncated = (np.stack(parts) for parts in zip(*outs))

    with np.errstate(invalid="ignore"):
        mean_snr = np.nanmean(snr, axis=0)
        std_snr = np.nanstd(snr, axis=0)
        mean_iters = np.nanmean(iters, axis=0)
        mean_secs = np.nanmean(secs, axis=0)
    n_aborted = aborted.sum(axis=0)
    return ExperimentResult(
        spec=spec,
        mean_snr_db=np.asarray(mean_snr),
        std_snr_db=np.asarray(std_snr),
        ok_trials=nt - n_aborted,
        aborted_trials=n_aborted,
        truncated_trials=truncated.sum(axis=0),
        mean_iterations=np.asarray(mean_iters),
        mean_seconds=np.asarray(mean_secs),
        created_at=datetime.now(timezone.utc).isoformat(),
        version=_package_version(),
    )


def _package_version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# isometry-distortion campaigns


@dataclass(frozen=True)
class RipCampaignRow:
    """One probed rank: cumulative distortion estimate vs. the guarantee
    threshold at the user-chosen oversampling factor."""

    r: int
    trials: int
    delta_hat: float
    threshold: float
    satisfied: bool
    estimate: RipEstimate = field(repr=False)


def run_rip_campaign(
    op: GaussianLinearMap,
    rank_list: list[int],
    trials: int,
    seed: int,
    t: float = 2.0,
) -> list[RipCampaignRow]:
    """Estimate isometry distortion over a grid of tubal ranks.

    Rows are sorted by rank and each row's delta_hat is cumulative over
    all ranks probed so far: lower-rank probes lie in every higher-rank
    feasible set, so reusing them tightens the lower estimate and makes
    the reported sequence nondecreasing by construction.

    The whole grid is validated before any probe runs: an empty
    `rank_list`, a rank outside [1, min(n1, n2)] or ``trials < 1``
    raises ``ValueError``.
    """
    ranks = sorted(set(int(r) for r in rank_list))
    kappa = min(op.dims[0], op.dims[1])
    if not ranks:
        raise ValueError("rank_list must not be empty")
    if ranks[0] < 1 or ranks[-1] > kappa:
        raise ValueError(f"probe ranks {ranks} must lie in [1, {kappa}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[RipCampaignRow] = []
    thr = ric_threshold(t, op.dims[2])
    running = 0.0
    for r in ranks:
        est = estimate_ric(op, r, trials, seed)
        running = max(running, est.delta_hat)
        rows.append(
            RipCampaignRow(
                r=r,
                trials=trials,
                delta_hat=running,
                threshold=thr,
                satisfied=running < thr,
                estimate=est,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# emission


def _grid_label(value: float) -> str:
    return f"{value:g}"


def emit(result: ExperimentResult, fmt: str, path) -> None:
    """Write a sweep result to `path` as "csv" or "json".

    The CSV mirrors the benchmark-table layout: one row per lambda, one
    column per sigma, mean SNR to 4 decimals.  It contains only
    seed-determined quantities, so re-running the same spec yields a
    byte-identical file.  The JSON carries the full per-cell statistics
    plus timing metadata, which varies run to run.
    """
    if fmt == "csv":
        header_cols = "".join(f",sigma={_grid_label(s)}" for s in result.spec.sigma_list)
        lines = ["snr_db" + header_cols]
        for li, lam in enumerate(result.spec.lambda_list):
            cells = ",".join(f"{result.mean_snr_db[li, si]:.4f}" for si in range(len(result.spec.sigma_list)))
            lines.append(f"lambda={_grid_label(lam)},{cells}")
        _write_text(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        _write_text(path, json.dumps(result.to_dict(), indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def emit_campaign(rows: list[RipCampaignRow], fmt: str, path, t: float) -> None:
    """Write campaign rows as CSV (r, trials, delta_hat, threshold, satisfied)
    or as JSON with the per-sample distortions included."""
    if fmt == "csv":
        lines = [f"r,trials,delta_hat,threshold_t={_grid_label(t)},satisfied"]
        for row in rows:
            lines.append(
                f"{row.r},{row.trials},{row.delta_hat:.12g},{row.threshold:.12g},{str(row.satisfied).lower()}"
            )
        _write_text(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        payload = [
            {
                "r": row.r,
                "trials": row.trials,
                "delta_hat": row.delta_hat,
                "threshold": row.threshold,
                "t": t,
                "satisfied": row.satisfied,
                "rank_delta_hat": row.estimate.delta_hat,
                "distortion_samples": row.estimate.distortion_samples.tolist(),
            }
            for row in rows
        ]
        _write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def case1_spec(trials: int = 50, base_seed: int = 2024) -> ExperimentSpec:
    """The small standard benchmark case: n=10, n3=5, rank 1, twofold
    oversampling, the usual sigma and lambda grids."""
    return ExperimentSpec(
        case_name="case1",
        n=10,
        n3=5,
        r=0.1,
        sample_factor=2.0,
        sigma_list=(0.01, 0.03, 0.05, 0.07, 0.1),
        lambda_list=(10.0, 1.0, 0.1, 0.01, 0.001, 0.0001),
        trials=trials,
        base_seed=base_seed,
    )
