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
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import rng
from .algebra import _as_int, _as_real, tprod, tubal_rank
from .analysis import RipEstimate, estimate_ric, ric_threshold, verify_bounds
from .measurement import GaussianLinearMap, add_noise, apply, gaussian_map, snr_db
from .solver import NumericalError, SolverConfig, admm_solve

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "RipCampaignRow",
    "SpecValidationError",
    "check_guarantee",
    "emit",
    "emit_campaign",
    "generate_lowrank",
    "run_experiment",
    "run_rip_campaign",
]


class SpecValidationError(ValueError):
    """A spec could not be read or was rejected; a rejection reads ``invalid <what> spec: <reason>``."""


@contextmanager
def invalid_spec(what: str):
    """Report a ``ValueError`` raised inside as SpecValidationError
    ``invalid <what> spec: <reason>``, the one form of a spec's rejection."""
    try:
        yield
    except ValueError as exc:
        raise SpecValidationError(f"invalid {what} spec: {exc}") from exc


def read_spec(obj: dict, readers: dict, what: str) -> dict:
    """Read a JSON spec by its key table; the values come back by key, in table order.

    `readers` maps each key to ``(read, default)``.  A present key is read
    once, by ``read(value, key)`` (a `read` of None keeps the value as
    given, for a library reader to read), and an absent one takes
    `default` as it stands; a default of ``dataclasses.MISSING`` makes
    the key required.  A key outside the table, a missing required key
    and a value its reader rejects raise SpecValidationError through
    :func:`invalid_spec`: a misspelt key would otherwise fall back to
    its default without notice.
    """
    with invalid_spec(what):
        unknown = sorted(set(obj) - set(readers))
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        values = {}
        for key, (read, default) in readers.items():
            if key in obj:
                values[key] = obj[key] if read is None else read(obj[key], key)
            elif default is MISSING:
                raise ValueError(f"missing key {key!r}")
            else:
                values[key] = default
        return values


def _list_of(read):
    """A spec reader of a non-empty list (or tuple) whose entries `read`
    reads under the list's key; it returns a tuple."""

    def read_list(values, name):
        if not (isinstance(values, (list, tuple)) and values):
            raise ValueError(f"{name} must be a non-empty list, got {values!r}")
        return tuple(values) if read is None else tuple(read(v, name) for v in values)

    return read_list


def _as_text(value, name: str) -> str:
    """A spec reader of a non-empty string."""
    if not (isinstance(value, str) and value):
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


# a size, rank or count: an integer >= 1
_as_count = partial(_as_int, least=1)


def generate_lowrank(n1: int, n2: int, n3: int, r: int, seed: int) -> np.ndarray:
    """Random tensor of exact tubal rank r: a t-product of two standard
    Gaussian factor tensors of inner size r.

    Draws from the "data" stream of `seed`.  The sizes, the rank and the
    seed must be integral, and r must lie in [1, min(n1, n2)]
    (``ValueError`` otherwise).  Generic factors
    give rank exactly r with probability 1; this is checked and a
    degenerate draw is rejected rather than silently returned.
    """
    n1, n2, n3 = (_as_int(v) for v in (n1, n2, n3))
    r = _as_int(r, "r", least=1, most=min(n1, n2))
    gen = rng.stream(_as_int(seed), "data")
    a = gen.standard_normal((n1, r, n3))
    b = gen.standard_normal((r, n2, n3))
    x = tprod(a, b)
    if tubal_rank(x) != r:
        raise NumericalError(f"degenerate factor draw: tubal rank != {r}")
    return x


def draw_instance(n: int, n3: int, r: int, m: int, *key):
    """Draw a rank-r n x n x n3 truth x and an m-row map op under the seed key `key`.

    Returns ``(x, op, apply(op, x), noise_seed)``.  x, op and noise_seed
    come from ``derive_key(*key, "data" | "map" | "noise")``; no other
    code derives them."""
    x = generate_lowrank(n, n, n3, r, rng.derive_key(*key, "data"))
    op = gaussian_map(m, (n, n, n3), rng.derive_key(*key, "map"))
    return x, op, apply(op, x), rng.derive_key(*key, "noise")


def measurement_count(sample_factor: float, r: int, n: int, n3: int) -> int:
    """Measurement count ``round(sample_factor * r * (2n + 1) * n3)`` for a
    rank-r tensor of size n x n x n3.  n, n3 and r are read as integers
    >= 1, r also <= n, and the count must be at least 1; a violation
    raises ``ValueError`` naming the input."""
    n, n3 = _as_count(n, "n"), _as_count(n3, "n3")
    r = _as_int(r, "r", least=1, most=n)
    m = round(sample_factor * r * (2 * n + 1) * n3)
    if m < 1:
        raise ValueError(f"sample_factor {sample_factor} gives {m} measurements of a rank-{r} {n}x{n}x{n3} tensor")
    return m


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one benchmark case.

    `r` is the tubal rank of every trial's ground truth.  The fields are
    read when the spec is built, by :func:`read_spec` with the table
    ``_EXPERIMENT_SPEC``: case_name a non-empty string; n, n3, r and
    trials as ints >= 1 and base_seed as an int by ``algebra._as_int``;
    sample_factor and the non-empty grids, sigma values >= 0 and lambda
    values > 0, as floats and tuples of floats by ``algebra._as_real``.
    :func:`measurement_count` then checks r <= n and that there is at
    least one measurement.  Any violation raises SpecValidationError.
    """

    case_name: str
    n: int
    n3: int
    r: int
    sample_factor: float
    sigma_list: tuple[float, ...]
    lambda_list: tuple[float, ...]
    trials: int = 50
    base_seed: int = 0

    def __post_init__(self):
        for name, value in read_spec(vars(self), _EXPERIMENT_SPEC, "experiment").items():
            object.__setattr__(self, name, value)
        with invalid_spec("experiment"):
            measurement_count(self.sample_factor, self.r, self.n, self.n3)

    @property
    def sample_count(self) -> int:
        return measurement_count(self.sample_factor, self.r, self.n, self.n3)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentSpec":
        # the keys are checked here, and each value is read once, when the spec is built
        keys = {key: (None, default) for key, (_, default) in _EXPERIMENT_SPEC.items()}
        return cls(**read_spec(obj, keys, "experiment"))

    def to_dict(self) -> dict:
        return {**asdict(self), "sigma_list": list(self.sigma_list), "lambda_list": list(self.lambda_list)}


_EXPERIMENT_READERS = {
    "case_name": _as_text, "n": _as_count, "n3": _as_count, "r": _as_count, "sample_factor": _as_real,
    "sigma_list": _list_of(partial(_as_real, least=0.0)), "lambda_list": _list_of(partial(_as_real, above=0.0)),
    "trials": _as_count, "base_seed": _as_int,
}
# a key's default is its field's, and a field without one is a required key
_EXPERIMENT_SPEC = {f.name: (_EXPERIMENT_READERS[f.name], f.default) for f in fields(ExperimentSpec)}


@dataclass
class ExperimentResult:
    """Aggregated sweep output; all arrays are (len(lambda_list), len(sigma_list)).

    truncated_trials counts the solves of a cell that stopped at
    ``max_iters`` without meeting the stopping rule; their SNR is still
    scored and averaged into mean_snr_db.
    max_gap is the largest exit relative duality gap of a cell's solves
    (see :mod:`tubal.solver`), NaN when every solve aborted: above the
    solver's tolerance it tells how far a truncated solve stopped short.
    In the JSON that :func:`emit` writes, a cell's keys are these array
    fields, in this order, and non-finite values are written as null: a
    cell whose solves all aborted, or an exact recovery's infinite SNR.
    """

    spec: ExperimentSpec
    mean_snr_db: np.ndarray
    std_snr_db: np.ndarray
    aborted_trials: np.ndarray
    truncated_trials: np.ndarray
    max_gap: np.ndarray
    mean_iterations: np.ndarray
    mean_seconds: np.ndarray
    created_at: str = ""
    version: str = ""

    def to_dict(self) -> dict:
        arrays = [(f.name, getattr(self, f.name)) for f in fields(self)]
        arrays = [(name, values) for name, values in arrays if isinstance(values, np.ndarray)]
        cells = [
            [{name: values[li, si].item() for name, values in arrays} for si in range(len(self.spec.sigma_list))]
            for li in range(len(self.spec.lambda_list))
        ]
        return {
            "spec": self.spec.to_dict(),
            "sample_count": self.spec.sample_count,
            "cells": cells,
            "created_at": self.created_at,
            "version": self.version,
        }


def _trial_worker(spec: ExperimentSpec, trial: int) -> np.ndarray:
    """Run one trial: all grid cells against a shared instance.

    Each sigma column is solved as a path in the spec's lambda order:
    every solve starts from the previous lambda's answer on the same
    operator and measurements (see :func:`~tubal.solver.admm_solve`), the
    column's first solve and a solve after an aborted cell from x = 0.
    So a cell's iterations and seconds are those of its warm solve, and
    depend on the lambda before it; every cell still stops on its own
    certified gap.

    Returns a (len(lambda_list), len(sigma_list), 5) array holding each
    cell's SNR, iterations, seconds, converged and gap, all NaN where the
    solve aborted.
    """
    out = np.full((len(spec.lambda_list), len(spec.sigma_list), 5), np.nan)
    x, op, y_clean, noise_seed = draw_instance(
        spec.n, spec.n3, spec.r, spec.sample_count, spec.base_seed, spec.case_name, trial
    )
    for si, sigma in enumerate(spec.sigma_list):
        sample = add_noise(y_clean, sigma, noise_seed)
        result = None
        for li, lam in enumerate(spec.lambda_list):
            start = time.perf_counter()
            try:
                result = admm_solve(op, sample.y, SolverConfig(lam=lam), result)
            except NumericalError:
                result = None
                continue
            seconds = time.perf_counter() - start
            out[li, si] = snr_db(x, result.x_hat), result.iterations, seconds, result.converged, result.gap
    return out


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run every (sigma, lambda, trial) combination and aggregate.

    Trials are independent work units; with workers > 1 they run in
    separate processes.  Results are keyed by trial index before
    reduction, so aggregates do not depend on scheduling.  Within a
    trial each sigma column is solved as a path in the spec's lambda
    order (:func:`_trial_worker`), so mean_iterations and mean_seconds
    are those of warm solves and depend on that order: one case1 trial
    at base seed 101 takes 2115 sweeps with lambda descending, 2763
    ascending and 3161 with every cell solved from zero.  A solver abort
    marks its cell for that trial and the sweep continues, and the next
    cell of its column starts from zero.
    `workers` must be an integer >= 1 (``ValueError`` otherwise).
    """
    workers = _as_int(workers, "workers", least=1)
    nt = spec.trials
    if workers > 1:
        # Imported here: the process pool costs every `import tubal` time
        # and memory, and only this branch uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(_trial_worker, [spec] * nt, range(nt)))
    else:
        outs = [_trial_worker(spec, trial) for trial in range(nt)]
    snr, iters, secs, converged, gap = np.moveaxis(np.stack(outs), -1, 0)

    # a cell with +inf SNRs (exact recoveries) or with every trial aborted
    # has no finite mean or spread: it reads inf or NaN, without a warning
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean_snr = np.nanmean(snr, axis=0)
        std_snr = np.nanstd(snr, axis=0)
        mean_iters = np.nanmean(iters, axis=0)
        mean_secs = np.nanmean(secs, axis=0)
    n_aborted = np.isnan(iters).sum(axis=0)
    return ExperimentResult(
        spec=spec,
        mean_snr_db=mean_snr,
        std_snr_db=std_snr,
        aborted_trials=n_aborted,
        truncated_trials=(converged == 0).sum(axis=0),
        max_gap=np.fmax.reduce(gap, axis=0),  # NaN only where every trial aborted
        mean_iterations=mean_iters,
        mean_seconds=mean_secs,
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
    """One probed rank and its cumulative distortion estimate; the
    verdict against the guarantee threshold is :func:`emit_campaign`'s."""

    r: int
    trials: int
    delta_hat: float
    estimate: RipEstimate = field(repr=False)


def check_rip_grid(dims, rank_list, trials: int) -> list[int]:
    """Validate a campaign grid on (n1, n2, n3) tensors before any draw or probe.

    Returns the sorted distinct ranks.  An empty `rank_list`, a
    non-integral rank or trial count, a rank outside [1, min(n1, n2)] or
    ``trials < 1`` raises ``ValueError`` naming `rank_list` or `trials`.
    """
    n1, n2 = dims[:2]
    ranks = sorted(set(_as_int(r, "rank_list", least=1, most=min(n1, n2)) for r in rank_list))
    if not ranks:
        raise ValueError("rank_list must not be empty")
    _as_int(trials, "trials", least=1)
    return ranks


def run_rip_campaign(
    op: GaussianLinearMap,
    rank_list: list[int],
    trials: int,
    seed: int,
) -> list[RipCampaignRow]:
    """Estimate isometry distortion over a grid of tubal ranks.

    Rows are sorted by rank and each row's delta_hat is cumulative over
    all ranks probed so far: lower-rank probes lie in every higher-rank
    feasible set, so reusing them tightens the lower estimate and makes
    the reported sequence nondecreasing by construction.  No threshold
    is read: :func:`emit_campaign` judges the rows.

    The whole grid is validated by :func:`check_rip_grid` before any
    probe runs.
    """
    return _probe_ranks(op, check_rip_grid(op.dims, rank_list, trials), trials, seed)


def _probe_ranks(op: GaussianLinearMap, ranks: list[int], trials: int, seed: int) -> list[RipCampaignRow]:
    """:func:`run_rip_campaign` on the sorted distinct ranks that :func:`check_rip_grid` returned."""
    rows: list[RipCampaignRow] = []
    running = 0.0
    for r in ranks:
        est = estimate_ric(op, r, trials, seed)
        running = max(running, est.delta_hat)
        rows.append(RipCampaignRow(r=r, trials=est.trials, delta_hat=running, estimate=est))
    return rows


def check_guarantee(
    x_true: np.ndarray, x_hat: np.ndarray, op: GaussianLinearMap, y: np.ndarray, r: int,
    t_grid: list[float], lam: float, epsilon: float, trials: int, seed: int,
) -> list[dict]:
    """Check the recovery guarantee on a solved instance, one entry per t of `t_grid`.

    t probes rank min(ceil(t*r), n1, n2), and every delta is a row's
    delta_hat from one :func:`run_rip_campaign` over the probe ranks, so
    it never falls as the rank grows.  Every entry starts with the keys
    t, probe_rank, delta, threshold and condition_met (delta below
    threshold).  A met entry goes on with the rest of the
    :func:`verify_bounds` record.  delta is the campaign's sampled lower
    estimate of the isometry constant, so a met condition is no
    certificate.

    An r that is not an integer >= 1, a lam <= 0, an epsilon < 0, an
    empty `t_grid` or a t <= 1 raises ``ValueError`` before any probe.
    """
    r = _as_int(r, "r", least=1)
    lam, epsilon = _as_real(lam, "lam", above=0.0), _as_real(epsilon, "epsilon", least=0.0)
    if not t_grid:
        raise ValueError("t_grid must not be empty")
    thresholds = [ric_threshold(t, op.dims[2]) for t in t_grid]  # rejects t <= 1 before probing
    probe_ranks = [min(math.ceil(t * r), *op.dims[:2]) for t in t_grid]
    delta_hats = {row.r: row.delta_hat for row in run_rip_campaign(op, probe_ranks, trials, seed)}
    entries = []
    for t, thr, rank in zip(t_grid, thresholds, probe_ranks):
        delta = delta_hats[rank]
        entry = dict(t=t, probe_rank=rank, delta=delta, threshold=thr, condition_met=delta < thr)
        if entry["condition_met"]:
            entry.update(verify_bounds(x_true, x_hat, op, y, r, t, delta, lam, epsilon))
        entries.append(entry)
    return entries


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
        _write_text(path, _json_text(result.to_dict()))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def emit_campaign(rows: list[RipCampaignRow], fmt: str, path, t: float, n3: int) -> None:
    """Write campaign rows as CSV (r, trials, delta_hat, threshold, satisfied)
    or as JSON with the per-sample distortions included.  The one verdict site:
    a row is satisfied when delta_hat < ``ric_threshold(t, n3)``."""
    thr = ric_threshold(t, n3)
    if fmt == "csv":
        lines = [f"r,trials,delta_hat,threshold_t={_grid_label(t)},satisfied"]
        for row in rows:
            satisfied = str(row.delta_hat < thr).lower()
            lines.append(f"{row.r},{row.trials},{row.delta_hat:.12g},{thr:.12g},{satisfied}")
        _write_text(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        payload = [
            {
                "r": row.r,
                "trials": row.trials,
                "delta_hat": row.delta_hat,
                "threshold": thr,
                "t": t,
                "satisfied": row.delta_hat < thr,
                "rank_delta_hat": row.estimate.delta_hat,
                "distortion_samples": row.estimate.distortion_samples.tolist(),
            }
            for row in rows
        ]
        _write_text(path, _json_text(payload))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _json_text(payload) -> str:
    """`payload` as indented, strict JSON text, every non-finite float in
    its dicts and lists written as null: JSON has no NaN or Infinity."""

    def finite(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {key: finite(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [finite(value) for value in obj]
        return obj

    return json.dumps(finite(payload), indent=2, allow_nan=False) + "\n"


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
        r=1,
        sample_factor=2.0,
        sigma_list=(0.01, 0.03, 0.05, 0.07, 0.1),
        lambda_list=(10.0, 1.0, 0.1, 0.01, 0.001, 0.0001),
        trials=trials,
        base_seed=base_seed,
    )
