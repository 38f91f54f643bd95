"""Command-line harness.

Subcommands
-----------
tsvd        factorize a tensor stored in a .npy file
solve       generate and solve one synthetic recovery instance
experiment  run a benchmark sweep described by a JSON spec
rip         isometry-distortion campaign over a rank grid
bounds      recovery-guarantee constants / end-to-end verification

Spec keys
---------
A run's numbers are set by its spec file alone: --out and --format
choose where and how they are written, experiment's --workers how many
processes compute them, and no option overrides a key of the spec.  r,
and each entry of rip's rank_list, is an integer tubal rank.

solve, bounds  n, n3, r, lambda; optional sigma (0), max_iters (the
               solver's default), seed (0), sample_factor (2); solve
               also reads save_estimate, bounds also reads t_grid
               (1.5 ... 50) and rip_trials (50)
bounds         with a delta key, constants only: delta, t, r, n3,
               lambda; optional epsilon (lambda / 2)
experiment     case_name, n, n3, r (1 <= r <= n), sample_factor,
               sigma_list, lambda_list; optional trials (50), base_seed (0)
rip            n, n3, m, rank_list; optional seed (0), trials (100),
               t (2); the map measures n x n x n3 tensors

Files
-----
tsvd reads a .npy file that holds one real, finite 3-axis array; a
pickle, an object array, an .npz archive, a complex array and any other
file are rejected.  tsvd --out P writes the factors to P_u.npy, P_s.npy
and P_v.npy and the summary to P.json.  solve's save_estimate writes
the estimate as .npy at exactly the given path, whatever its suffix.

A spec is checked whole before any draw, solve or probe, by one reader
(bench.read_spec) and one key table per kind of spec.  A key the
command does not read, a missing key, a fractional or non-finite
number, a count below 1, a negative sigma, a lambda at or below 0, a
scalar or an empty list where a list goes, a t at or below 1 and a
save_estimate that is not a non-empty path are all errors.  So are the
sizes that need more than one key: r above n or a sample_factor that
gives no measurement (bench.measurement_count), and a probe rank above
n (bench.check_rip_grid).  An instance, like an experiment's trial, has
that many measurements.  Every such error is rejected in one form,
"invalid <kind> spec: <reason>", where the kind is solve, bounds,
bounds constants, rip or experiment and the reason names the key; the
command exits 2.

Solve output
------------
dims, m, rank, lambda, sigma, seed, snr_db, relative_error, iterations,
converged, final_objective, gap and realized_noise_norm.  gap is the
solver's exit relative duality gap (P - D) / P, a bound on how far
final_objective is above the minimum; converged means gap <= 1e-6.
final_objective is null when P exceeds the float range.

Experiment output
-----------------
csv   one row per lambda and one column per sigma: the mean SNR to 4
      decimals
json  per cell mean_snr_db, std_snr_db, aborted_trials,
      truncated_trials, max_gap, mean_iterations and mean_seconds
Each sigma column of a trial is solved as a path in the spec's
lambda_list order: a solve starts from the previous lambda's answer
(the column's first one, and one after an aborted cell, from zero), and
stops on its own certified gap.  So a cell's iterations and seconds are
those of its warm solve and depend on the order: one case1 trial at
base seed 101 took 2115 sweeps with lambda descending and 2763 with it
ascending, against 3161 with every cell solved from zero.

Bounds output
-------------
constants mode  delta, t, r, n3, lambda, epsilon, threshold, eta1, eta2,
                c1..c4 and c1_matched..c4_matched (the coefficients for
                epsilon = lambda / 2; see analysis.guarantee_constants)
end-to-end      snr_db, epsilon_realized, lambda and reports, one per
                t of t_grid.  Each report starts with t, probe_rank,
                delta (the sampled lower estimate at that rank),
                threshold and condition_met; a met one goes on with the
                other constants-mode keys and tail_tnn, lhs_meas,
                rhs_meas, lhs_fro, rhs_fro and satisfied.

Rip output
----------
csv   r, trials, delta_hat, threshold_t=<t>, satisfied; the numbers are
      printed to 12 significant digits
json  the same per rank, plus rank_delta_hat and every
      distortion_samples value in full precision.  A sample keeps 12
      decimal places across versions of tubal (it moves by about
      1e-15), but its last digits can move, and a sample near zero
      can differ at its 12th significant digit: the products that
      build and measure the probes round differently with the number
      of probes per product and with the operand layout.

Every JSON output is strict JSON: non-finite values are written as
null, such as the snr_db of an exact recovery.

Exit codes: 0 success, 2 invalid spec or input, 3 numerical failure.
Every failure inside a solve, once its spec and data are read, is a
numerical failure (see tubal.solver), so solve and bounds exit 3 on it;
experiment marks that cell aborted and goes on.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING
from functools import partial

import numpy as np

from . import __version__
from .algebra import _as_int, _as_real, as_tensor3, fro_norm, tnn, tsvd, tubal_rank
from .analysis import RipConditionError, guarantee_constants
from .bench import (
    ExperimentSpec,
    SpecValidationError,
    _as_count,
    _as_text,
    _json_text,
    _list_of,
    _probe_ranks,
    _write_text,
    check_guarantee,
    check_rip_grid,
    draw_instance,
    emit,
    emit_campaign,
    invalid_spec,
    measurement_count,
    read_spec,
    run_experiment,
)
from .measurement import add_noise, gaussian_map, snr_db
from .rng import derive_key
from .solver import NumericalError, SolverConfig, admm_solve

DEFAULT_T_GRID = (1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0)

# Each spec kind's key table for bench.read_spec: key -> (reader, default),
# MISSING marking a required key.
_T = partial(_as_real, above=1.0)
_LAMBDA = partial(_as_real, above=0.0)
_INSTANCE = {
    "n": (_as_count, MISSING), "n3": (_as_count, MISSING), "r": (_as_count, MISSING),
    "sigma": (partial(_as_real, least=0.0), 0.0), "lambda": (_LAMBDA, MISSING),
    "max_iters": (_as_count, SolverConfig.max_iters), "seed": (_as_int, 0), "sample_factor": (_as_real, 2.0),
}
_SOLVE = {**_INSTANCE, "save_estimate": (_as_text, None)}
_BOUNDS = {**_INSTANCE, "t_grid": (_list_of(_T), DEFAULT_T_GRID), "rip_trials": (_as_count, 50)}
_CONSTANTS = {
    "delta": (_as_real, MISSING), "t": (_T, MISSING), "r": (_as_count, MISSING), "n3": (_as_count, MISSING),
    "lambda": (_LAMBDA, MISSING), "epsilon": (partial(_as_real, least=0.0), None),  # None: lambda / 2
}
# rank_list's entries and trials are read by check_rip_grid, which bounds a rank by n
_RIP = {
    "n": (_as_count, MISSING), "n3": (_as_count, MISSING), "m": (_as_count, MISSING), "seed": (_as_int, 0),
    "rank_list": (_list_of(None), MISSING), "trials": (None, 100), "t": (_T, 2.0),
}


def _load_spec(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecValidationError(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecValidationError(f"spec {path} must hold a JSON object")
    return obj


def _load_tensor(path) -> np.ndarray:
    """Read a real, finite 3-axis array from a .npy file; anything else is a ValueError naming `path`."""
    try:
        with open(path, "rb") as fh:
            # an empty file or a header cut short raises EOFError
            arr = np.load(fh, allow_pickle=False)
        if not isinstance(arr, np.ndarray):
            raise ValueError("found an .npz archive, not one array")
        return as_tensor3(arr)
    except (EOFError, ValueError) as exc:
        raise ValueError(f"{path}: expected a .npy file holding a real, finite 3-axis array: {exc}") from exc


def _save_tensor(path, x: np.ndarray) -> None:
    # np.save given a path appends .npy; a handle writes exactly `path`
    with open(path, "wb") as fh:
        np.save(fh, x, allow_pickle=False)


def _write_json(payload: dict | list, out: str | None) -> None:
    text = _json_text(payload)
    if out:
        _write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tsvd(args) -> None:
    x = _load_tensor(args.tensor)
    factors = tsvd(x)
    recon_err = fro_norm(factors.compose() - x) / max(fro_norm(x), np.finfo(float).tiny)
    summary = {
        "dims": list(x.shape),
        "tubal_rank": tubal_rank(x),
        "tnn": tnn(x),
        "spectrum": factors.spectrum.tolist(),
        "relative_reconstruction_error": recon_err,
    }
    if args.out:
        summary["factors"] = {name: f"{args.out}_{name}.npy" for name in ("u", "s", "v")}
        for name, arr in (("u", factors.u), ("s", factors.s), ("v", factors.v)):
            _save_tensor(summary["factors"][name], arr)
        _write_json(summary, f"{args.out}.json")
    else:
        _write_json(summary, None)


def _draw_instance(obj: dict, readers: dict, what: str):
    """Read a `solve` or `bounds` instance spec whole, then draw its instance.

    Returns the spec's values by key, the truth x, the map op and the
    noisy sample.  Every key, `save_estimate` included, and the size
    that :func:`measurement_count` checks are read before any draw.
    """
    spec = read_spec(obj, readers, what)
    with invalid_spec(what):
        m = measurement_count(spec["sample_factor"], spec["r"], spec["n"], spec["n3"])
    x, op, y_clean, noise_seed = draw_instance(spec["n"], spec["n3"], spec["r"], m, spec["seed"], "instance")
    return spec, x, op, add_noise(y_clean, spec["sigma"], noise_seed)


def _cmd_solve(args) -> None:
    spec, x, op, sample = _draw_instance(_load_spec(args.spec), _SOLVE, "solve")
    result = admm_solve(op, sample.y, SolverConfig(lam=spec["lambda"], max_iters=spec["max_iters"]))
    if spec["save_estimate"] is not None:
        _save_tensor(spec["save_estimate"], result.x_hat)
    payload = {
        "dims": list(op.dims),
        "m": op.m,
        "rank": tubal_rank(x),
        "lambda": spec["lambda"],
        "sigma": spec["sigma"],
        "seed": spec["seed"],
        "snr_db": snr_db(x, result.x_hat),
        "relative_error": fro_norm(result.x_hat - x) / fro_norm(x),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_objective": float(result.objective_history[-1]),
        "gap": result.gap,
        "realized_noise_norm": float(np.linalg.norm(sample.noise)),
    }
    _write_json(payload, args.out)


def _cmd_experiment(args) -> None:
    spec = ExperimentSpec.from_dict(_load_spec(args.spec))
    result = run_experiment(spec, workers=args.workers)
    out = args.out or f"{spec.case_name}.{args.format}"
    emit(result, args.format, out)
    print(f"wrote {out}")


def _cmd_rip(args) -> None:
    spec = read_spec(_load_spec(args.spec), _RIP, "rip")
    dims = (spec["n"], spec["n"], spec["n3"])
    with invalid_spec("rip"):
        ranks = check_rip_grid(dims, spec["rank_list"], spec["trials"])
    op = gaussian_map(spec["m"], dims, derive_key(spec["seed"], "rip-campaign", "map"))
    rows = _probe_ranks(op, ranks, spec["trials"], spec["seed"])
    out = args.out or f"rip.{args.format}"
    emit_campaign(rows, args.format, out, spec["t"], dims[2])
    print(f"wrote {out}")


def _cmd_bounds(args) -> None:
    obj = _load_spec(args.spec)
    if "delta" in obj:
        spec = read_spec(obj, _CONSTANTS, "bounds constants")
        epsilon = spec["lambda"] / 2.0 if spec["epsilon"] is None else spec["epsilon"]
        payload = guarantee_constants(spec["delta"], spec["t"], spec["r"], spec["n3"], spec["lambda"], epsilon)
        _write_json(payload, args.out)
        return

    # End-to-end mode: build, solve, estimate distortion, sweep t.
    spec, x, op, sample = _draw_instance(obj, _BOUNDS, "bounds")
    result = admm_solve(op, sample.y, SolverConfig(lam=spec["lambda"], max_iters=spec["max_iters"]))
    epsilon = float(np.linalg.norm(sample.noise))
    reports = check_guarantee(
        x, result.x_hat, op, sample.y, spec["r"], spec["t_grid"], spec["lambda"], epsilon, spec["rip_trials"],
        derive_key(spec["seed"], "bounds"),
    )
    payload = {
        "snr_db": snr_db(x, result.x_hat),
        "epsilon_realized": epsilon,
        "lambda": spec["lambda"],
        "reports": reports,
    }
    _write_json(payload, args.out)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tubal", description=__doc__.split("\n")[1])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tsvd = sub.add_parser("tsvd", help="factorize a tensor stored in a .npy file")
    p_tsvd.add_argument("tensor", help="path to a .npy file holding a real, finite 3-axis array")
    p_tsvd.add_argument("--out", help="prefix P: writes P_u.npy, P_s.npy, P_v.npy and the summary P.json")
    p_tsvd.set_defaults(func=_cmd_tsvd)

    for name, func, needs_format in (
        ("solve", _cmd_solve, False),
        ("experiment", _cmd_experiment, True),
        ("rip", _cmd_rip, True),
        ("bounds", _cmd_bounds, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="path to a JSON spec")
        p.add_argument("--out", default=None, help="output path")
        if needs_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "experiment":
            p.add_argument("--workers", type=int, default=1)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (NumericalError, RipConditionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SpecValidationError, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
