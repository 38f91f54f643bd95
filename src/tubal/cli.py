"""Command-line harness.

Subcommands
-----------
tsvd        factorize a tensor container file
solve       generate and solve one synthetic recovery instance
experiment  run a benchmark sweep described by a JSON spec
rip         isometry-distortion campaign over a rank grid
bounds      recovery-guarantee constants / end-to-end verification

Exit codes: 0 success, 2 invalid spec or input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, io
from .algebra import fro_norm, tnn, tsvd, tubal_rank
from .analysis import (
    RipConditionError,
    bound_constants,
    estimate_ric,
    eta_constants,
    matched_bound_constants,
    ric_threshold,
    verify_bounds,
)
from .bench import (
    ExperimentSpec,
    SpecValidationError,
    emit,
    emit_campaign,
    generate_lowrank,
    measurement_count,
    run_experiment,
    run_rip_campaign,
)
from .measurement import add_noise, apply, gaussian_map, snr_db
from .rng import derive_key
from .solver import NumericalError, SolverConfig, admm_solve

DEFAULT_T_GRID = (1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0)


def _load_spec(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecValidationError(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecValidationError(f"spec {path} must hold a JSON object")
    # a "unit" spec would silently change meaning if the key were ignored
    if "variance_mode" in obj:
        raise SpecValidationError(
            f"spec {path} names 'variance_mode', which no longer exists: "
            "every measurement matrix has entry variance 1/m"
        )
    return obj


def _write_json(payload: dict | list, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tsvd(args) -> None:
    x = io.load_tensor(args.tensor)
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
        for name, arr in (("u", factors.u), ("s", factors.s), ("v", factors.v)):
            io.save_tensor(f"{args.out}_{name}.bin", arr)
        summary["factors"] = {name: f"{args.out}_{name}.bin" for name in ("u", "s", "v")}
        _write_json(summary, f"{args.out}.json")
    else:
        _write_json(summary, None)


def _instance_seeds(seed: int, label: str) -> tuple[int, int, int]:
    return (
        derive_key(seed, label, "data"),
        derive_key(seed, label, "map"),
        derive_key(seed, label, "noise"),
    )


def _build_instance(spec: dict, seed_override: int | None):
    """Parse every key of a `solve` or `bounds` instance spec, then build it.

    Returns (x, op, sample, config, seed, r, t_grid, rip_trials).  Every
    key is read before any work, and a malformed one raises
    SpecValidationError.
    """
    try:
        n = int(spec["n"])
        n3 = int(spec["n3"])
        r = int(spec["r"])
        sigma = float(spec.get("sigma", 0.0))
        config = SolverConfig(lam=float(spec["lambda"]), max_iters=int(spec.get("max_iters", 500)))
        seed = int(spec.get("seed", 0)) if seed_override is None else seed_override
        if "m" in spec:
            m = int(spec["m"])
        else:
            m = measurement_count(float(spec.get("sample_factor", 2.0)), r, n, n3)
        t_grid = [float(t) for t in spec.get("t_grid", DEFAULT_T_GRID)]
        rip_trials = int(spec.get("rip_trials", 50))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError(f"invalid instance spec: {exc}") from exc
    data_seed, map_seed, noise_seed = _instance_seeds(seed, "instance")
    x = generate_lowrank(n, n, n3, r, data_seed)
    op = gaussian_map(m, (n, n, n3), map_seed)
    sample = add_noise(apply(op, x), sigma, noise_seed)
    return x, op, sample, config, seed, r, t_grid, rip_trials


def _cmd_solve(args) -> None:
    spec = _load_spec(args.spec)
    x, op, sample, config, seed, *_ = _build_instance(spec, args.seed)
    result = admm_solve(op, sample.y, config)
    if spec.get("save_estimate"):
        io.save_tensor(spec["save_estimate"], result.x_hat)
    payload = {
        "dims": list(op.dims),
        "m": op.m,
        "rank": tubal_rank(x),
        "lambda": config.lam,
        "sigma": sample.sigma,
        "seed": seed,
        "snr_db": snr_db(x, result.x_hat),
        "relative_error": fro_norm(result.x_hat - x) / fro_norm(x),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_objective": float(result.objective_history[-1]),
        "realized_noise_norm": float(np.linalg.norm(sample.noise)),
    }
    _write_json(payload, args.out)


def _cmd_experiment(args) -> None:
    spec_dict = _load_spec(args.spec)
    if args.seed is not None:
        spec_dict["base_seed"] = args.seed
    spec = ExperimentSpec.from_dict(spec_dict)
    result = run_experiment(spec, workers=args.workers)
    out = args.out or f"{spec.case_name}.{args.format}"
    emit(result, args.format, out)
    print(f"wrote {out}")


def _cmd_rip(args) -> None:
    spec = _load_spec(args.spec)
    try:
        if "dims" in spec:
            dims = tuple(int(d) for d in spec["dims"])
        else:
            dims = (int(spec["n"]), int(spec["n"]), int(spec["n3"]))
        m = int(spec["m"])
        seed = int(spec.get("seed", 0)) if args.seed is None else args.seed
        rank_list = [int(r) for r in spec["rank_list"]]
        trials = int(spec.get("trials", 100))
        t = float(spec.get("t", 2.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError(f"invalid rip spec: {exc}") from exc
    op = gaussian_map(m, dims, derive_key(seed, "rip-campaign", "map"))
    rows = run_rip_campaign(op, rank_list, trials, seed, t)
    out = args.out or f"rip.{args.format}"
    emit_campaign(rows, args.format, out, t)
    print(f"wrote {out}")


def _constants_payload(delta: float, t: float, r: int, n3: int, lam: float, epsilon: float) -> dict:
    c1, c2, c3, c4 = bound_constants(delta, t, r, n3, lam, epsilon)
    c1t, c2t, c3t, c4t = matched_bound_constants(delta, t, r, n3)
    eta1, eta2 = eta_constants(delta, t, n3)
    return {
        "delta": delta,
        "t": t,
        "r": r,
        "n3": n3,
        "lambda": lam,
        "epsilon": epsilon,
        "threshold": ric_threshold(t, n3),
        "eta1": eta1,
        "eta2": eta2,
        "c1": c1,
        "c2": c2,
        "c3": c3,
        "c4": c4,
        "c1_matched": c1t,
        "c2_matched": c2t,
        "c3_matched": c3t,
        "c4_matched": c4t,
    }


def _cmd_bounds(args) -> None:
    spec = _load_spec(args.spec)
    if "delta" in spec:
        try:
            payload = _constants_payload(
                float(spec["delta"]),
                float(spec["t"]),
                int(spec["r"]),
                int(spec["n3"]),
                float(spec["lambda"]),
                float(spec.get("epsilon", float(spec["lambda"]) / 2.0)),
            )
        except (KeyError, TypeError) as exc:
            raise SpecValidationError(f"invalid bounds spec: {exc}") from exc
        _write_json(payload, args.out)
        return

    # End-to-end mode: build, solve, estimate distortion, sweep t.
    x, op, sample, config, seed, r, t_grid, rip_trials = _build_instance(spec, args.seed)
    kappa = min(op.dims[0], op.dims[1])
    result = admm_solve(op, sample.y, config)
    epsilon = float(np.linalg.norm(sample.noise))

    reports = []
    estimates = {}  # t values with the same probe rank share one estimate
    for t in t_grid:
        probe_rank = min(max(r, math.ceil(t * r)), kappa)
        if probe_rank not in estimates:
            estimates[probe_rank] = estimate_ric(
                op, probe_rank, rip_trials, derive_key(seed, "bounds", probe_rank)
            )
        est = estimates[probe_rank]
        if est.delta_hat >= ric_threshold(t, op.dims[2]):
            reports.append(
                {
                    "t": t,
                    "probe_rank": probe_rank,
                    "delta_hat": est.delta_hat,
                    "threshold": ric_threshold(t, op.dims[2]),
                    "condition_met": False,
                }
            )
            continue
        rep = verify_bounds(x, result.x_hat, op, sample.y, r, t, est.delta_hat, config.lam, epsilon)
        entry = rep.to_dict()
        entry.update({"probe_rank": probe_rank, "condition_met": True})
        reports.append(entry)

    satisfied = [e for e in reports if e.get("condition_met") and all(e["satisfied"])]
    # "tightest" = smallest Frobenius-bound slack; a tool convention, not
    # part of the guarantee itself.
    tightest = min(satisfied, key=lambda e: e["rhs_fro"] - e["lhs_fro"], default=None)
    payload = {
        "note": "t swept over a grid; 'tightest_satisfied' picks the smallest "
        "Frobenius-bound slack among satisfied entries (tool convention)",
        "snr_db": snr_db(x, result.x_hat),
        "epsilon_realized": epsilon,
        "lambda": config.lam,
        "reports": reports,
        "tightest_satisfied": tightest,
    }
    _write_json(payload, args.out)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tubal", description=__doc__.split("\n")[1])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tsvd = sub.add_parser("tsvd", help="factorize a tensor container file")
    p_tsvd.add_argument("tensor", help="path to a tensor container")
    p_tsvd.add_argument("--out", help="prefix for factor containers and summary JSON")
    p_tsvd.set_defaults(func=_cmd_tsvd)

    for name, func, needs_format in (
        ("solve", _cmd_solve, False),
        ("experiment", _cmd_experiment, True),
        ("rip", _cmd_rip, True),
        ("bounds", _cmd_bounds, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="path to a JSON spec")
        p.add_argument("--seed", type=int, default=None, help="override the spec seed")
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
