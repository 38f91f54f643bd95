"""The benchmark's workloads: inputs built from a seed, the timed call, and its check.

Each workload is a closed loop with one caller.  Building an instance is
set-up; ``run`` is the timed call into the public API; ``check`` compares
one output against a reference computed once by ``reference.py`` and
returns how many of the output's operations failed.  Every call to
``tubal`` goes through a module attribute looked up at call time, so the
hooks in ``hooks.py`` see it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import reference
from tubal import bench, measurement, rng, solver

# A sweep cell fails when its SNR falls this far below the reference.
SNR_TOL_DB = 1.0
# A mid-size solve fails when its objective exceeds the reference by this share.
OBJECTIVE_RTOL = 1e-4
# The prox check's largest objective decrease, relative to 1 + the prox objective.
PROX_RTOL = 1e-9
# Campaign distortions are the same arithmetic as the reference up to roundoff.
DELTA_RTOL = 1e-9

CASE1_SIGMAS = (0.01, 0.03, 0.05, 0.07, 0.1)
CASE1_LAMBDAS = (10.0, 1.0, 0.1, 0.01, 0.001, 0.0001)


class SweepCase1:
    """One trial of the paper's SNR table: 30 (sigma, lambda) cells on a
    10x10x5 rank-1 instance with m=210, through ``run_experiment``."""

    name = "sweep_case1"

    def __init__(self, seed: int, smoke: bool = False):
        self.sigmas = CASE1_SIGMAS[:1] if smoke else CASE1_SIGMAS
        self.lambdas = (1.0, 0.1) if smoke else CASE1_LAMBDAS
        spec = bench.case1_spec(trials=1, base_seed=seed)
        if smoke:
            spec = dataclasses.replace(spec, sigma_list=self.sigmas, lambda_list=self.lambdas)
        self.spec = spec
        self.seed = seed
        self.ops = len(self.sigmas) * len(self.lambdas)

    def prepare(self) -> None:
        pass

    def run(self):
        return bench.run_experiment(self.spec, workers=1)

    def reference(self):
        return reference.sweep_snr(
            "case1", self.seed, n=10, n3=5, r=1, m=210, sigma_list=self.sigmas, lambda_list=self.lambdas
        )

    def check(self, result, ref) -> int:
        spec = result.spec
        if tuple(spec.sigma_list) != self.sigmas or tuple(spec.lambda_list) != self.lambdas:
            return self.ops
        snr = np.asarray(result.mean_snr_db, dtype=float)
        with np.errstate(invalid="ignore"):
            bad = (np.asarray(result.aborted_trials) > 0) | ~(snr >= ref - SNR_TOL_DB)
        return int(bad.sum())

    def snr_db(self, result) -> float:
        snr = np.asarray(result.mean_snr_db, dtype=float)
        return float(snr[np.isfinite(snr)].mean())


class SolveMid:
    """One ``admm_solve`` on a 20x20x10 rank-2 instance with m=1640,
    sigma=0.01 and lambda=0.1, built from the seed as ``tubal solve`` does."""

    name = "solve_mid"
    sigma = 0.01
    lam = 0.1

    def __init__(self, seed: int, smoke: bool = False):
        n, n3, r, m = (10, 5, 1, 210) if smoke else (20, 10, 2, 1640)
        self.dims = (n, n, n3)
        self.m = m
        data_seed, self.map_seed, noise_seed = (
            rng.derive_key(seed, "instance", part) for part in ("data", "map", "noise")
        )
        self.x_true = bench.generate_lowrank(n, n, n3, r, data_seed)
        self.op = measurement.gaussian_map(m, self.dims, self.map_seed)
        self.y = measurement.add_noise(measurement.apply(self.op, self.x_true), self.sigma, noise_seed).y
        self.config = solver.SolverConfig(lam=self.lam)
        self.ops = 1

    def prepare(self) -> None:
        # A fresh operator object per solve, so that no cache keyed on the
        # operator can carry a factorization from one repetition to the next.
        self.op = None
        self.op = measurement.gaussian_map(self.m, self.dims, self.map_seed)

    def run(self):
        return solver.admm_solve(self.op, self.y, self.config)

    def reference(self) -> float:
        x_ref, _, _ = reference.admm(self.op.matrix, self.dims, self.y, self.lam)
        return reference.objective(self.op.matrix, self.y, self.lam, x_ref)

    def check(self, result, ref_objective: float) -> int:
        x = np.asarray(result.x_hat, dtype=float)
        if x.shape != self.dims or not np.isfinite(x).all():
            return 1
        if reference.objective(self.op.matrix, self.y, self.lam, x) > ref_objective * (1 + OBJECTIVE_RTOL):
            return 1
        state = result.final_state
        v, tau = state.last_prox_input, state.last_prox_tau
        prox_objective = tau * reference.tnn(x) + 0.5 * float(np.sum((x - v) ** 2))
        gap = solver.prox_optimality_check(v, tau, x)
        return int(not gap <= PROX_RTOL * (1.0 + prox_objective))

    def snr_db(self, result) -> float:
        return measurement.snr_db(self.x_true, result.x_hat)


class RipCampaign:
    """``run_rip_campaign`` on a 1640x4000 operator (dims 20x20x10), ranks
    1-5 with 400 probes each.  Forward-only: it never reaches the solver."""

    name = "rip_campaign"

    def __init__(self, seed: int, smoke: bool = False):
        self.dims, m, self.ranks, self.probes = (
            ((10, 10, 5), 210, (1, 2), 20) if smoke else ((20, 20, 10), 1640, (1, 2, 3, 4, 5), 400)
        )
        self.op = measurement.gaussian_map(m, self.dims, rng.derive_key(seed, "rip-campaign", "map"))
        self.seed = seed
        self.ops = len(self.ranks) * self.probes

    def prepare(self) -> None:
        pass

    def run(self):
        return bench.run_rip_campaign(self.op, list(self.ranks), self.probes, self.seed)

    def reference(self):
        return reference.rip_deltas(self.op.matrix, self.dims, self.ranks, self.probes, self.seed)

    def check(self, rows, ref) -> int:
        if len(rows) != len(ref):
            return self.ops
        failed = 0
        previous = 0.0
        for row, (r, delta) in zip(rows, ref):
            ok = (
                row.r == r
                and row.trials == self.probes
                and row.delta_hat >= previous
                and math.isclose(row.delta_hat, delta, rel_tol=DELTA_RTOL)
            )
            failed += 0 if ok else self.probes
            previous = row.delta_hat
        return failed

    def snr_db(self, rows) -> None:
        return None


WORKLOADS = {cls.name: cls for cls in (SweepCase1, SolveMid, RipCampaign)}
