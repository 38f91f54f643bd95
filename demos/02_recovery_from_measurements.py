"""Recover a low-tubal-rank tensor from few Gaussian measurements.

Builds one noiseless and one noisy instance of the small benchmark
geometry (n=10, n3=5, rank 1, m=210 measurements for 500 unknowns) and
solves the regularized nuclear-norm problem with the ADMM solver.

Run:  python demos/02_recovery_from_measurements.py
"""

import numpy as np

import tubal as tb
from tubal.bench import draw_instance, measurement_count

n, n3, r = 10, 5, 1
m = measurement_count(2.0, r, n, n3)

x, op, y_clean, noise_seed = draw_instance(n, n3, r, m, 7, "demo")
print(f"ground truth: {op.dims} tensor, tubal rank {r}, {m} measurements "
      f"({m / (n * n * n3):.0%} of the entries)")

print()
print("== noiseless, small regularization ==")
res = tb.admm_solve(op, y_clean, tb.SolverConfig(lam=1e-4, max_iters=20000))
rel = tb.fro_norm(res.x_hat - x) / tb.fro_norm(x)
print(f"iterations {res.iterations}, converged={res.converged}")
print(f"relative error {rel:.2e}  (SNR {tb.snr_db(x, res.x_hat):.1f} dB)")

print()
print("== noise sigma=0.01, lambda on the grid optimum ==")
sample = tb.add_noise(y_clean, 0.01, noise_seed)
res = tb.admm_solve(op, sample.y, tb.SolverConfig(lam=0.1))
print(f"iterations {res.iterations}, converged={res.converged}")
print(f"SNR {tb.snr_db(x, res.x_hat):.2f} dB, realized ||w||_2 = "
      f"{np.linalg.norm(sample.noise):.4f}")
print(f"objective: start {res.objective_history[0]:.1f} -> final "
      f"{res.objective_history[-1]:.2f}")

