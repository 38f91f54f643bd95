"""Isometry thresholds, error-bound constants, and bound verification.

Computes the guarantee threshold and its constants over a grid, samples
the empirical isometry distortion of a Gaussian map, and verifies both
recovery bounds on a solved instance.

Run:  python demos/03_recovery_guarantees.py
"""

import math

import numpy as np

import tubal as tb
from tubal.bench import draw_instance, measurement_count

print("== guarantee threshold sqrt((t-1)/(n3^2+t-1)) ==")
for n3 in (1, 3, 5):
    row = "  ".join(f"t={t:>4g}: {tb.ric_threshold(t, n3):.4f}" for t in (1.5, 2, 5, 20))
    print(f"n3={n3}:  {row}")
print("(at n3=1 and t=2 this is the matrix-case sqrt(1/2))")

print()
print("== bound constants at delta = half the threshold ==")
t, r, n3, lam = 5.0, 1, 5, 0.1
delta = 0.5 * tb.ric_threshold(t, n3)
g = tb.guarantee_constants(delta, t, r, n3, lam, epsilon=lam / 2)
c = [g[f"c{i}"] for i in range(1, 5)]
cm = [g[f"c{i}_matched"] for i in range(1, 5)]
print(f"eta1={g['eta1']:.4f}  eta2={g['eta2']:.4f}  (eta2 < 1 below the threshold)")
print(f"general constants  c1..c4   : {np.round(c, 4)}")
print(f"matched-noise form c1t..c4t : {np.round(cm, 4)}  (c2 == c2t*lam: "
      f"{math.isclose(c[1], cm[1] * lam)})")

print()
print("== empirical distortion of a Gaussian map ==")
n, n3, r = 10, 5, 1
x, op, y_clean, noise_seed = draw_instance(n, n3, r, measurement_count(2.0, r, n, n3), 3, "demo3")
# one campaign: each row's delta_hat also counts the probes of lower ranks,
# which lie in every higher-rank set, so it never falls as the rank grows
for row in tb.run_rip_campaign(op, [1, 2, 5, 10], trials=50, seed=11):
    print(f"rank {row.r:>2}: delta_hat = {row.delta_hat:.3f} "
          f"(lower estimate from {row.trials} samples per rank)")

print()
print("== verify both bounds on a solved noisy instance ==")
sample = tb.add_noise(y_clean, 0.01, noise_seed)
res = tb.admm_solve(op, sample.y, tb.SolverConfig(lam=0.1))
eps = float(np.linalg.norm(sample.noise))
for e in tb.check_guarantee(x, res.x_hat, op, sample.y, r, (8.0, 20.0), 0.1, eps, trials=50, seed=12):
    if not e["condition_met"]:
        print(f"t={e['t']}: delta_hat {e['delta']:.3f} >= threshold {e['threshold']:.3f}, skipped")
        continue
    print(f"t={e['t']}: measurement bound {e['lhs_meas']:.4f} <= {e['rhs_meas']:.4f}; "
          f"Frobenius bound {e['lhs_fro']:.4f} <= {e['rhs_fro']:.4f}; "
          f"satisfied={e['satisfied']}")
