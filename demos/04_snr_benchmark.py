"""Small SNR benchmark sweep with CSV/JSON artifacts.

Runs a reduced version of the standard benchmark case (fewer trials)
over the full sigma x lambda grid and writes the table to
demo_case1.csv / demo_case1.json next to this script.

Run:  python demos/04_snr_benchmark.py        (about 20 s on two cores)
"""

import pathlib

import numpy as np

import tubal as tb

here = pathlib.Path(__file__).resolve().parent
spec = tb.case1_spec(trials=5, base_seed=99)
print(f"case '{spec.case_name}': n={spec.n}, n3={spec.n3}, rank {spec.r}, "
      f"m={spec.sample_count}, {spec.trials} trials per cell")
print("running the sweep...")
result = tb.run_experiment(spec, workers=2)

print()
print("mean SNR (dB); rows = lambda, columns = sigma")
header = "lambda \\ sigma " + " ".join(f"{s:>8g}" for s in spec.sigma_list)
print(header)
for li, lam in enumerate(spec.lambda_list):
    cells = " ".join(f"{result.mean_snr_db[li, si]:8.2f}" for si in range(len(spec.sigma_list)))
    print(f"{lam:>14g} {cells}")

best = np.argmax(result.mean_snr_db, axis=0)
print(f"\nbest lambda per sigma column: "
      f"{[spec.lambda_list[i] for i in best]}")

tb.emit(result, "csv", here / "demo_case1.csv")
tb.emit(result, "json", here / "demo_case1.json")
print(f"\nwrote {here / 'demo_case1.csv'} and {here / 'demo_case1.json'}")
print("(re-running with the same base seed reproduces the CSV byte for byte)")
