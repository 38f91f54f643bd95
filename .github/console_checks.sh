#!/usr/bin/env bash
# End-to-end checks of the installed `tubal` console script: every
# subcommand on small specs, its exit codes, the strictness of its JSON,
# and the byte-identity of its seed-determined reports.  Usage:
#
#     PYTHONWARNINGS=error::RuntimeWarning bash .github/console_checks.sh DIR
#
# DIR, an existing directory, receives every spec and report.  A failing
# command or check, or a numpy warning that escapes any tubal command
# under that filter, exits non-zero.
set -euo pipefail
T="${1:?usage: console_checks.sh DIR}"

# the version is stated twice, in pyproject.toml and in tubal.__version__: the installed script must print the first
test "$(tubal --version)" = "tubal $(python -c 'import importlib.metadata as m; print(m.version("artifact"))')"
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 0.1, "seed": 7, "t_grid": [5.0, 12.0], "rip_trials": 10}' > "$T/bounds.json"
tubal bounds --spec "$T/bounds.json" --out "$T/report.json"
printf '%s\n' '{"delta": 0.1, "t": 2.0, "r": 1, "n3": 5, "lambda": 0.1}' > "$T/constants.json"
tubal bounds --spec "$T/constants.json" --out "$T/constants_report.json"
# a bool is not a number, and a complex tensor is not a real one: both exit 2
printf '%s\n' '{"delta": 0.1, "t": 2.0, "r": 1, "n3": 5, "lambda": true}' > "$T/constants_bool.json"
status=0; tubal bounds --spec "$T/constants_bool.json" || status=$?; test "$status" -eq 2
python -c "import numpy as np; np.save('$T/z.npy', np.ones((2, 2, 2), dtype=complex))"
status=0; tubal tsvd "$T/z.npy" || status=$?; test "$status" -eq 2
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 0.1, "seed": 7}' > "$T/solve.json"
tubal solve --spec "$T/solve.json" --out "$T/solve_report.json"
# the solve certifies its answer: a finite relative duality gap within the solver's 1e-6
python -c "import json, math, sys; g = json.load(open(sys.argv[1]))['gap']; assert math.isfinite(g) and g <= 1e-6, g" "$T/solve_report.json"
# and at lambda = 1e-4, where the accelerated sweeps save the most, under the default cap
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 1e-4, "seed": 7}' > "$T/solve_1e-4.json"
tubal solve --spec "$T/solve_1e-4.json" --out "$T/solve_1e-4_report.json"
python -c "import json, sys; r = json.load(open(sys.argv[1])); assert r['converged'] and 0 <= r['gap'] <= 1e-6, r" "$T/solve_1e-4_report.json"
printf '%s\n' '{"m": 30, "n": 4, "n3": 2, "seed": 2, "rank_list": [1, 2], "trials": 10}' > "$T/rip.json"
tubal rip --spec "$T/rip.json" --out "$T/rip.csv"
# an instance is sized by sample_factor alone and a rip map by n and n3 alone: m and dims exit 2
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "lambda": 0.1, "m": 30}' > "$T/solve_m.json"
status=0; tubal solve --spec "$T/solve_m.json" || status=$?; test "$status" -eq 2
printf '%s\n' '{"m": 30, "dims": [4, 4, 2], "rank_list": [1], "trials": 10}' > "$T/rip_dims.json"
status=0; tubal rip --spec "$T/rip_dims.json" || status=$?; test "$status" -eq 2
# sample_factor 0.01 gives round(0.01 * 1 * 13 * 2) = 0 measurements: exit 2 before trial 0
printf '%s\n' '{"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 0.01, "sigma_list": [0.01], "lambda_list": [0.1], "trials": 1}' > "$T/experiment_no_m.json"
status=0; tubal experiment --spec "$T/experiment_no_m.json" --out "$T/experiment_no_m.csv" || status=$?; test "$status" -eq 2
printf '%s\n' '{"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 2.0, "sigma_list": [0.01], "lambda_list": [0.1], "trials": 1}' > "$T/experiment.json"
tubal experiment --spec "$T/experiment.json" --out "$T/experiment.csv"
# each sigma column is a lambda path, every solve after the first starting from the previous answer: each cell still converges on its own gap
printf '%s\n' '{"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 2.0, "sigma_list": [0.01], "lambda_list": [1.0, 0.1, 1e-3], "trials": 1}' > "$T/experiment_path.json"
tubal experiment --spec "$T/experiment_path.json" --format json --out "$T/experiment_path_report.json"
python -c "import json, sys; cells = [c for row in json.load(open(sys.argv[1]))['cells'] for c in row]; assert len(cells) == 3 and all(c['truncated_trials'] == 0 and c['aborted_trials'] == 0 and c['max_gap'] is not None and c['max_gap'] <= 1e-6 for c in cells), cells" "$T/experiment_path_report.json"
# a numerical failure aborts its cell, not the sweep: max|y| = 4.88 puts the solve's unit at 4, where lambda = 5e-324 underflows
printf '%s\n' '{"case_name": "mini", "n": 6, "n3": 2, "r": 1, "sample_factor": 2.0, "sigma_list": [0.01], "lambda_list": [0.1, 5e-324], "trials": 1}' > "$T/experiment_underflow.json"
tubal experiment --spec "$T/experiment_underflow.json" --out "$T/experiment_underflow.csv"
python -c "import csv, math, sys; rows = dict(csv.reader(open(sys.argv[1]))); assert math.isfinite(float(rows['lambda=0.1'])) and rows['lambda=4.94066e-324'] == 'nan', rows" "$T/experiment_underflow.csv"
# r is an integer tubal rank in every spec: 0.1 is no rank
printf '%s\n' '{"case_name": "mini", "n": 6, "n3": 2, "r": 0.1, "sample_factor": 2.0, "sigma_list": [0.01], "lambda_list": [0.1], "trials": 1}' > "$T/experiment_r_fraction.json"
status=0; tubal experiment --spec "$T/experiment_r_fraction.json" --out "$T/experiment_r_fraction.csv" || status=$?; test "$status" -eq 2
# every spec is rejected as "invalid <kind> spec: <reason>", the reason naming the key
printf '%s\n' '{"case_name": "mini", "n3": 2, "r": 1, "sample_factor": 2.0, "sigma_list": [0.01], "lambda_list": [0.1], "trials": 1}' > "$T/experiment_no_n.json"
status=0; tubal experiment --spec "$T/experiment_no_n.json" --out "$T/experiment_no_n.csv" 2> "$T/experiment_no_n.err" || status=$?; test "$status" -eq 2
grep -F "missing key 'n'" "$T/experiment_no_n.err"
printf '%s\n' '{"m": 30.5, "n": 4, "n3": 2, "seed": 2, "rank_list": [1], "trials": 10}' > "$T/rip_m_fraction.json"
status=0; tubal rip --spec "$T/rip_m_fraction.json" --out "$T/rip_m_fraction.csv" 2> "$T/rip_m_fraction.err" || status=$?; test "$status" -eq 2
grep -E "invalid rip spec: .*\bm\b" "$T/rip_m_fraction.err"
# the spec file is the whole run: no command takes --seed
status=0; tubal solve --spec "$T/solve.json" --seed 3 || status=$?; test "$status" -eq 2
# lambda = 1e3 is above ||M^T y||_2: x = 0 is certified before any sweep
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 1e3, "seed": 7}' > "$T/solve_1e3.json"
tubal solve --spec "$T/solve_1e3.json" --out "$T/solve_1e3_report.json"
python -c "import json, sys; r = json.load(open(sys.argv[1])); assert r['iterations'] == 1 and r['converged'] and r['gap'] <= 1e-6 and r['relative_error'] == 1.0, r" "$T/solve_1e3_report.json"
# and at lambda = 1e305, where lambda / rho0 overflows: the start exits in the finite no-op prox step, not with exit 3
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 1e305, "seed": 7}' > "$T/solve_1e305.json"
tubal solve --spec "$T/solve_1e305.json" --out "$T/solve_1e305_report.json"
python -c "import json, sys; r = json.load(open(sys.argv[1])); assert r['iterations'] == 1 and r['converged'] and -1e-12 <= r['gap'] <= 1e-6 and r['relative_error'] == 1.0, r" "$T/solve_1e305_report.json"
# the certificate holds at any scale: a finite gap, and within 1e-6 when the solve says it converged
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 1e160, "seed": 7}' > "$T/solve_1e160.json"
tubal solve --spec "$T/solve_1e160.json" --out "$T/solve_1e160_report.json"
python -c "import json, math, sys; r = json.load(open(sys.argv[1])); g = r['gap']; assert g is not None and math.isfinite(g) and g >= -1e-12 and (g <= 1e-6 or not r['converged']), r" "$T/solve_1e160_report.json"
# a solve capped at max_iters ends on the exact gap and objective of its last sweep
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 1e-4, "seed": 7, "max_iters": 3}' > "$T/solve_capped.json"
tubal solve --spec "$T/solve_capped.json" --out "$T/solve_capped_report.json"
python -c "import json, math, sys; r = json.load(open(sys.argv[1])); g, p = r['gap'], r['final_objective']; assert r['iterations'] == 3 and not r['converged'] and g is not None and math.isfinite(g) and g > 1e-6 and p is not None and math.isfinite(p), r" "$T/solve_capped_report.json"
# a probe rank above n is no tubal rank of an n x n x n3 tensor: exit 2, and no output file
printf '%s\n' '{"m": 30, "n": 4, "n3": 2, "seed": 2, "rank_list": [1, 5], "trials": 10}' > "$T/rip_rank.json"
status=0; tubal rip --spec "$T/rip_rank.json" --out "$T/rip_rank.csv" || status=$?; test "$status" -eq 2
test ! -e "$T/rip_rank.csv"
# lambda = 1e-310 underflows in units of max|y|, where P(0) reads inf: exit 3 before any sweep
printf '%s\n' '{"n": 6, "n3": 2, "r": 1, "sigma": 0.01, "lambda": 1e-310, "seed": 7}' > "$T/solve_underflow.json"
status=0; tubal solve --spec "$T/solve_underflow.json" --out "$T/solve_underflow_report.json" || status=$?; test "$status" -eq 3
# every JSON output is strict: a NaN or Infinity token fails to parse
tubal experiment --spec "$T/experiment.json" --format json --out "$T/experiment_report.json"
python -c "import json, sys; [json.load(open(p), parse_constant=lambda t: sys.exit('non-finite token ' + t + ' in ' + p)) for p in sys.argv[1:]]" "$T/experiment_report.json" "$T/solve_report.json"
# the JSON verdict path: threshold, t and satisfied per rank
tubal rip --spec "$T/rip.json" --format json --out "$T/rip_report.json"
# seed-determined outputs: a second run must give the same bytes
tubal rip --spec "$T/rip.json" --out "$T/rip_again.csv"
cmp "$T/rip.csv" "$T/rip_again.csv"
tubal experiment --spec "$T/experiment.json" --out "$T/experiment_again.csv"
cmp "$T/experiment.csv" "$T/experiment_again.csv"
tubal experiment --spec "$T/experiment.json" --format json --out "$T/experiment_report_again.json"
python -c "import json, sys; drop = lambda d: {**d, 'created_at': None, 'cells': [[{k: v for k, v in c.items() if k != 'mean_seconds'} for c in row] for row in d['cells']]}; a, b = (drop(json.load(open(p))) for p in sys.argv[1:]); assert a == b, (a, b)" "$T/experiment_report.json" "$T/experiment_report_again.json"
tubal solve --spec "$T/solve.json" --out "$T/solve_report_again.json"
cmp "$T/solve_report.json" "$T/solve_report_again.json"
tubal bounds --spec "$T/bounds.json" --out "$T/report_again.json"
cmp "$T/report.json" "$T/report_again.json"

# tsvd on a tensor written by numpy
python -c "import numpy as np; np.save('$T/x.npy', np.random.default_rng(0).standard_normal((4, 3, 2)))"
tubal tsvd "$T/x.npy" --out "$T/x_tsvd"
ls "$T/x_tsvd.json" "$T/x_tsvd_u.npy" "$T/x_tsvd_s.npy" "$T/x_tsvd_v.npy"

# tsvd on the estimate that solve saves
printf '%s\n' "{\"n\": 6, \"n3\": 2, \"r\": 1, \"sigma\": 0.01, \"lambda\": 0.1, \"seed\": 7, \"save_estimate\": \"$T/xhat.bin\"}" > "$T/solve_save.json"
tubal solve --spec "$T/solve_save.json" --out "$T/solve_save_report.json"
tubal tsvd "$T/xhat.bin" --out "$T/xhat_tsvd"
test ! -e "$T/xhat.bin.npy"
