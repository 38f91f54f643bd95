#!/usr/bin/env python3
"""Benchmark runner for tubal.

    python3 perfbench/run.py --workload sweep_case1 --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, repeats its timed call into the
public API for --seconds, checks every output against a frozen
reference, and prints one JSON object as the last line of standard
output: the end-to-end metrics with --trace 0, the per-layer metrics of
BENCHMARK.json with --trace 1.  ``--workload all`` runs every workload,
untraced and traced, each in a fresh process, and prints a table.
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before numpy is imported.
THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep_case1", "solve_mid", "rip_campaign")
# Set-up is built this many times and its median reported.
SETUP_REPEATS = 3


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def layer_metrics(setup: dict, tasks: list[dict], workload: str, tracer) -> dict[str, float]:
    """Per-layer values for one set-up plus one task, keyed as in BENCHMARK.json.

    Counts repeat exactly from task to task; times are medians over the
    traced tasks.  A layer whose hook site is gone, or that a workload
    is expected to reach but never did, is left out with a warning.
    """
    keys = set(setup).union(*tasks)
    v = {k: setup.get(k, 0.0) + statistics.median(t.get(k, 0.0) for t in tasks) for k in keys}

    def get(key):
        return v.get(key, 0.0)

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    derived = {
        "solver.factor_per_operator": ("solver.factor", ratio("solver.factor_calls", "solver.operators")),
        "solver.admm_self_s": ("solver.admm_solve", get("solver.admm_solve_self_s")),
        "solver.iterations_total": ("solver.admm_solve", get("solver.iterations_total")),
        "solver.maxiter_frac": ("solver.admm_solve", ratio("solver.truncated", "solver.admm_solve_calls")),
        "solver.zsolve_bytes": ("solver.zsolve", get("solver.zsolve_bytes")),
        "measurement.apply_bytes": ("measurement.apply", get("measurement.apply_bytes")),
    }
    out = {}
    for layer in tracer.layers:
        gone = layer.name in tracer.absent
        if not gone and workload in layer.reached_by and not get(layer.name + "_calls"):
            print(f"warning: layer {layer.name} was never called on {workload}; its hook may have moved",
                  file=sys.stderr)
            gone = True
        if gone:
            continue
        for suffix in ("_s", "_calls"):
            out[layer.name + suffix] = get(layer.name + suffix)
        for name, (owner, value) in derived.items():
            if owner == layer.name:
                out[name] = value
    return out


def run_workload(args) -> int:
    if not (SRC / "tubal" / "__init__.py").is_file():
        print(f"error: no tubal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tubal

    if Path(tubal.__file__).resolve().parent != SRC / "tubal":
        print(f"error: imported tubal from {tubal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import hooks
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cls = WORKLOADS[args.workload]
    tracer = hooks.Tracer() if args.trace else None

    build_s = []
    wl = None
    for _ in range(SETUP_REPEATS):
        wl = None
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            wl = cls(args.seed, args.smoke)
            build_s.append(time.perf_counter() - start)
    setup_counts = {}
    if tracer:
        setup_counts = {k: val / SETUP_REPEATS for k, val in tracer.snapshot().items()}

    outputs, times, traced_times, task_counts = [], [], [], []

    def timed_task(context) -> float:
        wl.prepare()
        with context:
            start = time.perf_counter()
            outputs.append(wl.run())
            return time.perf_counter() - start

    loop_start = time.perf_counter()
    while not times or time.perf_counter() - loop_start < args.seconds:
        times.append(timed_task(nullcontext()))
        if tracer:
            tracer.reset()
            traced_times.append(timed_task(tracer.installed()))
            task_counts.append(tracer.snapshot())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = wl.reference()
    attempted = wl.ops * len(outputs)
    failed = sum(wl.check(out, ref) for out in outputs)
    snr = wl.snr_db(outputs[-1])

    if tracer:
        values = layer_metrics(setup_counts, task_counts, args.workload, tracer)
        values["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1.0
        section = "per_layer"
    else:
        values = {
            "setup_s": import_s + statistics.median(build_s),
            "ops_per_s": wl.ops * len(times) / sum(times),
            "peak_rss_mb": peak_rss_mb,
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}

    print("env: " + json.dumps(environment(args)))
    print(f"summary: {args.workload} repetitions={len(outputs)} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g} time_to_solution_s={statistics.median(times):.6g} s"
          + ("" if snr is None else f" snr_db_mean={snr:.4f} dB"))
    for name, m in metrics.items():
        print(f"metric: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload untraced and traced, each in a fresh process."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith("summary:") or line.startswith("metric:"):
                    print("   " + line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
