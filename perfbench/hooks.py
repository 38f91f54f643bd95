"""Timers and counters wrapped around the public entry points of ``tubal``.

The wrappers are set on the module attributes that callers look up at
call time (``tubal.solver.tsvt`` is what ``admm_solve`` calls, not
``tubal.algebra.tsvt``), so no file of the program changes.  Each layer
lists every site it is installed on.  If a site no longer exists the
layer is reported absent with a warning instead of reading zero, and the
rest of the run carries on.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _factor_extra(args, kwargs, result, totals, held):
    m, n = _arg(args, kwargs, 1, "matrix").shape
    held["factor_size"][id(args[0])] = min(m, n) * n


def _zsolve_extra(args, kwargs, result, totals, held):
    # three passes over the N x min(m, N) factor of 8-byte floats
    totals["solver.zsolve_bytes"] += 3 * 8 * held["factor_size"].get(id(args[0]), 0)


def _admm_extra(args, kwargs, result, totals, held):
    op = _arg(args, kwargs, 0, "op")
    held["operators"][id(op)] = op  # a strong reference keeps ids unique within a task
    totals["solver.iterations_total"] += result.iterations
    totals["solver.truncated"] += not result.converged


def _apply_extra(args, kwargs, result, totals, held):
    op = _arg(args, kwargs, 0, "op")
    totals["measurement.apply_bytes"] += 8 * op.matrix.size


@dataclass(frozen=True)
class Layer:
    """One timed entry point: its metric prefix and the (module, attribute) sites it wraps."""

    name: str
    sites: tuple[tuple[str, str], ...]
    reached_by: frozenset[str]
    extra: Callable | None = None


_SOLVERS = frozenset({"sweep_case1", "solve_mid"})
_ALL = frozenset({"sweep_case1", "solve_mid", "rip_campaign"})

LAYERS = (
    Layer("solver.factor", (("tubal.solver", "NormalEquationSolver.__init__"),), _SOLVERS, _factor_extra),
    Layer("solver.zsolve", (("tubal.solver", "NormalEquationSolver.solve"),), _SOLVERS, _zsolve_extra),
    Layer("solver.tsvt", (("tubal.solver", "tsvt"),), _SOLVERS),
    Layer(
        "solver.admm_solve",
        (("tubal.solver", "admm_solve"), ("tubal.bench", "admm_solve")),
        _SOLVERS,
        _admm_extra,
    ),
    Layer("algebra.tnn", (("tubal.solver", "tnn"), ("tubal.algebra", "tnn")), _SOLVERS),
    Layer(
        "algebra.tprod",
        (("tubal.algebra", "tprod"), ("tubal.bench", "tprod"), ("tubal.analysis", "tprod")),
        _ALL,
    ),
    Layer(
        "measurement.apply",
        (("tubal.measurement", "apply"), ("tubal.bench", "apply"), ("tubal.analysis", "apply")),
        _ALL,
        _apply_extra,
    ),
    Layer(
        "measurement.gaussian_map",
        (("tubal.measurement", "gaussian_map"), ("tubal.bench", "gaussian_map")),
        _ALL,
    ),
    Layer("rng.stream", (("tubal.rng", "stream"),), _ALL),
    Layer(
        "analysis.estimate_ric",
        (("tubal.analysis", "estimate_ric"), ("tubal.bench", "estimate_ric")),
        frozenset({"rip_campaign"}),
    ),
    Layer("bench.generate_lowrank", (("tubal.bench", "generate_lowrank"),), _SOLVERS),
    Layer("bench.run_experiment", (("tubal.bench", "run_experiment"),), frozenset({"sweep_case1"})),
)


def _resolve(module_name: str, attr_path: str):
    """Return (owner, attribute name, current value), or None if the site is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def missing_sites(layers=LAYERS) -> dict[str, list[str]]:
    """Layers with at least one site that does not resolve, and those sites."""
    out = {}
    for layer in layers:
        gone = [f"{mod}.{attr}" for mod, attr in layer.sites if _resolve(mod, attr) is None]
        if gone:
            out[layer.name] = gone
    return out


@dataclass
class Tracer:
    """Sums calls, wall time and self time per layer while installed.

    Self time is a span's duration minus the time covered by the spans it
    directly encloses.
    """

    layers: tuple[Layer, ...] = LAYERS
    totals: defaultdict = field(default_factory=lambda: defaultdict(float))
    held: dict = field(default_factory=lambda: {"operators": {}, "factor_size": {}})
    absent: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def __post_init__(self):
        self.absent = missing_sites(self.layers)
        for name, sites in self.absent.items():
            print(f"warning: layer {name} absent, hook site gone: {', '.join(sites)}", file=sys.stderr)

    def reset(self) -> None:
        self.totals = defaultdict(float)
        self.held = {"operators": {}, "factor_size": {}}

    def _wrap(self, layer: Layer, fn):
        name = layer.name

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.totals[name + "_calls"] += 1
                self.totals[name + "_s"] += elapsed
                self.totals[name + "_self_s"] += elapsed - frame[0]
            if layer.extra is not None:
                layer.extra(args, kwargs, result, self.totals, self.held)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every resolvable layer's wrappers; restore the originals on exit."""
        try:
            for layer in self.layers:
                if layer.name in self.absent:
                    continue
                for mod, attr in layer.sites:
                    owner, name, original = _resolve(mod, attr)
                    self._patches.append((owner, name, original))
                    setattr(owner, name, self._wrap(layer, original))
            yield self
        finally:
            while self._patches:
                owner, name, original = self._patches.pop()
                setattr(owner, name, original)

    def snapshot(self) -> dict[str, float]:
        """The layer totals since the last reset, with derived counts."""
        out = dict(self.totals)
        out["solver.operators"] = len(self.held["operators"])
        return out
