"""Span recording for the traced benchmark run, kept outside the program.

Each wrapped public function becomes a span of one layer.  A layer's self
time is the duration of its spans minus the time covered by their child
spans, so the self times of all layers add up to the duration of the root
spans (one per CLI call).  Work counts are computed from the arguments and
results at the same boundaries.

Wrapping replaces every binding of a wrapped function in every loaded
``graphflock.*`` module namespace, because several modules import
functions by name (``from .flow import solve_f``).  Methods are wrapped on
their classes.  A target the program no longer has is skipped and its
metrics read zero.  ``enable(False)`` restores the program's own
functions, so one process can alternate traced and untraced rounds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

MIB = float(1 << 20)

MODULES = ("graphs", "spectral", "flow", "equilibrium", "strategies", "cooperative", "montecarlo", "cli")


def _count_adjacency(tracer, args, kwargs, result):
    tracer.counts["graphs.adjacency_mb"] += result.n**2 / MIB  # int8 entries


def _count_eigh(tracer, args, kwargs, result):
    target = args[0]  # a Graph or a square matrix
    rows = target.n if hasattr(target, "n") else target.shape[0]
    tracer.counts["spectral.eigh_calls"] += 1
    tracer.counts["spectral.eigh_rows"] += rows


def _count_rk4(tracer, args, kwargs, result):
    tracer.counts["flow.rk4_steps"] += len(result.grid) - 1


def _count_one(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1

    return count


def _count_stage(tracer, args, kwargs, result):
    # The stage table is built once per profile and cached on it.
    prof = args[0]
    seen = tracer.seen_profiles.get(id(prof))
    if seen is not None and seen() is prof:
        return
    tracer.seen_profiles[id(prof)] = weakref.ref(prof)
    steps = len(prof.grid) - 1
    tracer.counts["strategies.stage_mb"] += (2 * steps + 1) * prof.n**2 * 8 / MIB


def _count_simulate(tracer, args, kwargs, result):
    g, prof, _sigma, cfg = args[:4]
    steps = round(prof.T / cfg.dt)
    tracer.counts["montecarlo.normals"] += cfg.n_paths * g.n * steps
    tracer.counts["montecarlo.feedback_mb"] += steps * g.n**2 * 8 / MIB


def _best_response_layer(args, kwargs):
    prof = args[1] if len(args) > 1 else kwargs["prof"]
    return "strategies.best_response." + prof.tag


#: (module, attribute or Class.method, layer or layer-from-arguments, counter).
#: A counter runs only for the outermost span of its layer, so a nested call
#: (laplacian_eigensystem -> eigendecompose, slope -> value) counts once.
TARGETS = (
    ("graphs", "build_graph", "graphs.build", _count_adjacency),
    ("spectral", "laplacian_eigensystem", "spectral.eigh", _count_eigh),
    ("spectral", "eigendecompose", "spectral.eigh", _count_eigh),
    ("spectral", "empirical_measure", "spectral.measure", None),
    ("spectral", "limit_measure", "spectral.measure", None),
    ("flow", "solve_f", "flow.solve_f", _count_rk4),
    ("flow", "FlockingSchedule.value", "flow.schedule_eval", _count_one("flow.schedule_evals")),
    ("flow", "FlockingSchedule.slope", "flow.schedule_eval", _count_one("flow.schedule_evals")),
    ("equilibrium", "build_kernel", "equilibrium.kernel", None),
    ("equilibrium", "player_variance", "equilibrium.variance", None),
    ("equilibrium", "limit_variance", "equilibrium.variance", None),
    ("equilibrium", "game_value", "equilibrium.value", None),
    ("equilibrium", "limit_value", "equilibrium.value", None),
    ("equilibrium", "p_matrix", "equilibrium.p_matrix", _count_one("equilibrium.p_matrix_calls")),
    ("cooperative", "coop_kernel", "cooperative.kernel", None),
    ("cooperative", "coop_variance", "cooperative.variance", None),
    ("cooperative", "coop_variance_measure", "cooperative.variance", None),
    ("strategies", "LinearProfile.stage_matrices", "strategies.stage", _count_stage),
    ("strategies", "LinearProfile.at", "strategies.stage", None),
    ("strategies", "profile_costs", "strategies.profile_costs", None),
    ("strategies", "best_response", _best_response_layer, _count_one("strategies.best_response_calls")),
    ("montecarlo", "simulate", "montecarlo.simulate", _count_simulate),
    ("montecarlo", "ensemble_stats", "montecarlo.stats", None),
    ("cli", "main", "cli.self", None),
)


class Tracer:
    """In-memory span recorder: per-layer self time and work counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.seen_profiles = {}  # id -> weakref; profiles are unhashable dataclasses
        self._stack = []  # per open span: [time covered by its children]
        self._depth = defaultdict(int)  # open spans per layer
        self._bindings = []  # (owner, name, original, wrapper)
        self.missing = []

    def span(self, layer, fn, counter):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if counter is not None and depth[name] == 0:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Import every graphflock module and wrap each target everywhere."""
        for name in MODULES:
            importlib.import_module("graphflock." + name)
        namespaces = [m for n, m in list(sys.modules.items()) if n == "graphflock" or n.startswith("graphflock.")]
        for module_name, attr, layer, counter in TARGETS:
            module = owner = sys.modules["graphflock." + module_name]
            class_name, _, name = attr.rpartition(".")
            if class_name:
                owner = getattr(module, class_name, None)
            fn = vars(owner).get(name) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.span(layer, fn, counter)
            if class_name:
                self._bindings.append((owner, name, fn, wrapper))
                continue
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is fn:
                        self._bindings.append((ns, key, fn, wrapper))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Bind the wrappers (on) or the program's own functions (off)."""
        for owner, name, fn, wrapper in self._bindings:
            setattr(owner, name, wrapper if on else fn)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}
