"""Spans around the calls the benchmark makes into horowave's layers.

``Tracer.install`` replaces each target function, in every horowave module
namespace that holds it by name (``moire.spherical_radial_profile``,
``cli.spherical_radial``, the package's re-exports, ...), with a wrapper
that records a span and passes arguments and results through untouched.
Spans are kept in memory as (name, start, end, parent, op id, counts) and
written out once, at the end of the run. Self time is a span's duration
minus its child spans' durations; the process has one thread, so children
nest strictly.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

TARGETS = {
    "geometry": ("distance_array", "busemann_array", "horocycle_points_array"),
    "waves": ("spherical_radial", "spherical_radial_profile"),
    "transform": ("forward", "inverse", "forward_at", "horocycle_integral",
                  "calibrate_plancherel_kappa"),
    "moire": ("moire_weak", "moire_sum_discrete", "convergence_study", "kappa_h"),
    "euclid": ("line_moire_array",),
    "cli": ("main",),
}


def _grid_nodes(grid) -> int:
    return grid.n_r * grid.n_theta


# name -> (counter name, fn(bound arguments, result) -> int)
COUNTERS = {
    "waves.spherical_radial": (
        "evals", lambda a, r: int(np.broadcast(np.asarray(a["lam"]), np.asarray(a["d"])).size)),
    "waves.spherical_radial_profile": (
        "evals", lambda a, r: int(np.size(a["lams"]) * np.size(a["d"]))),
    "transform.forward": (
        "fft_rows", lambda a, r: len(r.lambda_grid) * a["f"].grid.n_r),
    "transform.inverse": (
        "fft_rows", lambda a, r: len(a["F"].lambda_grid) * a["F"].grid.n_r),
    "transform.forward_at": (
        "evals", lambda a, r: int(np.size(a["lams"])) * _grid_nodes(a["f"].grid)),
    "moire.moire_sum_discrete": (
        "center_nodes", lambda a, r: int(a["n"]) * _grid_nodes(a["grid"])),
    "euclid.line_moire_array": (
        "evals", lambda a, r: int(a["n"]) * int(np.size(a["q"])) * int(a["m"])),
}

# Per-layer metrics in report order: (name, unit). Counts and times are
# summed over set-up and every op of the run; total_s includes child spans
# (for the two constant fits, whose work is all in children); accuracy
# maxima come from the op checks; trace.ops_per_s is the traced run's
# throughput, for the tracing overhead against the untraced ops_per_s.
LAYER_METRICS = [
    ("waves.spherical_radial_profile.calls", "count"),
    ("waves.spherical_radial_profile.self_s", "s"),
    ("waves.spherical_radial_profile.evals", "count"),
    ("waves.spherical_radial.calls", "count"),
    ("waves.spherical_radial.self_s", "s"),
    ("waves.spherical_radial.evals", "count"),
    ("transform.forward.calls", "count"),
    ("transform.forward.self_s", "s"),
    ("transform.forward.fft_rows", "count"),
    ("transform.inverse.calls", "count"),
    ("transform.inverse.self_s", "s"),
    ("transform.inverse.fft_rows", "count"),
    ("transform.forward_at.calls", "count"),
    ("transform.forward_at.self_s", "s"),
    ("transform.forward_at.evals", "count"),
    ("transform.horocycle_integral.calls", "count"),
    ("transform.horocycle_integral.self_s", "s"),
    ("transform.calibrate_plancherel_kappa.self_s", "s"),
    ("transform.calibrate_plancherel_kappa.total_s", "s"),
    ("moire.kappa_h.self_s", "s"),
    ("moire.kappa_h.total_s", "s"),
    ("moire.moire_weak.calls", "count"),
    ("moire.moire_weak.self_s", "s"),
    ("moire.moire_sum_discrete.calls", "count"),
    ("moire.moire_sum_discrete.self_s", "s"),
    ("moire.moire_sum_discrete.center_nodes", "count"),
    ("moire.convergence_study.self_s", "s"),
    ("euclid.line_moire_array.calls", "count"),
    ("euclid.line_moire_array.self_s", "s"),
    ("euclid.line_moire_array.evals", "count"),
    ("geometry.distance_array.calls", "count"),
    ("geometry.distance_array.self_s", "s"),
    ("geometry.busemann_array.calls", "count"),
    ("geometry.busemann_array.self_s", "s"),
    ("geometry.horocycle_points_array.calls", "count"),
    ("geometry.horocycle_points_array.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("moire.moire_weak.max_rel_err", "ratio"),
    ("moire.moire_sum_discrete.max_spot_err", "abs"),
    ("euclid.line_moire_array.max_err", "abs"),
    ("transform.roundtrip.max_rel_l2", "ratio"),
    ("transform.lemma_check.max_rel_err", "ratio"),
    ("trace.ops_per_s", "1/s"),
]


class Tracer:
    """Records spans while ``op_id`` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op_id, counts]
        self.op_id = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._calibrator = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op_id, {}]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5][counter[0]] = counter[1](bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every horowave namespace that imported it by name."""
        from horowave import cli, euclid, geometry, moire, transform, waves  # noqa: F401
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "horowave" or n.startswith("horowave."))]
        for modname, names in TARGETS.items():
            home = sys.modules[f"horowave.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{modname}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
                if fname == "calibrate_plancherel_kappa":
                    # the lazy kappa fit calls the function registered at import
                    self._calibrator = original
                    waves.CONVENTION.register_calibrator(wrapped)

    def uninstall(self) -> None:
        from horowave import waves
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        if self._calibrator is not None:
            waves.CONVENTION.register_calibrator(self._calibrator)
            self._calibrator = None

    def layer_totals(self) -> dict[str, float]:
        """calls, self_s, total_s and summed counters per wrapped function."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _, counts) in enumerate(self.spans):
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + \
                (end - start) - child_time[i]
            totals[f"{name}.total_s"] = totals.get(f"{name}.total_s", 0.0) + (end - start)
            for key, value in counts.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op_id, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, **counts}) + "\n")
