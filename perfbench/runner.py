"""Issue one op, time it, then check its output outside the timed region.

An op fails if it raises, exits non-zero, returns non-finite values or
misses its tolerance; every failure is counted, none is retried.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import references as ref

FIGURE_GRID = {"wave": (200, 256, 4.0), "spherical": (75, 128, 1.8), "moire": (75, 128, 1.8)}
EUCLID_GRID = (81, 81)
EUCLID_RESOLUTION = 256
MOIRE_SPACING = 0.35
EUCLID_SPACING = 0.5
PRESET_BUMP = 1.25      # the CLI's transform and lemma test function exp(-1.25 d^2)
LEMMA_TAPER = 20.0      # transform.WIDE_TAPER width, used by lemma_check's rhs


@dataclass
class Outcome:
    kind: str
    seconds: float
    ok: bool
    err: float = math.nan
    tol: float = math.nan
    digest: str = ""
    detail: str = ""
    bytes_written: int = 0
    accuracy: dict = field(default_factory=dict)

    @property
    def err_to_tol(self) -> float:
        return self.err / self.tol if self.tol == self.tol else math.inf


def _digest_files(directory: str) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


def _digest_values(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(np.asarray(v, complex)).tobytes())
    return h.hexdigest()


# --- op execution (the timed part) -----------------------------------------

def _cli_argv(op: dict, out: str) -> list[str]:
    kind = op["kind"]
    if kind == "transform":
        return ["transform", "--grid", op["grid"], "--out", out]
    argv = [kind, "--lambda", repr(op["lam"])]
    if kind in FIGURE_GRID:
        n_r, n_theta, radius = FIGURE_GRID[kind]
        argv += ["--grid", f"{n_r}x{n_theta}"]
        if kind != "wave":  # wave renders on the CLI's default radius
            argv += ["--radius", repr(radius)]
    if "b0" in op:
        argv += ["--b0", repr(op["b0"])]
    if kind == "moire":
        argv += ["--centers", str(op["centers"]), "--spacing", repr(MOIRE_SPACING),
                 "--x", "0,0"]
    elif kind == "euclid":
        argv += ["--centers", str(op["centers"]), "--spacing", repr(EUCLID_SPACING),
                 "--grid", "x".join(map(str, EUCLID_GRID)),
                 "--resolution", str(EUCLID_RESOLUTION)]
    return argv + ["--out", out]


def prepare(op: dict):
    """Build the op's library inputs from its plan entry (not timed)."""
    from horowave.geometry import BoundaryPoint, DiskPoint
    from horowave.moire import LambdaWindow
    from horowave.tapers import TaperSpec
    from horowave.transform import DEFAULT_GRID, SampledField

    kind = op["kind"]
    if kind == "weak":
        x = DiskPoint(ref.zero_horocycle_point(op["b0"], op["arc"]))
        return (LambdaWindow(op["window_center"]), BoundaryPoint(op["b0"]), x,
                TaperSpec("gaussian", op["taper_width"]))
    if kind == "roundtrip":
        t, theta = ref.polar_grid(DEFAULT_GRID.n_r, DEFAULT_GRID.n_theta, DEFAULT_GRID.R)
        values = ref.bump_polar(op["lobes"], op["weights"], t, theta)
        return SampledField(DEFAULT_GRID, values.astype(complex))
    if kind == "lemma":
        def psi(z):
            return np.exp(-PRESET_BUMP * (2.0 * np.arctanh(np.abs(z))) ** 2)
        x = DiskPoint(ref.zero_horocycle_point(op["b0"], op["arc"]))
        return psi, BoundaryPoint(op["b0"]), x
    return None


def execute(op: dict, inputs, opdir: str):
    """The timed call into the library; returns what the check needs."""
    from horowave import cli, moire, transform

    kind = op["kind"]
    if kind == "weak":
        return moire.moire_weak(*inputs)
    if kind == "roundtrip":
        return transform.inverse(transform.forward(inputs))
    if kind == "lemma":
        return transform.lemma_check(*inputs)
    return cli.main(_cli_argv(op, os.path.join(opdir, f"{kind}.csv")))


# --- checks (outside the timed part) ----------------------------------------

def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a))))


def _check_cli(op: dict, rc, opdir: str, out: Outcome) -> None:
    kind = op["kind"]
    out.digest, out.bytes_written = _digest_files(opdir)
    if rc != 0:
        out.err, out.detail = math.inf, f"exit code {rc}"
        return
    vals = ref.read_field_csv(os.path.join(opdir, f"{kind}.csv"))
    if not os.path.exists(os.path.join(opdir, f"{kind}.pgm")):
        out.err, out.detail = math.inf, "missing PGM"
        return
    if not _finite(vals):
        out.err, out.detail = math.inf, "non-finite values"
        return
    if kind == "wave":
        n_r, n_theta, radius = FIGURE_GRID[kind]
        t, theta = ref.polar_grid(n_r, n_theta, radius)
        exact = ref.wave_polar(op["lam"], op["b0"], t, theta).ravel()
        out.err = float(np.max(np.abs(vals - exact) / np.abs(exact)))
        out.tol = ref.TOL["wave"]
    elif kind in ("spherical", "moire"):
        n_r, n_theta, radius = FIGURE_GRID[kind]
        t, theta = ref.polar_grid(n_r, n_theta, radius)
        if kind == "moire":
            centers = ref.moire_centers(op["b0"], op["centers"], MOIRE_SPACING)
            report = ref.read_numeric_csv(os.path.join(opdir, "moire.report.csv"))
            if not _finite(report):
                out.err, out.detail = math.inf, "non-finite convergence report"
                return
        worst = 0.0
        for j, l in ref.sample_nodes(op["check_seed"], n_r, n_theta):
            r = math.tanh(t[j] / 2.0)
            if kind == "spherical":
                exact = ref.spherical_boundary(op["lam"], r)
            else:
                z = r * complex(math.cos(theta[l]), math.sin(theta[l]))
                exact = ref.moire_node_reference(op["lam"], z, centers)
            worst = max(worst, abs(vals[j * n_theta + l] - exact))
        out.err, out.tol = worst, ref.TOL[kind]
        if kind == "moire":
            out.accuracy["moire.moire_sum_discrete.max_spot_err"] = worst
    elif kind == "euclid":
        exact = ref.euclid_reference(op["lam"], op["centers"], EUCLID_SPACING, *EUCLID_GRID)
        out.err, out.tol = float(np.max(np.abs(vals - exact))), ref.TOL["euclid"]
        out.accuracy["euclid.line_moire_array.max_err"] = out.err
    elif kind == "transform":
        n_r, n_theta = (int(p) for p in op["grid"].split("x"))
        t, theta = ref.polar_grid(n_r, n_theta, 4.0)
        exact = np.exp(-PRESET_BUMP * t**2)[:, None] * np.ones(n_theta)
        out.err = ref.rel_l2(vals.reshape(n_r, n_theta), exact, t)
        out.tol = ref.TOL["roundtrip"]
        out.accuracy["transform.roundtrip.max_rel_l2"] = out.err


def check(op: dict, inputs, result, opdir: str, out: Outcome) -> None:
    kind = op["kind"]
    if kind == "weak":
        lhs, rhs = result
        out.digest = _digest_values(lhs, rhs)
        if not _finite([lhs, rhs]):
            out.err, out.detail = math.inf, "non-finite values"
            return
        exact = ref.window_average(inputs[0], ref.disk_busemann(inputs[2].z, op["b0"]))
        out.err = abs(lhs - exact) / abs(exact)
        out.tol = ref.TOL["weak_12" if op["taper_width"] == 12.0 else "weak_4"]
        out.accuracy["moire.moire_weak.max_rel_err"] = out.err
    elif kind == "roundtrip":
        out.digest = _digest_values(result.values)
        if not _finite(result.values):
            out.err, out.detail = math.inf, "non-finite values"
            return
        grid = result.grid
        t, _ = ref.polar_grid(grid.n_r, grid.n_theta, grid.R)
        out.err = ref.rel_l2(result.values, inputs.values, t)
        out.tol = ref.TOL["roundtrip"]
        out.accuracy["transform.roundtrip.max_rel_l2"] = out.err
    elif kind == "lemma":
        lhs, rhs = result
        out.digest = _digest_values(lhs, rhs)
        if not _finite([lhs, rhs]):
            out.err, out.detail = math.inf, "non-finite values"
            return
        exact = ref.horocycle_bump_integral(PRESET_BUMP, LEMMA_TAPER)
        out.err, out.tol = abs(lhs - exact) / abs(exact), ref.TOL["lemma"]
        out.accuracy["transform.lemma_check.max_rel_err"] = out.err
    else:
        _check_cli(op, result, opdir, out)


def run_op(op: dict, index: int, workdir: str, tracer=None) -> Outcome:
    """Prepare, time and check one op; a raise counts as a failed op."""
    opdir = os.path.join(workdir, f"op{index:04d}")
    os.makedirs(opdir)
    try:
        inputs = prepare(op)
        if tracer is not None:
            tracer.op_id = index
        t0 = time.perf_counter()
        try:
            result = execute(op, inputs, opdir)
        except Exception as exc:  # an op failure is a measurement, not a crash
            out = Outcome(op["kind"], time.perf_counter() - t0, False, math.inf,
                          detail=f"{type(exc).__name__}: {exc}")
            return out
        finally:
            if tracer is not None:
                tracer.op_id = None
        out = Outcome(op["kind"], time.perf_counter() - t0, False)
        check(op, inputs, result, opdir, out)
        out.ok = out.err <= out.tol
        if not out.ok and not out.detail:
            out.detail = f"error {out.err:.3e} exceeds tolerance {out.tol:.0e}"
        return out
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
