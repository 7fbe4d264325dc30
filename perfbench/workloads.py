"""Seeded op plans for the three benchmark workloads.

A plan is a list of plain dicts, one per op, made only from the seed and
the run length; nothing here imports horowave. Every workload is a closed
loop with one client, so the plan is simply the order in which that client
issues its ops.

Each run issues a fixed number of ops, sized from ``--seconds`` with the
nominal cost of one balanced unit of ops at the seed commit, so that a
run's op list (and every count the trace takes over it) depends only on
the seed and the run length, never on how fast the machine happened to be.

The heavy-tailed draws (center counts, log-uniform over 1..24 and 1..60)
are stratified within a run: the k-th of R moire ops takes the quantile
(k + u0) / R and the k-th euclid op the quantile (k + 1 - u0) / R, for one
uniform u0, and both lists are shuffled. Each op's own center count is
still log-uniform, but the total work of a run no longer swings by a
factor of two with the seed, which a few heavy ops in a 40 s run would
otherwise cause.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("figures", "weak", "spectral")

WHY = {
    "figures": "in-process CLI renders of the wave, spherical, moire and euclid "
               "presets: center sums and CSV/PGM output dominate, no FFT",
    "weak": "moire_weak windows: lambda-batched spherical_radial_profile and the "
            "halving loop do nearly all the work, no FFT and no files",
    "spectral": "transform preset, forward/inverse round trips and lemma_check: "
                "FFT rows and Busemann exponentials, no moire, grids repeat",
}

# Nominal seconds of one balanced unit at the seed commit on a 2-core Xeon
# VM: figures 4 ops (one per kind), weak 2 ops (one per taper width),
# spectral 9 ops (each kind on each grid). Only used to turn --seconds
# into an op count.
NOMINAL_UNIT_S = {"figures": 4.6, "weak": 3.0, "spectral": 5.5}

FIGURE_KINDS = ("wave", "spherical", "moire", "euclid")
MOIRE_MAX_CENTERS = 24
EUCLID_MAX_CENTERS = 60
LAMBDA_RANGE = (0.5, 4.0)

WEAK_CENTER_RANGE = (1.3, 3.2)
WEAK_ARC_RANGE = (-2.5, 1.2)
WEAK_WIDTHS = (4.0, 12.0)

SPECTRAL_KINDS = ("transform", "roundtrip", "lemma")
SPECTRAL_GRIDS = ("120x192", "160x256", "200x256")
BUMP_COEFF_RANGE = (1.5, 2.2)
LEMMA_ARC_RANGE = (-2.5, 2.5)


def units_for(workload: str, seconds: float) -> int:
    """Number of balanced units a run of ``seconds`` issues (at least one)."""
    return max(1, int(round(seconds / NOMINAL_UNIT_S[workload])))


def log_uniform_count(u: float, top: int) -> int:
    """Discrete log-uniform draw on 1..top from a uniform u in [0, 1)."""
    return min(top, max(1, int(math.floor(math.exp(u * math.log(top + 1.0))))))


def _stratified(rng: np.random.Generator, k: int, u0: float) -> list[float]:
    return [float((i + u0) / k) for i in rng.permutation(k)]


def _angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _check_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def plan_figures(rng: np.random.Generator, units: int) -> list[dict]:
    u0 = float(rng.random())
    moire_u = iter(_stratified(rng, units, u0))
    euclid_u = iter(_stratified(rng, units, 1.0 - u0))
    ops = []
    for _ in range(units):
        for k in rng.permutation(len(FIGURE_KINDS)):
            kind = FIGURE_KINDS[k]
            op = {"kind": kind, "lam": float(rng.uniform(*LAMBDA_RANGE))}
            if kind in ("wave", "moire"):
                op["b0"] = _angle(rng)
            if kind == "moire":
                op["centers"] = log_uniform_count(next(moire_u), MOIRE_MAX_CENTERS)
            if kind == "euclid":
                op["centers"] = log_uniform_count(next(euclid_u), EUCLID_MAX_CENTERS)
            op["check_seed"] = _check_seed(rng)
            ops.append(op)
    return ops


def plan_weak(rng: np.random.Generator, units: int) -> list[dict]:
    widths = [WEAK_WIDTHS[i % 2] for i in range(2 * units)]
    widths = [widths[i] for i in rng.permutation(len(widths))]
    lo, hi = WEAK_CENTER_RANGE
    centers = [lo + (hi - lo) * u for u in _stratified(rng, 2 * units, float(rng.random()))]
    lo, hi = WEAK_ARC_RANGE
    arcs = [lo + (hi - lo) * u for u in _stratified(rng, 2 * units, float(rng.random()))]
    return [{"kind": "weak", "window_center": c, "b0": _angle(rng), "arc": s,
             "taper_width": w}
            for w, c, s in zip(widths, centers, arcs)]


def _bump(rng: np.random.Generator, max_offset: float) -> dict:
    return {"coeff": float(rng.uniform(*BUMP_COEFF_RANGE)),
            "offset": float(rng.uniform(0.0, max_offset)),
            "angle": _angle(rng)}


def plan_spectral(rng: np.random.Generator, units: int) -> list[dict]:
    ops = []
    for _ in range(units):
        grids = iter([SPECTRAL_GRIDS[i] for i in rng.permutation(len(SPECTRAL_GRIDS))])
        for _ in range(len(SPECTRAL_GRIDS)):
            for k in rng.permutation(len(SPECTRAL_KINDS)):
                kind = SPECTRAL_KINDS[k]
                if kind == "transform":
                    ops.append({"kind": kind, "grid": next(grids)})
                elif kind == "roundtrip":
                    if rng.random() < 0.5:
                        ops.append({"kind": kind, "shape": "offcenter",
                                    "lobes": [_bump(rng, 0.3)], "weights": [1.0]})
                    else:
                        ops.append({"kind": kind, "shape": "two-lobe",
                                    "lobes": [_bump(rng, 0.25), _bump(rng, 0.25)],
                                    "weights": [1.0, float(rng.uniform(0.25, 1.0))]})
                else:
                    ops.append({"kind": kind, "b0": _angle(rng),
                                "arc": float(rng.uniform(*LEMMA_ARC_RANGE))})
    return ops


_PLANNERS = {"figures": plan_figures, "weak": plan_weak, "spectral": plan_spectral}


def plan(workload: str, seed: int, seconds: float) -> list[dict]:
    """The op list of one run: same (workload, seed, seconds), same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _PLANNERS[workload](rng, units_for(workload, seconds))


def input_properties(workload: str, ops: list[dict]) -> dict:
    """Input properties a run's metrics depend on, recorded with its output."""
    if workload == "figures":
        props = {}
        for kind, top in (("moire", MOIRE_MAX_CENTERS), ("euclid", EUCLID_MAX_CENTERS)):
            counts = [op["centers"] for op in ops if op["kind"] == kind]
            edges = [1, 2, 4, 8, 16, 32, 64]
            hist = {}
            for a, b in zip(edges, edges[1:]):
                if a <= top:
                    hist[f"{a}-{min(b - 1, top)}"] = sum(a <= n < b for n in counts)
            props[f"{kind}_centers"] = sorted(counts)
            props[f"{kind}_center_histogram"] = hist
        props["op_kinds"] = {k: sum(op["kind"] == k for op in ops) for k in FIGURE_KINDS}
        return props
    if workload == "weak":
        return {"taper_width_split": {f"{w:g}": sum(op["taper_width"] == w for op in ops)
                                      for w in WEAK_WIDTHS}}
    seen, repeats, transform_repeats = set(), 0, 0
    for op in ops:
        grid = op.get("grid", "200x256")
        if grid in seen:
            repeats += 1
            transform_repeats += op["kind"] == "transform"
        seen.add(grid)
    n_transform = sum(op["kind"] == "transform" for op in ops)
    return {"grid_seen_before_share": repeats / len(ops),
            "transform_grid_seen_before_share": transform_repeats / max(1, n_transform),
            "op_kinds": {k: sum(op["kind"] == k for op in ops) for k in SPECTRAL_KINDS}}
