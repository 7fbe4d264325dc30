"""Command-line interface: formats, determinism, exit codes, config handling."""
import itertools
import math
import pathlib
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import readme_presets
from horowave import cli, euclid, moire, transform, waves
from horowave.cli import _field_csv
from horowave.euclid import line_moire_array
from horowave.transform import GridSpec

run = readme_presets.run_cli  # cli.main in process: its exit code, stdout and stderr


def read_field(path):
    rows = []
    footer = {}
    with open(path) as fh:
        header = fh.readline().strip()
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                footer[key] = val
            else:
                rows.append([float(p) for p in line.split(",")])
    return header, np.array(rows), footer


def test_wave_field_contract(tmp_path):
    out = tmp_path / "wave.csv"
    res = run("wave", "--lambda", "2", "--b0", "0", "--grid", "200x256",
              "--out", str(out))
    assert res.returncode == 0
    header, rows, footer = read_field(out)
    assert header == "x,y,re,im"
    assert rows.shape == (200 * 256, 4)
    assert footer["command"] == "wave"
    # the phase round-off |lambda| (max|B| + 4) 2^-53 of the closed form
    B = GridSpec(200, 256, 4.0).busemann(0.0)
    est = 2.0 * (np.max(np.abs(B)) + 4.0) * 2.0 ** -53
    assert footer["quadrature_error_estimate"] == f"{est:.3e}"
    pgm = (tmp_path / "wave.pgm").read_bytes()
    assert pgm.startswith(b"P5\n256 200\n255\n")
    assert len(pgm) == len(b"P5\n256 200\n255\n") + 200 * 256


def test_wave_value_near_origin(tmp_path):
    out = tmp_path / "wave.csv"
    run("wave", "--lambda", "2", "--b0", "0", "--grid", "400x128",
        "--radius", "0.04", "--out", str(out))
    _, rows, _ = read_field(out)
    r = np.hypot(rows[:, 0], rows[:, 1])
    near = rows[np.argmin(r)]
    assert abs(near[2] - 1.0) < 1e-3
    assert abs(near[3]) < 1e-3


def test_wave_phase_rate_along_axis(tmp_path):
    out = tmp_path / "wave.csv"
    run("wave", "--lambda", "2", "--b0", "0", "--grid", "200x256",
        "--out", str(out))
    _, rows, _ = read_field(out)
    axis = rows[np.abs(rows[:, 1]) < 1e-12]
    axis = axis[axis[:, 0] > 0]
    order = np.argsort(axis[:, 0])
    t = 2.0 * np.arctanh(axis[order, 0])
    phase = np.unwrap(np.arctan2(axis[order, 3], axis[order, 2]))
    rates = np.diff(phase) / np.diff(t)
    assert np.max(np.abs(rates / 2.0 - 1.0)) < 1e-2


def test_moire_report_and_determinism(tmp_path):
    args = ["moire", "--lambda", "2", "--centers", "3", "--spacing", "0.35",
            "--grid", "60x64", "--sigmas", "4,6,8", "--x", "0,0"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(*args, "--out", str(out1)).returncode == 0
    assert run(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep1 = (tmp_path / "a.report.csv").read_text()
    rep2 = (tmp_path / "b.report.csv").read_text()
    assert rep1 == rep2
    data_rows = [l for l in rep1.splitlines()[1:] if not l.startswith("#")]
    assert len(data_rows) == 3  # one row per sigma


def test_moire_target_keeps_its_digits_near_the_origin(tmp_path):
    """At x = 1e-12 toward b0 = 1 the wave's imaginary part is e^{beta/2} sin(2 beta),
    beta = log((1 + r) / (1 - r)): 4.000000000004e-12. The bracket from the log of
    (1 - |z|^2) / |z - b|^2 printed 3.99991151312e-12."""
    out = tmp_path / "o.csv"
    assert cli.main(["moire", "--lambda", "2", "--x", "1e-12,0", "--grid", "8x8",
                     "--out", str(out)]) == 0
    rows = [l.split(",") for l in (tmp_path / "o.report.csv").read_text().splitlines()[1:]
            if not l.startswith("#")]
    for row in rows:
        assert abs(float(row[4]) - 4.000000000004e-12) <= 1e-11 * 4e-12, row


def test_euclid_field(tmp_path):
    out = tmp_path / "eu.csv"
    res = run("euclid", "--centers", "5", "--spacing", "0.5", "--grid", "41x41",
              "--out", str(out))
    assert res.returncode == 0
    header, rows, _ = read_field(out)
    assert rows.shape == (41 * 41, 4)
    # the line moire is real: no round-off imaginary column, and the phase
    # quick-look has one gray level per sign
    assert np.all(rows[:, 3] == 0.0)
    pgm = (tmp_path / "eu.pgm").read_bytes()
    assert set(pgm[pgm.index(b"255\n") + 4:]) <= {128, 255}


def test_euclid_readme_preset_pgm_has_two_phase_levels(tmp_path):
    out = tmp_path / "euclid.csv"
    res = run("euclid", "--centers", "60", "--spacing", "0.5", "--out", str(out))
    assert res.returncode == 0
    _, rows, _ = read_field(out)
    assert np.all(rows[:, 3] == 0.0)
    pgm = (tmp_path / "euclid.pgm").read_bytes()
    assert set(pgm[pgm.index(b"255\n") + 4:]) == {128, 255}


def test_euclid_odd_resolution(tmp_path):
    # an odd m-node rule has no conjugate node pairs; the field is still
    # the real part of the per-center circle average
    out = tmp_path / "eu.csv"
    res = run("euclid", "--centers", "7", "--spacing", "0.5", "--grid", "33x21",
              "--resolution", "97", "--out", str(out))
    assert res.returncode == 0
    _, rows, footer = read_field(out)
    Q = np.linspace(2.0, 6.0, 33)[None, :] + 1j * np.linspace(-2.0, 2.0, 21)[:, None]
    ref = oracles.line_moire_loop(1.0, 7, 0.5, Q, m=97).real
    assert np.max(np.abs(rows[:, 2] - ref.ravel())) < 1e-12
    assert np.all(rows[:, 3] == 0.0)
    est = euclid_bound(1.0, 7, 0.5, Q, 97)
    assert float(footer["quadrature_error_estimate"]) == pytest.approx(est, rel=1e-3)


def euclid_bound(lam, n, spacing, Q, m):
    """max(2 K_m(x), x 2^-53) while x = k r_max < m, else 2; r_max over every node and center.

    K_m(x) = exp(m (log z + s - log(1 + s))), z = x/m, s = sqrt(1 - z^2), is
    Kapteyn's bound on |J_m(x)|.
    """
    centers = spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    x = 2.0 * np.pi / lam * np.max(np.abs(Q.ravel()[:, None] - 1j * centers))
    if not x < m:
        return 2.0
    z = x / m
    s = math.sqrt(1.0 - z * z)
    return max(2.0 * math.exp(m * (math.log(z) + s - math.log1p(s))), x * 2.0 ** -53)


@pytest.mark.parametrize("lam, n, grid, m", [
    (0.5, 60, (81, 81), 256), (0.6, 60, (81, 81), 256), (1.0, 60, (81, 81), 256),
    (4.0, 60, (81, 81), 256), (0.5, 1, (81, 81), 256), (1.0, 7, (33, 21), 97)])
def test_euclid_computes_its_field_once_and_its_footer_bounds_the_error(
        tmp_path, monkeypatch, lam, n, grid, m):
    """One m-node pass; the footer is the closed-form aliasing bound, and it is
    no smaller than the field's error against a 4096-node rule."""
    fields = []

    def spy(*args, **kw):
        fields.append(line_moire_array(*args, **kw))
        return fields[-1]

    monkeypatch.setattr(euclid, "line_moire_array", spy)
    out = tmp_path / "eu.csv"
    assert cli.main(["euclid", "--lambda", str(lam), "--centers", str(n), "--spacing", "0.5",
                     "--grid", "%dx%d" % grid, "--resolution", str(m), "--out", str(out)]) == 0
    assert len(fields) == 1
    _, _, footer = read_field(out)
    Q = np.linspace(2.0, 6.0, grid[0])[None, :] + 1j * np.linspace(-2.0, 2.0, grid[1])[:, None]
    est = float(footer["quadrature_error_estimate"])
    assert est == pytest.approx(euclid_bound(lam, n, 0.5, Q, m), rel=1e-3)
    ref = line_moire_array(lam, n, 0.5, Q, m=4096).real
    assert est >= np.max(np.abs(fields[0].real - ref))


@pytest.mark.parametrize("lam", ["0.4", "1e-9"])
def test_euclid_footer_is_2_where_the_rule_cannot_resolve_the_rings(tmp_path, lam):
    """At m <= k r_max the footer is 2, which bounds any two means of unit-modulus terms."""
    out = tmp_path / "eu.csv"
    assert cli.main(["euclid", "--lambda", lam, "--centers", "60", "--grid", "9x9",
                     "--out", str(out)]) == 0
    assert read_field(out)[2]["quadrature_error_estimate"] == "2.000e+00"


def test_non_finite_field_exits_1_and_writes_nothing(tmp_path):
    # at R = 1500 the wave's modulus e^{B/2} reaches e^{748}, past the float range
    res = run("wave", "--lambda", "2", "--radius", "1500", "--out", str(tmp_path / "w.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: wave field has") and "non-finite" in res.stderr
    assert res.stderr.count("\n") == 1  # no numpy overflow warning before it
    assert list(tmp_path.iterdir()) == []


def test_wave_where_z_rounds_to_1_is_finite_and_right(tmp_path):
    # at R = 38 |z| = tanh(t/2) rounds to 1 on the outer rows; the wave is
    # taken from (t, angle) there, without a warning
    out = tmp_path / "w.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["wave", "--lambda", "2", "--b0", "0.3", "--radius", "38",
                         "--out", str(out)]) == 0
    _, rows, _ = read_field(out)
    grid = GridSpec(200, 256, 38.0)
    v = (rows[:, 2] + 1j * rows[:, 3]).reshape(grid.n_r, grid.n_theta)
    assert np.all(np.any(v != 0, axis=1))
    values = np.exp((2j + 0.5) * grid.busemann(0.3))
    idx = np.random.default_rng(7).choice(v.size, 40, replace=False)
    t = np.repeat(grid.radii_t, grid.n_theta)[idx]
    a = np.tile(grid.angles, grid.n_r)[idx]
    exact = np.array([oracles.wave_polar(2.0, 0.3, *ta) for ta in zip(t, a)])
    assert np.max(np.abs(values.ravel()[idx] / exact - 1.0)) < 1e-12
    assert np.max(np.abs(v.ravel()[idx] / exact - 1.0)) < 1e-11  # %.12g


def test_wave_past_the_underflow_of_exp_minus_2t_is_finite_and_right(tmp_path):
    # at the nodes whose angle is b0 the bracket is t, where e^{-2t} loses
    # digits past t = 354 and underflows past 372
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["wave", "--lambda", "2", "--radius", "400", "--grid", "50x64",
                         "--out", str(tmp_path / "w.csv")]) == 0
    grid = GridSpec(50, 64, 400.0)
    B = grid.busemann(0.0)[:, 0]
    exact = np.array([float(oracles.busemann_polar(0.0, t, 0.0)) for t in grid.radii_t])
    assert np.max(np.abs(B / exact - 1.0)) < 1e-12


def test_one_process_renders_each_field_twice_with_the_same_bytes(tmp_path):
    runs = {
        "wave": ["wave", "--lambda", "2", "--grid", "20x16"],
        "spherical": ["spherical", "--lambda", "1", "--grid", "12x16"],
        "moire": ["moire", "--lambda", "1", "--centers", "2", "--grid", "16x16",
                  "--radius", "1.8"],
        "transform": ["transform", "--grid", "40x32"],
        "euclid": ["euclid", "--centers", "3", "--grid", "9x9"],
    }
    order = list(runs) + ["euclid", "moire", "wave", "transform", "spherical"]
    outputs = {}
    for i, name in enumerate(order):
        out = tmp_path / f"{name}{i}.csv"
        assert cli.main(runs[name] + ["--out", str(out)]) == 0
        files = sorted(tmp_path.glob(f"{name}{i}.*"))
        outputs.setdefault(name, []).append([p.read_bytes() for p in files])
    assert all(first == second for first, second in outputs.values())
    assert cli.main(["wave", "--lambda", "2", "--no-such-option", "1"]) == 2
    assert cli.main(["wave", "-h"]) == 0
    assert cli.main(["wave", "--lambda", "2", "--grid", "banana", "--out", "x.csv"]) == 2


def test_transform_where_z_rounds_to_1_exits_1(tmp_path):
    # the kernels are finite there, but the Gaussian bump is evaluated on z,
    # whose modulus rounds to 1 on the outer rows, so the input and the field
    # come out non-finite
    res = run("transform", "--radius", "40", "--grid", "400x64", "--out", str(tmp_path / "t.csv"))
    assert res.returncode == 1
    assert "non-finite" in res.stderr and "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_spherical_where_z_rounds_to_1_exits_1(tmp_path):
    # the boundary-average cross-check sits at the outermost radius, where
    # tanh(t/2) rounds to 1: one line, no traceback, no file
    res = run("spherical", "--lambda", "1", "--radius", "40", "--grid", "40x8",
              "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error:") and res.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# flag values at the edges of each subcommand's range, each refused with one line
_EDGE_RUNS = {
    "moire-sigma-1e300": ["moire", "--lambda", "2", "--sigmas", "1e300", "--grid", "8x8"],
    "moire-spacing-1e300": ["moire", "--lambda", "2", "--spacing", "1e300", "--grid", "8x8"],
    "moire-spacing-1.7e308": ["moire", "--lambda", "2", "--spacing", "1.7e308", "--grid", "8x8"],
    "spherical-lambda-1e300": ["spherical", "--lambda", "1e300"],
    "moire-lambda-1e300": ["moire", "--lambda", "1e300", "--grid", "8x8"],
    "transform-radius-40": ["transform", "--radius", "40", "--grid", "400x64"],
    "transform-radius-1e-300": ["transform", "--radius", "1e-300", "--grid", "8x8"],
    "transform-bump-width-1e300": ["transform", "--bump-width", "1e300", "--grid", "8x8"],
    "lemma-x-near-boundary": ["lemma", "--x", "0.9999999999999,0"],
    "wave-radius-1500": ["wave", "--lambda", "2", "--radius", "1500"],
}


@pytest.mark.parametrize("args", _EDGE_RUNS.values(), ids=_EDGE_RUNS.keys())
def test_edge_runs_exit_with_one_line_and_no_file(tmp_path, args):
    res = run(*args, "--out", str(tmp_path / "o.csv"))
    assert res.returncode in (1, 2)
    assert res.stderr.startswith(("validation error:", "configuration error:"))
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_moire_centers_far_out_run_until_the_phi_table_refuses(tmp_path, capsys):
    """Centers at arc length +-2e8 toward b0 = 0.7 are summed (the disk route refused them:
    they round onto the circle); at +-2e300 the phi table on [0, D], D = 1386.8, refuses.
    At +-3.4e308 the end centers pass the float range, and so does D: no table is tried."""
    out = tmp_path / "o.csv"
    args = ["moire", "--lambda", "2", "--b0", "0.7", "--grid", "16x16", "--out", str(out)]
    assert cli.main([*args, "--spacing", "1e8"]) == 0
    assert float(read_field(out)[2]["quadrature_error_estimate"]) < 1e-13
    assert cli.main([*args, "--spacing", "1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: Chebyshev table of phi_lambda") and "1386.8" in err
    for f in tmp_path.iterdir():  # the first run's field, image and report
        f.unlink()
    assert cli.main([*args, "--spacing", "1.7e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: phi along the zero horocycle")
    assert "distance" in err and "float range" in err and "degree" not in err
    assert list(tmp_path.iterdir()) == []


# The sweep: each subcommand but validate, from a small base run, with each flag it reads
# set in turn to each of its edge values (grids at most 16x16 but the thin 4x1024 one)
_SWEEP_BASE = {"wave": {"lambda": "2", "grid": "8x8"}, "spherical": {"lambda": "1", "grid": "8x8"},
               "moire": {"lambda": "2", "grid": "16x16"}, "transform": {"grid": "16x16"},
               "lemma": {}, "euclid": {"grid": "8x8"}}
_SWEEP_EDGES = {
    "lambda": ["0", "1e-300", "-2", "1e6", "1e300", "nan"],
    "b0": ["-1e-3", "-7", "1e300"],
    "radius": ["1e-300", "0.5", "27", "40", "400", "700"],
    "grid": ["4x4", "5x7", "4x1024"],
    # inside, near the circle, on it, near the origin
    "x": ["-0.3,-0.2", "-0.9999999,0", "0,0.9999999", "-0.6,0.8", "1,0",
          "1e-12,0", "0,-1e-300"],
    "spacing": ["1e-300", "-0.5", "0", "50", "1e8", "1e300", "1.7e308"],
    "sigmas": ["5e-324", "1e-300", "0.1", "8,4", "-4", "4,1e6", "1e5", "1e16"],
    "taper": ["cosine", "hard", "box"],
    "bump-width": ["1e-300", "0.01", "-1", "100"],
    "centers": ["1", "64", "0", "-3"],
    "resolution": ["2", "3", "-4", "4096"],
}
# edge values that must exit 0: the line rule's count grows only with log(width),
# distances to the centers come from their arc lengths, however far out, and brackets
# near the origin from the point's polar coordinates
_SWEEP_MUST_RUN = {"sigmas": {"4,1e6", "1e5", "1e16"}, "spacing": {"1e8"},
                   "x": {"1e-12,0", "0,-1e-300"}}


def _sweep_runs():
    for command, (_, flags, _) in cli._COMMANDS.items():
        if command == "validate":
            continue
        for flag in flags:
            for value in _SWEEP_EDGES[flag] if flag != "out" else ():
                opts = {**_SWEEP_BASE[command], flag: value}
                yield pytest.param([command, *(a for k, v in opts.items() for a in (f"--{k}", v))],
                                   value in _SWEEP_MUST_RUN.get(flag, ()),
                                   id=f"{command}-{flag}-{value}")


@pytest.mark.parametrize("argv, must_run", _sweep_runs())
def test_edge_sweep_writes_finite_files_or_refuses_with_one_line(tmp_path, capsys, argv,
                                                                 must_run):
    code = cli.main([*argv, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    files = sorted(p.name for p in tmp_path.iterdir())
    if code != 0:
        assert not must_run, err
        assert code in (1, 2)
        assert err.startswith(("validation error:", "configuration error:"))
        assert err.count("\n") == 1 and files == []
        return
    assert err == ""
    assert files == (["o.csv"] if argv[0] == "lemma" else
                     ["o.csv", "o.pgm", "o.report.csv"] if argv[0] == "moire" else
                     ["o.csv", "o.pgm"])
    for name in files:
        if name.endswith(".csv"):
            lines = (tmp_path / name).read_text().splitlines()[1:]
            cells = [c for line in lines if not line.startswith("#") for c in line.split(",")]
            values = [float(c) for c in cells if c not in ("lhs", "rhs")]
            values += [float(line.partition("=")[2]) for line in lines
                       if line.startswith("# quadrature_error_estimate=")]
            assert values and np.isfinite(values).all(), name


# each run gives a flag a value that starts with '-' but is not a plain negative number
_DASH_VALUE_RUNS = {
    "lemma-x": ["lemma", "--x", "-0.3,0"],
    "moire-x": ["moire", "--lambda", "2", "--grid", "16x16", "--x", "-0.2,0.1"],
    "wave-lambda": ["wave", "--lambda", "-2e0", "--grid", "8x8"],
    "wave-b0": ["wave", "--lambda", "2", "--b0", "-1e-3", "--grid", "8x8"],
}


@pytest.mark.parametrize("argv", _DASH_VALUE_RUNS.values(), ids=_DASH_VALUE_RUNS.keys())
def test_a_value_starting_with_a_dash_reads_as_its_flag_equals_form(tmp_path, capsys, argv):
    joined = [argv[0]] + [f"{k}={v}" for k, v in zip(argv[1::2], argv[2::2])]
    runs = []
    for form, args in (("spaced", argv), ("joined", joined)):
        (tmp_path / form).mkdir()
        assert cli.main([*args, "--out", str(tmp_path / form / "o.csv")]) == 0
        runs.append((capsys.readouterr(),
                     {p.name: p.read_bytes() for p in (tmp_path / form).iterdir()}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flags", [["--grid", "8x8", "--lambda"], ["--lambda", "--grid", "8x8"],
                                   ["--grid", "8x8", "--lambda", "-h"]])
def test_a_flag_left_with_no_value_exits_2(tmp_path, capsys, flags):
    assert cli.main(["wave", "--out", str(tmp_path / "o.csv"), *flags]) == 2
    assert "expected one argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("R", [5, 6, 7, 8, 9, 10, 11, 12])
def test_spherical_cross_check_past_the_boundary_average_resolution(tmp_path, R):
    """Past t of about 6 the 4096-node boundary average does not settle at the outermost
    radius (it exited 1 there); the cross-check moves in to the outermost radius where it does.
    """
    out = tmp_path / "s.csv"
    res = run("spherical", "--lambda", "1", "--grid", "40x8", "--radius", str(R), "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, rows, footer = read_field(out)
    assert np.isfinite(rows).all()
    assert 0.0 <= float(footer["quadrature_error_estimate"]) < 1e-9


def test_spherical_cross_check_that_settles_nowhere_exits_1(tmp_path):
    res = run("spherical", "--lambda", "1", "--grid", "40x8", "--radius", "8",
              "--resolution", "2", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error:") and res.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


EDGE_VALUES = [0.0, -0.0, 1e-300, 5e-324, 1e300, 1 / 3, 123456789012345.0]
WAVE_FOOTER = {"command": "wave", "lambda": 2.0, "b0": 0.0, "grid": "200x256",
               "radius": 4.0, "quadrature_error_estimate": 0.0}


def test_field_writer_matches_per_row_writer_on_wave_preset():
    from horowave.transform import DEFAULT_GRID
    from horowave.waves import helgason_wave_array
    z = DEFAULT_GRID.z
    values = helgason_wave_array(2.0, 0.0, z)
    assert b"".join(_field_csv(z, values, WAVE_FOOTER)) == \
        oracles.field_csv_rows(z, values, WAVE_FOOTER)


def test_field_writer_matches_per_row_writer_on_edge_values():
    v = np.array(EDGE_VALUES + [-x for x in EDGE_VALUES])
    xy = (v + 1j * v[::-1]).reshape(2, -1)
    for values in (np.roll(v, 3) - 1j * np.roll(v, 5), np.roll(v, 1)):  # complex, real
        values = values.reshape(2, -1)
        got = b"".join(_field_csv(xy, values, WAVE_FOOTER))
        assert got == oracles.field_csv_rows(xy, values, WAVE_FOOTER)
        assert got.endswith(b"\n# quadrature_error_estimate=0.0\n")


def test_field_writer_tables_match_their_string_construction():
    """The writer's word tables, built from digit arithmetic, equal their text by %-formatting."""
    def words(texts):
        return np.array(list(texts), dtype="S4").view(np.uint32)

    full = words("%04d" % w for w in range(10000))
    rstrip = words(("%04d" % w).rstrip("0") for w in range(10000))
    lstrip = words(("%d" % w * (w > 0)).rjust(4, "\0") for w in range(10000))
    int_mid = np.concatenate([lstrip, full])
    int_low = int_mid.copy()
    int_low[0] = words(["0".rjust(4, "\0")])[0]
    expect = {
        "_HEAD": words(sep + sign + ("%d" % w * (w > 0)).rjust(2, "\0")
                       for sep in "\n," for sign in "\0-" for w in range(100)),
        "_INT_MID": int_mid,
        "_INT_LOW": int_low,
        "_POINT": words([("." + ("%03d" % w).rstrip("0")) * (w > 0) for w in range(1000)]
                        + [".%03d" % w for w in range(1000)]),
        "_FRAC": np.concatenate([rstrip, full]),
        "_TAIL": np.concatenate([rstrip, words("e%+03d" % x for x in range(-99, -4))]),
    }
    for name, want in expect.items():
        got = getattr(cli, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# ties at 13 digits: exact ones (%.12g rounds them half to even), and
# decimal ones whose double lies within an ulp of the tie, on either side;
# then values that round up to the next decade, and the decades themselves
TIE_AND_CARRY_VALUES = [0.1234567890105, 123.4567890135, 1234567890125.0, 1234567890135.0,
                        1.234567890125e-06, 0.001234567890145, 12345678.03125,
                        9.99999999999950e-5, 1e-4, 99999999999.95, 999999999999.5, 1e11,
                        1e12, 1e16, 5e-324, 9999999999.995, 1e10, 1e-100,
                        9.99999999999995e-100]


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097])  # a partial or whole last block
def test_field_writer_matches_per_row_writer_on_ties_and_carries(rows):
    rng = np.random.default_rng(rows)
    edges = np.array(TIE_AND_CARRY_VALUES + [-x for x in TIE_AND_CARRY_VALUES])
    v = rng.choice(edges, 4 * rows) * np.where(rng.random(4 * rows) < 0.5, 1.0,
                                               10.0 ** rng.integers(-20, 20, 4 * rows))
    v[:len(edges)] = edges[:4 * rows]
    xy = v[0::4] + 1j * v[1::4]
    for values in (v[2::4] + 1j * v[3::4], v[2::4]):  # complex, real
        assert b"".join(_field_csv(xy, values, WAVE_FOOTER)) == \
            oracles.field_csv_rows(xy, values, WAVE_FOOTER)


# any finite double, and decimals with up to 14 digits, whose 13th digit
# can make an exact tie
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.builds(lambda m, k: m * 10.0 ** k,
                             st.integers(-10**14, 10**14), st.integers(-110, 20)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=40),
       st.booleans())
def test_field_writer_matches_per_row_writer_on_any_finite_values(rows, real):
    cols = np.array(rows)
    xy = cols[:, 0] + 1j * cols[:, 1]
    values = cols[:, 2] if real else cols[:, 2] + 1j * cols[:, 3]
    assert b"".join(_field_csv(xy, values, WAVE_FOOTER)) == \
        oracles.field_csv_rows(xy, values, WAVE_FOOTER)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_field_writer_rejects_non_finite_values(bad):
    xy = np.array([0.1 + 0.2j, 0.3 - 0.4j])
    with pytest.raises(ValueError):
        _field_csv(xy, np.array([1.0, complex(0.5, bad)]), WAVE_FOOTER)
    with pytest.raises(ValueError):
        _field_csv(np.array([0.1, bad]), np.ones(2), WAVE_FOOTER)


def test_atomic_write_leaves_nothing_when_a_piece_raises(tmp_path):
    def pieces():
        yield b"x,y,re,im"
        raise RuntimeError("a block failed")

    with pytest.raises(RuntimeError):
        cli._atomic_write(str(tmp_path / "f.csv"), pieces())
    assert list(tmp_path.iterdir()) == []


def test_field_output_peak_memory(tmp_path):
    """Blocks go to the file as they are made: a 200x256 wave peaks below 5 MB.

    The peak is the traced allocations above what was live at the call.
    Holding the float table, every block's text and their join peaked at
    9.2 MB.
    """
    argv = ["wave", "--lambda", "2", "--out", str(tmp_path / "w.csv")]
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        assert tracemalloc.get_traced_memory()[1] - live <= 5.0e6
    finally:
        tracemalloc.stop()


def test_transform_peak_memory(tmp_path):
    """A 200x256 transform op (field, round trip, CSV and PGM) peaks below 4.5 MB.

    The peak is the traced allocations above what was live at the call; it
    was 7.80 MB while ``inverse`` held every term of a block's kernel rows
    in one buffer (4.04 MB now).
    """
    argv = ["transform", "--grid", "200x256", "--out", str(tmp_path / "t.csv")]
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        assert tracemalloc.get_traced_memory()[1] - live <= 4.5e6
    finally:
        tracemalloc.stop()


def test_spherical_rows_are_one_radial_value(tmp_path):
    out = tmp_path / "sph.csv"
    res = run("spherical", "--lambda", "2.5", "--grid", "75x128", "--radius", "1.8",
              "--out", str(out))
    assert res.returncode == 0
    _, rows, footer = read_field(out)
    field = rows[:, 2].reshape(75, 128)
    assert np.all(field == field[:, :1])
    assert np.all(rows[:, 3] == 0.0)
    t = (np.arange(75) + 0.5) * 1.8 / 75
    for j in (0, 37, 74):
        assert abs(field[j, 0] - oracles.conical_spherical(2.5, t[j])) < 1e-12
    assert float(footer["quadrature_error_estimate"]) < 1e-9


def test_lemma_prints_agreement():
    res = run("lemma", "--b0", "0", "--x", "0,0")
    assert res.returncode == 0
    rel = float(res.stdout.strip().splitlines()[-1].split("=")[1])
    assert rel < 1e-2


@pytest.mark.parametrize("x, code", [("0.9,0", 0), ("0.95,0", 1), ("0.999,0", 1)])
def test_lemma_exits_1_when_its_sides_disagree(tmp_path, capsys, x, code):
    """Exit 1 when |lhs - rhs| > 1e-2 max(|lhs|, |rhs|): the three lines, one stderr line, no file.

    The scaled error is 1.2e-3 at 0.9, 0.134 at 0.95 and 1.0 at 0.999.
    """
    out = tmp_path / "lemma.csv"
    assert cli.main(["lemma", "--b0", "0", "--x", x, "--out", str(out)]) == code
    res = capsys.readouterr()
    assert [l.split("=")[0] for l in res.out.splitlines()] == ["lhs", "rhs", "relative_error"]
    if code:
        assert res.err.startswith("validation error: lemma") and res.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
    else:
        assert res.err == "" and out.exists()


@pytest.mark.parametrize("lam, code", [("1e6", 0), ("1e7", 1), ("1e300", 1)])
def test_wave_exits_1_past_its_phase_round_off_bound(tmp_path, capsys, lam, code):
    """Exit 1, writing nothing, once |lambda| (max|B| + 4) 2^-53 exceeds 1e-9 (8.9e-9 at 1e7)."""
    out = tmp_path / "w.csv"
    assert cli.main(["wave", "--lambda", lam, "--grid", "20x16", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("validation error: wave phase") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
    else:
        _, _, footer = read_field(out)
        assert float(footer["quadrature_error_estimate"]) <= waves._WAVE_PHASE_TOL


def test_wave_near_the_origin_counts_the_brackets_absolute_round_off(tmp_path, capsys):
    """At R = 0.04, max|B| is 0.04 but the bracket errs by up to 4 2^-53 where
    it is near 0: at lambda = 1e7 the estimate is 4.5e-9 and the run exits 1."""
    out = tmp_path / "w.csv"
    assert cli.main(["wave", "--lambda", "1e7", "--radius", "0.04", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("validation error: wave phase")
    assert list(tmp_path.iterdir()) == []


def test_moire_footer_measures_the_center_sum(tmp_path, monkeypatch):
    """The footer is the field's largest error at sampled nodes against phi summed directly."""
    args = ["moire", "--lambda", "2", "--centers", "5", "--grid", "60x64", "--radius", "1.8",
            "--sigmas", "4,6,8"]
    assert cli.main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    _, _, footer = read_field(tmp_path / "a.csv")
    assert 0.0 <= float(footer["quadrature_error_estimate"]) < 1e-13
    exact_sum = moire.moire_sum_discrete

    def off_by_1e6(*a):
        f = exact_sum(*a)
        return transform.SampledField(f.grid, f.values + 1e-6)

    monkeypatch.setattr(moire, "moire_sum_discrete", off_by_1e6)
    assert cli.main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    _, _, footer = read_field(tmp_path / "b.csv")
    assert float(footer["quadrature_error_estimate"]) == pytest.approx(1e-6, rel=1e-6)


def test_transform_reports_roundtrip(tmp_path):
    out = tmp_path / "tr.csv"
    res = run("transform", "--out", str(out))
    assert res.returncode == 0
    _, _, footer = read_field(out)
    assert float(footer["roundtrip_relative_l2_error"]) < 1e-4
    # the radial nodes of forward and inverse and their measured interpolation error
    assert footer["radial_nodes"] == "65"
    assert 0.0 < float(footer["kernel_interpolation_error"]) <= transform._NODE_TOL


def test_transform_on_a_grid_of_few_radii_reports_the_grid_radii(tmp_path):
    out = tmp_path / "tr.csv"
    assert run("transform", "--grid", "40x32", "--out", str(out)).returncode == 0
    _, _, footer = read_field(out)
    assert footer["radial_nodes"] == "40"
    assert footer["kernel_interpolation_error"] == "0.000e+00"


def test_transform_pgm_maps_amplitude_not_round_off_phase(tmp_path):
    """The README ``transform`` PGM is gray floor(256 |g| / max|g|), clipped to 255.

    Its round trip g is real up to |im| of about 1.5e-8, so a phase map would
    show the sign of round-off; -g and conj(g) give the same image.
    """
    out = tmp_path / "transform.csv"
    assert cli.main(["transform", "--bump-width", "1.25", "--out", str(out)]) == 0
    pgm = out.with_suffix(".pgm").read_bytes()
    f = transform.SampledField.from_function(transform.gaussian_bump(1.25),
                                             transform.DEFAULT_GRID)
    g = transform.inverse(transform.forward(f)).values
    assert cli._amplitude_pgm(g) == pgm
    assert cli._amplitude_pgm(-g) == pgm
    assert cli._amplitude_pgm(np.conj(g)) == pgm
    gray = np.frombuffer(pgm[pgm.index(b"255\n") + 4:], np.uint8).reshape(g.shape)
    amp = np.abs(g)
    np.testing.assert_array_equal(gray, np.minimum(np.floor(256 * amp / amp.max()), 255))


def test_the_module_exits_with_the_status_main_returns(tmp_path):
    """``python -m horowave.cli`` hands ``main``'s status to ``sys.exit``.

    The suite's two launches of the CLI are here; every other test calls
    ``cli.main`` in process. An unknown flag exits 2 with argparse's usage on
    stderr, and a field run exits 0, prints nothing and writes the bytes that
    the same run writes in process.
    """
    module = [sys.executable, "-m", "horowave.cli"]
    res = subprocess.run(module + ["wave", "--lambda", "2", "--no-such-option", "1"],
                         capture_output=True, text=True)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("usage: horowave") and "unrecognized arguments" in res.stderr
    argv = ["wave", "--lambda", "2", "--grid", "8x8", "--out"]
    res = subprocess.run(module + argv + [str(tmp_path / "a.csv")], capture_output=True, text=True)
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")
    assert run(*argv, str(tmp_path / "b.csv")) == (0, "", "")
    for ext in (".csv", ".pgm"):
        assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()


def test_bad_config_exit_code():
    res = run("wave", "--lambda", "2", "--grid", "banana", "--out", "x.csv")
    assert res.returncode == 2
    assert "grid" in res.stderr


@pytest.mark.parametrize("args, code", [
    (("moire", "--lambda", "2", "--grid", "4x8", "--radius", "1.8"), 2),
    (("transform", "--grid", "4x16"), 2),
    (("spherical", "--lambda", "1", "--grid", "8x8", "--radius", "1.8"), 0),
])
def test_grid_too_coarse_for_area_weights(tmp_path, args, code):
    res = run(*args, "--out", str(tmp_path / "c.csv"))
    assert res.returncode == code
    if code == 2:
        assert "configuration error" in res.stderr and "'grid'" in res.stderr


@pytest.mark.parametrize("args, code", [
    (("moire", "--lambda", "2", "--grid", "8x8", "--radius", "1.8"), 0),
    (("transform", "--grid", "8x64"), 1),
    (("transform", "--grid", "16x16"), 1),
])
def test_grids_of_few_radii_pass_the_area_check(tmp_path, args, code):
    """The area check refused these grids (exit 2) while it integrated F = 1.

    Now they pass it; the transform's coarse round trip then fails its own
    spectral truncation check, with one line.
    """
    res = run(*args, "--out", str(tmp_path / "c.csv"))
    assert res.returncode == code
    assert "'grid'" not in res.stderr and "Traceback" not in res.stderr
    if code:
        assert res.stderr.startswith("validation error:") and res.stderr.count("\n") == 1


def test_radius_past_the_float_range_is_a_config_error(tmp_path):
    res = run("transform", "--grid", "4000x8", "--radius", "800", "--out", str(tmp_path / "t.csv"))
    assert res.returncode == 2
    assert "'grid'" in res.stderr and res.stderr.count("\n") == 1


def test_spherical_resolution_below_two_is_rejected(tmp_path):
    res = run("spherical", "--lambda", "1", "--grid", "8x8", "--resolution", "1",
              "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 2
    assert "'resolution'" in res.stderr


@pytest.mark.parametrize("args, key", [
    (("wave", "--lambda", "abc"), "lambda"),
    (("wave", "--lambda", "nan"), "lambda"),
    (("wave", "--lambda", "2", "--b0", "east"), "b0"),
    (("wave", "--lambda", "2", "--radius", "far"), "radius"),
    (("spherical", "--lambda", "1", "--resolution", "2.5"), "resolution"),
    (("moire", "--lambda", "2", "--spacing", "q"), "spacing"),
    (("euclid", "--centers", "x"), "centers"),
    (("euclid", "--resolution", "1"), "resolution"),
    (("transform", "--bump-width", "wide"), "bump-width"),
    (("moire", "--lambda", "2", "--x", "5,5"), "x"),
    (("moire", "--lambda", "2", "--x", "nan,0"), "x"),
    (("lemma", "--x", "1.5,0"), "x"),
    (("moire", "--lambda", "2", "--sigmas", "8,4"), "sigmas"),
    (("moire", "--lambda", "2", "--sigmas", "0,4"), "sigmas"),
    (("moire", "--lambda", "2", "--sigmas", "inf"), "sigmas"),
    (("spherical", "--lambda", "1", "--resolution", "4095"), "resolution"),
])
def test_bad_numeric_option_is_a_config_error(tmp_path, args, key):
    res = run(*args, "--out", str(tmp_path / "n.csv"))
    assert res.returncode == 2
    assert "configuration error" in res.stderr and f"'{key}'" in res.stderr
    assert "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


# each appends --out, which validate does not read either
@pytest.mark.parametrize("args", [
    ("lemma", "--grid", "8x8"),
    ("lemma", "--radius", "0.5"),
    ("transform", "--lambda", "3"),
    ("wave", "--lambda", "2", "--x", "0,0"),
    ("spherical", "--lambda", "1", "--b0", "1"),
    ("euclid", "--radius", "2"),
    ("moire", "--lambda", "2", "--grid", "16x16", "--radius", "1.8", "--resolution", "9"),
    ("moire", "--lambda", "2", "--grid", "16x16", "--radius", "1.8", "--taper", "gaussian:99"),
    ("validate", "--suite", "hypgeo"),
    ("transform", "--config", "run.cfg"),  # a config file holding lambda=2
], ids=["lemma-grid", "lemma-radius", "transform-lambda", "wave-x", "spherical-b0",
        "euclid-radius", "moire-resolution", "moire-taper-width", "validate-out",
        "transform-config-lambda"])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=2\n")
    res = run(*(str(cfg) if a == "run.cfg" else a for a in args),
              "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_readme_cli_examples_parse():
    parser = cli._build_parser()
    commands = {parser.parse_args(args).command for args in readme_presets.readme_commands()}
    assert commands == set(cli._COMMANDS)


def test_readme_presets_write_the_recorded_bytes():
    """Every README command writes the digests in tests/data/readme_presets.txt.

    A change that moves preset bytes rewrites that file with
    ``tests/readme_presets.py`` in the same diff. A numpy or platform other
    than the header's may write other bytes; the mismatch says so, it is not
    skipped.
    """
    path = pathlib.Path(__file__).parent / "data" / "readme_presets.txt"
    header, *lines = path.read_text().splitlines()
    blocks = []  # each command's line and the lines of the files it wrote
    for line in lines:
        if line.startswith("horowave "):
            blocks.append([])
        blocks[-1].append(line)
    commands = readme_presets.readme_commands()
    assert len(blocks) == len(commands), f"{path.name} records other commands than README.md"
    for args, want in zip(commands, blocks):
        got = readme_presets.run(args)
        for w, g in itertools.zip_longest(want, got, fillvalue="(none)"):
            assert g == w, (f"horowave {shlex.join(args)} wrote {g!r}, {path.name} "
                            f"records {w!r} (taken with {header.lstrip('# ')})")


def test_missing_required_parameter():
    res = run("wave", "--out", "x.csv")
    assert res.returncode == 2
    assert "lambda" in res.stderr


def test_io_error_exit_code(tmp_path):
    res = run("wave", "--lambda", "2",
              "--out", str(tmp_path / "no-such-dir" / "x.csv"))
    assert res.returncode == 3


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=2\ngrid=30x32\nb0=0\n")
    out1 = tmp_path / "c1.csv"
    res = run("wave", "--config", str(cfg), "--out", str(out1))
    assert res.returncode == 0
    _, rows, _ = read_field(out1)
    assert rows.shape[0] == 30 * 32
    # flags beat the file
    out2 = tmp_path / "c2.csv"
    res = run("wave", "--config", str(cfg), "--grid", "20x16", "--out", str(out2))
    assert res.returncode == 0
    _, rows, _ = read_field(out2)
    assert rows.shape[0] == 20 * 16


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a wave on a small grid\n\nlambda = 2  # spectral parameter\n   \ngrid=8x8\n")
    out = tmp_path / "c.csv"
    assert run("wave", "--config", str(cfg), "--out", str(out)) == (0, "", "")
    _, rows, footer = read_field(out)
    assert rows.shape[0] == 8 * 8 and footer["lambda"] == "2.0"


@pytest.mark.parametrize("args, line", [
    (("wave", "--lambda", "2", "--grid", "3x8", "--out", "w.csv"),
     "bad config value for 'grid': grid must be at least 4x4"),
    (("moire", "--lambda", "2", "--sigmas", "4,abc", "--out", "m.csv"),
     "bad config value for 'sigmas': expected finite positive widths in increasing order, "
     "got '4,abc'"),
    (("wave", "--lambda", "2"), "bad config value for 'out': missing required parameter"),
])
def test_refused_options_exit_2_with_one_line(args, line):
    res = run(*args)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"configuration error: {line}\n")


def test_config_line_without_equals_exits_2_with_one_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=2\ngrid 8x8\n")
    res = run("wave", "--config", str(cfg), "--out", str(tmp_path / "c.csv"))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"configuration error: bad config value for 'config': {cfg}:2: " \
                         "expected key=value\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_validate_suite_filter_runs_fast():
    res = run("validate", "--suite", "hypgeo")
    assert res.returncode == 0
    assert "PASS" in res.stdout
    assert "FAIL" not in res.stdout


def test_validate_detects_perturbed_kappa(monkeypatch, capsys):
    # the constant plancherel_density reads, so inverse and the isometry use it
    monkeypatch.setattr(waves, "PLANCHEREL_KAPPA", 1.1 / (2 * math.pi))
    assert cli.main(["validate", "--suite", "hft"]) == 1
    fails = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
    for name in ("kappa fit", "round trip radial", "round trip offcenter",
                 "round trip two-lobe", "Plancherel isometry (width 1.25)",
                 "Plancherel isometry (width 1.7)", "Plancherel isometry (width 2.2)"):
        assert any(name in l for l in fails), name


def test_validate_rejects_unknown_suite():
    res = run("validate", "--suite", "nonsense")
    assert res.returncode == 2
