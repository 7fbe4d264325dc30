"""Command-line interface: formats, determinism, exit codes, config handling."""
import math
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
from horowave import cli, transform, waves
from horowave.cli import _field_csv
from horowave.transform import GridSpec

CLI = [sys.executable, "-m", "horowave.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


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
    # the measured phase round-off |lambda| max|B| 2^-53 of the closed form
    B = GridSpec(200, 256, 4.0).busemann(0.0)
    est = 2.0 * np.max(np.abs(B)) * 2.0 ** -53
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
    est = np.max(np.abs(ref - oracles.line_moire_loop(1.0, 7, 0.5, Q, m=48).real))
    assert float(footer["quadrature_error_estimate"]) == pytest.approx(est, rel=1e-3)


def test_non_finite_field_exits_1_and_writes_nothing(tmp_path):
    # at R = 1500 the wave's modulus e^{B/2} reaches e^{748}, past the float range
    res = run("wave", "--lambda", "2", "--radius", "1500", "--out", str(tmp_path / "w.csv"))
    assert res.returncode == 1
    assert "non-finite" in res.stderr and "Traceback" not in res.stderr
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
    with pytest.raises(SystemExit) as exc:
        cli.main(["wave", "--lambda", "2", "--no-such-option", "1"])
    assert exc.value.code == 2
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
