"""Command-line front end: field rendering, experiments, validation.

Field files are UTF-8 CSV with header ``x,y,re,im``, one row per grid
node, followed by ``#``-prefixed footer comments echoing the effective
configuration and quadrature error estimates. Alongside every field file
a binary PGM (P5) quick-look image maps the phase linearly from
(-pi, pi] to 0..255; ``transform``'s maps the amplitude instead, gray
floor(256 |g| / max|g|) clipped to 255, as its round trip is real up to
round-off. All outputs are written atomically (temp + rename) and are
byte-identical across reruns of the same configuration.

Exit codes: 0 ok, 1 validation failure (a field holding NaN or inf is one,
and writes no file; so are a ``wave`` phase round-off past
``waves._WAVE_PHASE_TOL``, ``lemma`` sides apart by more than _LEMMA_TOL, a
``transform`` bump of L2 norm 0 on its grid, and a ``moire`` phi table that
does not settle or whose distances pass the float range), 2 bad
configuration, 3 IO error.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import euclid, moire
from .errors import ConfigError, HorowaveError, QuadratureUnderResolved
from .geometry import BoundaryPoint, DiskPoint, _polar_half_plane
from .tapers import TaperSpec
from .transform import (
    DEFAULT_GRID,
    GridSpec,
    SampledField,
    _angle_offsets,
    _radial_nodes,
    _relative_l2,
    forward,
    gaussian_bump,
    inverse,
    lemma_check,
)
from .waves import PLANCHEREL_KAPPA, _wave_values, spherical, spherical_radial

__all__ = ["main"]


# --- configuration --------------------------------------------------------

def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n_r, n_theta = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigError("grid", f"expected NxM, got {text!r}")
    if n_r < 4 or n_theta < 4:
        raise ConfigError("grid", "grid must be at least 4x4")
    return n_r, n_theta


def _parse_complex(text: str) -> DiskPoint:
    try:
        re, im = (float(p) for p in text.split(","))
        return DiskPoint(complex(re, im))
    except ValueError:
        raise ConfigError("x", f"expected a disk point re,im with |x| < 1, got {text!r}")


def _parse_floats(text: str) -> list[float]:
    """Taper widths: finite, positive and strictly increasing."""
    try:
        widths = [float(p) for p in text.split(",") if p]
    except ValueError:
        widths = []
    if not (widths and all(0 < w < math.inf for w in widths)
            and all(a < b for a, b in zip(widths, widths[1:]))):
        raise ConfigError("sigmas", "expected finite positive widths in increasing order, "
                                    f"got {text!r}")
    return widths


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("config", f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill argparse Nones from the config file, whose keys are the subcommand's flags."""
    if not args.config:
        return
    for key, val in _load_config_file(args.config).items():
        if key.replace("_", "-") not in _COMMANDS[args.command][1]:
            raise ConfigError(key, "unknown configuration key")
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, val)


def _number(args, name: str, kind=float, default=None):
    """The numeric option ``name`` parsed with ``kind`` (float or int).

    An absent option gives ``default``, or is a missing required parameter
    when there is none; text that ``kind`` cannot parse, nan and inf are a
    ConfigError.
    """
    raw = getattr(args, name.replace("-", "_"))
    if raw is None:
        if default is None:
            raise ConfigError(name, "missing required parameter")
        return default
    try:
        value = kind(raw)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ConfigError(name, f"expected a finite {'integer' if kind is int else 'number'}, "
                            f"got {raw!r}")


def _positive(key: str, value: float) -> float:
    if not value > 0:
        raise ConfigError(key, f"must be positive, got {value}")
    return value


def _grid_from(args) -> GridSpec:
    n_r, n_theta = _parse_grid(args.grid) if args.grid else (DEFAULT_GRID.n_r,
                                                            DEFAULT_GRID.n_theta)
    radius = _positive("radius", _number(args, "radius", default=DEFAULT_GRID.R))
    return GridSpec(n_r, n_theta, radius)


def _quadrature_grid_from(args) -> GridSpec:
    """The grid of a command that integrates over it: its area weights must hold."""
    grid = _grid_from(args)
    try:
        SampledField.zeros(grid)
    except ValueError as exc:
        raise ConfigError("grid", str(exc))
    return grid


# --- output ----------------------------------------------------------------

def _atomic_write(path: str, pieces) -> None:
    """Write the byte pieces to ``path`` as they arrive: a temp file, then a rename.

    If making or writing a piece raises, neither ``path`` nor the temp file
    is left.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".horowave-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows per formatting pass. A pass holds about 20 temporaries of 4 values a
# row, and they set the writer's own peak: streaming a 200x256 field to its
# file, the traced peak was 0.79 MB at 1024 rows and 3.12 MB at 4096
_CSV_BLOCK = 1024


# %.12g by table lookup. A nonzero value's 12 significant digits are the
# integer M = round(|v| 10^(11-X)), 10^11 <= M < 10^12, with X its decimal
# exponent. %.12g prints M split into an integer part I and p = 11 - X
# fraction digits F when -4 <= X < 12, and as d.ddddddddddd e-XX below.
# Each value in 1e-100 < |v| < 1e10 (so I < 1e10, X >= -99) or 0 becomes a
# record of seven 4-byte words with NUL in every unused byte, and
# bytes.translate deletes the NULs of a whole block:
#   [sep sign I//1e8] [I 4 digits] [I 4 digits] [. F 3 digits] [F 4] [F 4] [F 4 | e-XX]
# F is left-aligned to 15 digits, so the point sits at one place. Leading
# zeros of I and trailing zeros of F come out as NUL through the stripped
# tables; a word takes the full table when nonzero digits follow it. The
# separator comes before its value: "\n" before a row's first column.

def _writer_tables():
    """_HEAD, _INT_MID, _INT_LOW, _POINT, _FRAC and _TAIL, from the decimal digits of 0..9999.

    A table is an array of rows of 4 byte codes, 0 for NUL, viewed as words.
    """
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    full = (digits + ord("0")).astype(np.uint8)  # "%04d"
    nonzero = digits > 0
    rstrip = full * np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    lstrip = full * np.logical_or.accumulate(nonzero, axis=1)  # "%d", 0 as NUL
    int_low = np.concatenate([lstrip, full])
    int_low[0, 3] = ord("0")  # I = 0 prints "0"
    # "." and up to 3 digits: the leading "0" of w < 1000 becomes the point, where it is kept
    point = np.concatenate([rstrip[:1000], full[:1000]])
    point[:, 0] = np.where(point[:, 0], ord("."), 0)
    # separator, sign (NUL or "-"), I // 1e8 without leading zeros
    head = np.tile(lstrip[:100], (4, 1))
    head[:, 0] = np.repeat([ord("\n"), ord(",")], 200)
    head[:, 1] = np.tile(np.repeat([0, ord("-")], 100), 2)
    exponents = full[99:4:-1].copy()  # "e-99" down to "e-05"
    exponents[:, :2] = [ord("e"), ord("-")]
    tables = (head, np.concatenate([lstrip, full]), int_low, point,
              np.concatenate([rstrip, full]), np.concatenate([rstrip, exponents]))
    return [np.ascontiguousarray(t).view(np.uint32).ravel() for t in tables]


# index w + 10000 of _INT_MID, _INT_LOW and _FRAC (w + 1000 of _POINT) when more
# digits follow (in I: when digits precede); _HEAD is 100 words per separator and sign
_HEAD, _INT_MID, _INT_LOW, _POINT, _FRAC, _TAIL = _writer_tables()
# _HEAD offset of each value in a block: x starts a row
_SEP = np.tile(np.array([0, 200, 200, 200], np.uint8), _CSV_BLOCK)
_POW10 = np.array([float(10 ** k) for k in range(120)])  # int to float rounds correctly
# |s - round(s)| bound of s = |v| 10^(11-X) < 1e12: two roundings of 2^-53
_TIE_MARGIN = 2.5e-4


def _g12_mantissa(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, M and where Python must format, for magnitudes ``a``.

    Python formats values near a rounding tie, and values outside
    1e-100 < a < 1e10 other than 0; those and zeros get M = 0, X = 0.
    """
    ok = (a > 1e-100) & (a < 1e10)
    by_python = ~ok & (a != 0)
    a = np.where(ok, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.intp)
    s = a * _POW10[11 - X]
    off = (s >= 1e12).astype(np.intp) - (s < 1e11)  # log10 one off near 10^k
    if off.any():
        X += off
        s = a * _POW10[11 - X]
    M = np.rint(s)
    by_python |= np.abs(s - M) > 0.5 - _TIE_MARGIN
    carry = M == 1e12
    M[carry] = 1e11
    X += carry
    by_python |= (X >= 10) | (X < -99)
    blank = ~ok | by_python
    M[blank] = 0.0
    X[blank] = 0
    return X, M, by_python


def _g12_rows(v: np.ndarray) -> bytes:
    """The CSV text of finite values ``v``, whole rows of them, flat; x starts a row."""
    neg = np.signbit(v)
    X, M, by_python = _g12_mantissa(np.abs(v))
    neg &= ~by_python  # Python's text carries its own sign
    fixed = X >= -4
    p = np.where(fixed, 11 - X, 11)  # fraction digits
    I = np.floor(M / _POW10[p])
    F = (M - I * _POW10[p]) * _POW10[15 - p]
    exponent = np.where(fixed, 0, 10000 + 99 + X)  # _TAIL's e-XX; F's last group is 0
    del X, M, fixed, p  # the block's live temporaries set the writer's peak memory
    rec = np.empty((len(v), 7), np.uint32)
    # floor(x / 10^k) of integers x < 2^53 is exact at these magnitudes
    i0 = np.floor(I / 1e8)
    r = I - i0 * 1e8
    i1 = np.floor(r / 1e4)
    r -= i1 * 1e4
    rec[:, 0] = _HEAD[i0.astype(np.intp) + 100 * neg + _SEP[:len(v)]]
    rec[:, 1] = _INT_MID[i1.astype(np.intp) + 10000 * (i0 > 0)]
    rec[:, 2] = _INT_LOW[r.astype(np.intp) + 10000 * (I >= 1e4)]
    f0 = np.floor(F / 1e12)
    r = F - f0 * 1e12
    f1 = np.floor(r / 1e8)
    r -= f1 * 1e8
    f2 = np.floor(r / 1e4)
    f3 = (r - f2 * 1e4).astype(np.intp)
    rec[:, 3] = _POINT[f0.astype(np.intp) + 1000 * (f1 + r > 0)]
    rec[:, 4] = _FRAC[f1.astype(np.intp) + 10000 * (r > 0)]
    rec[:, 5] = _FRAC[f2.astype(np.intp) + 10000 * (f3 > 0)]
    rec[:, 6] = _TAIL[f3 + exponent]
    # a few values a block at most: each text fills its record's last six words
    for i in np.flatnonzero(by_python).tolist():
        rec[i, 1:] = np.frombuffer(("%.12g" % v[i]).encode().ljust(24, b"\0"), np.uint32)
    return rec.tobytes().translate(None, b"\0")


def _field_csv(xy: np.ndarray, values: np.ndarray, footer: dict):
    """The field CSV as byte pieces: the header, one text per _CSV_BLOCK rows, the footer.

    Raises ValueError here, before any piece is made, unless every
    coordinate and value is finite. The rows are copied block by block
    into one float buffer, so no whole-field table or text is built.
    """
    if not (np.isfinite(xy).all() and np.isfinite(values).all()):
        raise ValueError("a field CSV holds finite values only")
    xy, values = xy.reshape(-1), values.reshape(-1)
    return _csv_pieces((xy.real, xy.imag, values.real, values.imag), footer)


def _csv_pieces(columns, footer: dict):
    yield b"x,y,re,im"
    n = len(columns[0])
    buf = np.empty((min(n, _CSV_BLOCK), 4))
    for start in range(0, n, _CSV_BLOCK):
        block = buf[:min(_CSV_BLOCK, n - start)]
        for j, col in enumerate(columns):
            block[:, j] = col[start:start + len(block)]
        yield _g12_rows(block.reshape(-1))
    yield ("\n" + "".join(f"# {key}={val}\n" for key, val in footer.items())).encode()


def _phase_pgm(values: np.ndarray) -> bytes:
    phase = np.angle(values)
    gray = np.clip(np.floor((phase + math.pi) / (2.0 * math.pi) * 256.0), 0, 255)
    return _pgm(gray)


def _amplitude_pgm(values: np.ndarray) -> bytes:
    amp = np.abs(values)
    gray = np.clip(np.floor(256.0 * amp / (np.max(amp) or 1.0)), 0, 255)
    return _pgm(gray)


def _pgm(gray: np.ndarray) -> bytes:
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode() + gray.astype(np.uint8).tobytes()


def _emit_field(path: str, xy: np.ndarray, values: np.ndarray, footer: dict,
                image=_phase_pgm) -> None:
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise HorowaveError(f"{footer['command']} field has {bad} non-finite values of "
                            f"{values.size}; nothing written")
    _atomic_write(path, _field_csv(xy, values, footer))
    _atomic_write(os.path.splitext(path)[0] + ".pgm", [image(values)])


# --- subcommands ------------------------------------------------------------

# |lhs - rhs| bound of ``cmd_lemma``, relative to the larger of |lhs| and |rhs|
_LEMMA_TOL = 1e-2


def cmd_wave(args) -> int:
    lam = _number(args, "lambda")
    b0 = BoundaryPoint(_number(args, "b0", default=0.0))
    grid = _grid_from(args)
    B = grid.busemann(b0.theta)
    # closed form: the error is the phase round-off lam B 2^-53 where |B| is largest;
    # a modulus past the float range is inf, which _emit_field refuses
    try:
        values, est = _wave_values(lam, B)
    except HorowaveError as exc:
        raise HorowaveError(f"{exc}; nothing written") from None
    del B  # not held while the field is written
    footer = {"command": "wave", "lambda": lam, "b0": b0.theta,
              "grid": f"{grid.n_r}x{grid.n_theta}", "radius": grid.R,
              "quadrature_error_estimate": f"{est:.3e}"}
    _emit_field(args.out, grid.z, values, footer)
    return 0


def cmd_spherical(args) -> int:
    lam = _number(args, "lambda")
    grid = _grid_from(args)
    M = _number(args, "resolution", int, default=4096)
    if M < 2 or M % 2:
        raise ConfigError("resolution", f"must be even and at least 2, got {M}")
    # phi is radial: one evaluation per grid radius, the same along each row
    t = grid.radii_t
    values = np.broadcast_to(spherical_radial(lam, t)[:, None],
                             (grid.n_r, grid.n_theta)).astype(complex)
    # cross-check the radial quadrature against the boundary average at the
    # outermost radius where its M nodes settle; reported, not asserted. The
    # average's kernel is about e^{-t} wide, so past t of about log M they do
    # not. Where tanh(t/2) rounds to 1 (t above about 37) the outermost row
    # is not in the disk, and that is refused
    if not math.tanh(t[-1] / 2.0) < 1.0:
        raise QuadratureUnderResolved(
            f"spherical cross-check at t={t[-1]:g}: tanh(t/2) rounds to 1, so the "
            f"boundary average cannot be taken there")
    for tj in t[::-1].tolist():
        try:
            average = spherical(lam, DiskPoint(math.tanh(tj / 2.0) + 0j), M=M)
        except QuadratureUnderResolved:
            continue
        est = abs(average - spherical_radial(lam, tj))
        break
    else:
        raise QuadratureUnderResolved(
            f"spherical cross-check: the {M}-node boundary average settles at no grid radius")
    footer = {"command": "spherical", "lambda": lam,
              "grid": f"{grid.n_r}x{grid.n_theta}", "radius": grid.R,
              "quadrature_error_estimate": f"{est:.3e}"}
    _emit_field(args.out, grid.z, values, footer)
    return 0


def cmd_moire(args) -> int:
    lam = _number(args, "lambda")
    b0 = BoundaryPoint(_number(args, "b0", default=0.0))
    x = _parse_complex(args.x) if args.x else DiskPoint(0j)
    grid = _quadrature_grid_from(args)
    n = _number(args, "centers", int, default=5)
    if n < 1:
        raise ConfigError("centers", "must be a positive integer")
    spacing = _positive("spacing", _number(args, "spacing", default=0.35))
    sigmas = _parse_floats(args.sigmas) if args.sigmas else [4.0, 8.0, 12.0]
    kind = args.taper or "gaussian"
    try:
        TaperSpec(kind, sigmas[0])
    except ValueError as exc:
        raise ConfigError("taper", f"{exc}; the widths come from --sigmas")

    field = moire.moire_sum_discrete(lam, b0, n, spacing, grid)
    # the field sums a Chebyshev table of phi; at up to 16 fixed nodes, spread over the
    # flattened grid, it is checked against the mean of phi at each distance to a center
    values = field.values.ravel()
    sample = np.linspace(0, values.size - 1, min(16, values.size)).astype(np.intp)
    row, col = np.divmod(sample, grid.n_theta)
    psi = _angle_offsets(grid.n_theta, b0.theta, grid.n_theta)[col]
    w = _polar_half_plane(grid.radii_t[row], psi)[:, None]  # bit for bit the field's nodes
    d = 2.0 * np.arcsinh(moire._sinh_half_distances(w)(euclid._center_row(n, spacing)))
    est = float(np.max(np.abs(values[sample] - np.mean(spherical_radial(lam, d), axis=1))))
    # the report is made before any file is written, so a study that fails writes none
    reports = moire.convergence_study(lam, b0, x, sigmas, kind=kind)
    lines = ["sigma,approx_re,approx_im,target_re,target_im,abs_error"]
    for r in reports:
        lines.append(f"{r.taper.width:.12g},{r.approx.real:.12g},{r.approx.imag:.12g},"
                     f"{r.target.real:.12g},{r.target.imag:.12g},{r.abs_error:.12g}")
    lines.append(f"# oscillation_amplitude={reports[-1].oscillation_amplitude:.12g}")
    lines.append(f"# divergent={reports[-1].divergent}")
    footer = {"command": "moire", "lambda": lam, "b0": b0.theta, "centers": n,
              "spacing": spacing, "grid": f"{grid.n_r}x{grid.n_theta}",
              "radius": grid.R,
              "quadrature_error_estimate": f"{est:.3e}"}
    _emit_field(args.out, grid.z, field.values, footer)
    report_path = os.path.splitext(args.out)[0] + ".report.csv"
    _atomic_write(report_path, [("\n".join(lines) + "\n").encode()])
    return 0


def cmd_transform(args) -> int:
    grid = _quadrature_grid_from(args)
    width = _positive("bump-width", _number(args, "bump-width", default=1.25))
    f = SampledField.from_function(gaussian_bump(width), grid)
    # refused before the round trip, whose error is relative to this norm
    sampled = (f"transform: the bump sampled on the {grid.n_r}x{grid.n_theta} grid "
               f"of radius {grid.R:g}")
    bad = np.count_nonzero(~np.isfinite(f.values))
    if bad:
        raise HorowaveError(f"{sampled} has {bad} non-finite values of {f.values.size}; "
                            f"nothing written")
    if f.norm2() == 0.0:
        raise HorowaveError(f"{sampled} has L2 norm 0; nothing written")
    F = forward(f)
    # the radii forward and inverse build rows at; the node check behind them runs once
    nodes, _, interp = _radial_nodes(grid.radii_t, float(F.lambda_grid[-1]))
    g = inverse(F)
    del F  # not held while the field is written
    err = _relative_l2(g, f)
    footer = {"command": "transform", "bump_width": width,
              "grid": f"{grid.n_r}x{grid.n_theta}", "radius": grid.R,
              "plancherel_kappa": f"{PLANCHEREL_KAPPA:.12g}",
              "roundtrip_relative_l2_error": f"{err:.3e}",
              "quadrature_error_estimate": f"{err:.3e}",
              "radial_nodes": len(nodes),
              "kernel_interpolation_error": f"{interp:.3e}"}
    # the round trip of a real bump is real up to round-off, whose phase is noise
    _emit_field(args.out, grid.z, g.values, footer, image=_amplitude_pgm)
    return 0


def cmd_lemma(args) -> int:
    b0 = BoundaryPoint(_number(args, "b0", default=0.0))
    x = _parse_complex(args.x) if args.x else DiskPoint(0j)
    lhs, rhs = lemma_check(gaussian_bump(1.25), b0, x)
    rel = abs(lhs - rhs) / abs(rhs) if rhs != 0 else abs(lhs)
    print(f"lhs={lhs.real:.9f}{lhs.imag:+.9f}j")
    print(f"rhs={rhs.real:.9f}{rhs.imag:+.9f}j")
    print(f"relative_error={rel:.3e}")
    # the scale is 0 only when both sides are, and a NaN side fails
    diff, scale = abs(lhs - rhs), max(abs(lhs), abs(rhs))
    if not diff <= _LEMMA_TOL * scale:
        raise HorowaveError(f"lemma |lhs - rhs| = {diff:.3e} exceeds {_LEMMA_TOL:g} of "
                            f"max(|lhs|, |rhs|) = {scale:.3e}; nothing written")
    if args.out:
        body = ("quantity,re,im\n"
                f"lhs,{lhs.real:.12g},{lhs.imag:.12g}\n"
                f"rhs,{rhs.real:.12g},{rhs.imag:.12g}\n"
                f"# relative_error={rel:.3e}\n")
        _atomic_write(args.out, [body.encode()])
    return 0


def cmd_euclid(args) -> int:
    lam = _positive("lambda", _number(args, "lambda", default=1.0))
    n = _number(args, "centers", int, default=5)
    if n < 1:
        raise ConfigError("centers", "must be a positive integer")
    spacing = _positive("spacing", _number(args, "spacing", default=0.5))
    if not np.all(np.isfinite(euclid._center_row(n, spacing)[[0, -1]])):
        raise ConfigError("spacing", f"the end centers +-spacing (n - 1) / 2 pass the float "
                                     f"range at {n} centers")
    n_x, n_y = _parse_grid(args.grid) if args.grid else (81, 81)
    Q = np.linspace(2.0, 6.0, n_x)[None, :] + 1j * np.linspace(-2.0, 2.0, n_y)[:, None]
    m = _number(args, "resolution", int, default=256)
    if m < 2:
        raise ConfigError("resolution", "must be at least 2")
    # the mean of J0 rings is real, and with an even m so is the m-node rule
    # (its nodes pair up as conjugates); the imaginary part is round-off. A tiny
    # lambda can still overflow k c at finite centers: the field is NaN then,
    # which _emit_field refuses
    with np.errstate(over="ignore", invalid="ignore"):
        values = euclid.line_moire_array(lam, n, spacing, Q, m=m).real
        # closed form: the farthest ring reaches a grid corner from an end center
        est = euclid._aliasing_bound(lam, n, spacing, Q[::n_y - 1, ::n_x - 1], m)
    footer = {"command": "euclid", "lambda": lam, "centers": n, "spacing": spacing,
              "grid": f"{n_x}x{n_y}", "resolution": m,
              "quadrature_error_estimate": f"{est:.3e}"}
    _emit_field(args.out, Q, values, footer)
    return 0


def cmd_validate(args) -> int:
    from . import checks  # here, not at start-up: no other command runs the suites
    names = args.suite.split(",") if args.suite else None
    try:
        results, all_ok = checks.run_suites(names)
    except KeyError as exc:
        raise ConfigError("suite", f"unknown suite {exc.args[0]!r}")
    for r in results:  # a fixed name column, past the longest name: a new check moves no line
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:<56}  {r.detail}")
    print(f"{'PASS' if all_ok else 'FAIL'}  {sum(r.ok for r in results)}/{len(results)} checks")
    return 0 if all_ok else 1


# --- argument parsing --------------------------------------------------------

# subcommand: its function, the flags it reads besides --config, and whether
# it must have --out (it writes a field)
_COMMANDS = {
    "wave": (cmd_wave, ("lambda", "b0", "grid", "radius", "out"), True),
    "spherical": (cmd_spherical, ("lambda", "grid", "radius", "resolution", "out"), True),
    "moire": (cmd_moire, ("lambda", "b0", "x", "grid", "radius", "centers", "spacing",
                          "sigmas", "taper", "out"), True),
    "transform": (cmd_transform, ("grid", "radius", "bump-width", "out"), True),
    "lemma": (cmd_lemma, ("b0", "x", "out"), False),
    "euclid": (cmd_euclid, ("lambda", "centers", "spacing", "grid", "resolution", "out"), True),
    "validate": (cmd_validate, ("suite",), False),
}

_HELP = {
    "lambda": "spectral parameter",
    "b0": "boundary direction angle in radians",
    "x": "disk point as re,im",
    "grid": "grid size NxM",
    "radius": "geodesic truncation radius R",
    "resolution": "quadrature resolution",
    "centers": "number of centers",
    "spacing": "spacing of the centers",
    "sigmas": "taper widths, increasing, comma-separated",
    "taper": "taper kind: gaussian, cosine or hard",
    "bump-width": "coefficient a of the Gaussian test bump exp(-a d^2); larger is narrower",
    "suite": "comma-separated validation suites",
    "out": "output file path",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="horowave",
        description="Waves on the hyperbolic disk from horocycle superpositions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", help=_HELP[flag])
        p.add_argument("--config", help="key=value configuration file")
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """``--flag -x`` as ``--flag=-x``: every flag takes one value, and argparse reads a
    token starting with '-' as a value only when it looks like a plain negative number.

    A token starting with '--', and the parser's own '-h', is left for argparse.
    """
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(
            _attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse's own exit: 2 on a refused argv, 0 after -h
        return exc.code
    try:
        _merge_config(args)
        fn, _, needs_out = _COMMANDS[args.command]
        if needs_out and not args.out:
            raise ConfigError("out", "missing required parameter")
        return fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except HorowaveError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
