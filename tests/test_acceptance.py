"""Acceptance criteria, one printed PASS/FAIL line per criterion.

Each test prints exactly one summary line ("PASS criterion N: ...") and
asserts the same condition, so the printed table and the pytest outcome
can never disagree.
"""
import time

import readme_presets
from horowave import checks
from horowave.geometry import BoundaryPoint, DiskPoint, Horocycle, horocycle_point
from horowave.moire import convergence_study, moire_sum_discrete, phase_correlation
from horowave.transform import GridSpec

B0 = BoundaryPoint(0.0)
X0 = DiskPoint(0j)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def suite_ok(results):
    bad = [r for r in results if not r.ok]
    return not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad) or \
        f"{len(results)} checks"


def test_criterion_1_geometry():
    ok, detail = suite_ok(checks.suite_hypgeo())
    report(1, "geometry suite (Iwasawa, invariance, arc law, Busemann)", ok, detail)


_WAVES_RESULTS = []


def waves_results():
    if not _WAVES_RESULTS:
        _WAVES_RESULTS.extend(checks.suite_waves())
    return _WAVES_RESULTS


def test_criterion_2_eigenfunctions():
    results = [r for r in waves_results() if r.name.startswith("Laplacian eigenvalue")]
    ok, detail = suite_ok(results)
    report(2, "hyperbolic Laplacian eigenvalue -(lam^2 + 1/4)", ok, detail)


def test_criterion_3_spherical_oracle():
    results = [r for r in waves_results()
               if r.name.startswith(("boundary vs radial", "phi at origin", "Weyl symmetry",
                                     "modulus bound"))]
    ok, detail = suite_ok(results)
    report(3, "spherical-function oracle agreement and bounds", ok, detail)


def test_criterion_4_c_function():
    results = [r for r in waves_results()
               if r.name.startswith(("c-function conjugation", "|c|^-2 proportional"))]
    ok, detail = suite_ok(results)
    report(4, "c-function symmetry and |c|^-2 = pi lam tanh(pi lam)", ok, detail)


_HFT_RESULTS = []


def hft_results():
    if not _HFT_RESULTS:
        _HFT_RESULTS.extend(checks.suite_hft())
    return _HFT_RESULTS


def test_criterion_5_transform():
    results = [r for r in hft_results()
               if r.name.startswith(("kappa", "round trip", "Plancherel"))]
    ok, detail = suite_ok(results)
    report(5, "transform round trips (1e-4) and Plancherel isometry (1e-6)", ok, detail)


def test_criterion_6_lemma_and_coarea():
    results = [r for r in hft_results()
               if r.name.startswith(("lemma", "coarea"))]
    ok, detail = suite_ok(results)
    report(6, "horocycle-Dirac lemma (1%) and coarea profile", ok, detail)


def test_criterion_7_main_result():
    zero = Horocycle(B0, 0.0)
    points = (X0, horocycle_point(zero, 1.2), horocycle_point(zero, -2.5))
    t0 = time.monotonic()
    results = checks._weak_moire_checks((1.3, 2.2, 3.2), points)
    elapsed = time.monotonic() - t0
    ok, detail = suite_ok(results)
    osc = convergence_study(1.5, B0, X0, [8.0, 10.0, 12.0], "gaussian")[0].oscillation_amplitude
    report(7, "main result: weak moire <= 3% at sigma 12, monotone in sigma",
           ok and elapsed <= 300.0,
           f"{detail}, oscillation band {osc:.3f} (reported), {elapsed:.0f}s")


def test_criterion_8_euclid():
    ok, detail = suite_ok(checks.suite_euclid())
    report(8, "Euclidean oracle: J0 match and line-moire trend", ok, detail)


def test_criterion_9_figures(tmp_path):
    wave_out = tmp_path / "wave.csv"
    res = readme_presets.run_cli("wave", "--lambda", "2", "--b0", "0", "--out", str(wave_out))
    wave_ok = res.returncode == 0 and wave_out.exists() \
        and (tmp_path / "wave.pgm").exists()

    moire_out = tmp_path / "moire.csv"
    res = readme_presets.run_cli("moire", "--lambda", "2", "--centers", "5", "--spacing", "0.35",
                                 "--grid", "75x128", "--radius", "1.8", "--x", "0,0",
                                 "--out", str(moire_out))
    moire_ok = res.returncode == 0 and moire_out.exists()

    grid = GridSpec(75, 128, 1.8)
    corr5 = phase_correlation(moire_sum_discrete(2.0, B0, 5, 0.35, grid), 2.0, B0)
    corr60 = phase_correlation(moire_sum_discrete(2.0, B0, 60, 0.35, grid), 2.0, B0)
    ok = wave_ok and moire_ok and corr60 > corr5
    report(9, "figure presets emitted; resemblance grows from 5 to 60 centers", ok,
           f"correlation {corr5:.3f} -> {corr60:.3f}")
