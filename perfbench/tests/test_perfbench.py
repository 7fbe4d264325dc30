"""The benchmark's own checks: seeded inputs, exact counts, transparent tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SECONDS = 18.0


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.plan(workload, 7, SECONDS)
        assert json.dumps(first) == json.dumps(workloads.plan(workload, 7, SECONDS))
        assert json.dumps(first) != json.dumps(workloads.plan(workload, 8, SECONDS))


def test_draws_stay_in_their_ranges():
    for seed in range(20):
        for op in workloads.plan("figures", seed, SECONDS):
            assert 0.5 <= op["lam"] <= 4.0
            if op["kind"] == "moire":
                assert 1 <= op["centers"] <= 24
            if op["kind"] == "euclid":
                assert 1 <= op["centers"] <= 60
        weak = workloads.plan("weak", seed, SECONDS)
        assert sum(op["taper_width"] == 4.0 for op in weak) * 2 == len(weak)
        assert all(1.3 <= op["window_center"] <= 3.2 and -2.5 <= op["arc"] <= 1.2
                   for op in weak)


def test_tail_is_the_harrell_davis_estimate_with_ten_beyond():
    times = [float(i) for i in range(36)]
    value, pct, beyond = run.tail(times[::-1])
    assert (round(pct, 6), beyond) == (round(100 * 25 / 35, 6), 10)
    assert value == pytest.approx(25.0, abs=0.5)  # between the 25th and 26th order stats
    assert run.tail([0.7] * 36)[0] == pytest.approx(0.7)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 2)


def _cheap_ops() -> list[dict]:
    """One op of every kind, with the smallest center counts on offer."""
    chosen = {}
    for seed in range(50):
        for workload in workloads.WORKLOADS:
            for op in workloads.plan(workload, seed, SECONDS):
                if op.get("centers", 1) > 3 or op.get("grid", "120x192") != "120x192":
                    continue
                chosen.setdefault(op["kind"], op)
    kinds = workloads.FIGURE_KINDS + ("weak",) + workloads.SPECTRAL_KINDS
    assert set(chosen) == set(kinds)
    return [chosen[k] for k in kinds]


@pytest.fixture(scope="module")
def calibrated():
    from horowave import moire, waves
    waves.CONVENTION.plancherel_kappa
    moire.kappa_h()


def _run(ops, workdir, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        return [runner.run_op(op, i, str(workdir), tracer) for i, op in enumerate(ops)]
    finally:
        if tracer is not None:
            tracer.uninstall()


def _counts(tracer) -> dict:
    return {k: v for k, v in tracer.layer_totals().items()
            if not k.endswith(("self_s", "total_s"))}


def test_tracing_keeps_outputs_and_counts_repeat(calibrated, tmp_path):
    from horowave import moire, waves

    ops = _cheap_ops()
    plain = _run(ops, tmp_path)
    assert all(o.ok for o in plain), [o.detail for o in plain if not o.ok]

    first, second = spans.Tracer(), spans.Tracer()
    traced = _run(ops, tmp_path, first)
    again = _run(ops, tmp_path, second)
    assert [o.digest for o in traced] == [o.digest for o in plain]
    assert [o.digest for o in again] == [o.digest for o in plain]
    assert [o.bytes_written for o in traced] == [o.bytes_written for o in plain]

    counts = _counts(first)
    assert counts == _counts(second)
    for name in ("waves.spherical_radial_profile.evals", "transform.forward.fft_rows",
                 "transform.inverse.fft_rows", "transform.forward_at.evals",
                 "moire.moire_sum_discrete.center_nodes", "euclid.line_moire_array.evals",
                 "moire.moire_weak.calls", "cli.main.calls"):
        assert counts[name] > 0, name
    assert moire.spherical_radial_profile is waves.spherical_radial_profile
