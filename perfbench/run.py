"""horowave benchmark: one seeded closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload figures --seed 1 --seconds 18 --trace 0

One client issues the workload's ops one after another in this process,
times each op, and checks each op's output against an independent
reference outside the timed region. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same ops with spans around the calls into
each layer and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The library is imported from ``src/`` next to this directory; the run
stops with exit code 2 if it is not there.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in set-up probes
    os.environ[_var] = str(NPROC)

SETUP_SAMPLES = 3          # set-ups per run: this process plus two probes
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10           # the tail percentile keeps this many samples beyond it

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB")]


class SourceMissing(Exception):
    pass


def _import_library():
    init = os.path.join(SRC, "horowave", "__init__.py")
    if not os.path.isfile(init):
        raise SourceMissing(f"no horowave sources at {init}")
    sys.path.insert(0, SRC)
    import horowave
    if os.path.realpath(horowave.__file__) != os.path.realpath(init):
        raise SourceMissing(f"imported horowave from {horowave.__file__}, not {init}")
    return horowave


def _warm_up(workload: str, workdir: str) -> None:
    """Tiny calls on the workload's code paths, on sizes no op uses."""
    from horowave import cli
    out = os.path.join(workdir, "warmup.csv")
    if workload == "figures":
        for argv in (["wave", "--lambda", "1", "--grid", "8x8"],
                     ["spherical", "--lambda", "1", "--grid", "8x8", "--radius", "1.8"],
                     ["moire", "--lambda", "1", "--centers", "1", "--grid", "16x16",
                      "--radius", "1.8"],
                     ["euclid", "--lambda", "1", "--centers", "1", "--grid", "8x8",
                      "--resolution", "16"]):
            if cli.main(argv + ["--out", out]) != 0:
                raise RuntimeError(f"warm-up call {argv[0]} failed")
    elif workload == "spectral":
        if cli.main(["transform", "--grid", "40x32", "--out", out]) != 0:
            raise RuntimeError("warm-up transform failed")
    # weak: the kappa_H fit already ran moire_weak's whole code path


def setup(workload: str, workdir: str, tracer=None) -> float:
    """Import, both constant fits and warm-up; seconds since this process began."""
    _import_library()
    from horowave import moire, waves
    if tracer is not None:
        tracer.install()
        tracer.op_id = "setup"
    try:
        waves.CONVENTION.plancherel_kappa
        moire.kappa_h()
        _warm_up(workload, workdir)
    finally:
        if tracer is not None:
            tracer.op_id = None
    return time.perf_counter() - T_START


def _probe_setup(workload: str) -> float:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def harrell_davis(xs: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted ``xs``: the mean of
    the order statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.

    A single order statistic jumps with one op's noise and with which op kind
    happens to sit at its rank; the weighted mean does not."""
    from scipy.special import betainc
    n = len(xs)
    if n == 1 or not 0.0 < q < 1.0:
        return xs[0] if q <= 0.0 else xs[-1]
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    keeps TAIL_BEYOND samples beyond it, estimated with ``harrell_davis``;
    the minimum when the run is shorter."""
    xs = sorted(times)
    k = max(0, len(xs) - 1 - TAIL_BEYOND)
    q = k / (len(xs) - 1) if len(xs) > 1 else 0.0
    return harrell_davis(xs, q), 100.0 * q, len(xs) - 1 - k


def _provenance(args, n_ops: int, setup_samples: list[float]) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "horowave")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"nproc": NPROC, "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit or "unavailable",
            "src_sha256": h.hexdigest()[:16], "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": n_ops, "setup_samples": len(setup_samples),
            "machine": platform.machine()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import runner
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = spans.Tracer() if args.trace else None
        try:
            setup_samples = [setup(args.workload, workdir, tracer)]
        except SourceMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        if not args.trace:
            setup_samples += [_probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]

        ops = workloads.plan(args.workload, args.seed, args.seconds)
        outcomes = []
        t_run = time.perf_counter()
        for i, op in enumerate(ops):
            outcomes.append(runner.run_op(op, i, workdir, tracer))
        wall_s = time.perf_counter() - t_run
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    times = [o.seconds for o in outcomes]
    failed = [o for o in outcomes if not o.ok]
    passed = len(outcomes) - len(failed)
    tail_s, tail_pct, beyond = tail(times)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / sum(times),
        "op_p50_s": harrell_davis(sorted(times), 0.5),
        "op_tail_s": tail_s,
        "failed_frac": len(failed) / len(outcomes),
        "err_to_tol_max": max(o.err_to_tol for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(outcomes)} wall_s={wall_s:.3f} (one client, closed loop)")
    print(f"  setup_s         {e2e['setup_s']:.4f} s    median of "
          f"{len(setup_samples)}: {', '.join(f'{s:.3f}' for s in setup_samples)}")
    print(f"  ops_per_s       {e2e['ops_per_s']:.4f} 1/s  passed ops per busy second")
    print(f"  op_p50_s        {e2e['op_p50_s']:.4f} s    median of {len(times)} ops "
          "(Harrell-Davis)")
    print(f"  op_tail_s       {tail_s:.4f} s    p{tail_pct:.0f} of {len(times)} ops "
          f"(Harrell-Davis), {beyond} beyond")
    print(f"  failed_frac     {e2e['failed_frac']:.4f}      {len(failed)}/{len(outcomes)}")
    print(f"  err_to_tol_max  {e2e['err_to_tol_max']:.4g}")
    print(f"  peak_rss_mb     {e2e['peak_rss_mb']:.1f} MB")
    for o in failed:
        print(f"  FAILED op {outcomes.index(o)} {o.kind}: {o.detail}")
    kinds = sorted({o.kind for o in outcomes})
    for kind in kinds:
        mine = [o for o in outcomes if o.kind == kind]
        print(f"  kind {kind:<10} n={len(mine):<3} median_s="
              f"{statistics.median(o.seconds for o in mine):.4f} "
              f"err_to_tol_max={max(o.err_to_tol for o in mine):.3g}")
    print("inputs: " + json.dumps(workloads.input_properties(args.workload, ops)))
    print("provenance: " + json.dumps(_provenance(args, len(outcomes), setup_samples)))

    if args.trace:
        totals = tracer.layer_totals()
        for o in outcomes:
            for key, value in o.accuracy.items():
                totals[key] = max(totals.get(key, 0.0), value)
        totals["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
        totals["trace.ops_per_s"] = e2e["ops_per_s"]
        metrics = {name: {"value": totals.get(name, 0), "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_file)
        for name, m in metrics.items():
            print(f"  {name:<46} {_fmt(m['value'])} {m['unit']}")
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_file, ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
