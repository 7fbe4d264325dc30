"""Run one workload over several seeds and print each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload weak --seeds 1-10 [--seconds 24] [--trace 0]

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure each end-to-end metric's bound in BENCHMARK.json is held against.
Runs go one after another; each is a fresh process.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = {k: round(m["value"], 4) for k, m in result["metrics"].items()
                 if args.trace == 0 or k.startswith("trace.")}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
    print(f"{len(args.seeds)} runs in {time.perf_counter() - t0:.0f} s")

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.3f}"
        else:
            spread = "n/a"
        bound = f"  bound {bounds[name]}" if bounds.get(name) is not None else ""
        print(f"{name:<46} median {med:<12.6g} spread {spread}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
