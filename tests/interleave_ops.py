"""Interleave one perfbench workload's ops between two source trees, op by op.

    python tests/interleave_ops.py TREE_A TREE_B --workload spectral --seeds 61 62 63

Each tree is a checkout with ``src/`` and ``perfbench/``. One worker
process per tree imports that tree's library and benchmark and runs the
same set-up as a perfbench run. For each seed the op list is
``workloads.plan(workload, seed, seconds)``; its op indices go to both
workers, one op at a time, and a coin seeded from the seed picks which
tree runs each op first. Each op runs through ``runner.run_op``, so it
is checked outside its timing. Machine drift then falls on both trees
alike. Per seed the script prints, for each tree and as the ratio B/A,
the Harrell-Davis p50 and tail of the op times (``run.harrell_davis``,
``run.tail``), ops_per_s, the median time of each op kind and the
number of failed ops. For a seed of at most ``run.TAIL_BEYOND + 1`` ops
``run.tail`` is the sample minimum, not a tail, so tail_s and its ratio
print n/a. It exits 1 if an op failed.

It sizes a change to one layer; it does not replace perfbench's own
paired runs, each in a fresh process, for a claim. It writes nothing into
either tree: ops run in a temporary directory, and no bytecode is cached.
pytest does not collect this file.
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True


def _check_tree(tree: str) -> str:
    tree = os.path.abspath(tree)
    for part in (("src", "horowave", "__init__.py"), ("perfbench", "run.py")):
        if not os.path.isfile(os.path.join(tree, *part)):
            raise SystemExit(f"interleave_ops: {tree} has no {os.path.join(*part)}")
    return tree


def _import_perfbench(tree: str):
    """The tree's perfbench modules ``run`` and ``workloads``."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import run
    import workloads
    return run, workloads


def worker(tree: str, workload: str) -> int:
    """Run the ops the controller names on stdin, one JSON reply per line."""
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # whatever the library prints goes to stderr, not into the replies
    run, workloads = _import_perfbench(tree)
    import runner
    workdir = tempfile.mkdtemp(prefix="interleave-")
    try:
        run.setup(workload, workdir)
        plans = {}
        for line in sys.stdin:
            msg = json.loads(line)
            key = (msg["seed"], msg["seconds"])
            if key not in plans:
                plans[key] = workloads.plan(workload, *key)
            ops = plans[key]
            if "index" in msg:
                i = msg["index"]
                o = runner.run_op(ops[i], i, workdir)
                reply = {"kind": o.kind, "seconds": float(o.seconds), "ok": bool(o.ok),
                         "detail": o.detail}
            else:
                reply = {"ops": len(ops), "plan": json.dumps(ops, sort_keys=True)}
            proto.write(json.dumps(reply) + "\n")
            proto.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


class Worker:
    def __init__(self, tree: str, workload: str, cwd: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", tree, workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd)

    def ask(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"interleave_ops: worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _summary(run, outcomes: list[dict]) -> dict:
    times = [o["seconds"] for o in outcomes]
    kinds = sorted({o["kind"] for o in outcomes})
    tail = run.tail(times)[0] if len(times) > run.TAIL_BEYOND + 1 else None
    out = {"p50_s": run.harrell_davis(sorted(times), 0.5), "tail_s": tail,
           "ops_per_s": sum(o["ok"] for o in outcomes) / sum(times)}
    for kind in kinds:
        out[f"{kind}_median_s"] = statistics.median(o["seconds"] for o in outcomes
                                                    if o["kind"] == kind)
    out["failed"] = sum(not o["ok"] for o in outcomes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    trees = [_check_tree(args.tree_a), _check_tree(args.tree_b)]
    run, workloads = _import_perfbench(trees[0])
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    cwd = tempfile.mkdtemp(prefix="interleave-")
    workers = [Worker(tree, args.workload, cwd) for tree in trees]
    failed = 0
    try:
        print(f"A = {trees[0]}\nB = {trees[1]}")
        for seed in args.seeds:
            plans = [w.ask({"seed": seed, "seconds": args.seconds}) for w in workers]
            if plans[0]["plan"] != plans[1]["plan"]:
                raise SystemExit(f"interleave_ops: the trees plan seed {seed} differently")
            coin = random.Random(seed)
            outcomes = ([], [])
            for i in range(plans[0]["ops"]):
                order = (0, 1) if coin.random() < 0.5 else (1, 0)
                for side in order:
                    outcomes[side].append(workers[side].ask(
                        {"seed": seed, "seconds": args.seconds, "index": i}))
            a, b = (_summary(run, o) for o in outcomes)
            print(f"seed {seed}: {args.workload}, {plans[0]['ops']} ops each")
            print(f"  {'':<22} {'A':>10} {'B':>10} {'B/A':>7}")
            for name in a:
                if a[name] is None:
                    print(f"  {name:<22} {'n/a':>10} {'n/a':>10} {'n/a':>7}")
                    continue
                ratio = b[name] / a[name] if a[name] else float("nan")
                print(f"  {name:<22} {a[name]:>10.4g} {b[name]:>10.4g} {ratio:>7.3f}")
            for side, name in ((0, "A"), (1, "B")):
                for i, o in enumerate(outcomes[side]):
                    if not o["ok"]:
                        print(f"  FAILED {name} op {i} {o['kind']}: {o['detail']}")
            failed += a["failed"] + b["failed"]
    finally:
        for w in workers:
            w.close()
        shutil.rmtree(cwd, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(*sys.argv[2:4]))
    sys.exit(main())
