#!/usr/bin/env python3
"""Before/after benchmark pairs of a base revision and the working tree.

    python3 scripts/bench_pair.py --base HEAD --workload analyze-generic \
        --pairs 10 --out BENCH.json

Exports the base revision with `git archive` into a temporary directory,
then runs `perfbench/run.py` (trace off) alternately there and in the
working tree, `--pairs` times per workload with the same seed, swapping
which side goes first on every pair so that drift of the machine hits both
sides alike.  Writes one JSON file: per workload and end-to-end metric the
median and quartiles of each side, the relative change of the medians, and
how many pairs the working tree won; plus the backend, Python version, core
count and `src/` line count that `perfbench` records for each side, and for
every run the rounds it completed in the window and the seconds its checks
took.  Every run must report `correct`; a failed run stops the script.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    """Write the tree of `rev` into `dest`."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def bench(checkout, workload, seed, seconds):
    """(metrics {name: value}, meta) of one `perfbench/run.py` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit("perfbench failed in %s: %s"
                         % (checkout, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("perfbench reported incorrect results in %s"
                         % checkout)
    with open(os.path.join(checkout, ".perfbench_work",
                           "%s-s%d-t0" % (workload, seed),
                           "result.json")) as fh:
        meta = json.load(fh)["meta"]
    return {k: m["value"] for k, m in result["metrics"].items()}, meta


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD",
                   help="git revision to compare against (default HEAD)")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    out = {"base": base_rev, "pairs": args.pairs, "seed": args.seed,
           "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as base_dir:
        export(base_rev, base_dir)
        sides = {"base": base_dir, "head": ROOT}
        for wl in args.workload:
            runs = {"base": [], "head": []}
            meta = {}
            work = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    metrics, meta[side] = bench(sides[side], wl, args.seed,
                                                args.seconds)
                    runs[side].append(metrics)
                    work[side].append({k: meta[side][k]
                                       for k in ("rounds", "check_s")})
                    print("%s pair %d %s wall_s %.3f rounds %d" % (
                        wl, i, side, metrics["wall_s"],
                        meta[side]["rounds"]), flush=True)
            per_metric = {}
            for name in runs["head"][0]:
                b = [r[name] for r in runs["base"]]
                h = [r[name] for r in runs["head"]]
                sb, sh = summary(b), summary(h)
                per_metric[name] = {
                    "base": sb, "head": sh,
                    "change": sh["median"] / sb["median"] - 1,
                    "head_wins": sum(y < x for x, y in zip(b, h))}
            out["workloads"][wl] = {
                "metrics": per_metric,
                "runs": work,
                "meta": {side: {k: meta[side][k] for k in (
                    "backend", "python", "nproc", "src_lines")}
                    for side in meta}}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
