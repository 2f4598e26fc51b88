"""rank2dist benchmark: one command, four workloads.

    python3 perfbench/run.py --workload analyze-generic --seed 1 \
        --seconds 15 --trace 0

Runs from the root of a checkout that holds `src/rank2dist`.  Set-up is
timed in four fresh processes plus the measuring one; the measuring process
(`worker.py`) runs the workload for `--seconds`, then `checkrun.py` checks
every report it wrote.  BLAS is limited to one thread in every child.
Times are scaled to a reference machine speed measured in the same process
(see `worker.py`).  The last line on stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for `--trace 0` and the per-layer metrics (from
a run with wrapped layer functions, plus the tracing overhead) for
`--trace 1`.  Inputs, the op log, the result and the trace file stay in
`.perfbench_work/` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "largest_op_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _child(script, args, timeout):
    """Run a benchmark script; return its last stdout line as JSON."""
    if timeout <= 0:
        raise BenchError("out of time before %s" % script)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script)]
                              + args, capture_output=True, text=True,
                              env=_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %.0f s" % (script, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s failed (exit %d): %s" % (
            script, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def _metadata():
    """Run facts taken from outside the package (nothing in src/ edited)."""
    src = os.path.join(ROOT, "src")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    lines += sum(1 for _ in fh)
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); import rank2dist.kernel as k;"
         "print(k.Q.__module__)"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60)
    module = probe.stdout.strip()
    return {
        "backend": "gmpy2" if module.startswith("gmpy2") else
                   "fractions" if module == "fractions" else module or "?",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def bench(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "rank2dist",
                                       "__init__.py")):
        raise BenchError("no src/rank2dist in %s: run from a rank2dist "
                         "checkout" % ROOT)
    t_start = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - t_start)

    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, "%s-s%d-t%d" % (args.workload, args.seed,
                                              args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for i in range(SETUP_PROCESSES):
        d = os.path.join(work, "setup%d" % i)
        setups.append(_child("worker.py", common + [
            "--work", d, "--setup-only"], left())["setup_s"])
        shutil.rmtree(d, ignore_errors=True)
    res = _child("worker.py", common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work], left())
    setups.append(res["setup_s"])
    chk = _child("checkrun.py", ["--work", work], left())
    with open(os.path.join(work, "ops.json")) as fh:
        log = json.load(fh)
    verdicts = chk["verdicts"]
    failed = [(e, v) for e, v in zip(log, verdicts) if v is not None]
    unexpected = [(e, v) for e, v in failed
                  if not e["op"]["expect"].get("known_fault")]
    for e, v in failed:
        print("FAILED %s [round %d]: %s" % (e["name"], e["round"],
                                           v.splitlines()[-1][:300]))
    if args.trace:
        metrics = res["per_layer"]
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    meta = dict(_metadata(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, rounds=res["rounds"],
                window_s=res["window_s"], speed_scale=res["speed_scale"],
                check_s=chk["check_s"],
                setup_samples_s=setups)
    result = {"correct": not unexpected, "attempted": len(log),
              "failed": len(failed), "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"meta": meta, "result": result,
                   "failures": [[e["name"], v] for e, v in failed]}, fh,
                  indent=1)
    for k, v in sorted(meta.items()):
        print("%s: %s" % (k, v))
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = bench(args)
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
