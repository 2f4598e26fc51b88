"""One benchmark run of one workload, in a fresh process.

A single closed-loop caller: each request is a `rank2dist.cli.main` call
made in-process after the previous one returned.  Rounds (one pass over the
workload's operation list, with fresh inputs per round) repeat until
`--seconds` have passed; the last round always completes, so every run
attempts whole rounds.  Results and the per-op log go to `--work`; the last
line on stdout is a JSON summary for `run.py`.

With `--setup-only` the process only times its set-up (importing rank2dist,
then generating and writing round 0's inputs) and exits.

Shared machines drift in speed by a quarter from one minute to the next.
Before each request the worker times `calibrate` once for every
CAL_EVERY_S of request time since the last sample; `calibrate` is fixed
pure-Python rational arithmetic that does not touch the package.  Every
time is scaled by CAL_REF_S over the run's mean calibration time, so
reported seconds are seconds on a machine where `calibrate` takes
CAL_REF_S.  Raw times and calibration samples stay in the op log.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# nominal time of one `calibrate` call, and request time between samples
CAL_REF_S = 0.04
CAL_EVERY_S = 0.5
_CAL_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(8)
              for j in range(8)}
_CAL_RNG = random.Random(5)
_CAL_BIG = [Fraction(_CAL_RNG.getrandbits(200) + 1,
                     _CAL_RNG.getrandbits(200) + 1) for _ in range(40)]


def calibrate():
    """Seconds taken by fixed rational arithmetic of the two kinds the
    package's kernel does: a product of two dict-of-Fraction polynomials
    with small coefficients, and sums of products of 200-bit Fractions."""
    t0 = time.perf_counter()
    out = {}
    for (i, j), c in _CAL_TERMS.items():
        for (k, l), d in _CAL_TERMS.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    acc = Fraction(0)
    for a in _CAL_BIG:
        for b in _CAL_BIG[:10]:
            acc += a * b
    return time.perf_counter() - t0


def _setup(root, args):
    """Import the package from the checkout and write round 0's inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import rank2dist.cli  # noqa: F401  (the timed import)
    import inputs
    ops = inputs.write_round(args.workload, args.seed, 0,
                             os.path.join(args.work, "inputs"))
    return time.perf_counter() - t0, ops


def _call(cli, argv):
    """One request; returns (seconds, exit code, error text or None)."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = (err.getvalue().strip() or "exit code %d" % rc) if rc \
            else None
    except Exception:                       # noqa: BLE001  (op boundary)
        rc, error = -1, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, rc, error


def run(args):
    root = os.path.dirname(HERE)
    setup_s, ops = _setup(root, args)
    import rank2dist
    import rank2dist.cli as cli
    import inputs
    if rank2dist.__file__ != os.path.join(root, "src", "rank2dist",
                                          "__init__.py"):
        raise SystemExit("imported rank2dist from %s, not the checkout"
                         % rank2dist.__file__)
    setup_scale = CAL_REF_S / statistics.fmean(calibrate()
                                               for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * setup_scale,
                          "raw_setup_s": setup_s}))
        return
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    log = []
    traced_s, untraced_s = [], []
    cal, since_cal = [], CAL_EVERY_S
    start = time.perf_counter()
    rnd = 0
    while True:
        if rnd:
            ops = inputs.write_round(args.workload, args.seed, rnd,
                                     os.path.join(args.work, "inputs"))
        passes = [False]
        if tracer is not None:
            passes = [False, True] if rnd % 2 == 0 else [True, False]
        for traced in passes:
            if traced:
                tracer.install()
            total = 0.0
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.request = "%d/%d" % (rnd, i)
                while since_cal >= CAL_EVERY_S:
                    cal.append(calibrate())
                    since_cal -= CAL_EVERY_S
                dt, rc, error = _call(cli, op.argv)
                since_cal += dt
                total += dt
                if traced == passes[-1]:
                    log.append({"round": rnd, "index": i, "name": op.name,
                                "argv": op.argv, "raw_seconds": dt,
                                "rc": rc, "error": error, "op": vars(op)})
            if traced:
                tracer.uninstall()
                traced_s.append(total)
            else:
                untraced_s.append(total)
        rnd += 1
        if time.perf_counter() - start >= args.seconds:
            break
    window_s = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = CAL_REF_S / statistics.fmean(cal)
    for e in log:
        e["seconds"] = e["raw_seconds"] * scale
    with open(os.path.join(args.work, "ops.json"), "w") as fh:
        json.dump(log, fh)
    with open(os.path.join(args.work, "calibrate.json"), "w") as fh:
        json.dump(cal, fh)
    times = [e["seconds"] for e in log]
    largest = [e["seconds"] for e in log if e["op"]["largest"]]
    slots = {}
    for e in log:
        slots.setdefault(e["index"], []).append(e["seconds"])
    out = {
        "setup_s": setup_s * setup_scale,
        "raw_setup_s": setup_s,
        "rounds": rnd,
        "ops": len(log),
        "window_s": window_s,
        "speed_scale": scale,
        "metrics": {
            "wall_s": sum(statistics.median(v) for v in slots.values()),
            "op_p50_s": statistics.median(times),
            "largest_op_s": statistics.median(largest),
            "peak_rss_mib": rss_mib,
        },
    }
    if tracer is not None:
        overhead = 100.0 * (sum(traced_s) / sum(untraced_s) - 1.0)
        out["per_layer"] = tracer.metrics(rnd, overhead)
        tracer.write(os.path.join(args.work, "trace.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": rnd, "overhead_pct": overhead,
                      "traced_round_s": traced_s,
                      "untraced_round_s": untraced_s})
    print(json.dumps(out))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--setup-only", action="store_true")
    run(p.parse_args(argv))


if __name__ == "__main__":
    main()
