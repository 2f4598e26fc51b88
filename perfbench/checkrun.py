"""Check every report a benchmark run wrote, after the run.

Reads `ops.json` from `--work`, checks each report with `checks.py`, and
prints one JSON line: a verdict per op (null when it passed, otherwise the
reason) plus the seconds the checks took.  Reports are deleted once
checked; inputs stay for inspection.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from inputs import Op  # noqa: E402


def _exact_class(cli, argv):
    """Exact class at the covector `trace` starts from, via the package's
    exact path: the sample is the seeded fibre sample of the request."""
    from rank2dist.symplectic import class_at_sample, fiber_sample

    args = cli.build_parser().parse_args(argv)
    dist, point, _ = cli.resolve_input(args)
    sample = fiber_sample(dist, point, seed=args.seed)

    def exact(momentum):
        if list(momentum) != list(sample.momentum):
            raise checks.CheckFailure("momentum is not the seeded fibre "
                                      "sample of the request")
        return class_at_sample(dist, sample)[0]

    return exact


def check_op(entry, op, cli, schema):
    if entry["rc"] != 0:
        raise checks.CheckFailure("exit %s: %s" % (entry["rc"],
                                                   entry["error"]))
    argv = entry["argv"]
    report = checks.load_report(argv[argv.index("--out") + 1])
    checks.check_schema(report, schema)
    kind = argv[0]
    if kind == "analyze":
        checks.check_analyze(report, op)
    elif kind == "symmetries":
        checks.check_symmetries(report, op)
    else:
        checks.check_trace(report, op, _exact_class(cli, argv))
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    import rank2dist.cli as cli

    t0 = time.perf_counter()
    with open(os.path.join(args.work, "ops.json")) as fh:
        log = json.load(fh)
    schema = checks.schema_path(root)
    verdicts = []
    monotone = {}
    for entry in log:
        op = Op(**entry["op"])
        try:
            report = check_op(entry, op, cli, schema)
            group = op.expect.get("monotone")
            if group:
                key = (entry["round"], group)
                monotone.setdefault(key, []).append(
                    (len(verdicts), op.degree, report["dim"]))
            verdicts.append(None)
        except checks.CheckFailure as e:
            verdicts.append(str(e))
        except Exception as e:             # noqa: BLE001  (report boundary)
            verdicts.append("checker error: %r" % e)
        out = entry["argv"][entry["argv"].index("--out") + 1]
        if os.path.exists(out):
            os.remove(out)
    for members in monotone.values():
        try:
            checks.check_degree_monotone({d: dim for _, d, dim in members})
        except checks.CheckFailure as e:
            for idx, _, _ in members:
                verdicts[idx] = verdicts[idx] or str(e)
    print(json.dumps({"verdicts": verdicts,
                      "check_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
