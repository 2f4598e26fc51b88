"""Self-test of the benchmark's checkers: clean reports pass, corrupted
ones fail.

    python3 perfbench/selftest.py

Runs a few small requests through `rank2dist.cli.main`, checks each clean
report, then applies one corruption at a time and requires every checker
that should notice it to raise `CheckFailure`.  Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checkrun  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import rank2dist.cli as cli  # noqa: E402


def _set(path, value):
    def corrupt(rep):
        node = rep
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return corrupt


def _drop(key):
    def corrupt(rep):
        del rep[key]
    return corrupt


def _shift_state(rep):
    rep["states"][-1][0] += 1e-3


def _dup_field(rep):
    rep["basis"][-1] = list(rep["basis"][0])


def _bad_field(rep):
    rep["basis"][0][0] = rep["basis"][0][0] + " + x"


CASES = [
    (inputs.Op("monge n=6", ["analyze", "--model", "monge", "--n", "6",
                             "--seed", "3"], inputs.flat_monge(6),
               expect={"maximal": True}),
     [("schema: no kind", _drop("kind")),
      ("growth vector", _set(["growth_vector", -1], lambda v: v - 1)),
      ("class m", _set(["class", "m"], lambda v: v - 1)),
      ("maximal flag", _set(["class", "maximal_class"], False)),
      ("dims trace jump", _set(["class", "samples", 0, "dims_trace", 1],
                               lambda v: v + 1)),
      ("dims trace start", _set(["class", "samples", 0, "dims_trace", 0],
                                lambda v: v - 1)),
      ("corank bound", _set(["corank_bound"], 2))]),
    (inputs.Op("free-flat step=4", ["analyze", "--model", "free-flat",
                                    "--step", "4", "--samples", "1"],
               expect={"maximal": True, "free_step": 4}, samples=1),
     [("witt growth", _set(["growth_vector", 2], 6))]),
    (inputs.Op("monge n=5 prolong=2", ["analyze", "--model", "monge", "--n",
                                       "5", "--prolong", "2"],
               inputs.flat_monge(5), expect={"prolong": 2}),
     [("deprolongation degree", _set(["deprolongation", "degree"], 1)),
      ("deprolongation terminal", _set(["deprolongation", "terminal"],
                                       "engel"))]),
    (inputs.Op("cartan-jet k=5", ["analyze", "--model", "cartan-jet", "--k",
                                  "5"], inputs.cartan_jet(5),
               expect={"jet": 5}),
     [("goursat flag", _set(["goursat"], False)),
      ("jet degree", _set(["deprolongation", "degree"], 2))]),
    (inputs.Op("symmetries monge n=5 degree=2",
               ["symmetries", "--model", "monge", "--n", "5", "--degree",
                "2"], inputs.flat_monge(5), degree=2),
     [("symmetry condition", _bad_field),
      ("dependent fields", _dup_field),
      ("dim", _set(["dim"], lambda v: v + 1))]),
    (inputs.Op("trace monge n=6", ["trace", "--model", "monge", "--n", "6",
                                   "--seed", "1", "--T", "0.25",
                                   "--steps", "400"], inputs.flat_monge(6)),
     [("endpoint", _shift_state),
      ("h residuals", _set(["h_residuals", 3], lambda v: v + 1e-7)),
      ("nu at t=0", _set(["nu_trace", 0], lambda v: v - 1)),
      ("momentum", _set(["momentum", 0], lambda v: str(int(v) + 1))),
      ("halted", _set(["halted"], True))]),
]


def _check(op, report, argv):
    checks.check_schema(report, checks.schema_path(ROOT))
    if argv[0] == "analyze":
        checks.check_analyze(report, op)
    elif argv[0] == "symmetries":
        checks.check_symmetries(report, op)
    else:
        checks.check_trace(report, op, checkrun._exact_class(cli, argv))


def main():
    work = os.path.join(ROOT, ".perfbench_work", "selftest")
    os.makedirs(work, exist_ok=True)
    misses = 0
    for i, (op, corruptions) in enumerate(CASES):
        out = os.path.join(work, "case%d.json" % i)
        argv = op.argv + ["--out", out]
        if cli.main(argv) != 0:
            print("FAIL %s: request failed" % op.name)
            misses += 1
            continue
        clean = checks.load_report(out)
        try:
            _check(op, clean, argv)
            print("ok   %s: clean report passes" % op.name)
        except checks.CheckFailure as e:
            print("FAIL %s: clean report rejected: %s" % (op.name, e))
            misses += 1
        for label, corrupt in corruptions:
            bad = copy.deepcopy(clean)
            corrupt(bad)
            try:
                _check(op, bad, argv)
            except checks.CheckFailure as e:
                print("ok   %s / %s: caught (%s)" % (op.name, label,
                                                    str(e)[:70]))
                continue
            print("FAIL %s / %s: corrupted report passed" % (op.name, label))
            misses += 1
    try:
        checks.check_degree_monotone({2: 5, 3: 4})
        print("FAIL symmetry dims decreasing with degree passed")
        misses += 1
    except checks.CheckFailure:
        print("ok   symmetry dims decreasing with degree: caught")
    print("selftest: %s" % ("PASS" if not misses else "%d misses" % misses))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
