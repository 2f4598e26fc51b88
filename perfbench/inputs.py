"""Seeded inputs of the rank2dist benchmark.

Every operation of a workload is one argument list for `rank2dist.cli.main`.
Round `r` of a run with seed `s` draws its inputs from `random.Random`
seeded with (workload, s, r) only, so the same seed gives the same inputs
and no two rounds of one run share a random input.  Generated distributions
are written as `--input` JSON files; this module imports nothing from the
package under test.

Regenerate and inspect the inputs of a run:

    python3 perfbench/inputs.py --workload analyze-generic --seed 1 \
        --rounds 2 --out .perfbench_work/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# trace-long: integration length and step count of the long traces
TRACE_T = 0.25
TRACE_STEPS = 6000


@dataclass
class Op:
    """One request to `rank2dist.cli.main` and what its checkers need.

    `spec` is the distribution in input-JSON form.  It is written and
    passed as `--input` when `as_input` is set; otherwise the request names
    a built-in model and `spec` is the same distribution for the checkers
    (None for free-flat, which is checked by Witt's formula).
    """

    name: str
    argv: list
    spec: dict = None
    as_input: bool = False
    expect: dict = field(default_factory=dict)
    largest: bool = False
    samples: int = 5
    degree: int = None


# ---------------------------------------------------------------------------
# random Monge equations z' = F(x, y0, ..., ym)
# ---------------------------------------------------------------------------

def _rand_q(rng, num=2, den=3):
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v:
            return v


def _mono_str(names, exps):
    parts = []
    for nm, e in zip(names, exps):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append("%s^%d" % (nm, e))
    return "*".join(parts) or "1"


def _poly_str(terms, names):
    out = []
    for exps, c in terms:
        out.append("(%s)*%s" % (c, _mono_str(names, exps)))
    return " + ".join(out)


def random_monge(rng, n):
    """Frame of z' = F, F = ym^2 + c1 ym*u + c2 v + c3 w with random
    coefficients and random monomials u (degree 1 in x, y0..y(m-1)),
    v (degree 3 in x, y0..y(m-1)) and w (degree 2 in x, y0..y(m-1)).

    F is quadratic in ym with d^2F/dym^2 = 2, so the cube of the
    distribution is 5-dimensional everywhere; the term shapes are fixed so
    that the cost of an input depends on n, not on the draw.  The base
    point is a random small-height rational point.
    """
    m = n - 3
    coords = ["x"] + ["y%d" % i for i in range(m + 1)] + ["z"]
    lower = coords[:-2]                   # x, y0..y(m-1)
    ym = coords[-2]

    def mono(deg):
        return "*".join(rng.choice(lower) for _ in range(deg))

    f = "%s^2 + (%s)*%s*%s + (%s)*%s + (%s)*%s" % (
        ym, _rand_q(rng), ym, mono(1), _rand_q(rng), mono(3),
        _rand_q(rng), mono(2))
    fields = [["1"] + ["y%d" % (i + 1) for i in range(m)] + ["0", f],
              ["0"] * (m + 1) + ["1", "0"]]
    return {"coordinates": coords, "fields": fields,
            "point": _rand_point(rng, n)}


def flat_monge(n, point=None):
    """The flat Monge model z' = ym^2 as an input spec."""
    m = n - 3
    coords = ["x"] + ["y%d" % i for i in range(m + 1)] + ["z"]
    fields = [["1"] + ["y%d" % (i + 1) for i in range(m)] + ["0", "y%d^2" % m],
              ["0"] * (m + 1) + ["1", "0"]]
    point = point or ["0"] * n
    return {"coordinates": coords, "fields": fields, "point": list(point)}


def scaled_flat_monge(rng, n):
    """z' = b ym^2 with jet relations y_i' = a_i y_(i+1), random signs a_i,
    b in {1, -1}: the flat Monge model after flipping the signs of some
    coordinates, at a random base point.  Same weights, cost and symmetry
    dimensions as the flat model, but a fresh input."""
    spec = flat_monge(n)
    m = n - 3
    x1 = spec["fields"][0]
    for i in range(m):
        x1[1 + i] = "%sy%d" % (rng.choice(("", "-")), i + 1)
    x1[-1] = "%sy%d^2" % (rng.choice(("", "-")), m)
    spec["point"] = _rand_point(rng, n)
    return spec


def cartan_jet(k, point=None):
    coords = ["x"] + ["y%d" % i for i in range(k + 1)]
    fields = [["1"] + ["y%d" % (i + 1) for i in range(k)] + ["0"],
              ["0"] * (k + 1) + ["1"]]
    return {"coordinates": coords, "fields": fields,
            "point": list(point or ["0"] * (k + 2))}


def _rand_point(rng, n):
    return [str(_rand_q(rng)) if rng.random() < 0.7 else "0"
            for _ in range(n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _seed(rng):
    return str(rng.randrange(1, 10 ** 6))


def _analyze_generic(rng):
    ops = []
    for n in (6, 7, 8, 9, 10, 10):
        ops.append(Op("analyze random-monge n=%d" % n,
                      ["analyze", "--samples", "5", "--seed", _seed(rng)],
                      random_monge(rng, n), True, {"maximal": True},
                      largest=(n == 10)))
    ops.append(Op("analyze free-flat step=4",
                  ["analyze", "--model", "free-flat", "--step", "4",
                   "--samples", "5", "--seed", _seed(rng)],
                  expect={"maximal": True, "free_step": 4}))
    return ops


def _symmetries(rng):
    """Flat (weighted) and random (unweighted) inputs.  Three cheaper and
    two dearer requests around three at n=7, degree 4, so that the median
    request is always one of those."""
    ops = []
    for n in (5, 6):
        ops.append(Op("symmetries flat monge n=%d" % n, ["symmetries"],
                      scaled_flat_monge(rng, n), True, {"flat_monge": n}))
    for i in range(3):
        spec = scaled_flat_monge(rng, 7)
        expect = {"flat_monge": 7, "monotone": "n7"} if i == 0 \
            else {"flat_monge": 7}
        for d in ((3, 4) if i == 0 else (4,)):
            ops.append(Op("symmetries flat monge n=7 degree=%d" % d,
                          ["symmetries", "--degree", str(d)], spec, True,
                          expect, largest=(d == 4), degree=d))
    spec = random_monge(rng, 5)
    for d in (2, 3):
        ops.append(Op("symmetries random-monge n=5 degree=%d" % d,
                      ["symmetries", "--degree", str(d)], spec, True,
                      {"monotone": "n5"}, degree=d))
    return ops


def _trace(n, seed, steps):
    return ["trace", "--model", "monge", "--n", str(n), "--seed", seed,
            "--T", str(TRACE_T), "--steps", str(steps)]


def _trace_long(rng):
    ops = []
    for n in (6, 6, 7, 7):
        ops.append(Op("trace flat monge n=%d" % n,
                      _trace(n, _seed(rng), TRACE_STEPS), flat_monge(n)))
    for _ in range(2):
        ops.append(Op("trace flat monge n=7 long",
                      _trace(7, _seed(rng), 2 * TRACE_STEPS), flat_monge(7),
                      largest=True))
    # fixed input: the t=0 float class disagrees with the exact class
    ops.append(Op("trace flat monge n=8 seed=0",
                  ["trace", "--model", "monge", "--n", "8", "--seed", "0"],
                  flat_monge(8), expect={"known_fault": True}))
    return ops


def _survey(rng):
    """Small analyze requests; every other one goes through --input, at a
    random base point."""
    items = []
    for n in (5, 6, 7, 8):
        items.append(("monge n=%d" % n, ["--model", "monge", "--n", str(n)],
                      flat_monge(n, _rand_point(rng, n)), {"maximal": True}))
    for k in list(range(3, 13)) + [12]:
        items.append(("cartan-jet k=%d" % k,
                      ["--model", "cartan-jet", "--k", str(k)],
                      cartan_jet(k, _rand_point(rng, k + 2)), {"jet": k}))
    for count in range(1, 6):
        items.append(("monge n=5 prolong=%d" % count,
                      ["--model", "monge", "--n", "5"],
                      flat_monge(5, _rand_point(rng, 5)), {"prolong": count}))
    for count in (1, 2, 3):
        items.append(("random-monge n=5 prolong=%d" % count, None,
                      random_monge(rng, 5), {"prolong": count}))
    items.append(("free-flat step=4", ["--model", "free-flat", "--step", "4"],
                  None, {"maximal": True, "free_step": 4}))
    ops = []
    for i, (name, model, spec, expect) in enumerate(items):
        argv = ["analyze", "--seed", _seed(rng)]
        if "prolong" in expect:
            argv += ["--prolong", str(expect["prolong"])]
        as_input = model is None or (i % 2 == 1 and spec is not None)
        if not as_input:
            argv += model
            if spec is not None:
                spec = dict(spec, point=["0"] * len(spec["coordinates"]))
        ops.append(Op("analyze %s%s" % (name, " (input)" * as_input), argv,
                      spec, as_input, expect,
                      largest=(name == "cartan-jet k=12")))
    return ops


_BUILDERS = {
    "analyze-generic": _analyze_generic,
    "symmetries": _symmetries,
    "trace-long": _trace_long,
    "survey": _survey,
}
WORKLOADS = tuple(_BUILDERS)


def round_ops(workload, seed, rnd):
    """The operations of round `rnd` of a run of `workload` with `seed`."""
    rng = random.Random("%s/%d/%d" % (workload, seed, rnd))
    return _BUILDERS[workload](rng)


def write_round(workload, seed, rnd, out_dir):
    """Generate round `rnd` and write its input files; return its ops with
    `--input` and `--out` paths filled in."""
    os.makedirs(out_dir, exist_ok=True)
    ops = round_ops(workload, seed, rnd)
    for i, op in enumerate(ops):
        stem = os.path.join(out_dir, "r%03d_%02d" % (rnd, i))
        if op.as_input:
            with open(stem + ".in.json", "w") as fh:
                json.dump(op.spec, fh, indent=1)
            op.argv[1:1] = ["--input", stem + ".in.json"]
        op.argv = op.argv + ["--out", stem + ".out.json"]
    return ops


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    for r in range(args.rounds):
        for op in write_round(args.workload, args.seed, r, args.out):
            print(" ".join(["rank2dist"] + op.argv), "  #", op.name)


if __name__ == "__main__":
    main()
