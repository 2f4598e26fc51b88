"""Command-line interface: analyze / trace / symmetries.

Reports are deterministic JSON (schema `report-v1`): identical input plus
seed produces byte-identical output.  Exit codes: 0 success, 1 input or
parse errors, 2 geometric precondition failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import PreconditionError
from .kernel import PoleError, Q, as_q
from .parsing import ExpressionError
from .geometry import Chart
from .distribution import (Distribution, NonEquiregular, cube_dim,
                           equiregular_check, is_goursat, strong_flag,
                           tanaka_symbol, weak_flag)
from .models import build_model, deprolongation_degree, prolong
from .symplectic import CONVENTION_NOTE, class_at_point, fiber_sample
from .extremals import integrate_char, nu_along
from .symmetry import stabilized_symmetry_basis, symmetry_basis

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2


def _q_str(v):
    return str(as_q(v))


def _point_str(pt):
    return [_q_str(v) for v in pt]


def load_input_file(path):
    with open(path) as fh:
        data = json.load(fh)
    coords = data["coordinates"]
    chart = Chart(coords)
    fields = data["fields"]
    if len(fields) != 2:
        raise ValueError("top-level input needs exactly 2 frame fields")
    frame = []
    for comps in fields:
        if len(comps) != len(coords):
            raise ValueError("component list length != coordinate count")
        frame.append(chart.field(*[str(c) for c in comps]))
    dist = Distribution(chart, frame)
    point = [as_q(str(v)) for v in data.get("point", [0] * chart.dim)]
    if len(point) != chart.dim:
        raise ValueError("base point dimension mismatch")
    return dist, point


def resolve_input(args):
    if args.input:
        dist, point = load_input_file(args.input)
        desc = {"input": args.input}
    elif args.model:
        params = {}
        if args.n is not None:
            params["n"] = args.n
        if args.k is not None:
            params["k"] = args.k
        if args.step is not None:
            params["step"] = args.step
        spec = build_model(args.model, **params)
        dist = spec.distribution
        point = spec.base_point
        desc = {"model": spec.family, **{k: v for k, v in spec.params.items()}}
    else:
        raise ValueError("provide --model or --input")
    for _ in range(args.prolong or 0):
        dist = prolong(dist)
        point = list(point) + [Q(0)]
    if args.prolong:
        desc["prolong"] = args.prolong
    return dist, point, desc


def _provenance(args, desc, point):
    return {
        "tool_version": __version__,
        "schema": "report-v1",
        "seed": args.seed,
        "base_point": _point_str(point),
        "source": desc,
    }


def cmd_analyze(args):
    dist, point, desc = resolve_input(args)
    n = dist.chart.dim
    rep = {
        "kind": "analyze",
        "provenance": _provenance(args, desc, point),
        "dimension": n,
        "convention_note": CONVENTION_NOTE,
    }
    wf = weak_flag(dist, point)
    sf = strong_flag(dist, point)
    rep["growth_vector"] = list(wf.growth_vector)
    rep["strong_growth_vector"] = list(sf.growth_vector)
    cube = wf.dims[min(2, len(wf.dims) - 1)]
    rep["cube_dim"] = cube
    rep["goursat"] = is_goursat(dist, point, seed=args.seed)
    rep["equiregular_sampled"] = equiregular_check(dist, point,
                                                  samples=args.samples,
                                                  seed=args.seed)
    if rep["equiregular_sampled"] and wf.dims[-1] == n:
        try:
            sym = tanaka_symbol(dist, point, samples=0)
            rep["tanaka_symbol_dims"] = list(sym.dims)
        except NonEquiregular:
            pass
    if cube == 5:
        cr = class_at_point(dist, point, samples=args.samples,
                            seed=args.seed, depth_cap=args.depth_cap)
        rep["class"] = {
            "m": cr.m,
            "maximal_class": cr.maximal_class,
            "samples": [
                {"momentum": _point_str(s.momentum), "nu": nu,
                 "dims_trace": list(dims)}
                for s, nu, dims in cr.per_sample
            ],
            "genericity": cr.genericity,
        }
        rep["corank_bound"] = n - 2 - cr.m
    elif cube == 4:
        s, terminal = deprolongation_degree(dist, point,
                                            cap=args.depth_cap)
        rep["deprolongation"] = {"degree": s, "terminal": terminal}
    else:
        rep["note"] = ("cube dimension %d: neither the class pipeline "
                       "(cube 5) nor deprolongation (cube 4) applies"
                       % cube)
    return rep


def cmd_trace(args):
    dist, point, desc = resolve_input(args)
    n = dist.chart.dim
    if cube_dim(dist, point) != 5:
        raise PreconditionError("trace requires cube dimension 5 at the "
                                "base point")
    sample = fiber_sample(dist, point, seed=args.seed)
    traj = integrate_char(dist, sample, args.T, args.steps)
    report = nu_along(dist, traj, sample)
    return {
        "kind": "trace",
        "provenance": _provenance(args, desc, point),
        "convention_note": CONVENTION_NOTE,
        "momentum": _point_str(sample.momentum),
        "T": args.T,
        "steps": args.steps,
        "times": traj.times,
        "states": traj.states,
        "h_residuals": traj.h_residuals,
        "halted": traj.halted,
        "halt_reason": traj.halt_reason,
        "nu_trace": report.nu_trace,
        "nu_marginal": report.marginal,
        "nu_endpoint": report.nu_endpoint,
        "corank_bound": report.corank_bound,
        "corank_claim": report.corank_claim,
        "corank_note": report.note,
    }


def cmd_symmetries(args):
    dist, point, desc = resolve_input(args)
    if args.degree is not None:
        basis = symmetry_basis(dist, args.degree)
    else:
        basis = stabilized_symmetry_basis(dist)
    return {
        "kind": "symmetries",
        "provenance": _provenance(args, desc, point),
        "degree": basis.degree,
        "dim": basis.dim,
        "stabilized": basis.stabilized,
        "stable_degree": basis.stable_degree,
        "weights": basis.weights,
        "basis": [[c.to_str() for c in f.components] for f in basis.basis],
    }


def build_parser():
    p = argparse.ArgumentParser(
        prog="rank2dist",
        description="Exact analysis of bracket-generating rank-2 "
                    "distributions: growth vectors, class invariants, "
                    "deprolongation, symmetries, abnormal extremals.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", help="model family: monge | cartan-jet | "
                                        "free-flat")
        sp.add_argument("--n", type=int, help="dimension for monge")
        sp.add_argument("--k", type=int, help="jet order for cartan-jet")
        sp.add_argument("--step", type=int, help="step for free-flat")
        sp.add_argument("--prolong", type=int, default=0,
                        help="apply this many prolongations")
        sp.add_argument("--input", help="input spec JSON file")
        sp.add_argument("--samples", type=int, default=5)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--depth-cap", type=int, default=None)
        sp.add_argument("--out", help="write report JSON here "
                                      "(default stdout)")

    a = sub.add_parser("analyze", help="growth, cube, class or "
                                       "deprolongation pipeline")
    common(a)
    a.set_defaults(func=cmd_analyze)

    t = sub.add_parser("trace", help="integrate an abnormal extremal and "
                                     "track the class")
    common(t)
    t.add_argument("--T", type=float, default=0.5)
    t.add_argument("--steps", type=int, default=500)
    t.set_defaults(func=cmd_trace)

    s = sub.add_parser("symmetries", help="polynomial symmetry basis")
    common(s)
    s.add_argument("--degree", type=int, default=None,
                   help="degree bound (default: stabilize automatically)")
    s.set_defaults(func=cmd_symmetries)
    return p


def emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (PreconditionError, PoleError) as e:
        print("precondition failed: %s" % e, file=sys.stderr)
        return EXIT_PRECONDITION
    except (ExpressionError, ValueError, OSError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    emit(report, args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
