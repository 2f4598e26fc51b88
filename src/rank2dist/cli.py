"""Command-line interface: analyze / trace / symmetries.

Reports are deterministic JSON (schema `report-v1`): identical input plus
seed produces byte-identical output.  Exit codes: 0 success, 1 usage, input or
parse errors, 2 geometric precondition failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from itertools import chain

from . import __version__
from .errors import PreconditionError
from .kernel import PoleError, Q, as_q, exact_strs, unlimited_digits
from .parsing import ExpressionError
from .geometry import Chart
from .distribution import (Distribution, equiregular_check, is_goursat,
                           strong_flag, weak_flag)
from .models import build_model, deprolongation_degree, prolong
from .symplectic import CONVENTION_NOTE, class_at_point, fiber_sample
from .extremals import integrate_char, nu_along
from .symmetry import stabilized_symmetry_basis, symmetry_basis

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2


_POINT_COORD = re.compile(r"[+-]?(?:\d+/\d+|\d*\.?\d+)")


def load_input_file(path):
    """Distribution and base point of an input JSON file; malformed input
    raises ValueError."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("input JSON nests too deeply")
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    coords = data.get("coordinates")
    if not (isinstance(coords, list) and coords and
            all(isinstance(c, str) for c in coords)):
        raise ValueError("\"coordinates\" must be a nonempty list of names")
    chart = Chart(coords)
    fields = data.get("fields")
    if not (isinstance(fields, list) and len(fields) == 2):
        raise ValueError("top-level input needs exactly 2 frame fields")
    frame = []
    for comps in fields:
        if not isinstance(comps, list) or len(comps) != len(coords):
            raise ValueError("component list length != coordinate count")
        frame.append(chart.field(*[str(c) for c in comps]))
    dist = Distribution(chart, frame)
    point = data.get("point", [0] * chart.dim)
    if not isinstance(point, list) or len(point) != chart.dim:
        raise ValueError("base point dimension mismatch")
    point = [str(v) for v in point]
    for v in point:
        # exponent forms such as 1e99999999 would build huge integers
        if not _POINT_COORD.fullmatch(v):
            raise ValueError("base point coordinate %.40r is not an integer, "
                             "p/q or a decimal without exponent" % v)
    try:
        point = [as_q(v) for v in point]
    except ZeroDivisionError:
        raise ValueError("base point coordinate with zero denominator")
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
        "base_point": exact_strs(point),
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
    cube = wf.cube
    rep["cube_dim"] = cube
    rep["goursat"] = is_goursat(dist, point, seed=args.seed)
    rep["equiregular_sampled"] = equiregular_check(dist, point,
                                                  samples=args.samples,
                                                  seed=args.seed)
    if rep["equiregular_sampled"] and wf.dims[-1] == n:
        # dim g_-i = dim D^i - dim D^(i-1): the grading of the Tanaka symbol
        rep["tanaka_symbol_dims"] = [b - a for a, b in
                                     zip([0] + wf.dims, wf.dims)]
    if cube == 5:
        cr = class_at_point(dist, point, samples=args.samples, seed=args.seed)
        rep["class"] = {
            "m": cr.m,
            "maximal_class": cr.maximal_class,
            "samples": [
                {"momentum": exact_strs(s.momentum), "nu": nu,
                 "dims_trace": list(dims)}
                for s, nu, dims in cr.per_sample
            ],
            "genericity": cr.genericity,
        }
        rep["corank_bound"] = n - 2 - cr.m
    elif cube == 4:
        s, terminal = deprolongation_degree(dist, point)
        rep["deprolongation"] = {"degree": s, "terminal": terminal}
    else:
        rep["note"] = ("cube dimension %d: neither the class pipeline "
                       "(cube 5) nor deprolongation (cube 4) applies"
                       % cube)
    return rep


def cmd_trace(args):
    dist, point, desc = resolve_input(args)
    sample = fiber_sample(dist, point, seed=args.seed)
    traj = integrate_char(dist, sample, args.T, args.steps)
    report = nu_along(dist, traj, sample)
    return {
        "kind": "trace",
        "provenance": _provenance(args, desc, point),
        "convention_note": CONVENTION_NOTE,
        "momentum": exact_strs(sample.momentum),
        "T": args.T,
        "steps": args.steps,
        "times": traj.times,
        "states": traj.states,
        "h_residuals": traj.h_residuals,
        "halted": traj.halted,
        "halt_reason": traj.halt_reason,
        "nu_trace": report.nu_trace,
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
        "certified": basis.certified,
        "weights": basis.weights,
        "basis": _basis_str(basis.basis),
    }


def _basis_str(fields):
    with unlimited_digits():
        return [[c.to_str() for c in f.components] for f in fields]


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1) instead of exiting 2,
    which the exit-code contract keeps for precondition failures."""

    def error(self, message):
        raise ValueError(message)


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return value


def _int_at_least(low):
    """Argument type of integers >= low."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %r"
                                             % (low, text))
        return value
    return integer


def build_parser():
    p = _Parser(
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
        sp.add_argument("--prolong", type=_int_at_least(0), default=0,
                        help="apply this many prolongations")
        sp.add_argument("--input", help="input spec JSON file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="write report JSON here "
                                      "(default stdout)")

    a = sub.add_parser("analyze", help="growth, cube, class or "
                                       "deprolongation pipeline")
    common(a)
    a.add_argument("--samples", type=_int_at_least(1), default=5)
    a.set_defaults(func=cmd_analyze)

    t = sub.add_parser("trace", help="integrate an abnormal extremal and "
                                     "track the class")
    common(t)
    t.add_argument("--T", type=_finite_float, default=0.5)
    t.add_argument("--steps", type=_int_at_least(0), default=500)
    t.set_defaults(func=cmd_trace)

    s = sub.add_parser("symmetries", help="polynomial symmetry basis")
    common(s)
    s.add_argument("--degree", type=int, default=None,
                   help="degree bound (default: stabilize automatically)")
    s.set_defaults(func=cmd_symmetries)
    return p


@functools.cache
def _encoder(level):
    """The C-backed encoder for scalars, and for lists of scalars whose
    items sit at nesting depth level + 1."""
    return json.JSONEncoder(separators=(",\n" + "  " * (level + 1), ": "))


# rows laid out by one C-encoder call on the row-block path; encoding a
# whole block at once holds a second copy of its text in memory
_BLOCK_ROWS = 256
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _is_row_block(obj):
    """Whether obj is a nonempty list of nonempty lists of JSON scalars."""
    return bool(type(obj) is list and obj and set(map(type, obj)) == {list}
                and all(obj) and set(map(type, chain.from_iterable(obj)))
                <= _SCALAR_TYPES)


def _write_row_block(rows, write, level):
    """Write a row block (see _is_row_block) at depth `level`, encoding
    _BLOCK_ROWS rows per C-encoder call.

    The encoder of depth level + 1 already puts every scalar on its own
    line at depth level + 2, so only the row brackets are re-indented.
    The text "],\n<indent>[" marks exactly the row boundaries: a scalar's
    spelling never ends in "]" and an encoded string holds no raw newline."""
    inner = "\n" + "  " * (level + 1)
    deep = inner + "  "
    boundary = inner + "]," + inner + "[" + deep
    enc = _encoder(level + 1)
    sep = "[" + inner + "[" + deep
    for start in range(0, len(rows), _BLOCK_ROWS):
        text = enc.encode(rows[start:start + _BLOCK_ROWS])
        write(sep + text[2:-2].replace("]," + deep + "[", boundary))
        sep = boundary
    write(inner + "]\n" + "  " * level + "]")


def write_json(obj, write, level=0):
    """Write obj in pieces through `write`, exactly as
    json.dumps(obj, indent=2, sort_keys=True) spells it.

    Nonempty dicts (str keys only) and lists that hold a container are laid
    out here; every scalar, empty container and list of scalars is spelled
    by the C encoder, with the indented item separator of its depth, and so
    is a row block (a list of lists of scalars), in chunks of rows."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        enc = _encoder(level)
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
            write(sep + enc.encode(key) + ": ")
            write_json(obj[key], write, level + 1)
            sep = "," + inner
        write("\n" + "  " * level + "}")
    elif _is_row_block(obj):
        _write_row_block(obj, write, level)
    elif isinstance(obj, (list, tuple)) and any(
            isinstance(item, (list, tuple, dict)) for item in obj):
        sep = "[" + inner
        for item in obj:
            write(sep)
            write_json(item, write, level + 1)
            sep = "," + inner
        write("\n" + "  " * level + "]")
    else:
        text = _encoder(level).encode(obj)
        if isinstance(obj, (list, tuple)) and obj:
            text = "[" + inner + text[1:-1] + "\n" + "  " * level + "]"
        write(text)


def emit(report, args):
    """Stream the report, with a final newline, to --out or stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            write_json(report, fh.write)
            fh.write("\n")
    else:
        write_json(report, sys.stdout.write)
        sys.stdout.write("\n")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
        emit(report, args)
    except (PreconditionError, PoleError) as e:
        print("precondition failed: %s" % e, file=sys.stderr)
        return EXIT_PRECONDITION
    except (ExpressionError, ValueError, OverflowError, OSError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
