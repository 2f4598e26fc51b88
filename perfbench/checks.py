"""Output checkers of the rank2dist benchmark.

Each checker takes a report (the parsed JSON a `rank2dist.cli.main` call
wrote) and the request's `Op`, and raises `CheckFailure` when the report is
wrong.  The references are independent of the package under test: sympy
recomputes growth vectors, symmetry conditions and Hamiltonians from the
input frame, scipy integrates the characteristic field, and the remaining
checks are properties the method must have (Witt's formula, class bounds,
deprolongation degree).  The one call into the package is the exact
`class_at_sample` at a trace's starting covector, which anchors the float
class trace to the exact path it claims to reproduce.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction

import jsonschema
import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

# the integrator's own halt tolerance on max(|h1|, |h2|, |h3|)
HALT_TOL = 1e-6
# endpoint agreement with DOP853 (relative to max(1, |state|))
ENDPOINT_TOL = 1e-6


class CheckFailure(AssertionError):
    """A report disagrees with an independent reference."""


def require(cond, msg, *args):
    if not cond:
        raise CheckFailure(msg % args if args else msg)


# ---------------------------------------------------------------------------
# input frames as sympy objects
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _frame(spec_json):
    spec = json.loads(spec_json)
    xs = sp.symbols(spec["coordinates"])
    env = {str(x): x for x in xs}
    frame = [sp.Matrix([sp.sympify(c.replace("^", "**"), locals=env)
                        for c in comps]) for comps in spec["fields"]]
    point = [sp.Rational(v) for v in spec.get("point", ["0"] * len(xs))]
    return list(xs), frame, point


def frame_of(spec, prolong=0):
    """(coordinates, [X1, X2], base point) of a spec, prolonged `prolong`
    times by the Cartan prolongation X1 + u X2, d/du at u = 0."""
    xs, frame, point = _frame(json.dumps(spec, sort_keys=True))
    xs, frame, point = list(xs), list(frame), list(point)
    for i in range(prolong):
        u = sp.Symbol("_u%d" % i)
        x1, x2 = frame
        xs = xs + [u]
        e = sp.zeros(len(xs), 1)
        e[-1] = 1
        frame = [(x1 + u * x2).col_join(sp.zeros(1, 1)), e]
        point = point + [sp.Integer(0)]
    return xs, frame, point


def bracket(xs, a, b):
    """[A, B]^i = sum_j A^j dB^i/dx_j - B^j dA^i/dx_j, expanded."""
    out = []
    for i in range(len(xs)):
        v = 0
        for j, x in enumerate(xs):
            if a[j] != 0:
                v += a[j] * sp.diff(b[i], x)
            if b[j] != 0:
                v -= b[j] * sp.diff(a[i], x)
        out.append(sp.expand(v))
    return sp.Matrix(out)


def _value_at(field, sub):
    """Exact rational values of a polynomial field at a point."""
    out = []
    for c in field:
        v = c.xreplace(sub)
        out.append(Fraction(int(v.p), int(v.q)))
    return out


def sympy_weak_flag(xs, frame, point):
    """dims of D^1(q) < D^2(q) < ... from left-normed brackets, as the
    growth vector (stops at full dimension or stabilization)."""
    n = len(xs)
    sub = dict(zip(xs, point))
    values = [dict(enumerate(_value_at(f, sub))) for f in frame]
    level = list(frame)
    dims = [_fraction_rank(values, n)]
    while dims[-1] < n:
        new = []
        for g in frame:
            for w in level:
                b = bracket(xs, g, w)
                if any(c != 0 for c in b) and b not in new and -b not in new:
                    new.append(b)
        values += [dict(enumerate(_value_at(b, sub))) for b in new]
        level = new
        d = _fraction_rank(values, n)
        if d == dims[-1]:
            break
        dims.append(d)
    return dims


def witt_growth(step):
    """Cumulative dimensions of the free 2-generator nilpotent Lie algebra:
    Witt's formula dim g_k = (1/k) sum_{d | k} mu(d) 2^(k/d)."""
    dims, total = [], 0
    for k in range(1, step + 1):
        w = sum(_mobius(d) * 2 ** (k // d) for d in range(1, k + 1)
                if k % d == 0) // k
        total += w
        dims.append(total)
    return dims


def _mobius(d):
    out, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


# ---------------------------------------------------------------------------
# report-v1 schema
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _validator(schema_path):
    with open(schema_path) as fh:
        return jsonschema.Draft7Validator(json.load(fh))


_SERIES = {"times": 0, "h_residuals": 0, "states": 1}   # nesting depth


def _numbers(values):
    return all(type(v) in (int, float) for v in values)


def check_schema(report, schema_path):
    """Validate against report-v1.  The long per-step series of a trace
    report are checked here item by item (numbers, or lists of numbers) and
    only their first two items go through jsonschema, which would otherwise
    take seconds per report."""
    report = dict(report)
    for key, depth in _SERIES.items():
        series = report.get(key)
        if not isinstance(series, list):
            continue
        ok = _numbers(series) if depth == 0 else all(
            isinstance(row, list) and _numbers(row) for row in series)
        require(ok, "report-v1: %s holds a non-number", key)
        report[key] = series[:2]
    errors = sorted(_validator(schema_path).iter_errors(report),
                    key=lambda e: list(e.path))
    require(not errors, "report-v1: %s", errors[0].message if errors else "")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def check_analyze(report, op):
    exp = op.expect
    n = report["dimension"]
    gv = report["growth_vector"]
    if "free_step" in exp:
        witt = witt_growth(exp["free_step"])
        require(gv == witt, "growth %s is not Witt's %s", gv, witt)
    else:
        xs, frame, point = frame_of(op.spec, exp.get("prolong", 0))
        require(len(xs) == n, "dimension %d, input has %d", n, len(xs))
        ref = sympy_weak_flag(xs, frame, point)
        require(gv == ref, "growth %s, sympy weak flag gives %s", gv, ref)
    require(report["cube_dim"] == gv[min(2, len(gv) - 1)],
            "cube_dim %s disagrees with growth %s", report["cube_dim"], gv)
    if exp.get("maximal"):
        cls = report.get("class")
        require(cls is not None, "no class section at cube 5")
        m = cls["m"]
        require(m == n - 3 and cls["maximal_class"] is True,
                "class m=%s maximal=%s, expected m=n-3=%d", m,
                cls["maximal_class"], n - 3)
        require(report.get("corank_bound") == 1,
                "corank_bound %s != 1", report.get("corank_bound"))
        samples = cls["samples"]
        require(len(samples) == op.samples, "%d class samples, asked %d",
                len(samples), op.samples)
        require(m == max(s["nu"] for s in samples), "m is not the max nu")
        for s in samples:
            tr = s["dims_trace"]
            require(tr[0] == n - 1, "dims trace %s does not start at n-1", tr)
            require(all(b - a in (0, 1) for a, b in zip(tr, tr[1:])),
                    "dims trace %s does not rise by 0 or 1", tr)
            require(max(tr) <= 2 * n - 4, "dims trace %s exceeds 2n-4", tr)
            require(s["nu"] <= n - 3, "sample class %s > n-3", s["nu"])
    if "prolong" in exp:
        dp = report.get("deprolongation")
        require(dp == {"degree": exp["prolong"], "terminal": "cube5"},
                "deprolongation %s after %d prolongations of a cube-5 germ",
                dp, exp["prolong"])
    if "jet" in exp:
        k = exp["jet"]
        dp = report.get("deprolongation")
        require(dp == {"degree": k - 2, "terminal": "engel"},
                "cartan jet k=%d: deprolongation %s, expected (k-2, engel)",
                k, dp)
        require(report["goursat"] is True, "cartan jet k=%d not Goursat", k)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def annihilator(xs, frame):
    """Rational-function basis of the covectors killing the frame."""
    m = sp.Matrix.hstack(*frame).T
    return [sp.Matrix([sp.cancel(c) for c in v]) for v in m.nullspace()]


def _coeff_rows(fields, xs):
    rows, keys = [], {}
    for comps in fields:
        row = {}
        for i, c in enumerate(comps):
            for mono, coef in sp.Poly(c, *xs).terms():
                idx = keys.setdefault((i, mono), len(keys))
                row[idx] = Fraction(int(coef.p), int(coef.q))
        rows.append(row)
    return rows, len(keys)


def _fraction_rank(rows, ncols):
    dense = [[r.get(j, Fraction(0)) for j in range(ncols)] for r in rows]
    rank, col = 0, 0
    while rank < len(dense) and col < ncols:
        piv = next((i for i in range(rank, len(dense)) if dense[i][col]),
                   None)
        if piv is None:
            col += 1
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        p = dense[rank]
        for i in range(rank + 1, len(dense)):
            f = dense[i][col] / p[col]
            if f:
                dense[i] = [a - f * b for a, b in zip(dense[i], p)]
        rank += 1
        col += 1
    return rank


def check_symmetries(report, op):
    xs, frame, _ = frame_of(op.spec)
    n = len(xs)
    env = {str(x): x for x in xs}
    fields = [sp.Matrix([sp.sympify(c.replace("^", "**"), locals=env)
                         for c in comps]) for comps in report["basis"]]
    require(len(fields) == report["dim"], "dim %s but %d basis fields",
            report["dim"], len(fields))
    if op.degree is not None:
        require(report["degree"] == op.degree, "degree %s, asked %s",
                report["degree"], op.degree)
    etas = annihilator(xs, frame)
    for y in fields:
        for x in frame:
            br = bracket(xs, y, x)
            for eta in etas:
                v = sp.cancel(sum(e * b for e, b in zip(eta, br)))
                require(v == 0, "<eta, [Y, X]> = %s != 0 for a returned "
                        "symmetry", v)
    rows, ncols = _coeff_rows(fields, xs)
    require(_fraction_rank(rows, ncols) == len(fields),
            "returned symmetry fields are linearly dependent")
    flat = op.expect.get("flat_monge")
    if flat is not None:
        if op.degree is None:
            want = {5: 14, 6: 11}[flat]
            require(report["dim"] == want and report["stabilized"],
                    "flat Monge n=%d: stabilized dim %s, expected %d",
                    flat, report["dim"], want)
        else:
            require(report["dim"] <= 2 * n - 1,
                    "flat Monge n=%d degree %d: dim %s > 2n-1", flat,
                    op.degree, report["dim"])


def check_degree_monotone(dims_by_degree):
    """dims of one input at growing degree bounds never decrease."""
    degs = sorted(dims_by_degree)
    for a, b in zip(degs, degs[1:]):
        require(dims_by_degree[a] <= dims_by_degree[b],
                "symmetry dim %s at degree %d > %s at degree %d",
                dims_by_degree[a], a, dims_by_degree[b], b)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _char_system(spec_json):
    """Lambdified h1..h5 and X_C = h5 ham(h1) - h4 ham(h2) on T*M."""
    xs, frame, _ = frame_of(json.loads(spec_json))
    n = len(xs)
    ps = sp.symbols("_p0:%d" % n)
    x1, x2 = frame
    x3 = bracket(xs, x1, x2)
    fields = [x1, x2, x3, bracket(xs, x1, x3), bracket(xs, x2, x3)]
    hs = [sp.expand(sum(p * c for p, c in zip(ps, f))) for f in fields]

    def ham(h):
        return [sp.diff(h, p) for p in ps] + [-sp.diff(h, x) for x in xs]

    xc = [sp.expand(hs[4] * a - hs[3] * b)
          for a, b in zip(ham(hs[0]), ham(hs[1]))]
    state = list(xs) + list(ps)
    f_xc = sp.lambdify([state], xc, "numpy")
    f_h = sp.lambdify([state], hs[:3], "numpy")
    return n, hs, state, f_xc, f_h


def check_trace(report, op, exact_class):
    """`exact_class(momentum)` gives the exact class at the starting
    covector (Fractions in, int out)."""
    spec_json = json.dumps(op.spec, sort_keys=True)
    n, hs, state_syms, f_xc, f_h = _char_system(spec_json)
    base = [sp.Rational(v) for v in report["provenance"]["base_point"]]
    mom = [sp.Rational(v) for v in report["momentum"]]
    lam = dict(zip(state_syms, base + mom))
    h0 = [h.subs(lam) for h in hs]
    require(h0[:3] == [0, 0, 0] and (h0[3] != 0 or h0[4] != 0),
            "start covector is not in the annihilator of D^2 minus that of "
            "D^3: h = %s", h0)
    states = np.array(report["states"], dtype=float)
    times = report["times"]
    require(not report["halted"], "integration halted: %s",
            report["halt_reason"])
    require(len(states) == report["steps"] + 1 == len(times),
            "%d states for %d steps", len(states), report["steps"])
    require(abs(times[-1] - report["T"]) <= 1e-9 * max(1.0, report["T"]),
            "last time %s != T %s", times[-1], report["T"])
    x0 = np.array([float(v) for v in base + mom])
    require(np.allclose(states[0], x0, rtol=0, atol=1e-12),
            "first state is not the starting covector")
    # h1, h2, h3 at every reported state
    hv = np.abs(np.array(f_h(states.T), dtype=float)).max(axis=0)
    res = np.array(report["h_residuals"], dtype=float)
    require(np.all(hv < HALT_TOL), "recomputed h residual %.3e >= halt "
            "tolerance", float(hv.max()))
    require(np.allclose(hv, res, rtol=1e-6, atol=1e-12),
            "h_residuals disagree with recomputed max|h1..h3| (%.3e)",
            float(np.abs(hv - res).max()))
    # endpoint against an independent high-order integrator
    sol = solve_ivp(lambda t, y: np.array(f_xc(y), dtype=float),
                    (0.0, times[-1]), x0, method="DOP853",
                    rtol=1e-11, atol=1e-12)
    require(sol.success, "DOP853 reference failed: %s", sol.message)
    end = sol.y[:, -1]
    err = np.abs(end - states[-1]) / np.maximum(1.0, np.abs(end))
    require(float(err.max()) <= ENDPOINT_TOL,
            "endpoint differs from DOP853 by %.3e", float(err.max()))
    nu = report["nu_trace"]
    require(all(0 <= v <= n - 3 for v in nu), "class trace %s outside "
            "[0, n-3]", nu)
    nu0 = exact_class([Fraction(str(v)) for v in report["momentum"]])
    require(nu[0] == nu0, "nu_trace[0] = %d but the exact class at the "
            "starting covector is %d", nu[0], nu0)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def schema_path(root):
    return os.path.join(root, "src", "rank2dist", "schema", "report-v1.json")
