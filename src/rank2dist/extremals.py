"""Numeric integration of the characteristic field and the class along
trajectories, with the corank bound for regular abnormal extremals.

Floats are confined to the integrator: one generated straight-line
function does a whole RK4 step of X_C on plain lists and evaluates h1..h5
at the new state.  No rank is decided in floats.  The class at a recorded
state is exact: the state's coordinates are read as exact binary rationals
and the momentum is projected exactly onto the annihilator of D^2, so
nu_trace[k] is the exact class at the rational covector derived from
recorded state k, not at the float point itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import PreconditionError
from .kernel import as_q
from .symplectic import (char_field, class_at_sample, hamiltonians,
                         projected_sample)

# integrate_char halts once |h4| + |h5| falls to this floor
_H45_FLOOR = 1e-9


def _emit_values(lines, rfs, arg, out):
    """Append statements that set the variable named `out % j` to the float
    value of rfs[j] at the variables named `arg % i`.

    Each polynomial is summed from 0.0 one term at a time, in `terms` order,
    with one statement per term (one long expression overflows the
    compiler's recursion limit).  The statements hold only float literals,
    variable names and exponents."""
    def poly(name, p):
        lines.append("    %s = 0.0" % name)
        for k, c in p.terms.items():
            lines.append("    %s += %r" % (name, float(c)) + "".join(
                " * %s ** %d" % (arg % i, e) if e > 1 else " * " + arg % i
                for i, e in enumerate(p.ring.decode(k)) if e))

    for j, rf in enumerate(rfs):
        poly(out % j, rf.num)
        # a constant denominator is 1 (RatFunc keeps denominators monic)
        if not rf.den.is_const():
            poly("d", rf.den)
            lines.append("    %s /= d" % (out % j))


def _define(lines, name, **constants):
    """Execute generated source and return its function `name`; the
    constants are its globals."""
    namespace = dict(constants)
    exec("\n".join(lines), namespace)
    return namespace[name]


def _names(fmt, count):
    return ", ".join(fmt % i for i in range(count))


def compile_floats(rfs):
    """Compile rational functions into one straight-line function that maps
    a state list to the list of their float values."""
    lines = ["def values(s):"]
    _emit_values(lines, rfs, "s[%d]", "v%d")
    lines.append("    return [%s]" % _names("v%d", len(rfs)))
    return _define(lines, "values")


def _compile_rk4_step(field, hs, h):
    """Compile one classical RK4 step of size h for the field with these
    components, followed by h1..h5 = hs at the new state, into one
    straight-line function on local variables.

    The function maps a state list s to (next state list,
    max(|h1|, |h2|, |h3|), |h4| + |h5|).  The field is evaluated four times
    inline.  The stage grouping `s + half*k` and
    `s + sixth*(((k1 + 2*k2) + 2*k3) + k4)` keeps the float bits of earlier
    reports.  A stage point y is set only in the coordinates that some
    component of the field reads."""
    dim = len(field)
    read = sorted({i for rf in field for p in (rf.num, rf.den)
                   for key in p.terms
                   for i, e in enumerate(p.ring.decode(key)) if e})
    lines = ["def step(s):", "    %s, = s" % _names("s%d", dim)]
    _emit_values(lines, field, "s%d", "k1_%d")
    for k, scale in ((2, "half"), (3, "half"), (4, "h")):
        lines += ["    y%d = s%d + %s * k%d_%d" % (i, i, scale, k - 1, i)
                  for i in read]
        _emit_values(lines, field, "y%d", "k%d_%%d" % k)
    lines += ["    n%d = s%d + sixth * (((k1_%d + 2 * k2_%d) + 2 * k3_%d) "
              "+ k4_%d)" % ((i,) * 6) for i in range(dim)]
    _emit_values(lines, hs, "n%d", "v%d")
    lines.append("    return [%s], max(abs(v0), abs(v1), abs(v2)), "
                 "abs(v3) + abs(v4)" % _names("n%d", dim))
    return _define(lines, "step", h=h, half=0.5 * h, sixth=h / 6.0)


@dataclass
class Trajectory:
    """Sampled integral curve of the characteristic field on T*M."""

    times: list
    states: list                 # list of float lists, length 2n
    h_residuals: list            # max(|h1|,|h2|,|h3|) per state
    h45_floor: list              # |h4| + |h5| per state
    halted: bool = False
    halt_reason: str = ""


def integrate_char(dist, sample, T, steps, residual_tol=1e-6):
    """Fixed-step RK4 flow of the characteristic field from a covector
    sample.  Residuals of the defining functions h1, h2, h3 are monitored
    without projection; the run halts early if they exceed residual_tol or
    the state approaches the annihilator of D^3 (|h4|+|h5| floor).  It also
    halts, without recording the step, when a step leaves the range of
    floats (a non-finite state, residual or floor, or an OverflowError) or
    divides by a float zero.  A float zero denominator at the start state
    is a PreconditionError.

    The characteristic direction is only a line field; trajectories are
    meaningful as unparametrized curves.
    """
    _, xc = char_field(dist)
    _, hs = hamiltonians(dist)
    s = [float(v) for v in sample.point]
    try:
        values = compile_floats(xc.components + hs)(s)
    except ZeroDivisionError:
        raise PreconditionError("float division by zero at the initial "
                                "covector")
    if not any(values[:len(s)]):
        raise PreconditionError("characteristic field vanishes at the "
                                "initial covector")
    hv = values[len(s):]
    floor0 = abs(hv[3]) + abs(hv[4])
    if floor0 <= _H45_FLOOR:
        raise PreconditionError("initial covector too close to the "
                                "annihilator of D^3")
    times, states, res, floor = [0.0], [s], [max(map(abs, hv[:3]))], [floor0]
    traj = Trajectory(times, states, res, floor)
    if steps == 0 or T == 0:
        return traj
    h = T / steps
    step = _compile_rk4_step(xc.components, hs, h)
    for k in range(steps):
        fault = "float overflow"
        try:
            s, r, f45 = step(s)
            finite = isfinite(r) and isfinite(f45) and all(map(isfinite, s))
        except OverflowError:
            finite = False
        except ZeroDivisionError:
            finite, fault = False, "float division by zero"
        if not finite:
            traj.halted = True
            traj.halt_reason = "%s at step %d" % (fault, k + 1)
            break
        times.append((k + 1) * h)
        states.append(s)
        res.append(r)
        floor.append(f45)
        if r > residual_tol:
            traj.halted = True
            traj.halt_reason = "h-residual %.3e exceeded tolerance" % r
            break
        if f45 <= _H45_FLOOR:
            traj.halted = True
            traj.halt_reason = "reached the annihilator of D^3"
            break
    return traj


@dataclass
class CorankReport:
    """Class trace along a trajectory and the endpoint corank bound."""

    nu_trace: list
    nu_endpoint: int
    corank_bound: int            # n - 2 - nu(endpoint)
    corank_claim: int = None     # 1 exactly when the class is maximal
    note: str = ""


def nu_along(dist, traj, sample):
    """Exact class trace along a trajectory.

    Index 0 is the class at the starting sample.  Every later recorded
    state (about every tenth, plus the last) becomes a rational covector:
    the exact binary value of each float coordinate, with the momentum
    projected orthogonally onto the annihilator of D^2 at that base point
    (`projected_sample`).  nu_trace[k] is the exact class there, not at the
    float point itself.
    """
    n = dist.chart.dim
    stride = max(1, (len(traj.states) - 1) // 10)
    idxs = list(range(0, len(traj.states), stride))
    if idxs[-1] != len(traj.states) - 1:
        idxs.append(len(traj.states) - 1)
    samples = [sample]
    for i in idxs[1:]:
        x = [as_q(float(v)) for v in traj.states[i]]
        samples.append(projected_sample(dist, x[:n], x[n:]))
    return corank_report(n, [class_at_sample(dist, s)[0] for s in samples])


def corank_report(n, nu_trace):
    """Corank bound n-2-nu at the endpoint; corank is claimed to be
    exactly 1 only at maximal class (where the bound meets the universal
    corank >= 1 of abnormal extremal trajectories)."""
    nu_end = nu_trace[-1]
    bound = n - 2 - nu_end
    claim = 1 if nu_end == n - 3 else None
    note = ("class is maximal at the endpoint: corank = 1 (the bound "
            "n-2-nu meets the universal corank >= 1)" if claim else
            "corank bound only; no exact corank claim at non-maximal class")
    return CorankReport(nu_trace=list(nu_trace), nu_endpoint=nu_end,
                        corank_bound=bound, corank_claim=claim, note=note)


def endpoint_errors(dist, sample, T, steps_list):
    """Endpoint integration error per step count, against a reference run
    with 8 times the finest step count.  Exhibits the scheme's
    4th-order convergence (16x drop per step halving)."""
    ref = integrate_char(dist, sample, T, max(steps_list) * 8,
                         residual_tol=float("inf"))
    out = []
    for steps in steps_list:
        traj = integrate_char(dist, sample, T, steps,
                              residual_tol=float("inf"))
        out.append(max(abs(a - b)
                       for a, b in zip(traj.states[-1], ref.states[-1])))
    return out
