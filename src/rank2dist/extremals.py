"""Numeric integration of the characteristic field and the class along
trajectories, with the corank bound for regular abnormal extremals.

Floats are confined to the integrator; no rank is decided in floats.  The
class at a recorded state is exact: the state's coordinates are read as
exact binary rationals and the momentum is projected exactly onto the
annihilator of D^2, so nu_trace[k] is the exact class at the rational
covector derived from recorded state k, not at the float point itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .kernel import as_q
from .symplectic import (char_field, class_at_sample, hamiltonians,
                         projected_sample)

# integrate_char halts once |h4| + |h5| falls to this floor
_H45_FLOOR = 1e-9


def compile_scalar(rf):
    """Compile a rational function into a float-valued callable on states."""
    num = _compile_poly(rf.num)
    if rf.den.is_const():
        c = float(rf.den.const_value())
        if c == 1.0:
            return num
        return lambda s, _n=num, _c=c: _n(s) / _c
    den = _compile_poly(rf.den)
    return lambda s, _n=num, _d=den: _n(s) / _d(s)


def _compile_poly(p):
    ring = p.ring
    terms = []
    for k, c in p.terms.items():
        powers = tuple((i, e) for i, e in enumerate(ring.decode(k)) if e)
        terms.append((float(c), powers))
    terms = tuple(terms)

    def ev(state, _terms=terms):
        total = 0.0
        for c, powers in _terms:
            t = c
            for i, e in powers:
                t *= state[i] ** e
            total += t
        return total

    return ev


def compile_field(vf):
    """Compile a vector field into state -> numpy array of component values."""
    comps = [compile_scalar(c) for c in vf.components]

    def ev(state, _comps=comps):
        # Python floats index and multiply faster than numpy scalars
        s = state.tolist()
        return np.array([c(s) for c in _comps])

    return ev


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
    the state approaches the annihilator of D^3 (|h4|+|h5| floor).

    The characteristic direction is only a line field; trajectories are
    meaningful as unparametrized curves.
    """
    _, xc = char_field(dist)
    rhs = compile_field(xc)
    _, hs = hamiltonians(dist)
    h_funcs = [compile_scalar(h) for h in hs]
    state = np.array([float(v) for v in sample.point])
    if not np.any(rhs(state)):
        raise PreconditionError("characteristic field vanishes at the "
                                "initial covector")
    s = state.tolist()
    floor0 = abs(h_funcs[3](s)) + abs(h_funcs[4](s))
    if floor0 <= _H45_FLOOR:
        raise PreconditionError("initial covector too close to the "
                                "annihilator of D^3")
    times = [0.0]
    states = [s]
    res = [max(abs(h_funcs[i](s)) for i in range(3))]
    floor = [floor0]
    traj = Trajectory(times, states, res, floor)
    if steps == 0 or T == 0:
        return traj
    h = T / steps
    for k in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s = state.tolist()
        r = max(abs(h_funcs[i](s)) for i in range(3))
        f45 = abs(h_funcs[3](s)) + abs(h_funcs[4](s))
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
    ref_end = np.array(ref.states[-1])
    out = []
    for steps in steps_list:
        traj = integrate_char(dist, sample, T, steps,
                              residual_tol=float("inf"))
        out.append(float(np.max(np.abs(np.array(traj.states[-1]) - ref_end))))
    return out
