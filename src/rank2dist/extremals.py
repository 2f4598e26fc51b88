"""Numeric integration of the characteristic field and the class along
trajectories, with the corank bound for regular abnormal extremals.

Floats are confined to this module: trajectories are anchored by exact
arithmetic at t = 0, and every later rank decision is a float SVD with a
relative threshold plus a mandatory gap margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .symplectic import _class_iteration, char_field, hamiltonians

RANK_RTOL = 1e-8        # singular values below RANK_RTOL * s_max are zero
RANK_GAP = 10.0         # decisions within this factor of the cut are marginal


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
        return np.array([c(state) for c in _comps])

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


def integrate_char(dist, sample, T, steps, residual_tol=1e-6,
                   h45_floor=1e-9):
    """Fixed-step RK4 flow of the characteristic field from a covector
    sample.  Residuals of the defining functions h1, h2, h3 are monitored
    without projection; the run halts early if they exceed residual_tol or
    the state approaches the annihilator of D^3 (|h4|+|h5| floor).

    The characteristic direction is only a line field; trajectories are
    meaningful as unparametrized curves.
    """
    ct, xc = char_field(dist)
    rhs = compile_field(xc)
    _, hs = hamiltonians(dist)
    h_funcs = [compile_scalar(h) for h in hs]
    state = np.array([float(v) for v in sample.point])
    if not np.any(rhs(state)):
        raise PreconditionError("characteristic field vanishes at the "
                                "initial covector")
    floor0 = abs(h_funcs[3](state)) + abs(h_funcs[4](state))
    if floor0 <= h45_floor:
        raise PreconditionError("initial covector too close to the "
                                "annihilator of D^3")
    times = [0.0]
    states = [state.tolist()]
    res = [max(abs(h_funcs[i](state)) for i in range(3))]
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
        r = max(abs(h_funcs[i](state)) for i in range(3))
        f45 = abs(h_funcs[3](state)) + abs(h_funcs[4](state))
        times.append((k + 1) * h)
        states.append(state.tolist())
        res.append(r)
        floor.append(f45)
        if r > residual_tol:
            traj.halted = True
            traj.halt_reason = "h-residual %.3e exceeded tolerance" % r
            break
        if f45 <= h45_floor:
            traj.halted = True
            traj.halt_reason = "reached the annihilator of D^3"
            break
    return traj


def _float_rank(rows, rtol=RANK_RTOL, gap=RANK_GAP):
    """(rank, marginal): SVD rank with relative cut and a gap-margin flag."""
    a = np.array(rows, dtype=float)
    if a.size == 0:
        return 0, False
    # normalize rows: generator fields have wildly different scales, and
    # the relative cut should not see that as near-degeneracy
    norms = np.linalg.norm(a, axis=1)
    norms[norms == 0.0] = 1.0
    a = a / norms[:, None]
    sv = np.linalg.svd(a, compute_uv=False)
    smax = sv[0] if len(sv) else 0.0
    if smax == 0.0:
        return 0, False
    cut = rtol * smax
    rank = int(np.sum(sv > cut))
    marginal = bool(np.any((sv > cut / gap) & (sv < cut * gap)))
    return rank, marginal


@dataclass
class CorankReport:
    """Class trace along a trajectory and the endpoint corank bound."""

    nu_trace: list
    marginal: list               # per-state marginal-rank flags
    nu_endpoint: int
    corank_bound: int            # n - 2 - nu(endpoint)
    corank_claim: int = None     # 1 exactly when the class is maximal
    note: str = ""


def nu_along(dist, traj, sample, stride=None):
    """Class trace along a trajectory via float ranks of the symbolic
    bracket tower anchored at the exact initial covector.

    The tower (lift generators plus iterated characteristic brackets,
    including one stabilization witness) is computed once exactly at the
    initial sample; along the flow only evaluations and SVD ranks are
    floating point.  At t = 0 the trace reports the exact class; the float
    class there must agree with it unless its rank decision is marginal.
    """
    n = dist.chart.dim
    nu0, dims0, _, (gens, tower) = _class_iteration(dist, sample,
                                                    keep_tower=True)
    gen_evs = [compile_field(g) for g in gens]
    tower_evs = [compile_field(b) for b in tower]
    if stride is None:
        stride = max(1, (len(traj.states) - 1) // 10)
    idxs = list(range(0, len(traj.states), stride))
    if idxs[-1] != len(traj.states) - 1:
        idxs.append(len(traj.states) - 1)
    nu_trace = []
    marg_trace = []
    for i in idxs:
        state = np.array(traj.states[i])
        rows = [ev(state) for ev in gen_evs]
        rank, marg = _float_rank(rows)
        nu = None
        for j, ev in enumerate(tower_evs):
            rows.append(ev(state))
            r2, m2 = _float_rank(rows)
            marg = marg or m2
            if r2 == rank:
                nu = j
                break
            rank = r2
        if nu is None:
            # tower exhausted while still climbing; report the cap reached
            nu = len(tower_evs)
            marg = True
        nu_trace.append(nu)
        marg_trace.append(marg)
    if nu_trace[0] != nu0 and not marg_trace[0]:
        raise PreconditionError("float class %d at t=0 disagrees with the "
                                "exact class %d" % (nu_trace[0], nu0))
    # the anchor: at t = 0 the exact class replaces the float decision
    nu_trace[0], marg_trace[0] = nu0, False
    return corank_report(n, nu_trace, marg_trace)


def corank_report(n, nu_trace, marg_trace):
    """Corank bound n-2-nu at the endpoint; corank is claimed to be
    exactly 1 only at maximal class (where the bound meets the universal
    corank >= 1 of abnormal extremal trajectories)."""
    nu_end = nu_trace[-1]
    bound = n - 2 - nu_end
    claim = 1 if nu_end == n - 3 else None
    note = ("class is maximal at the endpoint: corank = 1 (the bound "
            "n-2-nu meets the universal corank >= 1)" if claim else
            "corank bound only; no exact corank claim at non-maximal class")
    if any(marg_trace):
        note += "; WARNING: numerically marginal rank decisions present"
    return CorankReport(nu_trace=list(nu_trace), marginal=list(marg_trace),
                        nu_endpoint=nu_end, corank_bound=bound,
                        corank_claim=claim, note=note)


def endpoint_errors(dist, sample, T, steps_list, ref_mult=8):
    """Endpoint integration error per step count, against a reference run
    with ref_mult times the finest step count.  Exhibits the scheme's
    4th-order convergence (16x drop per step halving)."""
    ref = integrate_char(dist, sample, T, max(steps_list) * ref_mult,
                         residual_tol=float("inf"))
    ref_end = np.array(ref.states[-1])
    out = []
    for steps in steps_list:
        traj = integrate_char(dist, sample, T, steps,
                              residual_tol=float("inf"))
        out.append(float(np.max(np.abs(np.array(traj.states[-1]) - ref_end))))
    return out
