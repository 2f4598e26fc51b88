"""Cotangent-bundle machinery for rank-2 distributions: Hamiltonian lifts,
Poisson calculus, the characteristic field on the annihilator of the square,
the covector-level flag with its class invariant, and the pointwise table of
skew complements and vertical parts.

Everything runs on the cone (all of T*M rather than its projectivization):
the fiber-scaling Euler direction adds exactly 1 to every flag dimension,
and the class itself is offset-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import PreconditionError, SamplingFailure
from .kernel import (PoleError, Q, QEchelon, RatFunc, as_q,
                     clear_denominators, q_nullspace, rf_nullspace,
                     rf_solve_minimal)
from .geometry import Chart, VectorField, lie_bracket
from .distribution import cube_dim

CONVENTION_NOTE = ("cone convention: computed on the full cotangent bundle; "
                   "the Euler (fiber-scaling) direction adds +1 to every "
                   "flag dimension; the class itself carries no offset")


class CotangentChart:
    """Chart on T*M: base coordinates followed by conjugate momenta p_<x>."""

    _cache = {}

    def __new__(cls, base):
        got = cls._cache.get(base.coords)
        if got is not None:
            return got
        self = object.__new__(cls)
        momenta = tuple("p_" + c for c in base.coords)
        if set(momenta) & set(base.coords):
            raise ValueError("momentum names collide with base coordinates")
        self.base = base
        self.momenta = momenta
        self.chart = Chart(tuple(base.coords) + momenta)
        self.n = base.dim
        cls._cache[base.coords] = self
        return self

    @property
    def ring(self):
        return self.chart.ring

    def lift_function(self, f):
        """Pull a base function back to the cotangent chart."""
        return f.embed(self.ring)

    def hamiltonian_of(self, x):
        """h_X = sum_i p_i X^i(x): exact, linear in the momenta."""
        if x.chart != self.base:
            raise ValueError("field is not on the base chart")
        out = RatFunc.from_const(self.ring, 0)
        for pm, comp in zip(self.momenta, x.components):
            if not comp.is_zero():
                out = out + RatFunc.variable(self.ring, pm) * \
                    self.lift_function(comp)
        return out

    def poisson(self, f, g):
        """{f, g} = sum_i (df/dp_i dg/dx_i - df/dx_i dg/dp_i), so that
        {p_i, x_j} = delta_ij and {h_X, h_Y} = h_[X,Y]."""
        if f.ring is not self.ring or g.ring is not self.ring:
            raise ValueError("hamiltonians on a different cotangent chart")
        out = RatFunc.from_const(self.ring, 0)
        for xi, pi in zip(self.base.coords, self.momenta):
            fp, gx = f.diff(pi), g.diff(xi)
            if not (fp.is_zero() or gx.is_zero()):
                out = out + fp * gx
            fx, gp = f.diff(xi), g.diff(pi)
            if not (fx.is_zero() or gp.is_zero()):
                out = out - fx * gp
        return out

    def ham_field(self, h):
        """Hamiltonian vector field of h: applying it to g gives {h, g}."""
        comps = [h.diff(pi) for pi in self.momenta] + \
                [-h.diff(xi) for xi in self.base.coords]
        return VectorField(self.chart, comps)

    def euler_value(self, point):
        """The fiber-scaling field (0, p) evaluated at a cotangent point."""
        return [Q(0)] * self.n + [as_q(v) for v in point[self.n:]]

    def sigma_row(self, vec):
        """Row r with r . w = sigma(vec, w), where
        sigma((vx,vp),(wx,wp)) = sum vp_i wx_i - vx_i wp_i."""
        n = self.n
        return list(vec[n:]) + [-v for v in vec[:n]]

    def taut_row(self, point):
        """Row of the tautological pairing v -> sum p_i v_{x,i} at a point."""
        return [as_q(v) for v in point[self.n:]] + [Q(0)] * self.n


def square_fields(dist):
    """X1, X2, X3=[X1,X2], X4=[X1,X3], X5=[X2,X3] on the base chart."""
    if dist.rank != 2:
        raise ValueError("need a rank-2 frame")
    x1, x2 = dist.frame
    x3 = lie_bracket(x1, x2)
    return x1, x2, x3, lie_bracket(x1, x3), lie_bracket(x2, x3)


def hamiltonians(dist):
    """The five lifted Hamiltonians h1..h5 of the bracket tower."""
    ct = CotangentChart(dist.chart)
    return ct, [ct.hamiltonian_of(x) for x in square_fields(dist)]


def char_field(dist):
    """Characteristic field X_C = h5 * ham(h1) - h4 * ham(h2).

    Tangent to {h1 = h2 = h3 = 0} by the exact identities
    X_C h1 = h4 h3, X_C h2 = h5 h3, X_C h3 = 0; spans the kernel of the
    restricted symplectic form together with the Euler direction, and is
    nonzero wherever (h4, h5) != (0, 0).
    """
    ct, hs = hamiltonians(dist)
    h1, h2, h3, h4, h5 = hs
    xc = ct.ham_field(h1).scaled(h5) - ct.ham_field(h2).scaled(h4)
    return ct, xc


@dataclass
class CovectorSample:
    """A covector annihilating D^2 but not D^3: h1 = h2 = h3 = 0 and
    (h4, h5) != (0, 0) exactly."""

    base_point: list
    momentum: list
    h_values: list          # [h1..h5] at the sample

    @property
    def point(self):
        return list(self.base_point) + list(self.momentum)

    def scaled(self, c):
        c = as_q(c)
        if not c:
            raise ValueError("zero scaling of a covector sample")
        return CovectorSample(list(self.base_point),
                              [c * v for v in self.momentum],
                              [c * v for v in self.h_values])


def fiber_sample(dist, q, seed=0, rng=None, budget=200):
    """Exact rational covector over q annihilating D^2 but not D^3.

    Draws seeded random rational combinations of an exact nullspace basis
    of the value matrix of (X1, X2, [X1, X2]) at q until (h4, h5) != (0,0).
    """
    cube = cube_dim(dist, q)
    if cube != 5:
        raise PreconditionError("dim D^3 = %d at the base point (need 5)"
                                % cube)
    n = dist.chart.dim
    x1, x2, x3, x4, x5 = square_fields(dist)
    rows = [f.at(q) for f in (x1, x2, x3)]
    rank, basis = q_nullspace(rows, n)
    if rank != 3 or len(basis) != n - 3:
        raise PreconditionError("annihilator of D^2 at q has dimension %d"
                                % len(basis))
    v4, v5 = x4.at(q), x5.at(q)
    if rng is None:
        rng = random.Random(seed)
    for _ in range(budget):
        coeffs = [Q(rng.randint(-9, 9)) for _ in basis]
        p = [sum((c * b[i] for c, b in zip(coeffs, basis)), Q(0))
             for i in range(n)]
        if not any(p):
            continue
        h4 = sum((pi * vi for pi, vi in zip(p, v4)), Q(0))
        h5 = sum((pi * vi for pi, vi in zip(p, v5)), Q(0))
        if h4 or h5:
            return CovectorSample(list(map(as_q, q)), p,
                                  [Q(0), Q(0), Q(0), h4, h5])
    raise SamplingFailure("no covector off the annihilator of D^3 found "
                          "in %d draws" % budget)


def annihilator_basis(dist):
    """Rational-function basis (n-3 covectors) of the annihilator of D^2,
    denominators cleared."""
    n = dist.chart.dim
    x1, x2, x3, _, _ = square_fields(dist)
    rows = [list(f.components) for f in (x1, x2, x3)]
    rank, basis = rf_nullspace(rows, n)
    if rank != 3:
        raise PreconditionError("frame square is degenerate over the "
                                "function field")
    return basis


def cone_J_generators(dist, sample):
    """n-1 generators of the lifted distribution at a covector sample:
    n-3 vertical annihilator fields plus two corrected Hamiltonian lifts
    W_a = ham(h_a) + vertical correction, each tangent to {h1=h2=h3=0}.
    """
    ct, hs = hamiltonians(dist)
    h1, h2, h3, h4, h5 = hs
    n = ct.n
    x1, x2, x3, _, _ = square_fields(dist)
    lam = sample.point
    gens = []
    zero = RatFunc.from_const(ct.ring, 0)
    for eta in annihilator_basis(dist):
        comps = [zero] * n + [ct.lift_function(e) for e in eta]
        vf = VectorField(ct.chart, comps)
        try:
            vf.at(lam)
        except PoleError:
            raise SamplingFailure("annihilator basis has a pole at the "
                                  "sample; resample the base point")
        gens.append(vf)
    # vertical corrections: <c, X1> = 0, <c, X2> = 0, <c, X3> = -(ham(h_a) h3)
    rows = [[ct.lift_function(c) for c in x.components] for x in (x1, x2, x3)]
    for ha, rhs3 in ((h1, -h4), (h2, -h5)):
        c = rf_solve_minimal(rows, [zero, zero, rhs3], n)
        if c is None:
            raise PreconditionError("no vertical correction exists "
                                    "(degenerate square)")
        w = ct.ham_field(ha) + VectorField(ct.chart, [zero] * n + c)
        gens.append(w)
    # pointwise independence at the sample
    ech = QEchelon(2 * n)
    for g in gens:
        if not ech.add(g.at(lam)):
            raise SamplingFailure("lifted generators degenerate at the "
                                  "sample; resample")
    return gens


def _cleared(vf):
    return VectorField(vf.chart, clear_denominators(list(vf.components)))


def _class_iteration(dist, sample, depth_cap=None, keep_tower=False):
    """Shared flag iteration: returns (nu, dims, level_values, fields).

    level_values[i] is a pointwise-independent list of tangent vectors at
    the sample spanning the i-th osculating space (cone dimensions); dims
    includes the repeated stabilized rank as its last entry.

    With keep_tower=True, `fields` is (initial_generators, tower): the
    pointwise-independent generators at the sample plus the chain of
    bracket fields added per round, ending with one bracket that did not
    increase the rank (for stabilization detection at other points).
    """
    n = dist.chart.dim
    if depth_cap is None:
        depth_cap = n
    ct, xc = char_field(dist)
    lam = sample.point
    if not any(xc.at(lam)):
        raise PreconditionError("characteristic field vanishes at the sample")
    gens = [_cleared(g) for g in cone_J_generators(dist, sample)]
    for g in gens:
        if not any(g.at(lam)):
            raise SamplingFailure("denominator clearing killed a generator "
                                  "at the sample; resample")
    ech = QEchelon(2 * n)
    kept = []
    for g in gens:
        v = g.at(lam)
        if ech.add(v):
            kept.append(g)
    dims = [ech.rank]
    levels = [[g.at(lam) for g in kept]]
    frontier = list(kept)
    tower = []
    stale = []
    nu = None
    for i in range(1, depth_cap + 1):
        new = []
        round_stale = []
        for g in frontier:
            b = lie_bracket(xc, g)
            if b.is_zero():
                continue
            b = _cleared(b)
            if ech.add(b.at(lam)):
                new.append(b)
            else:
                round_stale.append(b)
        inc = len(new)
        assert inc <= 1, "flag rank jumped by %d in one round" % inc
        dims.append(ech.rank)
        levels.append(levels[-1] + [g.at(lam) for g in new])
        if not new:
            nu = i - 1
            stale = round_stale
            break
        tower.extend(new)
        frontier = new
    if nu is None:
        raise PreconditionError("flag failed to stabilize within depth "
                                "cap %d" % depth_cap)
    assert nu <= n - 3, "class %d exceeds the bound n-3 = %d" % (nu, n - 3)
    assert dims[0] == n - 1 and dims[-1] <= 2 * n - 4
    if keep_tower:
        return nu, tuple(dims), levels, (kept, tower + stale[:1])
    return nu, tuple(dims), levels, kept


def class_at_sample(dist, sample, depth_cap=None):
    """(class nu, cone dims trace) at one covector sample.

    The trace starts at n-1, increases by at most 1 per round, and ends
    with the stabilized rank repeated once.
    """
    nu, dims, _, _ = _class_iteration(dist, sample, depth_cap)
    return nu, dims


@dataclass
class ClassReport:
    """Fiberwise class data at a base point, sampled over the annihilator."""

    base_point: list
    n: int
    per_sample: list            # list of (CovectorSample, nu, dims)
    m: int
    maximal_class: bool
    note: str = CONVENTION_NOTE
    genericity: str = ("m is a maximum over seeded random fiber samples; "
                       "valid on a nonempty Zariski-open set of covectors, "
                       "not certified pointwise")


def class_at_point(dist, q, samples=5, seed=0, depth_cap=None):
    """m(q) = max class over seeded fiber samples; maximal iff m = n-3."""
    n = dist.chart.dim
    rng = random.Random(seed)
    per = []
    attempts = 0
    while len(per) < samples:
        attempts += 1
        if attempts > 10 * samples + 10:
            raise SamplingFailure("could not gather %d usable fiber samples"
                                  % samples)
        try:
            s = fiber_sample(dist, q, rng=rng)
            nu, dims = class_at_sample(dist, s, depth_cap)
        except SamplingFailure:
            continue
        per.append((s, nu, dims))
    m = max(nu for _, nu, _ in per)
    return ClassReport(base_point=list(q), n=n, per_sample=per, m=m,
                       maximal_class=(m == n - 3))


# ---------------------------------------------------------------------------
# pointwise full flag: skew complements and vertical parts
# ---------------------------------------------------------------------------

@dataclass
class FullFlagTable:
    """Exact pointwise subspace table at a covector sample (cone dims)."""

    nu: int
    dim_H: int
    dim_ker_sigma: int
    dims_upper: list            # dim of osculating space, i = 0..nu
    dims_lower: list            # dim of skew complement, i = 0..nu
    dims_vertical: list         # dim of vertical part of skew complement
    ker_contains_char: bool
    ker_contains_euler: bool
    lower1_is_vertical_plus_char: bool
    bases: dict = field(default_factory=dict)


def _nullspace_basis(rows, ncols):
    _, basis = q_nullspace(rows, ncols)
    return basis


def _span_contains(basis, vec, ncols):
    ech = QEchelon(ncols)
    for b in basis:
        ech.add(b)
    return ech.contains(vec)


def pointwise_full_flag(dist, sample, depth_cap=None):
    """Exact subspace table at a sample: H (tangent to {h1=h2=h3=0} and
    killed by the tautological form), the restricted symplectic kernel,
    the osculating flag, its skew complements, and their vertical parts.
    """
    n = dist.chart.dim
    ct, hs = hamiltonians(dist)
    lam = sample.point
    nu, dims, levels, _ = _class_iteration(dist, sample, depth_cap)
    # constraint rows for H: gradients of h1, h2, h3 and the tautological row
    names = ct.chart.coords
    h_rows = []
    for h in hs[:3]:
        h_rows.append([h.diff(v).eval(lam) for v in names])
    h_rows.append(ct.taut_row(lam))
    H = _nullspace_basis(h_rows, 2 * n)
    dim_H = len(H)
    # kernel of sigma restricted to H
    ker_rows = list(h_rows) + [ct.sigma_row(v) for v in H]
    ker = _nullspace_basis(ker_rows, 2 * n)
    _, xc = char_field(dist)
    xc_val = [as_q(v) for v in xc.at(lam)]
    euler = ct.euler_value(lam)
    k_char = _span_contains(ker, xc_val, 2 * n)
    k_euler = _span_contains(ker, euler, 2 * n)
    dims_upper = []
    dims_lower = []
    dims_vert = []
    vert_rows = [[Q(1 if c == i else 0) for c in range(2 * n)]
                 for i in range(n)]
    lower_bases = []
    for i in range(nu + 1):
        span = levels[min(i, len(levels) - 1)]
        dims_upper.append(len(span))
        rows = list(h_rows) + [ct.sigma_row(v) for v in span]
        lower = _nullspace_basis(rows, 2 * n)
        lower_bases.append(lower)
        dims_lower.append(len(lower))
        vpart = _nullspace_basis(rows + vert_rows, 2 * n)
        dims_vert.append(len(vpart))
    # skew complement of J^(1) should be vertical-in-H plus the char line
    l1_ok = True
    if nu >= 1:
        vH = _nullspace_basis(list(h_rows) + vert_rows, 2 * n)
        ech = QEchelon(2 * n)
        for b in vH:
            ech.add(b)
        ech.add(xc_val)
        expect = ech.rank
        l1 = lower_bases[1]
        l1_ok = (len(l1) == expect and
                 all(_span_contains(l1, b, 2 * n) for b in vH) and
                 _span_contains(l1, xc_val, 2 * n))
    return FullFlagTable(
        nu=nu, dim_H=dim_H, dim_ker_sigma=len(ker),
        dims_upper=dims_upper, dims_lower=dims_lower,
        dims_vertical=dims_vert,
        ker_contains_char=k_char, ker_contains_euler=k_euler,
        lower1_is_vertical_plus_char=l1_ok,
        bases={"H": H, "ker_sigma": ker, "upper": levels,
               "lower": lower_bases})
