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
from dataclasses import dataclass
from math import lcm

from .errors import InvariantViolation, PreconditionError, SamplingFailure
from .kernel import (Q, QEchelon, RatFunc, _word_primes, as_q, q_coordinates,
                     q_nullspace, rf_nullspace, rf_solve_minimal)
from .geometry import BracketSeries, Chart, VectorField
from .distribution import per_distribution, square_fields, square_words

# seeded draws fiber_sample makes before it gives up
_FIBER_DRAWS = 200

CONVENTION_NOTE = ("cone convention: computed on the full cotangent bundle; "
                   "the Euler (fiber-scaling) direction adds +1 to every "
                   "flag dimension; the class itself carries no offset")


class CotangentChart:
    """Chart on T*M: base coordinates followed by conjugate momenta p_<x>."""

    def __init__(self, base):
        momenta = tuple("p_" + c for c in base.coords)
        if set(momenta) & set(base.coords):
            raise ValueError("momentum names collide with base coordinates")
        self.base = base
        self.momenta = momenta
        self.chart = Chart(tuple(base.coords) + momenta)
        self.n = base.dim

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


@per_distribution
def hamiltonians(dist):
    """The five lifted Hamiltonians h1..h5 of the bracket tower."""
    ct = CotangentChart(dist.chart)
    return ct, tuple(ct.hamiltonian_of(x) for x in square_fields(dist))


@per_distribution
def char_field(dist):
    """Characteristic field X_C = h5 * ham(h1) - h4 * ham(h2).

    Tangent to {h1 = h2 = h3 = 0} by the exact identities
    X_C h1 = h4 h3, X_C h2 = h5 h3, X_C h3 = 0; spans the kernel of the
    restricted symplectic form together with the Euler direction, and is
    nonzero wherever (h4, h5) != (0, 0).
    """
    ct, (h1, h2, h3, h4, h5) = hamiltonians(dist)
    return ct, ct.ham_field(h1).scaled(h5) - ct.ham_field(h2).scaled(h4)


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


def _square_values(dist, q):
    """Values of X1..X5 at q, checked to span a 5-dimensional D^3(q); then
    X1, X2, X3 are independent too."""
    values = [dist.word_value(w, q) for w in square_words(dist)]
    ech = QEchelon(dist.chart.dim)
    for v in values:
        ech.add(v)
    if ech.rank != 5:
        raise PreconditionError("dim D^3 = %d at the base point (need 5)"
                                % ech.rank)
    return values


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Q(0))


def _sample_or_none(q, p, values):
    """The covector sample (q, p) for p annihilating D^2(q), or None when p
    annihilates D^3(q) as well."""
    h4, h5 = _dot(p, values[3]), _dot(p, values[4])
    if not (h4 or h5):
        return None
    return CovectorSample(list(map(as_q, q)), p, [Q(0), Q(0), Q(0), h4, h5])


def fiber_sample(dist, q, seed=0, rng=None):
    """Exact rational covector over q annihilating D^2 but not D^3.

    Draws seeded random rational combinations of an exact nullspace basis
    of the value matrix of (X1, X2, [X1, X2]) at q until (h4, h5) != (0,0).
    """
    values = _square_values(dist, q)
    n = dist.chart.dim
    _, basis = q_nullspace(values[:3], n)
    if rng is None:
        rng = random.Random(seed)
    for _ in range(_FIBER_DRAWS):
        coeffs = [Q(rng.randint(-9, 9)) for _ in basis]
        p = [sum((c * b[i] for c, b in zip(coeffs, basis)), Q(0))
             for i in range(n)]
        s = _sample_or_none(q, p, values)
        if s is not None:
            return s
    raise SamplingFailure("no covector off the annihilator of D^3 found "
                          "in %d draws" % _FIBER_DRAWS)


def projected_sample(dist, q, p):
    """Covector sample over q whose momentum is the exact orthogonal
    projection of p onto the annihilator of D^2(q), D^2 = span{X1, X2, X3}."""
    values = _square_values(dist, q)
    square = values[:3]
    # the Gram matrix is symmetric: c solves G c = (<X_a, p>)
    gram = [[_dot(a, b) for b in square] for a in square]
    c = q_coordinates(gram, 3)([_dot(a, p) for a in square])
    p = [pi - _dot(c, col) for pi, col in zip(p, zip(*square))]
    s = _sample_or_none(q, p, values)
    if s is None:
        raise PreconditionError("covector annihilates D^3")
    return s


@per_distribution
def annihilator_basis(dist):
    """Rational-function basis (n-3 covectors) of the annihilator of D^2,
    denominators cleared."""
    rows = [list(f.components) for f in square_fields(dist)[:3]]
    rank, basis = rf_nullspace(rows, dist.chart.dim)
    if rank != 3:
        raise PreconditionError("frame square is degenerate over the "
                                "function field")
    return tuple(tuple(eta) for eta in basis)


@per_distribution
def _lift(dist):
    """The n-1 lifted generators: n-3 vertical annihilator fields plus two
    corrected Hamiltonian lifts W_a = ham(h_a) + vertical correction, each
    tangent to {h1=h2=h3=0}."""
    ct, (h1, h2, h3, h4, h5) = hamiltonians(dist)
    n = ct.n
    zero = RatFunc.from_const(ct.ring, 0)
    # annihilator covectors are polynomial: these fields have no poles
    gens = [VectorField(ct.chart, [zero] * n +
                        [ct.lift_function(e) for e in eta])
            for eta in annihilator_basis(dist)]
    # vertical corrections: <c, X1> = 0, <c, X2> = 0, <c, X3> = -(ham(h_a) h3)
    rows = [[ct.lift_function(c) for c in x.components]
            for x in square_fields(dist)[:3]]
    for ha, rhs3 in ((h1, -h4), (h2, -h5)):
        c = rf_solve_minimal(rows, [zero, zero, rhs3], n)
        if c is None:
            raise PreconditionError("no vertical correction exists "
                                    "(degenerate square)")
        gens.append(ct.ham_field(ha) + VectorField(ct.chart, [zero] * n + c))
    return tuple(gens)


def cone_J_generators(dist, sample):
    """(generators, values): the n-1 generators of the lifted distribution
    (see `_lift`) and their values at a covector sample, checked to be
    independent there."""
    gens = _lift(dist)
    ech = QEchelon(2 * dist.chart.dim)
    values = [g.at(sample.point) for g in gens]
    for v in values:
        if not ech.add(v):
            raise SamplingFailure("lifted generators degenerate at the "
                                  "sample; resample")
    return gens, values


@per_distribution
def _bracket_series(dist):
    """X_C and the lifted generators, compiled for the tower values
    ad_{X_C}^i g_j(lambda) from series along the X_C flow."""
    return BracketSeries(char_field(dist)[1], _lift(dist))


def _class_iteration(dist, sample, p=None):
    """Shared flag iteration over Q (p None) or modulo the prime p:
    returns (nu, dims, level_values).

    level_values[i] is a pointwise-independent list of tangent vectors at
    the sample spanning the i-th osculating space (cone dimensions); dims
    includes the repeated stabilized rank as its last entry.

    Round i reads ad_{X_C}^i g_j(lambda) for the generators j that raised
    the rank in round i-1 from power series along the X_C trajectory
    through lambda (`BracketSeries`), to the order that round needs.  Over
    Q, round 0 takes the generator values of `cone_J_generators`, so poles
    and degenerate generators raise the errors of direct evaluation;
    modulo p they surface as PoleError and InvariantViolation.

    The rank starts at n-1, rises by at most one per round and stays at
    most 2n-4, so the flag stops within n-2 rounds; a run still rising
    after n rounds (a degenerate reduction modulo p) raises.
    """
    n = dist.chart.dim
    flow = _bracket_series(dist).at(sample.point, p)
    if not any(flow.field_value()):
        raise PreconditionError("characteristic field vanishes at the sample")
    if p is None:
        _, values = cone_J_generators(dist, sample)
    else:
        values = [flow.ad(j, 0) for j in range(n - 1)]
    ech = flow.echelon()
    for v in values:
        ech.add(v)
    dims = [ech.rank]
    levels = [values]
    frontier = range(len(values))
    for i in range(1, n + 1):
        new = []
        for j in frontier:
            v = flow.ad(j, i)
            if ech.add(v):
                new.append((j, v))
        if len(new) > 1:
            raise InvariantViolation("flag rank jumped by %d in one round"
                                     % len(new))
        dims.append(ech.rank)
        levels.append(levels[-1] + [v for _, v in new])
        if not new:
            nu = i - 1
            break
        frontier = [j for j, _ in new]
    else:
        raise PreconditionError("flag failed to stabilize within %d rounds"
                                % n)
    if nu > n - 3 or dims[0] != n - 1 or dims[-1] > 2 * n - 4:
        raise InvariantViolation("class %d or cone dims %s break nu <= n-3 "
                                 "or n-1 <= dims <= 2n-4" % (nu, dims))
    return nu, tuple(dims), levels


def _sample_prime(dist, sample):
    """The first word-size prime that divides no denominator of the sample
    coordinates or of the compiled fields."""
    den = _bracket_series(dist).den
    for v in sample.point:
        den = lcm(den, int(as_q(v).denominator))
    return next(p for p in _word_primes() if den % p)


def class_at_sample(dist, sample):
    """(class nu, cone dims trace) at one covector sample.

    The trace starts at n-1, increases by at most 1 per round, and ends
    with the stabilized rank repeated once.

    The iteration runs modulo a word-size prime first.  A run that ends
    with nu = n-3 within its n rounds is exact: the residues are reductions
    of the exact tower values, and a rank modulo p is a lower bound of the
    rank over Q of the same vectors.  So the flag at the sample has at
    least the maximal dims n-1, n, ..., 2n-4, which its bounds (one rise
    per round, dims <= 2n-4) allow no exact run to exceed.  A maximal flag
    has constant rank near the sample, and there the frontier rule spans
    the whole flag, so the exact run gives the same trace.  Any other
    outcome (a non-maximal sample, a pole or a degenerate reduction modulo
    p, an error) is decided by the exact run over Q, which raises every
    error.
    """
    n = dist.chart.dim
    try:
        nu, dims, _ = _class_iteration(dist, sample,
                                       _sample_prime(dist, sample))
        if nu == n - 3:
            return nu, dims
    except (ArithmeticError, PreconditionError):
        pass
    nu, dims, _ = _class_iteration(dist, sample)
    return nu, dims


@dataclass
class ClassReport:
    """Fiberwise class data at a base point, sampled over the annihilator."""

    per_sample: list            # list of (CovectorSample, nu, dims)
    m: int
    maximal_class: bool
    genericity: str = ("m is a maximum over seeded random fiber samples; "
                       "valid on a nonempty Zariski-open set of covectors, "
                       "not certified pointwise")


def class_at_point(dist, q, samples=5, seed=0):
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
            nu, dims = class_at_sample(dist, s)
        except SamplingFailure:
            continue
        per.append((s, nu, dims))
    m = max(nu for _, nu, _ in per)
    return ClassReport(per_sample=per, m=m, maximal_class=(m == n - 3))


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


def _span_contains(basis, vec, ncols):
    ech = QEchelon(ncols)
    for b in basis:
        ech.add(b)
    return ech.contains(vec)


def pointwise_full_flag(dist, sample):
    """Exact subspace table at a sample: H (tangent to {h1=h2=h3=0} and
    killed by the tautological form), the restricted symplectic kernel,
    the osculating flag, its skew complements, and their vertical parts.
    """
    n = dist.chart.dim
    ct, hs = hamiltonians(dist)
    lam = sample.point
    nu, dims, levels = _class_iteration(dist, sample)
    # constraint rows for H: gradients of h1, h2, h3 and the tautological row
    names = ct.chart.coords
    h_rows = []
    for h in hs[:3]:
        h_rows.append([h.diff(v).eval(lam) for v in names])
    h_rows.append(ct.taut_row(lam))
    H = q_nullspace(h_rows, 2 * n)[1]
    dim_H = len(H)
    # kernel of sigma restricted to H
    ker_rows = list(h_rows) + [ct.sigma_row(v) for v in H]
    ker = q_nullspace(ker_rows, 2 * n)[1]
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
        lower = q_nullspace(rows, 2 * n)[1]
        lower_bases.append(lower)
        dims_lower.append(len(lower))
        vpart = q_nullspace(rows + vert_rows, 2 * n)[1]
        dims_vert.append(len(vpart))
    # skew complement of J^(1) should be vertical-in-H plus the char line
    l1_ok = True
    if nu >= 1:
        vH = q_nullspace(list(h_rows) + vert_rows, 2 * n)[1]
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
        lower1_is_vertical_plus_char=l1_ok)
