"""Infinitesimal symmetries by polynomial ansatz.

A polynomial field Y preserves the distribution iff <eta, [Y, X_a]> = 0
for every annihilator one-form eta and every frame field X_a.  With a
total-degree bound on Y this is an exact homogeneous linear system in the
coefficients of Y; its nullspace basis is the degree-d symmetry space.

When the frame is homogeneous for some positive coordinate weights
(detected automatically), the system splits into independent blocks by
weight, which keeps the exact elimination small.  Total-degree truncation
commutes with the weight split, so blockwise and monolithic answers agree.
Every weight block is finite without a degree bound, and
`stabilized_symmetry_basis` solves whole blocks until an empty one
certifies the algebra complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, lcm

from .errors import DegenerateFrame, PreconditionError
from .kernel import (MAX_EXPONENT, PoleError, Poly, Q, QEchelon, RatFunc,
                     add_product, q_coordinates, q_nullspace,
                     q_sparse_nullspace, rf_nullspace)
from .geometry import OneForm, VectorField, lie_bracket
from .distribution import (Distribution, per_distribution, structure_bracket,
                           weak_flag)

# the largest degree bound the fallback of stabilized_symmetry_basis tries
MAX_SYMMETRY_DEGREE = 8
# symmetry_basis refuses systems, and stabilized_symmetry_basis weight
# blocks, with more monomial unknowns than this
MAX_SYMMETRY_UNKNOWNS = 10 ** 6


@per_distribution
def annihilator_forms(dist):
    """Polynomial annihilator one-forms of the frame (denominators
    cleared); n - rank of them for a rank-r frame."""
    chart = dist.chart
    n = chart.dim
    rows = [list(f.components) for f in dist.frame]
    rank, basis = rf_nullspace(rows, n)
    if rank != dist.rank:
        raise PreconditionError("frame degenerate over the function field")
    forms = tuple(OneForm(chart, vec) for vec in basis)
    for f in forms:
        if any(not c.is_poly() for c in f.components):
            raise PreconditionError("annihilator basis is not polynomial "
                                    "on this chart")
    return forms


def _poly_components(fields):
    out = []
    for f in fields:
        comps = []
        for c in f.components:
            if not c.is_poly():
                raise PreconditionError("polynomial frame required")
            comps.append(c.num)
        out.append(comps)
    return out


@per_distribution
def detect_weights(dist):
    """Positive integer coordinate weights making every frame field
    weighted homogeneous, or None.

    Solves the linear constraints weight(alpha) - w_i = omega_a over all
    monomials alpha of each component X_a^i, then scales to positive
    integers.
    """
    chart = dist.chart
    n = chart.dim
    ring = chart.ring
    frame = _poly_components(dist.frame)
    r = len(frame)
    # unknowns: w_1..w_n, omega_1..omega_r
    rows = []
    for a, comps in enumerate(frame):
        for i, p in enumerate(comps):
            for key in p.terms:
                exps = ring.decode(key)
                row = [Q(e) for e in exps]
                row[i] -= 1
                row += [Q(0)] * r
                row[n + a] = Q(-1)
                rows.append(row)
    _, basis = q_nullspace(rows, n + r)
    for cand in basis + [[sum(v[k] for v in basis) for k in range(n + r)]
                         if len(basis) > 1 else []]:
        if not cand:
            continue
        w = cand[:n]
        if all(x > 0 for x in w) or all(x < 0 for x in w):
            if w[0] < 0:
                w = [-x for x in w]
            # scale to integers
            den = 1
            for x in w:
                den = lcm(den, int(x.denominator))
            return [int(x * den) for x in w]
    return None


def _split_form_by_weight(form, weights):
    """Weight-homogeneous parts of a polynomial one-form.  For a frame
    homogeneous in these weights, each part annihilates it separately."""
    chart = form.chart
    ring = chart.ring
    buckets = {}
    for i, comp in enumerate(form.components):
        p = comp.num
        for key, c in p.terms.items():
            exps = ring.decode(key)
            # a dx_i factor carries weight +w_i (dual to the -w_i of d/dx_i)
            wt = sum(w * e for w, e in zip(weights, exps)) + weights[i]
            b = buckets.setdefault(wt, [dict() for _ in range(chart.dim)])
            b[i][key] = c
    out = []
    for wt in sorted(buckets):
        comps = [RatFunc.from_poly(Poly(ring, t)) for t in buckets[wt]]
        out.append(OneForm(chart, comps))
    return out


def _monomials_up_to(ring, d):
    n = ring.n
    out = []
    for total in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            out.append(ring.encode(exps))
    return out


def _monomials_of_weight(ring, weights, k):
    """Packed monomials of weight exactly k (all weights >= 1), ordered as
    in `_monomials_up_to`: by total degree, then in
    combinations_with_replacement order."""
    n = len(weights)
    low = [min(weights[j:]) for j in range(n)]
    high = [max(weights[j:]) for j in range(n)]

    def combos(start, total, rest):
        if total == 0:
            yield ()
            return
        for j in range(start, n):
            left = rest - weights[j]
            if (total - 1) * low[j] <= left <= (total - 1) * high[j]:
                for tail in combos(j, total - 1, left):
                    yield (j,) + tail

    out = []
    for total in range(-(-k // max(weights)), k // min(weights) + 1):
        for combo in combos(0, total, k):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            out.append(ring.encode(exps))
    return out


def _weight_counts(weights, top):
    """counts[k] = number of monomials of weight exactly k, k <= top."""
    counts = [1] + [0] * top
    for w in weights:
        for k in range(w, top + 1):
            counts[k] += counts[k - w]
    return counts


@dataclass
class SymmetryBasis:
    """Exact basis of polynomial symmetry fields of total degree <= degree.

    `certified` is True when the basis is provably the whole polynomial
    symmetry algebra (the weight-block path of stabilized_symmetry_basis)."""

    degree: int
    basis: list                 # list of VectorField
    dim: int
    stabilized: bool = False
    stable_degree: int = None
    weights: list = None
    certified: bool = False


def symmetry_basis(dist, d):
    """Exact nullspace basis of the degree-d polynomial symmetry system.

    The returned dimension is a lower bound for the full symmetry algebra
    dimension (exact once stabilized for homogeneous models).
    """
    if d < 0:
        raise ValueError("symmetry degree must be at least 0, got %d" % d)
    chart = dist.chart
    ring = chart.ring
    n = chart.dim
    weights, system = _symmetry_system(dist)
    # the guards run before the monomials are enumerated
    system.admit(d, n * comb(n + d, d))
    monos = _monomials_up_to(ring, d)
    unknowns = [(key, i) for i in range(n) for key in monos]
    if weights is None:
        blocks = {0: unknowns}
    else:
        blocks = {}
        for key, i in unknowns:
            exps = ring.decode(key)
            wt = sum(w * e for w, e in zip(weights, exps)) - weights[i]
            blocks.setdefault(wt, []).append((key, i))
    fields = []
    for wt in sorted(blocks):
        fields += system.solve(chart, blocks[wt])
    return SymmetryBasis(degree=d, basis=fields, dim=len(fields),
                         weights=weights)


@per_distribution
def _symmetry_system(dist):
    """(weights, system): the `detect_weights` of the frame, and its
    symmetry conditions with the annihilator forms split by weight when
    there are weights.

    One system serves every symmetry_basis call and the weight blocks of
    a distribution.  Its memo of X_a(m) is the one mutable part of this
    shared result; it only gains entries."""
    # annihilator_forms before detect_weights, so a frame that fails both
    # fails with the same error on every path
    forms = annihilator_forms(dist)
    weights = detect_weights(dist)
    if weights is not None:
        forms = [h for f in forms for h in _split_form_by_weight(f, weights)]
    return weights, _SymmetrySystem(dist.chart.ring,
                                    _poly_components(dist.frame), forms)


class _SymmetrySystem:
    """The symmetry conditions <eta, [m d/dx_i, X_a]> = 0 for monomial
    unknowns m d/dx_i, through

        <eta, [m d/dx_i, X_a]> = m P[a][j][i] - eta_i X_a(m),
        P[a][j][i] = sum_l eta_l d(X_a^l)/dx_i,

    with the P table built once and X_a(m) once per monomial unknown.
    Each form and each frame field is first scaled to integer coefficients,
    which scales each equation by a nonzero constant; polynomials here are
    {packed monomial: int} dicts.

    No product here may pass MAX_EXPONENT in any variable, since
    `add_product` does not check: an exponent of an equation is at most
    one of a form plus one of the frame plus the degree of the unknown,
    which `admit` checks before unknowns of that degree are used."""

    def __init__(self, ring, frame_polys, forms):
        self.ring = ring
        form_polys = [[c.num for c in f.components] for f in forms]
        self._used = [max((p.degree_in(i) for ps in form_polys for p in ps),
                          default=0) +
                      max(p.degree_in(i) for ps in frame_polys for p in ps)
                      for i in range(ring.n)]
        self.frame = [_integral(xp) for xp in frame_polys]
        self.etas = [_integral(ps) for ps in form_polys]
        self.table = []
        for xp in self.frame:
            dx = [[Poly(ring, x).diff(v).terms for v in ring.names]
                  for x in xp]
            self.table.append([[_dot(eta, [d[i] for d in dx])
                                for i in range(ring.n)]
                               for eta in self.etas])
        self._applied = {}

    def admit(self, degree, count, block=None):
        """Raise OverflowError if unknowns of total degree `degree` could
        carry an exponent of the equations past MAX_EXPONENT, or if their
        `count` (of the weight block `block`, else of every degree up to
        `degree`) is more than MAX_SYMMETRY_UNKNOWNS."""
        for v, used in zip(self.ring.names, self._used):
            if used + degree > MAX_EXPONENT:
                raise OverflowError("exponent of %s in the symmetry "
                                    "equations exceeds %d" % (v, MAX_EXPONENT))
        if count > MAX_SYMMETRY_UNKNOWNS:
            what = ("degree %d gives" % degree if block is None else
                    "weight block %d has" % block)
            raise OverflowError("%s %d monomial unknowns, more than %d"
                                % (what, count, MAX_SYMMETRY_UNKNOWNS))

    def _apply(self, a, key):
        """X_a(m) for the monomial m with packed exponents key."""
        out = self._applied.get((a, key))
        if out is None:
            m = Poly(self.ring, {key: 1})
            out = _dot(self.frame[a], [m.diff(v).terms
                                       for v in self.ring.names])
            self._applied[(a, key)] = out
        return out

    def rows(self, unknowns):
        """Sparse rows {col: coeff}, one per (form, frame field, monomial)
        coefficient of the conditions, over the given unknowns."""
        eqs = {}
        for col, (key, i) in enumerate(unknowns):
            for a, ps in enumerate(self.table):
                xm = self._apply(a, key)
                for fj, eta in enumerate(self.etas):
                    acc = {}
                    add_product(acc, {key: 1}, ps[fj][i])
                    add_product(acc, eta[i], xm, -1)
                    for mk, c in acc.items():
                        eqs.setdefault((fj, a, mk), {})[col] = c
        return list(eqs.values())

    def solve(self, chart, unknowns):
        """The canonical nullspace basis of the conditions over these
        unknowns, as vector fields on the chart."""
        n = self.ring.n
        fields = []
        for sol in q_sparse_nullspace(self.rows(unknowns), len(unknowns)):
            comps_terms = [dict() for _ in range(n)]
            for col, c in sol.items():
                key, i = unknowns[col]
                comps_terms[i][key] = c
            comps = [RatFunc.from_poly(Poly(self.ring, t))
                     for t in comps_terms]
            fields.append(VectorField(chart, comps))
        return fields


def _integral(polys):
    """The polynomials scaled by one positive integer to integer
    coefficients, as {packed monomial: int} dicts."""
    den = 1
    for p in polys:
        for c in p.terms.values():
            den = lcm(den, int(c.denominator))
    return [{k: int(c * den) for k, c in p.terms.items()} for p in polys]


def _dot(ps, qs):
    """sum p * q over paired {packed monomial: int} polynomials."""
    acc = {}
    for p, q in zip(ps, qs):
        add_product(acc, p, q)
    return acc


def stabilized_symmetry_basis(dist):
    """The polynomial symmetry algebra, certified where possible.

    For a rank-2 frame with positive weights whose weak flag at the origin
    (the weighted centre) has cube 5 and reaches n, the weight blocks are
    solved once each (`_certified_basis`).  Otherwise, or when that path
    finds no certificate, the degree bound rises from 1 until two
    consecutive dims agree, and the basis at the first stable degree is
    returned with stable_degree recorded and certified False.
    """
    if _weight_path_applies(dist):
        out = _certified_basis(dist)
        if out is not None:
            return out
    prev = None
    for d in range(1, MAX_SYMMETRY_DEGREE + 1):
        cur = symmetry_basis(dist, d)
        if prev is not None and cur.dim == prev.dim:
            prev.stabilized = True
            prev.stable_degree = prev.degree
            return prev
        prev = cur
    raise PreconditionError("symmetry dimension did not stabilize by "
                            "degree %d" % MAX_SYMMETRY_DEGREE)


def _weight_path_applies(dist):
    """True iff the frame is rank 2 and, at the origin, independent with
    cube 5 and a weak flag that reaches n.  These open conditions make the
    symmetry algebra finite-dimensional, so the weight blocks end."""
    if dist.rank != 2:
        return False
    try:
        flag = weak_flag(dist, [Q(0)] * dist.chart.dim)
    except (PoleError, DegenerateFrame):
        return False
    return flag.cube == 5 and flag.dims[-1] == dist.chart.dim


def _certified_basis(dist):
    """All polynomial symmetries of a weighted frame, by weight block, with
    a certificate that none are missing; None if the frame has no weights
    or no certificate is found.

    Block W holds every unknown m d/dx_i with weight(m) - w_i = W, with no
    degree cap; it is finite because every weight is at least 1.  Blocks
    are solved once each for W = -max(w), -max(w)+1, ..., with the columns
    in `symmetry_basis` order, so the basis vectors are the ones that a
    degree bound covering the block gives.

    Certificate: the fields of block -1 must generate an algebra that is
    transitive at the origin (their weak flag there reaches n); then the
    first empty block W >= 0 ends the algebra.  Take a symmetry Y of weight
    W+1.  For each R in block -1, [Y, R] is a symmetry of weight W, so it
    is 0.  Then Y commutes with a transitive algebra, and Y vanishes at the
    origin because its weight is positive; so Y vanishes near the origin
    and, being polynomial, Y = 0.  By induction every block above W is
    empty too.
    """
    chart = dist.chart
    ring = chart.ring
    n = chart.dim
    weights, system = _symmetry_system(dist)
    if weights is None:
        return None
    low, high = min(weights), max(weights)
    fields = []
    wt = -high
    while True:
        counts = _weight_counts(weights, wt + high)
        # (wt + high) // low is the largest total degree in this block
        system.admit((wt + high) // low,
                     sum(counts[wt + w] for w in weights if wt + w >= 0), wt)
        block = [(key, i) for i in range(n)
                 for key in _monomials_of_weight(ring, weights,
                                                 wt + weights[i])]
        found = system.solve(chart, block)
        if wt >= 0 and not found:
            break
        fields += found
        if wt == -1:
            try:
                flag = weak_flag(Distribution(chart, found), [Q(0)] * n)
            except DegenerateFrame:
                return None
            if flag.dims[-1] != n:
                return None
        wt += 1
    degree = max(c.num.total_degree() for y in fields for c in y.components)
    return SymmetryBasis(degree=degree, basis=fields, dim=len(fields),
                         stabilized=True, stable_degree=degree,
                         weights=weights, certified=True)


def _field_coeff_items(y):
    """(mono_key, comp_index) -> Q for a polynomial vector field."""
    out = {}
    for i, c in enumerate(y.components):
        if c.is_zero():
            continue
        if not c.den.is_const():
            raise PreconditionError("polynomial symmetry field required")
        scale = Q(1) / c.den.const_value()
        for k, coef in c.num.terms.items():
            out[(k, i)] = coef * scale
    return out


def symmetry_structure_constants(dist, basis):
    """Exact structure constants of a (closed) symmetry basis.

    st[a][b] is the coordinate vector of [Y_a, Y_b] in the basis; raises
    if some bracket leaves the span (basis not closed, e.g. unstabilized).
    """
    fields = basis.basis
    N = len(fields)
    field_items = [_field_coeff_items(y) for y in fields]
    coords = sorted(set().union(*field_items))
    support = set(coords)
    coordinates = q_coordinates([[it.get(c, Q(0)) for c in coords]
                                 for it in field_items], len(coords))
    st = [[[Q(0)] * N for _ in range(N)] for _ in range(N)]
    for a, b in itertools.combinations(range(N), 2):
        it = _field_coeff_items(lie_bracket(fields[a], fields[b]))
        sol = (None if it.keys() - support else
               coordinates([it.get(c, Q(0)) for c in coords]))
        if sol is None:
            raise PreconditionError("bracket [%d,%d] leaves the basis span "
                                    "(basis not closed)" % (a, b))
        st[a][b] = sol
        st[b][a] = [-v for v in sol]
    return st


def nilradical_witness_dim(dist, basis):
    """Dimension of the nilpotent ideal [g, rad(g)] of the symmetry
    algebra, with rad(g) computed by Killing-orthogonality to [g, g].

    [g, rad] always sits inside the nilradical, so this is an exact lower
    bound for its dimension; nilpotency is verified by running the lower
    central series to zero.
    """
    st = symmetry_structure_constants(dist, basis)
    N = len(st)
    # ad matrices and the Killing form
    ad = [[[st[a][b][k] for b in range(N)] for k in range(N)]
          for a in range(N)]          # ad[a][k][b] = st[a][b][k]
    killing = [[sum(ad[a][k][b2] * ad[b][b2][k]
                    for k in range(N) for b2 in range(N))
                for b in range(N)] for a in range(N)]
    # derived algebra span
    der = QEchelon(N)
    der_basis = []
    for a in range(N):
        for b in range(a + 1, N):
            if any(st[a][b]) and der.add(st[a][b]):
                der_basis.append(st[a][b])
    # radical: x with K(x, d) = 0 for all d in [g, g]
    rows = [[sum(killing[j][k] * d[k] for k in range(N)) for j in range(N)]
            for d in der_basis]
    _, rad = q_nullspace(rows, N)
    # the witness ideal [g, rad]
    ech = QEchelon(N)
    witness = []
    for a in range(N):
        e = [Q(1 if i == a else 0) for i in range(N)]
        for r in rad:
            w = structure_bracket(st, e, r)
            if any(w) and ech.add(w):
                witness.append(w)
    # nilpotency: the lower central series of the witness span must reach 0
    layer = list(witness)
    for _ in range(N + 1):
        if not layer:
            return len(witness)
        nxt_ech = QEchelon(N)
        nxt = []
        for w in witness:
            for v in layer:
                u = structure_bracket(st, w, v)
                if any(u) and nxt_ech.add(u):
                    nxt.append(u)
        if len(nxt) >= len(layer):
            break
        layer = nxt
    raise PreconditionError("lower central series of [g, rad] did not "
                            "terminate")
