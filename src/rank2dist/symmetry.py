"""Infinitesimal symmetries by polynomial ansatz.

A polynomial field Y preserves the distribution iff <eta, [Y, X_a]> = 0
for every annihilator one-form eta and every frame field X_a.  With a
total-degree bound on Y this is an exact homogeneous linear system in the
coefficients of Y; its nullspace basis is the degree-d symmetry space.

When the frame is homogeneous for some positive coordinate weights
(detected automatically), the system splits into independent blocks by
weight, which keeps the exact elimination small.  Total-degree truncation
commutes with the weight split, so blockwise and monolithic answers agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PreconditionError
from .kernel import (Poly, Q, QEchelon, RatFunc, q_nullspace, q_solve,
                     rf_nullspace)
from .geometry import OneForm, VectorField, lie_bracket, pair
from .distribution import structure_bracket


def annihilator_forms(dist):
    """Polynomial annihilator one-forms of the frame (denominators
    cleared); n - rank of them for a rank-r frame."""
    chart = dist.chart
    n = chart.dim
    rows = [list(f.components) for f in dist.frame]
    rank, basis = rf_nullspace(rows, n)
    if rank != dist.rank:
        raise PreconditionError("frame degenerate over the function field")
    forms = [OneForm(chart, vec) for vec in basis]
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
    rank, basis = q_nullspace(rows, n + r)
    for cand in basis + [[sum(v[k] for v in basis) for k in range(n + r)]
                         if len(basis) > 1 else []]:
        if not cand:
            continue
        w = cand[:n]
        if all(x > 0 for x in w) or all(x < 0 for x in w):
            if w[0] < 0:
                w = [-x for x in w]
            # scale to integers
            from math import lcm
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


def _bracket_monomial_field(ring, mono_key, comp_idx, frame_polys, n):
    """[m * d/dx_i, X] for a monomial field, as a list of Polys."""
    m = Poly(ring, {mono_key: Q(1)})
    var_i = ring.names[comp_idx]
    out = []
    for l in range(n):
        acc = m * frame_polys[l].diff(var_i)
        if l == comp_idx:
            for j in range(n):
                xj = frame_polys[j]
                if not xj.is_zero():
                    dm = m.diff(ring.names[j])
                    if not dm.is_zero():
                        acc = acc - xj * dm
        out.append(acc)
    return out


class _SparseEliminator:
    """Incremental sparse reduced elimination over Q, rows as dicts."""

    def __init__(self):
        self.pivots = {}  # col -> normalized sparse row (dict)

    def add(self, row):
        row = dict(row)
        # fully reduce against existing pivot rows; pivot rows are kept
        # free of other pivot columns, so one elimination per pivot column
        # present suffices (new entries are free columns only)
        while True:
            hit = None
            for c in row:
                if c in self.pivots:
                    hit = c
                    break
            if hit is None:
                break
            coef = row.pop(hit)
            for cc, vv in self.pivots[hit].items():
                if cc == hit:
                    continue
                nv = row.get(cc, Q(0)) - coef * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
        if not row:
            return False
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        # back-substitute into existing rows to keep them pivot-free
        for pc, pr in self.pivots.items():
            c = pr.get(col)
            if c:
                nr = dict(pr)
                nr.pop(col)
                for cc, vv in row.items():
                    if cc == col:
                        continue
                    nv = nr.get(cc, Q(0)) - c * vv
                    if nv:
                        nr[cc] = nv
                    else:
                        nr.pop(cc, None)
                self.pivots[pc] = nr
        self.pivots[col] = row
        return True

    def nullspace(self, ncols):
        pivset = set(self.pivots)
        free = [c for c in range(ncols) if c not in pivset]
        basis = []
        for fc in free:
            v = {fc: Q(1)}
            for pc, pr in self.pivots.items():
                c = pr.get(fc)
                if c:
                    v[pc] = -c
            basis.append(v)
        return basis


@dataclass
class SymmetryBasis:
    """Exact basis of polynomial symmetry fields of total degree <= degree."""

    degree: int
    basis: list                 # list of VectorField
    dim: int
    stabilized: bool = False
    stable_degree: int = None
    weights: list = None


def symmetry_basis(dist, d, forms=None, weights="auto"):
    """Exact nullspace basis of the degree-d polynomial symmetry system.

    The returned dimension is a lower bound for the full symmetry algebra
    dimension (exact once stabilized for homogeneous models).
    """
    chart = dist.chart
    ring = chart.ring
    n = chart.dim
    frame_polys = _poly_components(dist.frame)
    if forms is None:
        forms = annihilator_forms(dist)
    if weights == "auto":
        weights = detect_weights(dist)
    monos = _monomials_up_to(ring, d)
    unknowns = [(key, i) for i in range(n) for key in monos]
    if weights is not None:
        hforms = []
        for f in forms:
            hforms.extend(_split_form_by_weight(f, weights))
        blocks = {}
        for key, i in unknowns:
            exps = ring.decode(key)
            wt = sum(w * e for w, e in zip(weights, exps)) - weights[i]
            blocks.setdefault(wt, []).append((key, i))
        sols = []
        for wt in sorted(blocks):
            sols.extend(_solve_block(ring, blocks[wt], frame_polys,
                                     hforms, n))
    else:
        sols = _solve_block(ring, unknowns, frame_polys, forms, n)
    fields = []
    for sol in sols:
        comps_terms = [dict() for _ in range(n)]
        for (key, i), c in sol:
            comps_terms[i][key] = c
        comps = [RatFunc.from_poly(Poly(ring, t)) for t in comps_terms]
        fields.append(VectorField(chart, comps))
    return SymmetryBasis(degree=d, basis=fields, dim=len(fields),
                         weights=weights)


def _solve_block(ring, unknowns, frame_polys, forms, n):
    """Nullspace of the symmetry conditions restricted to the given
    unknown monomial fields.  Returns solutions as [(unknown, coeff)]."""
    eqs = {}        # (form_idx, frame_idx, monomial) -> {col: coeff}
    for col, (key, i) in enumerate(unknowns):
        for a, xp in enumerate(frame_polys):
            br = _bracket_monomial_field(ring, key, i, xp, n)
            for fj, form in enumerate(forms):
                acc = ring.zero()
                for l in range(n):
                    fc = form.components[l].num
                    if not (fc.is_zero() or br[l].is_zero()):
                        acc = acc + fc * br[l]
                for mk, c in acc.terms.items():
                    eqs.setdefault((fj, a, mk), {})[col] = c
    elim = _SparseEliminator()
    for row in eqs.values():
        elim.add(row)
    basis = elim.nullspace(len(unknowns))
    return [[(unknowns[c], v) for c, v in sorted(b.items())] for b in basis]


def stabilized_symmetry_basis(dist, forms=None, max_degree=8, start=1):
    """Increase the degree bound until two consecutive dims agree; returns
    the basis at the first stable degree with stable_degree recorded."""
    prev = None
    for d in range(start, max_degree + 1):
        cur = symmetry_basis(dist, d, forms=forms)
        if prev is not None and cur.dim == prev.dim:
            prev.stabilized = True
            prev.stable_degree = prev.degree
            return prev
        prev = cur
    raise PreconditionError("symmetry dimension did not stabilize by "
                            "degree %d" % max_degree)


def is_symmetry(dist, y, forms=None):
    """Exact check of the defining equations for one candidate field."""
    if forms is None:
        forms = annihilator_forms(dist)
    for x in dist.frame:
        b = lie_bracket(y, x)
        for f in forms:
            if not pair(f, b).is_zero():
                return False
    return True


def bracket_close_check(dist, basis, forms=None):
    """True iff the bracket of every basis pair satisfies the symmetry
    equations exactly (checked against the equations, not the span)."""
    if forms is None:
        forms = annihilator_forms(dist)
    for y1, y2 in itertools.combinations(basis.basis, 2):
        if not is_symmetry(dist, lie_bracket(y1, y2), forms):
            return False
    return True


def vanishing_subspace_dim(basis, q):
    """Dimension of the sub-span of basis fields vanishing at q (witness
    for the nilradical lower bound)."""
    vals = [f.at(q) for f in basis.basis]
    ech = QEchelon(len(vals[0]) if vals else 0)
    rank = 0
    for v in vals:
        if ech.add(v):
            rank += 1
    return basis.dim - rank


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
    brackets = {}
    bracket_items = {}
    coords = set()
    for it in field_items:
        coords.update(it)
    for a in range(N):
        for b in range(a + 1, N):
            br = lie_bracket(fields[a], fields[b])
            brackets[(a, b)] = br
            it = _field_coeff_items(br)
            bracket_items[(a, b)] = it
            coords.update(it)
    coords = sorted(coords)
    pos = {c: i for i, c in enumerate(coords)}
    rows = [[field_items[j].get(c, Q(0)) for j in range(N)] for c in coords]
    zero = [Q(0)] * N
    st = [[list(zero) for _ in range(N)] for _ in range(N)]
    for (a, b), it in bracket_items.items():
        rhs = [Q(0)] * len(coords)
        for c, v in it.items():
            rhs[pos[c]] = v
        sol = q_solve(rows, rhs, N)
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
