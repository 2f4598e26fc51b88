"""Model families and transformers: Monge flat models, Cartan jet models,
prolongation, deprolongation (with degree), free nilpotent symbols, and
flat distributions built from graded symbols: the left-invariant fields of
the symbol's nilpotent group, read off its Maurer-Cartan form."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PreconditionError
from .kernel import (PoleError, Q, QEchelon, RatFunc, as_q,
                     clear_denominators, point_str, q_inverse, rf_nullspace)
from .geometry import Chart, VectorField, linear_change
from .distribution import (Distribution, FlagReport, _symbol_from_basis,
                           _weak_levels, cube_dim, nearby_points,
                           square_fields, strong_flag, weak_flag)
from .freelie import bracket_word, expand_word, lyndon_basis


# ---------------------------------------------------------------------------
# flat models given in closed form
# ---------------------------------------------------------------------------

def monge_model(n):
    """Rank-2 distribution of the Monge equation z' = (y^(n-3))^2 on R^n.

    Chart (x, y0, ..., y_{n-3}, z); frame
      X1 = d/dx + sum y_{i+1} d/dy_i + y_{n-3}^2 d/dz,   X2 = d/dy_{n-3}.
    """
    if n < 5:
        raise ValueError("monge_model requires n >= 5")
    m = n - 3
    coords = ["x"] + ["y%d" % i for i in range(m + 1)] + ["z"]
    chart = Chart(coords)
    ring = chart.ring
    comps = [RatFunc.from_const(ring, 0)] * n
    comps = list(comps)
    comps[0] = RatFunc.from_const(ring, 1)
    for i in range(m):
        comps[1 + i] = RatFunc.variable(ring, "y%d" % (i + 1))
    ym = RatFunc.variable(ring, "y%d" % m)
    comps[n - 1] = ym * ym
    x1 = VectorField(chart, comps)
    x2 = chart.coordinate_field("y%d" % m)
    return Distribution(chart, [x1, x2])


def cartan_jet(k):
    """Cartan distribution of J^k(R, R) on the chart (x, y0, ..., yk):
    frame d/dx + sum y_{i+1} d/dy_i,  d/dy_k.  Goursat with growth
    (2, 3, ..., k+2)."""
    if k < 1:
        raise ValueError("cartan_jet requires k >= 1")
    coords = ["x"] + ["y%d" % i for i in range(k + 1)]
    chart = Chart(coords)
    ring = chart.ring
    comps = [RatFunc.from_const(ring, 0)] * (k + 2)
    comps = list(comps)
    comps[0] = RatFunc.from_const(ring, 1)
    for i in range(k):
        comps[1 + i] = RatFunc.variable(ring, "y%d" % (i + 1))
    x1 = VectorField(chart, comps)
    x2 = chart.coordinate_field("y%d" % k)
    return Distribution(chart, [x1, x2])


# ---------------------------------------------------------------------------
# prolongation / deprolongation
# ---------------------------------------------------------------------------

def _fresh_name(base, taken):
    if base not in taken:
        return base
    i = 1
    while "%s%d" % (base, i) in taken:
        i += 1
    return "%s%d" % (base, i)


def prolong(dist):
    """Cartan prolongation in the affine fiber chart: new coordinate u,
    frame {X1 + u X2, d/du} on dimension n+1."""
    if dist.rank != 2:
        raise ValueError("prolongation needs a rank-2 frame")
    chart = dist.chart
    u = _fresh_name("u", set(chart.coords))
    new_chart = Chart(tuple(chart.coords) + (u,))
    ring = new_chart.ring
    uvar = RatFunc.variable(ring, u)
    zero = RatFunc.from_const(ring, 0)
    x1, x2 = dist.frame
    comps = [a.embed(ring) + uvar * b.embed(ring)
             for a, b in zip(x1.components, x2.components)] + [zero]
    f1 = VectorField(new_chart, comps)
    f2 = new_chart.coordinate_field(u)
    return Distribution(new_chart, [f1, f2])


@dataclass
class DeprolongResult:
    """Outcome of one deprolongation step.

    Tier 1 (rectified): `distribution` is the quotient rank-2 distribution.
    Tier 2: only coordinate-free invariants of the deprolonged germ are
    reported (growth vector and cube dimension), with rectified=False.
    """

    rectified: bool
    distribution: Distribution = None
    growth: tuple = None
    cube: int = None
    note: str = ""


def _check_cube4_near(dist, q):
    for p in [list(q)] + list(nearby_points(dist, q, 2, 20, 0)):
        try:
            c = cube_dim(dist, p)
        except PoleError:
            continue
        if c != 4:
            raise PreconditionError("cube dimension is %d (need 4) at %s"
                                    % (c, point_str(p)))


def cauchy_characteristic(dist):
    """Characteristic direction Z = a X1 + b X2 of D^2 lying in D, as an
    exact function-field solution.  Returns Z (denominators cleared)."""
    chart = dist.chart
    n = chart.dim
    x1, x2, x3, x4, x5 = square_fields(dist)
    # columns: X4, X5, X1, X2, X3 -- nullspace vectors give (a, b, *)
    cols = [x4, x5, x1, x2, x3]
    rows = [[f.components[i] for f in cols] for i in range(n)]
    _, basis = rf_nullspace(rows, 5)
    for vec in basis:
        a, b = vec[0], vec[1]
        if not (a.is_zero() and b.is_zero()):
            z = x1.scaled(a) + x2.scaled(b)
            return VectorField(chart, clear_denominators(list(z.components)))
    raise PreconditionError("no Cauchy characteristic of D^2 inside D "
                            "(cube is not 4-dimensional?)")


def deprolong(dist, q):
    """One deprolongation step at q.  Requires dim D^3 = 4 near q.

    Tier 1: if the characteristic field rectifies by an exact linear
    change (constant Z), returns the quotient distribution on n-1
    coordinates.  Tier 2: returns invariants of the deprolonged germ only.
    """
    _check_cube4_near(dist, q)
    z = cauchy_characteristic(dist)
    zval = z.at(q)
    if not any(zval):
        raise PreconditionError("characteristic field vanishes at %s"
                                % point_str(q))
    if all(c.is_const() for c in z.components):
        result = _deprolong_rectified(dist, q, z)
        if result is not None:
            return result
    return _deprolong_invariants(dist, q)


def _deprolong_rectified(dist, q, z):
    chart = dist.chart
    n = chart.dim
    zv = [c.const_value() for c in z.components]
    # invertible A with A z = e_{n-1}: invert the matrix sending e_{n-1} -> z
    j = max(i for i, v in enumerate(zv) if v)
    cols = []
    for i in range(n):
        if i == j:
            continue
        e = [Q(0)] * n
        e[i] = Q(1)
        cols.append(e)
    cols.append(zv)
    m = [[cols[c][r] for c in range(n)] for r in range(n)]
    a = q_inverse(m)
    frame = [linear_change(f, a) for f in dist.frame]
    f1, f2, f3 = square_fields(Distribution(chart, frame))[:3]
    w = chart.coords[-1]
    # rref with the w-column first so the characteristic row separates
    order = [n - 1] + list(range(n - 1))
    ech = QEchelon(n)
    for f in (f1, f2, f3):
        ech.add([f.components[c] for c in order])
    if ech.rank != 3 or 0 not in ech.pivots:
        return None
    rref = [ech.pivots[c] for c in sorted(ech.pivots)]
    # row 0 must be exactly the characteristic direction e_w
    if any(not rref[0][c].is_zero() for c in range(1, n)):
        return None
    quotient_rows = rref[1:]
    for row in quotient_rows:
        if not row[0].is_zero():
            return None
        for entry in row[1:]:
            if w in entry.num.variables_used() or w in entry.den.variables_used():
                return None
    new_chart = Chart(chart.coords[:-1])
    ring = new_chart.ring
    fields = [VectorField(new_chart, [e.embed(ring) for e in row[1:]])
              for row in quotient_rows]
    out = Distribution(new_chart, fields)
    qq = [as_q(x) for x in q]
    moved = [sum((a[i][j] * qq[j] for j in range(n)), Q(0)) for i in range(n)]
    rep = weak_flag(out, moved[:-1])
    return DeprolongResult(rectified=True, distribution=out,
                           growth=rep.growth_vector, cube=rep.cube,
                           note="characteristic field rectified to d/d%s" % w)


def _deprolong_invariants(dist, q):
    n = dist.chart.dim
    rep = FlagReport(*_weak_levels(                      # the flag of D^2
        lambda w: dist.word_value(w, q),
        lambda w: not dist.word_field(w).is_zero(),
        (0, 1, (0, 1)), n, n))
    growth = tuple(d - 1 for d in rep.dims)
    cube = rep.cube - 1
    return DeprolongResult(rectified=False, growth=growth, cube=cube,
                           note="not rectified; invariants from the weak "
                                "derived flag of D^2")


def deprolongation_degree(dist, q):
    """Iterate deprolongation until the cube is 5-dimensional or the Engel
    model appears, reading each step off the strong growth `dims` at q.

    A cube-4 D is locally the Cartan prolongation of its deprolongation
    D_-1, whose strong flag it shifts by one: dim D^[i+1] = dim D_-1^[i] + 1.
    For rank 2 the weak and strong cubes agree (D^[3] = D^2 + [D^2, D^2] =
    D^3), so while every step has cube 4, step s has cube dims[2 + s] - s
    and, on dimension n - s = 4, growth dims[s:] - s.  (The weak flag does
    not shift: prolonged Monge 5 has weak growth (2, 3, 4, 5, 6), strong
    (2, 3, 4, 6).)  Returns (s, terminal), terminal "cube5" or "engel".
    Every step returns or raises by step n - 4, where the dimension is 4,
    or at step 0 when the cube is at most 3.
    """
    n = dist.chart.dim
    dims = strong_flag(dist, q).dims
    for s in range(max(n - 3, 1)):
        cube_s = dims[min(2 + s, len(dims) - 1)] - s
        if cube_s == 5:
            return s, "cube5"
        if n - s == 4:
            growth = tuple(d - s for d in dims[s:])
            if growth == (2, 3, 4):
                return n - 4, "engel"
            raise PreconditionError(
                "deprolongation reached dimension 4 with growth %s"
                % (growth,))
        if cube_s < 4:
            raise PreconditionError(
                "deprolongation stalled: cube dimension %d at step %d"
                % (cube_s, s))


# ---------------------------------------------------------------------------
# graded symbols and flat models
# ---------------------------------------------------------------------------

def free_nilpotent_symbol(step):
    """Free 2-generator nilpotent symbol of the given step, in the Lyndon
    basis ordered by degree.  The value of a bracket word is its
    tensor-algebra expansion over the words of length <= step."""
    if step < 2:
        raise ValueError("step must be >= 2")
    basis = lyndon_basis(step)
    column = {w: i for i, w in enumerate(
        w for d in range(1, step + 1)
        for w in itertools.product((0, 1), repeat=d))}

    def value(word):
        v = [Q(0)] * len(column)
        for w, c in expand_word(word).items():
            v[column[w]] = c
        return v

    sym = _symbol_from_basis([[bracket_word(w) for w in basis if len(w) == d]
                              for d in range(1, step + 1)], value)
    sym.labels = ["".join("ab"[c] for c in w) for w in basis]
    return sym


def left_invariant_fields(sym, vectors):
    """Left-invariant vector fields with the given values sum v_i e_i at
    the identity, in exponential coordinates of the second kind
    g = exp(x1 e1) ... exp(xn en) on the group of the graded symbol.

    They come from the Maurer-Cartan form: g^-1 dg/dx_k is
    w_k = Ad(exp(-xn en)) ... Ad(exp(-x_{k+1} e_{k+1})) e_k, each Ad a finite
    ad-exponential, and X_v = sum c_k d/dx_k with sum c_k w_k = v.  The basis
    is ordered by depth, so w_k is e_k plus deeper terms and forward
    substitution solves the unipotent lower-triangular system."""
    n = sym.total_dim
    chart = Chart(tuple("x%d" % (i + 1) for i in range(n)))
    ring = chart.ring
    xs = ring.gens()
    # ad[j] lists (b, m, c): [e_j, e_b] has coefficient c on e_m
    ad = [[(b, m, c) for b, row in enumerate(rows) for m, c in enumerate(row)
           if c] for rows in sym.structure]

    def ad_exp(j, w):
        """Ad(exp(-x_j e_j)) w = sum_p (-x_j)^p / p! ad_{e_j}^p w."""
        out, term, p = list(w), w, 0
        while True:
            p += 1
            nxt = [ring.zero()] * n
            for b, m, c in ad[j]:
                if not term[b].is_zero():
                    nxt[m] = nxt[m] + term[b].scale(c)
            if all(t.is_zero() for t in nxt):
                return out
            term = [(t * xs[j]).scale(Q(-1, p)) for t in nxt]
            out = [o + t for o, t in zip(out, term)]

    omega = []
    for k in range(n):
        w = [ring.one() if i == k else ring.zero() for i in range(n)]
        for j in range(k + 1, n):
            w = ad_exp(j, w)
        omega.append(w)
    fields = []
    for v in vectors:
        c = []
        for i in range(n):
            ci = ring.const(v[i])
            for k in range(i):
                ci = ci - c[k] * omega[k][i]
            c.append(ci)
        fields.append(VectorField(chart, [RatFunc.from_poly(p) for p in c]))
    return fields


def flat_from_symbol(sym):
    """Left-invariant flat distribution of a graded symbol, as a polynomial
    frame in exponential coordinates of the second kind."""
    sym.validate()
    units = [[Q(int(i == j)) for j in range(sym.total_dim)]
             for i in range(sym.dims[0])]
    frame = left_invariant_fields(sym, units)
    return Distribution(frame[0].chart, frame)


# ---------------------------------------------------------------------------
# model registry for the CLI
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    family: str
    params: dict
    distribution: Distribution

    @property
    def base_point(self):
        return [Q(0)] * self.distribution.chart.dim


def _param(family, params, name):
    if name not in params:
        raise ValueError("model %s needs --%s" % (family, name))
    return int(params[name])


def build_model(family, **params):
    if family == "monge":
        n = _param(family, params, "n")
        dist = monge_model(n)
        return ModelSpec("monge", {"n": n}, dist)
    if family in ("cartan-jet", "cartan_jet"):
        k = _param(family, params, "k")
        return ModelSpec("cartan-jet", {"k": k}, cartan_jet(k))
    if family in ("free-flat", "free_flat"):
        step = _param(family, params, "step")
        sym = free_nilpotent_symbol(step)
        return ModelSpec("free-flat", {"step": step}, flat_from_symbol(sym))
    if family == "prolonged":
        raise ValueError("model prolonged needs a base model: use "
                         "--model BASE --prolong COUNT")
    raise ValueError("unknown model family %r" % family)
