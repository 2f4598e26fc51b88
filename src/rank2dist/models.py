"""Model families and transformers: Monge flat models, Cartan jet models,
prolongation, deprolongation (with degree), free nilpotent symbols, and
flat distributions built from graded symbols."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DegenerateFrame, PreconditionError
from .kernel import (PoleError, Poly, PolyRing, Q, QEchelon, RatFunc, as_q,
                     clear_denominators, q_inverse, rf_nullspace, rf_rref)
from .geometry import Chart, OneForm, VectorField, lie_bracket, linear_change
from .distribution import (Distribution, GradedSymbol, cube_dim,
                           sample_point_near, weak_flag)
from .freelie import FreeLieTruncated, bch_words


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


def monge_pfaffian_forms(n):
    """The n-2 annihilator one-forms of the Monge model:
    dy_i - y_{i+1} dx (0 <= i <= n-4) and dz - y_{n-3}^2 dx."""
    dist = monge_model(n)
    chart = dist.chart
    ring = chart.ring
    m = n - 3
    forms = []
    zero = RatFunc.from_const(ring, 0)
    one = RatFunc.from_const(ring, 1)
    for i in range(m):
        comps = [zero] * n
        comps[0] = -RatFunc.variable(ring, "y%d" % (i + 1))
        comps[1 + i] = one
        forms.append(OneForm(chart, comps))
    comps = [zero] * n
    ym = RatFunc.variable(ring, "y%d" % m)
    comps[0] = -(ym * ym)
    comps[n - 1] = one
    forms.append(OneForm(chart, comps))
    return forms


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


def _square_frame(dist):
    x1, x2 = dist.frame[0], dist.frame[1]
    return [x1, x2, lie_bracket(x1, x2)]


def _check_cube4_near(dist, q, samples=2, seed=0):
    rng = random.Random(seed)
    pts = [list(q)]
    budget = 20
    while len(pts) < samples + 1 and budget:
        budget -= 1
        p = sample_point_near(q, rng)
        try:
            dist.check_frame_at(p)
        except (PoleError, DegenerateFrame):
            continue
        pts.append(p)
    for p in pts:
        try:
            c = cube_dim(dist, p)
        except PoleError:
            continue
        if c != 4:
            raise PreconditionError("cube dimension is %d (need 4) at %s"
                                    % (c, p))


def cauchy_characteristic(dist):
    """Characteristic direction Z = a X1 + b X2 of D^2 lying in D, as an
    exact function-field solution.  Returns Z (denominators cleared)."""
    chart = dist.chart
    n = chart.dim
    x1, x2, x3 = _square_frame(dist)
    b1 = lie_bracket(x1, x3)
    b2 = lie_bracket(x2, x3)
    # columns: B1, B2, X1, X2, X3 -- nullspace vectors give (a, b, *)
    cols = [b1, b2, x1, x2, x3]
    rows = [[f.components[i] for f in cols] for i in range(n)]
    rank, basis = rf_nullspace(rows, 5)
    for vec in basis:
        a, b = vec[0], vec[1]
        if not (a.is_zero() and b.is_zero()):
            z = x1.scaled(a) + x2.scaled(b)
            return VectorField(chart, clear_denominators(list(z.components)))
    raise PreconditionError("no Cauchy characteristic of D^2 inside D "
                            "(cube is not 4-dimensional?)")


def deprolong(dist, q, seed=0):
    """One deprolongation step at q.  Requires dim D^3 = 4 near q.

    Tier 1: if the characteristic field rectifies by an exact linear
    change (constant Z), returns the quotient distribution on n-1
    coordinates.  Tier 2: returns invariants of the deprolonged germ only.
    """
    chart = dist.chart
    n = chart.dim
    _check_cube4_near(dist, q, seed=seed)
    z = cauchy_characteristic(dist)
    zval = z.at(q)
    if not any(zval):
        raise PreconditionError("characteristic field vanishes at %s"
                                % (list(q),))
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
    moved = Distribution(chart, frame)
    f1, f2, f3 = _square_frame(moved)
    w = chart.coords[-1]
    # rref with the w-column first so the characteristic row separates
    order = [n - 1] + list(range(n - 1))
    rows = [[f.components[c] for c in order] for f in (f1, f2, f3)]
    rref, pivots = rf_rref(rows, n)
    if len(rref) != 3 or pivots[0] != 0:
        return None
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
                           growth=rep.growth_vector,
                           cube=rep.dims[min(2, len(rep.dims) - 1)],
                           note="characteristic field rectified to d/d%s" % w)


def _deprolong_invariants(dist, q):
    sq = Distribution(dist.chart, _square_frame(dist))
    rep = weak_flag(sq, q)
    growth = tuple(d - 1 for d in rep.dims)
    cube = rep.dims[min(2, len(rep.dims) - 1)] - 1
    return DeprolongResult(rectified=False, growth=growth, cube=cube,
                           note="not rectified; invariants from the weak "
                                "derived flag of D^2")


def deprolongation_degree(dist, q, cap=None, seed=0):
    """Iterate deprolongation (via invariants of iterated squares) until
    the cube is 5-dimensional or the Engel model appears.

    Returns (s, terminal) with terminal in {"cube5", "engel"}.
    """
    chart = dist.chart
    n = chart.dim
    if cap is None:
        cap = n
    frame = list(dist.frame)
    s = 0
    while s <= cap:
        e = Distribution(chart, frame)
        rep = weak_flag(e, q, max_depth=3 if n - s > 4 else None)
        dims = rep.dims
        cube_s = dims[min(2, len(dims) - 1)] - s
        if cube_s == 5:
            return s, "cube5"
        if n - s == 4:
            growth = tuple(d - s for d in dims)
            if growth == (2, 3, 4):
                return n - 4, "engel"
            raise PreconditionError(
                "deprolongation reached dimension 4 with growth %s"
                % (growth,))
        if cube_s < 4:
            raise PreconditionError(
                "deprolongation stalled: cube dimension %d at step %d"
                % (cube_s, s))
        # next square: frame + pairwise brackets, pruned pointwise at q
        new_fields = list(frame)
        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                b = lie_bracket(frame[i], frame[j])
                if not b.is_zero():
                    new_fields.append(b)
        ech = QEchelon(n)
        pruned = [f for f in new_fields if ech.add(f.at(q))]
        frame = pruned
        s += 1
    raise PreconditionError("deprolongation cap %d exceeded" % cap)


# ---------------------------------------------------------------------------
# graded symbols and flat models
# ---------------------------------------------------------------------------

def free_nilpotent_symbol(step):
    """Free 2-generator nilpotent symbol of the given step, in the Lyndon
    basis ordered by degree."""
    if step < 2:
        raise ValueError("step must be >= 2")
    fl = FreeLieTruncated(step)
    labels = ["".join("ab"[c] for c in w) for w in fl.basis]
    sym = GradedSymbol(dims=list(fl.dims), structure=fl.structure_constants(),
                       labels=labels, words=list(fl.bracket_words))
    sym.validate()
    return sym


class NilpotentGroup:
    """Simply connected nilpotent group of a graded symbol, in exponential
    coordinates of the second kind, with exact polynomial group data."""

    def __init__(self, sym):
        sym.validate()
        self.sym = sym
        self.n = sym.total_dim
        self.mu = sym.depth
        self.coords = tuple("x%d" % (i + 1) for i in range(self.n))
        self.chart = Chart(self.coords)
        self._bch = bch_words(self.mu)

    # Lie algebra elements carry coefficients from an arbitrary PolyRing.

    def _basis_elt(self, i, ring, coeff=None):
        zero = ring.zero()
        v = [zero] * self.n
        v[i] = ring.one() if coeff is None else coeff
        return v

    def _bracket(self, u, v, ring):
        out = [ring.zero()] * self.n
        st = self.sym.structure
        for a in range(self.n):
            ua = u[a]
            if ua.is_zero():
                continue
            for b in range(self.n):
                vb = v[b]
                if vb.is_zero():
                    continue
                row = st[a][b]
                prod = None
                for k in range(self.n):
                    if row[k]:
                        if prod is None:
                            prod = ua * vb
                        out[k] = out[k] + prod.scale(row[k])
        return out

    def bch(self, u, v, ring):
        """Baker-Campbell-Hausdorff product log(exp(u) exp(v))."""
        cache = {}

        def ev(word):
            if isinstance(word, int):
                return u if word == 0 else v
            key = id(word)
            got = cache.get(key)
            if got is None:
                got = self._bracket(ev(word[0]), ev(word[1]), ring)
                cache[key] = got
            return got

        out = [ring.zero()] * self.n
        for word, c in self._bch:
            val = ev(word)
            out = [o + x.scale(c) for o, x in zip(out, val)]
        return out

    def log_coords(self, ring, xs):
        """log of exp(x1 e1) ... exp(xn en) as a Lie algebra element."""
        z = self._basis_elt(0, ring, xs[0])
        for k in range(1, self.n):
            z = self.bch(z, self._basis_elt(k, ring, xs[k]), ring)
        return z

    def second_kind_coords(self, z, ring):
        """Coordinates y with exp(y1 e1) ... exp(yn en) = exp(z).

        Valid because the basis is ordered by increasing depth: brackets
        never feed back into the component currently being peeled."""
        ys = []
        for k in range(self.n):
            yk = z[k]
            ys.append(yk)
            z = self.bch(self._basis_elt(k, ring, yk.scale(-1)), z, ring)
        return ys

    def left_invariant_field(self, v_coords):
        """Left-invariant vector field with value sum v_i e_i at identity."""
        ring = PolyRing(self.coords + ("_t",))
        xs = [ring.var(nm) for nm in self.coords]
        t = ring.var("_t")
        z = self.log_coords(ring, xs)
        tv = [t.scale(c) if c else ring.zero() for c in v_coords]
        zt = self.bch(z, tv, ring)
        ys = self.second_kind_coords(zt, ring)
        t_idx = ring.index["_t"]
        comps = []
        for y in ys:
            # d/dt at t = 0: drop the terms that still carry t
            d = y.diff("_t")
            at0 = Poly(ring, {k: c for k, c in d.terms.items()
                              if not ring.decode(k)[t_idx]})
            comps.append(RatFunc.from_poly(at0.embed(self.chart.ring)))
        return VectorField(self.chart, comps)


def flat_from_symbol(sym):
    """Left-invariant flat distribution of a graded symbol, as a polynomial
    frame in exponential coordinates of the second kind."""
    grp = NilpotentGroup(sym)
    frame = []
    for i in range(sym.dims[0]):
        v = [Q(0)] * sym.total_dim
        v[i] = Q(1)
        frame.append(grp.left_invariant_field(v))
    return Distribution(grp.chart, frame)


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


def build_model(family, **params):
    if family == "monge":
        n = int(params["n"])
        dist = monge_model(n)
        return ModelSpec("monge", {"n": n}, dist)
    if family in ("cartan-jet", "cartan_jet"):
        k = int(params["k"])
        return ModelSpec("cartan-jet", {"k": k}, cartan_jet(k))
    if family in ("free-flat", "free_flat"):
        step = int(params["step"])
        sym = free_nilpotent_symbol(step)
        return ModelSpec("free-flat", {"step": step}, flat_from_symbol(sym))
    if family == "prolonged":
        base = build_model(params["base"], **params.get("base_params", {}))
        dist = base.distribution
        count = int(params.get("count", 1))
        for _ in range(count):
            dist = prolong(dist)
        return ModelSpec("prolonged",
                         {"base": base.family, **base.params, "count": count},
                         dist)
    raise ValueError("unknown model family %r" % family)
