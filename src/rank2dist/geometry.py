"""Charts, vector fields, one-forms, Lie brackets and pairings.

Everything lives on a single global polynomial/rational chart; components
are exact rational functions of the chart coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from math import lcm

from .kernel import (ModEchelon, PoleError, PolyRing, QEchelon, RatFunc,
                     as_q, q_inverse, q_residue)
from .parsing import NAME_RE, parse_expr


class ChartMismatch(ValueError):
    """Operands live on different charts."""


@dataclass(frozen=True)
class Chart:
    """An ordered global coordinate chart."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        for c in self.coords:     # reports must parse back on the chart
            if not (isinstance(c, str) and NAME_RE.fullmatch(c)):
                raise ValueError("coordinate name %.40r is not an identifier "
                                 "[A-Za-z_][A-Za-z0-9_]*" % (c,))
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be distinct")

    @property
    def dim(self):
        return len(self.coords)

    @property
    def ring(self):
        return PolyRing(self.coords)

    def ratfunc(self, text):
        """Parse an expression string on this chart."""
        return parse_expr(text, self.ring)

    def coordinate_field(self, name):
        comps = [RatFunc.from_const(self.ring, 1 if c == name else 0)
                 for c in self.coords]
        return VectorField(self, comps)

    def field(self, *exprs):
        """Vector field from one expression string per component."""
        if len(exprs) != self.dim:
            raise ValueError("need %d components" % self.dim)
        return VectorField(self, [self.ratfunc(e) if isinstance(e, str) else e
                                  for e in exprs])


def _check_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatch("objects on different charts: %s vs %s"
                            % (a.chart.coords, b.chart.coords))


class VectorField:
    """Vector field on a chart, components exact rational functions."""

    __slots__ = ("chart", "components")

    def __init__(self, chart, components):
        if len(components) != chart.dim:
            raise ValueError("component count != chart dimension")
        self.chart = chart
        self.components = tuple(components)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __hash__(self):
        return hash((self.chart, self.components))

    def __add__(self, other):
        _check_chart(self, other)
        return VectorField(self.chart,
                           [a + b for a, b in zip(self.components,
                                                  other.components)])

    def __sub__(self, other):
        _check_chart(self, other)
        return VectorField(self.chart,
                           [a - b for a, b in zip(self.components,
                                                  other.components)])

    def __neg__(self):
        return VectorField(self.chart, [-a for a in self.components])

    def scaled(self, f):
        """Multiply by a function (RatFunc) or constant."""
        if not isinstance(f, RatFunc):
            f = RatFunc.from_const(self.chart.ring, f)
        return VectorField(self.chart, [f * a for a in self.components])

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def at(self, point):
        """Exact value at a rational point, as a list of Q."""
        if len(point) != self.chart.dim:
            raise ValueError("point dimension mismatch")
        pt = [as_q(x) for x in point]
        return [c.eval(pt) for c in self.components]

    def __repr__(self):
        parts = []
        for comp, var in zip(self.components, self.chart.coords):
            if not comp.is_zero():
                parts.append("(%s)*d/d%s" % (comp.to_str(), var))
        return "VectorField(%s)" % (" + ".join(parts) or "0")


class OneForm:
    """Differential one-form on a chart."""

    __slots__ = ("chart", "components")

    def __init__(self, chart, components):
        if len(components) != chart.dim:
            raise ValueError("component count != chart dimension")
        self.chart = chart
        self.components = tuple(components)

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __hash__(self):
        return hash((self.chart, self.components))

    def __repr__(self):
        parts = []
        for comp, var in zip(self.components, self.chart.coords):
            if not comp.is_zero():
                parts.append("(%s)*d%s" % (comp.to_str(), var))
        return "OneForm(%s)" % (" + ".join(parts) or "0")


def lie_bracket(x, y):
    """Lie bracket [X, Y], component i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j)."""
    _check_chart(x, y)
    chart = x.chart
    comps = []
    for i in range(chart.dim):
        acc = RatFunc.from_const(chart.ring, 0)
        yi, xi = y.components[i], x.components[i]
        for j, var in enumerate(chart.coords):
            xj, yj = x.components[j], y.components[j]
            if not xj.is_zero():
                d = yi.diff(var)
                if not d.is_zero():
                    acc = acc + xj * d
            if not yj.is_zero():
                d = xi.diff(var)
                if not d.is_zero():
                    acc = acc - yj * d
        comps.append(acc)
    return VectorField(chart, comps)


class BracketSeries:
    """Iterated brackets ad_X^k Y_j with one field X, read off power series
    along the trajectory of X instead of bracketing symbolically.

    Let gamma be the integral curve of X through a point lam and M(t) the
    Jacobian DX(gamma(t)).  Along gamma, [X, Y] o gamma = (d/dt - M)(Y o
    gamma), so ad_X^k Y(lam) is the t^0 coefficient of L^k(Y o gamma) with
    L = d/dt - M.  Only X, the entries of DX and the Y_j are evaluated, on
    univariate series truncated at the order the requested k needs.

    The constructor compiles the fields once: every component becomes a
    sum over one shared table of monomials, each built as a smaller
    monomial times a variable.  `at(point, p)` starts the series at one
    point, over Q (p None) or modulo a prime p.
    """

    def __init__(self, x, ys):
        chart = x.chart
        self.dim = chart.dim
        self.nodes = []         # product monomial dim + i = (parent, var)
        self._node_of = {}
        self.polys = []         # (constant term, ((node, coefficient), ...))
        self.den = 1            # lcm of every coefficient denominator
        self._residues = {}
        self.x = [self._compile(c) for c in x.components]
        self.jac = [(i, k, self._compile(d))
                    for i, c in enumerate(x.components)
                    for k, var in enumerate(chart.coords)
                    for d in (c.diff(var),) if not d.is_zero()]
        self.ys = [[self._compile(c) for c in y.components] for y in ys]

    def _compile(self, rf):
        """(numerator, denominator) indices into `polys`, the denominator
        None when it is 1; None for the zero function."""
        if rf.is_zero():
            return None
        return (self._poly(rf.num),
                None if rf.den == 1 else self._poly(rf.den))

    def _poly(self, p):
        const, terms = 0, []
        for key, c in p.terms.items():
            self.den = lcm(self.den, int(c.denominator))
            exps = p.ring.decode(key)
            if any(exps):
                terms.append((self._monomial(exps), c))
            else:
                const = c
        self.polys.append((const, tuple(terms)))
        return len(self.polys) - 1

    def _monomial(self, exps):
        """Node of a nonconstant monomial: variable i for x_i, else a
        product node, created after the chain of its parents."""
        top, chain = exps, []
        while exps not in self._node_of:
            i = next(i for i, e in enumerate(exps) if e)
            parent = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            if not any(parent):
                self._node_of[exps] = i
                break
            chain.append((exps, parent, i))
            exps = parent
        for mono, parent, i in reversed(chain):
            self._node_of[mono] = self.dim + len(self.nodes)
            self.nodes.append((self._node_of[parent], i))
        return self._node_of[top]

    def residues(self, p):
        """`polys` with coefficients modulo p (p divides no denominator)."""
        out = self._residues.get(p)
        if out is None:
            out = self._residues[p] = [
                (q_residue(c0, p), tuple((k, q_residue(c, p))
                                         for k, c in terms))
                for c0, terms in self.polys]
        return out

    def at(self, point, p=None):
        return FlowSeries(self, point, p)


class FlowSeries:
    """The series of `BracketSeries` at one point, extended on demand."""

    def __init__(self, program, point, p=None):
        if len(point) != program.dim:
            raise ValueError("point dimension mismatch")
        self.prog = program
        self.p = p
        if p is None:
            self.polys = program.polys
            self.gamma = [[as_q(v)] for v in point]
        else:
            self.polys = program.residues(p)
            self.gamma = [[q_residue(v, p)] for v in point]
        self.series = self.gamma + [[] for _ in program.nodes]
        self.poly_series = [[] for _ in self.polys]
        self.rf_series = {}
        self.tower = {}         # j -> [coefficients of L^k(Y_j o gamma)]
        self.jac = []           # (i, k, series of DX^i_k(gamma))
        self.jac_order = -1

    def _norm(self, v):
        return v if self.p is None else v % self.p

    def _inverse(self, v):
        if self.p is None:
            return 1 / as_q(v)
        return pow(v, -1, self.p)

    def echelon(self):
        """An empty echelon over this field, for vectors of the chart."""
        if self.p is None:
            return QEchelon(self.prog.dim)
        return ModEchelon(self.p)

    def _flow(self, m):
        """Extend gamma to order m: gamma_{k+1} = X(gamma)_k / (k+1), one
        Picard step per order."""
        g = self.gamma
        while len(g[0]) <= m:
            k = len(g[0]) - 1
            vel = [0 if r is None else self._rf(r, k)[k]
                   for r in self.prog.x]
            inv = self._inverse(k + 1)
            for gi, v in zip(g, vel):
                gi.append(self._norm(v * inv))

    def _node(self, node, m):
        """Series of a monomial node, extended to order m."""
        series = self.series
        if len(series[node]) > m:
            return series[node]
        self._flow(m)
        dim, nodes = self.prog.dim, self.prog.nodes
        chain = []
        k = node
        while k >= dim and len(series[k]) <= m:
            chain.append(k)
            k = nodes[k - dim][0]
        for k in reversed(chain):
            parent, var = nodes[k - dim]
            a, b, s = series[parent], series[var], series[k]
            for mm in range(len(s), m + 1):
                s.append(self._norm(sum(x * b[mm - i]
                                        for i, x in enumerate(a[:mm + 1])
                                        if x and b[mm - i])))
        return series[node]

    def _poly_series(self, i, m):
        s = self.poly_series[i]
        if len(s) <= m:
            const, terms = self.polys[i]
            parts = [(self._node(k, m), c) for k, c in terms]
            for mm in range(len(s), m + 1):
                acc = sum(c * ser[mm] for ser, c in parts if ser[mm])
                s.append(self._norm(acc + const if mm == 0 else acc))
        return s

    def _rf(self, r, m):
        """Series of a compiled component (numerator, denominator) to
        order m; PoleError if the denominator vanishes at the point."""
        num, den = r
        if den is None:
            return self._poly_series(num, m)
        s = self.rf_series.setdefault(r, [])
        if len(s) <= m:
            a, b = self._poly_series(num, m), self._poly_series(den, m)
            if not b[0]:
                raise PoleError("denominator vanishes at evaluation point")
            inv = self._inverse(b[0])
            for mm in range(len(s), m + 1):
                acc = a[mm] - sum(b[i] * s[mm - i] for i in range(1, mm + 1))
                s.append(self._norm(acc * inv))
        return s

    def field_value(self):
        """X at the point."""
        return [0 if r is None else self._rf(r, 0)[0] for r in self.prog.x]

    def ad(self, j, k):
        """ad_X^k Y_j at the point."""
        rows = self.tower.setdefault(j, [])
        while len(rows) <= k:
            rows.append([])
        for i, row in enumerate(rows[:k + 1]):
            need = k - i + 1
            if len(row) >= need:
                continue
            if i == 0:
                comps = [None if r is None else self._rf(r, k)
                         for r in self.prog.ys[j]]
                for m in range(len(row), need):
                    row.append([0 if c is None else c[m] for c in comps])
            else:
                self._apply_l(rows[i - 1], row, need)
        return rows[k][0]

    def _apply_l(self, prev, row, need):
        """Extend row, the coefficients of L applied to the series with
        coefficients prev, to `need` coefficients."""
        if self.jac_order < need - 1:
            # the series lists grow in place, so they are fetched once per
            # order reached
            self.jac = [(i, k, self._rf(r, need - 1))
                        for i, k, r in self.prog.jac]
            self.jac_order = need - 1
        for m in range(len(row), need):
            out = [(m + 1) * v for v in prev[m + 1]]
            for i, k, ser in self.jac:
                acc = sum(x * prev[m - a][k] for a, x in enumerate(ser[:m + 1])
                          if x and prev[m - a][k])
                if acc:
                    out[i] -= acc
            row.append([self._norm(v) for v in out])


def linear_change(x, a):
    """Pushforward of X under the linear map q -> A q (A invertible over Q).

    A is a dim x dim matrix of rationals (list of rows).
    """
    chart = x.chart
    n = chart.dim
    rows = [[as_q(v) for v in r] for r in a]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix size != chart dimension")
    inv = q_inverse(rows)
    ring = chart.ring
    # substitute x_j <- (A^-1 y)_j into each component
    subs = []
    for j in range(n):
        p = ring.zero()
        for k in range(n):
            if inv[j][k]:
                p = p + ring.var(chart.coords[k]).scale(inv[j][k])
        subs.append(p)

    def push(rf):
        num = rf.num.subs(subs)
        den = rf.den.subs(subs)
        return RatFunc(num, den)

    comps = []
    for i in range(n):
        acc = RatFunc.from_const(ring, 0)
        for j in range(n):
            if rows[i][j] and not x.components[j].is_zero():
                acc = acc + push(x.components[j]) * rows[i][j]
        comps.append(acc)
    return VectorField(chart, comps)
