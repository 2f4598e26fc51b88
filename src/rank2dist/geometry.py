"""Charts, vector fields, one-forms, Lie brackets and pairings.

Everything lives on a single global polynomial/rational chart; components
are exact rational functions of the chart coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import PolyRing, RatFunc, as_q, q_inverse
from .parsing import parse_expr


class ChartMismatch(ValueError):
    """Operands live on different charts."""


@dataclass(frozen=True)
class Chart:
    """An ordered global coordinate chart."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
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

    def apply_to(self, f):
        """Directional derivative X(f) of a scalar function."""
        out = RatFunc.from_const(self.chart.ring, 0)
        for comp, var in zip(self.components, self.chart.coords):
            if not comp.is_zero():
                out = out + comp * f.diff(var)
        return out

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


def pair(omega, x):
    """Pairing <omega, X> = sum_i omega_i X^i."""
    _check_chart(omega, x)
    out = RatFunc.from_const(x.chart.ring, 0)
    for wi, xi in zip(omega.components, x.components):
        if not (wi.is_zero() or xi.is_zero()):
            out = out + wi * xi
    return out


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
