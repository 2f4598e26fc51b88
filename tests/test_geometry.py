"""Charts, vector fields, brackets, forms, linear changes."""

import sympy as sp
from hypothesis import given, settings, strategies as st

from rank2dist.geometry import (Chart, OneForm, VectorField, lie_bracket,
                                linear_change)
from rank2dist.kernel import Q, RatFunc

from oracles import apply_to, pair, sym_bracket, sym_vars

CH = Chart(("x", "y", "z"))


@st.composite
def poly_fields(draw):
    exprs = []
    monos = ["1", "x", "y", "z", "x*y", "y^2", "x*z"]
    for _ in range(3):
        k = draw(st.integers(0, 2))
        parts = [draw(st.sampled_from(monos)) for _ in range(k)]
        coeffs = [draw(st.integers(-3, 3)) for _ in range(k)]
        expr = " + ".join("%d*%s" % (c, m) for c, m in zip(coeffs, parts))
        exprs.append(expr or "0")
    return CH.field(*exprs)


def to_sym(vf, syms):
    out = []
    for c in vf.components:
        pt = dict(zip(syms, syms))
        out.append(sp.nsimplify(sp.sympify(c.to_str().replace("^", "**"))))
    return out


class TestVectorField:
    def test_coordinate_field(self):
        dx = CH.coordinate_field("x")
        assert dx.components[0] == 1
        assert dx.components[1].is_zero()

    def test_apply_to(self):
        v = CH.field("y", "0", "0")
        f = CH.ratfunc("x^2")
        assert apply_to(v, f) == CH.ratfunc("2*x*y")

    def test_at(self):
        v = CH.field("x + y", "1", "x*z")
        assert v.at([Q(1), Q(2), Q(3)]) == [Q(3), Q(1), Q(3)]


class TestBracket:
    def test_textbook(self):
        dx = CH.coordinate_field("x")
        xdy = CH.field("0", "x", "0")
        assert lie_bracket(dx, xdy) == CH.coordinate_field("y")

    def test_antisymmetry_zero_self(self):
        v = CH.field("x*y", "z", "1")
        assert lie_bracket(v, v).is_zero()

    @given(poly_fields(), poly_fields())
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry(self, a, b):
        assert lie_bracket(a, b) == -lie_bracket(b, a)

    @given(poly_fields(), poly_fields(), poly_fields())
    @settings(max_examples=15, deadline=None)
    def test_jacobi(self, a, b, c):
        j = lie_bracket(a, lie_bracket(b, c)) + \
            lie_bracket(b, lie_bracket(c, a)) + \
            lie_bracket(c, lie_bracket(a, b))
        assert j.is_zero()

    @given(poly_fields(), poly_fields())
    @settings(max_examples=15, deadline=None)
    def test_leibniz_function_factor(self, a, b):
        f = CH.ratfunc("x + 2*y")
        lhs = lie_bracket(a, b.scaled(f))
        rhs = lie_bracket(a, b).scaled(f) + b.scaled(apply_to(a, f))
        assert lhs == rhs

    @given(poly_fields(), poly_fields())
    @settings(max_examples=10, deadline=None)
    def test_matches_sympy_oracle(self, a, b):
        syms = sym_vars(["x", "y", "z"])
        sa = [sp.sympify(c.to_str().replace("^", "**")) for c in a.components]
        sb = [sp.sympify(c.to_str().replace("^", "**")) for c in b.components]
        expect = sym_bracket(sa, sb, syms)
        got = lie_bracket(a, b)
        for g, e in zip(got.components, expect):
            assert sp.expand(
                sp.sympify(g.to_str().replace("^", "**")) - e) == 0


class TestForms:
    def test_pair(self):
        w = OneForm(CH, [CH.ratfunc(e) for e in ("y", "0", "1")])
        v = CH.field("x", "5", "z")
        assert pair(w, v) == CH.ratfunc("x*y + z")


class TestLinearChange:
    def test_diagonal(self):
        dx = CH.coordinate_field("x")
        out = linear_change(dx, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert out == CH.field("2", "0", "0")

    def test_naturality_bracket(self):
        a = CH.field("y", "x*z", "1")
        b = CH.field("0", "x", "y")
        m = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]
        lhs = linear_change(lie_bracket(a, b), m)
        rhs = lie_bracket(linear_change(a, m), linear_change(b, m))
        assert lhs == rhs

    def test_inverse_round_trip(self):
        a = CH.field("x*y", "z^2", "x + 1")
        m = [[1, 2, 0], [0, 1, 0], [0, 0, 3]]
        minv = [[1, -2, 0], [0, 1, 0], [0, 0, Q(1, 3)]]
        assert linear_change(linear_change(a, m), minv) == a
