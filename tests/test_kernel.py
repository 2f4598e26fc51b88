"""Exact arithmetic kernel: polynomials, rational functions, linear algebra."""

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from rank2dist.kernel import (PoleError, Poly, PolyRing, Q, RatFunc,
                              ZeroDenominatorError, as_q, clear_denominators,
                              divexact, poly_gcd, q_inverse, q_nullspace,
                              q_rank, q_rref, q_solve, rf_nullspace, rf_rref,
                              rf_solve_minimal)

R3 = PolyRing(("x", "y", "z"))
X, Y, Z = R3.gens()


# -- strategies -------------------------------------------------------------

rationals = st.builds(Q, st.integers(-50, 50), st.integers(1, 10))


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        c = draw(rationals)
        if c:
            terms[R3.encode(exps)] = c
    return Poly(R3, dict(terms))


@st.composite
def ratfuncs(draw, max_terms=4, max_exp=3):
    num = draw(polys(max_terms=max_terms, max_exp=max_exp))
    den = draw(polys(max_terms=min(max_terms, 3), max_exp=min(max_exp, 2)))
    if den.is_zero():
        den = R3.one()
    return RatFunc(num, den)


def to_sympy(p, syms):
    out = sp.Integer(0)
    for k, c in p.terms.items():
        term = sp.Rational(int(c.numerator), int(c.denominator))
        for s, e in zip(syms, p.ring.decode(k)):
            term *= s ** e
        out += term
    return sp.expand(out)


SYMS = sp.symbols("x y z")


# -- Poly -------------------------------------------------------------------

class TestPoly:
    def test_basic_arithmetic(self):
        p = (X + Y) * (X - Y)
        assert p == X * X - Y * Y

    def test_pow(self):
        assert (X + 1) ** 3 == X ** 3 + 3 * X * X + 3 * X + 1

    def test_diff(self):
        p = X ** 2 * Y + Z
        assert p.diff("x") == 2 * X * Y
        assert p.diff("z") == R3.one()
        assert p.diff("y") == X ** 2

    def test_eval(self):
        p = X * Y - Z ** 2
        assert p.eval([Q(2), Q(3), Q(1)]) == Q(5)

    def test_subs(self):
        p = X ** 2 + Y
        q = p.subs([Y, X, Z])       # x -> y, y -> x
        assert q == Y ** 2 + X

    def test_embed(self):
        big = PolyRing(("x", "y", "z", "w"))
        p = (X + Y).embed(big)
        assert p.ring is big
        assert p.eval([Q(1), Q(2), Q(0), Q(9)]) == Q(3)

    def test_embed_drops_unused_variables(self):
        small = PolyRing(("y", "x"))
        p = (X * X * Y + 3).embed(small)
        assert p.ring is small
        assert p.eval([Q(2), Q(5)]) == Q(53)
        with pytest.raises(ValueError):
            (X + Z).embed(small)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_sympy(self, p, q):
        assert to_sympy(p * q, SYMS) == sp.expand(
            to_sympy(p, SYMS) * to_sympy(q, SYMS))

    @given(polys(), polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_diff_leibniz(self, p):
        q = X * Y + 1
        lhs = (p * q).diff("x")
        assert lhs == p.diff("x") * q + p * q.diff("x")


class TestGcd:
    def test_divexact(self):
        p = (X + Y) * (X - Z) * (Y + 2)
        assert divexact(p, X + Y) == (X - Z) * (Y + 2)

    def test_divexact_inexact(self):
        with pytest.raises(ValueError):
            divexact(X * X + 1, X + 1)

    def test_gcd_simple(self):
        g = poly_gcd((X + Y) * (X - Y), (X + Y) * Z)
        assert g == X + Y

    @given(polys(max_terms=2, max_exp=2), polys(max_terms=2, max_exp=2),
           polys(max_terms=2, max_exp=1))
    @settings(max_examples=30, deadline=None)
    def test_gcd_divides_both(self, a, b, c):
        f, g = a * c, b * c
        if f.is_zero() or g.is_zero():
            return
        d = poly_gcd(f, g)
        assert not d.is_zero()
        # the gcd divides both inputs exactly
        divexact(f, d)
        divexact(g, d)
        # the common factor divides the gcd (up to a rational unit)
        if not c.is_const():
            assert poly_gcd(c, d).total_degree() == c.total_degree()


# -- RatFunc ----------------------------------------------------------------

class TestRatFunc:
    def test_cancellation(self):
        f = RatFunc(X * X - 1, X - 1)
        assert f == RatFunc.from_poly(X + 1)

    def test_canonical_den_monic(self):
        f = RatFunc(X, (Y * 2))
        assert f.den == Y
        assert f.num == X.scale(Q(1, 2))

    def test_add_inverse(self):
        f = RatFunc(X, Y + 1)
        assert (f - f).is_zero()

    def test_quotient_rule(self):
        f = RatFunc(X * X, Y + 1)
        d = f.diff("y")
        assert d == RatFunc(-(X * X), (Y + 1) * (Y + 1))

    def test_pole(self):
        f = RatFunc(R3.one(), X)
        with pytest.raises(PoleError):
            f.eval([Q(0), Q(1), Q(1)])
        assert f.eval([Q(2), Q(0), Q(0)]) == Q(1, 2)

    def test_zero_division(self):
        with pytest.raises(ZeroDenominatorError):
            RatFunc(X, R3.zero())

    @given(ratfuncs(), ratfuncs())
    @settings(max_examples=40, deadline=None)
    def test_field_axioms(self, f, g):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) - g == f
        if not g.is_zero():
            assert (f / g) * g == f

    # derivation check squares the product denominator; keep degrees small
    @given(ratfuncs(max_terms=3, max_exp=2), ratfuncs(max_terms=3, max_exp=2))
    @settings(max_examples=30, deadline=None)
    def test_diff_is_derivation(self, f, g):
        lhs = (f * g).diff("x")
        rhs = f.diff("x") * g + f * g.diff("x")
        assert lhs == rhs

    @given(ratfuncs())
    @settings(max_examples=30, deadline=None)
    def test_eval_matches_sympy(self, f):
        pt = [Q(1), Q(2), Q(3)]
        sf = to_sympy(f.num, SYMS) / to_sympy(f.den, SYMS)
        try:
            ours = f.eval(pt)
        except PoleError:
            return
        theirs = sp.Rational(sf.subs(dict(zip(SYMS, [1, 2, 3]))))
        assert sp.Rational(int(ours.numerator), int(ours.denominator)) == theirs


# -- linear algebra over Q --------------------------------------------------

class TestQLinear:
    def test_rank(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert q_rank(rows, 3) == 2
        assert q_rank(rows, 3) == sp.Matrix(rows).rank()

    def test_nullspace(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        rank, basis = q_nullspace(rows, 3)
        assert rank == 2 and len(basis) == 1
        v = basis[0]
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0

    def test_solve(self):
        rows = [[1, 1], [1, -1]]
        x = q_solve(rows, [Q(3), Q(1)], 2)
        assert x == [Q(2), Q(1)]
        assert q_solve([[1, 1], [1, 1]], [Q(0), Q(1)], 2) is None

    def test_inverse(self):
        m = [[2, 1, 0], [0, 1, 0], [1, 0, 1]]
        inv = q_inverse(m)
        for i in range(3):
            for j in range(3):
                assert sum(m[i][k] * inv[k][j] for k in range(3)) == \
                    (1 if i == j else 0)
        with pytest.raises(ValueError):
            q_inverse([[1, 2], [2, 4]])

    def test_rref_pivots(self):
        rows = [[0, 1, 2], [1, 0, 1]]
        rref, pivots = q_rref(rows, 3)
        assert pivots == [0, 1]

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_sympy(self, rows):
        mat = [[sp.Rational(int(x.numerator), int(x.denominator))
                for x in r] for r in rows]
        assert q_rank(rows, 3) == sp.Matrix(mat).rank()


class TestRFLinear:
    def test_rf_rank(self):
        one = RatFunc.from_poly(R3.one())
        x = RatFunc.from_poly(X)
        rows = [[one, x], [x, x * x]]
        _, pivots = rf_rref(rows, 2)
        assert len(pivots) == 1

    def test_rf_nullspace_clears_denominators(self):
        x = RatFunc.from_poly(X)
        one = RatFunc.from_poly(R3.one())
        rank, basis = rf_nullspace([[x, one]], 2)
        assert rank == 1 and len(basis) == 1
        v = basis[0]
        assert all(b.is_poly() for b in v)
        assert (v[0] * x + v[1]).is_zero()

    def test_rf_solve_minimal(self):
        x = RatFunc.from_poly(X)
        one = RatFunc.from_poly(R3.one())
        sol = rf_solve_minimal([[one, x, one]],
                               [RatFunc.from_poly(Y)], 3)
        assert sol is not None
        got = sol[0] + sol[1] * x + sol[2]
        assert got == RatFunc.from_poly(Y)
        # minimal support: non-pivot coordinates stay zero
        assert sum(0 if s.is_zero() else 1 for s in sol) == 1

    def test_clear_denominators(self):
        f = RatFunc(R3.one(), X)
        g = RatFunc(Y, X * X)
        out = clear_denominators([f, g])
        assert all(o.is_poly() for o in out)

    def test_qmatrix(self):
        rank, basis = q_nullspace([[1, 2], [2, 4]], 2)
        assert rank == 1 and basis == [[Q(-2), Q(1)]]


def test_as_q_forms():
    assert as_q("3/4") == Q(3, 4)
    assert as_q(7) == Q(7)
