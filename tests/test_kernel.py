"""Exact arithmetic kernel: polynomials, rational functions, linear algebra."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from rank2dist.kernel import (PoleError, Poly, PolyRing, Q, QEchelon,
                              RatFunc, ZeroDenominatorError, as_q,
                              clear_denominators, divexact, poly_gcd,
                              q_coordinates, q_inverse, q_nullspace,
                              q_sparse_nullspace, rf_nullspace,
                              rf_solve_minimal)
from rank2dist import kernel
from oracles import rf_rref

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

    def test_pow_overflow(self):
        assert (X * Y ** 2) ** 32767 == X ** 32767 * Y ** 65534
        with pytest.raises(OverflowError):
            (X * Y ** 2) ** 32768

    def test_product_exponent_overflow(self):
        # 40000 + 40000 used to carry into the next variable's field
        assert X ** 32768 * X ** 32767 == X ** 65535
        assert (X ** 40000 + Y) * Y ** 40000 == X ** 40000 * Y ** 40000 + \
            Y ** 40001
        for a, b in ((X ** 40000, X ** 40000), (X ** 65535, X + 1),
                     (Y + Z ** 40000, X * Z ** 30000)):
            with pytest.raises(OverflowError):
                a * b

    def test_encode_rejects_exponents_outside_the_field(self):
        assert R3.decode(R3.encode((65535, 0, 3))) == (65535, 0, 3)
        for exps in ((65536, 0, 0), (0, -1, 0)):
            with pytest.raises(OverflowError):
                R3.encode(exps)

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

    @given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2),
           polys(max_terms=3, max_exp=2))
    @settings(max_examples=30, deadline=None)
    def test_gcd_matches_sympy(self, a, b, c):
        f, g = a * c * c, b * c
        if f.is_zero() or g.is_zero():
            return
        want = sp.Poly(sp.gcd(to_sympy(f, SYMS), to_sympy(g, SYMS)), *SYMS)
        want = Poly(R3, {R3.encode(m): Q(int(v.p), int(v.q))
                         for m, v in want.terms()})
        assert poly_gcd(f, g) == kernel._int_primitive(want)

    # small operands: the pseudo-remainder sequence alone is slow on more
    @given(polys(max_terms=2, max_exp=2), polys(max_terms=2, max_exp=2),
           polys(max_terms=2, max_exp=2))
    @settings(max_examples=30, deadline=None)
    def test_heuristic_matches_prs(self, a, b, c):
        f, g = a * c, b * c
        heuristic = poly_gcd(f, g)
        real = kernel._heu_gcd
        kernel._heu_gcd = lambda *args: None
        try:
            assert poly_gcd(f, g) == heuristic
        finally:
            kernel._heu_gcd = real

    def test_large_exponents_take_the_prs(self, monkeypatch):
        def heuristic(*args):
            raise AssertionError("heuristic gcd with an exponent >= 2^15")
        monkeypatch.setattr(kernel, "_heu_gcd", heuristic)
        assert poly_gcd(X ** 33000 * (X + Y), (X + Y) * Y * Z) == X + Y

    def test_dense_common_factor(self):
        # the sum of f' g and f g' below had the pseudo-remainder sequence
        # run for minutes on its denominators
        f = RatFunc(Q(1, 2) * X * Y ** 2 * Z ** 2 - Q(23, 60) * Z,
                    X * Y ** 2 * Z ** 2 - Q(49, 60) * X * Y ** 2 + Q(7, 8) * Z)
        g = RatFunc(Q(-33, 8) * X * Y * Z ** 2 - Q(423, 32) * X * Y ** 2
                    - Q(81, 16) * X * Z,
                    X ** 2 * Y * Z - Q(27, 4) * Y * Z - Q(21, 8) * X)
        assert (f * g).diff("x") == f.diff("x") * g + f * g.diff("x")


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

def sym_matrix(rows):
    return sp.Matrix([[sp.Rational(int(x.numerator), int(x.denominator))
                       for x in r] for r in rows])


def echelon(rows, ncols):
    ech = QEchelon(ncols)
    for r in rows:
        ech.add(r)
    return ech


class TestQLinear:
    def test_rank(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert echelon(rows, 3).rank == 2
        assert echelon(rows, 3).rank == sp.Matrix(rows).rank()

    def test_nullspace(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        rank, basis = q_nullspace(rows, 3)
        assert rank == 2 and len(basis) == 1
        v = basis[0]
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0

    def test_solve(self):
        # (3, 1) = 2 (1, 1) + (1, -1)
        coordinates = q_coordinates([[1, 1], [1, -1]], 2)
        assert coordinates([Q(3), Q(1)]) == [Q(2), Q(1)]
        assert q_coordinates([[1, 1]], 2)([Q(0), Q(1)]) is None
        with pytest.raises(ValueError):
            q_coordinates([[1, 2, 3], [2, 4, 6]], 3)

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
        ech = echelon([[0, 1, 2], [1, 0, 1]], 3)
        assert sorted(ech.pivots) == [0, 1]
        assert ech.pivots == {0: [1, 0, 1], 1: [0, 1, 2]}

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=0, max_size=4),
           st.lists(rationals, min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_coordinates_match_sympy(self, vectors, v):
        mat = sym_matrix(vectors).T if vectors else sp.zeros(4, 0)
        if mat.rank() < len(vectors):
            with pytest.raises(ValueError):
                q_coordinates(vectors, 4)
            return
        coordinates = q_coordinates(vectors, 4)
        # a vector in the span gets exactly the coefficients it was made of
        coeffs = v[:len(vectors)]
        inside = [sum((c * u[i] for c, u in zip(coeffs, vectors)), Q(0))
                  for i in range(4)]
        assert coordinates(inside) == coeffs
        if mat.row_join(sym_matrix([v]).T).rank() > mat.rank():
            assert coordinates(v) is None
        else:
            # independent vectors: the coordinates are unique
            got = coordinates(v)
            assert [sum((c * u[i] for c, u in zip(got, vectors)), Q(0))
                    for i in range(4)] == v

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_inverse_matches_sympy(self, m):
        mat = sym_matrix(m)
        if mat.det() == 0:
            with pytest.raises(ValueError):
                q_inverse(m)
            return
        assert sym_matrix(q_inverse(m)) == mat.inv()

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_sympy(self, rows):
        mat = [[sp.Rational(int(x.numerator), int(x.denominator))
                for x in r] for r in rows]
        assert echelon(rows, 3).rank == sp.Matrix(mat).rank()


class TestQSparseNullspace:
    """The modular solver returns q_nullspace's canonical basis exactly."""

    P0 = next(kernel._word_primes())

    @staticmethod
    def dense(basis, ncols):
        return [[v.get(c, Q(0)) for c in range(ncols)] for v in basis]

    def check(self, rows, ncols):
        got = q_sparse_nullspace(rows, ncols)
        _, want = q_nullspace([[r.get(c, Q(0)) for c in range(ncols)]
                               for r in rows], ncols)
        assert self.dense(got, ncols) == want
        return got

    def test_random_systems_match_q_nullspace(self):
        rng = random.Random(20251018)
        for _ in range(300):
            nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
            rows = []
            for _ in range(nrows):
                row = {}
                for c in range(ncols):
                    if rng.random() < 0.4:
                        x = Q(rng.randint(-5, 5), rng.randint(1, 7))
                        if x:
                            row[c] = x
                rows.append(row)
            self.check(rows, ncols)

    def test_first_prime_misplaces_the_pivot(self):
        # mod P0 the row is (0, 1): pivot on column 1 instead of 0
        got = self.check([{0: Q(self.P0), 1: Q(1)}], 2)
        assert got == [{0: Q(-1, self.P0), 1: Q(1)}]

    def test_entry_beyond_one_prime_needs_crt(self):
        big = 2 ** 40 + 1
        got = self.check([{0: Q(1), 1: Q(-big)}], 2)
        assert got == [{0: Q(big), 1: Q(1)}]

    def test_denominator_prime_is_skipped(self, monkeypatch):
        primes = []
        real = kernel._echelon_mod

        def spy(rows, ncols, p):
            primes.append(p)
            return real(rows, ncols, p)

        monkeypatch.setattr(kernel, "_echelon_mod", spy)
        got = self.check([{0: Q(1, self.P0), 1: Q(1)}], 2)
        assert got == [{0: Q(-self.P0), 1: Q(1)}]
        assert primes and self.P0 not in primes

    def test_full_rank(self):
        rows = [{0: Q(1), 1: Q(1, 2)}, {1: Q(3)}, {0: Q(2), 2: Q(-1)}]
        assert self.check(rows, 3) == []


def _random_rf(rng):
    """Zero, a constant, a polynomial or a quotient with a non-constant
    denominator, in x and y."""
    def poly():
        return sum((Q(rng.randint(-3, 3)) * X ** rng.randint(0, 2) *
                    Y ** rng.randint(0, 1) for _ in range(rng.randint(1, 3))),
                   R3.zero())
    kind = rng.randrange(4)
    if kind == 0:
        return RatFunc.from_const(R3, 0)
    if kind == 1:
        return RatFunc.from_const(R3, Q(rng.randint(-4, 4), rng.randint(1, 3)))
    if kind == 2:
        return RatFunc.from_poly(poly())
    return RatFunc(poly(), X ** rng.randint(1, 2) + Q(rng.randint(1, 3)) * Y)


def _random_rf_system(rng):
    """Random rows, then a zero row, a repeated row or a combination of
    two rows, each at random, in shuffled order."""
    ncols = rng.randint(1, 4)
    rows = [[_random_rf(rng) for _ in range(ncols)]
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        rows.append([RatFunc.from_const(R3, 0)] * ncols)
    if rng.random() < 0.4:
        rows.append(list(rng.choice(rows)))
    if rng.random() < 0.6:
        a, b = rng.choice(rows), rng.choice(rows)
        f, g = _random_rf(rng), _random_rf(rng)
        rows.append([f * u + g * v for u, v in zip(a, b)])
    rng.shuffle(rows)
    return rows, ncols


def _oracle_nullspace(rows, ncols):
    rref, pivots = rf_rref(rows, ncols)
    basis = kernel._rref_nullspace(dict(zip(pivots, rref)), ncols,
                                   RatFunc.from_const(R3, 0),
                                   RatFunc.from_const(R3, 1))
    return len(pivots), [clear_denominators(v) for v in basis]


def _oracle_solve_minimal(rows, rhs, ncols):
    rref, pivots = rf_rref([list(r) + [b] for r, b in zip(rows, rhs)],
                           ncols + 1)
    if ncols in pivots:
        return None
    x = [RatFunc.from_const(R3, 0)] * ncols
    for row, pc in zip(rref, pivots):
        x[pc] = row[ncols]
    return x


class TestRFLinear:
    def test_rf_rank(self):
        one = RatFunc.from_poly(R3.one())
        x = RatFunc.from_poly(X)
        ech = QEchelon(2)
        for row in ([one, x], [x, x * x]):
            ech.add(row)
        assert len(ech.pivots) == 1

    def test_bool_is_a_nonzero_numerator(self):
        x = RatFunc.from_poly(X)
        assert not RatFunc.from_const(R3, 0)
        assert not x - x
        assert x and RatFunc(R3.one(), X) and RatFunc.from_const(R3, Q(-1, 2))

    def test_random_systems_match_the_gauss_jordan_oracle(self):
        rng = random.Random(20)
        for _ in range(40):
            rows, ncols = _random_rf_system(rng)
            assert rf_nullspace(rows, ncols) == _oracle_nullspace(rows, ncols)
            v = [_random_rf(rng) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(r, v)),
                       RatFunc.from_const(R3, 0)) for r in rows]
            got = rf_solve_minimal(rows, rhs, ncols)
            assert got is not None
            assert got == _oracle_solve_minimal(rows, rhs, ncols)
            rhs = [_random_rf(rng) for _ in rows]
            assert (rf_solve_minimal(rows, rhs, ncols) ==
                    _oracle_solve_minimal(rows, rhs, ncols))

    def test_inconsistent_right_hand_sides_give_none(self):
        x = RatFunc.from_poly(X)
        one = RatFunc.from_poly(R3.one())
        zero = RatFunc.from_const(R3, 0)
        y = RatFunc(R3.one(), Y + X)
        for rows, rhs in (([[zero, zero], [one, x]], [y, one]),
                          ([[one, x], [one, x]], [one, y]),
                          ([[x, one], [x * x, x]], [one, one])):
            assert rf_solve_minimal(rows, rhs, 2) is None
            assert _oracle_solve_minimal(rows, rhs, 2) is None

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
