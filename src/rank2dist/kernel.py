"""Exact arithmetic kernel: rationals, sparse multivariate polynomials,
normalized rational functions, and exact linear algebra.

Coefficients are arbitrary-precision rationals (gmpy2.mpq when available,
fractions.Fraction otherwise).  Monomials are packed into a single integer,
16 bits per variable, so monomial multiplication is integer addition.

The monomial order used for leading terms is graded lexicographic.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

_BITS = 16
_MASK = (1 << _BITS) - 1

_ZERO = Q(0)
_ONE = Q(1)


class PoleError(ArithmeticError):
    """Denominator vanishes at the evaluation point."""


class ZeroDenominatorError(ZeroDivisionError):
    """Division by the zero polynomial / rational function."""


def as_q(x):
    """Coerce ints, strings like '3/4', Fractions and mpqs to Q."""
    if isinstance(x, type(_ZERO)):
        return x
    return Q(x)


class PolyRing:
    """Ring of polynomials over Q in a fixed ordered tuple of variables.

    Rings are interned: the same variable tuple always yields the same
    object, so identity checks suffice for compatibility.
    """

    _cache: dict = {}

    def __new__(cls, names):
        names = tuple(names)
        ring = cls._cache.get(names)
        if ring is not None:
            return ring
        ring = object.__new__(cls)
        ring.names = names
        ring.n = len(names)
        ring.index = {nm: i for i, nm in enumerate(names)}
        ring.shifts = tuple(i * _BITS for i in range(len(names)))
        cls._cache[names] = ring
        return ring

    def __repr__(self):
        return "PolyRing(%s)" % (", ".join(self.names))

    # -- monomial helpers (packed int keys) --

    def encode(self, exps):
        key = 0
        for s, e in zip(self.shifts, exps):
            key |= e << s
        return key

    def decode(self, key):
        return tuple((key >> s) & _MASK for s in self.shifts)

    def mono_degree(self, key):
        d = 0
        while key:
            d += key & _MASK
            key >>= _BITS
        return d

    def mono_divides(self, a, b):
        """True if monomial a divides monomial b."""
        for s in self.shifts:
            if (a >> s) & _MASK > (b >> s) & _MASK:
                return False
        return True

    def grlex_key(self, key):
        return (self.mono_degree(key), self.decode(key))

    # -- element constructors --

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {0: _ONE})

    def const(self, c):
        c = as_q(c)
        return Poly(self, {0: c} if c else {})

    def var(self, name):
        return Poly(self, {1 << self.shifts[self.index[name]]: _ONE})

    def gens(self):
        return [self.var(nm) for nm in self.names]


class Poly:
    """Sparse multivariate polynomial over Q.  Immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- predicates --

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self):
        if not self.terms:
            return _ZERO
        return self.terms[0]

    def total_degree(self):
        if not self.terms:
            return -1
        md = self.ring.mono_degree
        return max(md(k) for k in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        s = self.ring.shifts[i]
        return max((k >> s) & _MASK for k in self.terms)

    def variables_used(self):
        used = set()
        for k in self.terms:
            for i, s in enumerate(self.ring.shifts):
                if (k >> s) & _MASK:
                    used.add(self.ring.names[i])
        return used

    # -- comparisons --

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring is other.ring and self.terms == other.terms
        if isinstance(other, (int, type(_ZERO))):
            return self.is_const() and self.const_value() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --

    def _check(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            nc = out.get(k, _ZERO) + c
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly(self.ring, {})
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                nc = get(k, _ZERO) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    del out[k]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = as_q(c)
        if not c:
            return Poly(self.ring, {})
        return Poly(self.ring, {k: v * c for k, v in self.terms.items()})

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent on Poly")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus / evaluation --

    def diff(self, var):
        i = self.ring.index[var]
        s = self.ring.shifts[i]
        step = 1 << s
        out = {}
        for k, c in self.terms.items():
            e = (k >> s) & _MASK
            if e:
                out[k - step] = c * e
        return Poly(self.ring, out)

    def eval(self, vals):
        if len(vals) != self.ring.n:
            raise ValueError("point dimension mismatch")
        vals = [as_q(v) for v in vals]
        pow_cache = [dict() for _ in vals]
        total = _ZERO
        shifts = self.ring.shifts
        for k, c in self.terms.items():
            term = c
            for i, s in enumerate(shifts):
                e = (k >> s) & _MASK
                if e:
                    cache = pow_cache[i]
                    p = cache.get(e)
                    if p is None:
                        p = vals[i] ** e
                        cache[e] = p
                    term = term * p
            total += term
        return total

    def subs(self, replacements):
        """Substitute each variable by a Poly (list aligned with ring vars)."""
        ring = replacements[0].ring
        out = ring.zero()
        pow_cache = [dict() for _ in replacements]
        for k, c in self.terms.items():
            term = ring.const(c)
            for i, s in enumerate(self.ring.shifts):
                e = (k >> s) & _MASK
                if e:
                    cache = pow_cache[i]
                    p = cache.get(e)
                    if p is None:
                        p = replacements[i] ** e
                        cache[e] = p
                    term = term * p
            out = out + term
        return out

    def embed(self, ring):
        """Re-express in a ring that holds every variable this polynomial
        uses; variables of this ring that the terms do not use may be
        missing from `ring`."""
        if ring is self.ring:
            return self
        moves = [(s, ring.shifts[ring.index[nm]] if nm in ring.index else None)
                 for nm, s in zip(self.ring.names, self.ring.shifts)]
        out = {}
        for k, c in self.terms.items():
            nk = 0
            for s_old, s_new in moves:
                e = (k >> s_old) & _MASK
                if e:
                    if s_new is None:
                        raise ValueError("polynomial uses a variable missing "
                                         "from %r" % (ring,))
                    nk |= e << s_new
            out[nk] = c
        return Poly(ring, out)

    # -- leading data (grlex) --

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        gk = self.ring.grlex_key
        return max(self.terms, key=gk)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    # -- pretty printing --

    def __repr__(self):
        return "Poly(%s)" % self.to_str()

    def to_str(self):
        if not self.terms:
            return "0"
        gk = self.ring.grlex_key
        parts = []
        for k in sorted(self.terms, key=gk, reverse=True):
            c = self.terms[k]
            factors = []
            for i, s in enumerate(self.ring.shifts):
                e = (k >> s) & _MASK
                if e == 1:
                    factors.append(self.ring.names[i])
                elif e > 1:
                    factors.append("%s^%d" % (self.ring.names[i], e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# polynomial gcd (primitive PRS) and exact division
# ---------------------------------------------------------------------------

def divexact(f, g):
    """Exact division f / g; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDenominatorError("division by zero polynomial")
    if f.is_zero():
        return f
    if g.is_const():
        return f.scale(_ONE / g.const_value())
    ring = f.ring
    rem = dict(f.terms)
    out = {}
    gl = g.leading_monomial()
    glc = g.terms[gl]
    gk = ring.grlex_key
    while rem:
        fl = max(rem, key=gk)
        if not ring.mono_divides(gl, fl):
            raise ValueError("inexact polynomial division")
        qk = fl - gl
        qc = rem[fl] / glc
        out[qk] = qc
        for k, c in g.terms.items():
            kk = k + qk
            nc = rem.get(kk, _ZERO) - c * qc
            if nc:
                rem[kk] = nc
            else:
                rem.pop(kk, None)
    return Poly(ring, out)


def _int_primitive(f):
    """Scale f to integer coefficients with content 1 and positive grlex
    leading coefficient.  Returns the primitive part (content discarded)."""
    if f.is_zero():
        return f
    from math import gcd as igcd
    den_lcm = 1
    for c in f.terms.values():
        d = int(c.denominator)
        den_lcm = den_lcm // igcd(den_lcm, d) * d
    g = 0
    for c in f.terms.values():
        g = igcd(g, abs(int(c.numerator) * (den_lcm // int(c.denominator))))
    scale = Q(den_lcm, g)
    if f.leading_coeff() < 0:
        scale = -scale
    return f.scale(scale)


def _as_univar(f, i):
    """View f as a univariate poly in variable i: dict degree -> Poly."""
    ring = f.ring
    s = ring.shifts[i]
    out = {}
    for k, c in f.terms.items():
        e = (k >> s) & _MASK
        base = k - (e << s)
        d = out.get(e)
        if d is None:
            d = {}
            out[e] = d
        d[base] = c
    return {e: Poly(ring, d) for e, d in out.items()}


def _from_univar(ring, i, coeffs):
    s = ring.shifts[i]
    out = {}
    for e, p in coeffs.items():
        for k, c in p.terms.items():
            out[k + (e << s)] = c
    return Poly(ring, out)


def _content_wrt(f, i):
    """gcd of the coefficients of f viewed in variable i."""
    coeffs = list(_as_univar(f, i).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.is_const():
            break
    return _int_primitive(g) if not g.is_const() else g.ring.one()


def _prem(f, g, i):
    """Canonical pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g in
    variable i (the exact scaling the subresultant algorithm divides by)."""
    ring = f.ring
    fu = _as_univar(f, i)
    gu = _as_univar(g, i)
    dg = max(gu)
    lg = gu[dg]
    df0 = max(fu) if fu else -1
    if df0 < dg:
        return f
    mults = 0
    while fu:
        df = max(fu)
        if df < dg:
            break
        lf = fu[df]
        # f <- lg*f - lf * x^(df-dg) * g
        nf = {}
        for e, p in fu.items():
            nf[e] = lg * p
        mults += 1
        for e, p in gu.items():
            ee = e + df - dg
            q = nf.get(e + df - dg, ring.zero()) - lf * p
            if q.is_zero():
                nf.pop(ee, None)
            else:
                nf[ee] = q
        nf.pop(df, None)
        fu = {e: p for e, p in nf.items() if not p.is_zero()}
    for _ in range(df0 - dg + 1 - mults):
        fu = {e: lg * p for e, p in fu.items()}
    return _from_univar(ring, i, fu)


def _lead_wrt(f, i):
    """Leading coefficient of f viewed in variable i, as a polynomial."""
    fu = _as_univar(f, i)
    return fu[max(fu)]


def poly_gcd(f, g):
    """gcd of two polynomials, primitive with positive leading coefficient.

    Primitive pseudo-remainder sequences, recursing on the number of
    variables.  Rational contents are dropped: the result is defined up to
    a unit and normalized to an integer-primitive polynomial.
    """
    if f.is_zero():
        return _int_primitive(g) if not g.is_zero() else g
    if g.is_zero():
        return _int_primitive(f)
    if f.is_const() or g.is_const():
        return f.ring.one()
    f = _int_primitive(f)
    g = _int_primitive(g)
    # main variable: highest-index variable occurring in either
    main = -1
    for i in range(f.ring.n - 1, -1, -1):
        if f.degree_in(i) > 0 or g.degree_in(i) > 0:
            main = i
            break
    df, dg = f.degree_in(main), g.degree_in(main)
    if df == 0 or dg == 0:
        # main var missing from one operand: gcd divides its coefficients
        if df == 0:
            other, uni = f, g
        else:
            other, uni = g, f
        return poly_gcd(other, _content_wrt(uni, main))
    cf = _content_wrt(f, main)
    cg = _content_wrt(g, main)
    c = poly_gcd(cf, cg)
    pf = divexact(f, cf) if not cf.is_const() else f
    pg = divexact(g, cg) if not cg.is_const() else g
    if pf.degree_in(main) < pg.degree_in(main):
        pf, pg = pg, pf
    # subresultant PRS: divide each pseudo-remainder by the known exact
    # factor g*h^d instead of recomputing contents every step
    one = f.ring.one()
    gc, hc = one, one
    while True:
        d = pf.degree_in(main) - pg.degree_in(main)
        r = _prem(pf, pg, main)
        if r.is_zero():
            break
        if r.degree_in(main) == 0:
            pg = f.ring.one()
            break
        beta = gc * hc ** d
        pf, pg = pg, (r if beta.is_const() and beta.const_value() == 1
                      else divexact(r, beta))
        gc = _lead_wrt(pf, main)
        if d >= 1:
            hc = gc if d == 1 else divexact(gc ** d, hc ** (d - 1))
    if not pg.is_const():
        cr = _content_wrt(pg, main)
        if not cr.is_const():
            pg = divexact(pg, cr)
    pg = _int_primitive(pg)
    if pg.is_const():
        return c if not c.is_const() else f.ring.one()
    result = pg if c.is_const() else pg * c
    return _int_primitive(result)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Rational function num/den over a PolyRing, kept in canonical form:
    gcd(num, den) = 1 and den monic under grlex."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = num.ring.one()
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    @classmethod
    def from_const(cls, ring, c):
        return cls(ring.const(c), ring.one(), _normalized=True)

    @classmethod
    def from_poly(cls, p):
        return cls(p, p.ring.one(), _normalized=True)

    @classmethod
    def variable(cls, ring, name):
        return cls(ring.var(name), ring.one(), _normalized=True)

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return self.num.const_value() / self.den.const_value()

    def is_poly(self):
        return self.den.is_const()

    def embed(self, ring):
        """Re-express in `ring`; see Poly.embed."""
        return RatFunc(self.num.embed(ring), self.den.embed(ring))

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ring is not self.ring:
                raise ValueError("rational functions from different rings")
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        return RatFunc.from_const(self.ring, other)

    def __eq__(self, other):
        if isinstance(other, (RatFunc, Poly, int, type(_ZERO))):
            other = self._coerce(other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDenominatorError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e):
        if e < 0:
            if self.is_zero():
                raise ZeroDenominatorError("zero function to negative power")
            return RatFunc(self.den ** (-e), self.num ** (-e))
        return RatFunc(self.num ** e, self.den ** e, _normalized=True)

    def diff(self, var):
        if var not in self.ring.index:
            raise KeyError("unknown variable %r" % var)
        if self.den == 1:
            return RatFunc(self.num.diff(var), self.den, _normalized=True)
        n, d = self.num, self.den
        return RatFunc(n.diff(var) * d - n * d.diff(var), d * d)

    def eval(self, vals):
        dv = self.den.eval(vals)
        if not dv:
            raise PoleError("denominator vanishes at evaluation point")
        return self.num.eval(vals) / dv

    def total_degree(self):
        return max(self.num.total_degree(), self.den.total_degree())

    def __repr__(self):
        if self.den == 1:
            return "RatFunc(%s)" % self.num.to_str()
        return "RatFunc((%s)/(%s))" % (self.num.to_str(), self.den.to_str())

    def to_str(self):
        if self.den == 1:
            return self.num.to_str()
        return "(%s)/(%s)" % (self.num.to_str(), self.den.to_str())


def _normalize(num, den):
    if den.is_zero():
        raise ZeroDenominatorError("zero denominator")
    if num.is_zero():
        return num, den.ring.one()
    if den.is_const():
        c = den.const_value()
        if c == 1:
            return num, den
        return num.scale(_ONE / c), den.ring.one()
    g = poly_gcd(num, den)
    if not g.is_const():
        num = divexact(num, g)
        den = divexact(den, g)
    if den.is_const():
        c = den.const_value()
        return num.scale(_ONE / c), den.ring.one()
    lc = den.leading_coeff()
    if lc != 1:
        num = num.scale(_ONE / lc)
        den = den.scale(_ONE / lc)
    return num, den


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------

class QEchelon:
    """Incremental row echelon over Q, for ranks and independent subsets."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}  # col -> reduced row

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        row = list(row)
        for col, prow in self.pivots.items():
            c = row[col]
            if c:
                for j in range(self.ncols):
                    row[j] -= c * prow[j]
        return row

    def add(self, row):
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce([as_q(x) for x in row])
        for col in range(self.ncols):
            if row[col]:
                inv = _ONE / row[col]
                row = [x * inv for x in row]
                # back-substitute into existing pivot rows
                for pc, prow in self.pivots.items():
                    c = prow[col]
                    if c:
                        self.pivots[pc] = [a - c * b for a, b in zip(prow, row)]
                self.pivots[col] = row
                return True
        return False

    def contains(self, row):
        return not any(self.reduce([as_q(x) for x in row]))


def q_rank(rows, ncols=None):
    if not rows:
        return 0
    ech = QEchelon(ncols if ncols is not None else len(rows[0]))
    for r in rows:
        ech.add(r)
    return ech.rank


def q_rref(rows, ncols):
    """Reduced row echelon form; returns (rows, pivot_cols)."""
    mat = [[as_q(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = _ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def q_nullspace(rows, ncols):
    """Basis of the right nullspace over Q.  Returns (rank, basis)."""
    rref, pivots = q_rref(rows, ncols) if rows else ([], [])
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -rref[ri][fc]
        basis.append(v)
    return len(pivots), basis


def q_solve(rows, rhs, ncols):
    """One exact solution of A x = b, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = q_rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = rref[ri][ncols]
    return x


def q_inverse(m):
    """Inverse of a square matrix over Q; ValueError if it is singular."""
    n = len(m)
    rref, pivots = q_rref([list(r) + [_ONE if i == j else _ZERO
                                      for j in range(n)]
                           for i, r in enumerate(m)], 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [r[n:] for r in rref]


# ---------------------------------------------------------------------------
# exact linear algebra over the rational-function field
# ---------------------------------------------------------------------------

def _rf_pivot_degree(x):
    return x.num.total_degree() + x.den.total_degree()


def rf_rref(rows, ncols):
    """Reduced row echelon form over the function field.

    Pivot choice inside each column: lowest-degree nonzero entry (ties by
    row order), which keeps intermediate expression growth down.
    Returns (rows, pivot_cols).
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero():
                d = _rf_pivot_degree(mat[i][c])
                if best is None or d < best[0]:
                    best = (d, i)
        if best is None:
            continue
        pr = best[1]
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rf_nullspace(rows, ncols):
    """Right nullspace basis over the function field: (rank, basis).

    Basis vectors have denominators cleared: entries are polynomial-valued
    RatFuncs scaled by the lcm of the raw denominators.
    """
    if not rows:
        ring = None
    rref, pivots = rf_rref(rows, ncols) if rows else ([], [])
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    if rows:
        ring = rows[0][0].ring
    basis = []
    for fc in free:
        v = [RatFunc.from_const(ring, 0) for _ in range(ncols)]
        v[fc] = RatFunc.from_const(ring, 1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rref[ri][fc]
        basis.append(clear_denominators(v))
    return len(pivots), basis


def clear_denominators(vec):
    """Scale a RatFunc vector by a common denominator; entries become
    polynomial.  Returns a new list of RatFuncs with den = 1."""
    ring = vec[0].ring
    d = ring.one()
    for x in vec:
        if not x.den.is_const():
            g = poly_gcd(d, x.den)
            extra = divexact(x.den, g) if not g.is_const() else x.den
            d = d * extra
    if d.is_const():
        return list(vec)
    dd = RatFunc.from_poly(d)
    return [x * dd for x in vec]


def rf_solve_minimal(rows, rhs, ncols):
    """Solve A x = b over the function field with a deterministic
    minimal-support solution: non-pivot coordinates are set to zero.

    Returns the solution vector or None if the system is inconsistent.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = rf_rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    ring = rows[0][0].ring
    x = [RatFunc.from_const(ring, 0) for _ in range(ncols)]
    for ri, pc in enumerate(pivots):
        x[pc] = rref[ri][ncols]
    return x
