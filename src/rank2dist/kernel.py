"""Exact arithmetic kernel: rationals, sparse multivariate polynomials,
normalized rational functions, and exact linear algebra.

Coefficients are arbitrary-precision rationals (gmpy2.mpq when available,
fractions.Fraction otherwise).  Monomials are packed into a single integer,
16 bits per variable, so monomial multiplication is integer addition.

The monomial order used for leading terms is graded lexicographic.
"""

from __future__ import annotations

import contextlib
import heapq
import sys
from functools import reduce
from math import comb, gcd as igcd, isqrt, lcm, prod
from operator import or_

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

_BITS = 16
_MASK = (1 << _BITS) - 1
# the largest exponent of one variable that a packed monomial holds
MAX_EXPONENT = _MASK
# the largest size a power may build: a bound on its terms times a bound on
# the numerator and denominator bit length of each coefficient
MAX_POWER_BITS = 1 << 20

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


@contextlib.contextmanager
def unlimited_digits():
    """Lift Python's int-to-string digit limit while exact values are
    formatted for a report or a message; parsing input keeps the limit."""
    # Pythons before 3.10.7 have no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def exact_strs(q):
    """The coordinates of a point as exact strings, e.g. ["0", "1/2"], the
    same under either coefficient backend, as reports list them."""
    with unlimited_digits():
        return [str(as_q(x)) for x in q]


def point_str(q):
    """A point spelled for a message, e.g. [0, 0, 1/2]."""
    return "[%s]" % ", ".join(exact_strs(q))


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
        # the top bit of every exponent field: a product can overflow a
        # field only if one of its factors sets that field's top bit
        ring.top = sum(1 << (s + _BITS - 1) for s in ring.shifts)
        cls._cache[names] = ring
        return ring

    def __repr__(self):
        return "PolyRing(%s)" % (", ".join(self.names))

    # -- monomial helpers (packed int keys) --

    def encode(self, exps):
        key = 0
        for s, e in zip(self.shifts, exps):
            if not 0 <= e <= _MASK:
                raise OverflowError("exponent %d outside 0..%d"
                                    % (e, MAX_EXPONENT))
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
        if (reduce(or_, a, 0) | reduce(or_, b, 0)) & self.ring.top:
            _check_product_exponents(self.ring, a, b)
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
        if e > 1 and self.terms:
            _check_power_size(self, e)
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


def _check_power_size(f, e):
    """OverflowError unless every exponent of f^e fits its packed field and
    its size is at most MAX_POWER_BITS.  With f = F/D, F integral, each
    coefficient of f^e has a numerator at most |F|_1^e and a denominator
    dividing D^e; its terms are at most the products of e terms of f and
    at most the monomials within e times each degree of f."""
    degs = [f.degree_in(i) for i in range(f.ring.n)]
    if e * max(degs) > MAX_EXPONENT:
        raise OverflowError("exponent of a variable exceeds %d"
                            % MAX_EXPONENT)
    coeffs = f.terms.values()
    den = reduce(lcm, (int(c.denominator) for c in coeffs), 1)
    norm = sum(abs(int(c.numerator)) * (den // int(c.denominator))
               for c in coeffs)
    bits = e * max((norm - 1).bit_length(), den.bit_length())
    terms = min(prod(e * d + 1 for d in degs), comb(e + len(coeffs) - 1, e))
    if terms * bits > MAX_POWER_BITS:
        raise OverflowError("a power of %d terms to the %d exceeds %d bits"
                            % (len(coeffs), e, MAX_POWER_BITS))


def _check_product_exponents(ring, a, b):
    """OverflowError unless every exponent of a product of the term dicts
    a and b fits its packed field."""
    for s in ring.shifts:
        if (max((k >> s) & _MASK for k in a) +
                max((k >> s) & _MASK for k in b)) > MAX_EXPONENT:
            raise OverflowError("exponent of a variable exceeds %d"
                                % MAX_EXPONENT)


def add_product(acc, p, q, scale=1):
    """acc += scale * p * q in place, on term dicts {packed monomial:
    coefficient}; integer coefficients stay in integer arithmetic."""
    for k1, c1 in p.items():
        c1 *= scale
        for k2, c2 in q.items():
            k = k1 + k2
            nc = acc.get(k, 0) + c1 * c2
            if nc:
                acc[k] = nc
            else:
                del acc[k]


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


# the largest integer (in bits) the heuristic gcd builds by evaluation
# before it leaves the problem to the pseudo-remainder sequence
_HEU_MAX_BITS = 1 << 22


def _heu_gcd(f, g, shifts, top):
    """gcd of the nonzero integer polynomials f and g ({packed monomial:
    int}) in the variables at the bit offsets `shifts`, or None.

    Heuristic gcd (Char, Geddes and Gonnet): evaluate the last variable at
    an integer xi, take the gcd of the images recursively, and read a
    candidate back from the xi-adic digits of its coefficients.  With
    xi > 2 min(|f|, |g|) + 2 the primitive candidate is the gcd as soon as
    it divides f and g, which is checked exactly.  Needs every exponent
    below 2^15 (`top` holds the top bit of each packed field)."""
    cf = reduce(igcd, f.values())
    cg = reduce(igcd, g.values())
    c = igcd(cf, cg)
    if not shifts:
        return {0: c}
    f = {k: v // cf for k, v in f.items()}
    g = {k: v // cg for k, v in g.items()}
    s = shifts[-1]
    df = max((k >> s) & _MASK for k in f)
    dg = max((k >> s) & _MASK for k in g)
    if not df and not dg:
        h = _heu_gcd(f, g, shifts[:-1], top)
        return None if h is None else {k: v * c for k, v in h.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        if xi.bit_length() * (max(df, dg) + 1) > _HEU_MAX_BITS:
            return None
        ff = _eval_var(f, s, xi)
        gg = _eval_var(g, s, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg, shifts[:-1], top)
            if h is None:
                return None
            h = _interp_var(h, s, xi, min(df, dg))
            if h is not None:
                ch = reduce(igcd, h.values())
                if h[max(h)] < 0:
                    ch = -ch
                h = {k: v // ch for k, v in h.items()}
                if (_divides(h, f, shifts, top)
                        and _divides(h, g, shifts, top)):
                    return {k: v * c for k, v in h.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _eval_var(f, s, xi):
    """The integer polynomial f with the variable at offset s set to xi."""
    out = {}
    for k, v in f.items():
        e = (k >> s) & _MASK
        k -= e << s
        nv = out.get(k, 0) + v * xi ** e
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _interp_var(h, s, xi, deg):
    """The polynomial whose coefficients of the variable at offset s are
    the balanced xi-adic digits of h's coefficients, or None if it would
    have degree above deg in that variable."""
    half = xi // 2
    out = {}
    for k, v in h.items():
        e = 0
        while v:
            d = v % xi
            if d > half:
                d -= xi
            if d:
                if e > deg:
                    return None
                out[k + (e << s)] = d
            v = (v - d) // xi
            e += 1
    return out


def _divides(g, f, shifts, top):
    """True if the integer polynomial g divides f over the integers.

    Packed keys order monomials lexicographically, so the leading term is
    the largest key.  `top` marks each field's top bit, which the caller
    keeps clear, so one subtraction compares two monomials field by field.
    A quotient term must fit the degrees of f less those of g, which
    keeps every intermediate exponent within the degrees of f."""
    room = top
    for s in shifts:
        d = (max((k >> s) & _MASK for k in f)
             - max((k >> s) & _MASK for k in g))
        if d < 0:
            return False
        room += d << s
    gl = max(g)
    glc = g[gl]
    rem = dict(f)
    while rem:
        fl = max(rem)
        qk = fl - gl
        if ((fl | top) - gl) & top != top or (room - qk) & top != top:
            return False
        q, r = divmod(rem[fl], glc)
        if r:
            return False
        for k, c in g.items():
            k += qk
            nc = rem.get(k, 0) - c * q
            if nc:
                rem[k] = nc
            else:
                rem.pop(k, None)
    return True


def poly_gcd(f, g):
    """gcd of two polynomials, primitive with positive leading coefficient.

    The heuristic gcd first; where it gives up, primitive pseudo-remainder
    sequences, recursing on the number of variables.  Rational contents
    are dropped: the result is defined up to a unit and normalized to an
    integer-primitive polynomial.
    """
    if f.is_zero():
        return _int_primitive(g) if not g.is_zero() else g
    if g.is_zero():
        return _int_primitive(f)
    if f.is_const() or g.is_const():
        return f.ring.one()
    f = _int_primitive(f)
    g = _int_primitive(g)
    ring = f.ring
    used = reduce(or_, f.terms) | reduce(or_, g.terms)
    if not used & ring.top:
        shifts = [s for s in ring.shifts if (used >> s) & _MASK]
        h = _heu_gcd({k: int(c) for k, c in f.terms.items()},
                     {k: int(c) for k, c in g.terms.items()},
                     shifts, ring.top)
        if h is not None:
            return _int_primitive(Poly(ring, {k: Q(v) for k, v in h.items()}))
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

    def __bool__(self):
        return not self.num.is_zero()

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
# the reduced echelon, over Q and the function field, and solvers over Q
# ---------------------------------------------------------------------------

class QEchelon:
    """Incremental reduced row echelon form, the one dense elimination over
    Q and over the rational-function field: rows hold ints and Q values, or
    RatFuncs of one ring.  Each pivot row is 1 at its pivot column, its
    first nonzero column, and 0 at every other pivot column, so the pivot
    rows are the unique reduced row echelon form of the rows added."""

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
                row = [a - c * b for a, b in zip(row, prow)]
        return row

    def add(self, row):
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
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
        return not any(self.reduce(row))


def _rref_nullspace(pivots, ncols, zero, one):
    """Nullspace basis of a reduced row echelon form {pivot col: row}: one
    vector per free column, in increasing order, with identity on the free
    columns."""
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [zero] * ncols
            v[fc] = one
            for pc, row in pivots.items():
                v[pc] = -row[fc]
            basis.append(v)
    return basis


def q_nullspace(rows, ncols):
    """Basis of the right nullspace over Q.  Returns (rank, basis)."""
    ech = QEchelon(ncols)
    for r in rows:
        ech.add(r)
    return ech.rank, _rref_nullspace(ech.pivots, ncols, _ZERO, _ONE)


def q_coordinates(vectors, ncols):
    """Coordinates in independent vectors over Q of length ncols.

    Returns a function that maps v to the list c with v = sum c_i
    vectors[i], or to None when v lies outside their span; ValueError if
    the vectors are dependent.  The vectors are reduced once, each tagged
    with its own identity column, so one reduction of (v, 0) leaves
    (v - sum c_i vectors[i], -c)."""
    k = len(vectors)
    ech = QEchelon(ncols + k)
    for i, v in enumerate(vectors):
        ech.add(list(v) + [_ONE if j == i else _ZERO for j in range(k)])
    if any(col >= ncols for col in ech.pivots):
        raise ValueError("linearly dependent vectors")

    def coordinates(v):
        r = ech.reduce([as_q(x) for x in v] + [_ZERO] * k)
        if any(r[:ncols]):
            return None
        return [-x for x in r[ncols:]]
    return coordinates


def q_inverse(m):
    """Inverse of a square matrix over Q; ValueError if it is singular.
    Row j holds the coordinates of the j-th unit vector in the rows of m."""
    n = len(m)
    coordinates = q_coordinates(m, n)
    return [coordinates([_ONE if i == j else _ZERO for i in range(n)])
            for j in range(n)]


# ---------------------------------------------------------------------------
# sparse nullspace over Q by elimination modulo word-size primes
# ---------------------------------------------------------------------------

# memo of _word_primes; the sequence is fixed, so every caller may share it
_PRIMES = []


def _word_primes():
    """The primes below 2**30, largest first, so residues and their
    products stay small CPython ints."""
    i = 0
    while True:
        if i == len(_PRIMES):
            p = _PRIMES[-1] if _PRIMES else (1 << 30) + 1
            while True:
                p -= 2
                if all(p % d for d in range(3, isqrt(p) + 1, 2)):
                    break
            _PRIMES.append(p)
        yield _PRIMES[i]
        i += 1


def _echelon_mod(rows, ncols, p):
    """Row echelon form of integer rows mod p, as {pivot: row}: each row is
    {col: residue} without its pivot entry, which is 1, and its pivot is
    its minimum column.  Stops once the rank reaches ncols."""
    piv = {}
    for src in rows:
        if _add_row_mod(piv, src, p) and len(piv) == ncols:
            break
    return piv


def _add_row_mod(piv, src, p):
    """Reduce the integer row src ({col: a}) by the echelon form piv of
    `_echelon_mod` and add what is left as a new pivot row; returns True
    if it raised the rank."""
    row = {}
    for c, a in src.items():
        a %= p
        if a:
            row[c] = a
    hits = [c for c in row if c in piv]
    heapq.heapify(hits)
    while hits:
        c = heapq.heappop(hits)
        a = row.pop(c, 0)
        if not a:
            continue
        # pivot rows hold only columns right of their pivot, so popping
        # in increasing order eliminates every pivot column once
        for cc, v in piv[c].items():
            nv = (row.get(cc, 0) - a * v) % p
            if nv:
                if cc not in row and cc in piv:
                    heapq.heappush(hits, cc)
                row[cc] = nv
            else:
                row.pop(cc, None)
    if not row:
        return False
    c = min(row)
    inv = pow(row.pop(c), -1, p)
    piv[c] = {cc: v * inv % p for cc, v in row.items()}
    return True


class ModEchelon:
    """Incremental row echelon over the integers modulo a prime p, for
    ranks."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        """Insert a row of integers; returns True if it increased the
        rank."""
        return _add_row_mod(self.pivots, dict(enumerate(row)), self.p)


def _back_substitute_mod(piv, p):
    """Turn an echelon form from _echelon_mod into the reduced one, in
    place: afterwards each row holds free columns only."""
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for pc in [cc for cc in row if cc in piv]:
            a = row.pop(pc)
            for cc, v in piv[pc].items():
                nv = (row.get(cc, 0) - a * v) % p
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)


def q_residue(x, p):
    """The rational x as an integer modulo the prime p; ZeroDivisionError
    if p divides its denominator."""
    x = as_q(x)
    d = int(x.denominator) % p
    if not d:
        raise ZeroDivisionError("denominator divisible by %d" % p)
    return int(x.numerator) * pow(d, -1, p) % p


def _rational_reconstruction(u, m):
    """The fraction a/b = u (mod m) with |a|, b <= sqrt(m/2), or None."""
    bound = isqrt(m >> 1)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Q(r1, s1)


def _lift(residues, modulus):
    """Rational nullspace vectors {col: Q} from {free col: {pivot col:
    residue}}, with 1 on the free column; None if some entry does not
    reconstruct."""
    basis = []
    for f, vec in residues.items():
        v = {f: _ONE}
        for c, u in vec.items():
            x = _rational_reconstruction(u, modulus)
            if x is None:
                return None
            if x:
                v[c] = x
        basis.append(dict(sorted(v.items())))
    return basis


def _in_kernel(int_rows, basis):
    """True iff every integer row annihilates every rational vector."""
    by_col = {}
    for ri, row in enumerate(int_rows):
        for c, a in row.items():
            by_col.setdefault(c, []).append((ri, a))
    for v in basis:
        den = 1
        for x in v.values():
            den = lcm(den, int(x.denominator))
        acc = {}
        for c, x in v.items():
            xi = int(x.numerator) * (den // int(x.denominator))
            for ri, a in by_col.get(c, ()):
                acc[ri] = acc.get(ri, 0) + a * xi
        if any(acc.values()):
            return False
    return True


def q_sparse_nullspace(rows, ncols):
    """Right nullspace of a sparse system over Q, rows given as {col: x}
    dicts with x a Q or an int.

    Returns the canonical basis, as {col: Q} dicts in increasing order of
    their free column: the nullspace of the reduced row echelon form, with
    identity on the free columns ([] at full rank).

    Eliminates modulo primes below 2**30, largest first.  Full rank mod p
    is full rank over Q (rank_p <= rank_Q), so most systems end there.
    Otherwise the reduced form mod p is lifted by rational reconstruction,
    combining primes with the same pivot set by Chinese remaindering, and
    returned once every row annihilates every vector exactly.  An unlucky
    prime only pushes pivots to later columns, so the lexicographically
    smallest pivot set seen wins; a prime dividing a denominator is
    skipped.  A certified vector for free column f is a kernel vector
    supported on f and pivots left of f, so f is a true free column, and
    rank_p <= rank_Q then makes the free sets equal.
    """
    int_rows = []
    den_all = 1
    for row in rows:
        den = 1
        for x in row.values():
            den = lcm(den, int(x.denominator))
        den_all = lcm(den_all, den)
        int_rows.append({c: int(x.numerator) * (den // int(x.denominator))
                         for c, x in row.items() if x})
    # short rows first keeps the pivot rows sparse
    int_rows.sort(key=len)
    best_key = modulus = residues = None
    for p in _word_primes():
        if den_all % p == 0:
            continue
        piv = _echelon_mod(int_rows, ncols, p)
        if len(piv) == ncols:
            return []
        key = sorted(piv) + [ncols]
        if best_key is not None and key > best_key:
            continue
        _back_substitute_mod(piv, p)
        vecs = {f: {} for f in range(ncols) if f not in piv}
        for pc, row in piv.items():
            for f, a in row.items():
                vecs[f][pc] = p - a
        if key != best_key:
            best_key, modulus, residues = key, p, vecs
        else:
            # Chinese remaindering: x = r (mod modulus), x = s (mod p)
            inv = pow(modulus, -1, p)
            for f, vec in residues.items():
                new = vecs[f]
                for c in vec.keys() | new.keys():
                    r = vec.get(c, 0)
                    vec[c] = r + modulus * ((new.get(c, 0) - r) * inv % p)
            modulus *= p
        basis = _lift(residues, modulus)
        if basis is not None and _in_kernel(int_rows, basis):
            return basis


# ---------------------------------------------------------------------------
# nullspaces and minimal solutions over the function field
# ---------------------------------------------------------------------------

def rf_nullspace(rows, ncols):
    """Right nullspace basis over the function field: (rank, basis).

    Basis vectors have denominators cleared: entries are polynomial-valued
    RatFuncs scaled by the lcm of the raw denominators.
    """
    ring = rows[0][0].ring
    ech = QEchelon(ncols)
    for r in rows:
        ech.add(r)
    basis = _rref_nullspace(ech.pivots, ncols, RatFunc.from_const(ring, 0),
                            RatFunc.from_const(ring, 1))
    return ech.rank, [clear_denominators(v) for v in basis]


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
    ech = QEchelon(ncols + 1)
    for r, b in zip(rows, rhs):
        ech.add(list(r) + [b])
    if ncols in ech.pivots:
        return None
    x = [RatFunc.from_const(rows[0][0].ring, 0) for _ in range(ncols)]
    for pc, row in ech.pivots.items():
        x[pc] = row[ncols]
    return x
