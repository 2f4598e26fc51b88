"""Free Lie algebra on two generators, truncated at a nilpotency step.

Elements are represented inside the truncated tensor algebra (dicts from
words over {0,1} to rationals).  The Lyndon basis provides a basis of each
graded component; bracket words for basis elements use the same nested-pair
word encoding as the distribution module (ints for generators, pairs for
brackets).

Also computes the Baker-Campbell-Hausdorff combination as an exact rational
combination of Lyndon bracket words, used to build polynomial group laws
for flat models.
"""

from __future__ import annotations

from functools import lru_cache

from .kernel import Q, q_solve

_ZERO = Q(0)


# -- truncated tensor algebra -----------------------------------------------

def ta_add(a, b):
    out = dict(a)
    for w, c in b.items():
        nc = out.get(w, _ZERO) + c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def ta_scale(a, c):
    if not c:
        return {}
    return {w: v * c for w, v in a.items()}


def ta_mul(a, b, maxlen):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if len(w) > maxlen:
                continue
            nc = out.get(w, _ZERO) + ca * cb
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
    return out


def ta_commutator(a, b, maxlen):
    return ta_add(ta_mul(a, b, maxlen), ta_scale(ta_mul(b, a, maxlen), -1))


def ta_exp(a, maxlen):
    """exp of an element with no constant term, truncated."""
    out = {(): Q(1)}
    term = {(): Q(1)}
    for k in range(1, maxlen + 1):
        term = ta_scale(ta_mul(term, a, maxlen), Q(1, k))
        if not term:
            break
        out = ta_add(out, term)
    return out


def ta_log(a, maxlen):
    """log of an element with constant term 1, truncated."""
    y = dict(a)
    y.pop((), None)
    out = {}
    term = {(): Q(1)}
    for k in range(1, maxlen + 1):
        term = ta_mul(term, y, maxlen)
        if not term:
            break
        out = ta_add(out, ta_scale(term, Q((-1) ** (k + 1), k)))
    return out


# -- Lyndon words and bracketing --------------------------------------------

def _duval(maxlen, alphabet=2):
    """Duval's algorithm, classic form."""
    out = []
    w = [0]
    while w:
        out.append(tuple(w))
        while len(w) < maxlen:
            w.append(w[len(w) % len(out[-1])])
        while w and w[-1] == alphabet - 1:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(out, key=lambda t: (len(t), t))


def lyndon_basis(maxlen):
    """Lyndon words of length <= maxlen over {0,1}, sorted by (length, word)."""
    return _duval(maxlen)


@lru_cache(maxsize=None)
def standard_factorization(w):
    """w = u v with v the lexicographically smallest proper suffix (which is
    the standard right factor); both u and v are Lyndon."""
    assert len(w) > 1
    best = None
    for i in range(1, len(w)):
        suf = w[i:]
        if best is None or suf < best[1]:
            best = (w[:i], suf)
    return best


@lru_cache(maxsize=None)
def bracket_word(w):
    """Nested-pair bracket word for a Lyndon word (ints = generators)."""
    if len(w) == 1:
        return w[0]
    u, v = standard_factorization(w)
    return (bracket_word(u), bracket_word(v))


def expand_word(word, maxlen):
    """Tensor-algebra expansion of a nested bracket word."""
    if isinstance(word, int):
        return {(word,): Q(1)}
    return ta_commutator(expand_word(word[0], maxlen),
                         expand_word(word[1], maxlen), maxlen)


class FreeLieTruncated:
    """Free 2-generator Lie algebra truncated at step `mu`, in its Lyndon
    basis, with exact structure constants."""

    def __init__(self, mu):
        self.mu = mu
        self.basis = lyndon_basis(mu)
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.bracket_words = [bracket_word(w) for w in self.basis]
        self.expansions = [expand_word(bw, mu) for bw in self.bracket_words]
        self.dims = [sum(1 for w in self.basis if len(w) == d)
                     for d in range(1, mu + 1)]

    def decompose(self, elt, degree):
        """Coordinates of a homogeneous-degree Lie element in the Lyndon
        basis of that degree."""
        idxs = [i for i, w in enumerate(self.basis) if len(w) == degree]
        words = sorted({w for i in idxs for w in self.expansions[i]} |
                       {w for w in elt if len(w) == degree})
        rows = [[self.expansions[i].get(w, _ZERO) for i in idxs] for w in words]
        rhs = [elt.get(w, _ZERO) for w in words]
        sol = q_solve(rows, rhs, len(idxs))
        if sol is None:
            raise ValueError("element is not a Lie element of degree %d"
                             % degree)
        return list(zip(idxs, sol))

    def structure_constants(self):
        """structure[a][b] = coordinate vector of [basis_a, basis_b]."""
        n = len(self.basis)
        st = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                d = len(self.basis[a]) + len(self.basis[b])
                if d > self.mu:
                    continue
                elt = ta_commutator(self.expansions[a], self.expansions[b],
                                    self.mu)
                for i, c in self.decompose(elt, d):
                    if c:
                        st[a][b][i] = c
                        st[b][a][i] = -c
        return st

    def bch_combination(self):
        """BCH: log(exp(e0) exp(e1)) as [(bracket_word, coeff), ...]."""
        ea = {(0,): Q(1)}
        eb = {(1,): Q(1)}
        z = ta_log(ta_mul(ta_exp(ea, self.mu), ta_exp(eb, self.mu), self.mu),
                   self.mu)
        out = []
        for d in range(1, self.mu + 1):
            part = {w: c for w, c in z.items() if len(w) == d}
            if not part:
                continue
            for i, c in self.decompose(part, d):
                if c:
                    out.append((self.bracket_words[i], c))
        return out


@lru_cache(maxsize=None)
def bch_words(mu):
    """Cached BCH combination at truncation step mu."""
    return tuple(FreeLieTruncated(mu).bch_combination())
