"""Free Lie algebra on two generators: Lyndon words and their brackets.

Lie elements are expanded in the tensor algebra (dicts from words over
{0,1} to rationals).  The Lyndon words give a basis of each graded
component; bracket words for basis elements use the same nested-pair word
encoding as the distribution module (ints for generators, pairs for
brackets).  `models.free_nilpotent_symbol` reads the structure constants of
the free nilpotent symbols off these expansions.
"""

from __future__ import annotations

from functools import lru_cache

from .kernel import Q

_ZERO = Q(0)


def ta_commutator(a, b):
    """ab - ba in the tensor algebra."""
    out = {}
    for sign, x, y in ((1, a, b), (-1, b, a)):
        for wx, cx in x.items():
            for wy, cy in y.items():
                out[wx + wy] = out.get(wx + wy, _ZERO) + sign * cx * cy
    return {w: c for w, c in out.items() if c}


def lyndon_basis(maxlen):
    """Lyndon words of length <= maxlen over {0,1}, sorted by (length,
    word): Duval's algorithm, classic form."""
    out = []
    w = [0]
    while w:
        out.append(tuple(w))
        while len(w) < maxlen:
            w.append(w[len(w) % len(out[-1])])
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(out, key=lambda t: (len(t), t))


@lru_cache(maxsize=None)
def standard_factorization(w):
    """w = u v with v the lexicographically smallest proper suffix (which is
    the standard right factor); both u and v are Lyndon."""
    if len(w) < 2:
        raise ValueError("a word of length %d has no standard factorization"
                         % len(w))
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


def expand_word(word):
    """Tensor-algebra expansion of a nested bracket word."""
    if isinstance(word, int):
        return {(word,): Q(1)}
    return ta_commutator(expand_word(word[0]), expand_word(word[1]))
