"""Rank-2 distributions: derived flags, growth vectors, Goursat detection,
equiregularity sampling, and Tanaka symbols.

Growth vectors are computed pointwise at exact rational points; genericity
is restored by multi-point sampling (see equiregular_check).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import (DegenerateFrame, NonEquiregular, NotBracketGenerating,
                     SamplingFailure)
from .kernel import PoleError, Q, QEchelon, as_q, q_solve
from .geometry import lie_bracket

# Default sampling box: integer offsets in [-3, 3] scaled by 1/2.
_BOX = [Q(k, 2) for k in range(-3, 4)]


def sample_point_near(q, rng):
    """A random rational point near q with small height."""
    return [as_q(x) + rng.choice(_BOX) for x in q]


class Distribution:
    """A chart plus a frame of vector fields (rank 2 for primary inputs;
    longer frames occur for derived objects such as D^2)."""

    def __init__(self, chart, frame):
        self.chart = chart
        self.frame = list(frame)
        for f in self.frame:
            if f.chart != chart:
                raise ValueError("frame field on a different chart")
        self._word_cache = {}

    @property
    def rank(self):
        return len(self.frame)

    def word_field(self, word):
        """Vector field of a bracket word.

        Words are either a generator index or a pair (w1, w2) meaning the
        bracket [w1, w2]; fields are cached per distribution.
        """
        if isinstance(word, int):
            return self.frame[word]
        f = self._word_cache.get(word)
        if f is None:
            f = lie_bracket(self.word_field(word[0]), self.word_field(word[1]))
            self._word_cache[word] = f
        return f

    def check_frame_at(self, q):
        try:
            values = [f.at(q) for f in self.frame]
        except PoleError:
            raise PoleError("frame has a pole at the query point")
        ech = QEchelon(self.chart.dim)
        for v in values:
            ech.add(v)
        if ech.rank != len(self.frame):
            raise DegenerateFrame("frame fields dependent at %s" % (list(q),))


def word_length(word):
    if isinstance(word, int):
        return 1
    return word_length(word[0]) + word_length(word[1])


@dataclass
class FlagReport:
    """Pointwise derived-flag data at a base point."""

    kind: str                      # "weak" or "strong"
    point: list
    dims: list                     # dim of each power, starting at rank D
    words: list = field(default_factory=list)   # per level, bracket words kept
    stabilized: bool = False

    @property
    def growth_vector(self):
        return tuple(self.dims)


def weak_flag(dist, q, max_depth=None):
    """Weak derived flag D^i(q) via left-normed bracket words.

    dims[i-1] = dim D^i(q).  Stops at stabilization, full dimension, or
    max_depth levels.
    """
    n = dist.chart.dim
    if max_depth is None:
        max_depth = n
    dist.check_frame_at(q)
    ech = QEchelon(n)
    gen_idx = list(range(dist.rank))
    level_words = [list(gen_idx)]
    kept = []
    dims = []
    for w in gen_idx:
        ech.add(dist.word_field(w).at(q))
    kept.append(list(gen_idx))
    dims.append(ech.rank)
    stabilized = False
    while len(dims) < max_depth:
        prev = level_words[-1]
        new_words = []
        new_kept = []
        for a in gen_idx:
            for w in prev:
                bw = (a, w)
                f = dist.word_field(bw)
                if f.is_zero():
                    continue
                new_words.append(bw)
                if ech.add(f.at(q)):
                    new_kept.append(bw)
        level_words.append(new_words)
        kept.append(new_kept)
        dims.append(ech.rank)
        if dims[-1] == dims[-2]:
            stabilized = True
            dims.pop()
            kept.pop()
            break
        if dims[-1] == n:
            stabilized = True
            break
    return FlagReport("weak", list(q), dims, kept, stabilized)


def strong_flag(dist, q, max_depth=None):
    """Strong derived flag D^[i](q): each level brackets the previous level
    with itself.

    Spanning sets are pruned to pointwise-independent subsets at q, which
    is valid at points where the flag ranks are locally constant.
    """
    n = dist.chart.dim
    if max_depth is None:
        max_depth = n
    dist.check_frame_at(q)
    ech = QEchelon(n)
    spanning = []       # pruned pointwise-independent spanning words
    kept_levels = []
    dims = []
    for w in range(dist.rank):
        if ech.add(dist.word_field(w).at(q)):
            spanning.append(w)
    kept_levels.append(list(spanning))
    dims.append(ech.rank)
    stabilized = False
    while len(dims) < max_depth:
        new_kept = []
        for wa, wb in itertools.combinations(list(spanning), 2):
            bw = (wa, wb)
            f = dist.word_field(bw)
            if f.is_zero():
                continue
            if ech.add(f.at(q)):
                new_kept.append(bw)
        spanning.extend(new_kept)
        kept_levels.append(new_kept)
        dims.append(ech.rank)
        if dims[-1] == dims[-2]:
            stabilized = True
            dims.pop()
            kept_levels.pop()
            break
        if dims[-1] == n:
            stabilized = True
            break
    return FlagReport("strong", list(q), dims, kept_levels, stabilized)


def cube_dim(dist, q):
    """dim D^3(q); for a rank-2 frame this is at most 5."""
    report = weak_flag(dist, q, max_depth=3)
    d = report.dims[min(2, len(report.dims) - 1)]
    if dist.rank == 2:
        assert d <= 5, "rank-2 cube exceeded dimension 5"
    return d


def is_goursat(dist, q, samples=3, seed=0):
    """True iff the strong flag grows by exactly one per level, i.e. dims
    are (2, 3, ..., n), at q and at `samples` random nearby points."""
    n = dist.chart.dim
    expected = tuple(range(2, n + 1))
    rng = random.Random(seed)
    points = [list(q)]
    budget = 10 * samples + 10
    while len(points) < samples + 1 and budget:
        budget -= 1
        p = sample_point_near(q, rng)
        try:
            dist.check_frame_at(p)
        except (PoleError, DegenerateFrame):
            continue
        points.append(p)
    for p in points:
        rep = strong_flag(dist, p, max_depth=n)
        if rep.growth_vector != expected:
            return False
    return True


def equiregular_check(dist, q, samples=5, seed=0):
    """True iff the small growth vector at q matches the one at `samples`
    random rational points in a box around q.  Probabilistic proxy for
    equiregularity; a negative answer is definitive."""
    rng = random.Random(seed)
    base = weak_flag(dist, q).growth_vector
    found = 0
    budget = 20 * samples + 20
    while found < samples:
        if budget == 0:
            raise SamplingFailure("could not draw %d pole-free sample points"
                                  % samples)
        budget -= 1
        p = sample_point_near(q, rng)
        try:
            rep = weak_flag(dist, p)
        except (PoleError, DegenerateFrame):
            continue
        found += 1
        if rep.growth_vector != base:
            return False
    return True


# ---------------------------------------------------------------------------
# graded nilpotent symbols
# ---------------------------------------------------------------------------

class InvalidSymbol(ValueError):
    """Structure constants violate a graded-Lie-algebra axiom."""


@dataclass
class GradedSymbol:
    """Graded nilpotent Lie algebra g_{-1} + ... + g_{-mu} by structure
    constants in a homogeneous basis ordered by increasing depth."""

    dims: list                  # [dim g_{-1}, ..., dim g_{-mu}]
    structure: list             # structure[a][b] = list of Q, length N
    labels: list = None         # basis labels (generated if omitted)
    words: list = None          # optional: bracket words realizing the basis

    def __post_init__(self):
        if self.labels is None:
            self.labels = ["e%d" % (i + 1) for i in range(self.total_dim)]

    @property
    def depth(self):
        return len(self.dims)

    @property
    def total_dim(self):
        return sum(self.dims)

    def level_of(self, i):
        """Grading level (1-based positive depth) of basis index i."""
        acc = 0
        for lvl, d in enumerate(self.dims, start=1):
            acc += d
            if i < acc:
                return lvl
        raise IndexError(i)

    def bracket(self, u, v):
        """Bracket of coordinate vectors."""
        return structure_bracket(self.structure, u, v)

    def validate(self):
        """Check antisymmetry, grading, Jacobi, and generation by g_{-1}."""
        n = self.total_dim
        st = self.structure
        for a in range(n):
            for b in range(n):
                la, lb = self.level_of(a), self.level_of(b)
                target = la + lb
                for k in range(n):
                    if st[a][b][k] != -st[b][a][k]:
                        raise InvalidSymbol("antisymmetry fails at (%d,%d,%d)"
                                            % (a, b, k))
                    if st[a][b][k] and self.level_of(k) != target:
                        raise InvalidSymbol(
                            "grading fails: [%d,%d] has level-%d component"
                            % (a, b, self.level_of(k)))
                if target > self.depth and any(st[a][b]):
                    raise InvalidSymbol("bracket below depth -%d nonzero"
                                        % self.depth)
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    acc = [Q(0)] * n
                    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                        inner = st[v][w]
                        for k in range(n):
                            if inner[k]:
                                outer = st[u][k]
                                for m in range(n):
                                    if outer[m]:
                                        acc[m] += inner[k] * outer[m]
                    if any(acc):
                        raise InvalidSymbol("Jacobi fails at (%d,%d,%d)"
                                            % (a, b, c))
        # generation: degree -1 must generate the whole algebra
        ech = QEchelon(n)
        d1 = self.dims[0]
        gens = []
        for i in range(d1):
            v = [Q(0)] * n
            v[i] = Q(1)
            gens.append(v)
            ech.add(v)
        frontier = list(gens)
        while frontier:
            new = []
            for g in gens:
                for v in frontier:
                    w = self.bracket(g, v)
                    if any(w) and ech.add(w):
                        new.append(w)
            frontier = new
        if ech.rank != n:
            raise InvalidSymbol("degree -1 component does not generate")
        return True

    def eval_word(self, word):
        """Evaluate a bracket word on the abstract generators."""
        if isinstance(word, int):
            v = [Q(0)] * self.total_dim
            v[word] = Q(1)
            return v
        return self.bracket(self.eval_word(word[0]), self.eval_word(word[1]))

    def __eq__(self, other):
        if not isinstance(other, GradedSymbol):
            return NotImplemented
        return self.dims == other.dims and self.structure == other.structure


def structure_bracket(st, u, v):
    """Bracket of coordinate vectors u, v under structure constants
    st[a][b] = coordinate vector of [e_a, e_b]."""
    n = len(st)
    out = [Q(0)] * n
    for a in range(n):
        ua = u[a]
        if not ua:
            continue
        row = st[a]
        for b in range(n):
            vb = v[b]
            if not vb:
                continue
            c = row[b]
            coef = ua * vb
            for k in range(n):
                if c[k]:
                    out[k] += coef * c[k]
    return out


def _symbol_from_words(value, nonzero, ngens, depth, dim):
    """Graded symbol spanned by bracket words of `ngens` generators.

    Level-1 words are the generators; level-(i+1) words are the pairs
    (a, w) of a generator a and a level-i word w with nonzero((a, w)).
    `value(word)` is a length-`dim` vector over Q.  The adapted basis keeps,
    level by level and in that word order, each word whose value extends
    the span of the words kept so far (deterministic greedy pivoting);
    structure constants are the level-(i+j) coordinates of basis brackets.
    """
    gen_idx = list(range(ngens))
    level_words = [gen_idx]
    for _ in range(depth - 1):
        level_words.append([(a, w) for a in gen_idx for w in level_words[-1]
                            if nonzero((a, w))])
    ech = QEchelon(dim)
    chosen = []         # list of (word, level)
    basis_vals = []
    dims = []
    for lvl, words in enumerate(level_words, start=1):
        count = 0
        for w in words:
            v = value(w)
            if ech.add(v):
                chosen.append((w, lvl))
                basis_vals.append(v)
                count += 1
        dims.append(count)
    # express vectors in the adapted basis: solve V^T c = vec
    cols = list(zip(*basis_vals))
    mu = len(dims)
    N = len(chosen)
    structure = [[[Q(0)] * N for _ in range(N)] for _ in range(N)]
    for a in range(N):
        wa, la = chosen[a]
        for b in range(a + 1, N):
            wb, lb = chosen[b]
            target = la + lb
            if target > mu:
                continue
            coords = q_solve(cols, value((wa, wb)), N)
            if coords is None:
                raise ValueError("vector not in basis span")
            for k in range(N):
                if coords[k] and chosen[k][1] == target:
                    structure[a][b][k] = coords[k]
                    structure[b][a][k] = -coords[k]
    sym = GradedSymbol(dims=dims, structure=structure,
                       words=[w for w, _ in chosen])
    sym.validate()
    return sym


def tanaka_symbol(dist, q, samples=3, seed=0, max_depth=None):
    """Tanaka symbol of the distribution at an equiregular point.

    The adapted basis is chosen by deterministic greedy pivoting over
    left-normed bracket words; structure constants are the level-(i+j)
    coordinates of basis brackets at q.
    """
    n = dist.chart.dim
    if samples and not equiregular_check(dist, q, samples=samples, seed=seed):
        raise NonEquiregular("growth vector varies near the query point")
    rep = weak_flag(dist, q, max_depth=max_depth or n)
    if rep.dims[-1] != n:
        raise NotBracketGenerating(
            "bracket words span only %d of %d dimensions" % (rep.dims[-1], n))
    return _symbol_from_words(lambda w: dist.word_field(w).at(q),
                              lambda w: not dist.word_field(w).is_zero(),
                              dist.rank, len(rep.dims), n)


def abstract_tanaka_replay(sym):
    """Run the tanaka adapted-basis procedure inside an abstract symbol.

    Returns the GradedSymbol the pointwise algorithm would produce for the
    flat model of `sym`, using the same deterministic word order.  Used by
    the flat-model round trip.
    """
    return _symbol_from_words(sym.eval_word, lambda w: any(sym.eval_word(w)),
                              sym.dims[0], sym.depth, sym.total_dim)
