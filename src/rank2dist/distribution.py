"""Rank-2 distributions: derived flags, growth vectors, Goursat detection,
equiregularity sampling, and Tanaka symbols.

Growth vectors are computed pointwise at exact rational points; genericity
is restored by multi-point sampling (see equiregular_check).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

from .errors import (DegenerateFrame, InvariantViolation, NonEquiregular,
                     NotBracketGenerating, SamplingFailure)
from .kernel import PoleError, Q, QEchelon, as_q, point_str, q_coordinates
from .geometry import lie_bracket

# Default sampling box: integer offsets in [-3, 3] scaled by 1/2.
_BOX = [Q(k, 2) for k in range(-3, 4)]


def nearby_points(dist, q, count, budget, seed):
    """Up to `count` seeded random rational points in the box around q at
    which the frame is pole-free and independent, drawn lazily from at most
    `budget` candidates."""
    rng = random.Random(seed)
    for _ in range(budget):
        if count <= 0:
            return
        p = [as_q(x) + rng.choice(_BOX) for x in q]
        try:
            dist.check_frame_at(p)
        except (PoleError, DegenerateFrame):
            continue
        count -= 1
        yield p


class Distribution:
    """A chart plus a frame of vector fields (rank 2 for primary inputs;
    longer frames occur for derived objects such as D^2)."""

    def __init__(self, chart, frame):
        self.chart = chart
        self.frame = list(frame)
        for f in self.frame:
            if f.chart != chart:
                raise ValueError("frame field on a different chart")
        self._memo = {}

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
        f = self._memo.get(word)
        if f is None:
            f = lie_bracket(self.word_field(word[0]), self.word_field(word[1]))
            self._memo[word] = f
        return f

    def word_value(self, word, q):
        """Exact value of a bracket word's field at the point q, as a tuple
        of Q; kept in the memo, so each word is evaluated once per point."""
        # tagged like per_distribution keys: Q(1) == 1, so an untagged
        # (word, point) pair could equal the key of a bracket word
        pt = tuple(as_q(x) for x in q)
        key = ("word_value", word, pt)
        v = self._memo.get(key)
        if v is None:
            v = self._memo[key] = tuple(self.word_field(word).at(pt))
        return v

    def check_frame_at(self, q):
        try:
            values = [self.word_value(i, q) for i in range(self.rank)]
        except PoleError:
            raise PoleError("frame has a pole at the query point")
        ech = QEchelon(self.chart.dim)
        for v in values:
            ech.add(v)
        if ech.rank != len(self.frame):
            raise DegenerateFrame("frame fields dependent at %s"
                                  % point_str(q))


def per_distribution(fn):
    """Memoize fn(dist) or fn(dist, q) in the distribution, which holds the
    one memo of everything that depends only on its frame and the point.

    The point is keyed, and handed to fn, as a tuple of Q, as in
    `word_value`, so lists, tuples, ints, strings and Q values of one point
    share one entry.  Results are shared: never mutate them."""
    @functools.wraps(fn)
    def memoized(dist, *point):
        key = (fn.__name__,) + tuple(tuple(as_q(x) for x in q)
                                     for q in point)
        if key not in dist._memo:
            dist._memo[key] = fn(dist, *key[1:])
        return dist._memo[key]
    return memoized


@dataclass
class FlagReport:
    """Pointwise derived-flag data at a base point.  `weak_flag` and
    `strong_flag` share one report per point: never mutate it."""

    dims: list                     # dim of each power, starting at rank D
    words: list = field(default_factory=list)   # per level, bracket words kept

    @property
    def growth_vector(self):
        return tuple(self.dims)

    @property
    def cube(self):
        """dim D^3(q), or the last dim when the flag stops earlier."""
        return self.dims[min(2, len(self.dims) - 1)]


@per_distribution
def weak_flag(dist, q):
    """Weak derived flag D^i(q) via left-normed bracket words, from the
    frame checked at q.

    dims[i-1] = dim D^i(q); stops at stabilization or full dimension.
    Memoized per point: the FlagReport is shared, never mutate it.
    """
    dist.check_frame_at(q)
    n = dist.chart.dim
    dims, kept = _weak_levels(
        lambda w: dist.word_value(w, q),
        lambda w: not dist.word_field(w).is_zero(),
        range(dist.rank), n, n)
    return FlagReport(dims, kept)


def _weak_levels(value, nonzero, gens, dim, max_depth):
    """The adapted basis of a weak flag by deterministic greedy pivoting.

    Level 1 is `gens`; level i+1 brackets each generator a with each
    nonzero level-i word w as (a, w).  Each level keeps, in that order, the
    words whose `value` (a length-`dim` vector over Q) extends the span of
    the words kept so far.  Returns (dims, kept words per level).
    """
    gens = list(gens)
    ech = QEchelon(dim)
    for w in gens:
        ech.add(value(w))
    words, kept, dims = gens, [gens], [ech.rank]
    while len(dims) < max_depth and dims[-1] < dim:
        words = [(a, w) for a in gens for w in words if nonzero((a, w))]
        kept.append([w for w in words if ech.add(value(w))])
        dims.append(ech.rank)
        if dims[-1] == dims[-2]:
            dims.pop()
            kept.pop()
            break
    return dims, kept


@per_distribution
def strong_flag(dist, q):
    """Strong derived flag D^[i](q): each level brackets the previous level
    with itself.

    Spanning sets are pruned to pointwise-independent subsets at q, which
    is valid at points where the flag ranks are locally constant.
    Memoized per point: the FlagReport is shared, never mutate it.
    """
    n = dist.chart.dim
    dist.check_frame_at(q)
    ech = QEchelon(n)
    spanning = [w for w in range(dist.rank)
                if ech.add(dist.word_value(w, q))]
    dims = [ech.rank]
    while dims[-1] < n:
        for wa, wb in itertools.combinations(list(spanning), 2):
            bw = (wa, wb)
            if (not dist.word_field(bw).is_zero() and
                    ech.add(dist.word_value(bw, q))):
                spanning.append(bw)
        dims.append(ech.rank)
        if dims[-1] == dims[-2]:
            dims.pop()
            break
    return FlagReport(dims)


def square_words(dist):
    """Words of X1, X2, X3=[X1,X2], X4=[X1,X3], X5=[X2,X3] of a rank-2
    frame."""
    if dist.rank != 2:
        raise ValueError("need a rank-2 frame")
    return (0, 1, (0, 1), (0, (0, 1)), (1, (0, 1)))


def square_fields(dist):
    """The fields X1, ..., X5 of `square_words`."""
    return tuple(dist.word_field(w) for w in square_words(dist))


def cube_dim(dist, q):
    """dim D^3(q); for a rank-2 frame this is at most 5."""
    d = weak_flag(dist, q).cube
    if dist.rank == 2 and d > 5:
        raise InvariantViolation("rank-2 cube has dimension %d > 5" % d)
    return d


def is_goursat(dist, q, seed=0):
    """True iff the strong flag grows by exactly one per level, i.e. dims
    are (2, 3, ..., n), at q and at three random nearby points."""
    n = dist.chart.dim
    expected = tuple(range(2, n + 1))
    points = [list(q)] + list(nearby_points(dist, q, 3, 40, seed))
    for p in points:
        rep = strong_flag(dist, p)
        if rep.growth_vector != expected:
            return False
    return True


def equiregular_check(dist, q, samples=5, seed=0):
    """True iff the small growth vector at q matches the one at `samples`
    random rational points in a box around q.  Probabilistic proxy for
    equiregularity; a negative answer is definitive."""
    base = weak_flag(dist, q).growth_vector
    found = 0
    for p in nearby_points(dist, q, samples, 20 * samples + 20, seed):
        if weak_flag(dist, p).growth_vector != base:
            return False
        found += 1
    if found < samples:
        raise SamplingFailure("could not draw %d pole-free sample points"
                              % samples)
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


def _symbol_from_basis(levels, value):
    """Graded symbol of an adapted basis of bracket words.

    `levels[i]` are the basis words of level i+1 and `value(word)` is a
    vector over Q; structure constants are the level-(i+j) coordinates of
    basis brackets.
    """
    chosen = [(w, lvl) for lvl, words in enumerate(levels, start=1)
              for w in words]
    vectors = [value(w) for w, _ in chosen]
    coordinates = q_coordinates(vectors, len(vectors[0]))
    mu = len(levels)
    N = len(chosen)
    structure = [[[Q(0)] * N for _ in range(N)] for _ in range(N)]
    for a in range(N):
        wa, la = chosen[a]
        for b in range(a + 1, N):
            wb, lb = chosen[b]
            target = la + lb
            if target > mu:
                continue
            coords = coordinates(value((wa, wb)))
            if coords is None:
                raise ValueError("vector not in basis span")
            for k in range(N):
                if coords[k] and chosen[k][1] == target:
                    structure[a][b][k] = coords[k]
                    structure[b][a][k] = -coords[k]
    sym = GradedSymbol(dims=[len(words) for words in levels],
                       structure=structure, words=[w for w, _ in chosen])
    sym.validate()
    return sym


def tanaka_symbol(dist, q, samples=3, seed=0):
    """Tanaka symbol of the distribution at an equiregular point.

    The adapted basis is the one `weak_flag` keeps at q (deterministic
    greedy pivoting over left-normed bracket words); structure constants
    are the level-(i+j) coordinates of basis brackets at q.
    """
    n = dist.chart.dim
    if samples and not equiregular_check(dist, q, samples=samples, seed=seed):
        raise NonEquiregular("growth vector varies near the query point")
    rep = weak_flag(dist, q)
    if rep.dims[-1] != n:
        raise NotBracketGenerating(
            "bracket words span only %d of %d dimensions" % (rep.dims[-1], n))
    return _symbol_from_basis(rep.words, lambda w: dist.word_value(w, q))
