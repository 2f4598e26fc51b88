"""Cotangent lifts: Hamiltonians, Poisson brackets, characteristic field,
fiber sampling, cone-flag class computation, full subspace table."""

import random

import pytest
import sympy as sp

import rank2dist.symplectic as symplectic
from rank2dist.distribution import Distribution, square_words
from rank2dist.errors import PreconditionError
from rank2dist.geometry import Chart, lie_bracket
from rank2dist.kernel import PoleError, Q, QEchelon, _word_primes
from rank2dist.models import cartan_jet, flat_from_symbol, \
    free_nilpotent_symbol, monge_model
from rank2dist.symplectic import (CotangentChart, CovectorSample,
                                  annihilator_basis, char_field,
                                  class_at_point, class_at_sample,
                                  cone_J_generators, fiber_sample,
                                  hamiltonians, pointwise_full_flag,
                                  projected_sample, square_fields)

from oracles import (apply_to, class_trace_oracle, monge_frame, poisson,
                     poisson_oracle, sym_vars, symbolic_class_tower)


def origin(dist):
    return [Q(0)] * dist.chart.dim


class TestCotangentChart:
    def test_momentum_names(self):
        ct = CotangentChart(Chart(("x", "y")))
        assert ct.momenta == ("p_x", "p_y")
        assert ct.chart.dim == 4

    def test_hamiltonian_monge5(self):
        dist = monge_model(5)
        ct, hs = hamiltonians(dist)
        # h1 = p_x + y1 p_y0 + y2 p_y1 + y2^2 p_z
        expect = ct.chart.ratfunc("p_x + y1*p_y0 + y2*p_y1 + y2^2*p_z")
        assert hs[0] == expect
        assert hs[1] == ct.chart.ratfunc("p_y2")

    def test_poisson_canonical_pairs(self):
        ct = CotangentChart(Chart(("x", "y")))
        px = ct.chart.ratfunc("p_x")
        x = ct.chart.ratfunc("x")
        y = ct.chart.ratfunc("y")
        assert poisson(ct, px, x) == ct.chart.ratfunc("1")
        assert poisson(ct, px, y).is_zero()
        assert poisson(ct, x, px) == ct.chart.ratfunc("-1")

    def test_poisson_matches_oracle(self):
        ct = CotangentChart(Chart(("x", "y")))
        f = ct.chart.ratfunc("x*p_y + p_x^2")
        g = ct.chart.ratfunc("y^2*p_x + x")
        got = poisson(ct, f, g)
        base = sym_vars(["x", "y"])
        mom = sym_vars(["p_x", "p_y"])
        x, y = base
        px, py = mom
        expect = poisson_oracle(x * py + px ** 2, y ** 2 * px + x, base, mom)
        assert sp.expand(sp.sympify(got.to_str().replace("^", "**"))
                         - expect) == 0

    def test_poisson_lie_homomorphism(self):
        # {h_X, h_Y} = h_[X,Y] for the model frame brackets
        dist = monge_model(6)
        ct, hs = hamiltonians(dist)
        x1, x2, x3, x4, x5 = square_fields(dist)
        assert poisson(ct, hs[0], hs[1]) == hs[2]
        assert poisson(ct, hs[0], hs[2]) == hs[3]
        assert poisson(ct, hs[1], hs[2]) == hs[4]
        assert poisson(ct, hs[0], hs[0]).is_zero()

    def test_ham_field_applies_poisson(self):
        ct = CotangentChart(Chart(("x", "y")))
        h = ct.chart.ratfunc("x*p_x + y^2*p_y")
        g = ct.chart.ratfunc("x^2 + p_y")
        assert apply_to(ct.ham_field(h), g) == poisson(ct, h, g)


class TestCharField:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_tangency_identities(self, n):
        dist = monge_model(n)
        ct, hs = hamiltonians(dist)
        _, xc = char_field(dist)
        h1, h2, h3, h4, h5 = hs
        assert apply_to(xc, h1) == h4 * h3
        assert apply_to(xc, h2) == h5 * h3
        assert apply_to(xc, h3).is_zero()


class TestFiberSample:
    def test_constraints_hold_exactly(self):
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist), seed=1)
        assert s.h_values[0] == 0 and s.h_values[1] == 0 \
            and s.h_values[2] == 0
        assert s.h_values[3] != 0 or s.h_values[4] != 0

    def test_seeded_determinism(self):
        dist = monge_model(5)
        a = fiber_sample(dist, origin(dist), seed=7)
        b = fiber_sample(dist, origin(dist), seed=7)
        assert a.momentum == b.momentum

    def test_scaling(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        t = s.scaled(Q(3, 2))
        assert t.h_values == [Q(3, 2) * v for v in s.h_values]

    def test_annihilator_basis_size(self):
        for n in (5, 6, 7):
            assert len(annihilator_basis(monge_model(n))) == n - 3


class TestProjectedSample:
    def test_projection_is_exact_and_orthogonal(self):
        dist = monge_model(7)
        rng = random.Random(3)
        q = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)]
        p = [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(7)]
        s = projected_sample(dist, q, p)
        _, hs = hamiltonians(dist)
        assert [h.eval(s.point) for h in hs] == s.h_values
        assert s.h_values[:3] == [0, 0, 0]
        # the removed part p - p' lies in span{X1, X2, X3}(q)
        ech = QEchelon(7)
        for f in square_fields(dist)[:3]:
            ech.add(f.at(q))
        assert ech.contains([a - b for a, b in zip(p, s.momentum)])

    def test_fiber_sample_is_fixed(self):
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist), seed=2)
        t = projected_sample(dist, s.base_point, s.momentum)
        assert t.momentum == s.momentum and t.h_values == s.h_values


class TestClass:
    def test_monge5_trace(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        nu, dims = class_at_sample(dist, s)
        assert nu == 2
        assert dims == (4, 5, 6, 6)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_monge_maximal(self, n):
        dist = monge_model(n)
        rep = class_at_point(dist, origin(dist), samples=3)
        assert rep.m == n - 3
        assert rep.maximal_class
        best = max((dims for _, nu, dims in rep.per_sample if nu == rep.m),
                   key=len)
        assert best == tuple(list(range(n - 1, 2 * n - 3)) + [2 * n - 4])

    def test_free_flat_step4_maximal(self):
        dist = flat_from_symbol(free_nilpotent_symbol(4))
        rep = class_at_point(dist, origin(dist), samples=3)
        assert rep.m == 5 and rep.maximal_class

    def test_matches_sympy_oracle(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist), seed=2)
        frame, coords = monge_frame(5)
        expect = class_trace_oracle(
            5, frame, coords, [0] * 5,
            [sp.Rational(int(v.numerator), int(v.denominator))
             for v in s.momentum])
        _, dims = class_at_sample(dist, s)
        assert dims == expect

    def test_projective_invariance(self):
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist))
        nu0, dims0 = class_at_sample(dist, s)
        nu1, dims1 = class_at_sample(dist, s.scaled(Q(-5, 3)))
        assert (nu0, dims0) == (nu1, dims1)

    def test_tower_still_rising_after_n_rounds_fails(self, monkeypatch):
        # a flow whose rank rises in every round through generator 0, as
        # only a degenerate reduction modulo p could
        n = 6
        dist = monge_model(n)
        s = fiber_sample(dist, origin(dist))

        def unit(k):
            return [Q(int(i == k)) for i in range(2 * n)]

        class Rising:
            def at(self, point, p=None):
                return self

            def field_value(self):
                return unit(0)

            def echelon(self):
                return QEchelon(2 * n)

            def ad(self, j, i):
                return unit(j if i == 0 else n - 2 + i if j == 0 else 0)

        monkeypatch.setattr(symplectic, "_bracket_series",
                            lambda dist: Rising())
        with pytest.raises(PreconditionError,
                           match="failed to stabilize within 6 rounds"):
            symplectic._class_iteration(dist, s, next(_word_primes()))

    def test_samples_share_the_symbolic_work(self, bracket_calls):
        # the tower comes from flow series, so the only brackets are the
        # square words of the frame, and a repeat brackets nothing
        q = [Q(0)] * 7
        dist = monge_model(7)
        class_at_point(dist, q, samples=5)
        assert bracket_calls[0] == sum(not isinstance(w, int)
                                       for w in square_words(dist))
        bracket_calls[0] = 0
        class_at_point(dist, q, samples=5)
        assert bracket_calls[0] == 0

    def test_increment_at_most_one(self):
        dist = monge_model(7)
        s = fiber_sample(dist, origin(dist), seed=4)
        _, dims = class_at_sample(dist, s)
        assert all(b - a in (0, 1) for a, b in zip(dims, dims[1:]))


def monge_frame_from(n, f):
    """Frame of z' = f(x, y0, ..., y_{n-3}) on the Monge chart."""
    m = n - 3
    chart = Chart(["x"] + ["y%d" % i for i in range(m + 1)] + ["z"])
    x1 = chart.field(*(["1"] + ["y%d" % (i + 1) for i in range(m)] +
                       ["0", f]))
    x2 = chart.field(*(["0"] * (m + 1) + ["1", "0"]))
    return Distribution(chart, [x1, x2])


def random_monge(n, seed):
    """Seeded z' = ym^2 + c1 ym u + c2 v + c3 w with u, v, w monomials of
    degrees 1, 3, 2 in x, y0, ..., y(m-1), at a random rational point."""
    rng = random.Random(seed)
    m = n - 3
    lower = ["x"] + ["y%d" % i for i in range(m)]

    def c():
        return "(%d/%d)" % (rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))

    def mono(d):
        return "*".join(rng.choice(lower) for _ in range(d))

    f = "y%d^2 + %s*y%d*%s + %s*%s + %s*%s" % (
        m, c(), m, mono(1), c(), mono(3), c(), mono(2))
    return (monge_frame_from(n, f),
            [Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)])


def _series_cases():
    cases = [("flat%d" % n, monge_model(n), [Q(0)] * n) for n in (5, 6, 7, 8)]
    cases += [("random%d" % n,) + random_monge(n, n) for n in (5, 6, 7, 8)]
    cases.append(("free4", flat_from_symbol(free_nilpotent_symbol(4)),
                  [Q(0)] * 8))
    # rational frames, denominators nonzero at the base point
    cases.append(("rational5", monge_frame_from(5, "y2^2/(1 + y0)"),
                  [Q(1, 2)] + [Q(1)] * 4))
    cases.append(("rational6", monge_frame_from(6, "y3^2/(1 + x)"),
                  [Q(1, 2)] + [Q(1)] * 5))
    return cases


def _span_rank(vectors, ncols):
    ech = QEchelon(ncols)
    for v in vectors:
        ech.add(v)
    return ech.rank


class TestSeriesTower:
    @pytest.mark.parametrize("name,dist,q", _series_cases(),
                             ids=[c[0] for c in _series_cases()])
    def test_levels_span_the_symbolic_tower(self, name, dist, q):
        s = fiber_sample(dist, q, seed=3)
        nu, dims, levels = symplectic._class_iteration(dist, s)
        onu, odims, olevels = symbolic_class_tower(dist, s)
        assert (nu, dims) == (onu, odims)
        assert class_at_sample(dist, s) == (nu, dims)
        ncols = 2 * dist.chart.dim
        for a, b in zip(levels, olevels):
            assert _span_rank(a, ncols) == _span_rank(b, ncols) == \
                _span_rank(a + b, ncols)


@pytest.fixture
def iteration_primes(monkeypatch):
    """The prime (None over Q) of every `_class_iteration` run."""
    real = symplectic._class_iteration
    primes = []

    def recording(dist, sample, p=None):
        primes.append(p)
        return real(dist, sample, p)

    monkeypatch.setattr(symplectic, "_class_iteration", recording)
    return primes


class TestCertifiedPaths:
    def test_maximal_sample_is_decided_modulo_p(self, iteration_primes):
        dist = monge_model(7)
        s = fiber_sample(dist, origin(dist), seed=1)
        assert class_at_sample(dist, s)[0] == 4
        assert iteration_primes == [next(_word_primes())]

    def test_non_maximal_sample_takes_the_exact_path(self,
                                                     iteration_primes):
        # the covector of `trace --model monge --n 7 --seed 509461`
        dist = monge_model(7)
        s = fiber_sample(dist, origin(dist), seed=509461)
        nu, dims = class_at_sample(dist, s)
        assert (nu, dims) == symbolic_class_tower(dist, s)[:2]
        assert nu == 2
        assert iteration_primes == [next(_word_primes()), None]

    def test_prime_dividing_a_denominator_is_skipped(self,
                                                     iteration_primes):
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist), seed=1)
        primes = _word_primes()
        p0, p1 = next(primes), next(primes)
        t = s.scaled(Q(1, p0))
        assert any(v.denominator == p0 for v in t.momentum)
        assert class_at_sample(dist, t) == class_at_sample(dist, s)
        assert iteration_primes == [p1, next(_word_primes())]

    def test_pole_comes_from_the_exact_path(self, iteration_primes):
        dist = monge_frame_from(5, "y2^2/(1 + x)")
        s = fiber_sample(dist, [Q(1, 2)] + [Q(1)] * 4, seed=3)
        # the same momentum over a base point on the pole x = -1
        at_pole = CovectorSample([Q(-1)] + s.base_point[1:], s.momentum,
                                 s.h_values)
        with pytest.raises(PoleError, match="denominator vanishes"):
            class_at_sample(dist, at_pole)
        assert iteration_primes[-1] is None

    def test_generator_pole_comes_from_the_exact_path(self,
                                                      iteration_primes):
        # X1 = (1 + y1) d/dx + ...: the vertical corrections of the lifted
        # generators divide by 1 + y1, which vanishes at the base point
        chart = Chart(["x", "y0", "y1", "y2", "z"])
        dist = Distribution(chart, [
            chart.field("1 + y1", "y1", "y2", "0", "y2^2"),
            chart.field("0", "0", "0", "1", "0")])
        s = fiber_sample(dist, [Q(0), Q(0), Q(-1), Q(1), Q(0)], seed=3)
        with pytest.raises(PoleError, match="denominator vanishes"):
            class_at_sample(dist, s)
        assert iteration_primes[-1] is None

    def test_vanishing_char_field_comes_from_the_exact_path(
            self, iteration_primes):
        dist = monge_model(6)
        zero = CovectorSample(origin(dist), origin(dist), [Q(0)] * 5)
        with pytest.raises(PreconditionError, match="vanishes"):
            class_at_sample(dist, zero)
        assert iteration_primes[-1] is None


class TestConeGenerators:
    def test_involutivity_at_sample(self):
        # brackets of the lifted generators stay inside the next flag level
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        gens, _ = cone_J_generators(dist, s)
        lam = s.point
        n2 = 2 * dist.chart.dim
        ech = QEchelon(n2)
        for g in gens:
            ech.add([Q(v) for v in g.at(lam)])
        base_rank = ech.rank
        # vertical-vertical brackets vanish on the nose; mixed brackets land
        # in the span at the sample (one level up at most)
        _, xc = char_field(dist)
        ech2 = QEchelon(n2)
        for g in gens:
            ech2.add(g.at(lam))
        ech2.add(lie_bracket(xc, gens[-1]).at(lam))
        up_rank = ech2.rank
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                br = lie_bracket(gens[a], gens[b])
                if br.is_zero():
                    continue
                probe = QEchelon(n2)
                for g in gens:
                    probe.add(g.at(lam))
                probe.add(lie_bracket(xc, gens[-1]).at(lam))
                probe.add(lie_bracket(xc, gens[-2]).at(lam))
                assert not probe.add(br.at(lam)), \
                    "bracket of generators %d,%d leaves J^(1)" % (a, b)
        assert base_rank == dist.chart.dim - 1
        assert up_rank <= base_rank + 1


class TestFullFlag:
    def test_monge5_table(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        t = pointwise_full_flag(dist, s)
        assert t.nu == 2
        assert t.dim_H == 6                 # 2n - 4
        assert t.dim_ker_sigma == 2
        assert t.dims_upper == [4, 5, 6]
        assert t.dims_lower == [4, 3, 2]
        assert t.dims_vertical == [2, 2, 1]
        assert t.ker_contains_char
        assert t.ker_contains_euler
        assert t.lower1_is_vertical_plus_char

    def test_monge6_table_consistency(self):
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist))
        t = pointwise_full_flag(dist, s)
        n = 6
        assert t.dim_H == 2 * n - 4
        assert t.dim_ker_sigma == 2
        # duality: the kernel sits inside every osculating space, so
        # dim upper_i + dim lower_i = dim H + dim ker
        for u, l in zip(t.dims_upper, t.dims_lower):
            assert u + l == t.dim_H + t.dim_ker_sigma
        assert t.dims_upper[0] == n - 1
        assert t.lower1_is_vertical_plus_char

    def test_cartan_jet_class_zero(self):
        # jet chart: cube is 4-dimensional, so no valid fiber sample
        dist = cartan_jet(4)
        with pytest.raises(PreconditionError):
            fiber_sample(dist, origin(dist))
