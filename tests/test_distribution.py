"""Derived flags, growth vectors, Goursat, equiregularity, graded symbols."""

import pytest

from rank2dist.distribution import (Distribution, GradedSymbol, InvalidSymbol,
                                    cube_dim, equiregular_check, is_goursat,
                                    strong_flag, tanaka_symbol, weak_flag)
from rank2dist.errors import (DegenerateFrame, NonEquiregular,
                              NotBracketGenerating, SamplingFailure)
from rank2dist.kernel import Q
from rank2dist.models import cartan_jet, monge_model

from oracles import abstract_tanaka_replay, cartan_jet_frame, monge_frame, \
    strong_flag_dims, weak_flag_dims

ORIGIN5 = [Q(0)] * 5


class TestWeakFlag:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_monge_matches_oracle(self, n):
        dist = monge_model(n)
        q = [Q(0)] * n
        got = weak_flag(dist, q).growth_vector
        frame, coords = monge_frame(n)
        assert got == weak_flag_dims(frame, coords, [0] * n)

    def test_monge5_growth(self):
        assert weak_flag(monge_model(5), ORIGIN5).growth_vector == (2, 3, 5)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cartan_jet_matches_oracle(self, k):
        dist = cartan_jet(k)
        q = [Q(0)] * (k + 2)
        got = weak_flag(dist, q).growth_vector
        frame, coords = cartan_jet_frame(k)
        assert got == weak_flag_dims(frame, coords, [0] * (k + 2))

    def test_cartan_jet_goursat_growth(self):
        # jet chart of order k grows by one per level
        assert weak_flag(cartan_jet(4), [Q(0)] * 6).growth_vector == \
            (2, 3, 4, 5, 6)

    def test_off_origin_point(self):
        dist = monge_model(6)
        q = [Q(1), Q(-1, 2), Q(2), Q(1, 3), Q(0), Q(5)]
        frame, coords = monge_frame(6)
        pt = [1, sp_q(-1, 2), 2, sp_q(1, 3), 0, 5]
        assert weak_flag(dist, q).growth_vector == \
            weak_flag_dims(frame, coords, pt)


def sp_q(a, b):
    import sympy as sp
    return sp.Rational(a, b)


class TestStrongFlag:
    def test_monge5(self):
        dist = monge_model(5)
        got = strong_flag(dist, ORIGIN5).growth_vector
        frame, coords = monge_frame(5)
        assert got == strong_flag_dims(frame, coords, [0] * 5)

    def test_monge7_square_rank(self):
        # the first derived square always has rank 3 for these models
        rep = strong_flag(monge_model(7), [Q(0)] * 7)
        assert rep.dims[1] == 3

    def test_cube_dim(self):
        assert cube_dim(monge_model(5), ORIGIN5) == 5
        assert cube_dim(monge_model(6), [Q(0)] * 6) == 5
        assert cube_dim(cartan_jet(4), [Q(0)] * 6) == 4


class TestGoursat:
    def test_cartan_jet_is_goursat(self):
        assert is_goursat(cartan_jet(4), [Q(0)] * 6)

    def test_monge_is_not(self):
        assert not is_goursat(monge_model(6), [Q(0)] * 6)


class TestEquiregular:
    def test_monge_equiregular(self):
        assert equiregular_check(monge_model(6), [Q(0)] * 6)

    def test_nonequiregular_example(self):
        # frame degenerates along x = 0: growth vector jumps
        from rank2dist.geometry import Chart
        ch = Chart(("x", "y", "z"))
        dist = Distribution(ch, [ch.field("1", "0", "0"),
                                 ch.field("0", "1", "x^2")])
        assert not equiregular_check(dist, [Q(1), Q(0), Q(0)], seed=3)


class TestPointValues:
    def test_word_value_is_a_tuple(self):
        dist = monge_model(5)
        v = dist.word_value((0, 1), ORIGIN5)
        assert isinstance(v, tuple)
        assert list(v) == dist.word_field((0, 1)).at(ORIGIN5)

    @pytest.mark.parametrize("fn", [weak_flag, strong_flag, is_goursat,
                                    equiregular_check, tanaka_symbol],
                             ids=lambda fn: fn.__name__)
    def test_repeat_evaluates_nothing(self, fn, field_evals):
        dist = monge_model(7)
        q = [Q(0)] * 7
        first = fn(dist, q)
        field_evals[0] = 0
        assert fn(dist, q) == first
        assert field_evals[0] == 0

    @pytest.mark.parametrize("fn", [weak_flag, strong_flag],
                             ids=lambda fn: fn.__name__)
    def test_one_report_per_point(self, fn):
        dist = monge_model(5)
        first = fn(dist, [0, 1, 0, 0, 0])
        for q in ([Q(0), Q(1), Q(0), Q(0), Q(0)], ("0", "1", "0", "0", "0"),
                  ("0", "2/2", 0, Q(0), "-0")):
            assert fn(dist, q) is first
        assert fn(dist, [0, 0, 0, 0, 0]) is not first

    def test_poles_at_every_box_point_but_q(self, monkeypatch):
        # D(t) vanishes at t = k/2 for k = +-1, +-2, +-3 and not at 0, so
        # the frame has a pole at every sampling-box point except q itself
        from rank2dist import distribution
        from rank2dist.geometry import Chart
        d = "*".join("(4*%s^2-1)*(%s^2-1)*(4*%s^2-9)" % (v, v, v)
                     for v in "xy")
        ch = Chart(("x", "y"))
        dist = Distribution(ch, [ch.field("1/(%s)" % d, "0"),
                                 ch.field("0", "1")])
        q = [Q(0)] * 2
        with pytest.raises(SamplingFailure):
            equiregular_check(dist, q)
        seen = []
        real = distribution.strong_flag
        monkeypatch.setattr(distribution, "strong_flag",
                            lambda dist, p, **kw: seen.append(list(p)) or
                            real(dist, p, **kw))
        assert is_goursat(dist, q)
        assert seen == [q]


class TestGradedSymbol:
    def heis(self):
        # Heisenberg: [e1,e2] = e3
        z = [Q(0)] * 3
        st = [[list(z) for _ in range(3)] for _ in range(3)]
        st[0][1] = [Q(0), Q(0), Q(1)]
        st[1][0] = [Q(0), Q(0), Q(-1)]
        return GradedSymbol(dims=[2, 1], structure=st)

    def test_validate_ok(self):
        assert self.heis().validate()

    def test_bracket(self):
        s = self.heis()
        assert s.bracket([Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]) == \
            [Q(0), Q(0), Q(1)]

    def test_antisymmetry_violation(self):
        s = self.heis()
        s.structure[1][0] = [Q(0), Q(0), Q(1)]
        with pytest.raises(InvalidSymbol):
            s.validate()

    def test_grading_violation(self):
        s = self.heis()
        s.structure[0][1] = [Q(1), Q(0), Q(0)]
        s.structure[1][0] = [Q(-1), Q(0), Q(0)]
        with pytest.raises(InvalidSymbol):
            s.validate()

    def test_generation_violation(self):
        z = [Q(0)] * 3
        st = [[list(z) for _ in range(3)] for _ in range(3)]
        with pytest.raises(InvalidSymbol):
            GradedSymbol(dims=[2, 1], structure=st).validate()


class TestTanakaSymbol:
    def test_monge5_dims(self):
        sym = tanaka_symbol(monge_model(5), ORIGIN5)
        assert sym.dims == [2, 1, 2]
        assert sym.validate()

    def test_monge6_dims(self):
        sym = tanaka_symbol(monge_model(6), [Q(0)] * 6)
        assert sym.dims == [2, 1, 2, 1]

    def test_cartan_jet_dims(self):
        sym = tanaka_symbol(cartan_jet(3), [Q(0)] * 5)
        assert sym.dims == [2, 1, 1, 1]

    def test_round_trip_replay(self):
        sym = tanaka_symbol(monge_model(5), ORIGIN5)
        again = abstract_tanaka_replay(sym)
        assert again == sym

    def test_rejects_nonequiregular(self):
        from rank2dist.geometry import Chart
        ch = Chart(("x", "y", "z"))
        dist = Distribution(ch, [ch.field("1", "0", "0"),
                                 ch.field("0", "1", "x^2")])
        with pytest.raises(NonEquiregular):
            tanaka_symbol(dist, [Q(1), Q(0), Q(0)], seed=3)

    def test_rejects_non_bracket_generating(self):
        from rank2dist.geometry import Chart
        ch = Chart(("x", "y", "z"))
        dist = Distribution(ch, [ch.field("1", "0", "0"),
                                 ch.field("0", "1", "0")])
        with pytest.raises(NotBracketGenerating):
            tanaka_symbol(dist, [Q(0)] * 3)

    def test_degenerate_frame_raises(self):
        from rank2dist.geometry import Chart
        ch = Chart(("x", "y", "z"))
        dist = Distribution(ch, [ch.field("x", "0", "0"),
                                 ch.field("0", "1", "0")])
        with pytest.raises(DegenerateFrame):
            weak_flag(dist, [Q(0)] * 3)
