"""Model constructors, prolongation/deprolongation, flat nilpotent models."""

import random

import pytest

from rank2dist import models
from rank2dist.distribution import Distribution, tanaka_symbol, weak_flag
from rank2dist.errors import PreconditionError
from rank2dist.geometry import Chart, lie_bracket
from rank2dist.kernel import Q
from rank2dist.models import (build_model, cartan_jet,
                              cauchy_characteristic, deprolong,
                              deprolongation_degree, flat_from_symbol,
                              free_nilpotent_symbol, left_invariant_fields,
                              monge_model, prolong)

from oracles import (iterated_square_deprolongation_degree,
                     monge_pfaffian_forms, pair)


def origin(dist):
    return [Q(0)] * dist.chart.dim


def unit(n, i):
    return [Q(int(i == j)) for j in range(n)]


class TestMongeModel:
    def test_frame_shape(self):
        dist = monge_model(6)
        assert dist.chart.coords == ("x", "y0", "y1", "y2", "y3", "z")
        x1, x2 = dist.frame
        assert x1.components[0] == 1
        # chain part: dy_i/dx = y_{i+1}
        assert x1.components[1].to_str() == "y1"
        assert x1.components[2].to_str() == "y2"
        # last slot carries the square of the top derivative
        assert x1.components[5].to_str() == "y3^2"
        assert x2.components[4] == 1

    def test_min_dimension(self):
        with pytest.raises(ValueError):
            monge_model(4)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_pfaffian_forms_annihilate(self, n):
        dist = monge_model(n)
        forms = monge_pfaffian_forms(n)
        assert len(forms) == n - 2
        for w in forms:
            for f in dist.frame:
                assert pair(w, f).is_zero()

    def test_pfaffian_forms_independent(self):
        dist = monge_model(5)
        forms = monge_pfaffian_forms(5)
        from rank2dist.kernel import QEchelon
        ech = QEchelon(5)
        for w in forms:
            ech.add([c.eval([Q(1), Q(2), Q(3), Q(4), Q(5)])
                     for c in w.components])
        assert ech.rank == 3


class TestProlong:
    def test_dims_and_growth(self):
        e = prolong(monge_model(5))
        assert e.chart.dim == 6
        assert weak_flag(e, origin(e)).growth_vector == (2, 3, 4, 5, 6)

    def test_fresh_coordinate(self):
        e = prolong(prolong(monge_model(5)))
        assert len(set(e.chart.coords)) == 7


class TestDeprolong:
    def test_round_trip_growth(self):
        base = monge_model(5)
        e = prolong(base)
        res = deprolong(e, origin(e))
        assert res.rectified
        got = weak_flag(res.distribution,
                        origin(res.distribution)).growth_vector
        assert got == weak_flag(base, origin(base)).growth_vector

    def test_cube5_is_refused_at_a_readable_point(self):
        with pytest.raises(PreconditionError) as e:
            deprolong(monge_model(5), [0, 0, Q(1, 2), 0, 0])
        assert str(e.value) == ("cube dimension is 5 (need 4) at "
                                "[0, 0, 1/2, 0, 0]")

    def test_cauchy_characteristic_of_prolonged(self):
        e = prolong(monge_model(5))
        z = cauchy_characteristic(e)
        # the fiber direction d/du is characteristic for the prolongation
        assert any(z.at(origin(e)))
        for f in e.frame:
            x3 = lie_bracket(e.frame[0], e.frame[1])
            b = lie_bracket(z, x3)
            # [Z, D^2] stays inside D^2 at the base point
            from rank2dist.kernel import QEchelon
            ech = QEchelon(e.chart.dim)
            for g in (e.frame[0], e.frame[1], x3):
                ech.add(g.at(origin(e)))
            assert not ech.add(b.at(origin(e)))

    def test_degree_of_prolonged_tower(self):
        base = monge_model(5)
        e = base
        for k in range(3):
            assert deprolongation_degree(e, origin(e)) == (k, "cube5")
            e = prolong(e)

    def test_cartan_jet_terminates_engel(self):
        e = cartan_jet(4)
        assert deprolongation_degree(e, origin(e)) == (2, "engel")

    def test_engel_itself(self):
        e = cartan_jet(2)
        assert deprolongation_degree(e, origin(e)) == (0, "engel")

    def test_repeat_brackets_nothing(self, bracket_calls):
        # the iterated squares are words of the distribution's own cache
        e = cartan_jet(8)
        assert deprolongation_degree(e, origin(e)) == (6, "engel")
        bracket_calls[0] = 0
        assert deprolongation_degree(e, origin(e)) == (6, "engel")
        assert bracket_calls[0] == 0

    def test_repeat_evaluates_nothing(self, field_evals):
        # every flag reads its word values from the distribution's memo
        e = cartan_jet(8)
        assert deprolongation_degree(e, origin(e)) == (6, "engel")
        field_evals[0] = 0
        assert deprolongation_degree(e, origin(e)) == (6, "engel")
        assert field_evals[0] == 0


def _outcome(fn, dist, q):
    """fn(dist, q), or the message of the PreconditionError it raises."""
    try:
        return fn(dist, q)
    except PreconditionError as e:
        return "precondition failed: %s" % e


def _prolonged(dist, count):
    for _ in range(count):
        dist = prolong(dist)
    return dist


def _random_point(dist, seed):
    rng = random.Random(seed)
    return [Q(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(dist.chart.dim)]


def _random_monge5(seed):
    """z' = y2^2 + c0 y2 u + c1 v w + c2 t^3 on (x, y0, y1, y2, z), with
    seeded coefficients and lower coordinates u, v, w, t."""
    rng = random.Random(seed)
    low = ["x", "y0", "y1"]
    c = ["%d/%d" % (rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
         for _ in range(3)]
    rhs = "y2^2 + (%s)*y2*%s + (%s)*%s*%s + (%s)*%s^3" % (
        c[0], rng.choice(low), c[1], rng.choice(low), rng.choice(low), c[2],
        rng.choice(low))
    chart = Chart(("x", "y0", "y1", "y2", "z"))
    return Distribution(chart, [chart.field("1", "y1", "y2", "0", rhs),
                                chart.field("0", "0", "0", "1", "0")])


def _stalling_frame(idle):
    """X1 = d/dx + y1 d/dy0, X2 = d/dy1 on (x, y0, y1, w1, ..., w_idle):
    the flag stops at dimension 3 and never reaches the w's."""
    chart = Chart(("x", "y0", "y1") + tuple("w%d" % (i + 1)
                                            for i in range(idle)))
    zeros = ("0",) * idle
    return Distribution(chart, [chart.field("1", "y1", "0", *zeros),
                                chart.field("0", "0", "1", *zeros)])


class TestDeprolongationFromFlags:
    """The degree read off one strong flag equals the iterated-square loop
    in tests/oracles.py, results and error messages alike."""

    def check(self, dist, q):
        got = _outcome(deprolongation_degree, dist, q)
        assert got == _outcome(iterated_square_deprolongation_degree, dist,
                               q)
        return got

    @pytest.mark.parametrize("k", range(2, 9))
    def test_cartan_jets(self, k):
        e = cartan_jet(k)
        assert self.check(e, origin(e)) == (k - 2, "engel")

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("count", range(4))
    def test_prolonged_monge(self, n, count):
        e = _prolonged(monge_model(n), count)
        assert self.check(e, origin(e)) == (count, "cube5")
        assert self.check(e, _random_point(e, 10 * n + count)) == \
            (count, "cube5")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("count", range(1, 4))
    def test_prolonged_random_monge(self, seed, count):
        e = _prolonged(_random_monge5(seed), count)
        assert self.check(e, origin(e)) == (count, "cube5")
        assert self.check(e, _random_point(e, seed)) == (count, "cube5")

    @pytest.mark.parametrize("idle", [1, 2])
    @pytest.mark.parametrize("count", range(4))
    def test_not_bracket_generating(self, idle, count):
        # one idle coordinate leaves dimension 4 when deprolongation ends;
        # two leave the cube at 3 one step before
        e = _prolonged(_stalling_frame(idle), count)
        expect = ("deprolongation reached dimension 4 with growth (2, 3)"
                  if idle == 1 else
                  "deprolongation stalled: cube dimension 3 at step %d"
                  % count)
        assert self.check(e, origin(e)) == "precondition failed: " + expect
        assert self.check(e, _random_point(e, count)) == \
            "precondition failed: " + expect

    def test_one_strong_flag_and_no_weak_flag(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(models, name)
            return lambda *a, **kw: calls.append(name) or real(*a, **kw)

        for name in ("strong_flag", "weak_flag"):
            monkeypatch.setattr(models, name, counting(name))
        e = _prolonged(monge_model(5), 2)
        assert deprolongation_degree(e, origin(e)) == (2, "cube5")
        assert calls == ["strong_flag"]


class TestFlatModels:
    def test_free_symbol_dims(self):
        sym = free_nilpotent_symbol(4)
        assert sym.dims == [2, 1, 2, 3]
        assert sym.validate()

    def test_flat_growth(self):
        sym = free_nilpotent_symbol(3)
        dist = flat_from_symbol(sym)
        assert weak_flag(dist, origin(dist)).growth_vector == (2, 3, 5)

    def test_left_invariance_bracket_compatibility(self):
        # [X_v, X_w] = X_[v,w] for left-invariant extensions
        sym = free_nilpotent_symbol(3)
        units = [unit(sym.total_dim, i) for i in range(2)]
        fields = left_invariant_fields(sym, units)
        for a in range(2):
            for b in range(2):
                got = lie_bracket(fields[a], fields[b])
                expect, = left_invariant_fields(
                    sym, [sym.bracket(units[a], units[b])])
                assert got == expect

    @pytest.mark.parametrize("step, frame", [
        (3, [["1", "0", "-x2", "-x3", "-1/2*x2^2"],
             ["0", "1", "0", "0", "x3"]]),
        (4, [["1", "0", "-x2", "-x3", "-1/2*x2^2", "-x4", "-x5",
              "-1/6*x2^3"],
             ["0", "1", "0", "0", "x3", "0", "x4", "x5"]]),
    ], ids=["step3", "step4"])
    def test_free_flat_frames(self, step, frame):
        dist = flat_from_symbol(free_nilpotent_symbol(step))
        assert [[c.to_str() for c in f.components]
                for f in dist.frame] == frame

    @pytest.mark.parametrize("source", ["free5", "monge5", "monge6",
                                        "monge7", "monge8"])
    def test_left_invariant_fields_realize_the_symbol(self, source):
        # X_v(0) = v, and [X_a, X_b] = X_[a,b] on g_-1 + g_-2
        if source == "free5":
            sym = free_nilpotent_symbol(5)
        else:
            n = int(source[5:])
            sym = tanaka_symbol(monge_model(n), [Q(0)] * n)
        n = sym.total_dim
        units = [unit(n, i) for i in range(sym.dims[0] + sym.dims[1])]
        fields = left_invariant_fields(sym, units)
        for v, f in zip(units, fields):
            assert f.at([Q(0)] * n) == v
        for a in range(len(units)):
            for b in range(a + 1, len(units)):
                expect, = left_invariant_fields(
                    sym, [sym.bracket(units[a], units[b])])
                assert lie_bracket(fields[a], fields[b]) == expect

    def test_flat_symbol_round_trip(self):
        sym = tanaka_symbol(monge_model(5), [Q(0)] * 5)
        dist = flat_from_symbol(sym)
        again = tanaka_symbol(dist, origin(dist))
        assert again == sym


class TestBuildModel:
    def test_monge(self):
        spec = build_model("monge", n=6)
        assert spec.distribution.chart.dim == 6
        assert spec.base_point == [Q(0)] * 6

    def test_free_flat(self):
        spec = build_model("free-flat", step=4)
        assert spec.distribution.chart.dim == 8

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_model("nope")
