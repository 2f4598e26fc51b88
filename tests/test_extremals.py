"""Characteristic-flow integration: residual monitoring, class traces along
trajectories, corank reports, convergence order."""

import hashlib
import random
from fractions import Fraction

import pytest

from oracles import rk4_on_lists
from rank2dist.distribution import Distribution
from rank2dist.extremals import (CorankReport, compile_floats, corank_report,
                                 endpoint_errors, integrate_char, nu_along)
from rank2dist.geometry import Chart
from rank2dist.kernel import Poly, PolyRing, Q, RatFunc
from rank2dist.models import build_model, monge_model
from rank2dist.symplectic import char_field, fiber_sample, hamiltonians


def origin(dist):
    return [Q(0)] * dist.chart.dim


class TestCompile:
    def test_scalar(self):
        dist = monge_model(5)
        ct, hs = hamiltonians(dist)
        f = compile_floats([hs[0]])
        state = [float(i) for i in range(1, 11)]
        # h1 = p_x + y1 p_y0 + y2 p_y1 + y2^2 p_z
        x, y0, y1, y2, z, px, py0, py1, py2, pz = state
        assert f(state) == [pytest.approx(px + y1 * py0 + y2 * py1
                                          + y2 ** 2 * pz)]

    def test_field(self):
        dist = monge_model(5)
        ct, xc = char_field(dist)
        ev = compile_floats(xc.components)
        # cross-check against exact evaluation at a rational point
        rat = [Q(i + 1, 10) for i in range(10)]
        exact = xc.at(rat)
        got2 = ev([float(v) for v in rat])
        assert len(got2) == len(exact)
        for a, b in zip(got2, exact):
            assert a == pytest.approx(float(b), abs=1e-12)

    def test_many_terms(self):
        # one statement per term: a single 5000-term expression overflows
        # the compiler's recursion limit
        ring = PolyRing(("x", "y", "z"))
        num = Poly(ring, {ring.encode([i % 20, i // 20 % 20, i // 400]):
                          Q(i + 1, 7) for i in range(5200)})
        den = Poly(ring, {ring.encode([1, 0, 0]): Q(1),
                          ring.encode([0, 0, 0]): Q(2)})
        rfs = [RatFunc(num, den), RatFunc(num, ring.const(3))]
        assert len(num.terms) >= 5000
        point = [Q(1, 2), Q(2, 3), Q(3, 4)]
        got = compile_floats(rfs)([float(v) for v in point])
        assert got == [pytest.approx(float(rf.eval(point)), rel=1e-12)
                       for rf in rfs]


def _frame(coords, first, second):
    chart = Chart(coords)
    return Distribution(chart, [chart.field(*first), chart.field(*second)])


def _monge(m, rhs):
    """Frame of z' = rhs in coordinates x, y0..ym, z."""
    ys = ["y%d" % i for i in range(m + 1)]
    return _frame(["x"] + ys + ["z"], ["1"] + ys[1:] + ["0", rhs],
                  ["0"] * (m + 1) + ["1", "0"])


def _random_monge(seed, m):
    rng = random.Random(seed)
    low = ["x"] + ["y%d" % i for i in range(m)]
    c = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
         for _ in range(3)]
    return _monge(m, "y%d^2 + (%s)*y%d*%s + (%s)*%s*%s^2 + (%s)*%s^3" % (
        m, c[0], m, rng.choice(low), c[1], rng.choice(low), rng.choice(low),
        c[2], rng.choice(low)))


# name -> (distribution, T, steps, residual_tol)
_BIT_CASES = {
    **{"monge n=%d" % n: (lambda n=n: (monge_model(n), 0.25, 300, 1e-6))
       for n in range(6, 11)},
    **{"free-flat step %d" % k: (lambda k=k: (
        build_model("free-flat", step=k).distribution, 0.25, 200, 1e-6))
       for k in (4, 5)},
    "random monge n=7": lambda: (_random_monge(5, 4), 0.25, 300, 1e-6),
    "z'=y2^2/(1+y0)": lambda: (_monge(2, "y2^2/(1+y0)"), 0.5, 300, 1e-6),
    "z'=y3^2/(1+x)": lambda: (_monge(3, "y3^2/(1+x)"), 0.5, 300, 1e-6),
    "residual halt": lambda: (monge_model(6), 0.25, 300, 1e-15),
}


class TestIntegrate:
    def test_zero_steps(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        traj = integrate_char(dist, s, 0.0, 0)
        assert len(traj.states) == 1
        assert traj.h_residuals[0] == 0.0

    def test_residuals_stay_small(self):
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist))
        traj = integrate_char(dist, s, 0.1, 200)
        assert not traj.halted
        assert max(traj.h_residuals) <= 1e-8

    def test_time_reversal(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        fwd = integrate_char(dist, s, 0.05, 400)
        # integrate back from the endpoint
        back, _, _ = rk4_on_lists(dist, fwd.states[-1], -0.05, 400)
        start = [float(v) for v in s.point]
        assert max(abs(a - b) for a, b in zip(back[-1], start)) <= 1e-6

    @pytest.mark.parametrize("name, digest", [
        ("monge n=6",
         "259d05f195ccbdcfb23d16171c916f115d23487890df23bc2b035919bace704f"),
        ("free-flat step 4",
         "a348c5517cf1a6b41ee4c23bbffc2380dc3b01b9cb0aac80f00dafd2d00f98aa"),
    ])
    def test_float_bits_pinned(self, name, digest):
        # the bits of the numpy RK4 this integrator replaced
        dist = (monge_model(6) if name == "monge n=6" else
                build_model("free-flat", step=4).distribution)
        t = integrate_char(dist, fiber_sample(dist, origin(dist), seed=1),
                           0.25, 600)
        text = repr((t.states, t.h_residuals, t.h45_floor))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(_BIT_CASES))
    def test_generated_step_matches_list_rk4(self, name):
        # same terms, sum order and grouping as the per-stage loop: the
        # float bits agree exactly
        dist, T, steps, tol = _BIT_CASES[name]()
        s = fiber_sample(dist, origin(dist), seed=1)
        t = integrate_char(dist, s, T, steps, residual_tol=tol)
        ref = rk4_on_lists(dist, s.point, T, steps, residual_tol=tol)
        got = (t.states, t.h_residuals, t.h45_floor)
        # one flag per field: a diff of the long reprs would take minutes
        assert [repr(a) == repr(b) for a, b in zip(got, ref)] == [True] * 3
        if tol < 1e-6:
            assert t.halted and t.halt_reason.startswith("h-residual")
            assert len(t.states) < steps + 1

    def test_rational_frames_divide(self):
        # the generated step of the rational frames divides by a
        # non-constant denominator
        for name in ("z'=y2^2/(1+y0)", "z'=y3^2/(1+x)"):
            dist = _BIT_CASES[name]()[0]
            _, xc = char_field(dist)
            assert any(not c.den.is_const() for c in xc.components)

    def test_json_round_trip(self, tmp_path):
        import json
        from rank2dist.cli import main
        out = tmp_path / "trace.json"
        assert main(["trace", "--model", "monge", "--n", "5", "--T", "0.01",
                     "--steps", "10", "--out", str(out)]) == 0
        again = json.loads(out.read_text())
        assert again["times"][-1] == pytest.approx(0.01)
        assert len(again["states"]) == 11


class TestNuAlong:
    @pytest.mark.parametrize("n", [6, 7])
    def test_constant_class_on_model(self, n):
        dist = monge_model(n)
        s = fiber_sample(dist, origin(dist))
        traj = integrate_char(dist, s, 0.1, 100)
        rep = nu_along(dist, traj, s)
        assert rep.nu_trace[0] == n - 3
        assert all(nu == n - 3 for nu in rep.nu_trace)
        assert rep.corank_bound == 1
        assert rep.corank_claim == 1

    def test_monge5_class_two(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        traj = integrate_char(dist, s, 0.05, 50)
        rep = nu_along(dist, traj, s)
        assert rep.nu_endpoint == 2
        assert rep.corank_bound == 1


class TestCorankReport:
    def test_maximal(self):
        rep = corank_report(7, [4, 4, 4])
        assert rep.corank_bound == 1
        assert rep.corank_claim == 1

    def test_non_maximal(self):
        rep = corank_report(7, [3, 3])
        assert rep.corank_bound == 2
        assert rep.corank_claim is None
        assert "bound only" in rep.note


class TestConvergence:
    def test_residuals_at_roundoff(self):
        # truncation error is tangent to the constraint set: residuals sit
        # at roundoff for any step size rather than decaying at 4th order
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist))
        for steps in (50, 100, 200):
            traj = integrate_char(dist, s, 0.1, steps)
            assert max(traj.h_residuals) <= 1e-10

    def test_endpoint_fourth_order(self):
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist))
        errs = endpoint_errors(dist, s, 0.4, [25, 50, 100])
        for a, b in zip(errs, errs[1:]):
            ratio = a / b
            # 16x per halving, allow a factor-2 band
            assert 8.0 <= ratio <= 32.0, errs
