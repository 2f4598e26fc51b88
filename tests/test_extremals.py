"""Characteristic-flow integration: residual monitoring, class traces along
trajectories, corank reports, convergence order."""

import math

import numpy as np
import pytest

from rank2dist.errors import PreconditionError
from rank2dist.extremals import (CorankReport, compile_field, compile_scalar,
                                 corank_report, endpoint_errors,
                                 integrate_char, nu_along)
from rank2dist.kernel import Q
from rank2dist.models import monge_model
from rank2dist.symplectic import char_field, fiber_sample, hamiltonians


def origin(dist):
    return [Q(0)] * dist.chart.dim


class TestCompile:
    def test_scalar(self):
        dist = monge_model(5)
        ct, hs = hamiltonians(dist)
        f = compile_scalar(hs[0])
        state = np.arange(1.0, 11.0)
        # h1 = p_x + y1 p_y0 + y2 p_y1 + y2^2 p_z
        x, y0, y1, y2, z, px, py0, py1, py2, pz = state
        assert f(state) == pytest.approx(px + y1 * py0 + y2 * py1
                                         + y2 ** 2 * pz)

    def test_field(self):
        dist = monge_model(5)
        ct, xc = char_field(dist)
        ev = compile_field(xc)
        # cross-check against exact evaluation at a rational point
        # (NB: never call mpq.limit_denominator on numpy-derived values;
        # gmpy2 2.3.1 corrupts its small-object cache)
        rat = [Q(i + 1, 10) for i in range(10)]
        exact = xc.at(rat)
        got2 = ev(np.array([float(v) for v in rat]))
        for a, b in zip(got2, exact):
            assert a == pytest.approx(float(b), abs=1e-12)


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
        from rank2dist.symplectic import CovectorSample
        end = fwd.states[-1]
        back = _flow_from_state(dist, end, -0.05, 400)
        start = np.array(s.point, dtype=float)
        assert np.max(np.abs(np.array(back[-1]) - start)) <= 1e-6

    def test_json_round_trip(self, tmp_path):
        import json
        from rank2dist.cli import main
        out = tmp_path / "trace.json"
        assert main(["trace", "--model", "monge", "--n", "5", "--T", "0.01",
                     "--steps", "10", "--out", str(out)]) == 0
        again = json.loads(out.read_text())
        assert again["times"][-1] == pytest.approx(0.01)
        assert len(again["states"]) == 11


def _flow_from_state(dist, state, T, steps):
    """Plain RK4 re-run from a float state (helper for reversal test)."""
    _, xc = char_field(dist)
    rhs = compile_field(xc)
    x = np.array(state, dtype=float)
    out = [x.tolist()]
    h = T / steps
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x.tolist())
    return out


class TestNuAlong:
    @pytest.mark.parametrize("n", [6, 7])
    def test_constant_class_on_model(self, n):
        dist = monge_model(n)
        s = fiber_sample(dist, origin(dist))
        traj = integrate_char(dist, s, 0.1, 100)
        rep = nu_along(dist, traj, s)
        assert rep.nu_trace[0] == n - 3
        assert all(nu == n - 3 for nu in rep.nu_trace)
        assert not any(rep.marginal)
        assert rep.corank_bound == 1
        assert rep.corank_claim == 1

    def test_t0_disagreement_is_a_precondition_error(self, monkeypatch):
        import rank2dist.extremals as ex
        real = ex._class_iteration

        def off_by_one(*args, **kwargs):
            nu, dims, levels, fields = real(*args, **kwargs)
            return nu + 1, dims, levels, fields

        monkeypatch.setattr(ex, "_class_iteration", off_by_one)
        dist = monge_model(6)
        s = fiber_sample(dist, origin(dist))
        traj = integrate_char(dist, s, 0.01, 10)
        with pytest.raises(PreconditionError):
            nu_along(dist, traj, s)

    def test_monge5_class_two(self):
        dist = monge_model(5)
        s = fiber_sample(dist, origin(dist))
        traj = integrate_char(dist, s, 0.05, 50)
        rep = nu_along(dist, traj, s)
        assert rep.nu_endpoint == 2
        assert rep.corank_bound == 1


class TestCorankReport:
    def test_maximal(self):
        rep = corank_report(7, [4, 4, 4], [False, False, False])
        assert rep.corank_bound == 1
        assert rep.corank_claim == 1

    def test_non_maximal(self):
        rep = corank_report(7, [3, 3], [False, False])
        assert rep.corank_bound == 2
        assert rep.corank_claim is None
        assert "bound only" in rep.note

    def test_marginal_warning(self):
        rep = corank_report(6, [3, 3], [False, True])
        assert "marginal" in rep.note


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
