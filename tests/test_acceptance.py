"""Acceptance gate: one test per headline criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
"""

import random

from rank2dist.distribution import tanaka_symbol, weak_flag
from rank2dist.geometry import Chart, lie_bracket
from rank2dist.kernel import Q
from rank2dist.models import (cartan_jet, deprolong, deprolongation_degree,
                              flat_from_symbol, free_nilpotent_symbol,
                              monge_model, prolong)
from rank2dist.symmetry import (nilradical_witness_dim,
                                stabilized_symmetry_basis, symmetry_basis)
from rank2dist.symplectic import (CotangentChart, char_field, class_at_point,
                                  class_at_sample, fiber_sample, hamiltonians,
                                  pointwise_full_flag)
from rank2dist.extremals import (endpoint_errors, integrate_char, nu_along)

from oracles import poisson


def origin(dist):
    return [Q(0)] * dist.chart.dim


def report(name, ok, detail=""):
    print("\n[%s] criterion %s%s" % ("PASS" if ok else "FAIL", name,
                                     " -- " + detail if detail else ""))
    assert ok, "criterion %s failed: %s" % (name, detail)


def test_criterion_1_maximal_class_on_models():
    """m(q) = n-3 with the full cone trace on the polynomial models."""
    for n in (5, 6, 7, 8):
        dist = monge_model(n)
        rep = class_at_point(dist, origin(dist), samples=5, seed=0)
        if rep.m != n - 3 or not rep.maximal_class:
            report("1", False, "n=%d reported m=%d" % (n, rep.m))
        expected = tuple(range(n - 1, 2 * n - 3))
        best = None
        for _, nu, dims in rep.per_sample:
            if nu == rep.m:
                best = dims
                break
        # the trace ends with the stabilized rank repeated once
        if best[:-1] != expected or best[-1] != expected[-1]:
            report("1", False, "n=%d trace %s" % (n, best))
    report("1", True, "m = n-3 and trace (n-1,...,2n-4) for n in 5..8")


def test_criterion_2_free_step4_flat_model():
    dist = flat_from_symbol(free_nilpotent_symbol(4))
    assert weak_flag(dist, origin(dist)).growth_vector == (2, 3, 5, 8)
    rep = class_at_point(dist, origin(dist), samples=5, seed=0)
    report("2", rep.m == 5 and rep.maximal_class,
           "free step-4 flat model (n=8): m=%d" % rep.m)


def test_criterion_2_stretch_free_step5():
    dist = flat_from_symbol(free_nilpotent_symbol(5))
    rep = class_at_point(dist, origin(dist), samples=2, seed=0)
    report("2-stretch", rep.m == 11 and rep.maximal_class,
           "free step-5 flat model (n=14): m=%d" % rep.m)


def test_criterion_2_stretch_free_step6():
    # the main theorem (maximal class at generic points) on a case the
    # paper does not compute
    dist = flat_from_symbol(free_nilpotent_symbol(6))
    assert dist.chart.dim == 23
    rep = class_at_point(dist, origin(dist), samples=2, seed=0)
    report("2-stretch", rep.m == 20 and rep.maximal_class,
           "free step-6 flat model (n=23): m=%d" % rep.m)


def test_criterion_3_jet_charts_route_to_deprolongation():
    for k in (3, 4, 5):
        dist = cartan_jet(k)
        q = origin(dist)
        rep = weak_flag(dist, q)
        if rep.cube != 4:
            report("3", False, "k=%d cube %d" % (k, rep.cube))
        got = deprolongation_degree(dist, q)
        if got != (k - 2, "engel"):
            report("3", False, "k=%d degree %s" % (k, got))
    report("3", True, "jet charts k=3,4,5: cube 4 and degree (k-2, engel)")


def test_criterion_4_deprolongation_round_trip():
    for k in (5, 6):
        base = monge_model(k)
        base_growth = weak_flag(base, origin(base)).growth_vector
        for count in (1, 2):
            e = base
            for _ in range(count):
                e = prolong(e)
            got = deprolongation_degree(e, origin(e))
            if got != (count, "cube5"):
                report("4", False, "k=%d count=%d degree %s"
                       % (k, count, got))
            # walk back down and compare growth vectors
            cur = e
            for _ in range(count):
                res = deprolong(cur, origin(cur))
                if not res.rectified:
                    # tier 2: compare reported invariants and stop
                    if res.growth != weak_flag(
                            cur, origin(cur)).growth_vector[:-1]:
                        report("4", False, "tier-2 growth mismatch")
                    cur = None
                    break
                cur = res.distribution
            if cur is not None:
                got_growth = weak_flag(cur, origin(cur)).growth_vector
                if got_growth != base_growth:
                    report("4", False, "k=%d count=%d growth %s != %s"
                           % (k, count, got_growth, base_growth))
    report("4", True, "prolong^n then deprolong^n recovers the model growth")


def test_criterion_5_symmetry_dimensions():
    expected = {5: 14, 6: 11, 7: 13}
    stabilized = {}
    for n, want in expected.items():
        dist = monge_model(n)
        out = stabilized_symmetry_basis(dist)
        stabilized[n] = dist, out
        if out.dim != want:
            report("5", False, "n=%d dim %d != %d" % (n, out.dim, want))
    for n in (6, 7):
        dist, out = stabilized[n]
        deep = symmetry_basis(dist, out.stable_degree + 2)
        if deep.dim > 2 * n - 1:
            report("5", False, "n=%d dim %d exceeds 2n-1 at degree d*+2"
                   % (n, deep.dim))
        v = nilradical_witness_dim(dist, out)
        if v < 2 * n - 5:
            report("5", False, "n=%d nilradical witness %d < 2n-5" % (n, v))
    report("5", True, "dims 14/11/13; bounded by 2n-1 at d*+2; "
                      "nilpotent ideal [g, rad] of dim >= 2n-5")


def test_criterion_6_flag_identity_suite():
    cases = [monge_model(n) for n in (5, 6, 7, 8)]
    cases.append(flat_from_symbol(free_nilpotent_symbol(4)))
    for dist in cases:
        n = dist.chart.dim
        rep = class_at_point(dist, origin(dist), samples=5, seed=0)
        for s, nu, dims in rep.per_sample:
            if nu > n - 3:
                report("6", False, "nu %d exceeds n-3" % nu)
            if any(b - a not in (0, 1) for a, b in zip(dims, dims[1:])):
                report("6", False, "trace increments outside {0,1}: %s"
                       % (dims,))
            t = pointwise_full_flag(dist, s)
            if t.dim_ker_sigma != 2 or not t.ker_contains_char:
                report("6", False, "kernel dims/membership wrong at n=%d"
                       % n)
            # cone-adjusted closed forms for the subspace dimensions
            if t.dims_upper != [n - 1 + i for i in range(t.nu + 1)]:
                report("6", False, "upper dims %s at n=%d"
                       % (t.dims_upper, n))
            if t.dims_lower != [2 * n - 2 - u for u in t.dims_upper]:
                report("6", False, "lower dims %s at n=%d"
                       % (t.dims_lower, n))
    report("6", True, "flag table matches the closed forms at every sample")


def _trajectories_for_criterion_7():
    dist = monge_model(6)
    out = []
    for seed in (0, 1, 2):
        s = fiber_sample(dist, origin(dist), seed=seed)
        traj = integrate_char(dist, s, 0.5, 500)     # step 1e-3
        out.append((dist, s, traj))
    return out


def test_criterion_7_corank_witness():
    runs = _trajectories_for_criterion_7()
    for dist, s, traj in runs:
        if traj.halted:
            report("7", False, "trajectory halted: %s" % traj.halt_reason)
        if max(traj.h_residuals) > 1e-8:
            report("7", False, "h-residual %.2e" % max(traj.h_residuals))
        rep = nu_along(dist, traj, s)
        if any(nu != 3 for nu in rep.nu_trace):
            report("7", False, "nu trace %s" % rep.nu_trace)
        if rep.corank_claim != 1:
            report("7", False, "corank claim %s" % rep.corank_claim)
    # 4th-order convergence: the scheme's truncation error is tangent to
    # the constraint set (h-residuals sit at roundoff for any step), so the
    # 16x-per-halving prediction is verified on the endpoint state error
    dist = monge_model(6)
    s = fiber_sample(dist, origin(dist), seed=0)
    errs = endpoint_errors(dist, s, 0.5, [125, 250, 500])
    for a, b in zip(errs, errs[1:]):
        if not (8.0 <= a / b <= 32.0):
            report("7", False, "scaling ratios from %s" % errs)
    report("7", True, "nu = 3 along 3 seeded runs, corank claim 1, "
                      "16x endpoint scaling within factor 2")


def test_criterion_8_cross_validation():
    # (a) exact nu at t=0 equals the float nu at t=0 on the same runs
    for dist, s, traj in _trajectories_for_criterion_7():
        exact_nu, _ = class_at_sample(dist, s)
        rep = nu_along(dist, traj, s)
        if rep.nu_trace[0] != exact_nu:
            report("8", False, "float nu %d != exact %d at t=0"
                   % (rep.nu_trace[0], exact_nu))
    # (b) Poisson-Lie identity on 50 randomized polynomial field pairs
    ch = Chart(("x", "y", "z"))
    ct = CotangentChart(ch)
    rng = random.Random(0)
    monos = ["1", "x", "y", "z", "x*y", "x^2", "y*z"]

    def rand_field():
        return ch.field(*(
            " + ".join("%d*%s" % (rng.randint(-4, 4), rng.choice(monos))
                       for _ in range(rng.randint(1, 3)))
            for _ in range(3)))

    for _ in range(50):
        a, b = rand_field(), rand_field()
        lhs = poisson(ct, ct.hamiltonian_of(a), ct.hamiltonian_of(b))
        rhs = ct.hamiltonian_of(lie_bracket(a, b))
        if lhs != rhs:
            report("8", False, "Poisson-Lie identity failed")
    # (c) Jacobi identity on 20 randomized triples
    for _ in range(20):
        a, b, c = rand_field(), rand_field(), rand_field()
        j = lie_bracket(a, lie_bracket(b, c)) + \
            lie_bracket(b, lie_bracket(c, a)) + \
            lie_bracket(c, lie_bracket(a, b))
        if not j.is_zero():
            report("8", False, "Jacobi identity failed")
    report("8", True, "t=0 agreement, 50 Poisson-Lie pairs, "
                      "20 Jacobi triples, all exact")


def test_criterion_9_equiregular_flat_pipeline():
    for n in (5, 6):
        dist = monge_model(n)
        sym = tanaka_symbol(dist, origin(dist))
        flat = flat_from_symbol(sym)
        rep = class_at_point(flat, origin(flat), samples=5, seed=0)
        if rep.m != n - 3 or not rep.maximal_class:
            report("9", False, "flat model of n=%d symbol: m=%d"
                   % (n, rep.m))
    report("9", True, "symbol -> flat model -> maximal class for n=5,6")
