"""Polynomial infinitesimal symmetries: solver, stabilization, structure."""

import pytest

from rank2dist.distribution import Distribution
from rank2dist.geometry import Chart, lie_bracket
from rank2dist.kernel import Q, QEchelon
from rank2dist.models import cartan_jet, monge_model
from rank2dist.symmetry import (annihilator_forms, bracket_close_check,
                                detect_weights, is_symmetry,
                                nilradical_witness_dim, symmetry_basis,
                                stabilized_symmetry_basis,
                                symmetry_structure_constants,
                                vanishing_subspace_dim)

from oracles import symmetry_dim_oracle


class TestWeights:
    def test_monge5(self):
        assert detect_weights(monge_model(5)) == [1, 3, 2, 1, 3]

    def test_inhomogeneous_returns_none(self):
        ch = Chart(("x", "y", "z"))
        dist = Distribution(ch, [ch.field("1", "0", "y + y^2"),
                                 ch.field("0", "1", "0")])
        assert detect_weights(dist) is None


class TestSolver:
    def test_full_rank2_plane(self):
        # span{d/dx, d/dy} on R^2: every field is a symmetry; at degree 0
        # the solver sees the 2 constant fields
        ch = Chart(("x", "y"))
        dist = Distribution(ch, [ch.coordinate_field("x"),
                                 ch.coordinate_field("y")])
        out = symmetry_basis(dist, 0)
        assert out.dim == 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_sympy_oracle_monge5(self, d):
        dist = monge_model(5)
        got = symmetry_basis(dist, d)
        from oracles import monge_frame
        frame, coords = monge_frame(5)
        # feed the oracle the same annihilator forms, converted to sympy
        import sympy as sp
        sforms = []
        for f in annihilator_forms(dist):
            sforms.append([sp.sympify(c.to_str().replace("^", "**"))
                           for c in f.components])
        assert got.dim == symmetry_dim_oracle(frame, coords, sforms, d)

    def test_blockwise_equals_monolithic(self):
        dist = monge_model(5)
        a = symmetry_basis(dist, 2, weights="auto")
        b = symmetry_basis(dist, 2, weights=None)
        assert a.dim == b.dim
        # the two solver paths span the same space of fields
        items = [{(k, i): c for i, comp in enumerate(y.components)
                  for k, c in comp.num.terms.items()}
                 for y in a.basis + b.basis]
        coords = sorted(set().union(*items))
        vecs = [[it.get(c, Q(0)) for c in coords] for it in items]
        for span, others in ((vecs[:a.dim], vecs[a.dim:]),
                             (vecs[a.dim:], vecs[:a.dim])):
            ech = QEchelon(len(coords))
            for v in span:
                assert ech.add(v)
            assert all(ech.contains(v) for v in others)

    def test_monolithic_matches_sympy_oracle(self):
        # a frame with no positive weights takes the unsplit solver path
        import sympy as sp
        names = ("x", "y0", "y1", "y2", "z")
        ch = Chart(names)
        dist = Distribution(ch, [ch.field("1", "y1", "y2", "0",
                                          "y2^2 + x*y1^2"),
                                 ch.field("0", "0", "0", "1", "0")])
        assert detect_weights(dist) is None
        got = symmetry_basis(dist, 2)
        x, _, y1, y2, _ = coords = sp.symbols(names)
        frame = [[sp.Integer(1), y1, y2, sp.Integer(0), y2 ** 2 + x * y1 ** 2],
                 [sp.Integer(0)] * 3 + [sp.Integer(1), sp.Integer(0)]]
        sforms = [[sp.sympify(c.to_str().replace("^", "**"))
                   for c in f.components] for f in annihilator_forms(dist)]
        assert got.dim == symmetry_dim_oracle(frame, list(coords), sforms, 2)

    def test_every_basis_field_is_symmetry(self):
        dist = monge_model(5)
        out = symmetry_basis(dist, 4)
        for y in out.basis:
            assert is_symmetry(dist, y)

    def test_dims_monotone_in_degree(self):
        dist = monge_model(5)
        dims = [symmetry_basis(dist, d).dim for d in range(1, 7)]
        assert dims == sorted(dims)
        assert dims[-1] == 14


class TestStabilized:
    def test_monge5_dim14(self):
        out = stabilized_symmetry_basis(monge_model(5))
        assert out.dim == 14
        assert out.stabilized
        assert out.stable_degree == 6

    def test_monge6_dim11(self):
        out = stabilized_symmetry_basis(monge_model(6))
        assert out.dim == 11
        assert out.stable_degree == 5

    def test_bracket_closure(self):
        out = stabilized_symmetry_basis(monge_model(5))
        assert bracket_close_check(monge_model(5), out)

    def test_perturbed_field_rejected(self):
        dist = monge_model(5)
        out = stabilized_symmetry_basis(dist)
        ch = dist.chart
        bad = out.basis[0] + ch.field("0", "x^2", "0", "0", "0")
        if is_symmetry(dist, out.basis[0]):
            assert not is_symmetry(dist, bad)

    def test_vanishing_subspace(self):
        dist = monge_model(5)
        out = stabilized_symmetry_basis(dist)
        # fields vanishing at the origin: at least dim - n
        v = vanishing_subspace_dim(out, [Q(0)] * 5)
        assert v >= out.dim - 5
        assert v >= 2 * 5 - 5          # 2n - 5 lower bound at n = 5


class TestStructure:
    def test_structure_constants_antisymmetric(self):
        dist = monge_model(5)
        out = stabilized_symmetry_basis(dist)
        st = symmetry_structure_constants(dist, out)
        n = len(st)
        for a in range(n):
            for b in range(n):
                assert st[a][b] == [-v for v in st[b][a]]

    def test_semisimple_case_has_trivial_witness(self):
        # the 14-dimensional algebra has zero radical
        dist = monge_model(5)
        out = stabilized_symmetry_basis(dist)
        assert nilradical_witness_dim(dist, out) == 0

    def test_monge6_nilradical(self):
        dist = monge_model(6)
        out = stabilized_symmetry_basis(dist)
        assert nilradical_witness_dim(dist, out) == 7

    def test_unclosed_basis_rejected(self):
        from rank2dist.errors import PreconditionError
        dist = monge_model(5)
        partial = symmetry_basis(dist, 2)   # not stabilized, not closed
        with pytest.raises(PreconditionError):
            symmetry_structure_constants(dist, partial)


class TestGoursatSymmetries:
    def test_jet_chart_is_infinite_dimensional_truncation(self):
        # jet charts have symmetry dims that keep growing with the degree
        dist = cartan_jet(2)
        d3 = symmetry_basis(dist, 3).dim
        d4 = symmetry_basis(dist, 4).dim
        assert d4 > d3
