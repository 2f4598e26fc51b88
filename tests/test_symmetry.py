"""Polynomial infinitesimal symmetries: solver, stabilization, structure."""

import functools
import json
import time

import pytest

from rank2dist import symmetry
from rank2dist.cli import _basis_str, main
from rank2dist.distribution import Distribution, weak_flag
from rank2dist.errors import PreconditionError
from rank2dist.geometry import Chart, lie_bracket
from rank2dist.kernel import Q, QEchelon
from rank2dist.models import (build_model, cartan_jet, monge_model,
                              prolong)
from rank2dist.symmetry import (annihilator_forms, detect_weights,
                                nilradical_witness_dim, symmetry_basis,
                                stabilized_symmetry_basis,
                                symmetry_structure_constants)

from oracles import (bracket_close_check, degree_loop_symmetry_basis,
                     is_symmetry, symmetry_dim_oracle,
                     vanishing_subspace_dim)


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

    def test_blockwise_equals_monolithic(self, monkeypatch):
        a = symmetry_basis(monge_model(5), 2)
        monkeypatch.setattr(symmetry, "detect_weights", lambda dist: None)
        b = symmetry_basis(monge_model(5), 2)
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


def _frame(coords, first):
    ch = Chart(coords)
    return Distribution(ch, [ch.field(*first),
                             ch.coordinate_field(coords[-2])])


# weighted inputs: flat Monge models, two of the benchmark's sign-flipped
# flat Monge inputs, and the flat free models of step 3 and 4
WEIGHTED = {
    "monge5": lambda: monge_model(5),
    "monge6": lambda: monge_model(6),
    "monge7": lambda: monge_model(7),
    "monge5-signs": lambda: _frame(("x", "y0", "y1", "y2", "z"),
                                   ("1", "y1", "-y2", "0", "-y2^2")),
    "monge6-signs": lambda: _frame(("x", "y0", "y1", "y2", "y3", "z"),
                                   ("1", "y1", "-y2", "y3", "0", "-y3^2")),
    "free-flat3": lambda: build_model("free-flat", step=3).distribution,
    "free-flat4": lambda: build_model("free-flat", step=4).distribution,
}


@functools.lru_cache(maxsize=None)
def _weighted(name):
    dist = WEIGHTED[name]()
    return dist, stabilized_symmetry_basis(dist)


class TestWeightBlocks:
    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_equals_the_degree_loop(self, name):
        dist, got = _weighted(name)
        want = degree_loop_symmetry_basis(WEIGHTED[name]())
        assert got.certified and got.stabilized
        assert _basis_str(got.basis) == _basis_str(want.basis)
        assert (got.dim, got.degree, got.stable_degree) == \
            (want.dim, want.degree, want.stable_degree)
        assert got.weights == want.weights

    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_doubrov_zelenko_bound(self, name):
        # maximal class: dim sym <= 2n - 1 for n >= 6, and 14 (G2) at n = 5
        dist, got = _weighted(name)
        n = dist.chart.dim
        assert weak_flag(dist, [Q(0)] * n).cube == 5
        assert got.certified
        assert got.dim <= (14 if n == 5 else 2 * n - 1)

    def test_monge8_is_certified(self):
        start = time.perf_counter()
        got = stabilized_symmetry_basis(monge_model(8))
        assert time.perf_counter() - start < 5
        assert (got.dim, got.degree, got.certified) == (15, 9, True)
        assert got.dim <= 2 * 8 - 1

    @pytest.mark.parametrize("make", [
        lambda: cartan_jet(3),
        lambda: prolong(monge_model(5)),
    ], ids=["cartan-jet3", "monge5-prolonged"])
    def test_cube4_falls_back(self, make):
        # weighted, but cube 4 at the origin: the degree loop answers
        dist = make()
        assert detect_weights(dist) is not None
        assert not symmetry._weight_path_applies(dist)
        try:
            want = degree_loop_symmetry_basis(make())
        except PreconditionError as e:
            with pytest.raises(PreconditionError, match=str(e)):
                stabilized_symmetry_basis(dist)
            return
        got = stabilized_symmetry_basis(dist)
        assert not got.certified
        assert _basis_str(got.basis) == _basis_str(want.basis)
        assert (got.dim, got.stable_degree) == (want.dim, want.stable_degree)

    def test_unweighted_falls_back(self):
        # a random Monge equation z' = F(x, y0, y1, y2) with no weights
        first = ("1", "y1", "y2", "0", "-2/3*y2^2 + x*y0*y1 + 1/2*y1^2 + y0")
        dist = _frame(("x", "y0", "y1", "y2", "z"), first)
        assert detect_weights(dist) is None
        got = stabilized_symmetry_basis(dist)
        want = degree_loop_symmetry_basis(
            _frame(("x", "y0", "y1", "y2", "z"), first))
        assert not got.certified and got.stabilized
        assert _basis_str(got.basis) == _basis_str(want.basis)
        assert (got.dim, got.degree, got.stable_degree) == \
            (want.dim, want.degree, want.stable_degree)

    def test_block_guard_runs_before_enumeration(self, monkeypatch,
                                                 tmp_path, capsys):
        # the first block of monge5 (weight -3: d/dy0, d/dz) has 2 unknowns
        def enumerated(*args):
            raise AssertionError("a block was enumerated")

        monkeypatch.setattr(symmetry, "MAX_SYMMETRY_UNKNOWNS", 1)
        monkeypatch.setattr(symmetry, "_monomials_of_weight", enumerated)
        with pytest.raises(OverflowError, match="weight block -3 has 2"):
            stabilized_symmetry_basis(monge_model(5))
        out = tmp_path / "out.json"
        assert main(["symmetries", "--model", "monge", "--n", "5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: weight block")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_block_guard_bounds_every_solved_block(self, monkeypatch):
        solved = []
        solve = symmetry._SymmetrySystem.solve

        def counting(self, chart, unknowns):
            solved.append(len(unknowns))
            return solve(self, chart, unknowns)

        monkeypatch.setattr(symmetry, "MAX_SYMMETRY_UNKNOWNS", 40)
        monkeypatch.setattr(symmetry._SymmetrySystem, "solve", counting)
        with pytest.raises(OverflowError, match="more than 40"):
            stabilized_symmetry_basis(monge_model(5))
        assert solved and max(solved) <= 40

    def test_report_carries_certified(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["symmetries", "--model", "monge", "--n", "6",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["certified"] is True
        assert (rep["dim"], rep["degree"], rep["stable_degree"]) == \
            (11, 5, 5)
