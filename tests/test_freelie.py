"""Free 2-generator Lie algebra: Lyndon basis, structure constants."""

import pytest

from rank2dist.distribution import _symbol_from_basis
from rank2dist.freelie import (bracket_word, expand_word, lyndon_basis,
                               standard_factorization, ta_commutator)
from rank2dist.kernel import Q
from rank2dist.models import free_nilpotent_symbol

from oracles import lyndon_structure_constants


class TestLyndon:
    def test_graded_dims(self):
        # free 2-generator ranks per degree: 2, 1, 2, 3, 6
        assert free_nilpotent_symbol(5).dims == [2, 1, 2, 3, 6]

    def test_basis_words_sorted_and_lyndon(self):
        for w in lyndon_basis(5):
            rotations = [w[i:] + w[:i] for i in range(1, len(w))]
            assert all(w < r for r in rotations)

    def test_bracket_word_depth2(self):
        assert bracket_word((0, 1)) == (0, 1)
        assert bracket_word((0, 0, 1)) == (0, (0, 1))

    def test_letter_has_no_standard_factorization(self):
        assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
        with pytest.raises(ValueError):
            standard_factorization((0,))


class TestTensorAlgebra:
    def test_commutator_antisymmetry(self):
        a = {(0,): Q(1)}
        b = {(1,): Q(1)}
        ab = ta_commutator(a, b)
        ba = ta_commutator(b, a)
        assert ab == {w: -c for w, c in ba.items()}


class TestStructureConstants:
    def test_jacobi(self):
        sym = free_nilpotent_symbol(4)
        n = sym.total_dim

        def e(i):
            v = [Q(0)] * n
            v[i] = Q(1)
            return v

        br = sym.bracket
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    j = [x + y + z for x, y, z in
                         zip(br(e(a), br(e(b), e(c))),
                             br(e(b), br(e(c), e(a))),
                             br(e(c), br(e(a), e(b))))]
                    assert not any(j)

    def test_matches_expansion(self):
        sym = free_nilpotent_symbol(3)
        expansions = [expand_word(w) for w in sym.words]
        n = sym.total_dim
        for a in range(n):
            for b in range(n):
                if sym.level_of(a) + sym.level_of(b) > 3:
                    continue
                direct = ta_commutator(expansions[a], expansions[b])
                rebuilt = {}
                for k, c in enumerate(sym.structure[a][b]):
                    if c:
                        for w, e in expansions[k].items():
                            rebuilt[w] = rebuilt.get(w, Q(0)) + c * e
                assert direct == {w: c for w, c in rebuilt.items() if c}

    @pytest.mark.parametrize("step", [2, 3, 4, 5, 6, 7])
    def test_equals_the_per_degree_decomposition(self, step):
        sym = free_nilpotent_symbol(step)
        basis = lyndon_basis(step)
        assert sym.structure == lyndon_structure_constants(step)
        assert sym.dims == [sum(len(w) == d for w in basis)
                            for d in range(1, step + 1)]
        assert sym.labels == ["".join("ab"[c] for c in w) for w in basis]
        assert sym.words == [bracket_word(w) for w in basis]

    def test_bracket_outside_the_span_is_rejected(self):
        # level 2 is spanned by the value of [x1, x0], but [x0, x1] takes a
        # value outside the span of the three basis vectors
        unit = [[Q(int(i == j)) for j in range(4)] for i in range(4)]
        values = {0: unit[0], 1: unit[1], (1, 0): unit[2], (0, 1): unit[3]}
        with pytest.raises(ValueError, match="not in basis span"):
            _symbol_from_basis([[0, 1], [(1, 0)]], values.__getitem__)
