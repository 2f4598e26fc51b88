"""Free 2-generator Lie algebra: Lyndon basis, structure constants."""

import pytest

from rank2dist.freelie import (FreeLieTruncated, bracket_word,
                               lyndon_basis, standard_factorization,
                               ta_commutator)
from rank2dist.kernel import Q


class TestLyndon:
    def test_graded_dims(self):
        # free 2-generator ranks per degree: 2, 1, 2, 3, 6
        fl = FreeLieTruncated(5)
        assert fl.dims == [2, 1, 2, 3, 6]

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
        ab = ta_commutator(a, b, 3)
        ba = ta_commutator(b, a, 3)
        assert ab == {w: -c for w, c in ba.items()}


class TestStructureConstants:
    def test_jacobi(self):
        fl = FreeLieTruncated(4)
        st = fl.structure_constants()
        n = len(fl.basis)

        def br(u, v):
            out = [Q(0)] * n
            for a in range(n):
                if not u[a]:
                    continue
                for b in range(n):
                    if not v[b]:
                        continue
                    for k in range(n):
                        if st[a][b][k]:
                            out[k] += u[a] * v[b] * st[a][b][k]
            return out

        def e(i):
            v = [Q(0)] * n
            v[i] = Q(1)
            return v

        for a in range(3):
            for b in range(3):
                for c in range(3):
                    j = [x + y + z for x, y, z in
                         zip(br(e(a), br(e(b), e(c))),
                             br(e(b), br(e(c), e(a))),
                             br(e(c), br(e(a), e(b))))]
                    assert not any(j)

    def test_matches_expansion(self):
        fl = FreeLieTruncated(3)
        st = fl.structure_constants()
        for a in range(len(fl.basis)):
            for b in range(len(fl.basis)):
                d = len(fl.basis[a]) + len(fl.basis[b])
                if d > 3:
                    continue
                direct = ta_commutator(fl.expansions[a], fl.expansions[b], 3)
                rebuilt = {}
                for k, c in enumerate(st[a][b]):
                    if c:
                        for w, e in fl.expansions[k].items():
                            rebuilt[w] = rebuilt.get(w, Q(0)) + c * e
                assert direct == {w: c for w, c in rebuilt.items() if c}

    def test_decompose_rejects_a_non_lie_element(self):
        fl = FreeLieTruncated(3)
        # x0 x0 is no commutator: it lies outside the span of [x0, x1]
        with pytest.raises(ValueError):
            fl.decompose({(0, 0): Q(1)}, 2)
        # the degree-2 part of a Lie element decomposes exactly
        assert fl.decompose({(0, 1): Q(2), (1, 0): Q(-2)}, 2) == \
            [(fl.index[(0, 1)], Q(2))]
