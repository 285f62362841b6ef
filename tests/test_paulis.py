"""Symbolic Pauli algebra checked against dense Kronecker-product oracles."""

import itertools

import numpy as np
import pytest

import oracles
from cdotto.agp import build_basis
from cdotto.errors import CapacityError, DimensionError, DomainError
from cdotto.model import EndpointParams, dh0_dtheta, h0_at
from cdotto.paulis import OperatorSum, commutator, i_commutator_table, pauli_masks, to_dense
from oracles import hs_inner, letter_commutator

from test_model import disordered_params


def random_letters(rng, n):
    return tuple(rng.choice(("I", "X", "Y", "Z")) for _ in range(n))


class TestOperatorSum:
    def test_canonical_merges_and_prunes(self):
        op = OperatorSum(1, [(("X",), 1.0), (("X",), -1.0), (("Z",), 0.5)])
        assert dict(op.terms) == {("Z",): 0.5}

    def test_canonical_order_is_lexicographic(self):
        op = OperatorSum(2, {("Z", "I"): 1.0, ("I", "X"): 1.0, ("X", "X"): 1.0})
        assert list(op.terms) == [("I", "X"), ("X", "X"), ("Z", "I")]

    def test_addition_and_scaling(self):
        # a sum is the canonical form of the concatenated terms
        a = OperatorSum(1, {("X",): 1.0})
        b = OperatorSum(1, {("X",): 2.0, ("Y",): 1.0})
        total = OperatorSum(1, [*a.terms.items(), *b.terms.items()])
        assert dict(total.terms) == {("X",): 3.0, ("Y",): 1.0}
        diff = OperatorSum(1, [*(2.0 * a).terms.items(), *((-1.0) * b).terms.items()])
        assert dict(diff.terms) == {("Y",): -1.0}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            OperatorSum(1, {("X", "I"): 1.0})

    def test_hermitian_iff_real_coefficients(self):
        # through the Kronecker oracle: to_dense realizes real matrices only,
        # and a real multiple of an odd-Y string is Hermitian but not real
        def hermitian(op):
            dense = oracles.dense_operator(op.n_sites, op.terms)
            return np.abs(dense - dense.conj().T).max() < 1e-14

        rng = np.random.default_rng(23)
        op = OperatorSum(3, {random_letters(rng, 3): rng.standard_normal() for _ in range(6)})
        assert hermitian(op)
        assert hermitian(OperatorSum(1, {("X",): 1.0, ("Y",): 0.7, ("Z",): -0.3}))
        assert not hermitian(OperatorSum(1, {("X",): 1.0j}))
        assert not hermitian(OperatorSum(2, {("X", "Y"): 1.0, ("Z", "I"): 0.5 + 0.5j}))


class TestCommutator:
    def test_su2_relation(self):
        res = commutator(OperatorSum(1, {("X",): 1.0}), OperatorSum(1, {("Z",): 1.0}))
        assert dict(res.terms) == {("Y",): -2j}

    def test_self_commutator_vanishes(self):
        h = OperatorSum(2, {("X", "I"): 0.4, ("Z", "Z"): -0.1})
        assert not commutator(h, h).terms

    def test_two_site_example_against_dense(self):
        a = OperatorSum(2, {("Y", "I"): 1.0})
        b = OperatorSum(2, {("Z", "Z"): 1.0})
        res = commutator(a, b)
        assert dict(res.terms) == {("X", "Z"): 2j}
        da = oracles.dense_operator(2, a.terms)
        db = oracles.dense_operator(2, b.terms)
        np.testing.assert_allclose(
            oracles.dense_operator(2, res.terms), da @ db - db @ da, atol=1e-14
        )

    def test_matches_dense_commutator(self):
        # every pair of strings on one and two sites, so each entry of the
        # single-site product table meets an anticommuting partner, then
        # random sums on three and four sites
        def check(a, b):
            n = a.n_sites
            da = oracles.dense_operator(n, a.terms)
            db = oracles.dense_operator(n, b.terms)
            np.testing.assert_allclose(
                oracles.dense_operator(n, commutator(a, b).terms), da @ db - db @ da,
                rtol=0, atol=1e-13,
            )

        for n in (1, 2):
            for pa, pb in itertools.product(itertools.product("IXYZ", repeat=n), repeat=2):
                check(OperatorSum(n, {pa: 1.0}), OperatorSum(n, {pb: 1.0}))
        rng = np.random.default_rng(7)
        for n in (3, 4):
            for _ in range(15):
                a, b = (OperatorSum(n, {random_letters(rng, n): complex(*rng.standard_normal(2))
                                        for _ in range(4)}) for _ in range(2))
                check(a, b)

    def test_matches_the_letter_rule(self):
        # the bit-mask rule against the oracles' single-letter table: the
        # same patterns in the same order and == on every coefficient.  The
        # random complex sums hold up to 16 terms over all four letters, so
        # that at small N many pairs land on one string and the order of
        # the sum shows; some hold the identity string.  Each sum against
        # itself and against the identity alone gives nothing, as do sums
        # of I and Z only, which have no anticommuting pair.
        def same(a, b):
            got = commutator(a, b)
            assert list(got.terms.items()) == list(letter_commutator(a, b).terms.items())
            return got

        def random_sum(n, letters="IXYZ"):
            return OperatorSum(n, {tuple(rng.choice(list(letters), n)):
                                   complex(*rng.standard_normal(2))
                                   for _ in range(rng.integers(1, 17))})

        rng = np.random.default_rng(29)
        nonempty = 0
        for n in range(1, 6):
            identity = OperatorSum(n, {("I",) * n: complex(*rng.standard_normal(2))})
            for _ in range(30):
                a, b = random_sum(n), random_sum(n)
                if rng.random() < 0.5:
                    a = OperatorSum(n, [*a.terms.items(), *identity.terms.items()])
                nonempty += same(a, b).n_terms > 0
                assert not same(a, a).terms
                assert not same(identity, b).terms and not same(b, identity).terms
                assert not same(random_sum(n, "IZ"), random_sum(n, "IZ")).terms
        assert nonempty >= 100

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(OperatorSum(1, {("X",): 1.0}), OperatorSum(2, {("X", "I"): 1.0}))

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = OperatorSum(3, {random_letters(rng, 3): rng.standard_normal()
                                for _ in range(4)})
            b = OperatorSum(3, {random_letters(rng, 3): rng.standard_normal()
                                for _ in range(4)})
            total = OperatorSum(3, [*commutator(a, b).terms.items(),
                                    *commutator(b, a).terms.items()])
            assert not total.terms

    def test_i_commutator_of_hermitians_is_hermitian(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = OperatorSum(2, {random_letters(rng, 2): rng.standard_normal()
                                for _ in range(3)})
            b = OperatorSum(2, {random_letters(rng, 2): rng.standard_normal()
                                for _ in range(3)})
            c = 1j * commutator(a, b)
            assert all(abs(v.imag) <= 1e-12 for v in c.terms.values())


def code_letters(code, n):
    """Letter pattern of the key (x << n) | z of a string; site 0 is the leading bit."""
    x, z = int(code) >> n, int(code) & ((1 << n) - 1)
    return tuple("IXZY"[((x >> (n - 1 - site)) & 1) + 2 * ((z >> (n - 1 - site)) & 1)]
                 for site in range(n))


class TestMaskKernel:
    def test_masks_and_codes_of_single_letters(self):
        x, z = pauli_masks([("I", "X"), ("Y", "Z"), ("Z", "Y")], 2)
        np.testing.assert_array_equal(x, [0b01, 0b10, 0b01])
        np.testing.assert_array_equal(z, [0b00, 0b11, 0b11])
        assert [code_letters((a << 2) | b, 2) for a, b in zip(x, z)] == [
            ("I", "X"), ("Y", "Z"), ("Z", "Y")]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_commutator_table_matches_symbolic_commutator(self, n):
        # every string of the largest ansatz the solver is built on, against
        # each Hamiltonian it meets, uniform and disordered, term by term
        basis = build_basis(n, min(n, 4))
        x, z = pauli_masks(basis.strings, n)
        for params in (EndpointParams.uniform(n), disordered_params(n)):
            for h in (h0_at(params, 0.0), h0_at(params, 0.37), dh0_dtheta(params)):
                rows, codes, values = i_commutator_table(x, z, h)
                assert np.all(np.diff(rows) >= 0)
                table = {}
                for row, code, value in zip(rows, codes, values):
                    table.setdefault(int(row), {})[code_letters(code, n)] = value
                for a, pat in enumerate(basis.strings):
                    c = 1j * letter_commutator(OperatorSum(n, {pat: 1.0}), h)
                    assert table.get(a, {}) == {k: v.real for k, v in c.terms.items()}
                    assert all(v.imag == 0.0 for v in c.terms.values())

    def test_empty_hamiltonian_gives_an_empty_table(self):
        x, z = pauli_masks([("Y", "I")], 2)
        rows, codes, values = i_commutator_table(x, z, OperatorSum(2))
        assert rows.size == codes.size == values.size == 0


class TestHsInner:
    """The oracles' Hilbert-Schmidt inner product, which ``solve_agp`` builds on."""

    def test_normalization(self):
        a = OperatorSum(2, {("X", "I"): 1.0})
        assert hs_inner(a, a) == 4.0

    def test_orthogonality(self):
        a = OperatorSum(2, {("X", "I"): 1.0})
        b = OperatorSum(2, {("Z", "I"): 1.0})
        assert hs_inner(a, b) == 0.0

    def test_transverse_field_value(self):
        h = OperatorSum(2, {("X", "I"): -0.2, ("I", "X"): -0.2})
        assert hs_inner(h, h) == pytest.approx(0.32, abs=1e-15)
        dense = oracles.dense_operator(2, h.terms)
        assert np.trace(dense.conj().T @ dense).real == pytest.approx(0.32)

    def test_positivity_and_zero(self):
        a = OperatorSum(2, {("X", "Y"): 1.0 + 0.5j})
        assert hs_inner(a, a).real > 0
        assert hs_inner(a, a).real == pytest.approx(4.0 * abs(1.0 + 0.5j) ** 2)
        assert hs_inner(OperatorSum(2), OperatorSum(2)) == 0.0

    def test_matches_dense_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = OperatorSum(3, {random_letters(rng, 3): complex(*rng.standard_normal(2))
                                for _ in range(4)})
            b = OperatorSum(3, {random_letters(rng, 3): complex(*rng.standard_normal(2))
                                for _ in range(4)})
            da = oracles.dense_operator(3, a.terms)
            db = oracles.dense_operator(3, b.terms)
            assert hs_inner(a, b) == pytest.approx(
                complex(np.trace(da.conj().T @ db)), abs=1e-12
            )


class TestToDense:
    def test_single_z(self):
        np.testing.assert_array_equal(
            to_dense(OperatorSum(1, {("Z",): 1.0})), np.diag([1.0 + 0j, -1.0])
        )

    def test_identity_two_sites(self):
        np.testing.assert_array_equal(
            to_dense(OperatorSum(2, {("I", "I"): 1.0})), np.eye(4, dtype=complex)
        )

    def test_xx_antidiagonal(self):
        np.testing.assert_array_equal(
            to_dense(OperatorSum(2, {("X", "X"): 1.0})), np.fliplr(np.eye(4, dtype=complex))
        )

    def test_matches_kronecker_sums_bitwise(self):
        # real operators on all four letters: a string with an odd number of
        # Y has an imaginary matrix, so its coefficient is imaginary
        rng = np.random.default_rng(19)
        seen = set()
        for n in range(1, 6):
            for _ in range(4):
                terms = {}
                for _ in range(6):
                    letters = random_letters(rng, n)
                    terms[letters] = rng.standard_normal() * 1j ** (letters.count("Y") % 2)
                    seen.update(letters)
                op = OperatorSum(n, terms)
                dense, oracle = to_dense(op), oracles.dense_operator(n, op.terms)
                assert dense.dtype == np.float64 and not oracle.imag.any()
                np.testing.assert_array_equal(dense, oracle.real)
        assert seen == {"I", "X", "Y", "Z"}
        np.testing.assert_array_equal(to_dense(OperatorSum(2)), np.zeros((4, 4)))

    def test_site_cap(self):
        op = OperatorSum(13, {tuple(["I"] * 13): 1.0})
        with pytest.raises(CapacityError):
            to_dense(op)

    def test_hermitian_for_real_coefficients(self):
        # real coefficients on strings of an even number of Y realize as
        # real symmetric matrices; any complex weight is refused
        rng = np.random.default_rng(17)
        terms = {}
        while len(terms) < 5:
            letters = random_letters(rng, 3)
            if letters.count("Y") % 2 == 0:
                terms[letters] = rng.standard_normal()
        dense = to_dense(OperatorSum(3, terms))
        assert np.abs(dense - dense.T).max() < 1e-14
        with pytest.raises(DomainError, match="complex weight"):
            to_dense(OperatorSum(2, {("Y", "Z"): 0.4, ("X", "I"): 1.0}))
        with pytest.raises(DomainError, match="complex weight"):
            to_dense(OperatorSum(1, {("X",): 1.0 + 0.5j}))
