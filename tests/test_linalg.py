import numpy as np
import pytest

from choimarg import linalg
from choimarg.channels import w_state
from conftest import HADAMARD, SX, SY, SZ, random_hermitian
from kron_oracles import embed, permute_factors


class TestKron:
    def test_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = linalg.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_sigma_x_pair_flips_00_to_11(self):
        ket00 = np.array([1.0, 0.0, 0.0, 0.0])
        ket11 = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(linalg.kron(SX, SX) @ ket00, ket11)

    def test_associativity(self, rng):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.max(np.abs(left - right)) <= 1e-13


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho = random_hermitian(rng, 3)
        sigma = random_hermitian(rng, 3)
        out = linalg.partial_trace(linalg.kron(rho, sigma), (3, 3), {2})
        assert np.allclose(out, np.trace(sigma) * rho)

    def test_max_entangled_marginal(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        psi = np.outer(v, v)
        assert np.allclose(linalg.partial_trace(psi, (2, 2), {1}), np.eye(2) / 2)

    def test_w_state_marginal_matches_decomposition(self):
        # Tr_2 |W><W| = 1/3 |00><00| + 2/3 |phi><phi| with phi = (|01> + |10>)/sqrt(2)
        phi = np.zeros(4)
        phi[[1, 2]] = 1.0 / np.sqrt(2.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0 / 3.0
        expected += (2.0 / 3.0) * np.outer(phi, phi)
        got = linalg.partial_trace(w_state(), (2, 2, 2), {2})
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.allclose(got, linalg.partial_trace(w_state(), (2, 2, 2), {3}))

    def test_full_trace_is_scalar_trace(self, rng):
        a = random_hermitian(rng, 8)
        out = linalg.partial_trace(a, (2, 2, 2), {1, 2, 3})
        assert abs(out[0, 0] - np.trace(a)) <= 1e-12

    def test_trace_preserved(self, rng):
        a = random_hermitian(rng, 12)
        out = linalg.partial_trace(a, (2, 3, 2), {2})
        assert abs(np.trace(out) - np.trace(a)) <= 1e-12

    def test_iterated_equals_combined(self, rng):
        dims = (2, 3, 2)
        a = random_hermitian(rng, 12)
        for s, t in [({1}, {2}), ({2}, {3}), ({1}, {3}), ({3}, {1, 2})]:
            combined = linalg.partial_trace(a, dims, s | t)
            first = linalg.partial_trace(a, dims, s)
            remaining = [k for k in range(1, 4) if k not in s]
            rem_dims = tuple(dims[k - 1] for k in remaining)
            renamed = {remaining.index(k) + 1 for k in t}
            second = linalg.partial_trace(first, rem_dims, renamed)
            assert np.max(np.abs(second - combined)) <= 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), (2, 3), {1})
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), (2, 2), {3})


class TestPermuteEmbed:
    def test_permute_swaps_kron_factors(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        swapped = permute_factors(linalg.kron(a, b), (2, 3), [1, 0])
        assert np.allclose(swapped, linalg.kron(b, a))

    def test_embed_is_lift(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        lifted = embed(linalg.kron(a, b), (2, 2, 2), (1, 3))
        manual = linalg.kron(linalg.kron(a, np.eye(2)), b)
        assert np.allclose(lifted, manual)

    def test_embed_pairs_with_partial_trace(self, rng):
        dims = (2, 3, 2)
        sigma = random_hermitian(rng, 12)
        op = random_hermitian(rng, 4)
        lhs = np.trace(embed(op, dims, (1, 3)) @ sigma)
        rhs = np.trace(op @ linalg.partial_trace(sigma, dims, {2}))
        assert abs(lhs - rhs) <= 1e-10


class TestHermitianBasis:
    def test_dim_one(self):
        (b,) = linalg.hermitian_basis(1)
        assert np.allclose(b, [[1.0]])

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal(self, d):
        basis = linalg.hermitian_basis(d)
        assert len(basis) == d * d
        gram = np.array(
            [[np.trace(a @ b).real for b in basis] for a in basis]
        )
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12

    def test_spans_pauli_basis(self):
        # same span as {1, sx, sy, sz}/sqrt(2) even though ordered differently
        basis = linalg.hermitian_basis(2)
        for p in (np.eye(2), SX, SY, SZ):
            coeffs = [np.trace(b.conj().T @ p) for b in basis]
            recon = sum(c * b for c, b in zip(coeffs, basis))
            assert np.max(np.abs(recon - p)) < 1e-12

    def test_ordering_diagonal_first(self):
        # identity first, then the traceless diagonal elements, then the pairs
        basis = linalg.hermitian_basis(2)
        assert np.allclose(basis[0], np.eye(2) / np.sqrt(2))
        assert np.allclose(basis[1], SZ / np.sqrt(2))
        assert np.allclose(basis[2], SX / np.sqrt(2))
        assert np.allclose(basis[3], SY / np.sqrt(2))
        basis = linalg.hermitian_basis(3)
        assert np.allclose(basis[0], np.eye(3) / np.sqrt(3))
        assert np.allclose(basis[1], np.diag([1.0, -1.0, 0.0]) / np.sqrt(2))
        assert np.allclose(basis[2], np.diag([1.0, 1.0, -2.0]) / np.sqrt(6))
        assert all(abs(np.trace(b)) < 1e-12 for b in basis[1:])
        assert all(np.allclose(b, np.diag(np.diag(b))) for b in basis[:3])
        assert not any(np.allclose(b, np.diag(np.diag(b))) for b in basis[3:])

    def test_product_basis(self):
        basis = linalg.hermitian_product_basis((2, 2))
        assert len(basis) == 16
        gram = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(16))) < 1e-12


class TestValidators:
    def test_hermitian_rejects(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.check_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_finite_rejects(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.check_finite(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            linalg.check_density(np.diag([1.5, -0.5]))

    def test_density_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            linalg.check_density(np.diag([0.7, 0.7]))

    def test_effect_rejects_above_one(self):
        with pytest.raises(ValueError):
            linalg.check_effect(np.diag([1.5, 0.0]))

    def test_unitary_rejects(self):
        with pytest.raises(ValueError, match="unitary"):
            linalg.check_unitary(np.diag([1.0, 2.0]))

    def test_hadamard_accepted(self):
        linalg.check_unitary(HADAMARD)

    @pytest.mark.parametrize("dims", [(2.5, 2), (0, 4), (True, 4), ("2", 2)])
    def test_shape_rejects_malformed_dimensions(self, dims):
        with pytest.raises(ValueError, match=f"factor dimension {dims[0]!r} is not an integer"):
            linalg.check_shape(dims, 4)

    def test_shape_accepts_integral_floats_as_ints(self):
        dims = linalg.check_shape((2.0, np.int64(2)), 4)
        assert dims == (2, 2) and all(type(d) is int for d in dims)
