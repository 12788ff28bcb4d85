import numpy as np
import pytest

from choimarg import channels as ch
from choimarg.linalg import hermitian_basis, kron, partial_trace
from choimarg.sampling import random_channel, random_density, random_effect, random_unitary
from conftest import HADAMARD, SX, SY, SZ
from kron_oracles import permute_factors


def kraus_apply(kraus, rho):
    """Independent oracle: direct Kraus action sum_k K rho K^dagger."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def choi_of_identity(d=2):
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[i * d + i, j * d + j] = 1.0
    return out


class TestChoiFromKraus:
    def test_identity_channel_choi(self):
        c = ch.identity_channel(2)
        assert np.allclose(c.choi, choi_of_identity(2))
        assert abs(np.trace(c.choi) - 2.0) < 1e-12

    def test_dephasing(self):
        k0 = np.diag([1.0, 0.0])
        k1 = np.diag([0.0, 1.0])
        c = ch.choi_from_kraus([k0, k1])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        assert np.allclose(c.choi, expected)

    def test_fully_depolarizing_from_paulis(self):
        kraus = [p / 2.0 for p in (np.eye(2), SX, SY, SZ)]
        c = ch.choi_from_kraus(kraus)
        assert np.allclose(c.choi, np.eye(4) / 2)
        assert np.allclose(partial_trace(c.choi, (2, 2), {1}), np.eye(2))
        assert np.allclose(c.choi, ch.depolarizing_channel(2).choi)

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError, match="trace preserving"):
            ch.choi_from_kraus([np.diag([1.0, 0.5])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # nan slips through the trace-preservation comparison (nan > tol is false)
        with pytest.raises(ValueError, match="non-finite"):
            ch.choi_from_kraus([np.array([[bad, 0.0], [0.0, 1.0]])])


class TestChannelValidation:
    def test_accepts_valid_choi(self):
        ch.Channel(in_dim=2, out_dims=(2,), choi=np.eye(4) / 2)

    def test_rejects_non_psd(self):
        bad = choi_of_identity(2)
        bad[0, 0] = -1.0
        bad[3, 3] = 3.0
        with pytest.raises(ValueError, match="CP"):
            ch.Channel(in_dim=2, out_dims=(2,), choi=bad)

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError, match="trace preserving"):
            ch.Channel(in_dim=2, out_dims=(2,), choi=np.eye(4))

    @pytest.mark.parametrize("in_dim, out_dims", [(0, (2,)), (2, (0,)), (2, ())])
    def test_rejects_dimensions_below_one(self, in_dim, out_dims):
        with pytest.raises(ValueError, match="dimensions must be at least 1"):
            ch.Channel(in_dim=in_dim, out_dims=out_dims, choi=np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "in_dim, out_dims, name",
        [(2.5, (2,), "in_dim 2.5"), (2, (2.5,), "output dimension 2.5"), (True, (2,), "in_dim True")],
    )
    def test_rejects_non_integral_dimensions(self, in_dim, out_dims, name):
        with pytest.raises(ValueError, match=f"{name} is not an integer"):
            ch.Channel(in_dim=in_dim, out_dims=out_dims, choi=choi_of_identity(2))

    def test_integral_float_dimensions_become_ints(self):
        c = ch.Channel(in_dim=2.0, out_dims=(2.0,), choi=choi_of_identity(2))
        assert (c.in_dim, c.out_dims) == (2, (2,))
        assert type(c.in_dim) is int and type(c.out_dims[0]) is int

    def test_kraus_rejects_non_integral_dimension(self):
        with pytest.raises(ValueError, match="in_dim 2.5 is not an integer"):
            ch.choi_from_kraus([np.eye(2)], in_dim=2.5)

    @pytest.mark.parametrize(
        "make", [ch.identity_channel, ch.depolarizing_channel, ch.max_entangled, hermitian_basis],
        ids=lambda f: f.__name__,
    )
    def test_constructors_check_their_dimension(self, make):
        def value(d):
            made = make(d)
            return np.asarray(getattr(made, "choi", made))

        for d in (2.0, np.int64(2)):
            np.testing.assert_array_equal(value(d), value(2))
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match=f"dimension {bad!r} is not an integer"):
                make(bad)

    def test_choi_is_immutable(self):
        c = ch.identity_channel(2)
        with pytest.raises(ValueError):
            c.choi[0, 0] = 5.0


class TestUnitaryChannel:
    def test_identity_acts_trivially(self, rng):
        c = ch.unitary_channel(np.eye(2))
        rho = random_density(2, rng)
        assert np.allclose(ch.apply(c, rho), rho)

    def test_hadamard_on_zero(self):
        c = ch.unitary_channel(HADAMARD)
        plus = np.full((2, 2), 0.5)
        assert np.allclose(ch.apply(c, np.diag([1.0, 0.0])), plus)

    def test_theta_family_u1(self):
        u1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        c = ch.unitary_channel(u1)
        rho = np.diag([1.0, 0.0])
        assert np.allclose(ch.apply(c, rho), u1 @ rho @ u1.conj().T)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            ch.unitary_channel(np.diag([1.0, 0.5]))

    def test_inverse_composes_to_identity(self, rng):
        u = random_unitary(2, rng)
        c, cinv = ch.unitary_channel(u), ch.unitary_channel(u.conj().T)
        for _ in range(10):
            rho = random_density(2, rng)
            assert np.max(np.abs(ch.apply(cinv, ch.apply(c, rho)) - rho)) <= 1e-10


class TestMeasurePrepare:
    def test_identity_effect_prepares_zero(self, rng):
        c = ch.measure_prepare(np.eye(2))
        rho = random_density(2, rng)
        assert np.allclose(ch.apply(c, rho), np.diag([1.0, 0.0]))

    def test_born_rule(self):
        c = ch.measure_prepare(np.diag([1.0, 0.0]))
        plus = np.full((2, 2), 0.5)
        assert np.allclose(ch.apply(c, plus), np.eye(2) / 2)

    def test_correlation_identity_with_effect_correlation(self, rng):
        # Tr((Phi_M (x) Phi_N)(rho) A) equals the two-outcome correlation E(M, N)
        a = np.diag([1.0, -1.0, -1.0, 1.0])
        for _ in range(5):
            m, n = random_effect(2, rng), random_effect(2, rng)
            rho = random_density(4, rng)
            joint = ch.tensor(ch.measure_prepare(m), ch.measure_prepare(n))
            lhs = np.trace(ch.apply(joint, rho) @ a).real
            e_mn = np.trace(rho @ kron(2 * m - np.eye(2), 2 * n - np.eye(2))).real
            assert abs(lhs - e_mn) <= 1e-10

    def test_general_effect_list(self):
        effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        preps = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        c = ch.measure_prepare(effects, preps)
        assert np.allclose(ch.apply(c, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))

    def test_rejects_bad_effects(self):
        with pytest.raises(ValueError, match="sum"):
            ch.measure_prepare([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match="at least one effect"):
            ch.measure_prepare([])


class TestApply:
    def test_depolarizing_outputs_maximally_mixed(self, rng):
        c = ch.depolarizing_channel(2)
        assert np.allclose(ch.apply(c, random_density(2, rng)), np.eye(2) / 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_kraus_oracle(self, rng, d):
        g = [rng.standard_normal((d * d * d, d)) + 1j * rng.standard_normal((d * d * d, d))
             for _ in range(1)]
        q, _ = np.linalg.qr(g[0])
        kraus = [q[:, :d].reshape(d, d * d, d)[:, e, :] for e in range(d * d)]
        c = ch.choi_from_kraus(kraus)
        for _ in range(20):
            rho = random_density(d, rng)
            assert np.max(np.abs(ch.apply(c, rho) - kraus_apply(kraus, rho))) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ch.apply(ch.identity_channel(2), np.eye(3) / 3)


class TestTensor:
    def test_identity_pair_is_identity(self, rng):
        c = ch.tensor(ch.identity_channel(2), ch.identity_channel(2))
        rho = random_density(4, rng)
        assert np.max(np.abs(ch.apply(c, rho) - rho)) <= 1e-12

    def test_product_action(self, rng):
        c1 = random_channel(2, 2, rng)
        c2 = random_channel(2, 2, rng)
        r1, r2 = random_density(2, rng), random_density(2, rng)
        joint = ch.apply(ch.tensor(c1, c2), kron(r1, r2))
        expected = kron(ch.apply(c1, r1), ch.apply(c2, r2))
        assert np.max(np.abs(joint - expected)) <= 1e-10

    def test_unitary_pair_on_max_entangled(self, rng):
        # (Phi_U (x) Phi_V)(psi+) = (id (x) Phi_{V U^T})(psi+)
        psi = ch.max_entangled(2)
        for _ in range(5):
            u, v = random_unitary(2, rng), random_unitary(2, rng)
            lhs = ch.apply(ch.tensor(ch.unitary_channel(u), ch.unitary_channel(v)), psi)
            w = v @ u.T
            rhs = ch.apply(ch.tensor(ch.identity_channel(2), ch.unitary_channel(w)), psi)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_depolarizing_pair(self, rng):
        c = ch.tensor(ch.depolarizing_channel(2), ch.depolarizing_channel(2))
        assert np.allclose(ch.apply(c, random_density(4, rng)), np.eye(4) / 4)

    def test_factors_at_the_edge_of_tolerance(self):
        # each factor is trace preserving to 0.9e-9, within Channel's 1e-9;
        # the product deviates by about their sum, which a re-check rejected
        def marginal_deviation(c):
            marg = partial_trace(c.choi, (c.out_dim, c.in_dim), {1})
            return np.max(np.abs(marg - np.eye(c.in_dim)))

        chois = [choi_of_identity(2), choi_of_identity(2)]
        chois[0][0, 0] += 0.9e-9
        chois[1][3, 3] += 0.9e-9
        c1, c2 = (ch.Channel(in_dim=2, out_dims=(2,), choi=c) for c in chois)
        joint = ch.tensor(c1, c2)
        assert marginal_deviation(joint) > 1e-9
        assert marginal_deviation(joint) <= marginal_deviation(c1) + marginal_deviation(c2) + 1e-15

    def test_marginal_consistency(self, rng):
        c1, c2 = random_channel(2, 2, rng), random_channel(2, 2, rng)
        r1, r2 = random_density(2, rng), random_density(2, rng)
        out = ch.apply(ch.tensor(c1, c2), kron(r1, r2))
        marg = partial_trace(out, (2, 2), {2})
        assert np.max(np.abs(marg - ch.apply(c1, r1))) <= 1e-10


class TestCanonicalStates:
    def test_max_entangled_matrix(self):
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(ch.max_entangled(2), expected)

    def test_marginals_maximally_mixed(self):
        for d in (2, 3):
            psi = ch.max_entangled(d)
            for k in (1, 2):
                assert np.allclose(partial_trace(psi, (d, d), {k}), np.eye(d) / d)

    def test_choi_state_correspondence(self, rng):
        # (id (x) Phi)(psi+) equals the factor-swapped Choi matrix over d
        c = random_channel(2, 2, rng)
        lhs = ch.apply(ch.tensor(ch.identity_channel(2), c), ch.max_entangled(2))
        rhs = permute_factors(c.choi, (2, 2), [1, 0]) / 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_w_state(self):
        w = ch.w_state()
        assert w.shape == (8, 8)
        assert abs(np.trace(w) - 1.0) < 1e-12
        assert w[7, 7] == 0.0  # no |111> component
        rho_w = partial_trace(w, (2, 2, 2), {2})
        assert np.allclose(rho_w, partial_trace(w, (2, 2, 2), {3}))
        assert np.allclose(sorted(np.linalg.eigvalsh(rho_w)), [0, 0, 1 / 3, 2 / 3], atol=1e-12)


class TestKrausRoundTrip:
    @pytest.mark.parametrize("d", [2, 3])
    def test_apply_via_choi_equals_kraus(self, rng, d):
        for _ in range(3):
            c = random_channel(d, d, rng)
            # recover a Kraus set from the Choi eigendecomposition
            w, v = np.linalg.eigh(c.choi)
            kraus = [np.sqrt(max(lam, 0.0)) * vec.reshape(d, d)
                     for lam, vec in zip(w, v.T) if lam > 1e-12]
            for _ in range(5):
                rho = random_density(d, rng)
                assert np.max(np.abs(ch.apply(c, rho) - kraus_apply(kraus, rho))) <= 1e-10


class TestJson:
    def test_channel_round_trip(self, rng):
        c = random_channel(2, 2, rng)
        back = ch.channel_from_dict(ch.channel_to_dict(c))
        assert np.max(np.abs(back.choi - c.choi)) <= 1e-12

    def test_kind_constructors(self):
        ident = ch.channel_from_dict({"kind": "identity", "in_dim": 2, "out_dim": 2})
        assert np.allclose(ident.choi, choi_of_identity(2))
        dep = ch.channel_from_dict({"kind": "depolarizing", "in_dim": 2, "out_dim": 2})
        assert np.allclose(dep.choi, np.eye(4) / 2)
        u = ch.channel_from_dict(
            {"kind": "unitary", "in_dim": 2, "out_dim": 2,
             "data": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
        )
        assert np.allclose(u.choi, ch.unitary_channel(SX).choi)
        mp = ch.channel_from_dict(
            {"kind": "measure_prepare", "in_dim": 2, "out_dim": 2,
             "data": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
        )
        assert np.allclose(mp.choi, ch.measure_prepare(np.diag([1.0, 0.0])).choi)

    def test_state_round_trip(self, rng):
        rho = random_density(4, rng)
        back, dims = ch.state_from_dict(ch.state_to_dict(rho, dims=(2, 2)))
        assert dims == (2, 2)
        assert np.max(np.abs(back - rho)) <= 1e-12

    @pytest.mark.parametrize(
        "dims, message",
        [((3,), r"factor dimensions \(3,\) do not multiply to 4"), ((2.5, 2), "factor dimension 2.5 is not")],
        ids=["wrong_product", "non_integral"],
    )
    def test_state_dims_checked_when_written(self, dims, message):
        with pytest.raises(ValueError, match=message):
            ch.state_to_dict(np.eye(4) / 4, dims=dims)

    def test_state_dims_written_as_ints(self):
        dims = ch.state_to_dict(np.eye(4) / 4, dims=(np.int64(2), 2.0))["dims"]
        assert dims == [2, 2] and all(type(d) is int for d in dims)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="kind"):
            ch.channel_from_dict({"in_dim": 2})
        with pytest.raises(ValueError, match="kind"):
            ch.channel_from_dict({"kind": "mystery"})
        with pytest.raises(ValueError):
            ch.state_from_dict({"kind": "density", "data": [[[2, 0]]]})
