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


def measure_prepare_oracle(effects, preps):
    """``Channel(...)`` on sum_k |phi_k><phi_k| (x) M_k^T, validated in full,
    for the Hermitian parts M_k that ``check_effect`` returns."""
    effects = [(m + m.conj().T) / 2 for m in map(np.asarray, effects)]
    preps = [np.asarray(v, dtype=complex) for v in preps]
    choi = sum(kron(np.outer(v, v.conj()), m.T) for m, v in zip(effects, preps))
    return ch.Channel(in_dim=effects[0].shape[0], out_dims=(preps[0].size,), choi=choi)


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

    def test_matches_the_validated_construction(self, rng):
        # the Choi matrix is not re-validated, so it must be the bytes that
        # Channel(...) stores for the same sum of |phi_k><phi_k| (x) M_k^T
        for d_in, d_out, k in ((2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 4, 3)):
            w = rng.uniform(0.0, 1.0, (k, d_in))
            w /= w.sum(axis=0)
            u = random_unitary(d_in, rng)
            effects = [(u * wk) @ u.conj().T for wk in w]
            preps = list(random_unitary(d_out, rng).T[:k])
            c = ch.measure_prepare(effects, preps)
            oracle = measure_prepare_oracle(effects, preps)
            assert (c.in_dim, c.out_dims) == (oracle.in_dim, oracle.out_dims)
            assert c.choi.dtype == oracle.choi.dtype and c.choi.tobytes() == oracle.choi.tobytes()
            assert not c.choi.flags.writeable
        m = random_effect(2, rng)
        m = (m + m.conj().T) / 2
        oracle = measure_prepare_oracle([m, np.eye(2) - m], list(np.eye(2, dtype=complex)))
        assert ch.measure_prepare(m).choi.tobytes() == oracle.choi.tobytes()

    @pytest.mark.parametrize(
        "e, g",
        [(0.0, 0.0), (0.9e-9, 0.0), (0.0, 0.9e-9), (0.45e-9, 0.45e-9), (0.55e-9, 0.55e-9),
         (0.9e-9, 0.9e-9), (-0.45e-9, -0.45e-9), (-0.55e-9, -0.55e-9), (-0.9e-9, -0.9e-9)],
    )
    def test_trace_preservation_edge(self, rng, e, g):
        # effects summing to (1 + e) 1 and preparations of squared norm 1 + g
        # each pass their own check; the channel's trace deviates by about
        # e + g, which Channel(...) admits only up to PSD_TOL = 1e-9
        u, v = random_unitary(2, rng), random_unitary(3, rng)
        effects = [(1.0 + e) * np.outer(u[:, i], u[:, i].conj()) for i in range(2)]
        preps = [np.sqrt(1.0 + g) * v[:, i] for i in range(2)]
        try:
            oracle = measure_prepare_oracle(effects, preps)
        except ValueError as exc:
            assert "not trace preserving" in str(exc)
            with pytest.raises(ValueError, match="not trace preserving"):
                ch.measure_prepare(effects, preps)
            assert abs(e + g) > 0.9e-9
        else:
            c = ch.measure_prepare(effects, preps)
            assert c.choi.tobytes() == oracle.choi.tobytes()
            assert abs(e + g) < 1e-9

    def test_rejects_non_finite_preparations(self):
        effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                ch.measure_prepare(effects, [np.array([bad, 0.0]), np.array([0.0, 1.0])])

    def test_no_channel_is_revalidated(self, monkeypatch):
        calls, post_init = [], ch.Channel.__post_init__

        def spy(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(ch.Channel, "__post_init__", spy)
        ch.measure_prepare(np.diag([0.3, 0.6]))
        ch.measure_prepare([np.eye(2) / 2] * 2, [np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        assert calls == []


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

    def test_composite_choi_round_trip_without_out_dim(self, rng):
        # out_dim used to default to in_dim, which rejected this file as
        # "out_dims do not multiply to out_dim"
        c = ch.Channel(in_dim=2, out_dims=(2, 2), choi=random_channel(2, 4, rng).choi)
        data = ch.channel_to_dict(c)
        del data["out_dim"]
        back = ch.channel_from_dict(data)
        assert back.in_dim == 2 and back.out_dims == (2, 2)
        assert np.max(np.abs(back.choi - c.choi)) <= 1e-12
        with pytest.raises(ValueError, match="out_dims do not multiply to out_dim"):
            ch.channel_from_dict({**data, "out_dim": 2})

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


def depolarizing_oracle(d, p):
    """``Channel(...)`` on (1 - p) C(id) + p 1/d, validated in full."""
    choi = (1.0 - p) * choi_of_identity(d) + p * (np.eye(d * d, dtype=complex) / d)
    return ch.Channel(in_dim=d, out_dims=(d,), choi=choi)


class TestDepolarizingChannel:
    """CP is decided from the closed-form eigenvalues p/d and (1 - p) d + p/d
    instead of an eigendecomposition; the stored Choi matrix and the verdict
    must be the full validation's."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("p", ["0", "1/3", "3/8", "1", "edge", "-1e-6", "edge+1e-6"])
    def test_matches_the_validated_construction(self, d, p):
        edge = d * d / (d * d - 1)
        outside = p in ("-1e-6", "edge+1e-6")
        p = {"0": 0.0, "1/3": 1 / 3, "3/8": 3 / 8, "1": 1.0, "edge": edge,
             "-1e-6": -1e-6, "edge+1e-6": edge + 1e-6}[p]
        if outside:
            with pytest.raises(ValueError, match="not CP"):
                depolarizing_oracle(d, p)
            with pytest.raises(ValueError, match="Choi matrix is not CP: min eigenvalue"):
                ch.depolarizing_channel(d, p)
            return
        oracle = depolarizing_oracle(d, p)
        c = ch.depolarizing_channel(d, p)
        assert (c.in_dim, c.out_dims) == (d, (d,))
        assert c.choi.dtype == oracle.choi.dtype and c.choi.tobytes() == oracle.choi.tobytes()
        assert not c.choi.flags.writeable

    @pytest.mark.parametrize(
        "p", [np.nan, np.inf, -np.inf, 0.5 + 0j, 0.5 + 0.1j, np.complex128(0.5), "0.5"],
        ids=["nan", "inf", "-inf", "complex", "complex-imag", "numpy-complex", "string"],
    )
    def test_rejects_a_p_that_is_not_a_finite_real(self, p):
        with pytest.raises(ValueError, match=r"p .* is not a finite real number"):
            ch.depolarizing_channel(2, p)

    def test_accepts_real_numbers_of_any_type(self):
        ref = ch.depolarizing_channel(3, 0.5).choi
        for p in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
            np.testing.assert_array_equal(ch.depolarizing_channel(3, p).choi, ref)
        np.testing.assert_array_equal(ch.depolarizing_channel(3, 1).choi, ch.depolarizing_channel(3).choi)


class TestSamplingArguments:
    def test_too_small_kraus_rank_names_it(self, rng):
        # a 2 x 3 isometry into output (x) environment does not exist
        with pytest.raises(ValueError, match="kraus_rank 1 is too small"):
            random_channel(3, 2, rng, kraus_rank=1)
        c = random_channel(3, 2, rng, kraus_rank=2)
        assert (c.in_dim, c.out_dims) == (3, (2,))

    @pytest.mark.parametrize("rank", [2.5, 0, True])
    def test_kraus_rank_must_be_a_dimension(self, rng, rank):
        with pytest.raises(ValueError, match=f"kraus_rank {rank!r} is not an integer"):
            random_channel(2, 2, rng, kraus_rank=rank)

    @pytest.mark.parametrize(
        "draw, name",
        [
            (lambda rng: random_unitary(0, rng), "d 0"),
            (lambda rng: random_unitary(2.5, rng), "d 2.5"),
            (lambda rng: random_density(2, rng, rank=0), "rank 0"),
            (lambda rng: random_density(True, rng), "d True"),
            (lambda rng: random_effect(0, rng), "d 0"),
            (lambda rng: random_channel(0, 2, rng), "in_dim 0"),
            (lambda rng: random_channel(2, 1.5, rng), "out_dim 1.5"),
        ],
        ids=["unitary-0", "unitary-2.5", "density-rank", "density-bool", "effect", "channel-in", "channel-out"],
    )
    def test_bad_dimension_names_the_argument(self, rng, draw, name):
        with pytest.raises(ValueError, match=f"{name} is not an integer"):
            draw(rng)

    def test_integral_floats_draw_the_same(self):
        a = random_channel(2.0, np.int64(3), np.random.default_rng(5), kraus_rank=2.0)
        b = random_channel(2, 3, np.random.default_rng(5), kraus_rank=2)
        np.testing.assert_array_equal(a.choi, b.choi)
        np.testing.assert_array_equal(
            random_effect(3.0, np.random.default_rng(6)), random_effect(3, np.random.default_rng(6))
        )
