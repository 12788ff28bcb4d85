import numpy as np
import pytest

from choimarg import marginals as mg
from choimarg import sdp
from choimarg.channels import (
    Channel,
    _apply,
    apply,
    depolarizing_channel,
    identity_channel,
    max_entangled,
    measure_prepare,
    tensor,
    unitary_channel,
    w_state,
)
from choimarg.linalg import hermitian_product_basis, kron, partial_trace
from choimarg.sampling import (
    random_channel,
    random_density,
    random_effect,
    random_separable,
    random_unitary,
)
from choimarg.sdp import FEASIBLE, INFEASIBLE
from conftest import HADAMARD, SX, SZ, depolarize
from kron_oracles import embed


def smeared(pauli, s):
    return (np.eye(2) + s * pauli) / 2


def busch_compatible(a_vec, b_vec):
    """Closed-form criterion for unbiased qubit effects (1 + a.sigma)/2."""
    a, b = np.asarray(a_vec, dtype=float), np.asarray(b_vec, dtype=float)
    return np.linalg.norm(a + b) + np.linalg.norm(a - b) <= 2.0


def bisect(indicator, lo, hi, iters=40):
    """Largest s in [lo, hi] with indicator(s) true, assuming monotonicity."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if indicator(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def np_partial_trace(m, dims, keep):
    """Partial trace onto the 0-based factors ``keep``, with numpy alone."""
    n = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2)
    for k in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    d = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d, d)


def np_apply_to_second(choi, out_dims, rho, d_c):
    """(id_C (x) Phi)(rho) from the Choi matrix of Phi on (outputs, input), with numpy alone."""
    d_out = int(np.prod(out_dims))
    d_in = choi.shape[0] // d_out
    c = choi.reshape(d_out, d_in, d_out, d_in)
    r = rho.reshape(d_c, d_in, d_c, d_in)
    return np.einsum("caeb,oapb->coep", r, c).reshape(d_c * d_out, d_c * d_out)


class TestMarginalSpec:
    def test_valid(self):
        spec = mg.MarginalSpec(
            dims=(2, 2), targets=(((1,), np.eye(2) / 2), ((2,), np.eye(2) / 2))
        )
        assert spec.normalization == 1.0
        assert np.prod(spec.dims) == 4

    @pytest.mark.parametrize("dims", [(0, 2), (2.5, 2)])
    def test_rejects_malformed_dimensions(self, dims):
        # (0, 2) used to reach the solver, (2.5, 2) to be solved as (2, 2)
        with pytest.raises(ValueError, match=f"factor dimension {dims[0]!r} is not an integer"):
            mg.MarginalSpec(dims=dims, targets=(((2,), np.eye(2) / 2),))

    def test_rejects_bad_kept_set(self):
        with pytest.raises(ValueError, match="kept"):
            mg.MarginalSpec(dims=(2, 2), targets=(((3,), np.eye(2)),))

    def test_rejects_bad_target_dim(self):
        with pytest.raises(ValueError, match="shape"):
            mg.MarginalSpec(dims=(2, 2), targets=(((1,), np.eye(4)),))

    def test_rejects_trace_mismatch(self):
        with pytest.raises(ValueError, match="trace"):
            mg.MarginalSpec(
                dims=(2, 2), targets=(((1,), np.eye(2)), ((2,), np.eye(2) / 2))
            )

    def test_accepts_shared_marginals_within_channel_tolerance(self):
        # each Choi is trace preserving to 0.9e-9, so their input marginals
        # differ by 1.8e-9; p = 0.5 is above the qubit cloning threshold 1/3
        dep = depolarizing_channel(2, 0.5)
        bump = np.zeros((4, 4))
        bump[0, 0] = 0.9e-9
        c1 = Channel(in_dim=2, out_dims=(2,), choi=dep.choi + bump)
        c2 = Channel(in_dim=2, out_dims=(2,), choi=dep.choi - bump)
        assert mg.channels_compatible(c1, c2).verdict == mg.COMPATIBLE

    def test_accepts_trace_within_channel_tolerance(self):
        # 0.9e-9 on each diagonal entry of the input marginal puts the trace
        # 2.7e-9 above d_in = 3; p = 0.5 is above the qutrit threshold 3/8
        dep = depolarizing_channel(3, 0.5)
        bump = np.zeros((9, 9))
        for i in range(3):
            bump[i * 3 + i, i * 3 + i] = 0.9e-9
        c1 = Channel(in_dim=3, out_dims=(3,), choi=dep.choi + bump)
        assert mg.channels_compatible(c1, dep).verdict == mg.COMPATIBLE


class TestMarginalFeasibility:
    def test_product_of_marginals(self):
        spec = mg.MarginalSpec(
            dims=(2, 2), targets=(((1,), np.eye(2) / 2), ((2,), np.eye(2) / 2))
        )
        rep = mg.marginal_feasibility(spec)
        assert rep.status == FEASIBLE
        assert np.linalg.eigvalsh(rep.witness)[0] >= -1e-8

    def test_w_state_overlapping_marginals(self):
        w = w_state()
        rho_w = partial_trace(w, (2, 2, 2), {2})
        spec = mg.MarginalSpec(
            dims=(2, 2, 2), targets=(((1, 2), rho_w), ((1, 3), rho_w))
        )
        rep = mg.marginal_feasibility(spec)
        assert rep.status == FEASIBLE
        assert np.linalg.norm(rep.witness - w) < 1e-5

    def test_contradictory_targets(self):
        # Tr_2 of the maximally entangled state is 1/2, not |0><0|
        with pytest.raises(ValueError, match=r"\(1, 2\) and \(1,\)"):
            mg.MarginalSpec(
                dims=(2, 2),
                targets=(((1, 2), max_entangled(2)), ((1,), np.diag([1.0, 0.0]))),
            )


class TestChannelsCompatible:
    def test_depolarizing_pair(self):
        dep = depolarizing_channel(2)
        rep = mg.channels_compatible(dep, dep)
        assert rep.verdict == mg.COMPATIBLE
        joint = rep.joint_choi
        assert joint.in_dim == 2 and joint.out_dims == (2, 2)
        for traced, target in (({2}, dep.choi), ({1}, dep.choi)):
            marg = partial_trace(joint.choi, (2, 2, 2), traced)
            assert np.max(np.abs(marg - target)) <= 1e-6

    def test_identity_pair_no_broadcasting(self):
        ident = identity_channel(2)
        rep = mg.channels_compatible(ident, ident)
        assert rep.verdict == mg.INCOMPATIBLE
        assert rep.slack <= -1e-4
        assert rep.dual_value <= -1e-4

    def test_measure_prepare_pair_threshold(self):
        def compatible_at(s):
            c1 = measure_prepare(smeared(SX, s))
            c2 = measure_prepare(smeared(SZ, s))
            return mg.channels_compatible(c1, c2).verdict == mg.COMPATIBLE

        assert compatible_at(0.5)
        assert not compatible_at(0.9)
        threshold = bisect(compatible_at, 0.5, 0.9, iters=14)
        assert abs(threshold - 1.0 / np.sqrt(2.0)) <= 1e-3

    def test_symmetry(self, rng):
        for _ in range(10):
            c1 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
            c2 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
            assert (
                mg.channels_compatible(c1, c2).verdict
                == mg.channels_compatible(c2, c1).verdict
            )

    def test_qutrit_pairs(self):
        id3 = identity_channel(3)
        rep = mg.channels_compatible(id3, id3)
        assert rep.verdict == mg.INCOMPATIBLE
        assert abs(rep.slack - (-1.0 / 15.0)) <= 1e-6
        dep3 = depolarizing_channel(3)
        assert mg.channels_compatible(dep3, dep3).verdict == mg.COMPATIBLE

    @pytest.mark.parametrize("d, threshold", [(2, 1.0 / 3.0), (3, 3.0 / 8.0)])
    def test_universal_cloning_threshold(self, d, threshold):
        # two copies of rho -> (1 - p) rho + p 1/d are compatible iff
        # 1 - p <= (d + 2) / (2 (d + 1)), the optimal symmetric cloner
        def verdict(p):
            dep = depolarizing_channel(d, p)
            return mg.channels_compatible(dep, dep).verdict

        assert verdict(threshold - 1e-3) == mg.INCOMPATIBLE
        assert verdict(threshold + 1e-3) == mg.COMPATIBLE

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("a", [0.3, 0.6, 0.8, 0.95])
    def test_asymmetric_cloning_boundary(self, d, a):
        # rho -> eta_i rho + (1 - eta_i) 1/d, i = 1, 2, are compatible iff
        # (eta_1, eta_2) lies inside the optimal asymmetric cloning curve
        # eta_1 = a^2 + 2ab/d, eta_2 = b^2 + 2ab/d with a^2 + b^2 + 2ab/d = 1
        # (Cerf 2000, "Asymmetric quantum cloning in any dimension")
        b = -a / d + np.sqrt(a**2 / d**2 - a**2 + 1)
        etas = (a**2 + 2 * a * b / d, b**2 + 2 * a * b / d)

        def decide(s):
            c1, c2 = (depolarizing_channel(d, 1 - eta + s) for eta in etas)
            return mg.channels_compatible(c1, c2)

        on_curve = decide(0.0)
        assert on_curve.verdict != mg.INCOMPATIBLE
        assert abs(on_curve.slack) < 1e-7
        assert decide(-1e-3).verdict == mg.INCOMPATIBLE
        assert decide(1e-3).verdict == mg.COMPATIBLE

    @staticmethod
    def assert_full_kraus_rank_pair_compatible(seed):
        rng = np.random.default_rng(seed)
        c1 = random_channel(3, 3, rng, kraus_rank=9)
        c2 = random_channel(3, 3, rng, kraus_rank=9)
        rep = mg.channels_compatible(c1, c2)
        assert rep.verdict == mg.COMPATIBLE
        witness = rep.joint_choi.choi
        assert np.linalg.eigvalsh(witness)[0] >= -1e-8
        assert np.max(np.abs(partial_trace(witness, (3, 3, 3), {2}) - c1.choi)) <= 1e-6
        assert np.max(np.abs(partial_trace(witness, (3, 3, 3), {1}) - c2.choi)) <= 1e-6

    def test_full_kraus_rank_qutrit_pair_converges(self):
        # the primal residual of this pair used to stall just above the solver's
        # feasibility tolerance, and the decision raised SdpError
        self.assert_full_kraus_rank_pair_compatible(7000 + 18)

    def test_full_kraus_rank_qutrit_pair_converges_near_the_boundary(self):
        # with a fixed centering the step lengths of this pair fell to zero
        # near the cone boundary and the solve ran out of iterations
        self.assert_full_kraus_rank_pair_compatible(7000 + 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="input"):
            mg.channels_compatible(identity_channel(2), identity_channel(3))


class TestTargetRows:
    @staticmethod
    def specs(rng, monkeypatch):
        """The specs the compatibility, steering and Bell tests hand to the solver."""
        specs = [
            mg._compat_spec(random_channel(2, 2, rng), random_channel(2, 2, rng)),
            mg._compat_spec(random_channel(3, 3, rng), random_channel(3, 3, rng)),
            mg._compat_spec(random_channel(2, 2, rng), random_channel(2, 3, rng)),
        ]
        monkeypatch.setattr(mg, "marginal_feasibility", lambda spec, **_: specs.append(spec))
        mg.state_steerable(max_entangled(2), random_channel(2, 2, rng), random_channel(2, 3, rng))
        mg.bell_local(random_density(4, rng), *[random_channel(2, 2, rng) for _ in range(4)])
        assert len(specs) == 5
        return specs

    @staticmethod
    def lifted_rows(spec):
        """The dense lift of every row of the spec's groups, in row order."""
        lifted = []
        for group in mg._target_rows(spec):
            d = int(np.prod([spec.dims[k] for k in group.kept]))
            lifted += [embed(c.reshape(d, d), spec.dims, [k + 1 for k in group.kept]) for c in group.coeffs]
        return lifted

    def test_rows_are_an_orthogonal_basis_of_the_naive_span(self, rng, monkeypatch):
        specs = self.specs(rng, monkeypatch)
        assert [len(self.lifted_rows(spec)) for spec in specs] == [28, 153, 48, 48, 49]
        for spec in specs:
            groups = mg._target_rows(spec)
            assert len(groups) == len(spec.targets)
            rows = self.lifted_rows(spec)
            vecs = np.array([h.reshape(-1) for h in rows])
            gram = vecs.conj() @ vecs.T
            assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-12
            n = int(np.prod(spec.dims))
            ident = [np.allclose(h, h[0, 0] * np.eye(n)) and abs(h[0, 0]) > 0 for h in rows]
            assert sum(ident) == 1
            naive = np.array([
                embed(b, spec.dims, kept).reshape(-1)
                for kept, _ in spec.targets
                for b in hermitian_product_basis([spec.dims[k - 1] for k in kept])
            ])
            rank = np.linalg.matrix_rank(naive)
            assert len(rows) == rank == np.linalg.matrix_rank(np.vstack([naive, vecs]))
            # each rhs is the row's inner product with the target it comes from
            for group, (_, target) in zip(groups, spec.targets):
                expected = [np.trace(c.reshape(target.shape) @ target).real for c in group.coeffs]
                np.testing.assert_allclose(group.rhs, expected, atol=1e-14)

    def test_rows_built_once_per_decision(self, monkeypatch):
        calls = []
        original = mg._target_rows
        monkeypatch.setattr(mg, "_target_rows", lambda spec: calls.append(spec) or original(spec))
        ident = identity_channel(2)
        rep = mg.channels_compatible(ident, ident)
        assert rep.verdict == mg.INCOMPATIBLE and rep.dual_witness is not None
        assert len(calls) == 1

    def test_row_layout_shared_read_only_across_calls(self, rng):
        # two specs on the same factors share their coefficient matrices; only
        # the rhs is computed per call
        s1 = mg._compat_spec(random_channel(2, 3, rng), random_channel(2, 2, rng))
        s2 = mg._compat_spec(random_channel(2, 3, rng), random_channel(2, 2, rng))
        g1, g2 = mg._target_rows(s1), mg._target_rows(s2)
        for a, b, (_, target) in zip(g1, g2, s2.targets):
            assert a.coeffs is b.coeffs
            assert not a.coeffs.flags.writeable
            with pytest.raises(ValueError):
                a.coeffs[0, 0] = 1.0
            expected = [np.trace(c.reshape(target.shape) @ target).real for c in b.coeffs]
            np.testing.assert_allclose(b.rhs, expected, atol=1e-14)
        assert not np.allclose(g1[0].rhs, g2[0].rhs)

    def test_witness_validated_once_after_its_last_change(self, monkeypatch):
        calls = {"init": 0, "holds": 0}
        init, holds = sdp._Rows.__init__, sdp._Rows.holds

        def counted_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counted_holds(self, *args, **kwargs):
            calls["holds"] += 1
            return holds(self, *args, **kwargs)

        monkeypatch.setattr(sdp._Rows, "__init__", counted_init)
        monkeypatch.setattr(sdp._Rows, "holds", counted_holds)
        ident = identity_channel(2)
        dep = depolarizing_channel(2)
        rho_w = partial_trace(w_state(), (2, 2, 2), {2})
        half = np.eye(2) / 2
        spec = mg.MarginalSpec(dims=(2, 2), targets=(((1,), half), ((2,), half)), normalization=1.0)
        decisions = {
            "compat": lambda: mg.channels_compatible(dep, dep),
            "steer": lambda: mg.state_steerable(rho_w, ident, ident),
            "bell": lambda: mg.bell_local(np.eye(4) / 4, ident, ident, ident, ident),
            "effects": lambda: mg.effects_compatible(smeared(SX, 0.5), smeared(SZ, 0.5)),
            "marginal": lambda: mg.marginal_feasibility(spec),
        }
        for name, decide in decisions.items():
            calls.update(init=0, holds=0)
            rep = decide()
            status = rep.verdict if name == "compat" else rep.status
            assert status in (mg.COMPATIBLE, FEASIBLE), name
            assert calls == {"init": 1, "holds": 1}, name
        # the reported witness is the matrix that was validated: the joint
        # channel's, stored once and read-only
        rep = mg.channels_compatible(dep, dep)
        assert np.array_equal(rep.report.witness, rep.joint_choi.choi)
        assert rep.report.witness is rep.joint_choi.choi
        assert not rep.report.witness.flags.writeable


def cone_matrix(c1, c2, a, b):
    """lift(A) + 1 (x) B on the joint Choi factors (out_1, out_2, in)."""
    dims = (c1.out_dim, c2.out_dim, c1.in_dim)
    return embed(a, dims, (1, 3)) + embed(b, dims, (2, 3))


class TestDualWitness:
    def test_compatible_pair_nonnegative(self):
        dep = depolarizing_channel(2)
        assert mg.channels_compatible(dep, dep).dual_value >= -1e-7

    def test_identity_pair_certificate(self):
        ident = identity_channel(2)
        rep = mg.channels_compatible(ident, ident)
        a, b = rep.dual_witness
        value = rep.dual_value
        assert value <= -1e-4
        # re-check by explicit trace evaluation and cone membership
        direct = np.trace(a @ ident.choi).real + np.trace(b @ ident.choi).real
        assert abs(direct - value) <= 1e-9
        assert np.linalg.eigvalsh(cone_matrix(ident, ident, a, b))[0] >= -1e-8
        norm = np.sqrt(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2))
        assert abs(norm - 1.0) <= 1e-9

    def test_cone_constraint_on_random_joint_chois(self, rng):
        ident = identity_channel(2)
        a, b = mg.channels_compatible(ident, ident).dual_witness
        cone = cone_matrix(ident, ident, a, b)
        for _ in range(10):
            joint = random_channel(2, 4, rng)
            assert np.trace(joint.choi @ cone).real >= -1e-6

    def test_certificates_of_random_incompatible_pairs(self, rng):
        checked = 0
        for _ in range(8):
            c1 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 3)))
            c2 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 3)))
            rep = mg.channels_compatible(c1, c2)
            if rep.verdict != mg.INCOMPATIBLE:
                continue
            checked += 1
            a, b = rep.dual_witness
            assert rep.dual_value <= -1e-7
            assert np.linalg.eigvalsh(cone_matrix(c1, c2, a, b))[0] >= -1e-8
        assert checked >= 4


class TestSteering:
    def test_separable_not_steerable(self):
        rep = mg.state_steerable(np.eye(4) / 4, identity_channel(2), identity_channel(2))
        assert rep.status == FEASIBLE

    def test_max_entangled_steerable_by_incompatible(self):
        rep = mg.state_steerable(
            max_entangled(2), identity_channel(2), unitary_channel(HADAMARD)
        )
        assert rep.status == INFEASIBLE

    def test_w_marginal_not_steerable_unique_witness(self):
        w = w_state()
        rho_w = partial_trace(w, (2, 2, 2), {2})
        rep = mg.state_steerable(rho_w, identity_channel(2), identity_channel(2))
        assert rep.status == FEASIBLE
        assert np.linalg.norm(rep.witness - w) <= 1e-4

    def test_max_entangled_equivalence_with_compatibility(self, rng):
        psi = max_entangled(2)
        decided = 0
        for _ in range(10):
            c1 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
            c2 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
            comp = mg.channels_compatible(c1, c2)
            steer = mg.state_steerable(psi, c1, c2)
            if comp.verdict == mg.MARGINAL or steer.status not in (FEASIBLE, INFEASIBLE):
                continue
            decided += 1
            assert (steer.status == INFEASIBLE) == (comp.verdict == mg.INCOMPATIBLE)
        assert decided >= 8

    def test_max_entangled_equivalence_with_compatibility_qutrits(self):
        # sigma = (id (x) J)(psi) is the joint Choi matrix J with its factors
        # permuted, divided by d = 3: steerable iff incompatible, with the
        # compatibility slack three times the steering slack
        rng = np.random.default_rng(33)
        pairs = [tuple(random_channel(3, 3, rng, kraus_rank=2) for _ in range(2)) for _ in range(6)]
        pairs += [(depolarizing_channel(3, p),) * 2 for p in (0.3, 0.45)]
        pairs.append((unitary_channel(random_unitary(3, rng)), unitary_channel(random_unitary(3, rng))))
        psi = max_entangled(3)
        for c1, c2 in pairs:
            comp = mg.channels_compatible(c1, c2)
            steer = mg.state_steerable(psi, c1, c2)
            assert comp.verdict in (mg.COMPATIBLE, mg.INCOMPATIBLE)
            assert (steer.status == INFEASIBLE) == (comp.verdict == mg.INCOMPATIBLE)
            assert abs(3 * steer.slack - comp.slack) <= 1e-6

    def test_unsteerable_by_identities_unsteerable_by_any(self, rng):
        rho_w = partial_trace(w_state(), (2, 2, 2), {2})
        for _ in range(5):
            c1 = random_channel(2, 2, rng)
            c2 = random_channel(2, 2, rng)
            rep = mg.state_steerable(rho_w, c1, c2)
            assert rep.status == FEASIBLE

    @pytest.mark.parametrize("d, seed", [(2, 31), (3, 32)])
    def test_compatible_pair_leaves_every_state_unsteerable(self, d, seed):
        # id (x) J of a joint channel J maps rho to a state with both steering
        # marginals, so a compatible pair steers no state
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(4):
            c1, c2 = (
                depolarize(random_channel(d, d, rng, kraus_rank=2), rng.uniform(0.3, 0.7))
                for _ in range(2)
            )
            comp = mg.channels_compatible(c1, c2)
            if comp.verdict != mg.COMPATIBLE:
                continue
            checked += 1
            rho = random_density(d * d, rng)
            assert mg.state_steerable(rho, c1, c2).status == FEASIBLE
            joint = comp.joint_choi
            sigma = np_apply_to_second(joint.choi, joint.out_dims, rho, d)
            assert np.linalg.eigvalsh(sigma)[0] >= -1e-8
            dims = (d, d, d)
            for keep, c in (((0, 1), c1), ((0, 2), c2)):
                target = np_apply_to_second(c.choi, c.out_dims, rho, d)
                assert np.max(np.abs(np_partial_trace(sigma, dims, keep) - target)) <= 1e-6
        assert checked >= 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="multiple"):
            mg.state_steerable(np.eye(3) / 3, identity_channel(2), identity_channel(2))


class TestBellLocal:
    def test_separable_local(self, rng):
        rho = kron(random_density(2, rng), random_density(2, rng))
        chans = [random_channel(2, 2, rng) for _ in range(4)]
        rep = mg.bell_local(rho, *chans)
        assert rep.status == FEASIBLE

    def test_w_marginal_nonlocal(self):
        rho_w = partial_trace(w_state(), (2, 2, 2), {2})
        ident = identity_channel(2)
        rep = mg.bell_local(rho_w, ident, ident, ident, ident)
        assert rep.status == INFEASIBLE
        assert rep.slack <= -1e-5

    def test_maximally_mixed_local_product_witness(self):
        ident = identity_channel(2)
        rep = mg.bell_local(np.eye(4) / 4, ident, ident, ident, ident)
        assert rep.status == FEASIBLE
        assert np.max(np.abs(rep.witness - np.eye(16) / 16)) <= 1e-5

    def test_unitary_channel_reduction(self, rng):
        # replacing a unitary channel by the identity leaves the verdict unchanged
        ident = identity_channel(2)
        for _ in range(5):
            rho = 0.7 * random_density(4, rng) + 0.3 * np.eye(4) / 4
            u = random_unitary(2, rng)
            others = [random_channel(2, 2, rng) for _ in range(3)]
            with_u = mg.bell_local(rho, unitary_channel(u), *others)
            with_id = mg.bell_local(rho, ident, *others)
            assert with_u.status == with_id.status

    def test_qutrit_separable_local(self):
        # four-group kernel at n = 81, m = 289; the witness is re-checked with numpy alone
        rng = np.random.default_rng(11)
        rho = random_separable(3, 3, rng)
        c11, c21, c12, c22 = (random_channel(3, 3, rng, kraus_rank=2) for _ in range(4))
        rep = mg.bell_local(rho, c11, c21, c12, c22)
        assert rep.status == FEASIBLE
        assert rep.solution.dual.size == 289
        assert np.linalg.eigvalsh(rep.witness)[0] >= -1e-8
        for keep, a, b in (((0, 2), c11, c12), ((0, 3), c11, c22), ((1, 2), c21, c12), ((1, 3), c21, c22)):
            target = _apply(tensor(a, b), rho)
            assert np.max(np.abs(np_partial_trace(rep.witness, (3, 3, 3, 3), keep) - target)) <= 1e-6

    def test_channels_at_the_edge_of_tolerance(self):
        # each channel is trace preserving to 0.9e-9; their tensor products
        # deviate by 1.8e-9 and are decided, not rejected
        bumped = identity_channel(2).choi.copy()
        bumped[0, 0] += 0.9e-9
        c = Channel(in_dim=2, out_dims=(2,), choi=bumped)
        assert mg.bell_local(max_entangled(2), c, c, c, c).status == INFEASIBLE

    def test_dimension_mismatch(self):
        ident = identity_channel(2)
        with pytest.raises(ValueError, match="does not match"):
            mg.bell_local(np.eye(8) / 8, ident, ident, ident, ident)


class TestEffectsCompatible:
    def test_effect_with_itself(self, rng):
        # a projector with itself sits on the boundary; the recovered witness is G = f
        f = np.diag([1.0, 0.0])
        rep = mg.effects_compatible(f, f)
        assert rep.status == FEASIBLE
        assert np.max(np.abs(rep.witness - f)) <= 1e-5
        # an arbitrary smeared effect with itself is compatible as well
        from choimarg.sampling import random_effect

        g = random_effect(2, rng)
        assert mg.effects_compatible(g, g).status == FEASIBLE

    def test_sharp_noncommuting_incompatible(self):
        plus = np.full((2, 2), 0.5)
        rep = mg.effects_compatible(np.diag([1.0, 0.0]), plus)
        assert rep.status == INFEASIBLE

    def test_h_decomposition_recoverable(self):
        f, g = smeared(SX, 0.5), smeared(SZ, 0.5)
        rep = mg.effects_compatible(f, g)
        assert rep.status == FEASIBLE
        G = rep.witness
        for block in (G, f - G, g - G, np.eye(2) - f - g + G):
            assert np.linalg.eigvalsh(block)[0] >= -1e-7

    def test_busch_threshold(self):
        def compatible_at(s):
            return mg.effects_compatible(smeared(SX, s), smeared(SZ, s)).status == FEASIBLE

        threshold = bisect(compatible_at, 0.5, 0.9, iters=14)
        assert abs(threshold - 1.0 / np.sqrt(2.0)) <= 1e-3

    def test_agrees_with_busch_criterion(self, rng):
        for _ in range(6):
            a = rng.uniform(-1, 1, size=3)
            b = rng.uniform(-1, 1, size=3)
            a *= rng.uniform(0, 1) / np.linalg.norm(a)
            b *= rng.uniform(0, 1) / np.linalg.norm(b)
            paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
            f = (np.eye(2) + np.einsum("i,ijk->jk", a, paulis)) / 2
            g = (np.eye(2) + np.einsum("i,ijk->jk", b, paulis)) / 2
            expected = busch_compatible(a, b)
            rep = mg.effects_compatible(f, g)
            if abs(np.linalg.norm(a + b) + np.linalg.norm(a - b) - 2.0) < 1e-4:
                continue  # too close to the boundary to assert either way
            assert (rep.status == FEASIBLE) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mg.effects_compatible(np.eye(2) / 2, np.eye(3) / 2)

    @staticmethod
    def assert_decomposes(f, g, G):
        """G, f - G, g - G and 1 - f - g + G are PSD: a joint measurement."""
        for block in (G, f - G, g - G, np.eye(len(f)) - f - g + G):
            assert np.linalg.eigvalsh(block)[0] >= -1e-7

    def test_qutrit_commuting_effects_compatible(self, rng):
        # commuting effects are jointly measured by G = fg
        for _ in range(3):
            u = random_unitary(3, rng)
            f = (u * rng.uniform(0, 1, 3)) @ u.conj().T
            g = (u * rng.uniform(0, 1, 3)) @ u.conj().T
            self.assert_decomposes(f, g, f @ g)
            rep = mg.effects_compatible(f, g)
            assert rep.status == FEASIBLE
            self.assert_decomposes(f, g, rep.witness)

    def test_qutrit_effect_with_its_complement_compatible(self, rng):
        # f and 1 - f are the two outcomes of one measurement, jointly measured by G = 0
        f = random_effect(3, rng)
        rep = mg.effects_compatible(f, np.eye(3) - f)
        assert rep.status == FEASIBLE
        self.assert_decomposes(f, np.eye(3) - f, rep.witness)

    def test_qutrit_noncommuting_projectors_incompatible(self, rng):
        # sharp effects are jointly measurable only if they commute; rank-1
        # projectors with an overlap strictly between 0 and 1 do not
        for _ in range(3):
            u = random_unitary(3, rng)
            p, q = u[:, 0], u[:, 0] + rng.uniform(0.2, 2.0) * u[:, 1]
            q = q / np.linalg.norm(q)
            assert 0.0 < abs(np.vdot(p, q)) ** 2 < 1.0
            rep = mg.effects_compatible(np.outer(p, p.conj()), np.outer(q, q.conj()))
            assert rep.status == INFEASIBLE

    def test_effects_checked_at_psd_tol(self):
        # an eigenvalue of -5e-9 is past linalg.PSD_TOL = 1e-9, one of -5e-10 is within it
        g = 0.3 * np.ones((2, 2)) + 0.2 * np.eye(2)
        with pytest.raises(ValueError, match="effect"):
            mg.effects_compatible(np.diag([1.0, -5e-9]), g)
        rep = mg.effects_compatible(np.diag([1.0, -5e-10]), g)
        assert rep.status == INFEASIBLE
        assert abs(rep.slack - (-0.04155)) <= 1e-5


class TestCompatWitnessRevalidation:
    def test_compatible_witnesses_revalidate(self, rng):
        # marginals of a random joint channel are compatible by construction
        from choimarg.channels import Channel

        for _ in range(5):
            joint_choi = random_channel(2, 4, rng).choi
            c1 = Channel(2, (2,), partial_trace(joint_choi, (2, 2, 2), {2}))
            c2 = Channel(2, (2,), partial_trace(joint_choi, (2, 2, 2), {1}))
            rep = mg.channels_compatible(c1, c2)
            assert rep.verdict == mg.COMPATIBLE
            witness = rep.joint_choi.choi
            assert np.linalg.eigvalsh(witness)[0] >= -1e-8
            assert np.max(np.abs(partial_trace(witness, (2, 2, 2), {2}) - c1.choi)) <= 1e-6
            assert np.max(np.abs(partial_trace(witness, (2, 2, 2), {1}) - c2.choi)) <= 1e-6
