from functools import partial, reduce

import numpy as np
import pytest

from choimarg import marginals as mg
from choimarg import sdp
from choimarg.channels import (
    Channel,
    _apply,
    apply,
    channel_from_dict,
    channel_to_dict,
    depolarizing_channel,
    identity_channel,
    max_entangled,
    measure_prepare,
    tensor,
    unitary_channel,
    w_state,
)
from choimarg.linalg import hermitian_product_basis, kron, partial_trace
from choimarg.presets import bell_preset, compat_preset, steer_preset
from choimarg.sampling import (
    random_channel,
    random_density,
    random_effect,
    random_separable,
    random_unitary,
)
from choimarg.sdp import FEASIBLE, MARGINAL
from conftest import HADAMARD, SX, SZ, RowGroup, depolarize, rows_of, spy_dtypes, target_rows
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

    @pytest.mark.parametrize("k", [1.5, True, "1"])
    def test_rejects_malformed_kept_factors(self, k):
        # each used to be read as factor 1
        with pytest.raises(ValueError, match=f"kept factor {k!r} is not an integer"):
            mg.MarginalSpec(dims=(2, 2, 2), targets=(((k, 3), np.eye(4) / 4),))

    @pytest.mark.parametrize("target", [
        (1, np.eye(2) / 2),  # an int kept set, used to raise a bare TypeError
        ((1,), np.eye(2) / 2, 0.0),  # three items, used to raise "too many values to unpack"
        ((1,),),  # one item, used to raise "not enough values to unpack"
    ], ids=["int-kept-set", "three-items", "one-item"])
    def test_rejects_a_target_that_is_not_a_kept_set_matrix_pair(self, target):
        with pytest.raises(
            ValueError, match=r"target 1 is not a pair \(kept factors, matrix\) with a sequence"
        ):
            mg.MarginalSpec(dims=(2,), targets=(((1,), np.eye(2) / 2), target))

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
        assert rep.verdict == FEASIBLE
        assert np.linalg.eigvalsh(rep.witness)[0] >= -1e-8

    def test_w_state_overlapping_marginals(self):
        w = w_state()
        rho_w = partial_trace(w, (2, 2, 2), {2})
        spec = mg.MarginalSpec(
            dims=(2, 2, 2), targets=(((1, 2), rho_w), ((1, 3), rho_w))
        )
        rep = mg.marginal_feasibility(spec)
        assert rep.verdict == FEASIBLE
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
        monkeypatch.setattr(mg, "_decide", lambda spec, *_: specs.append(spec))
        mg.state_steerable(max_entangled(2), random_channel(2, 2, rng), random_channel(2, 3, rng))
        mg.bell_local(random_density(4, rng), *[random_channel(2, 2, rng) for _ in range(4)])
        assert len(specs) == 5
        return specs

    @staticmethod
    def lifted_rows(spec):
        """The dense lift of every row of the spec's groups, in row order."""
        lifted = []
        for group in target_rows(spec):
            d = int(np.prod([spec.dims[k] for k in group.kept]))
            lifted += [embed(c.reshape(d, d), spec.dims, [k + 1 for k in group.kept]) for c in group.coeffs]
        return lifted

    def test_rows_are_an_orthogonal_basis_of_the_naive_span(self, rng, monkeypatch):
        specs = self.specs(rng, monkeypatch)
        assert [len(self.lifted_rows(spec)) for spec in specs] == [28, 153, 48, 48, 49]
        for spec in specs:
            groups = target_rows(spec)
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
        init = mg._Shape.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(mg._Shape, "__init__", counted)
        mg._shape.cache_clear()
        ident = identity_channel(2)
        rep = mg.channels_compatible(ident, ident)
        assert rep.verdict == mg.INCOMPATIBLE and rep.dual_witness is not None
        assert len(calls) == 1

    def test_row_layout_shared_read_only_across_calls(self, rng):
        # two specs on the same factors share their coefficient matrices; only
        # the rhs is computed per call
        s1 = mg._compat_spec(random_channel(2, 3, rng), random_channel(2, 2, rng))
        s2 = mg._compat_spec(random_channel(2, 3, rng), random_channel(2, 2, rng))
        g1, g2 = target_rows(s1), target_rows(s2)
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
        words = {"compat": mg.COMPATIBLE, "steer": "unsteerable", "bell": "local",
                 "effects": mg.COMPATIBLE, "marginal": FEASIBLE}
        for name, decide in decisions.items():
            calls.update(init=0, holds=0)
            assert decide().verdict == words[name], name
            assert calls == {"init": 1, "holds": 1}, name
        # the reported witness is the matrix that was validated: the joint
        # channel's, stored once and read-only
        rep = mg.channels_compatible(dep, dep)
        assert np.array_equal(rep.witness, rep.joint_choi.choi)
        assert rep.witness is rep.joint_choi.choi
        assert not rep.witness.flags.writeable


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

    @pytest.mark.parametrize("c, verdict", [
        (identity_channel(2), mg.INCOMPATIBLE),
        (depolarizing_channel(3, 0.35), mg.INCOMPATIBLE),
        (depolarizing_channel(3, 0.4), mg.COMPATIBLE),
    ], ids=["identity-pair", "qutrit-depolarizing-0.35", "qutrit-depolarizing-0.4"])
    def test_certificates_on_a_real_block(self, monkeypatch, c, verdict):
        # real targets: the imaginary rows are left out of the solve, and the
        # dual vector still covers every row, in group order, 0 on the omitted ones
        dtypes = spy_dtypes(monkeypatch)
        rep = mg.channels_compatible(c, c)
        assert dtypes == [float] and rep.verdict == verdict
        groups = target_rows(mg._compat_spec(c, c))
        imaginary = np.concatenate([~g.coeffs.real.any(axis=1) for g in groups])
        assert rep.dual_certificate.shape == imaginary.shape
        assert imaginary.any() and not rep.dual_certificate[imaginary].any()
        a, b = rep.dual_witness
        assert np.linalg.eigvalsh(cone_matrix(c, c, a, b))[0] >= -1e-8
        direct = np.trace(a @ c.choi).real + np.trace(b @ c.choi).real
        assert abs(direct - rep.dual_value) <= 1e-9
        if verdict == mg.COMPATIBLE:
            assert rep.witness.dtype == complex and not rep.witness.flags.writeable


def rotated(groups, unitaries):
    """Each group's rows conjugated by the product of the factor unitaries on its
    kept factors, with the same right-hand sides."""
    out = []
    for g in groups:
        u = reduce(np.kron, [unitaries[k] for k in g.kept])
        d = len(u)
        coeffs = np.array([(u @ c.reshape(d, d) @ u.conj().T).ravel() for c in g.coeffs])
        out.append(RowGroup(g.kept, coeffs, g.rhs))
    return out


class TestRealRows:
    """Real targets reach the solver as their real rows only, in float64, and the
    reported dual vector covers every basis row: the solver's duals on the
    solved rows, in group order, and exact zeros on the omitted ones. Complex
    targets pass every row."""

    @pytest.mark.parametrize("decide, dtype, m, m_all", [
        (lambda: mg.channels_compatible(*compat_preset("depolarizing-pair")), float, 17, 28),
        (lambda: mg.bell_local(*bell_preset("w-state")), float, 29, 49),
        (lambda: mg.channels_compatible(depolarizing_channel(3, 0.4), depolarizing_channel(3, 0.4)),
         float, 84, 153),
        (lambda: mg.channels_compatible(*(random_channel(2, 2, np.random.default_rng(3)),) * 2),
         complex, 28, 28),
    ], ids=["qubit-compat", "qubit-bell", "qutrit-compat", "qubit-compat-complex"])
    def test_rows_reaching_the_solver(self, monkeypatch, decide, dtype, m, m_all):
        solves, ipm = [], sdp._ipm
        specs = spy_specs(monkeypatch)

        def spy(rows, **kwargs):
            solves.append((rows, ipm(rows, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(sdp, "_ipm", spy)
        rep = decide()
        [(rows, solve)], [spec] = solves, specs
        assert rows.op.dtype is dtype and rows.op.m == m
        groups = target_rows(spec)
        solved = [~g.coeffs.imag.any(axis=1) if dtype is float else np.ones(len(g.rhs), bool)
                  for g in groups]
        for c, g, kept in zip(rows.op.coeffs, groups, solved):
            assert c.dtype == np.dtype(dtype) and np.array_equal(c, g.coeffs[kept])
        assert np.array_equal(rows.rhs, np.concatenate([g.rhs[k] for g, k in zip(groups, solved)]))
        solved = np.concatenate(solved)
        assert rep.dual_certificate.shape == (m_all,) and solved.sum() == m
        assert np.array_equal(rep.dual_certificate[solved], solve.dual_certificate)
        assert not rep.dual_certificate[~solved].any()


def spy_specs(monkeypatch):
    """The list that records the spec of every later decision."""
    specs, decide = [], mg._decide

    def spy(spec, *args, **kwargs):
        specs.append(spec)
        return decide(spec, *args, **kwargs)

    monkeypatch.setattr(mg, "_decide", spy)
    return specs


def clear_shape_caches():
    mg._shape.cache_clear()


def operators(shape):
    """The operators a shape has built so far."""
    return [vars(shape)[name] for name in ("every_row", "real_rows") if name in vars(shape)]


def report_fields(rep):
    """Every field of a report as exact bytes: arrays with their dtype and shape."""
    def exact(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        if isinstance(v, tuple):
            return tuple(exact(a) for a in v)
        return v.hex() if isinstance(v, float) else v

    fields = ["verdict", "slack", "witness", "dual_certificate", "iterations", "gap",
              "primal_residual", "dual_residual", "dual_objective"]
    if isinstance(rep, mg.CompatReport):
        fields += ["dual_witness", "dual_value"]
    return {f: exact(getattr(rep, f)) for f in fields}


def bell_rng11():
    rng = np.random.default_rng(11)
    rho = random_separable(3, 3, rng)
    return mg.bell_local(rho, *(random_channel(3, 3, rng, kraus_rank=2) for _ in range(4)))


class TestShapeCaches:
    """What only the shape of a decision fixes (its basis rows, their operators
    and Gram factors) is built once and shared read-only; results do not depend
    on whether it was built by the call or before it."""

    DECISIONS = {
        "qutrit-compat-real": lambda: mg.channels_compatible(
            depolarizing_channel(3, 0.36), depolarizing_channel(3, 0.36)),
        "qutrit-compat-complex": lambda: mg.channels_compatible(
            *(random_channel(3, 3, np.random.default_rng(5), kraus_rank=2) for _ in range(2))),
        "qubit-compat-complex": lambda: mg.channels_compatible(
            *(random_channel(2, 2, np.random.default_rng(5), kraus_rank=2) for _ in range(2))),
        "qubit-steer": lambda: mg.state_steerable(*steer_preset("w-state")),
        "qubit-bell": lambda: mg.bell_local(*bell_preset("max-entangled")),
        "qutrit-bell-rng11": bell_rng11,
    }

    @pytest.mark.parametrize("name", list(DECISIONS))
    def test_cold_and_warm_caches_give_identical_reports(self, name):
        # shapes A and B cold, then both again on a warm cache
        decide = self.DECISIONS[name]

        def other():
            return mg.effects_compatible(smeared(SX, 0.5), smeared(SZ, 0.5))

        clear_shape_caches()
        cold = report_fields(decide()), report_fields(other())
        warm = report_fields(decide()), report_fields(other())
        assert warm == cold

    @staticmethod
    def assert_read_only(shape):
        """Every array the shape holds, and those of the operators it has built
        (the dual start among them), rejects writes."""
        arrays = [shape.imaginary, *shape.coeffs]
        for op in operators(shape):
            arrays += [*op.coeffs, op.free, op.gram, op.y0, op.z0, op.lz0]
            if isinstance(op, sdp._DenseOperator):
                arrays += [op.lifted, op.flat]
            arrays += [part.take for part in op.parts]
            arrays += [a for pair in op.pairs for a in (pair.zinv, pair.x, pair.t)]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_cached_arrays_reject_writes(self, monkeypatch):
        clear_shape_caches()
        shapes, shape = [], mg._shape

        def record(*key):
            shapes.append(shape(*key))
            return shapes[-1]

        monkeypatch.setattr(mg, "_shape", record)
        for decide in self.DECISIONS.values():
            decide()
        built = {(type(op), op.dtype) for s in shapes for op in operators(s)}
        assert built == {(kind, dtype) for kind in (sdp._DenseOperator, sdp._Operator)
                         for dtype in (float, complex)}
        for s in shapes:
            self.assert_read_only(s)

    def test_one_shape_builds_each_operator_at_its_first_use(self, monkeypatch):
        # a complex and a real decision on dims (3, 3, 3) share one shape, and
        # each builds only the operator its own solve takes
        clear_shape_caches()
        dtypes = spy_dtypes(monkeypatch)
        kraus = random_channel(3, 3, np.random.default_rng(5), kraus_rank=2)
        mg.channels_compatible(kraus, kraus)
        shape = mg._shape((3, 3, 3), ((1, 3), (2, 3)))
        assert "every_row" in vars(shape) and "real_rows" not in vars(shape)
        dep = depolarizing_channel(3, 0.36)
        mg.channels_compatible(dep, dep)
        assert "real_rows" in vars(shape)
        assert dtypes == [complex, float]
        assert shape.every_row.dtype is complex and shape.real_rows.dtype is float
        assert mg._shape.cache_info().misses == 1
        self.assert_read_only(shape)

    def test_a_cached_shape_builds_no_gram_matrix(self, monkeypatch):
        # on a qubit shape, whose operator is dense, and a qutrit one, whose
        # operator keeps row groups; the count patches the class the shape builds
        for d, kind in ((2, sdp._DenseOperator), (3, sdp._Operator)):
            dep = depolarizing_channel(d, 0.4)
            clear_shape_caches()
            built, schur = [], kind.schur

            def counted(self, zinv, x):
                built.append(None)
                return schur(self, zinv, x)

            monkeypatch.setattr(kind, "schur", counted)
            first = mg.channels_compatible(dep, dep)
            assert type(mg._shape((d, d, d), ((1, 3), (2, 3))).real_rows) is kind
            # cold: the Gram matrix of the shape's operator, then one Schur matrix per iteration
            assert len(built) == 1 + first.iterations
            built.clear()
            dep = depolarizing_channel(d, 0.35)
            second = mg.channels_compatible(dep, dep)
            assert len(built) == second.iterations
            assert mg._shape.cache_info().misses == 1
            monkeypatch.undo()


def spy_operators(monkeypatch):
    """The list that records the class and dtype of the operator of every later IPM solve."""
    built, ipm = [], sdp._ipm

    def spy(rows, **kwargs):
        built.append((type(rows.op), rows.op.dtype))
        return ipm(rows, **kwargs)

    monkeypatch.setattr(sdp, "_ipm", spy)
    return built


def random_qubit_channels(seed, count):
    rng = np.random.default_rng(seed)
    return [random_channel(2, 2, rng, kraus_rank=2) for _ in range(count)]


class TestDenseOperator:
    """A shape takes dense rows when its lifted rows hold at most
    sdp.DENSE_ENTRIES floats, else row groups; both give the same decisions."""

    SELECTION = {
        "qubit-compat-real": (lambda: mg.channels_compatible(*compat_preset("depolarizing-pair")),
                              sdp._DenseOperator, float),
        "qubit-compat-complex": (lambda: mg.channels_compatible(*random_qubit_channels(1, 2)),
                                 sdp._DenseOperator, complex),
        "qubit-steer-real": (lambda: mg.state_steerable(*steer_preset("w-state")),
                             sdp._DenseOperator, float),
        "qubit-steer-complex": (
            lambda: mg.state_steerable(random_density(4, np.random.default_rng(2)),
                                       *random_qubit_channels(3, 2)),
            sdp._DenseOperator, complex),
        "qubit-bell-w-state": (lambda: mg.bell_local(*bell_preset("w-state")),
                               sdp._DenseOperator, float),
        "qubit-bell-max-entangled": (lambda: mg.bell_local(*bell_preset("max-entangled")),
                                     sdp._DenseOperator, float),
        "qutrit-compat-real": (lambda: mg.channels_compatible(
            depolarizing_channel(3, 0.36), depolarizing_channel(3, 0.36)), sdp._Operator, float),
        "qutrit-compat-complex": (lambda: mg.channels_compatible(
            *(random_channel(3, 3, np.random.default_rng(5), kraus_rank=2) for _ in range(2))),
            sdp._Operator, complex),
    }

    @pytest.mark.parametrize("name", list(SELECTION))
    def test_selection(self, monkeypatch, name):
        decide, kind, dtype = self.SELECTION[name]
        built = spy_operators(monkeypatch)
        decide()
        assert built == [(kind, dtype)]

    def test_the_factory_compares_entries_with_the_constant(self, monkeypatch):
        # a real qubit compatibility shape: 17 rows of 8 x 8 lifts; complex: 28 rows, doubled
        shape = mg._Shape((2, 2, 2), ((1, 3), (2, 3)))
        real = [c.real[~c.imag.any(axis=1)] for c in shape.coeffs]
        for coeffs, entries in ((real, 17 * 64), (shape.coeffs, 2 * 28 * 64)):
            groups = list(zip(shape.kept, coeffs))
            monkeypatch.setattr(sdp, "DENSE_ENTRIES", entries)
            assert type(sdp._operator(shape.dims, groups)) is sdp._DenseOperator
            monkeypatch.setattr(sdp, "DENSE_ENTRIES", entries - 1)
            assert type(sdp._operator(shape.dims, groups)) is sdp._Operator

    PARITY = {
        **{f"compat-{name}": (lambda eps, name=name: mg.channels_compatible(
            *compat_preset(name), eps=eps)) for name in ("identity-pair", "depolarizing-pair")},
        **{f"steer-{name}": (lambda eps, name=name: mg.state_steerable(
            *steer_preset(name), eps=eps)) for name in ("max-entangled", "w-state")},
        **{f"bell-{name}": (lambda eps, name=name: mg.bell_local(*bell_preset(name), eps=eps))
           for name in ("max-entangled", "w-state", "theta-family:1.0", "theta-family:5.5")},
        **{f"bisect-{offset:+g}": (lambda eps, offset=offset: mg.channels_compatible(
            depolarizing_channel(2, 1 / 3 + offset), depolarizing_channel(2, 1 / 3 + offset),
            eps=eps)) for offset in (-1e-3, -1e-6, 1e-6, 1e-3)},
        "compat-complex": lambda eps: mg.channels_compatible(
            *random_qubit_channels(1, 2), eps=eps),
        "steer-complex": lambda eps: mg.state_steerable(
            random_density(4, np.random.default_rng(2)), *random_qubit_channels(3, 2), eps=eps),
        "bell-complex": lambda eps: mg.bell_local(
            random_density(4, np.random.default_rng(4)),
            *(unitary_channel(random_unitary(2, np.random.default_rng(s))) for s in range(6, 10)),
            eps=eps),
    }

    @pytest.mark.parametrize("name", list(PARITY))
    def test_dense_and_grouped_decisions_agree(self, monkeypatch, name):
        built = spy_operators(monkeypatch)

        limit = sdp.DENSE_ENTRIES

        def both(eps):
            """The decision on the shape's dense operator, then on its row groups."""
            clear_shape_caches()
            dense = self.PARITY[name](eps)
            monkeypatch.setattr(sdp, "DENSE_ENTRIES", 0)
            clear_shape_caches()
            grouped = self.PARITY[name](eps)
            monkeypatch.setattr(sdp, "DENSE_ENTRIES", limit)
            clear_shape_caches()
            return dense, grouped

        dense, grouped = both(sdp.BAND)
        assert [kind for kind, _ in built] == [sdp._DenseOperator, sdp._Operator]
        assert built[0][1] is built[1][1]
        assert (dense.verdict, dense.iterations) == (grouped.verdict, grouped.iterations)
        # a slack is exact to its own solve's relative gap (below eps / 10), which
        # reaches several 1e-9 where the optimal witness is not unique, and rounding
        # decides where in it a solve stops: two solves differ by up to both gaps
        scale = 1 + abs(grouped.slack)
        assert abs(dense.slack - grouped.slack) <= (1e-9 + dense.gap + grouped.gap) * scale
        # solved to a relative gap of 1e-11, the slacks agree to 1e-9 (iteration
        # counts of that end game depend on rounding and are not compared)
        dense, grouped = both(1e-10)
        assert [kind for kind, _ in built[2:]] == [sdp._DenseOperator, sdp._Operator]
        assert dense.verdict == grouped.verdict
        assert abs(dense.slack - grouped.slack) <= 1e-9 * (1 + abs(grouped.slack))


class TestConjugationSymmetry:
    """Conjugating every tensor factor by a unitary U_k keeps the optimal slack:
    with U the product of the U_k, <U B U^H, U X U^H> = <B, X>, so X -> U X U^H maps
    the feasible set onto the rotated program's and keeps its eigenvalues. A random
    complex U makes real rows complex, so each decision on real data, solved on
    a real block on its real rows, is checked against the rotation of every basis
    row, imaginary rows and their right-hand sides included, solved on a complex
    block."""

    CASES = {
        "qubit-depolarizing-below": lambda: mg.channels_compatible(
            depolarizing_channel(2, 1 / 3 - 0.02), depolarizing_channel(2, 1 / 3 - 0.02)),
        "qubit-depolarizing-above": lambda: mg.channels_compatible(
            depolarizing_channel(2, 1 / 3 + 0.02), depolarizing_channel(2, 1 / 3 + 0.02)),
        "qutrit-depolarizing-below": lambda: mg.channels_compatible(
            depolarizing_channel(3, 3 / 8 - 0.02), depolarizing_channel(3, 3 / 8 - 0.02)),
        "qutrit-depolarizing-above": lambda: mg.channels_compatible(
            depolarizing_channel(3, 3 / 8 + 0.02), depolarizing_channel(3, 3 / 8 + 0.02)),
        "identity-pair": lambda: mg.channels_compatible(*compat_preset("identity-pair")),
        "steer-w-state": lambda: mg.state_steerable(*steer_preset("w-state")),
        "steer-max-entangled": lambda: mg.state_steerable(*steer_preset("max-entangled")),
        "bell-w-state": lambda: mg.bell_local(*bell_preset("w-state")),
        "bell-max-entangled": lambda: mg.bell_local(*bell_preset("max-entangled")),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_rotation_keeps_verdict_and_slack(self, monkeypatch, name):
        calls, group_feasibility = [], sdp._group_feasibility
        specs = spy_specs(monkeypatch)

        def spy_groups(rows, **kwargs):
            calls.append((rows, kwargs))
            return group_feasibility(rows, **kwargs)

        monkeypatch.setattr(mg, "_group_feasibility", spy_groups)
        dtypes = spy_dtypes(monkeypatch)
        rep = self.CASES[name]()
        [(solved, kwargs)], [spec] = calls, specs
        dims, groups = spec.dims, target_rows(spec)
        assert len(solved.rhs) < sum(len(g.rhs) for g in groups)
        rng = np.random.default_rng(17)
        unitaries = [random_unitary(d, rng) for d in dims]
        turned = sdp._group_feasibility(rows_of(dims, rotated(groups, unitaries)), **kwargs)
        assert dtypes == [float, complex]
        assert turned.verdict == rep.verdict
        assert abs(turned.slack - rep.slack) <= 1e-7


class TestSteering:
    def test_inputs_at_their_tolerances_are_decided(self):
        # a state and a channel each inside its own trace tolerance give targets
        # whose trace drifts by the sum; the decisions used to reject these valid
        # inputs as "inconsistent target traces"
        rho = max_entangled(2) * (1 + 0.9e-9)
        ident = identity_channel(2)
        c = Channel(in_dim=2, out_dims=(2,), choi=np.asarray(ident.choi) * (1 + 0.9e-9))
        assert mg.state_steerable(rho, c, c).verdict == "steerable"
        assert mg.bell_local(rho, c, c, c, c).verdict == "nonlocal"

    def test_separable_not_steerable(self):
        rep = mg.state_steerable(np.eye(4) / 4, identity_channel(2), identity_channel(2))
        assert rep.verdict == "unsteerable"

    def test_max_entangled_steerable_by_incompatible(self):
        rep = mg.state_steerable(
            max_entangled(2), identity_channel(2), unitary_channel(HADAMARD)
        )
        assert rep.verdict == "steerable"

    def test_w_marginal_not_steerable_unique_witness(self):
        w = w_state()
        rho_w = partial_trace(w, (2, 2, 2), {2})
        rep = mg.state_steerable(rho_w, identity_channel(2), identity_channel(2))
        assert rep.verdict == "unsteerable"
        assert np.linalg.norm(rep.witness - w) <= 1e-4

    def test_max_entangled_equivalence_with_compatibility(self, rng):
        psi = max_entangled(2)
        decided = 0
        for _ in range(10):
            c1 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
            c2 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
            comp = mg.channels_compatible(c1, c2)
            steer = mg.state_steerable(psi, c1, c2)
            if MARGINAL in (comp.verdict, steer.verdict):
                continue
            decided += 1
            assert (steer.verdict == "steerable") == (comp.verdict == mg.INCOMPATIBLE)
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
            assert (steer.verdict == "steerable") == (comp.verdict == mg.INCOMPATIBLE)
            assert abs(3 * steer.slack - comp.slack) <= 1e-6

    def test_unsteerable_by_identities_unsteerable_by_any(self, rng):
        rho_w = partial_trace(w_state(), (2, 2, 2), {2})
        for _ in range(5):
            c1 = random_channel(2, 2, rng)
            c2 = random_channel(2, 2, rng)
            rep = mg.state_steerable(rho_w, c1, c2)
            assert rep.verdict == "unsteerable"

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
            assert mg.state_steerable(rho, c1, c2).verdict == "unsteerable"
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
        assert rep.verdict == "local"

    def test_w_marginal_nonlocal(self):
        rho_w = partial_trace(w_state(), (2, 2, 2), {2})
        ident = identity_channel(2)
        rep = mg.bell_local(rho_w, ident, ident, ident, ident)
        assert rep.verdict == "nonlocal"
        assert rep.slack <= -1e-5

    def test_maximally_mixed_local_product_witness(self):
        ident = identity_channel(2)
        rep = mg.bell_local(np.eye(4) / 4, ident, ident, ident, ident)
        assert rep.verdict == "local"
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
            assert with_u.verdict == with_id.verdict

    def test_qutrit_separable_local(self):
        # four-group kernel at n = 81, m = 289; the witness is re-checked with numpy alone
        rng = np.random.default_rng(11)
        rho = random_separable(3, 3, rng)
        c11, c21, c12, c22 = (random_channel(3, 3, rng, kraus_rank=2) for _ in range(4))
        rep = mg.bell_local(rho, c11, c21, c12, c22)
        assert rep.verdict == "local"
        assert rep.dual_certificate.size == 289
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
        assert mg.bell_local(max_entangled(2), c, c, c, c).verdict == "nonlocal"

    def test_dimension_mismatch(self):
        ident = identity_channel(2)
        with pytest.raises(ValueError, match="does not match"):
            mg.bell_local(np.eye(8) / 8, ident, ident, ident, ident)


class TestEffectsCompatible:
    def test_effect_with_itself(self, rng):
        # a projector with itself sits on the boundary; the recovered witness is G = f
        f = np.diag([1.0, 0.0])
        rep = mg.effects_compatible(f, f)
        assert rep.verdict == mg.COMPATIBLE
        assert np.max(np.abs(rep.witness - f)) <= 1e-5
        # an arbitrary smeared effect with itself is compatible as well
        from choimarg.sampling import random_effect

        g = random_effect(2, rng)
        assert mg.effects_compatible(g, g).verdict == mg.COMPATIBLE

    def test_sharp_noncommuting_incompatible(self):
        plus = np.full((2, 2), 0.5)
        rep = mg.effects_compatible(np.diag([1.0, 0.0]), plus)
        assert rep.verdict == mg.INCOMPATIBLE

    def test_h_decomposition_recoverable(self):
        f, g = smeared(SX, 0.5), smeared(SZ, 0.5)
        rep = mg.effects_compatible(f, g)
        assert rep.verdict == mg.COMPATIBLE
        G = rep.witness
        for block in (G, f - G, g - G, np.eye(2) - f - g + G):
            assert np.linalg.eigvalsh(block)[0] >= -1e-7

    def test_busch_threshold(self):
        def compatible_at(s):
            return mg.effects_compatible(smeared(SX, s), smeared(SZ, s)).verdict == mg.COMPATIBLE

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
            assert (rep.verdict == mg.COMPATIBLE) == expected

    def test_dimension_mismatch(self):
        # the error names the effects the caller passed, not the channels built from them
        for f, g in ((np.eye(2) / 2, np.eye(3) / 2), (np.eye(3) / 2, np.eye(2) / 2)):
            with pytest.raises(ValueError, match="effects have different dimensions"):
                mg.effects_compatible(f, g)

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
            assert rep.verdict == mg.COMPATIBLE
            self.assert_decomposes(f, g, rep.witness)

    def test_qutrit_effect_with_its_complement_compatible(self, rng):
        # f and 1 - f are the two outcomes of one measurement, jointly measured by G = 0
        f = random_effect(3, rng)
        rep = mg.effects_compatible(f, np.eye(3) - f)
        assert rep.verdict == mg.COMPATIBLE
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
            assert rep.verdict == mg.INCOMPATIBLE

    def test_effects_checked_at_psd_tol(self):
        # an eigenvalue of -5e-9 is past linalg.PSD_TOL = 1e-9, one of -5e-10 is within it
        g = 0.3 * np.ones((2, 2)) + 0.2 * np.eye(2)
        with pytest.raises(ValueError, match="effect"):
            mg.effects_compatible(np.diag([1.0, -5e-9]), g)
        rep = mg.effects_compatible(np.diag([1.0, -5e-10]), g)
        assert rep.verdict == mg.INCOMPATIBLE
        assert abs(rep.slack - (-0.04155)) <= 1e-5


ENTRY_POINTS = {
    # inputs on the infeasible side, so that a wide band makes every verdict marginal
    "marginal": lambda eps: mg.marginal_feasibility(
        mg.MarginalSpec((2, 2, 2), (((1, 2), max_entangled(2)), ((1, 3), max_entangled(2)))),
        eps=eps,
    ),
    "compat": lambda eps: mg.channels_compatible(identity_channel(2), identity_channel(2), eps=eps),
    "steer": lambda eps: mg.state_steerable(
        max_entangled(2), identity_channel(2), unitary_channel(HADAMARD), eps=eps
    ),
    "bell": lambda eps: mg.bell_local(max_entangled(2), *[identity_channel(2)] * 4, eps=eps),
    "effects": lambda eps: mg.effects_compatible(
        np.diag([1.0, 0.0]), np.full((2, 2), 0.5), eps=eps
    ),
}


class TestBandValidation:
    @pytest.mark.parametrize(
        "eps", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
    )
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_bad_band_is_an_input_error(self, entry, eps):
        # a non-finite band decided the incompatible identity pair as marginal,
        # and a non-positive one ran 200 iterations into a solver error
        with pytest.raises(ValueError, match="eps must be finite and strictly positive"):
            ENTRY_POINTS[entry](eps)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_wide_finite_band_is_marginal(self, entry):
        assert ENTRY_POINTS[entry](1e3).verdict == MARGINAL


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


WORDS = (mg.COMPATIBLE, mg.INCOMPATIBLE)


def seeded_unitary(d, seed):
    return unitary_channel(random_unitary(d, np.random.default_rng(seed)))


class TestUnitaryGauge:
    """A pair with a complex unitary channel is decided in the gauge that turns
    each unitary channel into the identity: on its real rows, with every
    report field mapped back. Each decision is compared with the ungauged
    complex solve of the original spec, and its certificate or witness is
    re-checked with numpy on the original Choi matrices."""

    UNITARY_PAIRS = {
        f"{name}-unitary-pair": (lambda d=d, s=s: (seeded_unitary(d, s), seeded_unitary(d, s + 1)))
        for name, d, s in (("qubit", 2, 41), ("qutrit", 3, 43), ("qutrit-2", 3, 45))
    }
    WITH_DEPOLARIZING = {
        f"{name}-unitary-depolarizing-{p}": (
            lambda d=d, p=p: (seeded_unitary(d, 47 + d), depolarizing_channel(d, p)))
        for name, d in (("qubit", 2), ("qutrit", 3)) for p in (0.2, 0.5, 1.0)
    }
    PARITY = {**UNITARY_PAIRS, **WITH_DEPOLARIZING}

    @pytest.mark.parametrize("name", list(PARITY))
    def test_parity_with_the_complex_solve(self, monkeypatch, name):
        c1, c2 = self.PARITY[name]()
        dims = (c1.out_dim, c2.out_dim, c1.in_dim)
        dtypes = spy_dtypes(monkeypatch)
        complex_solve = mg._decide(mg._compat_spec(c1, c2), WORDS, sdp.BAND)
        rep = mg.channels_compatible(c1, c2)
        assert dtypes == [complex, float]
        assert rep.verdict == complex_solve.verdict
        assert abs(rep.slack - complex_solve.slack) <= 1e-8 * (1 + abs(complex_solve.slack))
        assert abs(rep.dual_objective - complex_solve.dual_objective) <= 1e-8
        # a unitary pair has one optimal dual vector, which both solves reach to
        # rounding; next to a depolarizing channel the optimal duals form a face,
        # and the real and the complex program stop at points of it up to ~3e-7
        # apart, as they do on the identity channel with the same partner, where
        # no gauge is involved
        tol = 1e-8 if name in self.UNITARY_PAIRS else 1e-6
        assert np.max(np.abs(rep.dual_certificate - complex_solve.dual_certificate)) <= tol
        # dual_witness and dual_value come from the original Choi matrices
        a, b = rep.dual_witness
        assert np.linalg.eigvalsh(cone_matrix(c1, c2, a, b))[0] >= -1e-8
        value = np.trace(a @ c1.choi).real + np.trace(b @ c2.choi).real
        assert abs(value - rep.dual_value) <= 1e-9
        if rep.verdict == mg.INCOMPATIBLE:
            assert value < 0
            return
        assert name.endswith("-1.0")
        x = rep.joint_choi.choi
        assert np.max(np.abs(x - x.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(x)[0] >= -1e-8
        assert np.max(np.abs(np_partial_trace(x, dims, (0, 2)) - c1.choi)) <= 1e-6
        assert np.max(np.abs(np_partial_trace(x, dims, (1, 2)) - c2.choi)) <= 1e-6

    def test_unitary_pairs_have_the_identity_pairs_slack(self):
        # two unitary channels are the identity pair in their gauge: no cloning,
        # with the slack of the identity pair on every draw
        for d in (2, 3):
            ident = mg.channels_compatible(identity_channel(d), identity_channel(d))
            for seed in range(60, 64):
                rep = mg.channels_compatible(seeded_unitary(d, seed), seeded_unitary(d, seed + 10))
                assert rep.verdict == mg.INCOMPATIBLE
                assert abs(rep.slack - ident.slack) <= 1e-8 * (1 + abs(ident.slack))

    LEFT_ALONE = {
        "kraus-rank-2-pair": lambda: tuple(
            random_channel(3, 3, np.random.default_rng(51), kraus_rank=2) for _ in range(2)),
        "unitary-with-1e-6-noise": lambda: (
            depolarize(seeded_unitary(3, 52), 1e-6), depolarizing_channel(3, 0.5)),
        "unitary-with-kraus-rank-2": lambda: (
            seeded_unitary(3, 53), random_channel(3, 3, np.random.default_rng(54), kraus_rank=2)),
        "identity-pair": lambda: compat_preset("identity-pair"),
    }

    @pytest.mark.parametrize("name", list(LEFT_ALONE))
    def test_inputs_the_gauge_leaves_alone(self, name):
        c1, c2 = self.LEFT_ALONE[name]()
        spec = mg._compat_spec(c1, c2)
        ungauged = mg._decide(spec, WORDS, sdp.BAND, partial(mg._joint_finish, spec))
        fields = report_fields(mg.channels_compatible(c1, c2))
        assert {f: fields[f] for f in report_fields(ungauged)} == report_fields(ungauged)

    def test_detection_reads_the_choi_matrix(self, monkeypatch):
        # a unitary channel written to JSON and read back is a plain Choi matrix,
        # validated by Channel(...); it is gauged all the same
        u = seeded_unitary(3, 55)
        back = channel_from_dict(channel_to_dict(u))
        assert type(back) is Channel and back.choi.imag.any()
        dep = depolarizing_channel(3, 0.3)
        dtypes = spy_dtypes(monkeypatch)
        built, read = mg.channels_compatible(u, dep), mg.channels_compatible(back, dep)
        assert dtypes == [float, float]
        assert read.verdict == built.verdict == mg.INCOMPATIBLE
        assert abs(read.slack - built.slack) <= 1e-9


def compatible_qutrit_to_qubit_pairs(count):
    """The two qubit marginals of random joint channels from a qutrit to two
    qubits: compatible by construction."""
    rng = np.random.default_rng(2700)
    for _ in range(count):
        joint = random_channel(3, 4, rng).choi
        yield (Channel(3, (2,), partial_trace(joint, (2, 2, 3), {2})),
               Channel(3, (2,), partial_trace(joint, (2, 2, 3), {1})))


def joint_contract_pairs():
    """Every compat preset, depolarizing self-pairs within 1e-6 of the qubit
    and qutrit cloning thresholds, random compatible qutrit-to-qubit pairs and
    a gauged unitary qutrit channel beside the fully depolarizing one."""
    pairs = [compat_preset(name) for name in ("identity-pair", "depolarizing-pair")]
    for d, threshold in ((2, 1 / 3), (3, 3 / 8)):
        for dp in (-1e-6, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, 1e-6):
            dep = depolarizing_channel(d, threshold + dp)
            pairs.append((dep, dep))
    pairs += compatible_qutrit_to_qubit_pairs(5)
    pairs.append((seeded_unitary(3, 27), depolarizing_channel(3, 1.0)))
    return pairs


class TestJointChannelContract:
    """The joint channel of a compatible verdict is the validated witness itself,
    not a Channel(...) re-validated after the decision: the decision's check
    must be at least as strict as Channel's own."""

    def test_every_joint_channel_passes_the_full_validation(self):
        compatible = 0
        for c1, c2 in joint_contract_pairs():
            rep = mg.channels_compatible(c1, c2)
            if rep.verdict != mg.COMPATIBLE:
                continue
            compatible += 1
            joint = rep.joint_choi
            assert rep.witness is joint.choi and not joint.choi.flags.writeable
            oracle = Channel(in_dim=c1.in_dim, out_dims=(c1.out_dim, c2.out_dim), choi=joint.choi)
            assert (joint.in_dim, joint.out_dims) == (oracle.in_dim, oracle.out_dims)
            assert joint.choi.tobytes() == oracle.choi.tobytes()
        # at least the depolarizing preset, the three pairs above each threshold,
        # the five pairs of marginals and the unitary pair
        assert compatible >= 1 + 2 * 3 + 5 + 1

    def test_no_channel_is_validated_inside_the_decision(self, monkeypatch):
        pairs = joint_contract_pairs()
        calls, post_init = [], Channel.__post_init__

        def spy(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(Channel, "__post_init__", spy)
        verdicts = [mg.channels_compatible(c1, c2).verdict for c1, c2 in pairs]
        assert mg.COMPATIBLE in verdicts and calls == []

    def test_witness_outside_the_channel_bound_is_not_an_input_error(self, monkeypatch):
        # a finished witness with lambda_min = -9e-9 on a qubit pair meets the
        # generic witness contract (-1e-8) but not Channel's CP bound (-8e-9 at
        # n = 8): the decision must refuse it by the band rule, not raise the
        # ValueError of a bad input
        finish = mg._joint_finish
        seen = []

        def nudged(spec, x):
            x = finish(spec, x)
            d = spec.dims[0] * spec.dims[1]
            for _ in range(20):
                w, v = np.linalg.eigh(x)
                c = w[0] + 9e-9
                if abs(c) <= 1e-13:
                    break
                # remove c along the lowest eigenvector; put its input marginal
                # back uniformly, so that the trace preservation stays exact
                low = np.outer(v[:, 0], v[:, 0].conj())
                x = x - c * low + c * np.kron(np.eye(d), partial_trace(low, spec.dims, {1, 2})) / d
                x = (x + x.conj().T) / 2
            seen.append(x)
            return x

        monkeypatch.setattr(mg, "_joint_finish", nudged)
        dep = depolarizing_channel(2, 1 / 3 + 1e-9)
        try:
            rep = mg.channels_compatible(dep, dep)
        except sdp.SdpError:
            rep = None
        [x] = seen
        lam = np.linalg.eigvalsh(x)[0]
        assert -1e-8 < lam < -8e-9
        assert np.max(np.abs(partial_trace(x, (2, 2, 2), {1, 2}) - np.eye(2))) <= 1e-12
        assert rep is None or rep.verdict == MARGINAL
