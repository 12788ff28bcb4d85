import re

import numpy as np
import pytest

from choimarg import sdp
from choimarg.config import DEFAULT
from choimarg.linalg import embed, hermitian_basis
from choimarg import marginals as mg
from choimarg.channels import depolarizing_channel, identity_channel
from choimarg.marginals import MarginalSpec
from conftest import SX, SY, SZ, random_hermitian


def whole_block(pins):
    """One row group pinning <H, X> = value on the whole block."""
    coeffs = np.array([np.asarray(h, dtype=complex).ravel() for h, _ in pins])
    return sdp.RowGroup((0,), coeffs, np.array([float(v) for _, v in pins]))


def feasibility(d, pins):
    """Feasibility of one d x d Hermitian PSD variable under the given pins."""
    return sdp._group_feasibility((d,), (whole_block(pins),))


def slack_program(d, group):
    """The IPM's solution of the slack program of one group on a whole d x d block."""
    return sdp._ipm(sdp._Rows((d,), (group,)), gap_tol=DEFAULT.solver, max_iterations=200)


class TestSolve:
    def test_scalar_equality(self):
        # max t s.t. x = 5, x - t >= 0 is 5, at the dual y = 1
        sol = slack_program(1, whole_block([(np.array([[1.0]]), 5.0)]))
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 5.0) < 1e-6
        assert abs(sol.dual_objective - 5.0) < 1e-6
        assert abs(sol.free_value - 5.0) < 1e-6

    def test_solution_invariants(self):
        # dual feasibility and gap of a small random-ish instance: the dual of
        # max t s.t. A(Y) + a*t = b, Y >= 0 is min b.y s.t. A*(y) >= 0, a.y = 1
        a1 = np.diag([1.0, 1.0])
        a2 = np.array([[1.0, 0.5], [0.5, -1.0]])
        group = whole_block([(a1, 1.0), (a2, 0.1)])
        rows = sdp._Rows((2,), (group,))
        sol = slack_program(2, group)
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - sol.dual_objective) <= 1e-6 * (1 + abs(sol.primal_objective))
        assert sol.primal_residual <= 1e-7
        assert np.linalg.eigvalsh(sol.blocks[0])[0] >= -1e-8
        assert np.linalg.eigvalsh(rows.adjoint(sol.dual))[0] >= -1e-7
        assert abs(rows.free_coeffs() @ sol.dual - 1.0) <= 1e-7

    def test_determinism(self):
        group = whole_block([(np.eye(2), 1.0), (np.array([[1.0, 0.2], [0.2, -0.3]]), 0.1)])
        s1, s2 = slack_program(2, group), slack_program(2, group)
        assert (s1.status, s1.iterations, s1.free_value) == (s2.status, s2.iterations, s2.free_value)
        np.testing.assert_array_equal(s1.dual, s2.dual)
        np.testing.assert_array_equal(s1.blocks[0], s2.blocks[0])

    def test_determinism_qutrit_compatibility(self):
        c1, c2 = depolarizing_channel(3, 0.5), depolarizing_channel(3, 0.6)
        r1, r2 = mg.channels_compatible(c1, c2), mg.channels_compatible(c1, c2)
        assert r1.verdict == mg.COMPATIBLE
        assert r1.slack == r2.slack
        assert r1.report.solution.iterations == r2.report.solution.iterations
        np.testing.assert_array_equal(r1.report.dual_certificate, r2.report.dual_certificate)
        np.testing.assert_array_equal(r1.joint_choi.choi, r2.joint_choi.choi)

    def test_inconsistent_rows_raise(self):
        # rows are not pruned: the residual test alone keeps an inconsistent
        # system from being reported optimal
        with pytest.raises(sdp.SdpError) as raised:
            feasibility(2, [(np.eye(2), 1.0), (np.eye(2), 2.0)])
        status, residual = re.search(
            r"status (\w+) after \d+ iterations \(primal residual ([-+.e\d]+|inf|nan)",
            str(raised.value),
        ).groups()
        assert status != "optimal"
        assert float(residual) > 1e-9

    def test_step_halved_when_rounding_leaves_the_cone(self):
        x = np.diag([1.0, 1e-16]).astype(complex)
        past = np.diag([0.0, -1.0000001e-16]).astype(complex)
        moved, factor, alpha = sdp._advance(x, past, 1.0)
        assert alpha == 0.5
        np.testing.assert_allclose(factor @ factor.conj().T, moved, atol=1e-30)
        with pytest.raises(np.linalg.LinAlgError):
            sdp._advance(x, np.diag([0.0, -1.0]).astype(complex), 1e12)


class TestSchurKernel:
    # S_ij = Re vec(A_i)^H (X^T (x) Z^-1) vec(A_j), with column-stacking vec,
    # on the embed-lifted dense rows of each group
    LIFTED_CASES = [
        ((2, 3, 2), ((0, 2), (1, 2))),  # compatibility: targets (1,3) and (2,3)
        ((2, 2, 3), ((0, 1), (0, 2))),  # steering: targets (1,2) and (1,3)
        ((2, 2, 2, 2), ((0, 2), (0, 3), (1, 2), (1, 3))),  # Bell: the four pairwise targets
    ]

    @staticmethod
    def herm(g):
        return (g + g.conj().T) / 2

    def gauss(self, rng, d, imag):
        return rng.standard_normal((d, d)) + imag * 1j * rng.standard_normal((d, d))

    def hpd(self, rng, d, imag):
        g = self.gauss(rng, d, imag)
        return self.herm(g @ g.conj().T + d * np.eye(d))

    def check(self, rng, dims, groups, imag):
        """Compare the group kernel, A and A* with the Kronecker formula on lifted rows."""
        def vec(mat):
            return mat.reshape(-1, order="F")

        n = int(np.prod(dims))
        dense = [  # the lifted matrix of every row
            embed(c.reshape(k, k), dims, [i + 1 for i in g.kept])
            for g in groups
            for k in [int(np.prod([dims[i] for i in g.kept]))]
            for c in g.coeffs
        ]
        rows = sdp._Rows(dims, groups)
        x = self.hpd(rng, n, imag)
        zinv = self.herm(np.linalg.inv(self.hpd(rng, n, imag)))
        core = self.herm(self.gauss(rng, n, imag))
        y = rng.standard_normal(rows.m)

        expected = np.array(
            [[vec(ai).conj() @ np.kron(x.T, zinv) @ vec(aj) for aj in dense] for ai in dense]
        ).real
        expected_rhs = np.array([np.trace(ai @ core) for ai in dense]).real
        # entries that cancel to ~1e-4 of the largest carry its rounding, hence the atol
        scale = float(np.max(np.abs(expected)))
        np.testing.assert_allclose(rows.schur(zinv, x), expected, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(rows(core), expected_rhs, rtol=1e-12)
        np.testing.assert_allclose(
            rows.adjoint(y), np.tensordot(y, np.array(dense), 1), rtol=1e-12, atol=1e-14
        )

    def test_matches_kronecker_formula(self):
        rng = np.random.default_rng(7)
        for imag in (0.0, 1.0):
            # whole-block rows
            for d in (3, 4):
                coeffs = np.array([self.herm(self.gauss(rng, d, imag)).ravel() for _ in range(7)])
                self.check(rng, (d,), (sdp.RowGroup((0,), coeffs, np.zeros(7)),), imag)
            # lifted groups with different kept sets, and a whole-block group beside them
            for dims, kept_sets in self.LIFTED_CASES:
                groups = []
                for g, kept in enumerate(kept_sets):
                    k = int(np.prod([dims[i] for i in kept]))
                    c = np.array([self.herm(self.gauss(rng, k, imag)).ravel() for _ in range(3 + g)])
                    groups.append(sdp.RowGroup(kept, c, np.zeros(len(c))))
                self.check(rng, dims, groups, imag)
                n = int(np.prod(dims))
                c = np.array([self.herm(self.gauss(rng, n, imag)).ravel() for _ in range(2)])
                groups.append(sdp.RowGroup(tuple(range(len(dims))), c, np.zeros(2)))
                self.check(rng, dims, groups, imag)


class TestFeasibility:
    def test_failure_reports_iterations_residuals_and_gap(self):
        ident = identity_channel(2)
        spec = mg._compat_spec(ident, ident)
        groups = mg._target_rows(spec)
        number = r"[-+.e\d]+|inf"
        with pytest.raises(
            sdp.SdpError,
            match=(
                rf"status max_iterations after 2 iterations \(primal residual ({number}), "
                rf"dual residual ({number}), gap ({number})\)"
            ),
        ):
            sdp._group_feasibility(spec.dims, groups, max_iterations=2)

    def test_scalar_pin(self):
        rep = feasibility(1, [(np.array([[1.0]]), 5.0)])
        assert rep.status == sdp.FEASIBLE
        assert abs(rep.slack - 5.0) < 1e-6
        assert abs(rep.witness[0, 0] - 5.0) < 1e-6

    def test_two_by_two_min_eigenvalue(self):
        b = hermitian_basis(2)
        rows = [
            (np.eye(2), 1.0),
            (np.diag([1.0, -1.0]), 0.0),
            (b[2], 0.7 * np.sqrt(2.0)),
            (b[3], 0.0),
        ]
        rep = feasibility(2, rows)
        assert rep.status == sdp.INFEASIBLE
        assert abs(rep.slack - (-0.2)) < 1e-6

    def test_trace_only_gives_maximally_mixed(self):
        rep = feasibility(2, [(np.eye(2), 1.0)])
        assert rep.status == sdp.FEASIBLE
        assert abs(rep.slack - 0.5) < 1e-6
        assert np.max(np.abs(rep.witness - np.eye(2) / 2)) < 1e-5

    def test_impossible_diagonal(self):
        rep = feasibility(2, [(np.eye(2), 1.0), (np.diag([1.0, 0.0]), 2.0)])
        assert rep.status == sdp.INFEASIBLE
        assert rep.slack <= -0.9

    def test_slack_bounded_by_trace_over_dim(self, rng):
        for d in (2, 3, 4):
            rows = [(np.eye(d), 1.0)]
            for _ in range(2):
                h = random_hermitian(rng, d)
                h -= np.trace(h) * np.eye(d) / d
                rows.append((h, 0.05))
            rep = feasibility(d, rows)
            assert rep.slack <= 1.0 / d + 1e-7

    def test_missing_normalization_raises(self):
        # without a trace-fixing row the slack program is unbounded
        with pytest.raises(sdp.SdpError):
            feasibility(2, [(np.diag([1.0, -1.0]), 0.0)])

    def test_inconsistent_targets_infeasible(self):
        # overlapping targets that disagree on factor 1 are rejected up front
        with pytest.raises(ValueError, match=r"\(1, 2\) and \(1,\)"):
            MarginalSpec(
                dims=(2, 2),
                targets=(((1, 2), np.eye(4) / 4), ((1,), np.diag([0.7, 0.3]))),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rhs_rejected_at_the_boundary(self, bad):
        # the rows' rhs are the target's (or effect's) basis coefficients: a
        # non-finite entry, or a non-finite required trace, is rejected before
        # any row is built
        target = np.diag([0.5, 0.5]).astype(complex)
        target[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MarginalSpec(dims=(2, 2), targets=(((1,), target),))
        with pytest.raises(ValueError, match="non-finite"):
            MarginalSpec(dims=(2, 2), targets=(((1,), np.eye(2) / 2),), normalization=bad)
        with pytest.raises(ValueError, match="non-finite"):
            mg.effects_compatible(target, np.eye(2) / 2)

    def test_boundary_recovers_witness(self):
        # pin X to a rank-deficient PSD matrix: slack is exactly 0
        target = np.diag([1.0, 0.0])
        b = hermitian_basis(2)
        rep = feasibility(2, [(bb, float(np.trace(bb @ target).real)) for bb in b])
        assert rep.status == sdp.FEASIBLE
        assert abs(rep.slack) < 1e-7
        assert np.max(np.abs(rep.witness - target)) < 1e-6


def assert_weak_duality(sol):
    assert sol.primal_objective <= sol.dual_objective + 1e-6 * (1 + abs(sol.primal_objective))


class TestRealificationConsistency:
    """Hand-built Hermitian instances with known verdicts, solved on complex blocks."""

    FEASIBLE_CASES = [
        [(np.eye(2), 1.0)],
        [(np.eye(2), 1.0), (SX, 0.5)],
        [(np.eye(2), 1.0), (SY, 0.3), (SZ, 0.3)],
        [(np.eye(3), 1.0)],
        [(np.eye(4), 2.0), (np.kron(SZ, np.eye(2)), 0.0)],
    ]
    INFEASIBLE_CASES = [
        [(np.eye(2), 1.0), (np.diag([1.0, 0.0]), 2.0)],
        [(np.eye(2), 1.0), (SX, 2.0)],
        [(np.eye(2), 1.0), (SY, 1.5)],
        [(np.eye(3), 1.0), (np.diag([1.0, 0.0, 0.0]), -0.2)],
        [(np.eye(2), 0.0), (SZ, 2.0)],
    ]

    @pytest.mark.parametrize("rows", FEASIBLE_CASES)
    def test_feasible(self, rows):
        rep = feasibility(rows[0][0].shape[0], rows)
        assert rep.status == sdp.FEASIBLE
        assert_weak_duality(rep.solution)

    @pytest.mark.parametrize("rows", INFEASIBLE_CASES)
    def test_infeasible(self, rows):
        rep = feasibility(rows[0][0].shape[0], rows)
        assert rep.status == sdp.INFEASIBLE
        assert_weak_duality(rep.solution)


class TestWitnessAudit:
    def test_feasible_witness_revalidates(self, rng):
        # independent re-check outside the solver path
        rows = []
        target = random_hermitian(rng, 3)
        target = target @ target.T.conj()
        target /= np.trace(target).real
        for h in hermitian_basis(3)[:4]:
            rows.append((h, float(np.trace(h @ target).real)))
        rep = feasibility(3, rows)
        assert rep.status == sdp.FEASIBLE
        assert np.linalg.eigvalsh(rep.witness)[0] >= -1e-8
        for h, v in rows:
            assert abs(np.trace(h @ rep.witness).real - v) <= 1e-6
        sol = rep.solution
        assert abs(sol.primal_objective - sol.dual_objective) <= 1e-6 * (1 + abs(sol.primal_objective))

    def test_rejects_witness_perturbed_past_residual(self):
        target = np.diag([0.6, 0.4]).astype(complex)
        rows = sdp._Rows((2,), (whole_block([(b, np.trace(b @ target).real) for b in hermitian_basis(2)]),))
        assert rows.holds(target, DEFAULT)
        nudge = np.diag([1.0, 0.0]) * 1.5 * DEFAULT.witness_residual
        assert not rows.holds(target + nudge, DEFAULT)
        assert rows.holds(target + nudge / 3, DEFAULT)
        # a witness that satisfies every row but is not PSD is rejected too
        trace_only = sdp._Rows((2,), (whole_block([(np.eye(2), 1.0)]),))
        assert not trace_only.holds(np.diag([1.5, -0.5]), DEFAULT)
