import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import choimarg
from choimarg import cli, sdp
from choimarg.linalg import hermitian_basis
from choimarg import marginals as mg
from choimarg.channels import depolarizing_channel, identity_channel
from choimarg.marginals import MarginalSpec
from choimarg.sampling import random_channel
from conftest import SX, SY, SZ, random_hermitian
from kron_oracles import embed


def whole_block(pins):
    """One row group pinning <H, X> = value on the whole block."""
    coeffs = np.array([np.asarray(h, dtype=complex).ravel() for h, _ in pins])
    return sdp.RowGroup((0,), coeffs, np.array([float(v) for _, v in pins]))


def feasibility(d, pins):
    """Feasibility of one d x d Hermitian PSD variable under the given pins."""
    return sdp._group_feasibility((d,), (whole_block(pins),))


def slack_program(d, group):
    """The IPM's solution of the slack program of one group on a whole d x d block."""
    return sdp._ipm(sdp._Rows((d,), (group,)), gap_tol=sdp.GAP_TOL, max_iterations=200)


class TestSolve:
    def test_scalar_equality(self):
        # max t s.t. x = 5, x - t >= 0 is 5, at the dual y = 1
        sol = slack_program(1, whole_block([(np.array([[1.0]]), 5.0)]))
        assert sol.status == "optimal"
        assert abs(sol.free_value - 5.0) < 1e-6
        assert abs(sol.dual_objective - 5.0) < 1e-6

    def test_solution_invariants(self):
        # dual feasibility and gap of a small random-ish instance: the dual of
        # max t s.t. A(Y) + a*t = b, Y >= 0 is min b.y s.t. A*(y) >= 0, a.y = 1
        a1 = np.diag([1.0, 1.0])
        a2 = np.array([[1.0, 0.5], [0.5, -1.0]])
        group = whole_block([(a1, 1.0), (a2, 0.1)])
        rows = sdp._Rows((2,), (group,))
        sol = slack_program(2, group)
        assert sol.status == "optimal"
        assert abs(sol.free_value - sol.dual_objective) <= 1e-6 * (1 + abs(sol.free_value))
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
        # an inconsistent system has dependent rows: the Gram pivot test ends
        # the solve with status dependent_rows before the first iteration
        with pytest.raises(sdp.SdpError) as raised:
            feasibility(2, [(np.eye(2), 1.0), (np.eye(2), 2.0)])
        status, residual = re.search(
            r"status (\w+) after \d+ iterations \(primal residual ([-+.e\d]+|inf|nan)",
            str(raised.value),
        ).groups()
        assert status != "optimal"
        assert float(residual) > 1e-9

    def test_dependent_rows_end_before_the_first_iteration(self):
        # a row in the span of earlier rows is found when the Gram matrix is
        # factored, once per solve, and no iteration runs
        half = np.diag([1.0, 0.0])
        cases = [
            [(np.eye(2), 1.0), (np.eye(2), 2.0)],  # inconsistent
            [(np.eye(2), 1.0), (np.eye(2), 1.0)],  # a repeated row
            [(np.eye(2), 1.0), (SZ, 0.2), (np.eye(2) + SZ, 1.2)],  # a combination
            [(np.eye(2), 1.0), (np.zeros((2, 2)), 0.0)],  # a zero row
            [(np.eye(2), 1.0), (half, 0.5), (np.eye(2) - half, 0.5)],
        ]
        for pins in cases:
            sol = slack_program(2, whole_block(pins))
            assert (sol.status, sol.iterations) == (sdp.DEPENDENT_ROWS, 0)
            with pytest.raises(
                sdp.SdpError, match="linearly dependent: status dependent_rows after 0 iterations"
            ):
                feasibility(2, pins)
        # independent rows that are far from orthogonal still iterate
        sol = slack_program(2, whole_block([(np.eye(2), 1.0), (half, 0.5)]))
        assert sol.status == "optimal" and sol.iterations > 0

    def test_all_zero_rows_are_a_numerical_failure(self):
        sol = slack_program(2, whole_block([(np.zeros((2, 2)), 0.0)]))
        assert (sol.status, sol.iterations) == (sdp.NUMERICAL_FAILURE, 0)

    @staticmethod
    def assert_numerical_failure(monkeypatch, capsys, corrupt):
        """Corrupt the Schur matrix of iteration 2: SdpError naming
        numerical_failure from the API, exit 3 from the CLI."""
        schur = sdp._Rows.schur

        def corrupt_iteration_two():
            calls = []

            def patched(self, zinv, x):
                calls.append(None)
                out = schur(self, zinv, x)
                if len(calls) == 3:  # the Gram matrix, then iterations 1 and 2
                    corrupt(out)
                return out

            monkeypatch.setattr(sdp._Rows, "schur", patched)

        dep = depolarizing_channel(2)
        corrupt_iteration_two()
        with pytest.raises(sdp.SdpError, match="status numerical_failure after 2 iterations"):
            mg.channels_compatible(dep, dep)
        corrupt_iteration_two()
        assert cli.main(["compat", "--preset", "depolarizing-pair"]) == cli.EXIT_SOLVER_ERROR == 3
        assert "numerical_failure" in capsys.readouterr().err

    def test_non_finite_value_is_a_numerical_failure(self, monkeypatch, capsys):
        # a NaN inside the iteration is the solver's failure, not bad input
        self.assert_numerical_failure(
            monkeypatch, capsys, lambda schur: schur.__setitem__((0, 0), np.nan)
        )

    def test_indefinite_schur_complement_is_a_numerical_failure(self, monkeypatch, capsys):
        # finite, with a negative leading pivot: the Cholesky factorization fails
        self.assert_numerical_failure(
            monkeypatch, capsys, lambda schur: schur.__setitem__((0, 0), -schur[0, 0])
        )

    def test_step_halved_when_rounding_leaves_the_cone(self):
        x = np.diag([1.0, 1e-16]).astype(complex)
        past = np.diag([0.0, -1.0000001e-16]).astype(complex)
        moved, factor, alpha = sdp._advance(x, past, 1.0)
        assert alpha == 0.5
        np.testing.assert_allclose(factor @ factor.conj().T, moved, atol=1e-30)
        with pytest.raises(np.linalg.LinAlgError):
            sdp._advance(x, np.diag([0.0, -1.0]).astype(complex), 1e12)


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this checkout's choimarg."""
    src = str(Path(choimarg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLapackBoundAtFirstUse:
    """scipy.linalg is imported by the first LAPACK call, not by importing the package."""

    def test_paths_without_a_solve_never_load_scipy_linalg(self):
        out = run_fresh("""
            import sys
            import numpy as np
            import choimarg
            from choimarg import cli
            from choimarg.channels import max_entangled, unitary_channel
            assert cli.main(["preset", "list"]) == 0
            assert cli.main(["chsh-scan", "--steps", "3"]) == 0
            assert cli.main(["compat", "--preset", "no-such-preset"]) == 1
            try:
                cli.main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0
            ident = unitary_channel(np.eye(2))
            choimarg.chsh_value(ident, ident, ident, ident, max_entangled(2))
            print("loaded:", sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
        """)
        assert out.splitlines()[-1] == "loaded: []"

    def test_private_helpers_bind_lapack_as_first_callers(self):
        out = run_fresh("""
            import sys
            import numpy as np
            from choimarg import sdp
            from choimarg.channels import identity_channel
            from choimarg.marginals import channels_compatible

            def values():
                linv = np.diag([1.0, 0.5]).astype(complex)
                step = sdp._step_to_boundary(linv, np.diag([-1.0, 0.25]).astype(complex))
                x = np.diag([1.0, 1e-16]).astype(complex)
                moved, factor, alpha = sdp._advance(x, np.diag([0.0, -1.0000001e-16]).astype(complex), 1.0)
                return step, moved.tobytes(), factor.tobytes(), alpha

            assert "scipy.linalg" not in sys.modules
            first = values()
            assert "scipy.linalg" in sys.modules
            channels_compatible(identity_channel(2), identity_channel(2))
            assert values() == first
            assert sdp.lapack is sys.modules["scipy.linalg.lapack"]
            print("step", first[0], "alpha", first[3])
        """)
        assert out.split() == ["step", "1.0", "alpha", "0.5"]


class TestStepLength:
    """_step_to_boundary computes only the smallest eigenvalue; numpy's full
    eigvalsh of l^-1 ds l^-H is the oracle."""

    @staticmethod
    def inverse_factor(rng, n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.inv(np.linalg.cholesky(g @ g.conj().T + n * np.eye(n)))

    @pytest.mark.parametrize("n", [1, 4, 8, 27])
    def test_matches_the_smallest_eigenvalue(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(6):
            linv = self.inverse_factor(rng, n)
            ds = random_hermitian(rng, n)
            lam = np.linalg.eigvalsh(linv @ ds @ linv.conj().T)[0]
            if lam >= 0:  # step towards the boundary instead
                ds = -ds
                lam = np.linalg.eigvalsh(linv @ ds @ linv.conj().T)[0]
            assert lam < 0
            assert sdp._step_to_boundary(linv, ds) == pytest.approx(-1.0 / lam, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 4, 8, 27])
    def test_unbounded_along_a_psd_direction(self, n):
        rng = np.random.default_rng(400 + n)
        linv = self.inverse_factor(rng, n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert sdp._step_to_boundary(linv, g @ g.conj().T) == np.inf
        assert sdp._step_to_boundary(linv, np.zeros((n, n), dtype=complex)) == np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_direction_raises(self, bad):
        ds = np.eye(4, dtype=complex)
        ds[1, 2] = bad
        # inf * 0 in the congruence warns before the check sees the NaN it makes
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            sdp._step_to_boundary(np.eye(4, dtype=complex), ds)


class TestIterationBudget:
    """The predictor-corrector's iteration counts on seeded pair sets.

    With a fixed centering sigma = 0.1 the random pairs took a mean of 35.1
    iterations (max 68) and the depolarizing self-pairs 10.
    """

    def test_random_kraus_rank_two_and_three_qutrit_pairs(self):
        counts = []
        for s in range(30):
            rng = np.random.default_rng(9000 + s)
            c1, c2 = (random_channel(3, 3, rng, kraus_rank=2 + s % 2) for _ in range(2))
            counts.append(mg.channels_compatible(c1, c2).report.solution.iterations)
        assert np.mean(counts) <= 18
        assert max(counts) <= 30

    @pytest.mark.parametrize("d, threshold", [(2, 1.0 / 3.0), (3, 3.0 / 8.0)])
    def test_depolarizing_self_pairs(self, d, threshold):
        for p in (0.1, threshold - 1e-3, threshold + 1e-3, 0.9):
            dep = depolarizing_channel(d, p)
            assert mg.channels_compatible(dep, dep).report.solution.iterations <= 9, p


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
    assert sol.free_value <= sol.dual_objective + 1e-6 * (1 + abs(sol.free_value))


class TestHandBuiltComplexVerdicts:
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
        assert abs(sol.free_value - sol.dual_objective) <= 1e-6 * (1 + abs(sol.free_value))

    def test_rejects_witness_perturbed_past_residual(self):
        target = np.diag([0.6, 0.4]).astype(complex)
        rows = sdp._Rows((2,), (whole_block([(b, np.trace(b @ target).real) for b in hermitian_basis(2)]),))
        assert rows.holds(target)
        nudge = np.diag([1.0, 0.0]) * 1.5 * sdp.WITNESS_RESIDUAL
        assert not rows.holds(target + nudge)
        assert rows.holds(target + nudge / 3)
        # a witness that satisfies every row but is not PSD is rejected too
        trace_only = sdp._Rows((2,), (whole_block([(np.eye(2), 1.0)]),))
        assert not trace_only.holds(np.diag([1.5, -0.5]))
