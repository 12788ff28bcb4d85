import json
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
from choimarg.channels import channel_to_dict, depolarizing_channel, identity_channel
from choimarg.marginals import MarginalSpec
from choimarg.presets import bell_preset, compat_preset, steer_preset
from choimarg.sampling import random_channel
from conftest import (
    SX, SY, SZ, RowGroup, operator_of, random_hermitian, rows_of, spy_dtypes, target_rows,
)
from kron_oracles import embed


def whole_block(pins):
    """One row group pinning <H, X> = value on the whole block."""
    coeffs = np.array([np.asarray(h, dtype=complex).ravel() for h, _ in pins])
    return RowGroup((0,), coeffs, np.array([float(v) for _, v in pins]))


def feasibility(d, pins):
    """Feasibility of one d x d Hermitian PSD variable under the given pins."""
    return sdp._group_feasibility(
        rows_of((d,), (whole_block(pins),)), words=(sdp.FEASIBLE, sdp.INFEASIBLE)
    )


def slack_program(d, group):
    """The IPM's report of the slack program of one group on a whole d x d block: its
    verdict is the solver status, its slack t and its witness the last Y."""
    return sdp._ipm(rows_of((d,), (group,)), gap_tol=sdp.GAP_TOL, max_iterations=200)


class TestSolve:
    def test_scalar_equality(self):
        # max t s.t. x = 5, x - t >= 0 is 5, at the dual y = 1
        sol = slack_program(1, whole_block([(np.array([[1.0]]), 5.0)]))
        assert sol.verdict == sdp.OPTIMAL
        assert abs(sol.slack - 5.0) < 1e-6
        assert abs(sol.dual_objective - 5.0) < 1e-6

    def test_solution_invariants(self):
        # dual feasibility and gap of a small random-ish instance: the dual of
        # max t s.t. A(Y) + a*t = b, Y >= 0 is min b.y s.t. A*(y) >= 0, a.y = 1
        a1 = np.diag([1.0, 1.0])
        a2 = np.array([[1.0, 0.5], [0.5, -1.0]])
        group = whole_block([(a1, 1.0), (a2, 0.1)])
        op = operator_of((2,), (group,))
        sol = slack_program(2, group)
        assert sol.verdict == sdp.OPTIMAL
        assert abs(sol.slack - sol.dual_objective) <= 1e-6 * (1 + abs(sol.slack))
        assert sol.primal_residual <= 1e-7
        assert np.linalg.eigvalsh(sol.witness)[0] >= -1e-8
        assert np.linalg.eigvalsh(op.adjoint(sol.dual_certificate))[0] >= -1e-7
        assert abs(op.free @ sol.dual_certificate - 1.0) <= 1e-7

    def test_determinism(self):
        group = whole_block([(np.eye(2), 1.0), (np.array([[1.0, 0.2], [0.2, -0.3]]), 0.1)])
        s1, s2 = slack_program(2, group), slack_program(2, group)
        assert (s1.verdict, s1.iterations, s1.slack) == (s2.verdict, s2.iterations, s2.slack)
        np.testing.assert_array_equal(s1.dual_certificate, s2.dual_certificate)
        np.testing.assert_array_equal(s1.witness, s2.witness)

    def test_determinism_qutrit_compatibility(self):
        c1, c2 = depolarizing_channel(3, 0.5), depolarizing_channel(3, 0.6)
        r1, r2 = mg.channels_compatible(c1, c2), mg.channels_compatible(c1, c2)
        assert r1.verdict == mg.COMPATIBLE
        assert r1.slack == r2.slack
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.dual_certificate, r2.dual_certificate)
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
            assert (sol.verdict, sol.iterations) == (sdp.DEPENDENT_ROWS, 0)
            with pytest.raises(
                sdp.SdpError, match="linearly dependent: status dependent_rows after 0 iterations"
            ):
                feasibility(2, pins)
        # independent rows that are far from orthogonal still iterate
        sol = slack_program(2, whole_block([(np.eye(2), 1.0), (half, 0.5)]))
        assert sol.verdict == sdp.OPTIMAL and sol.iterations > 0

    def test_all_zero_rows_are_a_numerical_failure(self):
        sol = slack_program(2, whole_block([(np.zeros((2, 2)), 0.0)]))
        assert (sol.verdict, sol.iterations) == (sdp.NUMERICAL_FAILURE, 0)

    def test_dependent_imaginary_rows_end_before_the_first_iteration(self, monkeypatch):
        # imaginary rows, even with right-hand side 0, are solved on a complex
        # block, and the Gram pivots find a dependence among them
        dtypes = spy_dtypes(monkeypatch)
        for pins in ([(np.eye(2), 1.0), (SY, 0.0), (SY, 0.0)],
                     [(np.eye(2), 1.0), (SY, 0.0), (2 * SY, 0.0)]):
            sol = slack_program(2, whole_block(pins))
            assert (sol.verdict, sol.iterations) == (sdp.DEPENDENT_ROWS, 0)
            with pytest.raises(
                sdp.SdpError, match="linearly dependent: status dependent_rows after 0 iterations"
            ):
                feasibility(2, pins)
        assert dtypes == [complex] * 4

    @staticmethod
    def assert_numerical_failure(monkeypatch, capsys, tmp_path, corrupt):
        """Corrupt the Schur matrix of iteration 2: SdpError naming
        numerical_failure from the API, exit 3 from the CLI, whether the
        shape's operator (and its Gram matrix) is built by the call or cached,
        on a qubit pair (a dense operator) and a qutrit pair (row groups)."""
        qutrit = depolarizing_channel(3)
        paths = [str(tmp_path / "qutrit.json")]
        Path(paths[0]).write_text(json.dumps(channel_to_dict(qutrit)))
        cases = [
            (depolarizing_channel(2), sdp._DenseOperator, ["--preset", "depolarizing-pair"]),
            (qutrit, sdp._Operator, paths * 2),
        ]
        for dep, kind, argv in cases:
            schur, ipm = kind.schur, sdp._ipm

            def corrupt_iteration_two():
                calls, solving = [], []

                def patched(self, zinv, x):
                    out = schur(self, zinv, x)
                    if solving:
                        calls.append(None)
                        if len(calls) == 2:
                            corrupt(out)
                    return out

                def solve(rows, **kwargs):
                    assert type(rows.op) is kind
                    # count from the solve on: the Gram matrix is built with the
                    # operator, and not at all when the shape's operator is cached
                    solving.append(None)
                    return ipm(rows, **kwargs)

                monkeypatch.setattr(kind, "schur", patched)
                monkeypatch.setattr(sdp, "_ipm", solve)

            mg._shape.cache_clear()
            for _ in range(2):  # the shape's operator built by the call, then cached
                corrupt_iteration_two()
                with pytest.raises(
                    sdp.SdpError,
                    match="did not converge: status numerical_failure after 2 iterations",
                ):
                    mg.channels_compatible(dep, dep)
            corrupt_iteration_two()
            assert cli.main(["compat", *argv]) == cli.EXIT_SOLVER_ERROR == 3
            assert "numerical_failure" in capsys.readouterr().err
            monkeypatch.undo()

    def test_non_finite_value_is_a_numerical_failure(self, monkeypatch, capsys, tmp_path):
        # a NaN inside the iteration is the solver's failure, not bad input
        self.assert_numerical_failure(
            monkeypatch, capsys, tmp_path, lambda schur: schur.__setitem__((0, 0), np.nan)
        )

    def test_indefinite_schur_complement_is_a_numerical_failure(
        self, monkeypatch, capsys, tmp_path
    ):
        # finite, with a negative leading pivot: the Cholesky factorization fails
        self.assert_numerical_failure(
            monkeypatch, capsys, tmp_path, lambda schur: schur.__setitem__((0, 0), -schur[0, 0])
        )

    def test_step_halved_when_rounding_leaves_the_cone(self):
        x = np.diag([1.0, 1e-16]).astype(complex)
        past = np.diag([0.0, -1.0000001e-16]).astype(complex)
        moved, factor, alpha = sdp._advance(x, past, 1.0)
        assert alpha == 0.5
        np.testing.assert_allclose(factor @ factor.conj().T, moved, atol=1e-30)
        with pytest.raises(np.linalg.LinAlgError):
            sdp._advance(x, np.diag([0.0, -1.0]).astype(complex), 1e12)


def run_fresh(code: str, **env: str) -> str:
    """stdout of code run in a fresh interpreter that imports this checkout's
    choimarg, with the extra environment variables env."""
    src = str(Path(choimarg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path, **env},
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
    iterations (max 68) and the depolarizing self-pairs 10. Started at
    max(max|b|/n, 1e-2) * 1 with the step fraction capped at 0.99, the random
    pairs took a mean of 13.5 (max 15) and every self-pair near its threshold 8.
    Started at Z = 1, X = (a.b / a.a) * 1 with the cap at 0.999, they took a
    mean of 12.4 at one BLAS thread and 12.5 at two (max 14), the self-pairs
    5-7 and a bisection step 6. From the strictly feasible, centred start
    the random pairs took a mean of 10.9 at one and at two BLAS threads (max
    13), and every self-pair and bisection step 4. With the centering
    exponent adapted to the affine step (Mehrotra's cube after a full one)
    and the dual iterate kept on A*(y), the random pairs take a mean of 9.13
    at one BLAS thread and 9.17 at two (max 11); the self-pairs and
    bisection steps, whose affine steps are full, keep 4.
    """

    def test_random_kraus_rank_two_and_three_qutrit_pairs(self):
        counts = []
        for s in range(30):
            rng = np.random.default_rng(9000 + s)
            c1, c2 = (random_channel(3, 3, rng, kraus_rank=2 + s % 2) for _ in range(2))
            counts.append(mg.channels_compatible(c1, c2).iterations)
        assert np.mean(counts) <= 9.5
        assert max(counts) <= 11

    @pytest.mark.parametrize("d, threshold", [(2, 1.0 / 3.0), (3, 3.0 / 8.0)])
    def test_depolarizing_self_pairs(self, d, threshold):
        for p in (0.1, threshold - 1e-3, threshold + 1e-3, 0.9):
            dep = depolarizing_channel(d, p)
            assert mg.channels_compatible(dep, dep).iterations <= 4, p

    @pytest.mark.parametrize("offset", [-1e-6, 1e-6])
    def test_qubit_bisection_step(self, offset):
        # a step of the qubit cloning-threshold bisection, a hair off p* = 1/3
        dep = depolarizing_channel(2, 1.0 / 3.0 + offset)
        assert mg.channels_compatible(dep, dep).iterations <= 4


class TestFeasibleStart:
    """Every solve starts strictly feasible and centred: the dual start y0
    (a.y0 = 1, Z0 = A*(y0) = 1/n on a marginal shape) and the least-norm
    primal solution, shifted along (-1, +1) until its spectrum lies in
    [delta, 2 delta]. The decisions cover every preset, a real and a complex
    qutrit pair (row groups) and a complex qubit pair, so both operator kinds
    at both dtypes; each start is checked on the rows its own solve takes."""

    DECISIONS = {
        "compat-identity-pair": (lambda: mg.channels_compatible(*compat_preset("identity-pair")),
                                 sdp._DenseOperator, float),
        "compat-depolarizing-pair": (
            lambda: mg.channels_compatible(*compat_preset("depolarizing-pair")),
            sdp._DenseOperator, float),
        "steer-max-entangled": (lambda: mg.state_steerable(*steer_preset("max-entangled")),
                                sdp._DenseOperator, float),
        "steer-w-state": (lambda: mg.state_steerable(*steer_preset("w-state")),
                          sdp._DenseOperator, float),
        "bell-max-entangled": (lambda: mg.bell_local(*bell_preset("max-entangled")),
                               sdp._DenseOperator, float),
        "bell-w-state": (lambda: mg.bell_local(*bell_preset("w-state")),
                         sdp._DenseOperator, float),
        "bell-theta-family": (lambda: mg.bell_local(*bell_preset("theta-family:2.5")),
                              sdp._DenseOperator, float),
        "qubit-complex": (lambda: mg.channels_compatible(
            *(random_channel(2, 2, np.random.default_rng(5), kraus_rank=2) for _ in range(2))),
            sdp._DenseOperator, complex),
        "qutrit-real": (lambda: mg.channels_compatible(
            depolarizing_channel(3, 0.36), depolarizing_channel(3, 0.4)), sdp._Operator, float),
        "qutrit-complex": (lambda: mg.channels_compatible(
            *(random_channel(3, 3, np.random.default_rng(5), kraus_rank=2) for _ in range(2))),
            sdp._Operator, complex),
    }

    @staticmethod
    def least_norm(op, b):
        """The least-norm (Y, t) with A(Y) + a*t = b, from lstsq on the lifted rows."""
        lifts = np.array([op.adjoint(e) for e in np.eye(op.m)]).reshape(op.m, -1)
        real = lifts.real if op.dtype is float else np.hstack([lifts.real, lifts.imag])
        sol = np.linalg.lstsq(np.hstack([real, op.free[:, None]]), b, rcond=None)[0]
        n2 = op.n * op.n
        y = sol[:n2] if op.dtype is float else sol[:n2] + 1j * sol[n2:2 * n2]
        return y.reshape(op.n, op.n), sol[-1]

    def rows_of(self, monkeypatch, name):
        """The rows the decision's one solve takes, checked for its operator kind."""
        decide, kind, dtype = self.DECISIONS[name]
        solves, ipm = [], sdp._ipm

        def spy(rows, **kwargs):
            solves.append(rows)
            return ipm(rows, **kwargs)

        monkeypatch.setattr(sdp, "_ipm", spy)
        decide()
        monkeypatch.undo()
        (rows,) = solves
        assert (type(rows.op), rows.op.dtype, rows.op.status) == (kind, dtype, None)
        return rows

    @pytest.mark.parametrize("name", list(DECISIONS))
    def test_start_is_strictly_feasible_and_centred(self, monkeypatch, name):
        rows = self.rows_of(monkeypatch, name)
        op, b = rows.op, rows.rhs
        n = op.n
        x, lx, t = sdp._primal_start(op, b)

        # iteration 0 meets every equation
        assert np.linalg.norm(b - op(x) - op.free * t) / (1 + np.linalg.norm(b)) <= 1e-12
        assert np.max(np.abs(op.z0 - op.adjoint(op.y0))) <= 1e-12
        assert abs(1 - op.free @ op.y0) <= 1e-12
        # the dual start is the centre of the dual cone's slice a.y = 1
        np.testing.assert_allclose(op.z0, np.eye(n) / n, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.lz0 @ op.lz0.conj().T, op.z0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(lx @ lx.conj().T, x, rtol=0, atol=1e-12 * np.abs(x).max())

        # the primal start is the least-norm solution shifted along (-1, +1)
        y, t_least = self.least_norm(op, b)
        lam = np.linalg.eigvalsh(y)
        delta = max(lam[-1] - lam[0], op.free @ b / (op.free @ op.free), 1e-2)
        shift = delta - lam[0]
        tol = 1e-10 * delta
        np.testing.assert_allclose(x, y + shift * np.eye(n), rtol=0, atol=tol)
        assert abs(t - (t_least - shift)) <= tol
        spectrum = np.linalg.eigvalsh(x)
        assert delta - tol <= spectrum[0] and spectrum[-1] <= 2 * delta + tol

    @pytest.mark.parametrize("name", list(DECISIONS))
    def test_zero_iteration_report_carries_the_start_residuals(self, monkeypatch, name):
        rows = self.rows_of(monkeypatch, name)
        op, b = rows.op, rows.rhs
        sol = sdp._ipm(rows, gap_tol=1e-8, max_iterations=0)
        assert (sol.verdict, sol.iterations) == (sdp.MAX_ITERATIONS, 0)
        assert sol.primal_residual <= 1e-12 and sol.dual_residual <= 1e-12
        # the gap and dual objective of the start itself: b.y0 against t0
        _, _, t = sdp._primal_start(op, b)
        assert sol.slack == t and sol.dual_objective == b @ op.y0
        assert sol.gap == abs(b @ op.y0 - t) / (1 + abs(t))


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

    def lifted_groups(self, rng, dims, kept_sets, imag):
        """One group of 3 + g random Hermitian rows on each kept set g."""
        groups = []
        for g, kept in enumerate(kept_sets):
            k = int(np.prod([dims[i] for i in kept]))
            c = np.array([self.herm(self.gauss(rng, k, imag)).ravel() for _ in range(3 + g)])
            groups.append(RowGroup(kept, c, np.zeros(len(c))))
        return groups

    def check(self, rng, dims, groups, imag, kind=sdp._Operator):
        """Compare the Schur kernel, A and A* of an operator class with the
        Kronecker formula on lifted rows."""
        def vec(mat):
            return mat.reshape(-1, order="F")

        n = int(np.prod(dims))
        dense = [  # the lifted matrix of every row
            embed(c.reshape(k, k), dims, [i + 1 for i in g.kept])
            for g in groups
            for k in [int(np.prod([dims[i] for i in g.kept]))]
            for c in g.coeffs
        ]
        op = kind(dims, [(g.kept, g.coeffs) for g in groups])
        x = self.hpd(rng, n, imag)
        zinv = self.herm(np.linalg.inv(self.hpd(rng, n, imag)))
        core = self.herm(self.gauss(rng, n, imag))
        y = rng.standard_normal(op.m)

        expected = np.array(
            [[vec(ai).conj() @ np.kron(x.T, zinv) @ vec(aj) for aj in dense] for ai in dense]
        ).real
        expected_rhs = np.array([np.trace(ai @ core) for ai in dense]).real
        # entries that cancel to ~1e-4 of the largest carry its rounding, hence the atol
        scale = float(np.max(np.abs(expected)))
        np.testing.assert_allclose(op.schur(zinv, x), expected, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(op(core), expected_rhs, rtol=1e-12)
        np.testing.assert_allclose(
            op.adjoint(y), np.tensordot(y, np.array(dense), 1), rtol=1e-12, atol=1e-14
        )

    def test_matches_kronecker_formula(self):
        rng = np.random.default_rng(7)
        for imag in (0.0, 1.0):
            # whole-block rows
            for d in (3, 4):
                coeffs = np.array([self.herm(self.gauss(rng, d, imag)).ravel() for _ in range(7)])
                self.check(rng, (d,), (RowGroup((0,), coeffs, np.zeros(7)),), imag)
            # lifted groups with different kept sets, and a whole-block group beside
            # them, through row groups and through the dense rows
            for dims, kept_sets in self.LIFTED_CASES:
                groups = self.lifted_groups(rng, dims, kept_sets, imag)
                for kind in (sdp._Operator, sdp._DenseOperator):
                    self.check(rng, dims, groups, imag, kind)
                n = int(np.prod(dims))
                c = np.array([self.herm(self.gauss(rng, n, imag)).ravel() for _ in range(2)])
                groups.append(RowGroup(tuple(range(len(dims))), c, np.zeros(2)))
                for kind in (sdp._Operator, sdp._DenseOperator):
                    self.check(rng, dims, groups, imag, kind)

    @pytest.mark.parametrize("dims, kept_sets", LIFTED_CASES, ids=["compat", "steer", "bell"])
    def test_bitwise_symmetric(self, dims, kept_sets):
        # the group kernel symmetrizes only the diagonal pair blocks and stores
        # the others as exact transposes, the dense one symmetrizes the whole
        # matrix: symmetrizing again changes no bit
        rng = np.random.default_rng(8)
        n = int(np.prod(dims))
        groups = [(g.kept, g.coeffs) for g in self.lifted_groups(rng, dims, kept_sets, 1.0)]
        zinv = self.herm(np.linalg.inv(self.hpd(rng, n, 1.0)))
        x = self.hpd(rng, n, 1.0)
        for kind in (sdp._Operator, sdp._DenseOperator):
            schur = kind(dims, groups).schur(zinv, x)
            assert np.array_equal(schur, (schur + schur.T) / 2)

    @pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
    @pytest.mark.parametrize("dims, kept_sets", LIFTED_CASES, ids=["compat", "steer", "bell"])
    def test_dense_gram_factor_matches_grouped(self, dims, kept_sets, imag):
        rng = np.random.default_rng(9)
        groups = [(g.kept, g.coeffs) for g in self.lifted_groups(rng, dims, kept_sets, imag)]
        # random rows need not fix the trace (then neither operator has a dual
        # start); with the identity on the first kept set they do
        (kept, c), *rest = groups
        k = int(np.sqrt(c.shape[1]))
        for rows in (groups, [(kept, np.vstack([np.eye(k).ravel(), c])), *rest]):
            grouped, dense = sdp._Operator(dims, rows), sdp._DenseOperator(dims, rows)
            assert dense.dtype is grouped.dtype is (float if imag == 0 else complex)
            assert dense.status == grouped.status
            np.testing.assert_allclose(dense.gram, grouped.gram, rtol=1e-12, atol=1e-12 * np.max(
                np.abs(grouped.gram)))
            np.testing.assert_array_equal(dense.free, grouped.free)
        assert dense.status is grouped.status is None
        n = int(np.prod(dims))
        for op in (grouped, dense):
            np.testing.assert_allclose(op.z0, np.eye(n) / n, atol=1e-13)
        np.testing.assert_allclose(dense.y0, grouped.y0, rtol=1e-12, atol=1e-14)

    @pytest.mark.skipif(
        "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        reason="the row blocks follow OpenBLAS's threading threshold",
    )
    def test_dense_schur_rounds_the_same_at_one_and_two_blas_threads(self):
        # the complex qubit Bell shape: 49 rows of 16 x 16 lifts, whose last Schur
        # product is taken in 5 row blocks, each below OpenBLAS's threading size
        code = """
            import hashlib
            import numpy as np
            from choimarg import marginals as mg
            op = mg._shape((2, 2, 2, 2), ((1, 3), (1, 4), (2, 3), (2, 4))).every_row
            g = np.random.default_rng(0).standard_normal((16, 32)).view(complex)
            x = g @ g.conj().T + np.eye(16)
            schur = op.schur(np.linalg.inv(x + np.eye(16)), x)
            print(type(op).__name__, hashlib.sha256(schur.tobytes()).hexdigest())
        """
        one, two = (run_fresh(code, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
        assert one.startswith("_DenseOperator ") and one == two

    @pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
    def test_dense_arrays_reject_writes(self, imag):
        dims, kept_sets = self.LIFTED_CASES[2]
        rng = np.random.default_rng(10)
        groups = [(g.kept, g.coeffs) for g in self.lifted_groups(rng, dims, kept_sets, imag)]
        op = sdp._DenseOperator(dims, groups)
        assert op.lifted.shape == (op.m, op.n, op.n)
        assert op.flat.shape == (op.m, op.n * op.n * (1 if imag == 0 else 2))
        for a in (op.lifted, op.flat, op.free, op.gram):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


class TestFeasibility:
    def test_failure_reports_iterations_residuals_and_gap(self):
        ident = identity_channel(2)
        spec = mg._compat_spec(ident, ident)
        rows = rows_of(spec.dims, target_rows(spec))
        number = r"[-+.e\d]+|inf"
        with pytest.raises(
            sdp.SdpError,
            match=(
                rf"status max_iterations after 2 iterations \(primal residual ({number}), "
                rf"dual residual ({number}), gap ({number})\)"
            ),
        ):
            sdp._group_feasibility(rows, words=("yes", "no"), max_iterations=2)

    def test_scalar_pin(self):
        rep = feasibility(1, [(np.array([[1.0]]), 5.0)])
        assert rep.verdict == sdp.FEASIBLE
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
        assert rep.verdict == sdp.INFEASIBLE
        assert abs(rep.slack - (-0.2)) < 1e-6

    def test_trace_only_gives_maximally_mixed(self):
        rep = feasibility(2, [(np.eye(2), 1.0)])
        assert rep.verdict == sdp.FEASIBLE
        assert abs(rep.slack - 0.5) < 1e-6
        assert np.max(np.abs(rep.witness - np.eye(2) / 2)) < 1e-5

    def test_impossible_diagonal(self):
        rep = feasibility(2, [(np.eye(2), 1.0), (np.diag([1.0, 0.0]), 2.0)])
        assert rep.verdict == sdp.INFEASIBLE
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
        # rows that do not fix the trace have no strictly feasible dual start
        # (a.u <= 0 for u = G^-1 a, or a singular A*(y0)): the solve cannot
        # start, and is a numerical failure after 0 iterations
        cases = [
            [(SZ, 0.0)],  # unbounded, a = 0
            [(SZ, 0.0), (SX, 0.3)],  # unbounded, a = 0
            [(np.diag([1.0, 0.0]), 0.5)],  # bounded, but A*(y0) = diag(1, 0) is singular
        ]
        for pins in cases:
            op = operator_of((2,), (whole_block(pins),))
            assert (op.status, op.y0, op.z0, op.lz0) == (sdp.NUMERICAL_FAILURE, None, None, None)
            sol = slack_program(2, whole_block(pins))
            assert (sol.verdict, sol.iterations) == (sdp.NUMERICAL_FAILURE, 0)
            with pytest.raises(
                sdp.SdpError, match="status numerical_failure after 0 iterations"
            ) as raised:
                feasibility(2, pins)
            # the reason names the broken precondition: nothing was iterated
            assert str(raised.value).startswith(
                "the constraint rows do not fix the trace: status numerical_failure "
                "after 0 iterations ("
            )

    @pytest.mark.parametrize("pins", [
        [(SZ, 0.0), (SX, 0.3)],  # no dual start: numerical_failure
        [(np.diag([1.0, 0.0]), 0.5)],  # no dual start: numerical_failure
        [(np.eye(2), 1.0), (np.eye(2), 2.0)],  # dependent_rows
        [(np.zeros((2, 2)), 0.0)],  # no Gram factor: numerical_failure
    ])
    def test_a_solve_that_cannot_start_reports_its_zero_iterate(self, pins):
        # X = 0, y = 0, t = 0: r_p = b, r_f = 1 - a.y = 1, b.y = t = 0
        sol = slack_program(2, whole_block(pins))
        b = np.array([v for _, v in pins])
        assert sol.iterations == 0 and sol.verdict != sdp.OPTIMAL
        assert sol.primal_residual == pytest.approx(
            np.linalg.norm(b) / (1 + np.linalg.norm(b)), rel=1e-15
        )
        assert (sol.dual_residual, sol.gap, sol.dual_objective, sol.slack) == (1.0, 0.0, 0.0, 0.0)

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
        assert rep.verdict == sdp.FEASIBLE
        assert abs(rep.slack) < 1e-7
        assert np.max(np.abs(rep.witness - target)) < 1e-6


class TestPathSelection:
    """A program is solved on a real block exactly when every coefficient has a
    zero imaginary part, whatever the dtype of the array that holds it."""

    def test_real_data_takes_the_real_path(self, monkeypatch):
        dtypes = spy_dtypes(monkeypatch)
        pins = [(np.eye(2), 1.0), (SX, 0.5), (SZ, 0.1)]  # complex-typed, real-valued
        op = operator_of((2,), (whole_block(pins),))
        assert op.dtype is float and op.m == 3
        assert [c.dtype for c in op.coeffs] == [np.float64]
        rep = feasibility(2, pins)
        assert rep.verdict == sdp.FEASIBLE
        assert dtypes == [float]
        assert rep.dual_certificate.shape == (3,)
        assert rep.witness.dtype == complex and not rep.witness.imag.any()

    @pytest.mark.parametrize("pins, verdict", [
        ([(np.eye(2), 1.0), (SX + SY, 0.2)], sdp.FEASIBLE),  # a mixed row
        ([(np.eye(2), 1.0), (SX + SY, 1.6)], sdp.INFEASIBLE),  # past its eigenvalue sqrt 2
        ([(np.eye(2), 1.0), (SY, 0.3), (SZ, 0.3)], sdp.FEASIBLE),  # imaginary, rhs not 0
        ([(np.eye(2), 1.0), (SY, 1.5)], sdp.INFEASIBLE),
        ([(np.eye(2), 1.0), (SY, 0.0), (SX, 0.3)], sdp.FEASIBLE),  # imaginary, rhs 0
    ], ids=["mixed", "mixed-infeasible", "imaginary-rhs", "imaginary-rhs-infeasible",
            "imaginary-rhs-zero"])
    def test_complex_rows_take_the_complex_path(self, monkeypatch, pins, verdict):
        dtypes = spy_dtypes(monkeypatch)
        assert feasibility(2, pins).verdict == verdict
        assert dtypes == [complex]

    def test_imaginary_noise_in_a_target_takes_the_complex_path(self, monkeypatch):
        # 1e-17 of imaginary noise makes the imaginary rows' right-hand sides
        # nonzero: the program is no longer conjugation invariant, so
        # marginals passes every row and the solve runs on a complex block
        dtypes = spy_dtypes(monkeypatch)
        rho = np.diag([0.7, 0.3]).astype(complex)
        reports = []
        for noise in (0.0, 1e-17):
            first = rho + noise * SY
            spec = MarginalSpec(dims=(2, 2), targets=(((1,), first), ((2,), rho)), normalization=1.0)
            reports.append(mg.marginal_feasibility(spec))
        assert dtypes == [float, complex]
        real, noisy = reports
        assert real.verdict == noisy.verdict == sdp.FEASIBLE
        assert abs(real.slack - noisy.slack) <= 1e-9
        assert noisy.dual_certificate.shape == real.dual_certificate.shape


def assert_weak_duality(rep):
    assert rep.slack <= rep.dual_objective + 1e-6 * (1 + abs(rep.slack))


class TestHandBuiltComplexVerdicts:
    """Hand-built Hermitian instances with known verdicts. Rows with real
    coefficients are solved on a real block; the cases with an SY row are
    solved on a complex one."""

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
        assert rep.verdict == sdp.FEASIBLE
        assert_weak_duality(rep)

    @pytest.mark.parametrize("rows", INFEASIBLE_CASES)
    def test_infeasible(self, rows):
        rep = feasibility(rows[0][0].shape[0], rows)
        assert rep.verdict == sdp.INFEASIBLE
        assert_weak_duality(rep)


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
        assert rep.verdict == sdp.FEASIBLE
        assert np.linalg.eigvalsh(rep.witness)[0] >= -1e-8
        for h, v in rows:
            assert abs(np.trace(h @ rep.witness).real - v) <= 1e-6
        assert abs(rep.slack - rep.dual_objective) <= 1e-6 * (1 + abs(rep.slack))

    def test_rejects_witness_perturbed_past_residual(self):
        target = np.diag([0.6, 0.4]).astype(complex)
        rows = rows_of((2,), (whole_block([(b, np.trace(b @ target).real) for b in hermitian_basis(2)]),))
        assert rows.holds(target)
        nudge = np.diag([1.0, 0.0]) * 1.5 * sdp.WITNESS_RESIDUAL
        assert not rows.holds(target + nudge)
        assert rows.holds(target + nudge / 3)
        # a witness that satisfies every row but is not PSD is rejected too
        trace_only = rows_of((2,), (whole_block([(np.eye(2), 1.0)]),))
        assert not trace_only.holds(np.diag([1.5, -0.5]))
