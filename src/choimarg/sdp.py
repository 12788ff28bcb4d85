"""Dense semidefinite feasibility and optimization over Hermitian block-diagonal variables.

The solver is a primal-dual path-following interior-point method with the
HKM direction (linearize XZ = mu*1, take the Hermitian part of the X step),
fixed centering sigma = 0.1, step fraction 0.98 to the cone boundary, and an
iteration cap of 200. It works on complex Hermitian blocks directly, as SDPT3
and SeDuMi do, and is written for the problem sizes of this package (block
dimensions up to ~32, a few hundred constraint rows at most). It is
deterministic: fixed initialization, no randomized pivoting, no Mehrotra
correction.

Each block's constraint stack is flattened once into an (m, n_b^2) complex
matrix. The inner product Re<A, X> = Re Tr(A^H X) is a real dot product of
the interleaved real and imaginary parts, so A(X), A*(y) and the right-hand
side are real matrix-vector products, and the Schur complement
S_ij = sum_b Re Tr(A_i Z_b^-1 A_j X_b) is three GEMMs per block (see
:func:`_schur_rhs`). An iteration costs O(m n^3 + m^2 n^2) in dense BLAS for
m rows and block dimension n, plus the O(m^3) Cholesky factorization of S.
Each step is also projected onto the primal equations with the rows' Gram
matrix, factored once per solve, so rounding in the Schur solve cannot leave
a primal residual that the path no longer reduces.

Problems are stated over Hermitian blocks, real input included::

    max/min  sum_b Re<C_b, X_b> + c_free * t
    s.t.     sum_b Re<A_i^b, X_b> + a_i * t = b_i        (i = 1..m)
             X_b >= 0,   t free (optional scalar)

The optional free scalar carries the feasibility slack of the prescribed
marginal problems: "max t s.t. X - t*1 >= 0, A(X) = b" is solved with
Y = X - t*1 as the PSD block and t eliminated inside the Schur system.
:func:`hermitian_feasibility` states that program and reads the witness back
as Y + t*1. Callers pass linearly independent rows that fix the total trace;
the rows of :mod:`choimarg.marginals` are independent by construction, so
nothing here prunes or probes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .linalg import check_hermitian

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SdpError",
    "solve",
    "FeasibilityReport",
    "FEASIBLE",
    "INFEASIBLE",
    "MARGINAL",
    "hermitian_feasibility",
    "witness_valid",
]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
MARGINAL = "marginal"


class SdpError(RuntimeError):
    """Raised when the solver cannot certify a verdict."""


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal SDP with affine equality constraints.

    constraints: list of (per-block Hermitian matrices, rhs). A problem may
    carry one free scalar variable; ``free_coeffs`` holds its per-constraint
    coefficients and ``free_objective`` its objective coefficient.
    """

    block_dims: tuple[int, ...]
    objective: tuple[np.ndarray, ...] | None
    constraints: tuple[tuple[tuple[np.ndarray, ...], float], ...]
    sense: str = "max"
    free_objective: float | None = None
    free_coeffs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        dims = tuple(int(d) for d in self.block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)
        if not self.constraints:
            raise ValueError("at least one constraint row is required")
        for mats, _rhs in self.constraints:
            if len(mats) != len(dims):
                raise ValueError("each constraint needs one matrix per block")
            for m, d in zip(mats, dims):
                if np.asarray(m).shape != (d, d):
                    raise ValueError(f"constraint block shape {np.asarray(m).shape} != ({d}, {d})")
        if self.objective is not None:
            for m, d in zip(self.objective, dims):
                if np.asarray(m).shape != (d, d):
                    raise ValueError(f"objective block shape {np.asarray(m).shape} != ({d}, {d})")
        if (self.free_objective is None) != (self.free_coeffs is None):
            raise ValueError("free_objective and free_coeffs must be given together")
        if self.free_coeffs is not None and len(self.free_coeffs) != len(self.constraints):
            raise ValueError("free_coeffs length must match the number of constraints")


@dataclass(frozen=True)
class SdpSolution:
    blocks: tuple[np.ndarray, ...]
    free_value: float | None
    dual: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str
    history: tuple[dict, ...] = field(default=(), repr=False)


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _step_to_boundary(s: np.ndarray, ds: np.ndarray) -> float:
    """sup { a >= 0 : s + a*ds >= 0 } for s > 0 Hermitian."""
    l = np.linalg.cholesky(s)
    w = np.linalg.solve(l, np.linalg.solve(l, ds).conj().T)
    lam = np.linalg.eigvalsh(_herm(w))[0]
    if lam >= 0:
        return np.inf
    return -1.0 / lam


def _schur_rhs(
    a_flat: Sequence[np.ndarray],
    zinvs: Sequence[np.ndarray],
    xs: Sequence[np.ndarray],
    cores: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """HKM Schur complement and the constraint image of the rhs cores.

    a_flat[b] holds block b's Hermitian constraint matrices as complex rows of
    shape (m, d_b^2). Returns S with S_ij = sum_b Re Tr(A_i Z_b^-1 A_j X_b)
    and r with r_i = sum_b Re<A_i, core_b>. The m matrices are multiplied as
    one stacked (m d_b, d_b) operand rather than as a batch of m small
    products, which multithreaded BLAS runs several times slower.
    """
    m = a_flat[0].shape[0]
    schur = np.zeros((m, m))
    rhs = np.zeros(m)
    for a, zinv, x, core in zip(a_flat, zinvs, xs, cores):
        d = x.shape[0]
        rows = a.reshape(m * d, d)
        # (A_i Z^-1)^H = Z^-1 A_i, so S_ij = Re<Z^-1 A_i, A_j X>
        za = (rows @ zinv).reshape(m, d, d).transpose(0, 2, 1).reshape(m, -1).conj()
        schur += za.view(float) @ (rows @ x).reshape(m, -1).view(float).T
        rhs += a.view(float) @ core.ravel().view(float)
    return _herm(schur), rhs


def solve(
    problem: SdpProblem,
    *,
    gap_tol: float = DEFAULT.solver,
    feas_tol: float = 1e-9,
    max_iterations: int = 200,
    init_scale: float = 1.0,
    debug: bool = False,
) -> SdpSolution:
    """Run the interior-point method on a problem.

    Precondition: the constraint rows (with their free-scalar coefficients)
    are linearly independent, and for a problem with a free scalar they fix
    the total block trace. Nothing is pruned, so the returned dual vector is
    indexed by the rows as given. An inconsistent equality system never
    reaches the residual test and ends with a non-optimal status. The
    returned blocks are complex, also for real input.
    """
    dims = problem.block_dims
    nb = len(dims)
    sign = 1.0 if problem.sense == "max" else -1.0
    cs = [
        sign * _herm(np.asarray(c, dtype=complex))
        for c in (problem.objective or [np.zeros((d, d)) for d in dims])
    ]
    m = len(problem.constraints)
    a_flat = [
        np.stack([_herm(np.asarray(row[0][b], dtype=complex)) for row in problem.constraints])
        .reshape(m, -1)
        for b in range(nb)
    ]
    # Re<A, X> as a real dot product over interleaved real and imaginary parts
    a_real = [a.view(float) for a in a_flat]
    b = np.array([row[1] for row in problem.constraints], dtype=float)
    has_free = problem.free_coeffs is not None
    a_free = np.asarray(problem.free_coeffs, dtype=float) if has_free else np.zeros(m)
    c_free = sign * float(problem.free_objective) if has_free else 0.0

    xs = [init_scale * np.eye(d, dtype=complex) for d in dims]
    zs = [np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(m)
    t = 0.0
    n_total = sum(dims)
    sigma = 0.1
    history: list[dict] = []
    status = MAX_ITERATIONS
    it = 0
    pinf = dinf = relgap = np.inf
    primal = dual = 0.0

    def operator(xs_cur: list[np.ndarray]) -> np.ndarray:
        return sum(a_real[b_] @ xs_cur[b_].ravel().view(float) for b_ in range(nb))

    def adjoint(y_cur: np.ndarray, b_: int) -> np.ndarray:
        return (y_cur @ a_real[b_]).view(complex).reshape(dims[b_], dims[b_])

    # Gram matrix of the rows with their free-scalar coefficients, regularised
    # as the Schur complement is: it projects each step onto the primal equations
    gram = sum(a @ a.T for a in a_real) + np.outer(a_free, a_free)
    try:
        gram_cho = scipy.linalg.cho_factor(gram + 1e-14 * np.trace(gram) / m * np.eye(m))
    except np.linalg.LinAlgError:
        # every row is zero: there are no equations to iterate on
        max_iterations, status = 0, NUMERICAL_FAILURE

    for it in range(1, max_iterations + 1):
        try:
            zinvs = []
            for z in zs:
                l = np.linalg.cholesky(z)
                linv = scipy.linalg.solve_triangular(l, np.eye(z.shape[0]), lower=True)
                zinvs.append(linv.conj().T @ linv)
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break

        mu = sum(np.vdot(z, x).real for x, z in zip(xs, zs)) / n_total
        target = sigma * mu
        r_p = b - operator(xs) - a_free * t
        r_ds = [cs[b_] + zs[b_] - adjoint(y, b_) for b_ in range(nb)]
        r_f = c_free - float(a_free @ y) if has_free else 0.0

        cores = [
            target * zinvs[b_] - xs[b_] + _herm(zinvs[b_] @ r_ds[b_] @ xs[b_])
            for b_ in range(nb)
        ]
        schur, rhs = _schur_rhs(a_flat, zinvs, xs, cores)
        rhs -= r_p

        try:
            cho = scipy.linalg.cho_factor(schur + 1e-14 * np.trace(schur) / m * np.eye(m))
            if has_free:
                u = scipy.linalg.cho_solve(cho, rhs)
                w = scipy.linalg.cho_solve(cho, a_free)
                denom = float(a_free @ w)
                if denom <= 0:
                    status = NUMERICAL_FAILURE
                    break
                dt = (r_f - float(a_free @ u)) / denom
                dy = u + dt * w
            else:
                dt = 0.0
                dy = scipy.linalg.cho_solve(cho, rhs)
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break

        dzs = [adjoint(dy, b_) - r_ds[b_] for b_ in range(nb)]
        dxs = [
            target * zinvs[b_] - xs[b_] - _herm(zinvs[b_] @ dzs[b_] @ xs[b_])
            for b_ in range(nb)
        ]
        correction = scipy.linalg.cho_solve(gram_cho, r_p - operator(dxs) - a_free * dt)
        dxs = [dx + adjoint(correction, b_) for b_, dx in enumerate(dxs)]
        dt += float(a_free @ correction)

        try:
            alpha_p = min([1.0] + [0.98 * _step_to_boundary(xs[b_], dxs[b_]) for b_ in range(nb)])
            alpha_d = min([1.0] + [0.98 * _step_to_boundary(zs[b_], dzs[b_]) for b_ in range(nb)])
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break
        if alpha_p <= 0 or alpha_d <= 0:
            status = NUMERICAL_FAILURE
            break
        xs = [_herm(x + alpha_p * dx) for x, dx in zip(xs, dxs)]
        zs = [_herm(z + alpha_d * dz) for z, dz in zip(zs, dzs)]
        y = y + alpha_d * dy
        t = t + alpha_p * dt

        primal = sum(np.vdot(c, x).real for c, x in zip(cs, xs)) + c_free * t
        dual = float(b @ y)
        r_p = b - operator(xs) - a_free * t
        pinf = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(b)))
        dinf = max(
            float(np.max(np.abs(cs[b_] + zs[b_] - adjoint(y, b_)))) for b_ in range(nb)
        )
        if has_free:
            dinf = max(dinf, abs(c_free - float(a_free @ y)))
        relgap = abs(dual - primal) / (1.0 + abs(primal))

        if debug:
            history.append(
                {"iteration": it, "mu": mu, "primal": primal, "dual": dual,
                 "primal_residual": pinf, "dual_residual": dinf}
            )
            if pinf < 1e-7 and dinf < 1e-7 and primal > dual + 1e-6 * (1.0 + abs(primal)):
                raise SdpError(
                    f"weak duality violated at iteration {it}: primal {primal!r} > dual {dual!r}"
                )

        cmax = max(float(np.max(np.abs(c))) for c in cs)
        if pinf <= feas_tol and dinf <= feas_tol * (1.0 + cmax) and relgap <= gap_tol:
            status = OPTIMAL
            break

    return SdpSolution(
        blocks=tuple(xs),
        free_value=(t if has_free else None),
        dual=sign * y,
        primal_objective=sign * primal,
        dual_objective=sign * dual,
        gap=relgap,
        primal_residual=pinf,
        dual_residual=dinf,
        iterations=it,
        status=status,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Hermitian feasibility with slack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict of a prescribed-marginal feasibility question.

    slack is the optimal t of "max t s.t. X - t*1 >= 0, A(X) = b". Its sign
    decides feasibility outside the band |t| < eps. An in-band slack is
    reported feasible only when an eigenvalue-clipped witness independently
    re-validates (PSD to -1e-8, residuals <= 1e-6); otherwise Marginal.
    witness is the primal matrix (first block for multi-block problems),
    dual_certificate the dual vector on the original constraint rows.
    """

    status: str
    slack: float
    witness: np.ndarray | None
    dual_certificate: np.ndarray | None
    blocks: tuple[np.ndarray, ...] = field(default=(), repr=False)
    solution: SdpSolution | None = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _clip_psd(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def witness_valid(
    rows: Sequence[tuple[Sequence[np.ndarray], float]],
    blocks: Sequence[np.ndarray],
    tol: Tolerances,
) -> bool:
    """Independent check of a witness against the rows it must satisfy.

    True when every row holds to ``tol.witness_residual`` and every block's
    minimum eigenvalue is at least ``-tol.witness_psd``. Run it after the last
    change made to a witness.
    """
    for mats, rhs in rows:
        val = sum(float(np.real(np.sum(np.conj(h) * x))) for h, x in zip(mats, blocks))
        if abs(val - rhs) > tol.witness_residual:
            return False
    return all(float(np.linalg.eigvalsh(x)[0]) >= -tol.witness_psd for x in blocks)


def hermitian_feasibility(
    block_dims: Sequence[int],
    rows: Sequence[tuple[Sequence[np.ndarray], float]],
    *,
    tol: Tolerances = DEFAULT,
    gap_tol: float | None = None,
    band: float | None = None,
    max_iterations: int = 200,
) -> FeasibilityReport:
    """Decide existence of Hermitian PSD blocks with prescribed affine data.

    rows: (per-block Hermitian matrices, real rhs) meaning
    sum_b <H_i^b, X_b> = rhs_i with <A, B> = Tr(A B).

    Precondition: the rows are linearly independent and their span fixes the
    total block trace. Neither is checked; the rows go to :func:`solve` as
    given. An unbounded slack program (such as a lone traceless row) or an
    inconsistent system does not converge and raises SdpError.
    """
    gap_tol = tol.solver if gap_tol is None else gap_tol
    band = tol.band if band is None else band
    # solve tighter than the Marginal band so that slack noise cannot move a
    # boundary problem across the band edge
    gap_tol = min(gap_tol, band / 10.0)
    dims = tuple(int(d) for d in block_dims)
    if not rows:
        raise ValueError("at least one constraint row is required")

    problem = SdpProblem(
        block_dims=dims,
        objective=None,
        constraints=tuple(
            (tuple(check_hermitian(h) for h in mats), float(rhs)) for mats, rhs in rows
        ),
        sense="max",
        free_objective=1.0,
        free_coeffs=tuple(sum(float(np.trace(h).real) for h in mats) for mats, _ in rows),
    )
    trace_rhs = max(abs(float(r)) for _, r in rows)
    init_scale = max(trace_rhs / sum(dims), 1e-2)
    solution = solve(
        problem,
        gap_tol=gap_tol,
        feas_tol=1e-9,
        max_iterations=max_iterations,
        init_scale=init_scale,
    )
    if solution.status != OPTIMAL:
        raise SdpError(
            f"feasibility solve did not converge: status {solution.status} after "
            f"{solution.iterations} iterations (primal residual {solution.primal_residual:.3e}, "
            f"dual residual {solution.dual_residual:.3e}, gap {solution.gap:.3e})"
        )

    t_hat = float(solution.free_value)
    blocks = tuple(yb + t_hat * np.eye(d) for yb, d in zip(solution.blocks, dims))
    dual = solution.dual

    if t_hat >= band:
        if not witness_valid(rows, blocks, tol):
            raise SdpError("feasible verdict failed independent witness validation")
        return FeasibilityReport(
            status=FEASIBLE, slack=t_hat, witness=blocks[0],
            dual_certificate=dual, blocks=blocks, solution=solution,
        )
    if t_hat <= -band:
        return FeasibilityReport(
            status=INFEASIBLE, slack=t_hat, witness=None,
            dual_certificate=dual, blocks=(), solution=solution,
        )
    clipped = tuple(_clip_psd(x) for x in blocks)
    if witness_valid(rows, clipped, tol):
        return FeasibilityReport(
            status=FEASIBLE, slack=t_hat, witness=clipped[0],
            dual_certificate=dual, blocks=clipped, solution=solution,
        )
    return FeasibilityReport(
        status=MARGINAL, slack=t_hat, witness=None,
        dual_certificate=dual, blocks=(), solution=solution,
    )

