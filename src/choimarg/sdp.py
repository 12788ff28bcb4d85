"""Prescribed-marginal feasibility as one slack program over a Hermitian PSD block.

Every question of this package asks whether a PSD operator X satisfies
affine rows A(X) = b. The one program solved here is its slack program::

    max  t
    s.t. A(Y) + a * t = b,   Y >= 0,   t free

with Y = X - t*1 and a_p the trace of row p's operator. The optimal t is
the largest smallest eigenvalue of an X that satisfies the rows, so its sign
decides feasibility; :func:`_group_feasibility` reads the witness back as
Y + t*1, applies the caller's last change to it and only then validates it,
once. Callers pass linearly independent rows that fix the trace; the rows of
:mod:`choimarg.marginals` are independent by construction, so nothing here
prunes or probes them.

The solver is a primal-dual path-following interior-point method with the
HKM direction (linearize XZ = mu*1, take the Hermitian part of the X step)
and Mehrotra's predictor-corrector (Mehrotra 1992) with the SDPT3
safeguards (Toh, Todd and Tutuncu 1999). Each iteration factors the Schur
complement once and solves with it twice. The predictor is the affine
direction (target 0); its step lengths give mu_aff and the centering
sigma = clamp(mu_aff/mu, 0, 1)^3. The corrector targets sigma*mu and
subtracts the second-order term herm(Z^-1 dZ_aff dX_aff). It goes a fraction
gamma = 0.9 + 0.09*min(alpha_p_aff, alpha_d_aff) of the way to the cone
boundary, halved while rounding leaves an iterate that is not numerically
positive definite. A non-finite mu, mu_aff, Schur complement or step length
ends the solve with status numerical_failure, and the iteration cap is 200.
The free scalar t is eliminated inside the Schur system. It works on one
complex Hermitian block directly, as SDPT3 and SeDuMi do, and is written for
the problem sizes of this package (block dimensions up to ~81, a few hundred
constraint rows at most). It is deterministic: fixed initialization and no
randomized pivoting.

Constraint rows come in row groups (:class:`RowGroup`): row p of a group is
lift(B_p), a Hermitian element B_p on the kept factors K of the block with
the identity on the other factors R, and the group stores vec(B_p) as row p
of a coefficient matrix P. A marginal target is one group. A(X) is P applied
to each group's partial trace Tr_R X, A*(y) the sum of the lifts of y_g P,
and the HKM Schur block of groups s and t is Re P_s T_st P_t^T, where T_st
contracts Z^-1 and X over the factors outside K_s and K_t in one GEMM (see
:meth:`_Rows.schur`). A pair costs O(d_Ks^2 d_Kt^2 (d_Rs d_Rt + m_s) +
m_s m_t d_Kt^2) instead of the O(m n^3 + m^2 n^2) of dense rows on a block
of dimension n. On one core of a 2-vCPU Xeon guest a qutrit compatibility
decision (m = 153, n = 27) takes ~4 ms per iteration and a qutrit Bell
decision (m = 289, n = 81) ~20 ms, the O(m^3) Cholesky factorization of S
included. The corrector step is projected onto the primal equations with
the rows' Gram matrix (the kernel at Z^-1 = X = 1), factored once per
solve, so rounding in the Schur solve cannot leave a primal residual that
the path no longer reduces; the predictor, along which no step is taken,
is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances

__all__ = [
    "SdpSolution",
    "SdpError",
    "FeasibilityReport",
    "FEASIBLE",
    "INFEASIBLE",
    "MARGINAL",
]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"

FEAS_TOL = 1e-9
"""Primal and dual residual an optimal iterate must reach."""

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
MARGINAL = "marginal"


class SdpError(RuntimeError):
    """Raised when the solver cannot certify a verdict."""


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# constraint rows as row groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowGroup:
    """Constraint rows that lift basis elements from kept factors of the block.

    Row p reads Re<lift(B_p), X> = rhs[p]: row p of the complex array coeffs
    is vec(B_p), row-major, on the 0-based ``kept`` factors (ascending), and
    lift places the identity on the other factors.
    """

    kept: tuple[int, ...]
    coeffs: np.ndarray
    rhs: np.ndarray


class _Part(NamedTuple):
    """One group's rows; perm orders the block's axes as (kept rows, kept
    columns, rest rows, rest columns), lift_perm is its inverse."""

    rows: slice
    kept: tuple[int, ...]
    rest: tuple[int, ...]
    perm: tuple[int, ...]
    lift_split: tuple[int, ...]
    lift_perm: tuple[int, ...]
    d_kept: int
    d_rest: int


@lru_cache(maxsize=64)
def _structure(
    dims: tuple[int, ...], layout: tuple[tuple[int, tuple[int, ...]], ...]
) -> tuple[int, tuple[_Part, ...], tuple[tuple, ...]]:
    """Row count, parts, and pairs (i, j, zperm, xperm) of parts.

    dims are the block's factor dimensions; layout holds, per group, its row
    count and its kept factors.
    """
    nf = len(dims)
    split = dims + dims
    parts, start = [], 0
    for m_g, kept in layout:
        if m_g:
            rest = tuple(f for f in range(nf) if f not in kept)
            perm = kept + tuple(nf + k for k in kept) + rest + tuple(nf + r for r in rest)
            parts.append(_Part(
                slice(start, start + m_g), kept, rest, perm, tuple(split[p] for p in perm),
                tuple(int(p) for p in np.argsort(perm)),
                prod(dims[k] for k in kept), prod(dims[r] for r in rest),
            ))
        start += m_g
    pairs = []
    for i, j in ((i, j) for i in range(len(parts)) for j in range(i, len(parts))):
        ks, rs, kt, rt = parts[i].kept, parts[i].rest, parts[j].kept, parts[j].rest
        # Z^-1 rows (b), columns (c); X rows (d), columns (a). lift(B_i) ties
        # a = b outside K_s and lift(B_j) ties c = d outside K_t.
        zperm = ks + tuple(nf + k for k in kt) + rs + tuple(nf + r for r in rt)
        xperm = tuple(nf + r for r in rs) + rt + kt + tuple(nf + k for k in ks)
        pairs.append((i, j, zperm, xperm))
    return start, tuple(parts), tuple(pairs)


class _Rows:
    """The equality operator of a problem, applied through its row groups."""

    def __init__(self, dims: Sequence[int], groups: Sequence[RowGroup]):
        dims = tuple(int(d) for d in dims)
        layout = tuple((len(g.rhs), tuple(int(k) for k in g.kept)) for g in groups)
        self.m, self.parts, self.pairs = _structure(dims, layout)
        self.split = dims + dims
        self.n = prod(dims)
        self.coeffs = [np.ascontiguousarray(g.coeffs, dtype=complex) for g in groups if len(g.rhs)]
        self.rhs = np.concatenate([np.asarray(g.rhs, dtype=float) for g in groups])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A(X): each group's coefficients of its partial trace."""
        out = np.zeros(self.m)
        x = np.asarray(x, dtype=complex).reshape(self.split)
        for part, c in zip(self.parts, self.coeffs):
            kept = (
                x.transpose(part.perm)
                .reshape(part.d_kept ** 2, part.d_rest ** 2)[:, :: part.d_rest + 1].sum(axis=1)
            )
            # Re<B, Tr_R X> as a real dot product over interleaved real and imaginary parts
            out[part.rows] += c.view(float) @ kept.view(float)
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y): the sum of the lifts of y_g P over the groups."""
        out = np.zeros((self.n, self.n), dtype=complex)
        for part, c in zip(self.parts, self.coeffs):
            mat = (y[part.rows] @ c.view(float)).view(complex).reshape(part.d_kept, part.d_kept)
            lifted = np.multiply.outer(mat, np.eye(part.d_rest)).reshape(part.lift_split)
            out += lifted.transpose(part.lift_perm).reshape(out.shape)
        return out

    def free_coeffs(self) -> np.ndarray:
        """Tr lift(B_p) = d_rest Tr B_p."""
        out = np.zeros(self.m)
        for part, c in zip(self.parts, self.coeffs):
            out[part.rows] += part.d_rest * c[:, :: part.d_kept + 1].sum(axis=1).real
        return out

    def schur(self, zinv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """HKM Schur complement S_ij = Re Tr(A_i Z^-1 A_j X).

        For parts s and t, T_st[(a,b),(c,d)] = sum Z^-1[b,c] X[d,a] over the
        factors outside K_s (where a = b) and outside K_t (where c = d) is one
        GEMM, and the block is Re P_s T_st P_t^T. When both groups keep every
        factor the sum is empty and T_st is the outer product Z^-1 (x) X.
        """
        schur = np.zeros((self.m, self.m))
        zinv, x = zinv.reshape(self.split), x.reshape(self.split)
        for i, j, zperm, xperm in self.pairs:
            s, t = self.parts[i], self.parts[j]
            p, q = self.coeffs[i], self.coeffs[j]
            ks, kt, inner = s.d_kept, t.d_kept, s.d_rest * t.d_rest
            g = (
                zinv.transpose(zperm).reshape(ks * kt, inner)
                @ x.transpose(xperm).reshape(inner, kt * ks)
            )
            tst = g.reshape(ks, kt, kt, ks).transpose(3, 0, 1, 2).reshape(ks * ks, kt * kt)
            # Re(u . v) = Re<conj u, v>, a real dot product over interleaved parts
            block = (p @ tst).conj().view(float) @ q.view(float).T
            schur[s.rows, t.rows] += block
            if i != j:
                schur[t.rows, s.rows] += block.T
        return (schur + schur.T) / 2

    def holds(self, x: np.ndarray, tol: Tolerances) -> bool:
        """Every row holds to tol.witness_residual and X is PSD to -tol.witness_psd."""
        if float(np.max(np.abs(self(x) - self.rhs))) > tol.witness_residual:
            return False
        return float(np.linalg.eigvalsh(x)[0]) >= -tol.witness_psd


# ---------------------------------------------------------------------------
# the interior-point method
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SdpSolution:
    blocks: tuple[np.ndarray, ...]  # (Y,), the one PSD block
    free_value: float
    dual: np.ndarray
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str


def _step_to_boundary(linv: np.ndarray, ds: np.ndarray) -> float:
    """sup { a >= 0 : s + a*ds >= 0 } for s = l l^H > 0 Hermitian, given linv = l^-1.

    Raises LinAlgError when the bound is not a number.
    """
    lam = np.linalg.eigvalsh(_herm(linv @ ds @ linv.conj().T))[0]
    if np.isnan(lam):
        raise np.linalg.LinAlgError("step length is not a number")
    if lam >= 0:
        return np.inf
    return -1.0 / lam


def _advance(
    x: np.ndarray, step: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The block moved by alpha * step, its Cholesky factor and the alpha taken.

    Near the cone boundary, rounding can leave a block that is not numerically
    positive definite after a step that stays inside in exact arithmetic; alpha
    is then halved. Raises LinAlgError when 30 halvings do not suffice.
    """
    for _ in range(30):
        moved = _herm(x + alpha * step)
        try:
            return moved, np.linalg.cholesky(moved), alpha
        except np.linalg.LinAlgError:
            alpha /= 2
    raise np.linalg.LinAlgError("no step length keeps the iterate positive definite")


def _newton(
    rows: _Rows,
    a_free: np.ndarray,
    cho: tuple,
    w: np.ndarray,
    zinv: np.ndarray,
    x: np.ndarray,
    core: np.ndarray,
    residuals: tuple[np.ndarray, np.ndarray, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The HKM direction (dX, dy, dZ, dt) whose linearized complementarity is core.

    core is the dX the direction would take at dy = 0. cho factors the Schur
    complement, a_free holds the rows' free coefficients a and w = S^-1 a;
    residuals are (r_p, r_d, r_f).
    """
    r_p, r_d, r_f = residuals
    u = scipy.linalg.cho_solve(cho, rows(core) - r_p, check_finite=False)
    dt = (r_f - float(a_free @ u)) / float(a_free @ w)
    dy = u + dt * w
    lifted = rows.adjoint(dy)
    return core - _herm(zinv @ lifted @ x), dy, lifted - r_d, dt


def _ipm(rows: _Rows, *, gap_tol: float, max_iterations: int) -> SdpSolution:
    """Run the interior-point method on the slack program of row groups.

    The program is max t s.t. A(Y) + a*t = b, Y >= 0, with a the rows' free
    coefficients; the free scalar t is eliminated inside the Schur system.
    Nothing is pruned, so the returned dual vector is indexed by the rows in
    group order. An inconsistent equality system never reaches the residual
    test and ends with a non-optimal status; so does a non-finite mu, Schur
    matrix or step length.
    """
    n = rows.n
    m = rows.m
    b = rows.rhs
    a_free = rows.free_coeffs()
    eye = np.eye(n, dtype=complex)

    init_scale = max(float(np.max(np.abs(b))) / n, 1e-2)
    x = init_scale * eye
    z = eye
    lx = np.linalg.cholesky(x)
    lz = np.linalg.cholesky(z)
    y = np.zeros(m)
    t = 0.0
    status = MAX_ITERATIONS
    it = 0
    pinf = dinf = relgap = np.inf
    dual = 0.0
    r_p = b - rows(x)
    r_d = z - rows.adjoint(y)
    r_f = 1.0

    # Gram matrix of the rows with their free-scalar coefficients, regularised
    # as the Schur complement is: it projects each step onto the primal equations
    gram = rows.schur(eye, eye) + np.outer(a_free, a_free)
    try:
        gram_cho = scipy.linalg.cho_factor(gram + 1e-14 * np.trace(gram) / m * np.eye(m))
    except np.linalg.LinAlgError:
        # every row is zero: there are no equations to iterate on
        max_iterations, status = 0, NUMERICAL_FAILURE

    for it in range(1, max_iterations + 1):
        # inverse Cholesky factors: Z^-1 and the four step lengths use them
        lzinv = scipy.linalg.solve_triangular(lz, eye, lower=True, check_finite=False)
        lxinv = scipy.linalg.solve_triangular(lx, eye, lower=True, check_finite=False)
        zinv = lzinv.conj().T @ lzinv
        mu = np.vdot(z, x).real / n
        schur = rows.schur(zinv, x)
        residuals = (r_p, r_d, r_f)
        try:
            if not (0.0 < mu < np.inf and np.isfinite(schur).all()):
                raise np.linalg.LinAlgError("mu or the Schur complement is not finite")
            cho = scipy.linalg.cho_factor(
                schur + 1e-14 * np.trace(schur) / m * np.eye(m), check_finite=False
            )
            w = scipy.linalg.cho_solve(cho, a_free, check_finite=False)
            if not float(a_free @ w) > 0:
                raise np.linalg.LinAlgError("the Schur complement is not positive definite")

            # predictor: the affine direction (target 0) sets the centering and
            # the second-order term; it is not projected, as no step is taken
            base = _herm(zinv @ r_d @ x) - x
            dx_aff, _, dz_aff, _ = _newton(rows, a_free, cho, w, zinv, x, base, residuals)
            alpha_p = min(1.0, _step_to_boundary(lxinv, dx_aff))
            alpha_d = min(1.0, _step_to_boundary(lzinv, dz_aff))
            mu_aff = np.vdot(z + alpha_d * dz_aff, x + alpha_p * dx_aff).real / n
            if not np.isfinite(mu_aff):
                raise np.linalg.LinAlgError("the predicted mu is not finite")
            sigma = min(max(mu_aff / mu, 0.0), 1.0) ** 3
            gamma = 0.9 + 0.09 * min(alpha_p, alpha_d)

            # corrector: centering sigma*mu and the second-order term
            core = base + sigma * mu * zinv - _herm(zinv @ dz_aff @ dx_aff)
            dx, dy, dz, dt = _newton(rows, a_free, cho, w, zinv, x, core, residuals)
            correction = scipy.linalg.cho_solve(
                gram_cho, r_p - rows(dx) - a_free * dt, check_finite=False
            )
            dx = dx + rows.adjoint(correction)
            dt += float(a_free @ correction)

            alpha_p = min(1.0, gamma * _step_to_boundary(lxinv, dx))
            alpha_d = min(1.0, gamma * _step_to_boundary(lzinv, dz))
            if alpha_p <= 0 or alpha_d <= 0:
                raise np.linalg.LinAlgError("no step length is positive")
            (x, lx, alpha_p), (z, lz, alpha_d) = _advance(x, dx, alpha_p), _advance(z, dz, alpha_d)
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break
        y = y + alpha_d * dy
        t = t + alpha_p * dt

        dual = float(b @ y)
        r_p = b - rows(x) - a_free * t
        r_d = z - rows.adjoint(y)
        r_f = 1.0 - float(a_free @ y)
        pinf = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(b)))
        dinf = max(float(np.max(np.abs(r_d))), abs(r_f))
        relgap = abs(dual - t) / (1.0 + abs(t))

        if pinf <= FEAS_TOL and dinf <= FEAS_TOL and relgap <= gap_tol:
            status = OPTIMAL
            break

    return SdpSolution(
        blocks=(x,),
        free_value=t,
        dual=y,
        dual_objective=dual,
        gap=relgap,
        primal_residual=pinf,
        dual_residual=dinf,
        iterations=it,
        status=status,
    )


# ---------------------------------------------------------------------------
# Hermitian feasibility with slack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict of a prescribed-marginal feasibility question.

    slack is the optimal t of "max t s.t. X - t*1 >= 0, A(X) = b". Its sign
    decides feasibility outside the band |t| < eps. witness is the primal
    matrix after the caller's last change to it, validated once (PSD to
    -tol.witness_psd, residuals <= tol.witness_residual); an in-band slack
    whose eigenvalue-clipped witness fails that check is Marginal.
    dual_certificate is the dual vector on the original constraint rows.
    """

    status: str
    slack: float
    witness: np.ndarray | None
    dual_certificate: np.ndarray | None
    solution: SdpSolution | None = field(default=None, repr=False)


def _clip_psd(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def _group_feasibility(
    dims: Sequence[int],
    groups: Sequence[RowGroup],
    *,
    tol: Tolerances = DEFAULT,
    finish: Callable[[np.ndarray], np.ndarray] = lambda x: x,
    max_iterations: int = 200,
) -> FeasibilityReport:
    """Decide existence of a PSD operator satisfying row groups.

    dims are the operator's tensor factor dimensions, which the groups' kept
    sets index. The dual certificate is indexed by the rows in group order.

    Unless t <= -band, the witness X = Y + t*1 (eigenvalue-clipped when
    |t| < band) goes through finish, the caller's last change to it, and is
    validated once: feasible if it holds, else SdpError when t >= band and
    Marginal in band.

    Precondition: the rows are linearly independent and their span fixes the
    trace. Neither is checked; the rows go to the solver as given. An
    unbounded slack program (such as a lone traceless row) or an
    inconsistent system does not converge and raises SdpError.
    """
    band = tol.band
    # solve tighter than the Marginal band so that slack noise cannot move a
    # boundary problem across the band edge
    gap_tol = min(tol.solver, band / 10.0)
    rows = _Rows(dims, groups)
    solution = _ipm(rows, gap_tol=gap_tol, max_iterations=max_iterations)
    if solution.status != OPTIMAL:
        raise SdpError(
            f"feasibility solve did not converge: status {solution.status} after "
            f"{solution.iterations} iterations (primal residual {solution.primal_residual:.3e}, "
            f"dual residual {solution.dual_residual:.3e}, gap {solution.gap:.3e})"
        )

    t_hat = solution.free_value
    dual = solution.dual
    if t_hat <= -band:
        return FeasibilityReport(INFEASIBLE, t_hat, None, dual, solution)
    x = solution.blocks[0] + t_hat * np.eye(rows.n)
    x = finish(x if t_hat >= band else _clip_psd(x))
    if rows.holds(x, tol):
        return FeasibilityReport(FEASIBLE, t_hat, x, dual, solution)
    if t_hat >= band:
        raise SdpError("feasible verdict failed independent witness validation")
    return FeasibilityReport(MARGINAL, t_hat, None, dual, solution)
