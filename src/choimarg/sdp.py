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
prunes or probes them. Dependent rows, which every inconsistent system has,
show as a collapsed pivot when the rows' Gram matrix is factored, once per
solve, and end the solve before its first iteration with status
dependent_rows.

The one tolerance a caller sets is ``eps`` (default :data:`BAND`), the
half-width of the Marginal band around zero slack; the solve then targets a
relative gap of min(:data:`GAP_TOL`, eps / 10). The rest are fixed: the
residual target :data:`FEAS_TOL`, the dependent-row pivot
:data:`DEPENDENT_PIVOT` and the witness contract (every reported witness is
PSD to -:data:`WITNESS_PSD` and meets each row to :data:`WITNESS_RESIDUAL`).
The construction checks of the inputs use the constants of
:mod:`choimarg.linalg`.

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
positive definite. A step length takes only the smallest eigenvalue of
L^-1 dS L^-H (LAPACK zheevr over one index), with L the Cholesky factor of
the current X or Z. The factorizations, solves and that eigenvalue call
LAPACK directly, and every info is checked. scipy's LAPACK bindings are
imported at the first call that needs them, not with this module, so a
process that never solves does not load scipy.linalg. A non-finite mu,
mu_aff, Schur complement or step length, or a Schur complement that is not
positive definite, ends the solve with status numerical_failure, and the
iteration cap is 200.
The free scalar t is eliminated inside the Schur system. It works on one
complex Hermitian block directly, as SDPT3 and SeDuMi do, and is written for
the problem sizes of this package (block dimensions up to ~81, a few hundred
constraint rows at most). It is deterministic: fixed initialization and no
randomized pivoting.

Constraint rows come in row groups (:class:`RowGroup`): row p of a group is
lift(B_p), a Hermitian element B_p on the kept factors K of the block with
the identity on the other factors R, and the group stores vec(B_p) as row p
of a coefficient matrix P. A marginal target is one group. A(X) is P applied
to each group's partial trace Tr_R X and A*(y) the sum of the lifts of
y_g P, both through one flat gather (scatter) index per group. The HKM
Schur block of groups s and t is Re P_s T_st P_t^T, where T_st contracts
Z^-1 and X over the factors outside K_s and K_t in one GEMM (see
:meth:`_Rows.schur`). A pair costs O(d_Ks^2 d_Kt^2 (d_Rs d_Rt + m_s) +
m_s m_t d_Kt^2) instead of the O(m n^3 + m^2 n^2) of dense rows on a block
of dimension n. At one BLAS thread on a 2-vCPU Xeon guest an iteration
takes ~0.31 ms on a qubit compatibility decision (m = 28, n = 8), ~1.4 ms
on a qutrit one (m = 153, n = 27) and ~7.3 ms on the qutrit Bell decision
of ``default_rng(11)`` (m = 289, n = 81), the O(m^3) Cholesky
factorization of S included. The corrector step is projected onto the
primal equations with the rows' Gram matrix (the kernel at Z^-1 = X = 1),
factored once per solve, so rounding in the Schur solve cannot leave a
primal residual that the path no longer reduces; the predictor, along which
no step is taken, is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod, sqrt
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
DEPENDENT_ROWS = "dependent_rows"

BAND = 1e-7
"""Default half-width eps of the Marginal band around zero slack; the one
tolerance a caller sets (``eps=``, the CLI's ``--eps``)."""

GAP_TOL = 1e-7
"""Loosest relative duality-gap target of the solver. A solve targets
min(GAP_TOL, eps / 10), 1e-8 at the default band: a tenth of the band, so that
slack noise cannot move a boundary problem across the band edge, and never
looser than GAP_TOL however wide the band."""

FEAS_TOL = 1e-9
"""Primal and dual residual an optimal iterate must reach."""

WITNESS_PSD = 1e-8
"""Eigenvalue slack every reported witness must satisfy: X >= -WITNESS_PSD."""

WITNESS_RESIDUAL = 1e-6
"""Largest constraint residual every reported witness may have."""

DEPENDENT_PIVOT = 1e-10
"""Squared Gram pivot, relative to the mean squared row norm, at or below which
a row counts as a combination of the rows before it."""

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
    """One group's rows; take[r, (a, b)] is the flat index of X[(a, r), (b, r)]
    for kept row a, kept column b and rest r."""

    rows: slice
    take: np.ndarray
    d_kept: int
    d_rest: int


class _Pair(NamedTuple):
    """Flat gather indices of the Schur block of parts i <= j (see :meth:`_Rows.schur`)."""

    i: int
    j: int
    zinv: np.ndarray
    x: np.ndarray
    t: np.ndarray


def _frozen_index(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _structure(
    dims: tuple[int, ...], layout: tuple[tuple[int, tuple[int, ...]], ...]
) -> tuple[int, tuple[_Part, ...], tuple[_Pair, ...]]:
    """Row count, parts, and pairs of parts.

    dims are the block's factor dimensions; layout holds, per group, its row
    count and its kept factors.
    """
    nf = len(dims)
    n = prod(dims)
    index = np.arange(n).reshape(dims)
    parts, full, start = [], [], 0
    for m_g, kept in layout:
        if m_g:
            rest = tuple(f for f in range(nf) if f not in kept)
            d_kept, d_rest = prod(dims[k] for k in kept), prod(dims[r] for r in rest)
            # full[a, r]: the block index of kept index a and rest index r
            full.append(index.transpose(kept + rest).reshape(d_kept, d_rest))
            take = full[-1].T[:, :, None] * n + full[-1].T[:, None, :]
            parts.append(_Part(
                slice(start, start + m_g), _frozen_index(take.reshape(d_rest, -1)), d_kept, d_rest
            ))
        start += m_g
    pairs = []
    for i, j in ((i, j) for i in range(len(parts)) for j in range(i, len(parts))):
        fs, ft = full[i], full[j]
        ks, rs, kt, rt = fs.shape + ft.shape
        # Z^-1[(b, r_s), (c, r_t)] at [(b, c), (r_s, r_t)] and X[(d, r_t), (a, r_s)]
        # at [(r_s, r_t), (d, a)]: lift(B_i) ties a = b outside K_s and lift(B_j)
        # ties c = d outside K_t. Their product G[(b, c), (d, a)] is gathered
        # into T_st[(a, b), (c, d)].
        zinv = fs[:, None, :, None] * n + ft[None, :, None, :]
        x = ft.T[None, :, :, None] * n + fs.T[:, None, None, :]
        t = np.arange(ks * kt * kt * ks).reshape(ks, kt, kt, ks).transpose(3, 0, 1, 2)
        pairs.append(_Pair(
            i, j, _frozen_index(zinv.reshape(ks * kt, rs * rt)),
            _frozen_index(x.reshape(rs * rt, kt * ks)), _frozen_index(t.reshape(ks * ks, kt * kt)),
        ))
    return start, tuple(parts), tuple(pairs)


class _Rows:
    """The equality operator of a problem, applied through its row groups."""

    def __init__(self, dims: Sequence[int], groups: Sequence[RowGroup]):
        dims = tuple(int(d) for d in dims)
        layout = tuple((len(g.rhs), tuple(int(k) for k in g.kept)) for g in groups)
        self.m, self.parts, self.pairs = _structure(dims, layout)
        self.n = prod(dims)
        self.coeffs = [np.ascontiguousarray(g.coeffs, dtype=complex) for g in groups if len(g.rhs)]
        self.rhs = np.concatenate([np.asarray(g.rhs, dtype=float) for g in groups])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A(X): each group's coefficients of its partial trace."""
        out = np.empty(self.m)
        x = np.asarray(x, dtype=complex).reshape(-1)
        for part, c in zip(self.parts, self.coeffs):
            kept = x.take(part.take).sum(axis=0)
            # Re<B, Tr_R X> as a real dot product over interleaved real and imaginary parts
            out[part.rows] = c.view(float) @ kept.view(float)
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y): the sum of the lifts of y_g P over the groups."""
        out = np.zeros(self.n * self.n, dtype=complex)
        for part, c in zip(self.parts, self.coeffs):
            # the entries of one lift are distinct, so += adds each once
            out[part.take] += (y[part.rows] @ c.view(float)).view(complex)
        return out.reshape(self.n, self.n)

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
        GEMM; its operands and T_st are gathered through the flat indices of
        the :class:`_Pair`. The block is Re P_s T_st P_t^T. When both groups keep every
        factor the sum is empty and T_st is the outer product Z^-1 (x) X.
        """
        schur = np.empty((self.m, self.m))
        zinv, x = np.asarray(zinv).reshape(-1), np.asarray(x).reshape(-1)
        for pair in self.pairs:
            s, t = self.parts[pair.i], self.parts[pair.j]
            p, q = self.coeffs[pair.i], self.coeffs[pair.j]
            tst = (zinv.take(pair.zinv) @ x.take(pair.x)).reshape(-1).take(pair.t)
            # Re(u . v) = Re<conj u, v>, a real dot product over interleaved parts
            block = (p @ tst).conj().view(float) @ q.view(float).T
            schur[s.rows, t.rows] = block
            if pair.i != pair.j:
                schur[t.rows, s.rows] = block.T
        return (schur + schur.T) / 2

    def holds(self, x: np.ndarray) -> bool:
        """Every row holds to WITNESS_RESIDUAL and X is PSD to -WITNESS_PSD."""
        if float(np.max(np.abs(self(x) - self.rhs))) > WITNESS_RESIDUAL:
            return False
        return float(np.linalg.eigvalsh(x)[0]) >= -WITNESS_PSD


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


class _Lapack:
    """Stands in for scipy.linalg.lapack until its first attribute lookup, which
    imports the module and binds it to the global ``lapack`` in this stand-in's
    place: processes that never solve do not load scipy.linalg, and every later
    LAPACK call finds the module with a plain global lookup."""

    def __getattr__(self, name: str):
        global lapack
        from scipy.linalg import lapack

        return getattr(lapack, name)


lapack = _Lapack()


def _checked(info: int, failure: str = "LAPACK reported a failure") -> None:
    """Raise for a LAPACK info as scipy's wrappers do: LinAlgError(failure) when
    the matrix is at fault (info > 0), ValueError for an illegal argument."""
    if info > 0:
        raise np.linalg.LinAlgError(failure)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of an internal LAPACK call")


def _cholesky(s: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of an exactly symmetric positive definite s, in s's storage."""
    # s.T is s itself in Fortran order, so LAPACK factors it without a copy
    factor, info = lapack.dpotrf(s.T, clean=0, overwrite_a=1)
    _checked(info, "matrix is not positive definite")
    return factor


def _cho_solve(factor: np.ndarray, r: np.ndarray) -> np.ndarray:
    u, info = lapack.dpotrs(factor, r)
    _checked(info)
    return u


def _inverse_factor(l: np.ndarray) -> np.ndarray:
    """l^-1 of a lower triangular Cholesky factor l."""
    inv, info = lapack.ztrtri(l, lower=1)
    _checked(info, "a Cholesky factor is singular")
    return inv


def _step_to_boundary(linv: np.ndarray, ds: np.ndarray) -> float:
    """sup { a >= 0 : s + a*ds >= 0 } for s = l l^H > 0 Hermitian, given linv = l^-1.

    Only the smallest eigenvalue of l^-1 ds l^-H is computed. Raises
    LinAlgError when the bound is not a number.
    """
    m = linv @ ds @ linv.conj().T
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("step length is not a number")
    # m.T is the conjugate of m, with the same eigenvalues, in Fortran order
    w, _, _, _, info = lapack.zheevr(m.T, compute_v=0, range="I", il=1, iu=1, overwrite_a=1)
    _checked(info, "the eigenvalue solver did not converge")
    if w[0] >= 0:
        return np.inf
    return -1.0 / w[0]


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
        factor, info = lapack.zpotrf(moved, lower=1)
        if info > 0:  # not numerically positive definite
            alpha /= 2
            continue
        _checked(info)
        return moved, factor, alpha
    raise np.linalg.LinAlgError("no step length keeps the iterate positive definite")


def _newton(
    rows: _Rows,
    a_free: np.ndarray,
    cho: np.ndarray,
    w: np.ndarray,
    zinv: np.ndarray,
    x: np.ndarray,
    core: np.ndarray,
    residuals: tuple[np.ndarray, np.ndarray, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The HKM direction (dX, dy, dZ, dt) whose linearized complementarity is core.

    core is the dX the direction would take at dy = 0. cho is the Cholesky
    factor of the Schur complement, a_free holds the rows' free coefficients a
    and w = S^-1 a; residuals are (r_p, r_d, r_f).
    """
    r_p, r_d, r_f = residuals
    u = _cho_solve(cho, rows(core) - r_p)
    dt = (r_f - float(a_free @ u)) / float(a_free @ w)
    dy = u + dt * w
    lifted = rows.adjoint(dy)
    return core - _herm(zinv @ lifted @ x), dy, lifted - r_d, dt


def _ipm(rows: _Rows, *, gap_tol: float, max_iterations: int) -> SdpSolution:
    """Run the interior-point method on the slack program of row groups.

    The program is max t s.t. A(Y) + a*t = b, Y >= 0, with a the rows' free
    coefficients; the free scalar t is eliminated inside the Schur system.
    Nothing is pruned, so the returned dual vector is indexed by the rows in
    group order. Linearly dependent rows, which an inconsistent equality
    system always has, end the solve before the first iteration with status
    dependent_rows; a non-finite mu, Schur matrix or step length ends it with
    numerical_failure.
    """
    n = rows.n
    m = rows.m
    b = rows.rhs
    a_free = rows.free_coeffs()
    b_scale = 1.0 + sqrt(float(b @ b))
    eye = np.eye(n, dtype=complex)

    init_scale = max(float(np.max(np.abs(b))) / n, 1e-2)
    x = init_scale * eye
    z = eye
    # the Cholesky factors of the two scaled identities
    lx = np.sqrt(init_scale) * eye
    lz = eye
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
    if not np.isfinite(gram).all():
        raise ValueError("array must not contain infs or NaNs")
    trace = np.trace(gram)
    gram.flat[:: m + 1] += 1e-14 * trace / m
    try:
        gram_cho = _cholesky(gram)
    except np.linalg.LinAlgError:
        # every row is zero: there are no equations to iterate on
        max_iterations, status = 0, NUMERICAL_FAILURE
    else:
        # a collapsed pivot means a row lies in the span of the rows before
        # it: the system is dependent, and inconsistent unless the right-hand
        # sides happen to agree
        if float(np.min(np.diagonal(gram_cho))) ** 2 <= DEPENDENT_PIVOT * trace / m:
            max_iterations, status = 0, DEPENDENT_ROWS

    for it in range(1, max_iterations + 1):
        residuals = (r_p, r_d, r_f)
        try:
            # inverse Cholesky factors: Z^-1 and the four step lengths use them
            lzinv, lxinv = _inverse_factor(lz), _inverse_factor(lx)
            zinv = lzinv.conj().T @ lzinv
            mu = np.vdot(z, x).real / n
            schur = rows.schur(zinv, x)
            if not (0.0 < mu < np.inf and np.isfinite(schur).all()):
                raise np.linalg.LinAlgError("mu or the Schur complement is not finite")
            schur.flat[:: m + 1] += 1e-14 * np.trace(schur) / m
            cho = _cholesky(schur)
            w = _cho_solve(cho, a_free)
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
            correction = _cho_solve(gram_cho, r_p - rows(dx) - a_free * dt)
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
        pinf = sqrt(float(r_p @ r_p)) / b_scale
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
    -WITNESS_PSD, residuals <= WITNESS_RESIDUAL); an in-band slack
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
    eps: float = BAND,
    finish: Callable[[np.ndarray], np.ndarray] = lambda x: x,
    max_iterations: int = 200,
) -> FeasibilityReport:
    """Decide existence of a PSD operator satisfying row groups.

    dims are the operator's tensor factor dimensions, which the groups' kept
    sets index. The dual certificate is indexed by the rows in group order.

    Unless t <= -eps, the witness X = Y + t*1 (eigenvalue-clipped when
    |t| < eps) goes through finish, the caller's last change to it, and is
    validated once: feasible if it holds, else SdpError when t >= eps and
    Marginal in the band |t| < eps.

    Precondition: the rows are linearly independent and their span fixes the
    trace. Dependent rows, and so every inconsistent system, raise SdpError
    with status dependent_rows before the first iteration. The span is not
    checked: an unbounded slack program (such as a lone traceless row) does
    not converge and raises SdpError.
    """
    rows = _Rows(dims, groups)
    solution = _ipm(rows, gap_tol=min(GAP_TOL, eps / 10.0), max_iterations=max_iterations)
    if solution.status != OPTIMAL:
        reason = (
            "the constraint rows are linearly dependent"
            if solution.status == DEPENDENT_ROWS
            else "feasibility solve did not converge"
        )
        raise SdpError(
            f"{reason}: status {solution.status} after "
            f"{solution.iterations} iterations (primal residual {solution.primal_residual:.3e}, "
            f"dual residual {solution.dual_residual:.3e}, gap {solution.gap:.3e})"
        )

    t_hat = solution.free_value
    dual = solution.dual
    if t_hat <= -eps:
        return FeasibilityReport(INFEASIBLE, t_hat, None, dual, solution)
    x = solution.blocks[0] + t_hat * np.eye(rows.n)
    x = finish(x if t_hat >= eps else _clip_psd(x))
    if rows.holds(x):
        return FeasibilityReport(FEASIBLE, t_hat, x, dual, solution)
    if t_hat >= eps:
        raise SdpError("feasible verdict failed independent witness validation")
    return FeasibilityReport(MARGINAL, t_hat, None, dual, solution)
