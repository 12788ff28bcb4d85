"""Prescribed-marginal feasibility as one slack program over a Hermitian PSD block.

Every question of this package asks whether a PSD operator X satisfies
affine rows A(X) = b. The one program solved here is its slack program::

    max  t
    s.t. A(Y) + a * t = b,   Y >= 0,   t free

with Y = X - t*1 and a_p the trace of row p's operator. The optimal t is
the largest smallest eigenvalue of an X that satisfies the rows, so its sign
decides feasibility; :func:`_group_feasibility` reads the witness back as
Y + t*1, applies the caller's last change to it and only then validates it,
once. Every decision returns one flat :class:`Report`: the verdict in the
question's own words (feasible/infeasible here; compatible/incompatible,
unsteerable/steerable or local/nonlocal in :mod:`choimarg.marginals`) or
``marginal``, the slack, the witness, the dual vector and the record of the
solve (iterations, gap, residuals, dual objective). Callers pass rows that
meet the precondition of :class:`_Operator`, as the rows of
:mod:`choimarg.marginals` do by construction, so the rows' Gram matrix is
diagonal and nothing here prunes, probes or factors it.

The one tolerance a caller sets is ``eps`` (default :data:`BAND`), the
half-width of the marginal band around zero slack; it must be finite and
positive (else ValueError), and the solve targets a relative gap of
min(:data:`GAP_TOL`, eps / 10). The rest are fixed: the residual target
:data:`FEAS_TOL` and the witness contract (every reported witness is PSD to
-:data:`WITNESS_PSD` and meets each row to :data:`WITNESS_RESIDUAL`).
The construction checks of the inputs use the constants of
:mod:`choimarg.linalg`.

The solver is a primal-dual path-following interior-point method with the
HKM direction (linearize XZ = mu*1, take the Hermitian part of the X step)
and Mehrotra's predictor-corrector (Mehrotra 1992) with the SDPT3
safeguards (Toh, Todd and Tutuncu 1999). Each iteration factors the Schur
complement once and solves with it twice. The predictor is the affine
direction (target 0); its step lengths give mu_aff and the centering
sigma = clamp(mu_aff/mu, 0, 1)^e. The exponent e = max(1, 3 min(alpha_p_aff,
alpha_d_aff)^2) adapts to the affine step as in SDPT3 (Toh, Todd and
Tutuncu 1999; Tutuncu, Toh and Todd 2003): Mehrotra's cube after a full
affine step, a milder cut of mu after a short one. The corrector targets
sigma*mu and subtracts the second-order term herm(Z^-1 dZ_aff dX_aff). It goes a fraction
gamma = 0.9 + 0.099*min(alpha_p_aff, alpha_d_aff) of the way to the cone
boundary, at most 0.999 (SDPT3's 0.09 caps it at 0.99, which holds the
final iterations to a 100-fold cut of mu each), halved while rounding leaves
an iterate that is not numerically positive definite. The solve starts at
a strictly feasible, centred point in closed form, as Helmberg, Rendl,
Vanderbei and Wolkowicz (1996) do: the dual start y0 = e_0 / a_0, so
Z = A*(y0) = 1/n, fixed by the operator, and the least-norm primal solution
(b divided by the diagonal Gram matrix) shifted along the identity
(:func:`_primal_start`). The dual iterate stays on
Z = A*(y) by construction: the start is exactly dual feasible and every
step moves Z by A*(dy), so no iteration forms or removes a dual residual.
The drift max|Z - A*(y)| is measured once, at the iterate that passes every
other stopping test, where it still gates optimal. A step length takes only
the smallest eigenvalue of L^-1 dS L^-H, with L the Cholesky factor of the
current X or Z. Factorizations, inverse factors, triangular solves and that
eigenvalue call LAPACK directly, every info checked (:func:`_checked`). A
non-finite mu, mu_aff, Schur complement or step length, or a Schur
complement that is not positive definite, ends the solve with status
numerical_failure, and the iteration cap is :data:`ITERATION_CAP` (200).
The free scalar t is eliminated inside the Schur system. It works on one
block directly, as SDPT3 and SeDuMi do: a real symmetric one when the
coefficients are real (below), else a complex Hermitian one. It is written
for the problem sizes of this package (block dimensions up to ~81, a few
hundred constraint rows at most). It is deterministic: a closed-form start and no
randomized pivoting. A qubit depolarizing pair takes 4 iterations, at its
compatibility threshold and away from it; a qutrit pair takes 4
(depolarizing or unitary) or 8-11 (random Kraus rank 2 or 3).

Real data. When every coefficient a caller passes has a zero imaginary part
(every B_p real symmetric), X -> conj(X) maps the feasible set onto itself
and keeps the smallest eigenvalue, so Re X is optimal whenever X is:
:class:`_Operator` holds the coefficients in float64 and the solve runs on a
real symmetric block, the symmetry reduction of an SDP (Gatermann and
Parrilo 2004). Any nonzero imaginary coefficient keeps the complex
Hermitian block. The choice is made from the input alone.

Constraint rows come in row groups: row p of a group is lift(B_p), a
Hermitian element B_p on the kept factors K of the block with the identity
on the other factors R, and the group stores vec(B_p) as row p of a
coefficient matrix P. A marginal target is one group. A(X) is P applied
to each group's partial trace Tr_R X and A*(y) the sum of the lifts of
y_g P, both through one flat gather (scatter) index per group. The HKM
Schur block of groups s and t is Re P_s T_st P_t^T, where T_st contracts
Z^-1 and X over the factors outside K_s and K_t in one GEMM of the two
with their factor axes reordered (see :meth:`_Operator.schur`). A pair
costs O(d_Ks^2 d_Kt^2 (d_Rs d_Rt + m_s) + m_s m_t d_Kt^2) instead of the
O(m n^3 + m^2 n^2) of dense rows on a block of dimension n. On small
blocks the group loop's Python calls cost more than that arithmetic, so
:func:`_operator` holds the rows densely instead (:class:`_DenseOperator`:
the stack of the m lifts lift(B_p), A(X) and A*(y) one matrix product
each, the Schur complement a few) whenever the stack has at most
:data:`DENSE_ENTRIES` floats: m n^2, doubled on a complex block; its last
Schur product runs in row blocks of :data:`SERIAL_GEMM` multiply-adds. The choice is made from n, m and the dtype alone, as
Fujisawa, Kojima and Nakata (1997) choose the Schur formula per problem
from its cost. Qubit compatibility, steering and Bell decisions (n = 8 and
16) take dense rows; qutrit compatibility (n = 27) and complex
qubit-to-qutrit compatibility (n = 18, m = 68) keep row groups, where the
dense Schur build costs more than the loop. At one BLAS thread on a 2-vCPU
Xeon guest, in a fast host period, a whole decision (rows, solve and
validated witness) takes ~0.8 ms on a real qubit compatibility one
(m = 17, n = 8, dense; 4 iterations) and ~0.9 ms when it is compatible or a
cloning bisection step that builds its depolarizing channel, ~1.4 ms on a
real qubit Bell one (m = 29, n = 16, dense; 5), ~2.2 ms on a real qutrit
compatibility one (m = 84, n = 27; 4 on a depolarizing pair, ~2.4 ms on a
unitary pair in its real gauge), ~4.8 ms on a complex one (m = 153,
n = 27; 4 on a unitary pair without the gauge, ~10 ms and 9 on a random
Kraus-rank-3 pair, ~1.15 ms per iteration) and ~54 ms on the complex
qutrit Bell decision of ``default_rng(11)`` (m = 289, n = 81; 8 iterations
of ~6.7 ms, the O(m^3) Cholesky factorization of S included). The
corrector step is projected onto the primal equations, one division by the
diagonal Gram matrix (the Schur complement at Z^-1 = X = 1), so rounding in
the Schur solve cannot leave a primal residual that the path no longer
reduces; the predictor, along which no step is taken, is not.

Per-shape costs are paid once: an :class:`_Operator` holds, read-only,
everything the coefficients fix, and a :class:`_Rows` adds one problem's
right-hand sides b. :mod:`choimarg.marginals` caches the operators per shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from math import prod, sqrt
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Report",
    "SdpError",
    "FEASIBLE",
    "INFEASIBLE",
    "MARGINAL",
]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"

BAND = 1e-7
"""Default half-width eps of the marginal band around zero slack; the one
tolerance a caller sets (``eps=``, the CLI's ``--eps``)."""

GAP_TOL = 1e-7
"""Loosest relative duality-gap target of the solver. A solve targets
min(GAP_TOL, eps / 10), 1e-8 at the default band: a tenth of the band, so that
slack noise cannot move a boundary problem across the band edge, and never
looser than GAP_TOL however wide the band."""

ITERATION_CAP = 200
"""Iterations after which a feasibility solve stops with status max_iterations."""

FEAS_TOL = 1e-9
"""Primal and dual residual an optimal iterate must reach."""

WITNESS_PSD = 1e-8
"""Eigenvalue slack every reported witness must satisfy: X >= -WITNESS_PSD."""

WITNESS_RESIDUAL = 1e-6
"""Largest constraint residual every reported witness may have."""

DENSE_ENTRIES = 32768
"""Largest number of floats (m n^2 rows of n x n lifts, doubled on a complex
block: 256 KB) held as one dense row matrix; larger operators keep row groups."""

SERIAL_GEMM = 1 << 18
"""Multiply-adds of the largest matrix product OpenBLAS runs on one thread
(65536 times its default GEMM_MULTITHREAD_THRESHOLD of 4). The dense Schur
product is taken in row blocks of at most this size: at these sizes waking
BLAS threads costs more than it saves, and a block on one thread rounds the
same whatever thread count the caller set."""

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
MARGINAL = "marginal"


class SdpError(RuntimeError):
    """Raised when the solver cannot certify a verdict."""


@dataclass(frozen=True)
class Report:
    """Verdict of one prescribed-marginal question and the solve that decided it.

    verdict is the question's word for a feasible or an infeasible program, or
    MARGINAL. slack is the optimal t of "max t s.t. X - t*1 >= 0, A(X) = b",
    exact only to the solve's relative gap (below min(GAP_TOL, eps/10), and
    several 1e-9 at the default band), so two equivalent solves, or one after
    a rounding-level change, may differ by a few 1e-9; its sign decides
    outside the band |t| < eps. witness is the primal matrix after the
    caller's last change to it, validated once (PSD to
    -WITNESS_PSD, residuals <= WITNESS_RESIDUAL), and None unless the
    verdict is the feasible word; an in-band slack whose eigenvalue-clipped
    witness fails that check is MARGINAL. dual_certificate is the dual
    vector y, one entry per constraint row in group order; a decision of
    :mod:`choimarg.marginals` gives it on every basis row, 0 on the rows it
    leaves out of a real solve. The rest records the
    optimal iterate: its iteration count, relative gap, primal and dual
    residuals and dual objective b.y.
    """

    verdict: str
    slack: float
    witness: np.ndarray | None
    dual_certificate: np.ndarray
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float
    dual_objective: float


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# constraint rows as row groups
# ---------------------------------------------------------------------------


class _Part(NamedTuple):
    """One group's rows; take[r, (a, b)] is the flat index of X[(a, r), (b, r)]
    for kept row a, kept column b and rest r. In a block viewed as its factor
    tensor (shape dims * 2, rows first), kept and rest are the row axes of the
    kept and the other factors, kept_col and rest_col their column axes."""

    rows: slice
    take: np.ndarray
    d_kept: int
    d_rest: int
    kept: tuple[int, ...]
    rest: tuple[int, ...]
    kept_col: tuple[int, ...]
    rest_col: tuple[int, ...]


def _real(coeffs: Sequence[np.ndarray]) -> bool:
    """Every coefficient has a zero imaginary part."""
    return not any(np.iscomplexobj(c) and np.asarray(c).imag.any() for c in coeffs)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _reordered(a: np.ndarray, axes: tuple[int, ...], rows: int) -> np.ndarray:
    """a's axes in the order ``axes``, as a C-contiguous matrix of ``rows`` rows,
    so that BLAS reads every operand in one layout and rounds alike."""
    return np.ascontiguousarray(a.transpose(axes).reshape(rows, -1))


class _Operator:
    """The equality operator A of row groups and what a solve derives from A alone.

    groups are (kept, coeffs) pairs: row p of the array coeffs is vec(B_p),
    row-major, on the 0-based ``kept`` factors (ascending), and the row reads
    Re<lift(B_p), X>, lift placing the identity on the other factors. When
    every coefficient has a zero imaginary part, the coefficients are held in
    float64 and dtype is float: the solve runs on a real symmetric block (see
    the module docstring). Otherwise dtype is complex.

    Precondition: the lifts lift(B_p) are pairwise orthogonal and lift(B_0)
    is a multiple of the identity, so only row 0 has nonzero trace: row 0 is
    the normalization row of the orthonormal product bases of
    :mod:`choimarg.marginals`. The rows' Gram matrix G = A A* + a a^T, with a
    the free coefficients Tr lift(B_p), is then diagonal: gram holds its
    diagonal d_rest |B_p|^2 + a_p^2, and free holds a. The dual start of
    every solve (Helmberg, Rendl, Vanderbei and Wolkowicz 1996) is
    y0 = u / a.u with u = G^-1 a, which is e_0 / a_0, with z0 = A*(y0) = 1/n
    and z0's lower Cholesky factor lz0 = 1/sqrt(n), all three in closed form.
    Rows that are not orthogonal but keep row 0 a multiple of the identity
    still solve: their start meets the dual equations exactly and the primal
    ones only approximately, and the path removes that residual as from any
    infeasible start. These arrays are read-only; an operator shared between
    solves (:mod:`choimarg.marginals` keeps two per shape) is given read-only
    coefficients too.
    """

    def __init__(self, dims: Sequence[int], groups: Sequence[tuple[tuple[int, ...], np.ndarray]]):
        self.dims = dims = tuple(int(d) for d in dims)
        nf, n, parts, self.m = len(dims), prod(dims), [], 0
        index = np.arange(n).reshape(dims)
        for kept, c in groups:
            if len(c):
                kept = tuple(int(k) for k in kept)
                rest = tuple(f for f in range(nf) if f not in kept)
                d_kept, d_rest = prod(dims[k] for k in kept), prod(dims[r] for r in rest)
                # full[a, r]: the block index of kept index a and rest index r
                full = index.transpose(kept + rest).reshape(d_kept, d_rest)
                take = full.T[:, :, None] * n + full.T[:, None, :]
                parts.append(_Part(
                    slice(self.m, self.m + len(c)), _read_only(take.reshape(d_rest, -1)),
                    d_kept, d_rest, kept, rest, tuple(k + nf for k in kept), tuple(r + nf for r in rest),
                ))
            self.m += len(c)
        self.n, self.parts = n, tuple(parts)
        coeffs = [np.asarray(c) for _, c in groups if len(c)]
        real = _real(coeffs)
        self.dtype: type = float if real else complex
        self.coeffs = tuple(
            np.ascontiguousarray(c.real if real else c, dtype=self.dtype) for c in coeffs
        )
        free, gram = np.zeros(self.m), np.zeros(self.m)
        for part, c in zip(self.parts, self.coeffs):
            # Tr lift(B_p) = d_rest Tr B_p and |lift(B_p)|^2 = d_rest |B_p|^2
            free[part.rows] = part.d_rest * c[:, :: part.d_kept + 1].sum(axis=1).real
            gram[part.rows] = part.d_rest * np.einsum("ij,ij->i", c.view(float), c.view(float))
        self.free, self.gram = _read_only(free), _read_only(gram + free * free)
        eye = np.eye(self.n, dtype=self.dtype)
        self.y0 = _read_only(np.eye(1, self.m)[0] / free[0])
        self.z0, self.lz0 = _read_only(eye / self.n), _read_only(eye / sqrt(self.n))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A(X): each group's coefficients of its partial trace."""
        out = np.empty(self.m)
        x = np.asarray(x).reshape(-1)
        # Re<B, X> = <B, Re X> for real B
        x = x.real if self.dtype is float else x.astype(complex, copy=False)
        for part, c in zip(self.parts, self.coeffs):
            kept = x.take(part.take).sum(axis=0)
            # Re<B, Tr_R X> as a real dot product over interleaved real and imaginary parts
            out[part.rows] = c.view(float) @ kept.view(float)
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y): the sum of the lifts of y_g P over the groups."""
        out = np.zeros(self.n * self.n, dtype=self.dtype)
        for part, c in zip(self.parts, self.coeffs):
            # the entries of one lift are distinct, so += adds each once
            out[part.take] += (y[part.rows] @ c.view(float)).view(self.dtype)
        return out.reshape(self.n, self.n)

    def schur(self, zinv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """HKM Schur complement S_ij = Re Tr(A_i Z^-1 A_j X).

        For parts s <= t, T_st[(a,b),(c,d)] = sum Z^-1[b,c] X[d,a] over the
        factors outside K_s (where a = b) and outside K_t (where c = d) is one
        GEMM of axis reorders of Z^-1 and X viewed as factor tensors: Z^-1 to
        [(K_s rows, K_t columns), (R_s rows, R_t columns)] and X to
        [(R_s columns, R_t rows), (K_t rows, K_s columns)]. Their product
        G[(b, c), (d, a)] gives T_st = G[b, c, d, a] by one more reorder. The
        block is Re P_s T_st P_t^T. When both groups keep every factor the
        sum is empty and T_st is the outer product Z^-1 (x) X.
        """
        schur = np.empty((self.m, self.m))
        zinv, x = np.asarray(zinv).reshape(self.dims * 2), np.asarray(x).reshape(self.dims * 2)
        for i, j in combinations_with_replacement(range(len(self.parts)), 2):
            s, t = self.parts[i], self.parts[j]
            ks, kt = s.d_kept, t.d_kept
            g = (_reordered(zinv, s.kept + t.kept_col + s.rest + t.rest_col, ks * kt)
                 @ _reordered(x, s.rest_col + t.rest + t.kept + s.kept_col, s.d_rest * t.d_rest))
            u = self.coeffs[i] @ _reordered(g.reshape(ks, kt, kt, ks), (3, 0, 1, 2), ks * ks)
            q = self.coeffs[j]
            # Re(u . q): over interleaved real and imaginary parts when q is complex
            block = u.real @ q.T if q.dtype.kind == "f" else u.conj().view(float) @ q.view(float).T
            if i == j:
                schur[s.rows, s.rows] = (block + block.T) / 2
            else:
                # written as exact transposes, so S is exactly symmetric
                schur[s.rows, t.rows] = block
                schur[t.rows, s.rows] = block.T
        return schur


class _DenseOperator(_Operator):
    """An :class:`_Operator` whose rows are held densely: the read-only stack
    lifted[p] = lift(B_p) of shape (m, n, n), built once from the grouped
    adjoint (row p is A*(e_p)), so the coefficients have one source of truth.

    flat is the stack as an m x n^2 float matrix, real and imaginary parts
    interleaved on a complex block. A(X) is flat @ vec X, A*(y) is y @ flat
    and the Schur complement is Re<A_p, Z^-1 A_q X>, from one GEMM for every
    A_q X, one batched product with Z^-1 and flat times the result in row
    blocks of at most SERIAL_GEMM multiply-adds, symmetrized exactly. It keeps
    the grouped structure, coefficients and start it is built from; only the
    lifted stack is added to them.
    """

    def __init__(self, dims: Sequence[int], groups: Sequence[tuple[tuple[int, ...], np.ndarray]]):
        super().__init__(dims, groups)
        self.lifted = _read_only(np.array([_Operator.adjoint(self, e) for e in np.eye(self.m)]))
        flat = self.lifted.reshape(self.m, -1)
        self.flat = flat if self.dtype is float else flat.view(float)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A(X) = flat @ vec X."""
        x = np.asarray(x).reshape(-1)
        # Re<B, X> = <B, Re X> for real B
        x = x.real if self.dtype is float else x.astype(complex, copy=False).view(float)
        return self.flat @ x

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = y @ flat."""
        return (y @ self.flat).view(self.dtype).reshape(self.n, self.n)

    def schur(self, zinv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """HKM Schur complement S_pq = Re<A_p, Z^-1 A_q X>, exactly symmetric."""
        m, n = self.m, self.n
        w = (zinv @ (self.lifted.reshape(m * n, n) @ x).reshape(m, n, n)).reshape(m, -1)
        # Re<A_p, W_q>: over interleaved real and imaginary parts when A is complex
        w = w.real if self.dtype is float else w.view(float)
        rows = max(1, SERIAL_GEMM // w.size)
        if rows >= m:
            schur = self.flat @ w.T
        else:
            schur = np.concatenate([self.flat[p:p + rows] @ w.T for p in range(0, m, rows)])
        return (schur + schur.T) / 2


def _operator(
    dims: Sequence[int], groups: Sequence[tuple[tuple[int, ...], np.ndarray]]
) -> _Operator:
    """The operator of row groups: a :class:`_DenseOperator` when its lifted rows
    hold at most DENSE_ENTRIES floats (m n^2, twice that on a complex block),
    else the grouped :class:`_Operator`."""
    n, m = prod(int(d) for d in dims), sum(len(c) for _, c in groups)
    entries = m * n * n * (1 if _real([c for _, c in groups]) else 2)
    return (_DenseOperator if entries <= DENSE_ENTRIES else _Operator)(dims, groups)


class _Rows:
    """The rows of one problem: the operator A of its row groups, which may be
    shared by every problem of their shape, and the right-hand sides b, in
    group order."""

    def __init__(self, op: _Operator, rhs: np.ndarray):
        if len(rhs) != op.m:
            raise ValueError(f"{len(rhs)} right-hand sides for {op.m} rows")
        self.op = op
        self.rhs = np.asarray(rhs, dtype=float)

    def holds(self, x: np.ndarray, psd: float = WITNESS_PSD) -> bool:
        """Every row holds to WITNESS_RESIDUAL and X is PSD to -psd.

        On a real block X must be exactly real: a caller that leaves out the
        purely imaginary rows of a program invariant under X -> conj(X) (as
        :mod:`choimarg.marginals` does) relies on this for those rows to hold.
        """
        if self.op.dtype is float:
            if x.imag.any():
                return False
            x = x.real
        if float(np.max(np.abs(self.op(x) - self.rhs))) > WITNESS_RESIDUAL:
            return False
        return float(np.linalg.eigvalsh(x)[0]) >= -psd


# ---------------------------------------------------------------------------
# the interior-point method
# ---------------------------------------------------------------------------


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


def _lower_factor(s: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive definite s, real when s is."""
    factor, info = (lapack.zpotrf if s.dtype.kind == "c" else lapack.dpotrf)(s, lower=1)
    _checked(info, "matrix is not positive definite")
    return factor


def _cho_solve(factor: np.ndarray, r: np.ndarray) -> np.ndarray:
    """S^-1 r, given the upper Cholesky factor U of S = U^T U (:func:`_cholesky`).

    Two triangular solves (dtrtrs), U^T z = r and then U u = z, which read only
    U's upper triangle: on one right-hand side they take about half of dpotrs's
    time at m = 153 and m = 289.
    """
    z, info = lapack.dtrtrs(factor, r, trans=1)
    _checked(info, "a Cholesky factor is singular")
    u, info = lapack.dtrtrs(factor, z, overwrite_b=1)
    _checked(info, "a Cholesky factor is singular")
    return u


def _inverse_factor(l: np.ndarray) -> np.ndarray:
    """l^-1 of a lower triangular Cholesky factor l, real or complex."""
    inv, info = (lapack.ztrtri if l.dtype.kind == "c" else lapack.dtrtri)(l, lower=1)
    _checked(info, "a Cholesky factor is singular")
    return inv


def _step_to_boundary(linv: np.ndarray, ds: np.ndarray) -> float:
    """sup { a >= 0 : s + a*ds >= 0 } for s = l l^H > 0 Hermitian, given linv = l^-1.

    Only the smallest eigenvalue of l^-1 ds l^-H is computed (zheevr, or dsyevr
    when both are real). Raises
    LinAlgError when the bound is not a number.
    """
    m = linv @ ds @ linv.conj().T
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("step length is not a number")
    # m.T is the conjugate of m, with the same eigenvalues, in Fortran order
    eigen = lapack.zheevr if m.dtype.kind == "c" else lapack.dsyevr
    w, _, _, _, info = eigen(m.T, compute_v=0, range="I", il=1, iu=1, overwrite_a=1)
    _checked(info, "the eigenvalue solver did not converge")
    if w[0] >= 0:
        return np.inf
    return -1.0 / w[0]


def _advance(
    x: np.ndarray, step: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The block moved by alpha * step, its Cholesky factor and the alpha taken;
    real when both are.

    Near the cone boundary, rounding can leave a block that is not numerically
    positive definite after a step that stays inside in exact arithmetic; alpha
    is then halved. Raises LinAlgError when 30 halvings do not suffice.
    """
    for _ in range(30):
        moved = _herm(x + alpha * step)
        try:
            return moved, _lower_factor(moved), alpha
        except np.linalg.LinAlgError:  # not numerically positive definite
            alpha /= 2
    raise np.linalg.LinAlgError("no step length keeps the iterate positive definite")


def _newton(
    op: _Operator,
    a_free: np.ndarray,
    cho: np.ndarray,
    w: np.ndarray,
    zinv: np.ndarray,
    x: np.ndarray,
    core: np.ndarray,
    residuals: tuple[np.ndarray, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The HKM direction (dX, dy, dZ, dt) whose linearized complementarity is core.

    core is the dX the direction would take at dy = 0. cho is the Cholesky
    factor of the Schur complement, a_free holds the rows' free coefficients a
    and w = S^-1 a; residuals are (r_p, r_f), with r_f = 1 - a.y. The dual
    iterate is kept on Z = A*(y), so the direction has no dual residual to
    remove and dZ = A*(dy).
    """
    r_p, r_f = residuals
    u = _cho_solve(cho, op(core) - r_p)
    dt = (r_f - float(a_free @ u)) / float(a_free @ w)
    dy = u + dt * w
    dz = op.adjoint(dy)
    return core - _herm(zinv @ dz @ x), dy, dz, dt


def _primal_start(op: _Operator, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """A strictly feasible primal start (Y0, Y0's lower Cholesky factor, t0).

    v = G^-1 b, b divided by the diagonal Gram matrix, gives the least-norm
    solution (A*(v), a.v) of A(Y) + a*t = b. It is shifted along (-1, +1),
    which keeps every row as a = A(1), until Y0's spectrum lies in
    [delta, 2 delta]: delta is the larger of its spread and s = a.b / a.a (at
    least 1e-2), the multiple of the identity that best fits the rows.
    """
    v = b / op.gram
    y = _herm(op.adjoint(v))
    lo, hi = np.linalg.eigvalsh(y)[[0, -1]]
    a_free = op.free
    delta = max(hi - lo, float(a_free @ b) / float(a_free @ a_free), 1e-2)
    x = y + (delta - lo) * np.eye(op.n)
    return x, _lower_factor(x), float(a_free @ v + lo - delta)


def _measures(
    op: _Operator, b: np.ndarray, x: np.ndarray, y: np.ndarray, t: float
) -> tuple[np.ndarray, float, float, float, float]:
    """r_p = b - A(X) - a*t, r_f = 1 - a.y, the primal residual |r_p| / (1 + |b|),
    the relative gap |b.y - t| / (1 + |t|) and the dual objective b.y of an iterate."""
    r_p = b - op(x) - op.free * t
    dual = float(b @ y)
    pinf = sqrt(float(r_p @ r_p)) / (1.0 + sqrt(float(b @ b)))
    return r_p, 1.0 - float(op.free @ y), pinf, abs(dual - t) / (1.0 + abs(t)), dual


def _dual_residual(op: _Operator, y: np.ndarray, z: np.ndarray, r_f: float) -> float:
    """max(max|Z - A*(y)|, |r_f|)."""
    return max(float(np.max(np.abs(z - op.adjoint(y)))), abs(r_f))


def _ipm(rows: _Rows, *, gap_tol: float, max_iterations: int) -> Report:
    """Run the interior-point method on the slack program of row groups.

    The program is max t s.t. A(Y) + a*t = b, Y >= 0, with a the rows' free
    coefficients. The returned report's verdict is the solver status
    (optimal, max_iterations or numerical_failure), its slack t and its
    witness the last Y; :func:`_group_feasibility` replaces both. Nothing is
    pruned, so the dual vector is indexed by the rows in group order. The
    start, the centering and the dual iterate are those of the module
    docstring. A report after any number of iterations, 0 included, carries
    the residuals and gap of its iterate.
    """
    op, b = rows.op, rows.rhs
    n, m, a_free = op.n, op.m, op.free
    status = MAX_ITERATIONS
    it = 0
    x, lx, t = _primal_start(op, b)
    y, z, lz = op.y0, op.z0, op.lz0
    r_p, r_f, pinf, relgap, dual = _measures(op, b, x, y, t)

    for it in range(1, max_iterations + 1):
        try:
            # inverse Cholesky factors: Z^-1 and the four step lengths use them
            lzinv, lxinv = _inverse_factor(lz), _inverse_factor(lx)
            zinv = lzinv.conj().T @ lzinv
            mu = np.vdot(z, x).real / n
            schur = op.schur(zinv, x)
            if not (0.0 < mu < np.inf and np.isfinite(schur).all()):
                raise np.linalg.LinAlgError("mu or the Schur complement is not finite")
            diagonal = schur.reshape(-1)[:: m + 1]
            diagonal += 1e-14 * diagonal.sum() / m
            cho = _cholesky(schur)
            w = _cho_solve(cho, a_free)
            if not float(a_free @ w) > 0:
                raise np.linalg.LinAlgError("the Schur complement is not positive definite")

            # predictor: the affine direction (target 0) sets the centering and
            # the second-order term; it is not projected, as no step is taken
            dx_aff, _, dz_aff, _ = _newton(op, a_free, cho, w, zinv, x, -x, (r_p, r_f))
            alpha_p = min(1.0, _step_to_boundary(lxinv, dx_aff))
            alpha_d = min(1.0, _step_to_boundary(lzinv, dz_aff))
            mu_aff = np.vdot(z + alpha_d * dz_aff, x + alpha_p * dx_aff).real / n
            if not np.isfinite(mu_aff):
                raise np.linalg.LinAlgError("the predicted mu is not finite")
            step_aff = min(alpha_p, alpha_d)
            sigma = min(max(mu_aff / mu, 0.0), 1.0) ** max(1.0, 3.0 * step_aff**2)
            gamma = 0.9 + 0.099 * step_aff

            # corrector: centering sigma*mu and the second-order term
            core = sigma * mu * zinv - x - _herm(zinv @ dz_aff @ dx_aff)
            dx, dy, dz, dt = _newton(op, a_free, cho, w, zinv, x, core, (r_p, r_f))
            correction = (r_p - op(dx) - a_free * dt) / op.gram
            dx = dx + op.adjoint(correction)
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

        r_p, r_f, pinf, relgap, dual = _measures(op, b, x, y, t)
        if pinf <= FEAS_TOL and abs(r_f) <= FEAS_TOL and relgap <= gap_tol:
            dinf = _dual_residual(op, y, z, r_f)
            if dinf <= FEAS_TOL:
                status = OPTIMAL
                break
    if status != OPTIMAL:
        dinf = _dual_residual(op, y, z, r_f)

    return Report(
        verdict=status,
        slack=t,
        witness=x,
        dual_certificate=y,
        iterations=it,
        gap=relgap,
        primal_residual=pinf,
        dual_residual=dinf,
        dual_objective=dual,
    )


# ---------------------------------------------------------------------------
# Hermitian feasibility with slack
# ---------------------------------------------------------------------------


def _clip_psd(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def _group_feasibility(
    rows: _Rows,
    *,
    words: tuple[str, str],
    eps: float = BAND,
    finish: Callable[[np.ndarray], np.ndarray] = lambda x: x,
    holds: Callable[[np.ndarray], bool] | None = None,
    psd: float = WITNESS_PSD,
) -> Report:
    """Decide existence of a PSD operator satisfying the rows of row groups.

    words are the question's verdicts for a feasible and an infeasible
    program. The dual certificate is indexed by the rows in group order.

    Unless t <= -eps, the witness X = Y + t*1 (eigenvalue-clipped when
    |t| < eps) goes through finish, the caller's last change to it, and is
    validated once, by holds (default ``rows.holds`` to -psd; a caller that
    solves an equivalent program checks the finished witness on its own rows):
    feasible if it holds, else SdpError when t >= eps and MARGINAL in the
    band |t| < eps. An eps that is not finite and positive raises ValueError,
    and a solve that does not end optimal raises SdpError with its status,
    iterations, residuals and gap.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and strictly positive, got {eps!r}")
    solve = _ipm(rows, gap_tol=min(GAP_TOL, eps / 10.0), max_iterations=ITERATION_CAP)
    if solve.verdict != OPTIMAL:
        raise SdpError(
            f"feasibility solve did not converge: status {solve.verdict} after "
            f"{solve.iterations} iterations (primal residual {solve.primal_residual:.3e}, "
            f"dual residual {solve.dual_residual:.3e}, gap {solve.gap:.3e})"
        )

    feasible, infeasible = words
    t_hat = solve.slack
    if t_hat <= -eps:
        return replace(solve, verdict=infeasible, witness=None)
    x = solve.witness + t_hat * np.eye(rows.op.n)
    x = finish(np.asarray(x if t_hat >= eps else _clip_psd(x), dtype=complex))
    if holds(x) if holds else rows.holds(x, psd):
        return replace(solve, verdict=feasible, witness=x)
    if t_hat >= eps:
        raise SdpError("feasible verdict failed independent witness validation")
    return replace(solve, verdict=MARGINAL, witness=None)
