"""Dense complex linear algebra for Hermitian operators on tensor-product spaces.

Conventions used by the whole package
-------------------------------------

* Operators are dense complex ``numpy`` arrays in the computational basis,
  row-major, with tensor factors ordered left to right.
* Tensor factors are numbered ``1..n`` left to right. Partial traces take
  1-based factor indices, matching the subscripts Tr_1, Tr_2, Tr_24 of the
  usual marginal equations. This is the single place the convention is set;
  every higher module follows it.
* ``dims`` always means the ordered tuple of local dimensions whose product
  is the matrix dimension. Each is an integral number of at least 1
  (:func:`check_dim`).

Dimensions beyond ~64 and sparse storage are out of scope.

Cone membership (PSD, trace preservation, unitarity) is exact mathematics;
floating point needs explicit slack. The construction checks of the package
(``check_*``, ``Channel``, ``choi_from_kraus``, ``measure_prepare`` and
``MarginalSpec``) use two fixed constants, :data:`HERMITIAN_TOL` and
:data:`PSD_TOL`. The solver's tolerances live in :mod:`choimarg.sdp`; the
only one a caller sets is the band half-width ``eps`` of its decisions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
"""Largest entry of A - A^dagger accepted when building a Hermitian operator."""

PSD_TOL = 1e-9
"""Eigenvalue, trace and unitarity slack of the construction checks."""

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "kron",
    "partial_trace",
    "hermitian_basis",
    "hermitian_product_basis",
    "check_dim",
    "check_finite",
    "check_hermitian",
    "check_shape",
    "check_density",
    "check_effect",
    "check_unitary",
    "frozen",
]


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy; all public containers hold immutable arrays."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def check_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def check_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate ||A - A^dagger||_max <= tol and return the Hermitian part."""
    a = check_finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return (a + a.conj().T) / 2


def check_dim(value: object, name: str = "dimension", minimum: int = 1) -> int:
    """A dimension: an integral number (not a bool) of at least ``minimum``, as an int."""
    integral = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral or value < minimum:
        raise ValueError(f"{name} {value!r} is not an integer of at least {minimum}")
    return int(value)


def check_shape(dims: Sequence[int], dim: int) -> tuple[int, ...]:
    """Validate a subsystem factorization against a matrix dimension."""
    dims = tuple(check_dim(d, "factor dimension") for d in dims)
    if not dims:
        raise ValueError("at least one factor dimension is required")
    if int(np.prod(dims)) != dim:
        raise ValueError(f"factor dimensions {dims} do not multiply to {dim}")
    return dims


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, min eigenvalue >= -PSD_TOL, trace 1."""
    rho = check_hermitian(rho)
    w = np.linalg.eigvalsh(rho)
    if w[0] < -PSD_TOL:
        raise ValueError(f"state is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > PSD_TOL:
        raise ValueError(f"state trace {tr!r} deviates from 1 beyond {PSD_TOL:.1e}")
    return rho


def check_effect(m: np.ndarray) -> np.ndarray:
    """Validate an effect: Hermitian with eigenvalues in [-PSD_TOL, 1 + PSD_TOL]."""
    m = check_hermitian(m)
    w = np.linalg.eigvalsh(m)
    if w[0] < -PSD_TOL or w[-1] > 1.0 + PSD_TOL:
        raise ValueError(f"effect eigenvalues {w} are not within [0, 1]")
    return m


def check_unitary(u: np.ndarray) -> np.ndarray:
    u = check_finite(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if dev > PSD_TOL:
        raise ValueError(f"matrix is not unitary: ||UU^dagger - I||_max = {dev:.3e}")
    return u


# ---------------------------------------------------------------------------
# tensor-product operations
# ---------------------------------------------------------------------------


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the standard (row-major) index convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(a: np.ndarray, dims: Sequence[int], traced: Iterable[int]) -> np.ndarray:
    """Trace out the 1-based factors in ``traced`` from an operator on ``dims``.

    Tracing all factors returns the 1x1 matrix [[Tr a]]. The result keeps the
    remaining factors in their original order.
    """
    a = np.asarray(a, dtype=complex)
    dims = check_shape(dims, a.shape[0])
    n = len(dims)
    traced_set = {int(k) for k in traced}
    if not traced_set <= set(range(1, n + 1)):
        raise ValueError(f"traced factors {sorted(traced_set)} not within 1..{n}")
    keep = [k for k in range(n) if (k + 1) not in traced_set]
    t = a.reshape(dims + dims)
    for k in sorted(traced_set, reverse=True):
        # trace the axis pair of factor k in the current tensor
        ax = k - 1
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


# ---------------------------------------------------------------------------
# Hermitian bases
# ---------------------------------------------------------------------------


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal basis of d x d Hermitian matrices under <A, B> = Tr(AB).

    Ordering (generalized Gell-Mann): the identity 1/sqrt(d) first, then the
    d - 1 traceless diagonal elements (sum_{j<k} |j><j| - k|k><k|)/sqrt(k(k+1))
    for k = 1..d-1, then the symmetric pairs (|k><l| + |l><k|)/sqrt(2) for
    k < l, then the antisymmetric pairs (-i|k><l| + i|l><k|)/sqrt(2) for k < l.
    Every element after the first is traceless.
    """
    d = check_dim(d)
    basis: list[np.ndarray] = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -k
        basis.append(np.diag(diag / np.sqrt(k * (k + 1))).astype(complex))
    s = 1.0 / np.sqrt(2.0)
    for k in range(d):
        for l in range(k + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = s
            e[l, k] = s
            basis.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = -1j * s
            e[l, k] = 1j * s
            basis.append(e)
    return basis


def hermitian_product_basis(dims: Sequence[int]) -> np.ndarray:
    """Orthonormal product basis of the Hermitian space on a tensor product.

    Element i of the returned (prod d^2, D, D) stack is the Kronecker product
    of per-factor ``hermitian_basis`` elements, with i running over their
    indices in lexicographic order; deterministic for constraint assembly.
    """
    dims = tuple(check_dim(d, "factor dimension") for d in dims)
    out = np.ones((1, 1, 1), dtype=complex)
    for d in dims:
        f = np.array(hermitian_basis(d))
        out = np.einsum("iac,jbd->ijabcd", out, f).reshape(
            len(out) * len(f), out.shape[1] * d, out.shape[2] * d
        )
    return out
