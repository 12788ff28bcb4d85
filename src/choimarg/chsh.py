"""Channel CHSH correlators, the Tsirelson bound, and the theta scan.

The correlation of two channels with qubit outputs on a shared state is
Tr((Phi_1 (x) Phi_2)(rho) A) with the default observable

    A = |00><00| - |01><01| - |10><10| + |11><11|,

or any observable -1 <= A <= 1 on the joint output passed as ``obs``; an
effect pair (M, N) gives A = (2M - 1) (x) (2N - 1). The CHSH combination

    X = E(c11, c12) + E(c11, c22) + E(c21, c12) - E(c21, c22)

obeys |X| <= 2 for Bell-local biconditional states and |X| <= 2*sqrt(2)
always.

Each correlator is computed as a bilinear form in the two Choi matrices,

    E(ci, cj) = vec(C_i)^T Q vec(C_j),
    Q[(a i b j), (c k d l)] = rho[(i k), (j l)] A[(b d), (a c)],

with output indices a, b, c, d and input indices i, j, k, l, which is
Tr((Phi_1 (x) Phi_2)(rho) A) written out in the Choi convention of
:mod:`choimarg.channels`. Q is one ``einsum`` of the validated state and
observable, built once per call; no tensor-product channel is formed.

The one-parameter unitary family scanned here peaks at theta = 3 + 2*sqrt(2),
where X reaches the Tsirelson bound; the closed form
X(theta) = (4*sqrt(theta) + 2*theta - 2)/(1 + theta) is derived from the
maximally-entangled correlation formula and serves as an independent oracle
for the scan, whose rows come from the unitary channels through the form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import Channel, max_entangled, unitary_channel
from .linalg import check_density, check_dim, check_hermitian, frozen

__all__ = [
    "CorrelationReport",
    "correlation",
    "chsh_value",
    "theta_family",
    "closed_form_chsh",
    "chsh_scan",
    "scan_to_csv",
]

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)
_FLAG_TOL = 1e-9

_PARITY = frozen(np.diag([1.0, -1.0, -1.0, 1.0]))
"""Default observable: parity on two qubits, diag(+1, -1, -1, +1) in the computational basis."""


@dataclass(frozen=True)
class CorrelationReport:
    """The four correlators E[i, j] of channel pair choices and their CHSH value."""

    correlations: np.ndarray
    value: float
    exceeds_classical: bool
    within_tsirelson: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "correlations", frozen(self.correlations).real)


def _check_observable(a: np.ndarray, dim: int) -> np.ndarray:
    a = check_hermitian(a, 1e-9)
    if a.shape != (dim, dim):
        raise ValueError(f"observable dimension {a.shape[0]} != joint output dimension {dim}")
    w = np.linalg.eigvalsh(a)
    if w[0] < -1 - 1e-9 or w[-1] > 1 + 1e-9:
        raise ValueError("observable must satisfy -1 <= A <= 1")
    return a


def _validated(rho: np.ndarray, obs: np.ndarray | None, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """rho and A (default parity) checked once, for joint output dimension ``dim``."""
    rho = check_density(rho)
    a = _PARITY if obs is None else obs
    return rho, _check_observable(a, dim)


def _check_pair(ci: Channel, cj: Channel, rho: np.ndarray, a: np.ndarray) -> None:
    """The joint input of ci (x) cj must be rho's dimension, its output A's."""
    if ci.in_dim * cj.in_dim != rho.shape[0]:
        raise ValueError(f"state dimension {rho.shape[0]} != joint channel input {ci.in_dim * cj.in_dim}")
    if ci.out_dim * cj.out_dim != a.shape[0]:
        raise ValueError(
            f"observable dimension {a.shape[0]} != joint output dimension {ci.out_dim * cj.out_dim}"
        )


def _form(rho: np.ndarray, a: np.ndarray, ins: tuple[int, int], outs: tuple[int, int]) -> np.ndarray:
    """Q with E(ci, cj) = vec(C_i)^T Q vec(C_j), for wings of input dims ``ins``
    and output dims ``outs``: Q[(a i b j), (c k d l)] = rho[(i k), (j l)] A[(b d), (a c)]."""
    (d1, d2), (o1, o2) = ins, outs
    q = np.einsum("ikjl,bdac->aibjckdl", rho.reshape(d1, d2, d1, d2), a.reshape(o1, o2, o1, o2))
    return q.reshape((o1 * d1) ** 2, (o2 * d2) ** 2)


def _stack(c1: Channel, c2: Channel) -> np.ndarray:
    """The two Choi matrices as the rows vec(C_1), vec(C_2)."""
    return np.stack((c1.choi.reshape(-1), c2.choi.reshape(-1)))


def correlation(
    ci: Channel, cj: Channel, rho: np.ndarray, obs: np.ndarray | None = None
) -> float:
    """E(ci, cj) = Tr((ci (x) cj)(rho) A)."""
    rho, a = _validated(rho, obs, ci.out_dim * cj.out_dim)
    _check_pair(ci, cj, rho, a)
    q = _form(rho, a, (ci.in_dim, cj.in_dim), (ci.out_dim, cj.out_dim))
    return float((ci.choi.reshape(-1) @ q @ cj.choi.reshape(-1)).real)


def _chsh(half: np.ndarray, c12: Channel, c22: Channel) -> tuple[np.ndarray, float]:
    """The correlators E[i, j] and X from the wing-1 half ``_stack(c11, c21) @ Q``."""
    e = (half @ _stack(c12, c22).T).real
    return e, float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def chsh_value(
    c11: Channel,
    c21: Channel,
    c12: Channel,
    c22: Channel,
    rho: np.ndarray,
    obs: np.ndarray | None = None,
) -> CorrelationReport:
    """CHSH report for channel choices (c11, c21) on wing 1 and (c12, c22) on wing 2."""
    rho, a = _validated(rho, obs, c11.out_dim * c12.out_dim)
    for ci in (c11, c21):
        for cj in (c12, c22):
            _check_pair(ci, cj, rho, a)
    # the four pair checks leave one input and one output dimension per wing
    q = _form(rho, a, (c11.in_dim, c12.in_dim), (c11.out_dim, c12.out_dim))
    e, x = _chsh(_stack(c11, c21) @ q, c12, c22)
    return CorrelationReport(
        correlations=e,
        value=x,
        exceeds_classical=bool(x > CLASSICAL_BOUND + _FLAG_TOL or x < -CLASSICAL_BOUND - _FLAG_TOL),
        within_tsirelson=bool(abs(x) <= TSIRELSON_BOUND + _FLAG_TOL),
    )


def _real(value: object, name: str) -> float:
    """A real number (numpy scalars and 0-d arrays included) as a float, else a ValueError naming it."""
    x = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    if not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(x)


def _theta(value: object) -> float:
    theta = _real(value, "theta")
    if not 0 <= theta < np.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {value!r}")
    return theta


def theta_family(theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scanned unitary 4-tuple (U1, U2, V1, V2).

    U1 is the Hadamard-like rotation, U2 the identity, and V1, V2 interpolate
    with the parameter theta, a finite real number >= 0.
    """
    theta = _theta(theta)
    rt = np.sqrt(theta)
    norm = 1.0 / np.sqrt(1.0 + theta)
    u1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u2 = np.eye(2)
    v1 = norm * np.array([[rt, 1.0], [1.0, -rt]])
    v2 = norm * np.array([[1.0, rt], [rt, -1.0]])
    return u1, u2, v1, v2


def closed_form_chsh(theta: float) -> float:
    """X(theta) = (4*sqrt(theta) + 2*theta - 2)/(1 + theta), the scan oracle."""
    theta = _theta(theta)
    return (4.0 * np.sqrt(theta) + 2.0 * theta - 2.0) / (1.0 + theta)


def chsh_scan(theta_min: float, theta_max: float, steps: int) -> np.ndarray:
    """Evaluate the CHSH value of the theta family on a uniform grid.

    Returns a ``(steps, 2)`` float array of ``(theta, X)`` rows. Each X is
    computed from the channels, not from the closed form: at each grid point
    the two wing-2 unitary channels are built and validated, and their Choi
    matrices enter the bilinear form against the wing-1 half
    ``_stack(c11, c21) @ Q``, formed once per scan. So each X equals
    ``chsh_value`` of the four unitary channels on ``max_entangled(2)``
    exactly. The range must be real and finite with
    0 <= theta_min < theta_max, and steps an integer of at least 2.
    """
    lo, hi = _real(theta_min, "theta_min"), _real(theta_max, "theta_max")
    if not (0 <= lo < hi < np.inf):
        raise ValueError(f"invalid scan range [{theta_min}, {theta_max}]")
    steps = check_dim(steps, "steps", minimum=2)
    u1, u2, _v1, _v2 = theta_family(lo)
    rho, a = _validated(max_entangled(2), None, 4)
    half = _stack(unitary_channel(u1), unitary_channel(u2)) @ _form(rho, a, (2, 2), (2, 2))
    rows = np.empty((steps, 2))
    rows[:, 0] = np.linspace(lo, hi, steps)
    for row in rows:
        _u1, _u2, v1, v2 = theta_family(float(row[0]))
        row[1] = _chsh(half, unitary_channel(v1), unitary_channel(v2))[1]
    return rows


def scan_to_csv(rows: np.ndarray | Sequence[tuple[float, float]]) -> str:
    """CSV with header ``theta,X``, 12 significant digits, decimal points."""
    lines = ["theta,X"]
    for theta, x in rows:
        lines.append(f"{theta:.12g},{x:.12g}")
    return "\n".join(lines) + "\n"
