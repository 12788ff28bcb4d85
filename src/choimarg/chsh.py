"""Channel CHSH correlators, the Tsirelson bound, and the theta scan.

The correlation of two channels with qubit outputs on a shared state is
Tr((Phi_1 (x) Phi_2)(rho) A) with the default observable

    A = |00><00| - |01><01| - |10><10| + |11><11|,

or any observable -1 <= A <= 1 on the joint output passed as ``obs``; an
effect pair (M, N) gives A = (2M - 1) (x) (2N - 1). The CHSH combination

    X = E(c11, c12) + E(c11, c22) + E(c21, c12) - E(c21, c22)

obeys |X| <= 2 for Bell-local biconditional states and |X| <= 2*sqrt(2)
always.

The one-parameter unitary family scanned here peaks at theta = 3 + 2*sqrt(2),
where X reaches the Tsirelson bound; the closed form
X(theta) = (4*sqrt(theta) + 2*theta - 2)/(1 + theta) is derived from the
maximally-entangled correlation formula and serves as an independent oracle
for the channel-application path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import Channel, _apply, max_entangled, tensor, unitary_channel
from .linalg import check_density, check_hermitian, frozen

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


def _correlation(ci: Channel, cj: Channel, rho: np.ndarray, a: np.ndarray) -> float:
    """Tr((ci (x) cj)(rho) A) for a rho and A from ``_validated``."""
    joint = tensor(ci, cj)
    if joint.in_dim != rho.shape[0]:
        raise ValueError(f"state dimension {rho.shape[0]} != joint channel input {joint.in_dim}")
    if joint.out_dim != a.shape[0]:
        raise ValueError(f"observable dimension {a.shape[0]} != joint output dimension {joint.out_dim}")
    return float(np.real(np.trace(_apply(joint, rho) @ a)))


def correlation(
    ci: Channel, cj: Channel, rho: np.ndarray, obs: np.ndarray | None = None
) -> float:
    """E(ci, cj) = Tr((ci (x) cj)(rho) A)."""
    return _correlation(ci, cj, *_validated(rho, obs, ci.out_dim * cj.out_dim))


def _chsh(
    c11: Channel, c21: Channel, c12: Channel, c22: Channel, rho: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, float]:
    """The correlators E[i, j] and X for a rho and A from ``_validated``."""
    e = np.array([[_correlation(ci, cj, rho, a) for cj in (c12, c22)] for ci in (c11, c21)])
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
    e, x = _chsh(c11, c21, c12, c22, *_validated(rho, obs, c11.out_dim * c12.out_dim))
    return CorrelationReport(
        correlations=e,
        value=x,
        exceeds_classical=bool(x > CLASSICAL_BOUND + _FLAG_TOL or x < -CLASSICAL_BOUND - _FLAG_TOL),
        within_tsirelson=bool(abs(x) <= TSIRELSON_BOUND + _FLAG_TOL),
    )


def theta_family(theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scanned unitary 4-tuple (U1, U2, V1, V2).

    U1 is the Hadamard-like rotation, U2 the identity, and V1, V2 interpolate
    with the parameter theta, finite and >= 0.
    """
    if not 0 <= theta < np.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {theta!r}")
    rt = np.sqrt(theta)
    norm = 1.0 / np.sqrt(1.0 + theta)
    u1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u2 = np.eye(2)
    v1 = norm * np.array([[rt, 1.0], [1.0, -rt]])
    v2 = norm * np.array([[1.0, rt], [rt, -1.0]])
    return u1, u2, v1, v2


def closed_form_chsh(theta: float) -> float:
    """X(theta) = (4*sqrt(theta) + 2*theta - 2)/(1 + theta), the scan oracle."""
    if not 0 <= theta < np.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {theta!r}")
    return (4.0 * np.sqrt(theta) + 2.0 * theta - 2.0) / (1.0 + theta)


def chsh_scan(theta_min: float, theta_max: float, steps: int) -> np.ndarray:
    """Evaluate the CHSH value of the theta family on a uniform grid.

    Returns a ``(steps, 2)`` float array of ``(theta, X)`` rows. Each X is
    computed through the full channel-application path (tensor the unitary
    channels, apply to the maximally entangled state, trace against the
    observable), not from the closed form; it equals ``chsh_value`` of the
    four unitary channels on ``max_entangled(2)`` exactly. The range must
    be finite with 0 <= theta_min < theta_max.
    """
    if not (0 <= theta_min < theta_max < np.inf):
        raise ValueError(f"invalid scan range [{theta_min}, {theta_max}]")
    if steps < 2:
        raise ValueError("need at least two grid points")
    u1, u2, _v1, _v2 = theta_family(theta_min)
    c11, c21 = unitary_channel(u1), unitary_channel(u2)
    rho, a = _validated(max_entangled(2), None, 4)
    rows = np.empty((steps, 2))
    rows[:, 0] = np.linspace(theta_min, theta_max, steps)
    for row in rows:
        _u1, _u2, v1, v2 = theta_family(float(row[0]))
        row[1] = _chsh(c11, c21, unitary_channel(v1), unitary_channel(v2), rho, a)[1]
    return rows


def scan_to_csv(rows: np.ndarray | Sequence[tuple[float, float]]) -> str:
    """CSV with header ``theta,X``, 12 significant digits, decimal points."""
    lines = ["theta,X"]
    for theta, x in rows:
        lines.append(f"{theta:.12g},{x:.12g}")
    return "\n".join(lines) + "\n"
