"""Channel compatibility, steering and Bell locality as prescribed-marginal SDPs.

All three questions ask for a multipartite PSD operator with given partial
traces:

* compatibility of (Phi_1, Phi_2): a joint Choi matrix C on
  (out_1, out_2, input) with Tr_2 C = C(Phi_1) and Tr_1 C = C(Phi_2);
* steering of rho on C (x) A by (Phi_1, Phi_2): a tripartite state sigma with
  Tr_3 sigma = (id (x) Phi_1)(rho) and Tr_2 sigma = (id (x) Phi_2)(rho);
* Bell locality of rho under four channels: a four-partite state reproducing
  the four pairwise output marginals.

Factor numbering is 1-based, matching :mod:`choimarg.linalg`. Each target
equation is expanded in the identity-first Hermitian product basis of its
kept factors. A lifted basis element is the identity on every factor where
its factor element is the identity, so targets that share factors produce
the same element more than once; the rows are built once from the marginal
structure, keeping each element a single time. They are then pairwise
orthogonal and include exactly one normalization row.

Infeasibility of the steering problem means the state IS steerable, and
infeasibility of the locality problem means the state IS Bell nonlocal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .channels import Channel, _apply, identity_channel, tensor
from .config import DEFAULT, Tolerances
from .linalg import (
    check_density,
    check_effect,
    check_hermitian,
    embed,
    frozen,
    hermitian_basis,
    hermitian_product_basis,
    kron,
    partial_trace,
)
from .sdp import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityReport,
    SdpError,
    hermitian_feasibility,
    witness_valid,
)

__all__ = [
    "MarginalSpec",
    "CompatReport",
    "COMPATIBLE",
    "INCOMPATIBLE",
    "MARGINAL",
    "marginal_feasibility",
    "channels_compatible",
    "state_steerable",
    "bell_local",
    "effects_compatible",
]

COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"
MARGINAL = "marginal"


@dataclass(frozen=True)
class MarginalSpec:
    """Prescribed partial traces of one multipartite Hermitian variable.

    targets: pairs of (kept 1-based factor indices, target matrix). All
    targets must share the same trace, the required normalization, and every
    two targets must agree on the marginal of the factors they share, both up
    to the tolerance :class:`~choimarg.channels.Channel` allows its trace
    preservation.
    """

    dims: tuple[int, ...]
    targets: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    normalization: float | None = None

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        n = len(dims)
        if not self.targets:
            raise ValueError("at least one marginal target is required")
        cleaned = []
        traces = []
        for kept, target in self.targets:
            kept = tuple(sorted(int(k) for k in kept))
            if not kept or not set(kept) <= set(range(1, n + 1)) or len(set(kept)) != len(kept):
                raise ValueError(f"kept factors {kept} not a valid subset of 1..{n}")
            d_kept = int(np.prod([dims[k - 1] for k in kept]))
            target = check_hermitian(np.asarray(target, dtype=complex), DEFAULT.construction * 10)
            if target.shape != (d_kept, d_kept):
                raise ValueError(
                    f"target shape {target.shape} does not match kept factors {kept} (dim {d_kept})"
                )
            cleaned.append((kept, frozen(target)))
            traces.append(float(np.trace(target).real))
        norm = self.normalization if self.normalization is not None else traces[0]
        # a Channel is trace preserving to DEFAULT.psd per entry of its d_in x d_in
        # input marginal: a valid Choi target's trace may drift by d_in * psd =
        # norm * psd, and two valid targets' shared marginals may differ by 2 * psd
        tol = DEFAULT.psd * max(1.0, abs(norm))
        for kept, tr in zip([c[0] for c in cleaned], traces):
            if abs(tr - norm) > tol:
                raise ValueError(
                    f"inconsistent target traces: factor set {kept} has trace {tr!r}, "
                    f"expected {norm!r}"
                )
        for i, (kept_a, target_a) in enumerate(cleaned):
            for kept_b, target_b in cleaned[i + 1:]:
                shared = set(kept_a) & set(kept_b)
                if not shared:
                    continue
                dev = np.max(np.abs(
                    _reduced(dims, kept_a, target_a, shared) - _reduced(dims, kept_b, target_b, shared)
                ))
                if dev > 2 * tol:
                    raise ValueError(
                        f"inconsistent targets: factor sets {kept_a} and {kept_b} disagree on "
                        f"their shared marginal over {tuple(sorted(shared))} by {dev:.3e}"
                    )
        object.__setattr__(self, "targets", tuple(cleaned))
        object.__setattr__(self, "normalization", float(norm))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))


def _reduced(
    dims: tuple[int, ...], kept: tuple[int, ...], target: np.ndarray, shared: set[int]
) -> np.ndarray:
    """Marginal of a target on its kept factors over the ``shared`` factors."""
    traced = [i + 1 for i, k in enumerate(kept) if k not in shared]
    return partial_trace(target, [dims[k - 1] for k in kept], traced)


def _target_rows(
    spec: MarginalSpec,
) -> tuple[list[tuple[tuple[np.ndarray], float]], list[tuple[int, np.ndarray]]]:
    """Expand the targets in the identity-first product basis, each element once.

    A lifted element is keyed by its non-identity factors and their element
    indices; a key already produced by an earlier target is the same operator
    up to scale (the targets agree on shared marginals), so it is skipped.
    The rows are pairwise orthogonal and the all-identity key is the single
    normalization row.

    Returns the rows and, per row, its owner: the index of the target that
    produced it and the basis element on that target's kept factors.
    """
    rows: list[tuple[tuple[np.ndarray], float]] = []
    owners: list[tuple[int, np.ndarray]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for owner, (kept, target) in enumerate(spec.targets):
        kept_dims = [spec.dims[k - 1] for k in kept]
        indices = product(*(range(d * d) for d in kept_dims))
        for idx, b in zip(indices, hermitian_product_basis(kept_dims)):
            key = tuple((k, i) for k, i in zip(kept, idx) if i)
            if key in seen:
                continue
            seen.add(key)
            rhs = float(np.real(np.sum(np.conj(b) * target)))
            rows.append(((embed(b, spec.dims, kept),), rhs))
            owners.append((owner, b))
    return rows, owners


def _decide(
    spec: MarginalSpec,
    rows: list[tuple[tuple[np.ndarray], float]],
    tol: Tolerances,
    gap_tol: float | None,
    band: float | None,
) -> FeasibilityReport:
    """Solve the spec's rows; a feasible witness is rescaled to the exact trace."""
    report = hermitian_feasibility((spec.total_dim,), rows, tol=tol, gap_tol=gap_tol, band=band)
    if report.status == FEASIBLE and spec.normalization > 0:
        # rescale to the exact required trace (preserves positivity, moves the
        # marginal residuals by a relative ~1e-9)
        witness = report.witness * (spec.normalization / float(np.trace(report.witness).real))
        if not witness_valid(rows, (witness,), tol):
            raise SdpError("rescaled witness failed independent validation")
        report = replace(report, witness=witness, blocks=(witness,))
    return report


def marginal_feasibility(
    spec: MarginalSpec,
    *,
    tol: Tolerances = DEFAULT,
    gap_tol: float | None = None,
    band: float | None = None,
) -> FeasibilityReport:
    """Decide existence of a PSD operator with the prescribed marginals."""
    rows, _owners = _target_rows(spec)
    return _decide(spec, rows, tol, gap_tol, band)


# ---------------------------------------------------------------------------
# channel compatibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompatReport:
    """Verdict of a channel-pair compatibility test.

    joint_choi is the witness joint channel on (out_1 (x) out_2) for
    compatible pairs. dual_witness is a pair (A, B) normalized to the
    Frobenius ball with lift(A) + 1 (x) B >= 0; its objective value
    Tr(C_1 A) + Tr(C_2 B) is dual_value, negative for incompatible pairs.
    """

    verdict: str
    slack: float
    joint_choi: Channel | None
    dual_witness: tuple[np.ndarray, np.ndarray] | None
    dual_value: float | None
    report: FeasibilityReport | None = field(repr=False, default=None)


def _compat_spec(c1: Channel, c2: Channel) -> MarginalSpec:
    if c1.in_dim != c2.in_dim:
        raise ValueError(f"channels have different input dimensions {c1.in_dim} != {c2.in_dim}")
    d1, d2, din = c1.out_dim, c2.out_dim, c1.in_dim
    return MarginalSpec(
        dims=(d1, d2, din),
        targets=(((1, 3), c1.choi), ((2, 3), c2.choi)),
        normalization=float(din),
    )


def _assemble_dual_pair(
    owners: list[tuple[int, np.ndarray]], report: FeasibilityReport
) -> tuple[np.ndarray, np.ndarray] | None:
    """Recombine the dual vector into one Hermitian matrix per target."""
    if report.dual_certificate is None:
        return None
    y = report.dual_certificate
    return tuple(sum(c * b for (owner, b), c in zip(owners, y) if owner == t) for t in (0, 1))


def channels_compatible(
    c1: Channel,
    c2: Channel,
    *,
    tol: Tolerances = DEFAULT,
    gap_tol: float | None = None,
    band: float | None = None,
) -> CompatReport:
    """Decide whether two channels admit a joint channel with both marginals."""
    spec = _compat_spec(c1, c2)
    rows, owners = _target_rows(spec)
    report = _decide(spec, rows, tol, gap_tol, band)
    pair = _assemble_dual_pair(owners, report)
    dual_value = None
    witness_pair = None
    if pair is not None:
        a, b = pair
        scale = float(np.sqrt(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2)))
        if scale > 0:
            a, b = a / scale, b / scale
            dual_value = float(
                np.real(np.sum(np.conj(a) * c1.choi)) + np.real(np.sum(np.conj(b) * c2.choi))
            )
            witness_pair = (a, b)
    if report.status == FEASIBLE:
        # project the witness onto exact trace preservation so it revalidates
        # as a Channel at the default tolerances
        choi = report.witness
        dims = (c1.out_dim, c2.out_dim, c1.in_dim)
        defect = partial_trace(choi, dims, {1, 2}) - np.eye(c1.in_dim)
        choi = choi - kron(np.eye(c1.out_dim * c2.out_dim), defect) / (c1.out_dim * c2.out_dim)
        if not witness_valid(rows, (choi,), tol):
            raise SdpError("trace-preserving joint channel failed independent validation")
        joint = Channel(in_dim=c1.in_dim, out_dims=(c1.out_dim, c2.out_dim), choi=choi)
        return CompatReport(COMPATIBLE, report.slack, joint, witness_pair, dual_value, report)
    if report.status == INFEASIBLE:
        return CompatReport(INCOMPATIBLE, report.slack, None, witness_pair, dual_value, report)
    return CompatReport(MARGINAL, report.slack, None, witness_pair, dual_value, report)


# ---------------------------------------------------------------------------
# steering and Bell locality
# ---------------------------------------------------------------------------


def state_steerable(
    rho: np.ndarray,
    c1: Channel,
    c2: Channel,
    *,
    tol: Tolerances = DEFAULT,
    gap_tol: float | None = None,
    band: float | None = None,
) -> FeasibilityReport:
    """Steering test for a bipartite state held between a reference and channels.

    The second factor of rho is sent through either channel; the report is
    Infeasible exactly when the state is steerable by the pair.
    """
    rho = check_density(rho)
    if c1.in_dim != c2.in_dim:
        raise ValueError("channels must share their input dimension")
    d_a = c1.in_dim
    d_c, rem = divmod(rho.shape[0], d_a)
    if rem or d_c < 1:
        raise ValueError(
            f"state dimension {rho.shape[0]} is not a multiple of the channel input {d_a}"
        )
    ident = identity_channel(d_c)
    t1 = _apply(tensor(ident, c1), rho)
    t2 = _apply(tensor(ident, c2), rho)
    spec = MarginalSpec(
        dims=(d_c, c1.out_dim, c2.out_dim),
        targets=(((1, 2), t1), ((1, 3), t2)),
        normalization=1.0,
    )
    return marginal_feasibility(spec, tol=tol, gap_tol=gap_tol, band=band)


def bell_local(
    rho: np.ndarray,
    c11: Channel,
    c21: Channel,
    c12: Channel,
    c22: Channel,
    *,
    tol: Tolerances = DEFAULT,
    gap_tol: float | None = None,
    band: float | None = None,
) -> FeasibilityReport:
    """Bell locality test for a bipartite state under two channel choices per wing.

    c11, c21 act on the first factor of rho, c12, c22 on the second; the four
    factors of the sought state are their outputs in this order. The report is
    Infeasible exactly when the biconditional state is Bell nonlocal.
    """
    rho = check_density(rho)
    if c11.in_dim != c21.in_dim or c12.in_dim != c22.in_dim:
        raise ValueError("channels on one wing must share their input dimension")
    if c11.in_dim * c12.in_dim != rho.shape[0]:
        raise ValueError(
            f"state dimension {rho.shape[0]} does not match channel inputs "
            f"{c11.in_dim} * {c12.in_dim}"
        )
    targets = (
        ((1, 3), _apply(tensor(c11, c12), rho)),
        ((1, 4), _apply(tensor(c11, c22), rho)),
        ((2, 3), _apply(tensor(c21, c12), rho)),
        ((2, 4), _apply(tensor(c21, c22), rho)),
    )
    spec = MarginalSpec(
        dims=(c11.out_dim, c21.out_dim, c12.out_dim, c22.out_dim),
        targets=targets,
        normalization=1.0,
    )
    return marginal_feasibility(spec, tol=tol, gap_tol=gap_tol, band=band)


# ---------------------------------------------------------------------------
# two-outcome effect compatibility
# ---------------------------------------------------------------------------


def effects_compatible(
    f: np.ndarray,
    g: np.ndarray,
    *,
    tol: Tolerances = DEFAULT,
    gap_tol: float | None = None,
    band: float | None = None,
) -> FeasibilityReport:
    """Joint measurability of two effects via the four-block decomposition.

    Decides existence of h_11, h_12, h_21, h_22 >= 0 with h_11 + h_12 = f,
    h_21 + h_22 = 1 - f and h_11 + h_21 = g; equivalently of G = h_11 with
    G >= 0, f - G >= 0, g - G >= 0 and 1 - f - g + G >= 0. The report witness
    is G.
    """
    f = check_effect(np.asarray(f, dtype=complex), tol)
    g = check_effect(np.asarray(g, dtype=complex), tol)
    if f.shape != g.shape:
        raise ValueError(f"effects have different dimensions {f.shape} != {g.shape}")
    d = f.shape[0]
    eye = np.eye(d)
    zero = np.zeros((d, d))
    rows = []
    for b in hermitian_basis(d):
        rows.append(((b, b, zero, zero), float(np.real(np.sum(np.conj(b) * f)))))
    for b in hermitian_basis(d):
        rows.append(((zero, zero, b, b), float(np.real(np.sum(np.conj(b) * (eye - f))))))
    for b in hermitian_basis(d):
        rows.append(((b, zero, b, zero), float(np.real(np.sum(np.conj(b) * g)))))
    return hermitian_feasibility((d, d, d, d), rows, tol=tol, gap_tol=gap_tol, band=band)
