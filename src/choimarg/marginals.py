"""Channel compatibility, steering and Bell locality as prescribed-marginal SDPs.

All these questions ask for a multipartite PSD operator with given partial
traces:

* compatibility of (Phi_1, Phi_2): a joint Choi matrix C on
  (out_1, out_2, input) with Tr_2 C = C(Phi_1) and Tr_1 C = C(Phi_2);
* steering of rho on C (x) A by (Phi_1, Phi_2): a tripartite state sigma with
  Tr_3 sigma = (id (x) Phi_1)(rho) and Tr_2 sigma = (id (x) Phi_2)(rho);
* Bell locality of rho under four channels: a four-partite state reproducing
  the four pairwise output marginals;
* joint measurability of two effects: compatibility of their two-outcome
  measure-prepare channels.

Factor numbering is 1-based, matching :mod:`choimarg.linalg`. Each target
equation is expanded in the identity-first Hermitian product basis of its
kept factors. A lifted basis element is the identity on every factor where
its factor element is the identity, so targets that share factors produce
the same element more than once; the rows are built once from the marginal
structure, keeping each element a single time. They are then pairwise
orthogonal and include exactly one normalization row.

A witness is rescaled to the exact normalization (a joint channel is also
projected onto exact trace preservation) and validated once, after that.

Infeasibility of the steering problem means the state IS steerable, and
infeasibility of the locality problem means the state IS Bell nonlocal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .channels import Channel, _apply, identity_channel, measure_prepare, tensor
from .linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    check_density,
    check_dim,
    check_hermitian,
    frozen,
    hermitian_product_basis,
    kron,
    partial_trace,
)
from .sdp import (
    BAND,
    FEASIBLE,
    INFEASIBLE,
    FeasibilityReport,
    RowGroup,
    _group_feasibility,
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
_VERDICTS = {FEASIBLE: COMPATIBLE, INFEASIBLE: INCOMPATIBLE}


@dataclass(frozen=True)
class MarginalSpec:
    """Prescribed partial traces of one multipartite Hermitian variable.

    targets: pairs of (kept 1-based factor indices, target matrix). All
    targets must share the same trace, the required (finite) normalization,
    and every two targets must agree on the marginal of the factors they
    share, both up to the tolerance :class:`~choimarg.channels.Channel`
    allows its trace preservation.
    """

    dims: tuple[int, ...]
    targets: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    normalization: float | None = None

    def __post_init__(self) -> None:
        dims = tuple(check_dim(d, "factor dimension") for d in self.dims)
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
            target = check_hermitian(np.asarray(target, dtype=complex), HERMITIAN_TOL * 10)
            if target.shape != (d_kept, d_kept):
                raise ValueError(
                    f"target shape {target.shape} does not match kept factors {kept} (dim {d_kept})"
                )
            cleaned.append((kept, frozen(target)))
            traces.append(float(np.trace(target).real))
        norm = self.normalization if self.normalization is not None else traces[0]
        if not np.isfinite(norm):
            raise ValueError(f"normalization is non-finite: {norm!r}")
        # a Channel is trace preserving to PSD_TOL per entry of its d_in x d_in
        # input marginal: a valid Choi target's trace may drift by d_in * PSD_TOL =
        # norm * PSD_TOL, and two valid targets' shared marginals may differ by 2 * PSD_TOL
        tol = PSD_TOL * max(1.0, abs(norm))
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


def _reduced(
    dims: tuple[int, ...], kept: tuple[int, ...], target: np.ndarray, shared: set[int]
) -> np.ndarray:
    """Marginal of a target on its kept factors over the ``shared`` factors."""
    traced = [i + 1 for i, k in enumerate(kept) if k not in shared]
    return partial_trace(target, [dims[k - 1] for k in kept], traced)


@lru_cache(maxsize=64)
def _row_layout(
    dims: tuple[int, ...], kept_sets: tuple[tuple[int, ...], ...]
) -> tuple[np.ndarray, ...]:
    """Per target, the read-only coefficient matrix of its fresh rows: the
    identity-first product basis of its kept factors, each lifted element once.

    A lifted element is keyed by its non-identity factors and their element
    indices; a key already produced by an earlier target is the same operator
    up to scale (the targets agree on shared marginals), so it is skipped.
    """
    seen: set[tuple[tuple[int, int], ...]] = set()
    layout = []
    for kept in kept_sets:
        kept_dims = [dims[k - 1] for k in kept]
        fresh = []
        for pos, idx in enumerate(product(*(range(d * d) for d in kept_dims))):
            key = tuple((k, i) for k, i in zip(kept, idx) if i)
            if key not in seen:
                seen.add(key)
                fresh.append(pos)
        d_kept = int(np.prod(kept_dims))
        coeffs = hermitian_product_basis(kept_dims).reshape(-1, d_kept * d_kept)[fresh]
        coeffs.setflags(write=False)
        layout.append(coeffs)
    return tuple(layout)


def _target_rows(spec: MarginalSpec) -> list[RowGroup]:
    """One row group per target, with rhs P vec(target).

    The coefficient matrices P come from :func:`_row_layout`, cached on the
    dims and kept sets and shared, read-only, by every call. The rows are
    pairwise orthogonal and the all-identity element is the single
    normalization row (in the first target's group).
    """
    layout = _row_layout(spec.dims, tuple(kept for kept, _ in spec.targets))
    return [
        RowGroup(
            tuple(k - 1 for k in kept), coeffs, coeffs.view(float) @ target.reshape(-1).view(float)
        )
        for (kept, target), coeffs in zip(spec.targets, layout)
    ]


def _exact_trace(spec: MarginalSpec, x: np.ndarray) -> np.ndarray:
    """The finishing map of a spec's witness: rescaled to the exact required
    trace (preserves positivity, moves the marginal residuals by a relative
    ~1e-9)."""
    if spec.normalization <= 0:
        return x
    return x * (spec.normalization / float(np.trace(x).real))


def marginal_feasibility(spec: MarginalSpec, *, eps: float = BAND) -> FeasibilityReport:
    """Decide existence of a PSD operator with the prescribed marginals; slacks
    with |t| < eps are the Marginal band."""
    return _group_feasibility(
        spec.dims, _target_rows(spec), eps=eps, finish=partial(_exact_trace, spec)
    )


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


def _dual_per_target(
    spec: MarginalSpec, groups: list[RowGroup], report: FeasibilityReport
) -> list[np.ndarray] | None:
    """Recombine the dual vector into one Hermitian matrix sum_p y_p B_p per target."""
    if report.dual_certificate is None:
        return None
    ends = np.cumsum([len(g.rhs) for g in groups])
    return [
        (report.dual_certificate[end - len(g.rhs):end] @ g.coeffs.view(float))
        .view(complex).reshape(target.shape)
        for g, end, (_, target) in zip(groups, ends, spec.targets)
    ]


def channels_compatible(c1: Channel, c2: Channel, *, eps: float = BAND) -> CompatReport:
    """Decide whether two channels admit a joint channel with both marginals."""
    spec = _compat_spec(c1, c2)
    d_out = c1.out_dim * c2.out_dim

    def finish(x: np.ndarray) -> np.ndarray:
        # rescale, then project onto exact trace preservation so the witness
        # revalidates as a Channel
        x = _exact_trace(spec, x)
        defect = partial_trace(x, spec.dims, {1, 2}) - np.eye(c1.in_dim)
        return x - kron(np.eye(d_out), defect) / d_out

    groups = _target_rows(spec)
    report = _group_feasibility(spec.dims, groups, eps=eps, finish=finish)
    pair = _dual_per_target(spec, groups, report)
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
    joint = None
    if report.status == FEASIBLE:
        joint = Channel(in_dim=c1.in_dim, out_dims=(c1.out_dim, c2.out_dim), choi=report.witness)
        # the report shares the joint channel's read-only Choi matrix: one copy
        report = replace(report, witness=joint.choi)
    verdict = _VERDICTS.get(report.status, MARGINAL)
    return CompatReport(verdict, report.slack, joint, witness_pair, dual_value, report)


# ---------------------------------------------------------------------------
# steering and Bell locality
# ---------------------------------------------------------------------------


def state_steerable(
    rho: np.ndarray, c1: Channel, c2: Channel, *, eps: float = BAND
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
    return marginal_feasibility(spec, eps=eps)


def bell_local(
    rho: np.ndarray,
    c11: Channel,
    c21: Channel,
    c12: Channel,
    c22: Channel,
    *,
    eps: float = BAND,
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
    return marginal_feasibility(spec, eps=eps)


# ---------------------------------------------------------------------------
# two-outcome effect compatibility
# ---------------------------------------------------------------------------


def effects_compatible(f: np.ndarray, g: np.ndarray, *, eps: float = BAND) -> FeasibilityReport:
    """Joint measurability of two effects: compatibility of their
    :func:`~choimarg.channels.measure_prepare` channels
    rho -> Tr(rho e)|0><0| + Tr(rho (1-e))|1><1|, with Choi matrices
    diag(1,0) (x) e^T + diag(0,1) (x) (1-e)^T.

    The report witness is G = h_00, where h_ab^T is the principal block
    X[a,b,:,a,b,:] of the joint Choi matrix X on (2, 2, d); G, f - G, g - G
    and 1 - f - g + G are h_00, h_01, h_10 and h_11, all PSD.
    """
    spec = _compat_spec(
        measure_prepare(np.asarray(f, dtype=complex)), measure_prepare(np.asarray(g, dtype=complex))
    )
    d = spec.dims[2]
    report = marginal_feasibility(spec, eps=eps)
    if report.witness is None:
        return report
    # a principal block of the validated joint Choi matrix, so PSD whenever it is
    return replace(report, witness=report.witness.reshape(2, 2, d, 2, 2, d)[0, 0, :, 0, 0, :].T)
