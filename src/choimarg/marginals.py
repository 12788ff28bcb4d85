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

Each basis element is real symmetric or i times a real antisymmetric K, so
each row is real or purely imaginary. When every purely imaginary row has
right-hand side exactly 0, as for every target with real entries
(b = P vec(target)), the program is invariant under X -> conj(X), and only
the real rows go to the solver, in float64; it then solves over real
symmetric X (:mod:`choimarg.sdp`). That is 17 of 28 rows for a qubit
compatibility or steering decision, 29 of 49 for a qubit Bell one and 84 of
153 for a qutrit compatibility one. The omitted rows hold exactly, since
Re<iK, S> = 0 for real S and the witness is validated as exactly real; as
orthogonal basis rows, they add no dependence either. The reported dual
vector covers every basis row in group order, with exact zeros on the
omitted rows, which are the duals a complex solve gives them on such data.
Any other target passes every row, and the solve runs on a complex block.

Unitary channels are decided in a real gauge. Output unitaries map the
joint Choi matrix by X -> (V_1 (x) V_2 (x) 1) X (.)^H, which keeps its
smallest eigenvalue and trace, so the slack does not change. A complex
Choi matrix of rank 1 with d_out = d_in is C = |K>><<K| with K unitary,
read off C (a purity test, then one column); V = K^H turns the channel into
the identity. When every gauged target is real up to a rounding-level
imaginary part, which is dropped, :func:`channels_compatible` solves on the
real rows (84 of 153 on qutrits). The report comes back in the original
frame: the witness is (K_1 (x) K_2 (x) 1) X' (.)^H, finished and validated
on the original rows, and each per-target dual W'_k becomes
(K_k (x) 1) W'_k (.)^H, expanded on every basis row.

What the dims and kept sets fix is one cached :class:`_Shape`, so a
decision on a shape seen before computes only the right-hand sides. Specs
built from validated channels and states skip the checks of
``MarginalSpec(...)``; user specs get them all.

A witness is rescaled to the exact normalization (a joint channel is also
projected onto exact trace preservation) and validated once, after that.

Each decision returns a :class:`~choimarg.sdp.Report` whose verdict is the
question's own word, or ``marginal`` inside the band: feasible/infeasible,
compatible/incompatible (channels and effects), unsteerable/steerable or
local/nonlocal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from itertools import product
from math import prod
from typing import Callable

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
    partial_trace,
)
from .sdp import (
    BAND, FEASIBLE, INFEASIBLE, WITNESS_PSD, Report, _group_feasibility, _operator, _Operator,
    _Rows,
)

__all__ = [
    "MarginalSpec",
    "CompatReport",
    "COMPATIBLE",
    "INCOMPATIBLE",
    "marginal_feasibility",
    "channels_compatible",
    "state_steerable",
    "bell_local",
    "effects_compatible",
]

COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"


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
        for i, item in enumerate(self.targets):
            try:
                kept, target = item
                kept = tuple(kept)
            except (TypeError, ValueError):
                raise ValueError(
                    f"target {i} is not a pair (kept factors, matrix) "
                    "with a sequence of kept factors"
                ) from None
            kept = tuple(sorted(check_dim(k, "kept factor") for k in kept))
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

    @classmethod
    def _trusted(
        cls,
        dims: tuple[int, ...],
        targets: tuple[tuple[tuple[int, ...], np.ndarray], ...],
        normalization: float,
    ) -> MarginalSpec:
        """A spec whose targets are the marginals of validated channels and
        states; skips the checks of ``MarginalSpec(...)``.

        Only for int dims, ascending kept sets and complex targets of matching
        shapes whose traces and shared marginals agree by construction, to
        the trace-preservation tolerance of the channels they come from:
        :class:`_Shape` keeps a row that two targets share only in the first
        of them. Each target is replaced by its read-only Hermitian part
        (t + t^H)/2, as the checks would: Choi matrices of
        :func:`~choimarg.channels.choi_from_kraus` and
        :func:`~choimarg.channels.tensor` are Hermitian only to rounding.
        """
        spec = object.__new__(cls)
        hermitian = []
        for kept, target in targets:
            target = (target + target.conj().T) / 2
            target.setflags(write=False)
            hermitian.append((kept, target))
        object.__setattr__(spec, "dims", dims)
        object.__setattr__(spec, "targets", tuple(hermitian))
        object.__setattr__(spec, "normalization", float(normalization))
        return spec


def _reduced(
    dims: tuple[int, ...], kept: tuple[int, ...], target: np.ndarray, shared: set[int]
) -> np.ndarray:
    """Marginal of a target on its kept factors over the ``shared`` factors."""
    traced = [i + 1 for i, k in enumerate(kept) if k not in shared]
    return partial_trace(target, [dims[k - 1] for k in kept], traced)


class _Shape:
    """What the dims and kept sets of a decision fix, whatever its targets.

    coeffs holds, per target, the read-only coefficient matrix P of its fresh
    rows: the identity-first product basis of its kept factors, each lifted
    element once. A lifted element is keyed by its non-identity factors and
    their element indices; a key already produced by an earlier target is the
    same operator up to scale (the targets agree on shared marginals), so it
    is skipped. imaginary is the read-only mask of the purely imaginary rows
    among all basis rows, in target order; the others are real (B_p real
    symmetric). every_row (complex) and real_rows (float64) are the
    operators of every row and of the real rows alone, each built by
    :func:`~choimarg.sdp._operator` at the first decision that needs it (dense
    on qubit shapes, grouped on (3, 3, 3)).
    """

    def __init__(self, dims: tuple[int, ...], kept_sets: tuple[tuple[int, ...], ...]):
        self.dims = dims
        self.kept = tuple(tuple(k - 1 for k in kept) for kept in kept_sets)
        seen: set[tuple[tuple[int, int], ...]] = set()
        coeffs = []
        for kept in kept_sets:
            kept_dims = [dims[k - 1] for k in kept]
            fresh = []
            for pos, idx in enumerate(product(*(range(d * d) for d in kept_dims))):
                key = tuple((k, i) for k, i in zip(kept, idx) if i)
                if key not in seen:
                    seen.add(key)
                    fresh.append(pos)
            d_kept = int(np.prod(kept_dims))
            c = hermitian_product_basis(kept_dims).reshape(-1, d_kept * d_kept)[fresh]
            c.setflags(write=False)
            coeffs.append(c)
        self.coeffs = tuple(coeffs)
        self.imaginary = np.concatenate([c.imag.any(axis=1) for c in coeffs])
        self.imaginary.setflags(write=False)

    @cached_property
    def every_row(self) -> _Operator:
        return _operator(self.dims, list(zip(self.kept, self.coeffs)))

    @cached_property
    def real_rows(self) -> _Operator:
        real = [c.real[~c.imag.any(axis=1)] for c in self.coeffs]
        for c in real:
            c.setflags(write=False)
        return _operator(self.dims, list(zip(self.kept, real)))


@lru_cache(maxsize=64)
def _shape(dims: tuple[int, ...], kept_sets: tuple[tuple[int, ...], ...]) -> _Shape:
    """The :class:`_Shape` of every decision on these dims and kept sets: built
    at the first and shared, read-only, by the later ones."""
    return _Shape(dims, kept_sets)


def _exact_trace(spec: MarginalSpec, x: np.ndarray) -> np.ndarray:
    """The finishing map of a spec's witness: rescaled to the exact required
    trace (preserves positivity, moves the marginal residuals by a relative
    ~1e-9)."""
    if spec.normalization <= 0:
        return x
    return x * (spec.normalization / float(np.trace(x).real))


def _rhs(shape: _Shape, spec: MarginalSpec) -> np.ndarray:
    """b = P vec(target) of every basis row of the spec, in target order."""
    return np.concatenate([
        c.view(float) @ target.reshape(-1).view(float)
        for c, (_, target) in zip(shape.coeffs, spec.targets)
    ])


def _decide(
    spec: MarginalSpec,
    words: tuple[str, str],
    eps: float,
    finish: Callable[[np.ndarray], np.ndarray] | None = None,
    holds: Callable[[np.ndarray], bool] | None = None,
    psd: float = WITNESS_PSD,
) -> Report:
    """The spec's feasibility in the caller's words, its witness through finish
    (default: rescaled to the exact trace) and its dual vector on every basis row.

    Rows that a real solve meets exactly are left out of it (see the module
    docstring) and get an exact 0 in the dual vector. Everything but the
    right-hand sides comes from the spec's :class:`_Shape`. holds, when given,
    replaces the solved rows' check (PSD to -psd) of the finished witness.
    """
    shape = _shape(spec.dims, tuple(kept for kept, _ in spec.targets))
    rhs = _rhs(shape, spec)
    if rhs[shape.imaginary].any():
        op, solved = shape.every_row, slice(None)
    else:
        op, solved = shape.real_rows, ~shape.imaginary
    report = _group_feasibility(
        _Rows(op, rhs[solved]),
        words=words,
        eps=eps,
        finish=finish or partial(_exact_trace, spec),
        holds=holds,
        psd=psd,
    )
    dual = np.zeros(len(rhs))
    dual[solved] = report.dual_certificate
    return replace(report, dual_certificate=dual)


def marginal_feasibility(spec: MarginalSpec, *, eps: float = BAND) -> Report:
    """Decide existence of a PSD operator with the prescribed marginals: feasible
    or infeasible, and marginal for slacks with |t| < eps."""
    return _decide(spec, (FEASIBLE, INFEASIBLE), eps)


# ---------------------------------------------------------------------------
# channel compatibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompatReport(Report):
    """Verdict of a channel-pair compatibility test: compatible, incompatible or
    marginal.

    joint_choi is the witness joint channel on (out_1 (x) out_2) for
    compatible pairs; witness is its read-only Choi matrix, one copy, validated
    once by the decision (see :func:`_joint_finish`), not again as a Channel.
    dual_witness is a pair (A, B) normalized to the Frobenius ball with
    lift(A) + 1 (x) B >= 0; its objective value Tr(C_1 A) + Tr(C_2 B) is
    dual_value, negative for incompatible pairs.
    """

    joint_choi: Channel | None
    dual_witness: tuple[np.ndarray, np.ndarray]
    dual_value: float


def _compat_spec(c1: Channel, c2: Channel) -> MarginalSpec:
    if c1.in_dim != c2.in_dim:
        raise ValueError(f"channels have different input dimensions {c1.in_dim} != {c2.in_dim}")
    d1, d2, din = c1.out_dim, c2.out_dim, c1.in_dim
    return MarginalSpec._trusted((d1, d2, din), (((1, 3), c1.choi), ((2, 3), c2.choi)), din)


def _dual_per_target(spec: MarginalSpec, report: Report) -> list[np.ndarray]:
    """Recombine the dual vector into one Hermitian matrix sum_p y_p B_p per target."""
    layout = _shape(spec.dims, tuple(kept for kept, _ in spec.targets)).coeffs
    ends = np.cumsum([len(p) for p in layout])
    return [
        (report.dual_certificate[end - len(p):end] @ p.view(float))
        .view(complex).reshape(target.shape)
        for p, end, (_, target) in zip(layout, ends, spec.targets)
    ]


def _joint_finish(spec: MarginalSpec, x: np.ndarray) -> np.ndarray:
    """The finishing map of a joint channel's Choi matrix on (out_1, out_2, in):
    rescaled, projected onto exact trace preservation and made exactly
    Hermitian. The decision then checks it on the rows and PSD to
    -min(WITNESS_PSD, PSD_TOL n), n its dimension: ``Channel(...)``'s bound
    where that is the stricter one (n < 10), so it needs no re-validation."""
    x = _exact_trace(spec, x)  # a new array: the normalization d_in is positive
    d, din = spec.dims[0] * spec.dims[1], spec.dims[2]
    defect = partial_trace(x, spec.dims, {1, 2}) - np.eye(din)
    blocks = np.arange(d)
    x.reshape(d, din, d, din)[blocks, :, blocks, :] -= defect / d
    return (x + x.conj().T) / 2


def _unitary_kraus(c: Channel) -> np.ndarray | None:
    """K, unitary to rounding, of a complex Choi matrix C = |K>><<K| with
    d_out = d_in; else None. A PSD C has rank 1 exactly when Tr C^2 =
    (Tr C)^2; its largest diagonal entry's column is then vec(K) up to a phase."""
    choi, d = c.choi, c.in_dim
    if c.out_dim != d or not choi.imag.any():
        return None
    trace = float(np.trace(choi).real)
    if abs(np.vdot(choi, choi).real - trace * trace) > HERMITIAN_TOL * trace * trace:
        return None
    j = int(np.argmax(choi.diagonal().real))
    k = (choi[:, j] / np.sqrt(choi[j, j].real)).reshape(d, d)
    if np.max(np.abs(k.conj().T @ k - np.eye(d))) > HERMITIAN_TOL:
        return None
    return k


def _conjugated(
    x: np.ndarray, dims: tuple[int, ...], units: tuple[np.ndarray | None, ...]
) -> np.ndarray:
    """U x U^H for U the product of one unitary per factor of dims (None: the
    identity), one factor at a time on each side."""
    n = x.shape[0]
    for f, u in enumerate(units):
        if u is not None:
            pre, post = prod(dims[:f]), prod(dims[f + 1:])
            x = (u @ x.reshape(pre, dims[f], post * n)).reshape(n * pre, dims[f], post)
            x = (u.conj() @ x).reshape(n, n)
    return x


def _real_gauge(
    c1: Channel, c2: Channel
) -> tuple[tuple[np.ndarray | None, ...], MarginalSpec] | None:
    """The per-factor unitaries (K_1, K_2, None) of the pair's unitary
    channels (None: not gauged) and the spec with each C_k replaced by
    (K_k^H (x) 1) C_k (K_k (x) 1), imaginary parts up to HERMITIAN_TOL
    dropped; None when no channel is gauged or a larger one remains."""
    kraus = [_unitary_kraus(c) for c in (c1, c2)]
    if kraus[0] is None and kraus[1] is None:
        return None
    targets = []
    for kept, c, k in zip(((1, 3), (2, 3)), (c1, c2), kraus):
        choi = c.choi
        if k is not None:
            choi = _conjugated(choi, (c.out_dim, c.in_dim), (k.conj().T, None))
        if np.max(np.abs(choi.imag)) > HERMITIAN_TOL:
            return None
        targets.append((kept, choi.real.astype(complex)))
    spec = MarginalSpec._trusted((c1.out_dim, c2.out_dim, c1.in_dim), tuple(targets), c1.in_dim)
    return (*kraus, None), spec


def _decide_gauged(
    spec: MarginalSpec,
    units: tuple[np.ndarray | None, ...],
    gauged: MarginalSpec,
    words: tuple[str, str],
    eps: float,
    finish: Callable[[np.ndarray], np.ndarray],
    psd: float,
) -> Report:
    """The spec decided by the solve of the gauged spec, whose target k is
    U_k^H T_k U_k (U_k the product of the per-factor units over its kept
    factors, None the identity), every report field mapped back to the spec
    (see the module docstring); dual_objective is b.y on the spec's rows."""
    shape = _shape(spec.dims, tuple(kept for kept, _ in spec.targets))
    rhs = _rhs(shape, spec)

    def rotated(x: np.ndarray) -> np.ndarray:
        x = _conjugated(x, spec.dims, units)
        return finish((x + x.conj().T) / 2)

    report = _decide(
        gauged, words, eps, rotated, holds=lambda x: _Rows(shape.every_row, rhs).holds(x, psd)
    )
    dual = []
    for c, w, (kept, _) in zip(shape.coeffs, _dual_per_target(gauged, report), spec.targets):
        w = _conjugated(w, tuple(spec.dims[f - 1] for f in kept), tuple(units[f - 1] for f in kept))
        dual.append(c.view(float) @ w.reshape(-1).view(float))
    dual = np.concatenate(dual)
    return replace(report, dual_certificate=dual, dual_objective=float(rhs @ dual))


def channels_compatible(c1: Channel, c2: Channel, *, eps: float = BAND) -> CompatReport:
    """Decide whether two channels admit a joint channel with both marginals;
    a pair that :func:`_real_gauge` makes real is solved in that gauge."""
    spec = _compat_spec(c1, c2)
    words, finish = (COMPATIBLE, INCOMPATIBLE), partial(_joint_finish, spec)
    psd = min(WITNESS_PSD, PSD_TOL * prod(spec.dims))
    gauge = _real_gauge(c1, c2)
    if gauge is None:
        report = _decide(spec, words, eps, finish, psd=psd)
    else:
        report = _decide_gauged(spec, *gauge, words, eps, finish, psd)
    # a.y = 1 on the optimal dual vector, so the pair is not zero
    a, b = _dual_per_target(spec, report)
    scale = float(np.sqrt(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2)))
    a, b = a / scale, b / scale
    dual_value = float(
        np.real(np.sum(np.conj(a) * c1.choi)) + np.real(np.sum(np.conj(b) * c2.choi))
    )
    joint = None
    if report.witness is not None:
        # validated to Channel's bounds by the decision; the report shares its array
        joint = Channel._trusted(c1.in_dim, (c1.out_dim, c2.out_dim), report.witness)
    return CompatReport(**vars(report), joint_choi=joint, dual_witness=(a, b), dual_value=dual_value)


# ---------------------------------------------------------------------------
# steering and Bell locality
# ---------------------------------------------------------------------------


def state_steerable(
    rho: np.ndarray, c1: Channel, c2: Channel, *, eps: float = BAND
) -> Report:
    """Steering test for a bipartite state held between a reference and channels.

    The second factor of rho is sent through either channel; the verdict is
    steerable, unsteerable, or marginal inside the band.
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
    spec = MarginalSpec._trusted((d_c, c1.out_dim, c2.out_dim), (((1, 2), t1), ((1, 3), t2)), 1.0)
    return _decide(spec, ("unsteerable", "steerable"), eps)


def bell_local(
    rho: np.ndarray,
    c11: Channel,
    c21: Channel,
    c12: Channel,
    c22: Channel,
    *,
    eps: float = BAND,
) -> Report:
    """Bell locality test for a bipartite state under two channel choices per wing.

    c11, c21 act on the first factor of rho, c12, c22 on the second; the four
    factors of the sought state are their outputs in this order. The verdict
    is local, nonlocal, or marginal inside the band.
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
    spec = MarginalSpec._trusted(
        (c11.out_dim, c21.out_dim, c12.out_dim, c22.out_dim), targets, 1.0
    )
    return _decide(spec, ("local", "nonlocal"), eps)


# ---------------------------------------------------------------------------
# two-outcome effect compatibility
# ---------------------------------------------------------------------------


def effects_compatible(f: np.ndarray, g: np.ndarray, *, eps: float = BAND) -> Report:
    """Joint measurability of two effects: compatibility (compatible or
    incompatible) of their :func:`~choimarg.channels.measure_prepare` channels
    rho -> Tr(rho e)|0><0| + Tr(rho (1-e))|1><1|, with Choi matrices
    diag(1,0) (x) e^T + diag(0,1) (x) (1-e)^T.

    The report witness is G = h_00, where h_ab^T is the principal block
    X[a,b,:,a,b,:] of the joint Choi matrix X on (2, 2, d); G, f - G, g - G
    and 1 - f - g + G are h_00, h_01, h_10 and h_11, all PSD.
    """
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    if f.shape != g.shape:
        raise ValueError(f"effects have different dimensions: shapes {f.shape} != {g.shape}")
    spec = _compat_spec(measure_prepare(f), measure_prepare(g))
    d = spec.dims[2]
    report = _decide(spec, (COMPATIBLE, INCOMPATIBLE), eps)
    if report.witness is None:
        return report
    # a principal block of the validated joint Choi matrix, so PSD whenever it is;
    # copied, so that the report does not keep the whole joint matrix alive
    block = report.witness.reshape(2, 2, d, 2, 2, d)[0, 0, :, 0, 0, :].T
    return replace(report, witness=block.copy())
