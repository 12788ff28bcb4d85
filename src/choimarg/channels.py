"""Quantum channels as Choi matrices, with the canonical states they act on.

Choi convention
---------------

The Choi matrix of a channel with input dimension ``d_in`` and output
dimension ``d_out`` acts on (output) (x) (input copy), i.e.

    C = sum_{ij} Phi(|i><j|) (x) |i><j| ,

so that C >= 0 and the partial trace over the *output* factor equals the
identity on the input copy (trace preservation). Channels with composite
outputs keep the factorization in ``out_dims``; the Choi factors are then
``(*out_dims, in_dim)``. The transpose used when applying a channel is taken
in the same computational basis the Choi matrix is built in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    PSD_TOL,
    check_density,
    check_dim,
    check_effect,
    check_finite,
    check_hermitian,
    check_shape,
    check_unitary,
    frozen,
    kron,
    partial_trace,
)

__all__ = [
    "Channel",
    "choi_from_kraus",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "measure_prepare",
    "apply",
    "tensor",
    "max_entangled",
    "w_state",
    "channel_to_dict",
    "channel_from_dict",
    "state_to_dict",
    "state_from_dict",
]


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map stored as its Choi matrix.

    ``Channel(...)`` validates the dimensions (each an integer of at least 1)
    and the Choi matrix in full, at the fixed tolerances of
    :mod:`choimarg.linalg`; ``choi_from_kraus`` and
    ``tensor`` skip that check, their results being CPTP by construction.
    Immutable; safe to share between threads.
    """

    in_dim: int
    out_dims: tuple[int, ...]
    choi: np.ndarray

    def __post_init__(self) -> None:
        try:
            in_dim = check_dim(self.in_dim, "in_dim")
            out_dims = tuple(check_dim(d, "output dimension") for d in self.out_dims)
        except ValueError as exc:
            raise ValueError(f"channel dimensions must be at least 1: {exc}") from None
        if not out_dims:
            raise ValueError("channel dimensions must be at least 1: out_dims is empty")
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dims", out_dims)
        d = self.out_dim * in_dim
        choi = check_hermitian(self.choi)
        if choi.shape != (d, d):
            raise ValueError(f"Choi matrix shape {choi.shape} does not match dims {d}")
        lam = np.linalg.eigvalsh(choi)[0]
        if lam < -PSD_TOL * d:
            raise ValueError(f"Choi matrix is not CP: min eigenvalue {lam:.3e}")
        marg = partial_trace(choi, out_dims + (in_dim,), range(1, len(out_dims) + 1))
        dev = np.max(np.abs(marg - np.eye(in_dim)))
        if dev > PSD_TOL:
            raise ValueError(f"channel is not trace preserving: output marginal deviates by {dev:.3e}")
        object.__setattr__(self, "choi", frozen(choi))

    @classmethod
    def _trusted(cls, in_dim: int, out_dims: tuple[int, ...], choi: np.ndarray) -> Channel:
        """A channel whose Choi matrix is CPTP by construction; runs no checks.

        Only for Hermitian complex arrays that no caller can write to afterwards,
        built from validated inputs (Kraus operators, tensor factors).
        """
        c = object.__new__(cls)
        choi.setflags(write=False)
        object.__setattr__(c, "in_dim", in_dim)
        object.__setattr__(c, "out_dims", out_dims)
        object.__setattr__(c, "choi", choi)
        return c

    @property
    def out_dim(self) -> int:
        return math.prod(self.out_dims)


def choi_from_kraus(
    kraus: Sequence[np.ndarray],
    in_dim: int | None = None,
    out_dim: int | None = None,
) -> Channel:
    """Channel from Kraus operators K_k, validating sum_k K_k^dagger K_k = 1."""
    ops = [check_finite(k) for k in kraus]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    r, c = ops[0].shape
    out_dim = r if out_dim is None else check_dim(out_dim, "out_dim")
    in_dim = c if in_dim is None else check_dim(in_dim, "in_dim")
    for k in ops:
        if k.shape != (out_dim, in_dim):
            raise ValueError(f"Kraus operator shape {k.shape} != ({out_dim}, {in_dim})")
    comp = sum(k.conj().T @ k for k in ops)
    dev = np.max(np.abs(comp - np.eye(in_dim)))
    if dev > PSD_TOL:
        raise ValueError(f"Kraus set is not trace preserving: deviation {dev:.3e}")
    d = out_dim * in_dim
    choi = np.zeros((d, d), dtype=complex)
    for k in ops:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    return Channel._trusted(in_dim, (out_dim,), choi)


def identity_channel(d: int) -> Channel:
    return choi_from_kraus([np.eye(check_dim(d))])


def unitary_channel(u: np.ndarray) -> Channel:
    """The channel rho -> U rho U^dagger."""
    return choi_from_kraus([check_unitary(u)])


def depolarizing_channel(d: int, p: float = 1.0) -> Channel:
    """rho -> (1 - p) rho + p Tr(rho) 1/d; fully depolarizing at p = 1."""
    d = check_dim(d)
    ident = identity_channel(d).choi
    mixed = np.eye(d * d, dtype=complex) / d
    return Channel(in_dim=d, out_dims=(d,), choi=(1.0 - p) * ident + p * mixed)


def measure_prepare(
    effects: np.ndarray | Sequence[np.ndarray],
    preparations: Sequence[np.ndarray] | None = None,
) -> Channel:
    """Measure-and-prepare channel sigma -> sum_k Tr(sigma M_k) |phi_k><phi_k|.

    A single effect M is shorthand for the two-outcome instrument (M, 1 - M)
    preparing the computational states |0>, |1>. In general the effects must
    sum to the identity and the preparations must be orthonormal.
    """
    if isinstance(effects, np.ndarray) or np.asarray(effects).ndim == 2:
        m = check_effect(np.asarray(effects, dtype=complex))
        effect_list = [m, np.eye(m.shape[0]) - m]
    else:
        effect_list = [check_effect(np.asarray(m, dtype=complex)) for m in effects]
    if not effect_list:
        raise ValueError("at least one effect is required")
    d_in = effect_list[0].shape[0]
    total = sum(effect_list)
    if np.max(np.abs(total - np.eye(d_in))) > PSD_TOL:
        raise ValueError("effects do not sum to the identity")
    if preparations is None:
        d_out = len(effect_list)
        preps = [np.eye(d_out, dtype=complex)[:, k] for k in range(d_out)]
    else:
        preps = [np.asarray(v, dtype=complex).reshape(-1) for v in preparations]
        if len(preps) != len(effect_list):
            raise ValueError("need one preparation state per effect")
        d_out = preps[0].size
        gram = np.array([[np.vdot(a, b) for b in preps] for a in preps])
        if np.max(np.abs(gram - np.eye(len(preps)))) > PSD_TOL:
            raise ValueError("preparation states are not orthonormal")
    choi = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for m, v in zip(effect_list, preps):
        choi += kron(np.outer(v, v.conj()), m.T)
    return Channel(in_dim=d_in, out_dims=(d_out,), choi=choi)


def apply(c: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to a state: Phi(rho) = Tr_in( C (1_out (x) rho^T) )."""
    rho = check_density(rho)
    if rho.shape[0] != c.in_dim:
        raise ValueError(f"state dimension {rho.shape[0]} != channel input {c.in_dim}")
    return _apply(c, rho)


def _apply(c: Channel, rho: np.ndarray) -> np.ndarray:
    """``apply`` for a density matrix already validated against ``c.in_dim``."""
    d_out, d_in = c.out_dim, c.in_dim
    c4 = c.choi.reshape(d_out, d_in, d_out, d_in)
    out = np.einsum("aibj,ij->ab", c4, rho)
    return (out + out.conj().T) / 2


def tensor(c1: Channel, c2: Channel) -> Channel:
    """Tensor product channel, Choi factors reordered to (outputs..., input).

    The product of two CPTP maps is CPTP, so the result is not re-validated:
    its marginal may deviate from the identity by the sum of the factors'
    deviations, which each factor's own validation bounds.
    """
    o1, i1, o2, i2 = c1.out_dim, c1.in_dim, c2.out_dim, c2.in_dim
    # axes (a, i, b, j, c, k, d, l) of C1[ai, bj] C2[ck, dl] -> rows (a c i k), columns (b d j l)
    t = np.multiply.outer(c1.choi.reshape(o1, i1, o1, i1), c2.choi.reshape(o2, i2, o2, i2))
    d = o1 * o2 * i1 * i2
    choi = t.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(d, d)
    return Channel._trusted(i1 * i2, c1.out_dims + c2.out_dims, choi)


def max_entangled(d: int) -> np.ndarray:
    """Projector onto |psi+> = d^{-1/2} sum_i |ii> on dimension d^2."""
    d = check_dim(d, "local dimension")
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    v /= np.sqrt(d)
    return np.outer(v, v.conj())


def w_state() -> np.ndarray:
    """Projector onto |W> = (|001> + |010> + |100>)/sqrt(3) on dimension 8."""
    v = np.zeros(8, dtype=complex)
    v[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# JSON wire format (consumed by the CLI)
# ---------------------------------------------------------------------------
#
# Channels: {"kind": "unitary"|"kraus"|"choi"|"measure_prepare"|"identity"|
#            "depolarizing", "in_dim": n, "out_dim": m, "data": ...}
# States:   {"kind": "density", "dims": [d1, ...], "data": matrix}
# Complex entries are two-element arrays [re, im]. Composite channel outputs
# carry an optional "out_dims" list.


def _matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _matrix_from_json(data: object) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_dict(c: Channel) -> dict:
    out: dict = {
        "kind": "choi",
        "in_dim": c.in_dim,
        "out_dim": c.out_dim,
        "data": _matrix_to_json(c.choi),
    }
    if len(c.out_dims) > 1:
        out["out_dims"] = list(c.out_dims)
    return out


_REQUIRED = object()


def _field(d: dict, key: str, convert: Callable = lambda v: v, default: object = _REQUIRED):
    """convert(d[key]), or default when the key is absent or null. A required
    key that is absent, or a value that convert rejects, raises a ValueError
    naming it."""
    value = d.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"JSON field {key!r} is missing")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"JSON field {key!r} is malformed: {exc}") from None


def _dims(value: object) -> tuple[int, ...]:
    return tuple(check_dim(x) for x in value)


def _matrices(value: object) -> list[np.ndarray]:
    return [_matrix_from_json(m) for m in value]


def channel_from_dict(d: dict) -> Channel:
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise ValueError("channel JSON must be an object with a 'kind' key") from None
    in_dim = _field(d, "in_dim", check_dim, 2)
    out_dim = _field(d, "out_dim", check_dim, in_dim)
    if kind == "identity":
        if in_dim != out_dim:
            raise ValueError("identity channel needs in_dim == out_dim")
        return identity_channel(in_dim)
    if kind == "depolarizing":
        p = _field(d, "data", float, 1.0)
        if in_dim != out_dim:
            raise ValueError("depolarizing channel needs in_dim == out_dim")
        return depolarizing_channel(in_dim, p)
    if kind == "unitary":
        u = _field(d, "data", _matrix_from_json)
        if u.shape != (out_dim, in_dim):
            raise ValueError(f"unitary shape {u.shape} does not match dims")
        return unitary_channel(u)
    if kind == "kraus":
        return choi_from_kraus(_field(d, "data", _matrices), in_dim=in_dim, out_dim=out_dim)
    if kind == "choi":
        choi = _field(d, "data", _matrix_from_json)
        out_dims = _field(d, "out_dims", _dims, (out_dim,))
        if int(np.prod(out_dims)) != out_dim:
            raise ValueError("out_dims do not multiply to out_dim")
        return Channel(in_dim=in_dim, out_dims=out_dims, choi=choi)
    if kind == "measure_prepare":
        data = _field(d, "data")
        if isinstance(data, dict):
            # a list of [re, im] vectors reads as the matrix whose rows they are
            return measure_prepare(
                _field(data, "effects", _matrices), _field(data, "preparations", _matrix_from_json, None)
            )
        return measure_prepare(_field(d, "data", _matrix_from_json))
    raise ValueError(f"unknown channel kind {kind!r}")


def state_to_dict(rho: np.ndarray, dims: Sequence[int] | None = None) -> dict:
    rho = np.asarray(rho, dtype=complex)
    dims = (rho.shape[0],) if dims is None else check_shape(dims, rho.shape[0])
    return {"kind": "density", "dims": list(dims), "data": _matrix_to_json(rho)}


def state_from_dict(d: dict) -> tuple[np.ndarray, tuple[int, ...]]:
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise ValueError("state JSON must be an object with a 'kind' key") from None
    if kind != "density":
        raise ValueError(f"unknown state kind {kind!r}")
    rho = check_density(_field(d, "data", _matrix_from_json))
    dims = _field(d, "dims", _dims, (rho.shape[0],))
    check_shape(dims, rho.shape[0])
    return rho, dims
