from typing import NamedTuple

import numpy as np
import pytest

from choimarg import marginals as mg
from choimarg import sdp
from choimarg.channels import Channel

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def depolarize(c, p):
    """The channel rho -> (1 - p) Phi(rho) + p Tr(rho) 1/d."""
    mixed = np.eye(c.choi.shape[0]) / c.out_dim
    return Channel(in_dim=c.in_dim, out_dims=c.out_dims, choi=(1.0 - p) * c.choi + p * mixed)


def spy_dtypes(monkeypatch):
    """The list that records the dtype of the rows of every later IPM solve:
    float on a real block, complex otherwise."""
    dtypes, ipm = [], sdp._ipm

    def spy(rows, **kwargs):
        dtypes.append(rows.op.dtype)
        return ipm(rows, **kwargs)

    monkeypatch.setattr(sdp, "_ipm", spy)
    return dtypes


class RowGroup(NamedTuple):
    """Constraint rows that lift basis elements from kept factors of the block:
    row p reads Re<lift(B_p), X> = rhs[p], with vec(B_p) as row p of coeffs on
    the 0-based ``kept`` factors (ascending)."""

    kept: tuple
    coeffs: np.ndarray
    rhs: np.ndarray


def target_rows(spec):
    """One row group per target of a spec: the coefficient matrices of its
    shape and rhs P vec(target), as the decisions compute them."""
    shape = mg._shape(spec.dims, tuple(kept for kept, _ in spec.targets))
    return [
        RowGroup(kept, c, c.view(float) @ target.reshape(-1).view(float))
        for kept, c, (_, target) in zip(shape.kept, shape.coeffs, spec.targets)
    ]


def operator_of(dims, groups):
    """The equality operator of row groups, built for them alone."""
    return sdp._Operator(dims, [(g.kept, g.coeffs) for g in groups])


def rows_of(dims, groups):
    """The rows of row groups: their own operator and their right-hand sides."""
    return sdp._Rows(operator_of(dims, groups), np.concatenate([g.rhs for g in groups]))
