"""Seeded random states, effects, unitaries and channels for tests and scans;
every dimension and rank is checked (a ValueError names it) before any draw."""

from __future__ import annotations

import numpy as np

from .channels import Channel, choi_from_kraus
from .linalg import check_dim

__all__ = [
    "random_unitary",
    "random_density",
    "random_effect",
    "random_channel",
    "random_separable",
]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    d = check_dim(d, "d")
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    d = check_dim(d, "d")
    rank = d if rank is None else check_dim(rank, "rank")
    g = _ginibre(rng, d, rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_effect(d: int, rng: np.random.Generator) -> np.ndarray:
    d = check_dim(d, "d")
    u = random_unitary(d, rng)
    return (u * rng.uniform(0.0, 1.0, size=d)) @ u.conj().T


def random_channel(
    in_dim: int, out_dim: int, rng: np.random.Generator, kraus_rank: int | None = None
) -> Channel:
    """Random CPTP map from a Haar isometry into output (x) environment."""
    in_dim, out_dim = check_dim(in_dim, "in_dim"), check_dim(out_dim, "out_dim")
    kraus_rank = in_dim * out_dim if kraus_rank is None else check_dim(kraus_rank, "kraus_rank")
    if out_dim * kraus_rank < in_dim:
        raise ValueError(f"kraus_rank {kraus_rank} is too small: out_dim * kraus_rank < in_dim")
    g = _ginibre(rng, out_dim * kraus_rank, in_dim)
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    isometry = q[:, :in_dim].reshape(out_dim, kraus_rank, in_dim)
    kraus = [isometry[:, e, :] for e in range(kraus_rank)]
    return choi_from_kraus(kraus, in_dim=in_dim, out_dim=out_dim)


def random_separable(d1: int, d2: int, rng: np.random.Generator, terms: int = 4) -> np.ndarray:
    """Random convex mixture of product states (hence Bell local for any channels)."""
    d1, d2, terms = check_dim(d1, "d1"), check_dim(d2, "d2"), check_dim(terms, "terms")
    rho = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    weights = rng.dirichlet(np.ones(terms))
    for w in weights:
        rho += w * np.kron(random_density(d1, rng), random_density(d2, rng))
    return rho
