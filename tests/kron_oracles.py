"""Kronecker-product oracles for the structured row operators.

The package applies a row group's lifts through index maps (``sdp._Operator``);
these build the same operators densely from ``np.kron`` and a transpose of
tensor factors, so tests can check one against the other.
"""

from typing import Sequence

import numpy as np

from choimarg.linalg import check_shape, kron


def permute_factors(a: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: output factor j is input factor ``order[j]`` (0-based)."""
    a = np.asarray(a, dtype=complex)
    dims = check_shape(dims, a.shape[0])
    n = len(dims)
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"{order} is not a permutation of 0..{n - 1}")
    t = a.reshape(dims + dims).transpose(order + [n + k for k in order])
    return t.reshape(a.shape)


def embed(op: np.ndarray, dims: Sequence[int], factors: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on the 1-based ``factors`` into the full space.

    ``op`` acts on the tensor product of the named factors in ascending factor
    order; identity is placed on every other factor. For a product operator
    A_1 (x) A_2 on factors (1, 3) of a 3-factor space this is the lift
    A_1 (x) 1 (x) A_2.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    factors = sorted(int(k) for k in factors)
    if not set(factors) <= set(range(1, n + 1)) or len(set(factors)) != len(factors):
        raise ValueError(f"factors {factors} not a subset of 1..{n}")
    d_f = int(np.prod([dims[k - 1] for k in factors]))
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_f, d_f):
        raise ValueError(f"operator shape {op.shape} does not match factors {factors}")
    rest = [k for k in range(1, n + 1) if k not in factors]
    d_rest = int(np.prod([dims[k - 1] for k in rest])) if rest else 1
    full = kron(op, np.eye(d_rest))
    # full currently lives on (factors..., rest...); permute back to 1..n
    current = factors + rest
    current_dims = tuple(dims[k - 1] for k in current)
    order = [current.index(k) for k in range(1, n + 1)]
    return permute_factors(full, current_dims, order)
