"""Symmetries of the compatibility verdict on seeded random qutrit channel pairs.

Each example draws two random channels of Kraus rank 1 to 3 from a seed and
mixes each with a random amount of depolarizing noise, so both verdicts
occur. The properties hold exactly in the mathematics, so verdict and slack
must agree up to the solver's accuracy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from choimarg import marginals as mg
from choimarg.channels import Channel
from choimarg.linalg import kron
from choimarg.sampling import random_channel, random_unitary

SLACK_TOL = 1e-7

seeds = st.integers(min_value=0, max_value=2**32 - 1)
qutrit_pairs = settings(max_examples=3, deadline=None, derandomize=True, database=None)


def noisy_qutrit_channel(rng):
    c = random_channel(3, 3, rng, kraus_rank=int(rng.integers(1, 4)))
    p = rng.uniform(0.0, 0.8)
    return Channel(in_dim=3, out_dims=(3,), choi=(1.0 - p) * c.choi + p * np.eye(9) / 3)


def conjugate_output(c, u):
    """The channel rho -> U Phi(rho) U^dagger."""
    w = kron(u, np.eye(c.in_dim))
    return Channel(in_dim=c.in_dim, out_dims=c.out_dims, choi=w @ c.choi @ w.conj().T)


def assert_same_decision(r1, r2):
    assert r1.verdict == r2.verdict
    assert abs(r1.slack - r2.slack) <= SLACK_TOL


@qutrit_pairs
@given(seeds)
def test_compatibility_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    a, b = noisy_qutrit_channel(rng), noisy_qutrit_channel(rng)
    assert_same_decision(mg.channels_compatible(a, b), mg.channels_compatible(b, a))


@qutrit_pairs
@given(seeds)
def test_compatibility_invariant_under_local_output_unitaries(seed):
    rng = np.random.default_rng(seed)
    a, b = noisy_qutrit_channel(rng), noisy_qutrit_channel(rng)
    u, v = random_unitary(3, rng), random_unitary(3, rng)
    assert_same_decision(
        mg.channels_compatible(a, b),
        mg.channels_compatible(conjugate_output(a, u), conjugate_output(b, v)),
    )
