"""Symmetries and certificates of the compatibility verdict on seeded random qutrit pairs.

Each example draws two random channels of Kraus rank 1 to 3 from a seed and
mixes each with a random amount of depolarizing noise, so both verdicts
occur. The symmetries hold exactly in the mathematics, so verdict and slack
must agree up to the solver's accuracy, and more depolarizing noise on one
channel never makes a compatible pair incompatible. Every verdict's witness
or dual certificate is re-checked with numpy alone, independently of the
package.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from choimarg import marginals as mg
from choimarg.channels import Channel, depolarizing_channel, identity_channel
from choimarg.linalg import kron
from choimarg.sampling import random_channel, random_unitary
from conftest import depolarize

SLACK_TOL = 1e-7

seeds = st.integers(min_value=0, max_value=2**32 - 1)
qutrit_pairs = settings(max_examples=3, deadline=None, derandomize=True, database=None)


def noisy_qutrit_channel(rng):
    c = random_channel(3, 3, rng, kraus_rank=int(rng.integers(1, 4)))
    return depolarize(c, rng.uniform(0.0, 0.8))


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


@qutrit_pairs
@given(seeds)
def test_extra_noise_never_breaks_compatibility(seed):
    # the pair of depolarizing channels at p = 0.38 sits just above the qutrit
    # cloning threshold 3/8, so the property is also checked near the boundary
    rng = np.random.default_rng(seed)
    a, b = noisy_qutrit_channel(rng), noisy_qutrit_channel(rng)
    q = rng.uniform(0.0, 0.5)
    cloning = depolarizing_channel(3, 0.38)
    for x, y in ((a, b), (cloning, cloning)):
        if mg.channels_compatible(x, y).verdict == mg.COMPATIBLE:
            assert mg.channels_compatible(x, depolarize(y, q)).verdict == mg.COMPATIBLE


def joint_marginals(joint):
    """Tr_2 and Tr_1 of a joint Choi matrix on (out_1, out_2, in), all qutrits."""
    t = joint.reshape((3,) * 6)
    return np.einsum("ijkljn->ikln", t).reshape(9, 9), np.einsum("ijkimn->jkmn", t).reshape(9, 9)


def cone_matrix(a, b):
    """lift(A) + 1 (x) B: A on factors (1, 3) and B on factors (2, 3) of (out_1, out_2, in)."""
    eye = np.eye(3)
    lifted = np.einsum("ikln,jm->ijklmn", a.reshape((3,) * 4), eye) + np.einsum(
        "jkmn,il->ijklmn", b.reshape((3,) * 4), eye
    )
    return lifted.reshape(27, 27)


def assert_certified(a, b):
    """Decide (a, b) and re-check its witness or certificate; return the verdict."""
    rep = mg.channels_compatible(a, b)
    assert rep.verdict in (mg.COMPATIBLE, mg.INCOMPATIBLE)
    if rep.verdict == mg.COMPATIBLE:
        joint = rep.joint_choi.choi
        assert np.linalg.eigvalsh(joint)[0] >= -1e-8
        m1, m2 = joint_marginals(joint)
        assert np.max(np.abs(m1 - a.choi)) <= 1e-6
        assert np.max(np.abs(m2 - b.choi)) <= 1e-6
    else:
        wa, wb = rep.dual_witness
        assert np.linalg.eigvalsh(cone_matrix(wa, wb))[0] >= -1e-8
        value = np.trace(a.choi @ wa).real + np.trace(b.choi @ wb).real
        assert value < 0
        assert abs(value - rep.dual_value) <= 1e-8
    return rep.verdict


@qutrit_pairs
@given(seeds)
def test_every_verdict_has_an_independently_valid_certificate(seed):
    # besides the random pair, the identity channel is compatible only with
    # constant channels and the fully depolarizing channel with every channel,
    # so both kinds of certificate are checked on every example
    rng = np.random.default_rng(seed)
    a, b = noisy_qutrit_channel(rng), noisy_qutrit_channel(rng)
    assert_certified(a, b)
    assert assert_certified(a, identity_channel(3)) == mg.INCOMPATIBLE
    assert assert_certified(a, depolarizing_channel(3)) == mg.COMPATIBLE
