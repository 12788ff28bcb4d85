"""Symmetries and certificates of the verdicts on seeded random inputs.

Each compatibility example draws two random qutrit channels of Kraus rank 1
to 3 from a seed and mixes each with a random amount of depolarizing noise,
so both verdicts occur. The symmetries hold exactly in the mathematics, so
verdict and slack must agree up to the solver's accuracy, and more
depolarizing noise on one channel never makes a compatible pair
incompatible. Every verdict's witness or dual certificate is re-checked with
numpy alone, independently of the package: for compatibility, and for
steering and Bell locality on seeded random qubit states and channels. The
dual vector of every verdict, feasible ones included, is checked to be dual
feasible on every preset and on a real and a complex qutrit pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choimarg import marginals as mg
from choimarg.channels import (
    Channel,
    _apply,
    depolarizing_channel,
    identity_channel,
    max_entangled,
    tensor,
    unitary_channel,
)
from choimarg.linalg import kron
from choimarg.presets import bell_preset, compat_preset, steer_preset
from choimarg.sampling import random_channel, random_density, random_separable, random_unitary
from conftest import depolarize
from kron_oracles import embed

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


qubit_cases = settings(max_examples=5, deadline=None, derandomize=True, database=None)


def noisy_qubit_channel(rng):
    # little noise, applied to a pure state: over seeds 0-39, 32 random
    # steering cases and 10 locality cases are infeasible, the rest feasible
    c = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 3)))
    return depolarize(c, rng.uniform(0.0, 0.3))


def marginal(x, dims, kept):
    """Partial trace of x onto the 1-based factors ``kept``, with numpy alone."""
    t = x.reshape(dims * 2)
    for f in sorted(set(range(1, len(dims) + 1)) - set(kept), reverse=True):
        t = np.trace(t, axis1=f - 1, axis2=f - 1 + t.ndim // 2)
    d = int(np.prod([dims[k - 1] for k in kept]))
    return t.reshape(d, d)


def dual_cone(rep, dims, targets):
    """The dual vector recombined with the rows' coefficient matrices into one
    Hermitian W_k per target: sum_k lift(W_k) and sum_k Tr(W_k T_k)."""
    layout = mg._shape(dims, tuple(kept for kept, _ in targets)).coeffs
    ends = np.cumsum([len(p) for p in layout])
    cone = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    value = 0.0
    for (kept, target), p, end in zip(targets, layout, ends):
        w = np.tensordot(rep.dual_certificate[end - len(p):end], p, 1).reshape(target.shape)
        assert np.max(np.abs(w - w.conj().T)) <= 1e-12
        cone += embed(w, dims, kept)
        value += np.trace(w @ target).real
    return cone, value


def assert_certified_marginals(rep, words, dims, targets):
    """Re-check a steering or locality verdict against fresh targets; return it.

    words are the question's verdicts for a feasible and an infeasible program.

    A feasible verdict's witness must be PSD and reproduce every target. An
    infeasible one's dual vector, recombined by :func:`dual_cone`, must give
    sum_k lift(W_k) >= 0 and sum_k Tr(W_k T_k) < 0, which no PSD operator
    with these marginals allows.
    """
    assert rep.verdict in words
    if rep.verdict == words[0]:
        assert np.linalg.eigvalsh(rep.witness)[0] >= -1e-8
        for kept, target in targets:
            assert np.max(np.abs(marginal(rep.witness, dims, kept) - target)) <= 1e-6
        return rep.verdict
    cone, value = dual_cone(rep, dims, targets)
    assert np.linalg.eigvalsh(cone)[0] >= -1e-8
    assert value < 0
    assert abs(value - rep.dual_objective) <= 1e-8
    return rep.verdict


def compat_targets(c1, c2):
    return (c1.out_dim, c2.out_dim, c1.in_dim), (((1, 3), c1.choi), ((2, 3), c2.choi))


def steering_targets(rho, c1, c2):
    dims = (rho.shape[0] // c1.in_dim, c1.out_dim, c2.out_dim)
    ident = identity_channel(dims[0])
    return dims, (
        ((1, 2), _apply(tensor(ident, c1), rho)),
        ((1, 3), _apply(tensor(ident, c2), rho)),
    )


def locality_targets(rho, c11, c21, c12, c22):
    return (c11.out_dim, c21.out_dim, c12.out_dim, c22.out_dim), (
        ((1, 3), _apply(tensor(c11, c12), rho)),
        ((1, 4), _apply(tensor(c11, c22), rho)),
        ((2, 3), _apply(tensor(c21, c12), rho)),
        ((2, 4), _apply(tensor(c21, c22), rho)),
    )


def assert_certified_steering(rho, c1, c2):
    rep = mg.state_steerable(rho, c1, c2)
    return assert_certified_marginals(
        rep, ("unsteerable", "steerable"), *steering_targets(rho, c1, c2)
    )


def assert_certified_locality(rho, c11, c21, c12, c22):
    rep = mg.bell_local(rho, c11, c21, c12, c22)
    return assert_certified_marginals(
        rep, ("local", "nonlocal"), *locality_targets(rho, c11, c21, c12, c22)
    )


def random_qutrit_pair():
    rng = np.random.default_rng(5)
    return tuple(random_channel(3, 3, rng, kraus_rank=2) for _ in range(2))


DUAL_FEASIBILITY_CASES = {
    **{
        f"compat-{name}": (mg.channels_compatible, compat_targets, lambda name=name: compat_preset(name))
        for name in ("identity-pair", "depolarizing-pair")
    },
    **{
        f"steer-{name}": (mg.state_steerable, steering_targets, lambda name=name: steer_preset(name))
        for name in ("max-entangled", "w-state")
    },
    **{
        f"bell-{name}": (mg.bell_local, locality_targets, lambda name=name: bell_preset(name))
        for name in ("max-entangled", "w-state", "theta-family:2.5")
    },
    "qutrit-real": (
        mg.channels_compatible, compat_targets,
        lambda: (depolarizing_channel(3, 0.36), depolarizing_channel(3, 0.4)),
    ),
    "qutrit-complex": (mg.channels_compatible, compat_targets, random_qutrit_pair),
}


@pytest.mark.parametrize("name", list(DUAL_FEASIBILITY_CASES))
def test_every_dual_vector_is_dual_feasible(name):
    # feasible verdicts included: the dual vector y of every optimal solve
    # meets a.y = 1 with A*(y) >= 0, so sum_k lift(W_k) is PSD with unit trace
    decide, targets_of, inputs = DUAL_FEASIBILITY_CASES[name]
    args = inputs()
    cone, _ = dual_cone(decide(*args), *targets_of(*args))
    lam = np.linalg.eigvalsh(cone)
    assert lam[0] >= -1e-8 * np.abs(lam).max()
    assert abs(np.trace(cone).real - 1.0) <= 1e-9


@qubit_cases
@given(seeds)
def test_every_steering_verdict_has_an_independently_valid_certificate(seed):
    # besides the random case, a fully depolarizing second channel never
    # steers (rho's image under the first, times 1/2, is a joint state), and
    # any two unitary channels steer the maximally entangled state
    rng = np.random.default_rng(seed)
    rho = random_density(4, rng, rank=1)
    c1, c2 = noisy_qubit_channel(rng), noisy_qubit_channel(rng)
    assert_certified_steering(rho, c1, c2)
    mixed = random_density(4, rng)
    assert assert_certified_steering(mixed, c1, depolarizing_channel(2)) == "unsteerable"
    u, v = (unitary_channel(random_unitary(2, rng)) for _ in range(2))
    assert assert_certified_steering(max_entangled(2), u, v) == "steerable"


@qubit_cases
@given(seeds)
def test_every_locality_verdict_has_an_independently_valid_certificate(seed):
    # besides the random case, a separable state is local under any channels,
    # and any four unitary channels make the maximally entangled state nonlocal
    rng = np.random.default_rng(seed)
    rho = random_density(4, rng, rank=1)
    chans = [noisy_qubit_channel(rng) for _ in range(4)]
    assert_certified_locality(rho, *chans)
    assert assert_certified_locality(random_separable(2, 2, rng), *chans) == "local"
    unitaries = [unitary_channel(random_unitary(2, rng)) for _ in range(4)]
    assert assert_certified_locality(max_entangled(2), *unitaries) == "nonlocal"
