"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from choimarg import chsh as chsh_mod
from choimarg import cli
from choimarg import marginals as mg
from choimarg.channels import (
    apply,
    channel_from_dict,
    depolarizing_channel,
    identity_channel,
    max_entangled,
    measure_prepare,
    state_from_dict,
    tensor,
    unitary_channel,
    w_state,
)
from choimarg.linalg import partial_trace
from choimarg.sampling import random_channel, random_density, random_separable, random_unitary
from choimarg.sdp import BAND, FEAS_TOL, FEASIBLE, GAP_TOL, INFEASIBLE, MARGINAL
from conftest import SX, SZ

TSIRELSON = 2.0 * np.sqrt(2.0)


def _announce(number, text):
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def _cli_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_no_broadcasting(capsys):
    start = time.monotonic()
    code, payload = _cli_json(capsys, ["compat", "--preset", "identity-pair", "--json"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert payload["verdict"] == "incompatible"
    assert payload["slack"] <= -1e-4
    assert elapsed < 5.0
    _announce(1, f"identity pair incompatible, slack {payload['slack']:.4f}, {elapsed:.2f}s")


def test_criterion_02_constant_channels(capsys):
    start = time.monotonic()
    code, payload = _cli_json(capsys, ["compat", "--preset", "depolarizing-pair", "--json"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert payload["verdict"] == "compatible"
    joint = channel_from_dict(payload["witness"])
    dep = depolarizing_channel(2)
    dev1 = np.max(np.abs(partial_trace(joint.choi, (2, 2, 2), {2}) - dep.choi))
    dev2 = np.max(np.abs(partial_trace(joint.choi, (2, 2, 2), {1}) - dep.choi))
    assert max(dev1, dev2) <= 1e-6
    assert elapsed < 5.0
    _announce(2, f"depolarizing pair compatible, witness marginal deviation {max(dev1, dev2):.1e}")


def test_criterion_03_effect_threshold():
    def compatible_at(s):
        f = (np.eye(2) + s * SX) / 2
        g = (np.eye(2) + s * SZ) / 2
        return mg.effects_compatible(f, g).verdict == mg.COMPATIBLE

    lo, hi = 0.5, 0.9
    assert compatible_at(lo) and not compatible_at(hi)
    for _ in range(12):
        mid = (lo + hi) / 2
        if compatible_at(mid):
            lo = mid
        else:
            hi = mid
    threshold = (lo + hi) / 2
    assert abs(threshold - 0.70711) <= 1e-3
    _announce(3, f"effect compatibility threshold located at s* = {threshold:.5f}")


def test_criterion_04_me_state_equivalence():
    rng = np.random.default_rng(42)
    psi = max_entangled(2)
    start = time.monotonic()
    decided = marginal = 0
    for _ in range(20):
        c1 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
        c2 = random_channel(2, 2, rng, kraus_rank=int(rng.integers(1, 5)))
        comp = mg.channels_compatible(c1, c2)
        steer = mg.state_steerable(psi, c1, c2)
        if MARGINAL in (comp.verdict, steer.verdict):
            marginal += 1
            continue
        decided += 1
        assert (steer.verdict == "steerable") == (comp.verdict == mg.INCOMPATIBLE)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert decided >= 15
    _announce(4, f"steerability == incompatibility on {decided} decided pairs "
                 f"({marginal} marginal), {elapsed:.1f}s")


def test_criterion_05_w_state_steering(capsys):
    code, payload = _cli_json(capsys, ["steer", "--preset", "w-state", "--json"])
    assert code == 0
    assert payload["verdict"] == "unsteerable"
    witness, _dims = state_from_dict(payload["witness"])
    err = np.linalg.norm(witness - w_state())
    assert err <= 1e-4
    _announce(5, f"rho_W unsteerable, witness within {err:.1e} of |W><W|")


def test_criterion_06_nonlocal_without_steering(capsys):
    start = time.monotonic()
    code, payload = _cli_json(capsys, ["bell", "--preset", "w-state", "--json"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert payload["verdict"] == "nonlocal"
    assert payload["slack"] <= -1e-5
    assert elapsed < 30.0
    code5, payload5 = _cli_json(capsys, ["steer", "--preset", "w-state", "--json"])
    assert code5 == 0 and payload5["verdict"] == "unsteerable"
    _announce(6, f"rho_W Bell nonlocal (slack {payload['slack']:.2e}) yet unsteerable, "
                 f"{elapsed:.1f}s")


def test_criterion_07_chsh_scan():
    rows = chsh_mod.chsh_scan(1.0, 10.0, 901)
    worst = max(abs(x - chsh_mod.closed_form_chsh(theta)) for theta, x in rows)
    assert worst <= 1e-9
    assert abs(rows[0][1] - 2.0) <= 1e-9
    best_theta, best_x = max(rows, key=lambda r: r[1])
    assert abs(best_x - TSIRELSON) <= 1e-4
    assert abs(best_theta - (3.0 + 2.0 * np.sqrt(2.0))) <= 1e-2
    assert all(x > 2.0 for theta, x in rows if theta > 1.0 + 1e-12)
    assert all(x <= TSIRELSON + 1e-9 for _theta, x in rows)
    _announce(7, f"scan matches closed form to {worst:.1e}; max X = {best_x:.6f} "
                 f"at theta = {best_theta:.4f}")


def test_criterion_08_tsirelson_suite():
    rng = np.random.default_rng(2718)
    psi = max_entangled(2)
    worst = 0.0
    for _ in range(200):
        chans = [unitary_channel(random_unitary(2, rng)) for _ in range(4)]
        worst = max(worst, abs(chsh_mod.chsh_value(*chans, psi).value))
        assert worst <= TSIRELSON + 1e-7
    for _ in range(50):
        chans = [random_channel(2, 2, rng) for _ in range(4)]
        rho = random_density(4, rng)
        worst = max(worst, abs(chsh_mod.chsh_value(*chans, rho).value))
        assert worst <= TSIRELSON + 1e-7
    _announce(8, f"250 instances within the Tsirelson bound, max |X| = {worst:.6f}")


def test_criterion_09_locality_bound():
    rng = np.random.default_rng(314)
    local = 0
    attempts = 0
    while local < 20 and attempts < 40:
        attempts += 1
        rho = random_separable(2, 2, rng)
        chans = [random_channel(2, 2, rng) for _ in range(4)]
        rep = mg.bell_local(rho, *chans)
        if rep.verdict != "local":
            continue
        local += 1
        value = chsh_mod.chsh_value(*chans, rho).value
        assert abs(value) <= 2.0 + 1e-6
    assert local == 20
    _announce(9, f"{local} Bell-local instances all satisfy |X| <= 2")


def test_criterion_10_solver_self_audit():
    rng = np.random.default_rng(1618)
    ident = identity_channel(2)
    dep = depolarizing_channel(2)
    rho_w = partial_trace(w_state(), (2, 2, 2), {2})
    audited = []

    def audit_gap(entry, report):
        # every verdict explains itself: the solve that decided it ran, met the
        # gap and residual targets, and its slack is bounded by its dual objective
        assert report.iterations >= 1
        assert report.gap <= min(GAP_TOL, BAND / 10)
        assert report.primal_residual <= FEAS_TOL and report.dual_residual <= FEAS_TOL
        assert report.slack <= report.dual_objective + 1e-6 * (1 + abs(report.slack))
        assert abs(report.slack - report.dual_objective) <= 1e-6 * (1 + abs(report.slack))
        audited.append((entry, report.verdict))

    # compatibility witness, audited against the original Choi matrices
    comp = mg.channels_compatible(dep, dep)
    assert comp.verdict == mg.COMPATIBLE
    joint = comp.joint_choi.choi
    assert np.linalg.eigvalsh(joint)[0] >= -1e-8
    assert np.max(np.abs(partial_trace(joint, (2, 2, 2), {2}) - dep.choi)) <= 1e-6
    assert np.max(np.abs(partial_trace(joint, (2, 2, 2), {1}) - dep.choi)) <= 1e-6
    audit_gap("compat", comp)

    # steering witness, audited against freshly computed targets
    steer = mg.state_steerable(rho_w, ident, ident)
    assert steer.verdict == "unsteerable"
    sigma = steer.witness
    t1 = apply(tensor(identity_channel(2), ident), rho_w)
    assert np.linalg.eigvalsh(sigma)[0] >= -1e-8
    assert np.max(np.abs(partial_trace(sigma, (2, 2, 2), {3}) - t1)) <= 1e-6
    assert np.max(np.abs(partial_trace(sigma, (2, 2, 2), {2}) - t1)) <= 1e-6
    audit_gap("steer", steer)

    # Bell witness of the maximally mixed state
    bell = mg.bell_local(np.eye(4) / 4, ident, ident, ident, ident)
    assert bell.verdict == "local"
    sigma4 = bell.witness
    assert np.linalg.eigvalsh(sigma4)[0] >= -1e-8
    for kept, traced in (((1, 3), {2, 4}), ((1, 4), {2, 3}), ((2, 3), {1, 4}), ((2, 4), {1, 3})):
        marg = partial_trace(sigma4, (2, 2, 2, 2), traced)
        assert np.max(np.abs(marg - np.eye(4) / 4)) <= 1e-6
    audit_gap("bell", bell)

    # effect decomposition blocks
    f = (np.eye(2) + 0.5 * SX) / 2
    g = (np.eye(2) + 0.5 * SZ) / 2
    eff = mg.effects_compatible(f, g)
    assert eff.verdict == mg.COMPATIBLE
    G = eff.witness
    for block in (G, f - G, g - G, np.eye(2) - f - g + G):
        assert np.linalg.eigvalsh(block)[0] >= -1e-6
    audit_gap("effects", eff)

    # infeasible and random verdicts still close their duality gaps
    audit_gap("compat", mg.channels_compatible(ident, ident))
    audit_gap("steer", mg.state_steerable(max_entangled(2), ident, unitary_channel(
        np.array([[1, 1], [1, -1]]) / np.sqrt(2))))
    audit_gap("bell", mg.bell_local(rho_w, ident, ident, ident, ident))
    audit_gap("effects", mg.effects_compatible(np.diag([1.0, 0.0]), np.full((2, 2), 0.5)))
    half, psi = np.eye(2) / 2, max_entangled(2)
    product = mg.MarginalSpec((2, 2), (((1,), half), ((2,), half)))
    monogamy = mg.MarginalSpec((2, 2, 2), (((1, 2), psi), ((1, 3), psi)))
    audit_gap("marginal", mg.marginal_feasibility(product))
    audit_gap("marginal", mg.marginal_feasibility(monogamy))
    for _ in range(3):
        c1, c2 = random_channel(2, 2, rng), random_channel(2, 2, rng)
        audit_gap("compat", mg.channels_compatible(c1, c2))
    # all five entry points, each with both of its verdicts
    assert set(audited) == {
        ("compat", mg.COMPATIBLE), ("compat", mg.INCOMPATIBLE),
        ("effects", mg.COMPATIBLE), ("effects", mg.INCOMPATIBLE),
        ("steer", "unsteerable"), ("steer", "steerable"),
        ("bell", "local"), ("bell", "nonlocal"),
        ("marginal", FEASIBLE), ("marginal", INFEASIBLE),
    }
    _announce(10, f"{len(audited)} solved programs re-validated outside the solver")
