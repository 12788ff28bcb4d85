import numpy as np
import pytest

from choimarg import chsh
from choimarg.channels import identity_channel, max_entangled, measure_prepare, unitary_channel
from choimarg.linalg import check_unitary, kron
from choimarg.marginals import bell_local
from choimarg.sampling import random_channel, random_density, random_effect, random_separable, random_unitary
from choimarg.sdp import FEASIBLE, INFEASIBLE
from conftest import HADAMARD, depolarize


def unitary_me_correlation(u: np.ndarray, v: np.ndarray) -> float:
    """Closed-form correlation of two unitary channels on the maximally entangled state.

    With W = V U^T this is (|W_00|^2 + |W_11|^2 - |W_01|^2 - |W_10|^2) / 2.
    """
    u = check_unitary(np.asarray(u, dtype=complex))
    v = check_unitary(np.asarray(v, dtype=complex))
    if u.shape != (2, 2) or v.shape != (2, 2):
        raise ValueError("closed form requires 2x2 unitaries")
    w = v @ u.T
    p = np.abs(w) ** 2
    return float((p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]) / 2)


def effect_correlation(rho, m, n):
    """Two-outcome measurement correlation, evaluated directly."""
    return float(np.trace(rho @ kron(2 * m - np.eye(2), 2 * n - np.eye(2))).real)


class TestCorrelation:
    def test_identity_on_00(self):
        ident = identity_channel(2)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert abs(chsh.correlation(ident, ident, rho) - 1.0) < 1e-12

    def test_identity_on_max_entangled(self):
        ident = identity_channel(2)
        assert abs(chsh.correlation(ident, ident, max_entangled(2)) - 1.0) < 1e-12

    def test_measure_prepare_reduces_to_effect_correlation(self, rng):
        for _ in range(5):
            m, n = random_effect(2, rng), random_effect(2, rng)
            rho = random_density(4, rng)
            value = chsh.correlation(measure_prepare(m), measure_prepare(n), rho)
            assert abs(value - effect_correlation(rho, m, n)) <= 1e-10

    def test_bounded(self, rng):
        for _ in range(10):
            value = chsh.correlation(
                random_channel(2, 2, rng), random_channel(2, 2, rng), random_density(4, rng)
            )
            assert abs(value) <= 1.0 + 1e-9

    def test_rejects_bad_observable(self):
        ident = identity_channel(2)
        with pytest.raises(ValueError, match="observable"):
            chsh.correlation(ident, ident, np.eye(4) / 4, obs=2.0 * np.eye(4))


class TestChshValue:
    def test_identities_on_max_entangled(self):
        ident = identity_channel(2)
        rep = chsh.chsh_value(ident, ident, ident, ident, max_entangled(2))
        assert np.allclose(rep.correlations, np.ones((2, 2)), atol=1e-12)
        assert abs(rep.value - 2.0) <= 1e-12
        assert not rep.exceeds_classical
        assert rep.within_tsirelson

    def test_combination_identity(self, rng):
        chans = [random_channel(2, 2, rng) for _ in range(4)]
        rep = chsh.chsh_value(*chans, random_density(4, rng))
        e = rep.correlations
        assert abs(rep.value - (e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])) <= 1e-12
        assert np.all(np.abs(e) <= 1 + 1e-9)

    @pytest.mark.parametrize(
        "theta,expected",
        [(1.0, 2.0), (3.0 + 2.0 * np.sqrt(2.0), 2.0 * np.sqrt(2.0))],
    )
    def test_theta_family_values(self, theta, expected):
        u1, u2, v1, v2 = chsh.theta_family(theta)
        rep = chsh.chsh_value(
            unitary_channel(u1), unitary_channel(u2),
            unitary_channel(v1), unitary_channel(v2), max_entangled(2),
        )
        assert abs(rep.value - expected) <= 1e-9


class TestUnitaryMeCorrelation:
    def test_identity_pair(self):
        assert abs(unitary_me_correlation(np.eye(2), np.eye(2)) - 1.0) < 1e-12

    def test_hadamard_pair(self):
        assert abs(unitary_me_correlation(HADAMARD, HADAMARD) - 1.0) < 1e-12

    def test_identity_hadamard(self):
        assert abs(unitary_me_correlation(np.eye(2), HADAMARD)) < 1e-12

    def test_agrees_with_channel_path(self, rng):
        psi = max_entangled(2)
        for _ in range(100):
            u, v = random_unitary(2, rng), random_unitary(2, rng)
            closed = unitary_me_correlation(u, v)
            full = chsh.correlation(unitary_channel(u), unitary_channel(v), psi)
            assert abs(closed - full) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_me_correlation(np.diag([1.0, 0.5]), np.eye(2))


class TestThetaFamily:
    def test_u2_is_identity(self):
        for theta in (0.0, 1.0, 4.0, 9.7):
            _u1, u2, _v1, _v2 = chsh.theta_family(theta)
            assert np.allclose(u2, np.eye(2))

    def test_theta_one_gives_hadamards(self):
        _u1, _u2, v1, v2 = chsh.theta_family(1.0)
        assert np.allclose(v1, HADAMARD, atol=1e-12)
        assert np.allclose(v2, HADAMARD, atol=1e-12)

    def test_theta_four(self):
        _u1, _u2, v1, _v2 = chsh.theta_family(4.0)
        assert np.allclose(v1, np.array([[2.0, 1.0], [1.0, -2.0]]) / np.sqrt(5.0))

    def test_all_unitary(self):
        for theta in (0.0, 0.3, 2.0, 10.0):
            for u in chsh.theta_family(theta):
                assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chsh.theta_family(-0.1)

    @pytest.mark.parametrize("theta", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite(self, theta):
        for f in (chsh.theta_family, chsh.closed_form_chsh):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                f(theta)


class TestScan:
    def test_rows_match_closed_form(self):
        rows = chsh.chsh_scan(1.0, 10.0, 181)
        for theta, x in rows:
            assert abs(x - chsh.closed_form_chsh(theta)) <= 1e-9
            assert x <= chsh.TSIRELSON_BOUND + 1e-9

    def test_first_row(self):
        rows = chsh.chsh_scan(1.0, 10.0, 10)
        assert rows.shape == (10, 2) and rows.dtype == np.float64
        assert rows[0][0] == 1.0
        assert abs(rows[0][1] - 2.0) <= 1e-9

    def test_peak_location(self):
        rows = chsh.chsh_scan(1.0, 10.0, 1000)
        best_theta, best_x = max(rows, key=lambda r: r[1])
        assert abs(best_x - chsh.TSIRELSON_BOUND) <= 1e-4
        assert abs(best_theta - (3.0 + 2.0 * np.sqrt(2.0))) <= 2e-2

    def test_rows_equal_chsh_value(self):
        rows = chsh.chsh_scan(1.0, 10.0, 50)
        for theta, x in rows[[0, 23, 49]]:
            chans = [unitary_channel(u) for u in chsh.theta_family(float(theta))]
            assert x == chsh.chsh_value(*chans, max_entangled(2)).value

    def test_validation_does_not_grow_with_steps(self, monkeypatch):
        # the state and the observable are validated once per scan; the
        # channels built from unitaries are CPTP without an eigen-solve
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(None)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        counts = []
        for steps in (10, 50):
            calls.clear()
            chsh.chsh_scan(1.0, 10.0, steps)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            chsh.chsh_scan(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            chsh.chsh_scan(-1.0, 5.0, 10)
        with pytest.raises(ValueError):
            chsh.chsh_scan(1.0, 10.0, 1)

    def test_csv_format(self):
        csv = chsh.scan_to_csv([(1.0, 2.0), (1.5, 2.25)])
        lines = csv.strip().split("\n")
        assert lines[0] == "theta,X"
        assert lines[1] == "1,2"
        assert "," in lines[2] and "." in lines[2]


class TestBounds:
    def test_tsirelson_for_random_unitaries(self, rng):
        psi = max_entangled(2)
        for _ in range(50):
            chans = [unitary_channel(random_unitary(2, rng)) for _ in range(4)]
            rep = chsh.chsh_value(*chans, psi)
            assert abs(rep.value) <= chsh.TSIRELSON_BOUND + 1e-7

    def test_tsirelson_for_random_channels(self, rng):
        for _ in range(10):
            chans = [random_channel(2, 2, rng) for _ in range(4)]
            rep = chsh.chsh_value(*chans, random_density(4, rng))
            assert abs(rep.value) <= chsh.TSIRELSON_BOUND + 1e-7

    def test_measure_prepare_chsh_reduction(self, rng):
        # the channel CHSH of four measure-and-prepare channels equals the
        # effect CHSH combination
        for _ in range(50):
            m1, m2 = random_effect(2, rng), random_effect(2, rng)
            n1, n2 = random_effect(2, rng), random_effect(2, rng)
            rho = random_density(4, rng)
            rep = chsh.chsh_value(
                measure_prepare(m1), measure_prepare(m2),
                measure_prepare(n1), measure_prepare(n2), rho,
            )
            expected = (
                effect_correlation(rho, m1, n1)
                + effect_correlation(rho, m1, n2)
                + effect_correlation(rho, m2, n1)
                - effect_correlation(rho, m2, n2)
            )
            assert abs(rep.value - expected) <= 1e-10

    def test_local_verdicts_respect_classical_bound(self, rng):
        for _ in range(5):
            rho = random_separable(2, 2, rng)
            chans = [random_channel(2, 2, rng) for _ in range(4)]
            rep = bell_local(rho, *chans)
            assert rep.status == FEASIBLE
            value = chsh.chsh_value(*chans, rho).value
            assert abs(value) <= 2.0 + 1e-6

    @pytest.mark.parametrize("p", [0.05, 0.10, 0.15, 0.158])
    def test_chsh_violation_implies_nonlocal(self, p):
        # a local state has |X| <= 2, so X > 2 must give a nonlocal verdict;
        # depolarized, so that the locality problem is not trivially infeasible
        # as it is for any four unitary channels on the maximally entangled state
        psi = max_entangled(2)
        chans = [depolarize(unitary_channel(u), p) for u in chsh.theta_family(3 + 2 * np.sqrt(2))]
        assert chsh.chsh_value(*chans, psi).value > 2 + 1e-6
        assert bell_local(psi, *chans).status == INFEASIBLE
