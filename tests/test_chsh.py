import numpy as np
import pytest

from choimarg import chsh
from choimarg.channels import (
    Channel, apply, identity_channel, max_entangled, measure_prepare, tensor, unitary_channel,
)
from choimarg.linalg import check_unitary, kron
from choimarg.marginals import bell_local
from choimarg.sampling import random_channel, random_density, random_effect, random_separable, random_unitary
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


def random_observable(d, rng):
    """A random Hermitian A with -1 <= A <= 1."""
    u = random_unitary(d, rng)
    return (u * rng.uniform(-1.0, 1.0, d)) @ u.conj().T


def tensor_correlation(ci, cj, rho, obs):
    """Tr((ci (x) cj)(rho) A) through the public tensor product and apply."""
    return np.trace(apply(tensor(ci, cj), rho) @ obs).real


class TestBilinearForm:
    """correlation and chsh_value contract the Choi matrices with one form Q;
    the tensor-product channel applied to rho is the oracle."""

    @pytest.mark.parametrize("ins, outs", [((2, 2), (2, 2)), ((2, 2), (3, 3)), ((2, 3), (3, 2)),
                                           ((3, 2), (2, 4)), ((3, 3), (3, 3))])
    def test_correlation_matches_tensor_apply(self, rng, ins, outs):
        for _ in range(4):
            ci, cj = (random_channel(d, o, rng) for d, o in zip(ins, outs))
            rho = random_density(ins[0] * ins[1], rng)
            obs = None if outs == (2, 2) else random_observable(outs[0] * outs[1], rng)
            ref = tensor_correlation(ci, cj, rho, np.diag([1.0, -1.0, -1.0, 1.0]) if obs is None else obs)
            assert abs(chsh.correlation(ci, cj, rho, obs) - ref) <= 1e-12

    def test_composite_output_channel(self, rng):
        # a channel with out_dims (2, 2) on one wing, a qubit channel on the other
        for _ in range(4):
            c = random_channel(2, 4, rng)
            ci = Channel(in_dim=2, out_dims=(2, 2), choi=c.choi)
            cj = random_channel(3, 2, rng)
            rho, obs = random_density(6, rng), random_observable(8, rng)
            assert abs(chsh.correlation(ci, cj, rho, obs) - tensor_correlation(ci, cj, rho, obs)) <= 1e-12
            assert abs(chsh.correlation(cj, ci, rho, obs) - tensor_correlation(cj, ci, rho, obs)) <= 1e-12

    def test_chsh_value_matches_tensor_apply(self, rng):
        for ins, outs in (((2, 2), (2, 2)), ((2, 3), (3, 2)), ((3, 2), (2, 3))):
            wing1 = [random_channel(ins[0], outs[0], rng) for _ in range(2)]
            wing2 = [random_channel(ins[1], outs[1], rng) for _ in range(2)]
            rho = random_density(ins[0] * ins[1], rng)
            obs = random_observable(outs[0] * outs[1], rng)
            rep = chsh.chsh_value(*wing1, *wing2, rho, obs)
            ref = np.array([[tensor_correlation(ci, cj, rho, obs) for cj in wing2] for ci in wing1])
            own = np.array([[chsh.correlation(ci, cj, rho, obs) for cj in wing2] for ci in wing1])
            np.testing.assert_allclose(rep.correlations, ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rep.correlations, own, rtol=0, atol=1e-15)

    def test_scan_rows_equal_chsh_value_on_the_default_grid(self):
        rows = chsh.chsh_scan(1.0, 10.0, 901)
        psi = max_entangled(2)
        for theta, x in rows[::75]:
            chans = [unitary_channel(u) for u in chsh.theta_family(float(theta))]
            assert x == chsh.chsh_value(*chans, psi).value


def _qubit(rng):
    return random_channel(2, 2, rng)


DIMENSION_CASES = [
    # (which channel of (c11, c21, c12, c22) is odd, its (in, out), expected message)
    (0, (3, 2), "state dimension 4 != joint channel input 6"),
    (1, (3, 2), "state dimension 4 != joint channel input 6"),
    (2, (3, 2), "state dimension 4 != joint channel input 6"),
    (3, (3, 2), "state dimension 4 != joint channel input 6"),
    (0, (2, 3), "observable dimension 4 != joint output dimension 6"),
    (1, (2, 3), "observable dimension 4 != joint output dimension 6"),
    (2, (2, 3), "observable dimension 4 != joint output dimension 6"),
    (3, (2, 3), "observable dimension 4 != joint output dimension 6"),
]


class TestDimensionChecks:
    """Each channel pair checks its joint input against the state and its joint
    output against the observable, with the texts of the tensor-product path."""

    @pytest.mark.parametrize("odd, dims, message", DIMENSION_CASES)
    def test_chsh_value(self, rng, odd, dims, message):
        chans = [_qubit(rng) for _ in range(4)]
        chans[odd] = random_channel(*dims, rng)
        with pytest.raises(ValueError, match=f"^{message}$"):
            chsh.chsh_value(*chans, random_density(4, rng))

    @pytest.mark.parametrize("odd, dims, message", DIMENSION_CASES)
    def test_correlation(self, rng, odd, dims, message):
        pair = [_qubit(rng), _qubit(rng)]
        pair[odd % 2] = random_channel(*dims, rng)
        with pytest.raises(ValueError, match=f"^{message}$"):
            chsh.correlation(*pair, random_density(4, rng))

    def test_state_of_the_wrong_dimension(self, rng):
        chans = [_qubit(rng) for _ in range(4)]
        with pytest.raises(ValueError, match="^state dimension 6 != joint channel input 4$"):
            chsh.chsh_value(*chans, random_density(6, rng))


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

    @pytest.mark.parametrize(
        "theta", [np.array([1.0, 2.0]), [1.0], "1.0", 1.0 + 0j, np.complex128(2.0), np.array(1j), None],
        ids=["array", "list", "string", "complex", "numpy-complex", "0-d-complex", "none"],
    )
    def test_rejects_a_theta_that_is_not_a_real_number(self, theta):
        for f in (chsh.theta_family, chsh.closed_form_chsh):
            with pytest.raises(ValueError, match="^theta must be a real number, got "):
                f(theta)

    def test_accepts_real_numbers_of_any_type(self):
        ref = chsh.theta_family(4.0)
        for theta in (np.float64(4.0), np.float32(4.0), np.int64(4), 4, np.array(4.0)):
            for got, want in zip(chsh.theta_family(theta), ref):
                np.testing.assert_array_equal(got, want)
            assert chsh.closed_form_chsh(theta) == chsh.closed_form_chsh(4.0)


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

    @pytest.mark.parametrize("bound", [np.array([1.0, 2.0]), "1.0", 1.0 + 0j, None])
    @pytest.mark.parametrize("name", ["theta_min", "theta_max"])
    def test_range_bounds_must_be_real_numbers(self, name, bound):
        kwargs = {"theta_min": 1.0, "theta_max": 10.0, name: bound}
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            chsh.chsh_scan(steps=3, **kwargs)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 2.0), (1.0, np.nan), (-np.inf, 2.0), (1.0, np.inf)])
    def test_non_finite_range(self, lo, hi):
        with pytest.raises(ValueError, match=r"^invalid scan range \["):
            chsh.chsh_scan(lo, hi, 3)

    def test_range_bounds_of_any_real_type(self):
        ref = chsh.chsh_scan(1.0, 10.0, 5)
        np.testing.assert_array_equal(chsh.chsh_scan(np.array(1.0), np.float32(10.0), 5), ref)
        np.testing.assert_array_equal(chsh.chsh_scan(1, np.int64(10), 5), ref)

    @pytest.mark.parametrize("steps", [2.5, True, "3", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match="steps"):
            chsh.chsh_scan(1.0, 10.0, steps)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_fewer_than_two_steps(self, steps):
        # one message for every count below the minimum of 2
        with pytest.raises(ValueError, match=f"^steps {steps} is not an integer of at least 2$"):
            chsh.chsh_scan(1.0, 10.0, steps)

    @pytest.mark.parametrize("steps", [np.int64(3), 3.0])
    def test_integral_steps_of_any_type(self, steps):
        rows = chsh.chsh_scan(1.0, 10.0, steps)
        assert rows.shape == (3, 2)
        np.testing.assert_array_equal(rows, chsh.chsh_scan(1.0, 10.0, 3))

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
            assert rep.verdict == "local"
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
        assert bell_local(psi, *chans).verdict == "nonlocal"


PHI_PLUS = max_entangled(2)
CHSH_SETTINGS = (
    np.diag([1.0, -1.0]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    np.array([[1.0, -1.0], [-1.0, -1.0]]) / np.sqrt(2.0),
)
"""Z and X on the first wing, (Z + X)/sqrt(2) and (Z - X)/sqrt(2) on the second."""


def fine_case(visibility, observables):
    """Phi+ at a visibility, the measure-prepare channels of the effects
    (1 + A)/2 of the observables (A_0, A_1, B_0, B_1), and the four CHSH forms
    of the correlators Tr(rho A_x (x) B_y), with numpy alone."""
    rho = visibility * PHI_PLUS + (1.0 - visibility) * np.eye(4) / 4
    e = np.array([[np.trace(rho @ np.kron(a, b)).real for b in observables[2:]]
                  for a in observables[:2]])
    forms = e.sum() - 2 * e.ravel()
    channels = [measure_prepare((np.eye(2) + a) / 2) for a in observables]
    return rho, channels, forms


def fine_cases():
    """Seeded cases around the CHSH optimum, then a sweep of the optimal
    settings across visibility 1/sqrt(2), where CHSH = 2 sqrt(2) v passes 2."""
    rng = np.random.default_rng(1982)
    for _ in range(90):
        observables = []
        for a in CHSH_SETTINGS:
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            w, v = np.linalg.eigh((h + h.conj().T) / 2)
            r = (v * np.exp(0.3j * w)) @ v.conj().T
            observables.append(rng.uniform(0.8, 1.0) * r @ a @ r.conj().T)
        yield fine_case(rng.uniform(0.6, 1.0), observables)
    for delta in (-1e-3, -1e-4, -1e-5, -3e-6, -1e-6, 0.0, 1e-6, 3e-6, 1e-5, 1e-4, 1e-3):
        yield fine_case((2.0 + delta) / (2.0 * np.sqrt(2.0)), CHSH_SETTINGS)


class TestFineTheorem:
    """Two dichotomic measurements per wing, as measure-prepare channels, give
    diagonal targets: a local state is a joint distribution of the four
    outcomes, which exists exactly when all four CHSH forms satisfy |.| <= 2
    (Fine 1982, PRL 48, 291). That closed form decides every verdict outside
    the band; inside it the band rule may call a state local whose CHSH value
    exceeds 2 by about 32 eps, so there only the distance to 2 is checked."""

    def test_verdicts_follow_fines_theorem(self):
        decided, in_band = [], 0
        for rho, channels, forms in fine_cases():
            rep = bell_local(rho, *channels)
            chsh_max = float(np.max(np.abs(forms)))
            if abs(rep.slack) < 1e-7:
                in_band += 1
                assert abs(chsh_max - 2.0) <= 1e-5
                continue
            assert rep.verdict == ("local" if chsh_max <= 2.0 else "nonlocal")
            decided.append(rep.verdict)
        # 101 cases: the sweep's 5 points within 3e-6 of CHSH = 2 fall in the
        # band, and both verdicts occur among the random cases too
        assert len(decided) >= 90 and in_band >= 3
        assert decided.count("nonlocal") >= 4
