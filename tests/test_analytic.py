"""Closed-form steady state: hand-checked oracle, invariants, dual-route agreement."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydberg_receiver as rr
from rydberg_receiver.analytic import (
    _lambda_terms,
    analytic_steady_state,
    rho21_from_amplitudes,
    zeta,
)
from rydberg_receiver.lindblad import DriveConfig

TWO_PI = 2.0 * np.pi
fidelity_module = importlib.import_module("rydberg_receiver.fidelity")

# Unit-strength hand case: omega_p = omega_c = gamma = 1, Omega = (2, 1, 1, 1).
# zeta = 2*1 - 1*1 = 1, Lambda = 1 + 2*(4+1+1+1) + 2*((1+1)*1 + 1) = 21.
HAND = DriveConfig(omega_p=1.0, omega_c=1.0, rf_rabi=(2.0, 1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def unit_scheme(probe_decay_scheme):
    """The hand case's scheme: gamma_21 = 1."""
    return probe_decay_scheme(1.0)


class TestZeta:
    def test_hand_values(self):
        assert zeta((2.0, 1.0, 1.0, 1.0)) == 1.0
        assert zeta((1.0, 2.0, 6.0, 3.0)) == 0.0
        assert zeta((0.0, 1.0, 0.0, 1.0)) == -1.0

    def test_array_broadcast(self):
        o1 = np.array([1.0, 2.0, 3.0])
        out = zeta((o1, 1.0, 4.0, 2.0))
        assert np.array_equal(out, o1 * 4.0 - 2.0)


class TestHandOracle:
    def test_lambda_and_zeta(self):
        assert zeta(HAND.rf_rabi) == 1.0
        assert _lambda_terms(1.0, 1.0, HAND.rf_rabi, 1.0) == (1.0, 21.0)

    def test_rho21(self, unit_scheme):
        assert rho21_from_amplitudes(1.0, 1.0, HAND.rf_rabi, 1.0) == -1j / 21.0
        assert analytic_steady_state(HAND, unit_scheme).coherence(2, 1) == -1j / 21.0

    def test_populations(self, unit_scheme):
        rho = analytic_steady_state(HAND, unit_scheme).matrix
        expected = np.array([4.0, 1.0, 2.0, 3.0, 5.0, 6.0]) / 21.0
        assert np.allclose(np.diag(rho).real, expected, rtol=0, atol=1e-15)

    def test_nonzero_coherences(self, unit_scheme):
        rho = analytic_steady_state(HAND, unit_scheme).matrix
        lower = {
            (1, 0): -1j / 21.0,
            (2, 0): -2.0 / 21.0,
            (3, 0): 1j / 21.0,
            (4, 0): 3.0 / 21.0,
            (5, 0): -1j / 21.0,
            (3, 1): -1.0 / 21.0,
            (5, 1): 1.0 / 21.0,
            (4, 2): -3.0 / 21.0,
            (5, 3): -4.0 / 21.0,
        }
        for (i, j), val in lower.items():
            assert rho[i, j] == pytest.approx(val, abs=1e-15), (i, j)
            assert rho[j, i] == pytest.approx(np.conj(val), abs=1e-15)

    def test_structurally_vanishing_coherences(self, unit_scheme):
        rho = analytic_steady_state(HAND, unit_scheme).matrix
        for i, j in ((2, 1), (3, 2), (4, 1), (5, 2), (4, 3), (5, 4)):
            assert rho[i, j] == 0.0
            assert rho[j, i] == 0.0


class TestInvariants:
    @staticmethod
    def _random_points(n, seed, probe_decay_scheme):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            drive = DriveConfig(
                omega_p=TWO_PI * rng.uniform(0.5, 8.0),
                omega_c=TWO_PI * rng.uniform(0.2, 4.0),
                rf_rabi=tuple(TWO_PI * rng.uniform(0.3, 9.0, size=4)),
            )
            yield drive, probe_decay_scheme(TWO_PI * rng.uniform(0.5, 8.0))

    def test_trace_one(self, probe_decay_scheme):
        for drive, scheme in self._random_points(100, 11, probe_decay_scheme):
            rho = analytic_steady_state(drive, scheme).matrix
            assert abs(np.trace(rho).real - 1.0) < 1e-14
            assert np.trace(rho).imag == 0.0

    def test_hermitian(self, probe_decay_scheme):
        for drive, scheme in self._random_points(20, 12, probe_decay_scheme):
            rho = analytic_steady_state(drive, scheme).matrix
            assert np.array_equal(rho, rho.conj().T)

    def test_positive_semidefinite(self, probe_decay_scheme):
        # PSD must hold over a wide sweep, not just at the hand point;
        # omega_p > 0 with some RF power keeps Lambda > 0 at every draw
        rng = np.random.default_rng(13)
        worst = np.inf
        for _ in range(10_000):
            drive = DriveConfig(
                omega_p=rng.uniform(0.05, 20.0),
                omega_c=rng.uniform(0.05, 20.0),
                rf_rabi=tuple(rng.uniform(0.0, 20.0, size=4)),
            )
            scheme = probe_decay_scheme(rng.uniform(0.05, 20.0))
            evals = np.linalg.eigvalsh(analytic_steady_state(drive, scheme).matrix)
            worst = min(worst, evals[0])
        assert worst > -1e-13

    def test_drive_scale_invariance(self, unit_scheme, probe_decay_scheme):
        # rho is a ratio of degree-6 forms: scaling every rate by 2 is exact
        base = analytic_steady_state(HAND, unit_scheme).matrix
        doubled = analytic_steady_state(
            DriveConfig(omega_p=2.0, omega_c=2.0, rf_rabi=(4.0, 2.0, 2.0, 2.0)),
            probe_decay_scheme(2.0),
        ).matrix
        assert np.array_equal(base, doubled)

    def test_balanced_loop_dark_probe(self, probe_decay_scheme):
        # Omega_1 Omega_3 = Omega_2 Omega_4 built from exact integer products
        drive = DriveConfig(omega_p=3.0, omega_c=2.0, rf_rabi=(6.0, 4.0, 10.0, 15.0))
        assert zeta(drive.rf_rabi) == 0.0
        assert rho21_from_amplitudes(3.0, 2.0, drive.rf_rabi, 5.0) == 0.0
        rho = analytic_steady_state(drive, probe_decay_scheme(5.0)).matrix
        assert rho[1, 0] == 0.0
        assert rho[1, 1] == 0.0


rf_amplitudes = st.floats(TWO_PI * 0.5, TWO_PI * 9.0)


def _imbalanced(rf):
    return abs(zeta(rf)) >= 0.1 * (rf[0] * rf[2] + rf[1] * rf[3])


class TestAgainstNullSpace:
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(
        omega_p=st.floats(TWO_PI * 1.0, TWO_PI * 7.0),
        omega_c=st.floats(TWO_PI * 0.3, TWO_PI * 3.0),
        gamma_21=st.floats(TWO_PI * 0.5, TWO_PI * 8.0),
        rows=st.lists(
            st.tuples(rf_amplitudes, rf_amplitudes, rf_amplitudes, rf_amplitudes).filter(
                _imbalanced
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_reduced_decay_states_match(
        self, probe_decay_scheme, omega_p, omega_c, gamma_21, rows
    ):
        # independent route: the stationary state of the probe-decay-only
        # generator, away from the balanced loop, is the closed form
        scheme = probe_decay_scheme(gamma_21)
        drive = DriveConfig(omega_p=omega_p, omega_c=omega_c, rf_rabi=rows[0])
        values, (codes, _) = fidelity_module._fidelity_points(
            drive, scheme, np.array(rows), "null_space", 10.0, 1e-4
        )
        assert not codes.any()
        assert np.all(1.0 - values <= 1e-12)
        for rf in rows:
            point = drive.with_rf_rabi(rf)
            closed = analytic_steady_state(point, scheme).matrix
            kernel = rr.steady_state_numerical(point, scheme, method="null_space").matrix
            assert np.max(np.abs(closed - kernel)) < 1e-10


class TestDegenerate:
    def test_no_probe_no_imbalance_rejected(self, unit_scheme):
        drive = DriveConfig(omega_p=0.0, omega_c=1.0, rf_rabi=(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="degenerate"):
            analytic_steady_state(drive, unit_scheme)
        with pytest.raises(ValueError, match="degenerate"):
            rho21_from_amplitudes(0.0, 1.0, drive.rf_rabi, 1.0)

    def test_all_rf_off_rejected(self, unit_scheme):
        drive = DriveConfig(omega_p=1.0, omega_c=1.0, rf_rabi=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate"):
            analytic_steady_state(drive, unit_scheme)

    def test_bad_rf_length(self):
        with pytest.raises(ValueError, match=r"DriveConfig\.rf_rabi must have 4 entries"):
            DriveConfig(omega_p=1.0, omega_c=1.0, rf_rabi=(1.0, 2.0))

    def test_negative_gamma(self, probe_decay_scheme):
        with pytest.raises(ValueError, match="decay rate for 2->1 must be >= 0"):
            probe_decay_scheme(-1.0)


class TestVectorized:
    def test_matches_scalar_route(self, unit_scheme):
        amps = np.linspace(0.5, 4.0, 7)
        out = rho21_from_amplitudes(1.0, 1.0, (amps, 1.0, 1.0, 1.0), 1.0)
        for k, a in enumerate(amps):
            assert out[k] == rho21_from_amplitudes(1.0, 1.0, (a, 1.0, 1.0, 1.0), 1.0)
            drive = DriveConfig(omega_p=1.0, omega_c=1.0, rf_rabi=(a, 1.0, 1.0, 1.0))
            state = analytic_steady_state(drive, unit_scheme)
            assert out[k] == pytest.approx(state.coherence(2, 1), rel=1e-15, abs=0.0)

    def test_hand_value(self):
        assert rho21_from_amplitudes(1.0, 1.0, (2.0, 1.0, 1.0, 1.0), 1.0) == -1j / 21.0

    def test_degenerate_sample_rejected(self):
        amps = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="Lambda"):
            rho21_from_amplitudes(0.0, 1.0, (amps, 0.0, 1.0, 0.0), 1.0)


def test_benchmark_spot_check_call(op_drive, scheme):
    # bench/checks.py still calls the closed form with one argument
    ctx = rr.AnalyticContext.from_drive(op_drive, scheme.decay_rate(2, 1))
    expected = analytic_steady_state(op_drive, scheme).matrix
    assert np.array_equal(rr.analytic_steady_state(ctx).matrix, expected)
