"""Noise model, fading-averaged rates, and architecture comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c as c_light
from scipy.constants import epsilon_0, hbar, k
from scipy.special import exp1

from rydberg_receiver.comms import (
    ARCH_CHANNELS,
    RABI_SET1,
    RABI_SET2,
    ChannelModel,
    EnvironmentParams,
    blackbody_psd,
    compare_architectures,
    dbm_to_watts,
    ergodic_sum_rate,
    monte_carlo_sum_rate,
    noise_variances,
    rayleigh_power_samples,
    snr,
    sum_rate,
)
from rydberg_receiver.receiver import DEFAULT_CELL
from rydberg_receiver.scheme import Architecture

TWO_PI = 2.0 * np.pi


def unit_channel(gamma_bar, bandwidth=1.0):
    """Channel whose average SNR is exactly ``gamma_bar`` (unit noise)."""
    return ChannelModel(
        gain=1.0,
        transmit_power=float(gamma_bar),
        bandwidth=bandwidth,
        rf_frequency=1.0,
        sigma_i_sq=1.0,
    )


class TestUnits:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(-30.0) == pytest.approx(1e-6, rel=1e-12)

    def test_rabi_sets(self):
        assert RABI_SET1 == (TWO_PI * 7, TWO_PI, TWO_PI, TWO_PI)
        assert RABI_SET2 == (TWO_PI * 2, TWO_PI, TWO_PI, TWO_PI)

    def test_architecture_channel_sets(self):
        assert ARCH_CHANNELS[Architecture.HYBRID] == (1, 2, 3, 4)
        assert ARCH_CHANNELS[Architecture.CRS] == (1, 2, 3)
        assert ARCH_CHANNELS[Architecture.PRS] == (1, 4)


class TestBlackbody:
    def test_rayleigh_jeans_limit(self):
        # x << 1: S -> 8 omega^2 k T / (eps0 c^3)
        omega, temp = TWO_PI * 1e9, 300.0
        expected = 8.0 * omega**2 * k * temp / (epsilon_0 * c_light**3)
        assert blackbody_psd(omega, temp) == pytest.approx(expected, rel=1e-6)

    def test_quantum_limit(self):
        # x = 50: occupation factor is 1 to fifty digits
        temp = 1.0
        omega = 50.0 * k * temp / hbar
        expected = 4.0 * hbar * omega**3 / (epsilon_0 * c_light**3)
        assert blackbody_psd(omega, temp) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_temperature(self):
        omega = TWO_PI * 3.054e9
        vals = [blackbody_psd(omega, t) for t in (100.0, 300.0, 900.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_array_input(self):
        omega = np.array([1e9, 2e9, 4e9])
        out = blackbody_psd(omega, 300.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="omega"):
            blackbody_psd(0.0, 300.0)
        with pytest.raises(ValueError, match="temperature"):
            blackbody_psd(1e9, 0.0)


class TestNoise:
    def test_variance_formulas(self):
        env = EnvironmentParams(y_lo=7e-23, temperature=300.0)
        ch = ChannelModel(gain=3e-21, transmit_power=1e-3, bandwidth=1e5,
                          rf_frequency=TWO_PI * 3.054e9)
        s_i, s_e = noise_variances(ch, env)
        assert s_i == pytest.approx(7e-23 * 1e5 * hbar * env.omega_probe, rel=1e-12)
        assert s_e == pytest.approx(
            (3e-21) ** 2 * 1e5 * blackbody_psd(TWO_PI * 3.054e9, 300.0), rel=1e-12
        )

    def test_with_noise_totals(self):
        env = EnvironmentParams(y_lo=7e-23)
        ch = ChannelModel(gain=3e-21, transmit_power=1e-3, bandwidth=1e5,
                          rf_frequency=TWO_PI * 3.054e9).with_noise(env)
        assert ch.sigma_sq == ch.sigma_i_sq + ch.sigma_e_sq
        assert ch.sigma_i_sq > 0 and ch.sigma_e_sq > 0

    def test_environment_validation(self):
        with pytest.raises(ValueError, match="y_lo"):
            EnvironmentParams(y_lo=0.0)
        with pytest.raises(ValueError, match="temperature"):
            EnvironmentParams(y_lo=1e-22, temperature=-5.0)

    def test_channel_validation(self):
        with pytest.raises(ValueError, match="bandwidth"):
            ChannelModel(gain=1.0, transmit_power=1.0, bandwidth=0.0, rf_frequency=1.0)
        with pytest.raises(ValueError, match="transmit_power"):
            ChannelModel(gain=1.0, transmit_power=-1.0, bandwidth=1.0, rf_frequency=1.0)
        with pytest.raises(ValueError, match="fading_scale"):
            ChannelModel(gain=1.0, transmit_power=1.0, bandwidth=1.0,
                         rf_frequency=1.0, fading_scale=0.0)


class TestSnr:
    def test_hand_value(self):
        ch = ChannelModel(gain=2.0, transmit_power=3.0, bandwidth=1.0,
                          rf_frequency=1.0, sigma_i_sq=6.0)
        assert ch.mean_snr == pytest.approx(2.0, rel=1e-12)
        assert snr(ch, 0.5) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(snr(ch, np.array([0.0, 1.0])), [0.0, 2.0])

    def test_zero_noise_rejected(self):
        ch = ChannelModel(gain=1.0, transmit_power=1.0, bandwidth=1.0, rf_frequency=1.0)
        with pytest.raises(ValueError, match="noise"):
            snr(ch, 1.0)
        with pytest.raises(ValueError, match="noise"):
            ch.mean_snr

    def test_negative_fading_rejected(self):
        with pytest.raises(ValueError, match="fading"):
            snr(unit_channel(1.0), -0.1)

    def test_sum_rate_hand_value(self):
        ch = ChannelModel(gain=2.0, transmit_power=3.0, bandwidth=5.0,
                          rf_frequency=1.0, sigma_i_sq=4.0)
        # snr(h=1) = 3 exactly, so the rate is 5 log2(4) = 10 bits/s
        assert sum_rate([ch], [1.0]) == pytest.approx(10.0, rel=1e-12)

    def test_sum_rate_shape_checked(self):
        with pytest.raises(ValueError, match="one fading power"):
            sum_rate([unit_channel(1.0)], [1.0, 2.0])


class TestErgodicRate:
    def test_unit_snr_constant(self):
        # e E1(1) / ln 2, the single-channel rate at average SNR 1
        rate = ergodic_sum_rate([unit_channel(1.0)])
        assert rate == pytest.approx(0.860353, abs=1e-5)
        assert rate == pytest.approx(math.e * exp1(1.0) / math.log(2.0), rel=1e-12)

    def test_matches_scipy_across_snrs(self):
        for gam in (0.1, 1.0, 10.0, 100.0):
            expected = math.exp(1.0 / gam) * exp1(1.0 / gam) / math.log(2.0)
            assert ergodic_sum_rate([unit_channel(gam)]) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_bandwidth(self):
        assert ergodic_sum_rate([unit_channel(2.0, bandwidth=7.0)]) == pytest.approx(
            7.0 * ergodic_sum_rate([unit_channel(2.0)]), rel=1e-12
        )

    def test_additive_over_channels(self):
        chs = [unit_channel(0.5), unit_channel(4.0)]
        assert ergodic_sum_rate(chs) == pytest.approx(
            sum(ergodic_sum_rate([c]) for c in chs), rel=1e-12
        )

    def test_zero_power_contributes_nothing(self):
        assert ergodic_sum_rate([unit_channel(0.0)]) == 0.0
        chs = [unit_channel(1.0), unit_channel(0.0)]
        assert ergodic_sum_rate(chs) == ergodic_sum_rate([unit_channel(1.0)])

    def test_jensen_bound(self):
        # fading averaging can only lose throughput vs the mean-SNR point
        for gam in (0.1, 1.0, 10.0, 100.0):
            ergodic = ergodic_sum_rate([unit_channel(gam)])
            assert ergodic < math.log2(1.0 + gam)

    def test_monotone_in_power(self):
        rates = [ergodic_sum_rate([unit_channel(g)]) for g in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_tiny_snr_no_overflow(self):
        rate = ergodic_sum_rate([unit_channel(1e-280)])
        assert 0.0 < rate < 1e-270

    def test_array_sweeps_match_scalar_channels(self):
        env = EnvironmentParams(y_lo=7e-23)
        powers = dbm_to_watts(np.array([-4000.0, -30.0, -10.0, 0.0, 10.0]))
        assert powers[0] == 0.0
        bandwidths = np.array([1e4, 1e5, 3e5])

        def channels(p_t, bandwidth):
            return [
                ChannelModel(gain=g, transmit_power=p_t, bandwidth=bandwidth,
                             rf_frequency=TWO_PI * f).with_noise(env)
                for g, f in ((3e-21, 3.054e9), (1e-22, 5.2e9))
            ]

        swept = ergodic_sum_rate(channels(powers, 1e5))
        scalar = [ergodic_sum_rate(channels(float(p), 1e5)) for p in powers]
        assert swept.shape == powers.shape and swept[0] == 0.0
        np.testing.assert_allclose(swept, scalar, rtol=1e-15, atol=0.0)
        swept = ergodic_sum_rate(channels(1e-3, bandwidths))
        scalar = [ergodic_sum_rate(channels(1e-3, float(b))) for b in bandwidths]
        np.testing.assert_allclose(swept, scalar, rtol=1e-15, atol=0.0)
        snrs = np.array([1e-280, 0.0, 1.0, 100.0])
        unit = ChannelModel(gain=1.0, transmit_power=snrs, bandwidth=1.0, rf_frequency=1.0,
                            sigma_i_sq=1.0)
        scalar = [ergodic_sum_rate([unit_channel(g)]) for g in snrs]
        np.testing.assert_allclose(ergodic_sum_rate([unit]), scalar, rtol=1e-15, atol=0.0)
        assert 0.0 < ergodic_sum_rate([unit])[0] < 1e-270


class TestMonteCarlo:
    def test_rayleigh_sampler(self):
        h = rayleigh_power_samples(200_000, fading_scale=2.0, seed=5)
        assert np.mean(h) == pytest.approx(2.0, rel=0.01)
        assert np.array_equal(h, rayleigh_power_samples(200_000, fading_scale=2.0, seed=5))
        with pytest.raises(ValueError, match="fading_scale"):
            rayleigh_power_samples(10, fading_scale=0.0)

    def test_converges_to_closed_form(self):
        ch = unit_channel(1.0)
        mc = monte_carlo_sum_rate([ch], n_samples=200_000, seed=42)
        assert mc == pytest.approx(ergodic_sum_rate([ch]), rel=0.01)

    def test_seeded_and_skips_silent_channels(self):
        chs = [unit_channel(2.0), unit_channel(0.0)]
        a = monte_carlo_sum_rate(chs, n_samples=1000, seed=3)
        b = monte_carlo_sum_rate(chs, n_samples=1000, seed=3)
        assert a == b
        assert a == monte_carlo_sum_rate([unit_channel(2.0)], n_samples=1000, seed=3)


@pytest.fixture(scope="module")
def comparison(scheme):
    return compare_architectures(
        scheme,
        RABI_SET2,
        power_range_dbm=(-10.0, 0.0),
        bandwidth_range_hz=(1e4, 1e5),
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
    )


class TestArchitectureComparison:
    def test_hybrid_dominates_pointwise(self, comparison):
        for i in range(len(comparison.power_dbm)):
            h = comparison.power_rates[Architecture.HYBRID][i]
            c = comparison.power_rates[Architecture.CRS][i]
            p = comparison.power_rates[Architecture.PRS][i]
            assert h >= c >= p > 0
        for i in range(len(comparison.bandwidth_hz)):
            h = comparison.bandwidth_rates[Architecture.HYBRID][i]
            c = comparison.bandwidth_rates[Architecture.CRS][i]
            p = comparison.bandwidth_rates[Architecture.PRS][i]
            assert h >= c >= p > 0

    def test_rates_grow_with_power_and_bandwidth(self, comparison):
        for arch in ARCH_CHANNELS:
            assert comparison.power_rates[arch][1] > comparison.power_rates[arch][0]
            assert comparison.bandwidth_rates[arch][1] > comparison.bandwidth_rates[arch][0]

    def test_lookups(self, comparison):
        assert comparison.rate_at_power(Architecture.HYBRID, -10.0) == pytest.approx(
            comparison.power_rates[Architecture.HYBRID][0]
        )
        assert comparison.rate_at_bandwidth(Architecture.PRS, 1e5) == pytest.approx(
            comparison.bandwidth_rates[Architecture.PRS][1]
        )
        with pytest.raises(ValueError, match="not in the sweep"):
            comparison.rate_at_power(Architecture.CRS, -7.0)
        with pytest.raises(ValueError, match="not in the sweep"):
            comparison.rate_at_bandwidth(Architecture.CRS, 5e4)

    def test_operating_outputs_positive(self, comparison):
        for arch in ARCH_CHANNELS:
            assert comparison.y_lo[arch] > 0
            for n in ARCH_CHANNELS[arch]:
                assert np.isfinite(comparison.gains[arch][n])

    def test_csv_layout(self, tmp_path, comparison):
        path = tmp_path / "rates.csv"
        comparison.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "architecture,p_t_dbm,bandwidth_hz,rate_bps"
        assert len(lines) == 1 + 3 * (2 + 2)
        first = lines[1].split(",")
        assert first[0] == Architecture.HYBRID.value
        assert float(first[1]) == -10.0
        assert float(first[2]) == 1e5

    def test_sweeps_match_per_point_rates(self, scheme):
        powers = np.arange(-30.0, 10.05, 0.1)
        bandwidths = np.geomspace(1e4, 1e6, 7)
        swept = compare_architectures(
            scheme, RABI_SET1, powers, bandwidths,
            omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
        )
        for arch, active in ARCH_CHANNELS.items():
            env = EnvironmentParams(
                y_lo=swept.y_lo[arch], omega_probe=DEFAULT_CELL.probe_angular_frequency
            )

            def rate(p_dbm, bandwidth):
                return ergodic_sum_rate([
                    ChannelModel(
                        gain=swept.gains[arch][n], transmit_power=dbm_to_watts(p_dbm),
                        bandwidth=bandwidth,
                        rf_frequency=scheme.transition(n).carrier_frequency * 1e6,
                    ).with_noise(env)
                    for n in active
                ])

            per_point = [rate(p, swept.power_sweep_bandwidth_hz) for p in powers]
            np.testing.assert_allclose(swept.power_rates[arch], per_point, rtol=1e-15, atol=0.0)
            per_point = [rate(swept.bandwidth_sweep_power_dbm, b) for b in bandwidths]
            np.testing.assert_allclose(
                swept.bandwidth_rates[arch], per_point, rtol=1e-15, atol=0.0
            )

    def test_csv_bytes_match_row_writer(self, tmp_path, comparison, literal_csv):
        odd = replace(
            comparison,
            power_dbm=np.array([-0.0, 3.5]),
            power_rates={arch: np.array([-0.0, np.nan]) for arch in ARCH_CHANNELS},
            bandwidth_sweep_power_dbm=-0.0,
        )
        path = tmp_path / "rates.csv"
        for c in (comparison, odd):
            c.write_csv(path)
            assert path.read_bytes() == literal_csv.comparison(c)

    def test_bad_bandwidth_rejected(self, scheme):
        with pytest.raises(ValueError, match="bandwidths"):
            compare_architectures(
                scheme, RABI_SET1, (-10.0,), (0.0,),
                omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
            )
