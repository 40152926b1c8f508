"""Receiver chain: cell calibration, gains, waveform synthesis, IQ demodulation."""

import dataclasses
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal

import rydberg_receiver as rr
from rydberg_receiver.analytic import rho21_from_amplitudes
from rydberg_receiver.lindblad import DriveConfig
from rydberg_receiver.numerics import CSV_CHUNK_CELLS
from rydberg_receiver.receiver import (
    DEFAULT_CELL,
    EA0,
    FILTER_STOPBAND_DB,
    LPF_CUTOFF,
    TRANSITION_BANDWIDTHS,
    GainVector,
    RfSignalSpec,
    VaporCellParams,
    Waveform,
    _detector_current,
    _kaiser_bandpass,
    _kaiser_lowpass,
    _lowpass_kept,
    _rabi_per_field,
    gain_coefficients,
    iq_demodulate,
    linearization_discrepancy,
    photodetector_output,
    signal_amplitudes,
    spectrogram_data,
    synthesize_pd_waveform,
    validate_heterodyne,
    write_spectrogram_csv,
    write_waveform_csv,
)

TWO_PI = 2.0 * np.pi
FOUR_OFFSETS = (TWO_PI * 0.2, TWO_PI * 0.5, TWO_PI * 0.8, TWO_PI * 1.1)


def signal_amplitude(n, lo, scheme, modulation_index=5e-3):
    """Field amplitude giving the requested Rabi modulation depth on channel n."""
    return signal_amplitudes(lo, scheme, modulation_index)[n - 1]


def first_order(wave):
    """The record with its first-order model in place of the exact samples."""
    return dataclasses.replace(wave, samples=wave.linearized)


def current_at(lo, scheme, n, rabi_n):
    """Detector current with channel ``n``'s Rabi amplitude at ``rabi_n`` and
    every other channel at its LO amplitude."""
    rabi = [np.full(np.shape(rabi_n), v) for v in lo.rf_rabi]
    rabi[n - 1] = rabi_n
    rho21 = rho21_from_amplitudes(lo.omega_p, lo.omega_c, rabi, scheme.decay_rate(2, 1))
    return _detector_current(DEFAULT_CELL, lo.omega_p, rho21)


@pytest.fixture(scope="module")
def lo(op_drive):
    return op_drive


class TestVaporCell:
    def test_xi0_value(self, lo):
        # frozen from an independent evaluation of the closed expression
        assert DEFAULT_CELL.xi0(lo.omega_p) == pytest.approx(155.72657, rel=1e-6)

    def test_xi0_scaling(self):
        # linear in density, quadratic in dipole, inverse in probe Rabi
        base = DEFAULT_CELL.xi0(10.0)
        denser = VaporCellParams(atomic_density=2 * DEFAULT_CELL.atomic_density)
        assert denser.xi0(10.0) == pytest.approx(2 * base, rel=1e-12)
        stronger = VaporCellParams(probe_dipole=2 * DEFAULT_CELL.probe_dipole)
        assert stronger.xi0(10.0) == pytest.approx(4 * base, rel=1e-12)
        assert DEFAULT_CELL.xi0(20.0) == pytest.approx(base / 2, rel=1e-12)

    def test_xi0_rejects_nonpositive_probe(self):
        with pytest.raises(ValueError, match="probe Rabi"):
            DEFAULT_CELL.xi0(0.0)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="cell_length"):
            VaporCellParams(cell_length=-0.01)
        with pytest.raises(ValueError, match="responsivity"):
            VaporCellParams(responsivity=0.0)

    def test_probe_angular_frequency(self):
        from scipy.constants import c

        expected = TWO_PI * c / DEFAULT_CELL.probe_wavelength
        assert DEFAULT_CELL.probe_angular_frequency == pytest.approx(expected, rel=1e-12)


class TestRfSignalSpec:
    def test_length_validation(self):
        with pytest.raises(ValueError, match="4 entries"):
            RfSignalSpec(amplitudes=(1.0, 1.0), offsets=FOUR_OFFSETS)
        with pytest.raises(ValueError, match=r"^RfSignalSpec\.envelopes: expected 4 entries$"):
            RfSignalSpec(amplitudes=(1.0, 0, 0, 0), offsets=FOUR_OFFSETS, envelopes=(None,))

    def test_negative_amplitude(self):
        with pytest.raises(ValueError, match=">= 0"):
            RfSignalSpec(amplitudes=(-1.0, 0, 0, 0), offsets=FOUR_OFFSETS)

    def test_band_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            RfSignalSpec(
                amplitudes=(1.0, 1.0, 0.0, 0.0),
                offsets=(TWO_PI * 0.20, TWO_PI * 0.35, TWO_PI * 0.8, TWO_PI * 1.1),
                bandwidths=(0.1, 0.1, 0.1, 0.1),
            )

    def test_inactive_channels_exempt_from_overlap(self):
        spec = RfSignalSpec(
            amplitudes=(1.0, 0.0, 0.0, 0.0),
            offsets=(TWO_PI * 0.2, TWO_PI * 0.2, TWO_PI * 0.8, TWO_PI * 1.1),
        )
        assert spec.active_channels() == (1,)

    def test_active_channels(self):
        spec = RfSignalSpec(amplitudes=(0.0, 2.0, 0.0, 1.0), offsets=FOUR_OFFSETS)
        assert spec.active_channels() == (2, 4)


class TestGainVector:
    def test_one_based_indexing(self):
        g = GainVector(gains=(1.0, 2.0, 3.0, 4.0))
        assert g[1] == 1.0 and g[4] == 4.0

    def test_validation(self):
        with pytest.raises(ValueError, match="4 gains"):
            GainVector(gains=(1.0,))
        with pytest.raises(ValueError, match="non-finite"):
            GainVector(gains=(1.0, np.nan, 0.0, 0.0))


class TestHeterodyne:
    def test_validate_returns_worst_ratio(self, lo, scheme):
        amp = signal_amplitude(2, lo, scheme, modulation_index=4e-3)
        spec = RfSignalSpec(amplitudes=(0, amp, 0, 0), offsets=FOUR_OFFSETS)
        worst = validate_heterodyne(spec, lo, scheme)
        assert worst == pytest.approx(4e-3, rel=1e-12)

    def test_violation_raises(self, lo, scheme):
        amp = signal_amplitude(2, lo, scheme, modulation_index=0.05)
        spec = RfSignalSpec(amplitudes=(0, amp, 0, 0), offsets=FOUR_OFFSETS)
        with pytest.raises(ValueError, match="heterodyne"):
            validate_heterodyne(spec, lo, scheme)

    def test_signal_without_lo_raises(self, lo, scheme):
        dark = lo.with_rf_rabi((0.0, lo.rf_rabi[1], lo.rf_rabi[2], lo.rf_rabi[3]))
        spec = RfSignalSpec(amplitudes=(1e-9, 0, 0, 0), offsets=FOUR_OFFSETS)
        with pytest.raises(ValueError, match="local oscillator is off"):
            validate_heterodyne(spec, dark, scheme)

    # The exact samples follow Omega_n(t) = Omega_LO,n + (mu_n/hbar) A_n
    # cos(delta_omega_n t + delta_phi_n) through the closed form.
    def test_rabi_beat_structure(self, lo, scheme):
        amp = signal_amplitude(1, lo, scheme, modulation_index=5e-3)
        spec = RfSignalSpec(
            amplitudes=(amp, 0, 0, 0), offsets=FOUR_OFFSETS, phases=(0.3, 0, 0, 0)
        )
        # ten whole 5 us beat periods of channel 1
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=50.0, sample_rate=16.0)
        beat = _rabi_per_field(1, scheme) * amp
        rabi = lo.rf_rabi[0] + beat * np.cos(spec.offsets[0] * wave.times + 0.3)
        # t = 0: base plus the full beat amplitude times cos(phase)
        assert wave.samples[0] == pytest.approx(
            current_at(lo, scheme, 1, lo.rf_rabi[0] + beat * np.cos(0.3)), rel=1e-12
        )
        # averaging over whole beat periods recovers the LO amplitude
        assert np.mean(rabi) == pytest.approx(lo.rf_rabi[0], rel=1e-6)
        assert np.allclose(wave.samples, current_at(lo, scheme, 1, rabi), rtol=1e-12, atol=0)

    def test_constant_envelope_halves_beat(self, lo, scheme):
        amp = signal_amplitude(2, lo, scheme, modulation_index=5e-3)
        kw = dict(amplitudes=(0, amp, 0, 0), offsets=FOUR_OFFSETS, phases=(0, 0.7, 0, 0))
        plain = RfSignalSpec(**kw)
        halved = RfSignalSpec(**kw, envelopes=(None, np.full(80, 0.5), None, None))
        synth = dict(lo=lo, cell=DEFAULT_CELL, scheme=scheme, duration=5.0, sample_rate=16.0)
        plain_wave = synthesize_pd_waveform(plain, **synth)
        half_wave = synthesize_pd_waveform(halved, **synth)
        base = lo.rf_rabi[1]
        beat = _rabi_per_field(2, scheme) * amp * np.cos(FOUR_OFFSETS[1] * plain_wave.times + 0.7)
        assert np.max(np.abs(beat)) > 1e-3 * base
        assert np.allclose(plain_wave.samples, current_at(lo, scheme, 2, base + beat),
                           rtol=1e-12, atol=0)
        assert np.allclose(half_wave.samples, current_at(lo, scheme, 2, base + 0.5 * beat),
                           rtol=1e-12, atol=0)

    def test_silent_channel_constant(self, lo, scheme):
        spec = RfSignalSpec(amplitudes=(1e-9, 0, 0, 0), offsets=FOUR_OFFSETS)
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=4.0, sample_rate=16.0)
        # channel 1 beats; channel 3, with no signal, holds its LO amplitude
        rabi = lo.rf_rabi[0] + _rabi_per_field(1, scheme) * 1e-9 * np.cos(
            FOUR_OFFSETS[0] * wave.times
        )
        assert np.array_equal(wave.samples, current_at(lo, scheme, 1, rabi))


class TestPhotodetector:
    def test_balanced_loop_is_transparent(self, scheme):
        # zeta = 0 built from exact integer products: probe sees no absorption
        lo = DriveConfig(omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
                         rf_rabi=(TWO_PI * 6, TWO_PI * 4, TWO_PI * 10, TWO_PI * 15))
        y = photodetector_output(lo, DEFAULT_CELL, scheme, model="analytic")
        assert y == DEFAULT_CELL.responsivity * DEFAULT_CELL.probe_power / 2.0

    def test_absorption_attenuates(self, lo, scheme):
        y = photodetector_output(lo, DEFAULT_CELL, scheme, model="analytic")
        assert 0.0 < y < DEFAULT_CELL.probe_power / 2.0

    def test_unknown_model(self, lo, scheme):
        with pytest.raises(ValueError, match="model"):
            photodetector_output(lo, DEFAULT_CELL, scheme, model="exact")

    def test_numerical_model_runs(self, lo, scheme):
        y = photodetector_output(lo, DEFAULT_CELL, scheme, model="numerical")
        assert 0.0 < y < DEFAULT_CELL.probe_power / 2.0


class TestGains:
    def test_matches_independent_difference(self, lo, scheme):
        # the derivative against a central difference of the detector output
        gains = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        step = TWO_PI * 5e-4
        for n in range(1, 5):
            rf = list(lo.rf_rabi)
            rf[n - 1] += step
            y_plus = photodetector_output(lo.with_rf_rabi(rf), DEFAULT_CELL, scheme)
            rf[n - 1] -= 2 * step
            y_minus = photodetector_output(lo.with_rf_rabi(rf), DEFAULT_CELL, scheme)
            expected = _rabi_per_field(n, scheme) * (y_plus - y_minus) / (2 * step)
            assert gains[n] == pytest.approx(expected, rel=1e-4, abs=0.0)

    def test_signs_follow_loop_imbalance(self, lo, scheme):
        # zeta < 0 at the operating point, so pushing zeta up (channels 1, 3)
        # brightens the probe and pushing it down (channels 2, 4) dims it
        gains = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        assert gains[1] > 0 and gains[3] > 0
        assert gains[2] < 0 and gains[4] < 0

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(lasers=st.tuples(st.floats(TWO_PI, TWO_PI * 10), st.floats(TWO_PI * 0.5, TWO_PI * 5)),
           rf=st.tuples(*[st.floats(TWO_PI * 0.1, TWO_PI * 10)] * 4))
    def test_analytic_equals_numerical_on_reduced_scheme(self, reduced_scheme, lasers, rf):
        # with probe-only decay the two models describe the same physics;
        # off the balanced loop, where the stationary state is unique
        assume(abs(rr.zeta(rf)) >= 0.05 * max(rf) ** 2)
        drive = DriveConfig(omega_p=lasers[0], omega_c=lasers[1], rf_rabi=rf)
        ga = gain_coefficients(drive, DEFAULT_CELL, reduced_scheme, model="analytic")
        gn = gain_coefficients(drive, DEFAULT_CELL, reduced_scheme, model="numerical")
        # the floor only covers a channel whose slope happens to cross zero
        assert gn.gains == pytest.approx(ga.gains, rel=1e-6, abs=1e-12 * max(map(abs, ga.gains)))

    def test_models_agree_roughly_on_full_scheme(self, lo, scheme):
        # full dissipation shifts the slope ~11%; catches gross unit errors
        ga = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        gn = gain_coefficients(lo, DEFAULT_CELL, scheme, model="numerical")
        for n in range(1, 5):
            assert np.sign(gn[n]) == np.sign(ga[n])
            assert abs(gn[n] - ga[n]) / abs(ga[n]) < 0.2

    @pytest.mark.parametrize("rf_mhz", [(2.0, 7.0, 1.0, 3.0), (7.0, 1.0, 1.0, 1.0),
                                        (0.0, 1.0, 1.0, 2.0)])
    def test_analytic_gains_are_exact_derivatives(self, lo, scheme, rf_mhz):
        # the 50-digit derivative of the closed-form detector current
        drive = lo.with_rf_rabi([TWO_PI * v for v in rf_mhz])
        gains = gain_coefficients(drive, DEFAULT_CELL, scheme, model="analytic")
        g21, xi0 = scheme.decay_rate(2, 1), DEFAULT_CELL.xi0(drive.omega_p)
        op, oc = drive.omega_p, drive.omega_c

        def current(o1, o2, o3, o4):
            z = o1 * o3 - o2 * o4
            lam = (z * z * g21**2 + 2 * op**4 * (o1**2 + o2**2 + o3**2 + o4**2)
                   + 2 * ((o2**2 + o3**2) * oc**2 + z * z) * op**2)
            scale = DEFAULT_CELL.responsivity * DEFAULT_CELL.probe_power / 2
            return scale * mpmath.exp(-2 * xi0 * op * g21 * z * z / lam)

        with mpmath.workdps(50):
            for n in range(1, 5):
                rf = [mpmath.mpf(v) for v in drive.rf_rabi]

                def along(x, n=n, rf=rf):
                    return current(*rf[:n - 1], x, *rf[n:])

                slope = mpmath.diff(along, rf[n - 1])
                assert gains[n] == pytest.approx(float(_rabi_per_field(n, scheme) * slope),
                                                 rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("model", ["analytic", "numerical"])
    def test_open_loop_gains_are_exactly_zero(self, lo, scheme, model):
        # with the loop open, the sign of an undriven link is a phase of the
        # levels behind it, so rho_21 is even in that amplitude: its slope is 0
        crs = lo.with_rf_rabi((0.0, TWO_PI, TWO_PI, 0.0))  # (0, 1, 1, 2) MHz, CRS-masked
        assert gain_coefficients(crs, DEFAULT_CELL, scheme, model=model).gains == (0.0,) * 4
        prs = lo.with_rf_rabi((TWO_PI * 2, 0.0, 0.0, TWO_PI))  # RABI_SET2, PRS-masked
        gains = gain_coefficients(prs, DEFAULT_CELL, scheme, model=model)
        assert gains[2] == 0.0 and gains[3] == 0.0


class TestSynthesis:
    def _single_tone(self, lo, scheme, n=2, m=5e-3, phase=0.7):
        amps = [0.0] * 4
        amps[n - 1] = signal_amplitude(n, lo, scheme, modulation_index=m)
        phases = [0.0] * 4
        phases[n - 1] = phase
        return RfSignalSpec(amplitudes=tuple(amps), offsets=FOUR_OFFSETS,
                            phases=tuple(phases))

    def test_undersampling_rejected(self, lo, scheme):
        spec = self._single_tone(lo, scheme)
        with pytest.raises(ValueError, match="undersamples"):
            synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                   duration=10.0, sample_rate=4.0)

    def test_record_without_samples_rejected(self, lo, scheme):
        spec = self._single_tone(lo, scheme)
        with pytest.raises(ValueError, match="holds no sample"):
            synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                   duration=0.01, sample_rate=16.0)

    def test_dc_level_is_lo_output(self, lo, scheme):
        spec = self._single_tone(lo, scheme)
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=20.0, sample_rate=16.0)
        assert wave.dc_level == photodetector_output(lo, DEFAULT_CELL, scheme)
        assert len(wave.samples) == 320
        assert wave.times[1] - wave.times[0] == pytest.approx(1 / 16.0)
        assert abs(np.mean(wave.ac())) < 1e-30

    def test_linearized_matches_manual_model(self, lo, scheme):
        spec = self._single_tone(lo, scheme, n=2, m=5e-3, phase=0.7)
        gains = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, duration=20.0,
                                      sample_rate=16.0)
        assert wave.gains == gains
        manual = wave.dc_level + gains[2] * spec.amplitudes[1] * np.cos(
            spec.offsets[1] * wave.times + 0.7
        )
        assert np.allclose(wave.linearized, manual, rtol=0, atol=1e-30)

    def test_noise_seeded(self, lo, scheme):
        spec = self._single_tone(lo, scheme)
        kw = dict(duration=20.0, sample_rate=16.0, noise_std=1e-25)
        a = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, seed=7, **kw)
        b = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, seed=7, **kw)
        c = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, seed=8, **kw)
        assert np.array_equal(a.linearized, b.linearized)
        assert not np.array_equal(a.linearized, c.linearized)
        # the noise is the detector's, added to the first-order model only
        assert np.array_equal(a.samples, c.samples)

    def test_exact_mode_spectrum_single_tone(self, lo, scheme):
        # 0.5 MHz tone lands on bin 100 of a 200 us record at 16 MHz
        spec = self._single_tone(lo, scheme, n=2)
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=200.0, sample_rate=16.0)
        power = np.abs(np.fft.rfft(wave.ac())) ** 2
        peak = int(np.argmax(power))
        assert peak == 100
        # only the harmonic ladder of the exponential response survives
        assert power[200] < 1e-2 * power[peak]
        others = np.delete(power, [0, 100, 200, 300])
        assert np.max(others) < 1e-5 * power[peak]

    def test_discrepancy_scales_quadratically(self, lo, scheme):
        vals = []
        for m in (2.5e-3, 5e-3):
            spec = self._single_tone(lo, scheme, m=m)
            kw = dict(duration=50.0, sample_rate=16.0)
            wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, **kw)
            vals.append(linearization_discrepancy(wave))
        assert vals[1] < 0.02
        assert 3.0 < vals[1] / vals[0] < 5.0

    def test_constant_envelope_scales_amplitude(self, lo, scheme):
        spec = self._single_tone(lo, scheme, n=2)
        n_samples = int(20.0 * 16.0)
        env = tuple(
            np.full(n_samples, 0.5) if k == 1 else None for k in range(4)
        )
        scaled = RfSignalSpec(amplitudes=spec.amplitudes, offsets=spec.offsets,
                              phases=spec.phases, envelopes=env)
        full = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, duration=20.0,
                                      sample_rate=16.0)
        half = synthesize_pd_waveform(scaled, lo, DEFAULT_CELL, scheme, duration=20.0,
                                      sample_rate=16.0)
        assert np.allclose(first_order(half).ac(), 0.5 * first_order(full).ac(),
                           rtol=1e-9, atol=1e-32)


class TestDemodulation:
    def _tone_roundtrip(self, lo, scheme, mode):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS, phases=(0.0, 0.7, 0.0, 0.0),
        )
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=200.0, sample_rate=16.0)
        if mode == "linearized":
            wave = first_order(wave)
        chans = iq_demodulate(wave, offsets=spec.offsets, bandwidths=spec.bandwidths)
        gains = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        expected = gains[2] * spec.amplitudes[1] * np.exp(1j * 0.7)
        return chans, expected

    def test_linearized_round_trip(self, lo, scheme):
        chans, expected = self._tone_roundtrip(lo, scheme, "linearized")
        z = np.mean(chans[1].steady())
        assert abs(z) / abs(expected) == pytest.approx(1.0, abs=0.03)
        assert abs(np.angle(z / expected)) < 0.05

    def test_exact_round_trip(self, lo, scheme):
        chans, expected = self._tone_roundtrip(lo, scheme, "exact")
        z = np.mean(chans[1].steady())
        assert abs(z) / abs(expected) == pytest.approx(1.0, abs=0.03)
        assert abs(np.angle(z / expected)) < 0.05

    def test_envelope_accessors_consistent(self, lo, scheme):
        chans, expected = self._tone_roundtrip(lo, scheme, "linearized")
        ch = chans[1]
        assert ch.envelope_magnitude() == pytest.approx(abs(np.mean(ch.steady())), rel=1e-3)
        assert ch.envelope_phase() == pytest.approx(np.angle(np.mean(ch.steady())))
        assert ch.rms() >= ch.envelope_magnitude() - 1e-30

    def test_inactive_bands_isolated(self, lo, scheme):
        chans, _expected = self._tone_roundtrip(lo, scheme, "exact")
        active_mag = chans[1].envelope_magnitude()
        for idx in (0, 2, 3):
            assert chans[idx].rms() < 0.01 * active_mag  # >= 40 dB of isolation

    def test_decimated_rate(self, lo, scheme):
        chans, _expected = self._tone_roundtrip(lo, scheme, "linearized")
        ch = chans[1]
        assert ch.sample_rate == pytest.approx(16.0 / 40.0)
        assert ch.times[1] - ch.times[0] == pytest.approx(1.0 / ch.sample_rate)
        assert ch.edge_samples > 0
        assert len(ch.steady()) == len(ch.baseband) - 2 * ch.edge_samples

    def test_overlapping_demod_bands_rejected(self, lo, scheme):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS,
        )
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=50.0, sample_rate=16.0)
        with pytest.raises(ValueError, match="overlap"):
            iq_demodulate(wave, offsets=(TWO_PI * 0.2, TWO_PI * 0.3),
                          bandwidths=(0.1, 0.1))

    def test_short_record_rejected_in_steady(self, lo, scheme):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS,
        )
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=30.0, sample_rate=16.0)
        chans = iq_demodulate(wave, offsets=(spec.offsets[1],), bandwidths=(0.1,))
        with pytest.raises(ValueError, match="transients"):
            chans[0].steady()

    def test_record_shorter_than_filters_rejected(self, lo, scheme):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS,
        )
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=1.0, sample_rate=16.0)
        with pytest.raises(ValueError, match=r"record of 16 samples .* 425-tap filters"):
            iq_demodulate(wave, offsets=(spec.offsets[1],), bandwidths=(0.1,))


FIR_SAMPLE_RATES = (4.0, 16.0, 20.0)
FIR_BANDWIDTHS = (0.02, 0.05, 0.1, 0.17, 0.3)


def _scipy_kaiserord(bw, fs):
    return signal.kaiserord(FILTER_STOPBAND_DB, 1.5 * bw / (fs / 2.0))


class TestAgainstScipySignal:
    """The numpy FIR design and spectrogram, with scipy.signal as the oracle."""

    def test_grid_covers_the_odd_length_bump(self):
        parities = {_scipy_kaiserord(bw, fs)[0] % 2
                    for fs in FIR_SAMPLE_RATES for bw in FIR_BANDWIDTHS}
        assert parities == {0, 1}

    @pytest.mark.parametrize("fs", FIR_SAMPLE_RATES)
    @pytest.mark.parametrize("bw", FIR_BANDWIDTHS)
    def test_kaiser_filters_match_firwin(self, fs, bw):
        numtaps, beta = _scipy_kaiserord(bw, fs)
        numtaps += 1 - numtaps % 2
        window = ("kaiser", beta)
        transition = 1.5 * bw
        pairs = [(_kaiser_lowpass(0.6 * bw, transition, fs),
                  signal.firwin(numtaps, 0.6 * bw, window=window, fs=fs))]
        for f0 in (0.2, 0.5, 0.8, 1.1):
            band = [f0 - 0.6 * bw, f0 + 0.6 * bw]
            pairs.append((_kaiser_bandpass(f0, 0.6 * bw, transition, fs),
                          signal.firwin(numtaps, band, window=window, pass_zero=False, fs=fs)))
        for taps, expected in pairs:
            assert len(taps) == len(expected)
            assert np.max(np.abs(taps - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_samples", [1, 2, 16, 100, 255, 256, 257, 1000, 64000])
    def test_spectrogram_matches_scipy(self, n_samples):
        fs = 16.0
        t = np.arange(n_samples) / fs
        rng = np.random.default_rng(n_samples)
        samples = 7e-23 * (1 + 1e-3 * np.cos(TWO_PI * 0.5 * t) + 1e-4 * rng.normal(size=n_samples))
        wave = Waveform(times=t, samples=samples, dc_level=7e-23, sample_rate=fs)
        times, freqs, power_db = spectrogram_data(wave)
        ref_freqs, ref_times, sxx = signal.spectrogram(wave.ac(), fs=fs, nperseg=min(256, n_samples))
        peak = np.max(sxx)
        if peak == 0.0:  # one sample: nothing is left after the mean is removed
            expected = np.full(sxx.shape, -300.0)
        else:
            expected = 10.0 * np.log10(np.maximum(sxx, peak * 1e-30) / peak)
        assert np.array_equal(times, ref_times)
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(power_db, expected)


def _noisy_tones(n_samples, fs=16.0):
    """A detector-like record: four tones at ``FOUR_OFFSETS`` plus noise."""
    rng = np.random.default_rng(n_samples)
    t = np.arange(n_samples) / fs
    tones = sum(np.cos(o * t + p) for o, p in zip(FOUR_OFFSETS, rng.uniform(0.0, 6.0, 4)))
    samples = 7e-23 * (1 + 1e-3 * tones + 1e-4 * rng.normal(size=n_samples))
    return Waveform(times=t, samples=samples, dc_level=7e-23, sample_rate=fs)


class TestKeptLowpass:
    """The lowpass evaluated at the kept samples only, against full-rate
    ``np.convolve`` then decimation, with no tolerance."""

    @pytest.mark.parametrize("fs", FIR_SAMPLE_RATES)
    @pytest.mark.parametrize("bw", FIR_BANDWIDTHS)
    def test_equals_full_rate_convolution(self, fs, bw):
        taps = _kaiser_lowpass(LPF_CUTOFF * bw, TRANSITION_BANDWIDTHS * bw, fs)
        m = len(taps)
        real = max(1, int(np.floor(fs / (4.0 * bw) + 1e-9)))
        rng = np.random.default_rng([int(fs), int(1000 * bw)])
        # a record of the filter's length, whose one full window (output
        # m // 2) is not kept at 16 MHz and 0.1 MHz (425 taps, decim 40), one
        # decimation period around it, and a longer one; decim from 1 to
        # beyond the record
        lengths = (m, m + 1, m + real - 1, m + real, m + 2 * real + 1, m + int(rng.integers(2, 2000)))
        for n in lengths:
            for decim in (1, 2, 7, real, n, n + 1):
                y = rng.normal(size=n) * 10.0 ** float(rng.integers(-25, 3))
                expected = np.convolve(y, taps, mode="same")[::decim]
                assert np.array_equal(_lowpass_kept(y, taps, decim), expected)

    @pytest.mark.parametrize("n_samples", [425, 426, 464, 465, 1000, 64000])
    def test_iq_demodulate_equals_full_rate_reference(self, n_samples, literal_demod):
        wave = _noisy_tones(n_samples)
        bandwidths = (0.1, 0.17, 0.12, 0.1)  # decim 40, 23, 33, 40; the 0.1 MHz taps are 425
        got = iq_demodulate(wave, FOUR_OFFSETS, bandwidths)
        expected = literal_demod(wave, FOUR_OFFSETS, bandwidths)
        assert len(got) == len(expected) == 4
        for channel, reference in zip(got, expected):
            for field in dataclasses.fields(channel):
                value, ref = getattr(channel, field.name), getattr(reference, field.name)
                assert np.asarray(value).dtype == np.asarray(ref).dtype, field.name
                assert np.array_equal(value, ref), field.name

    def test_peak_memory_at_most_full_rate(self, literal_demod):
        # a gathered copy of the kept windows, (1600, 425) doubles per arm,
        # peaks above the full-rate path
        args = (_noisy_tones(64000), FOUR_OFFSETS, (0.1,) * 4)
        peaks = []
        for demodulate in (literal_demod, iq_demodulate):
            demodulate(*args)  # warm: first-call allocations are not the filter's
            tracemalloc.start()
            try:
                demodulate(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestExports:
    def _wave(self, lo, scheme):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS,
        )
        return synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=10.0, sample_rate=16.0)

    def test_waveform_csv(self, tmp_path, lo, scheme):
        wave = self._wave(lo, scheme)
        path = tmp_path / "wave.csv"
        write_waveform_csv(path, wave)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y_exact,y_linearized"
        assert len(lines) == 1 + len(wave.samples)
        t0, ye, yl = lines[1].split(",")
        assert float(t0) == 0.0
        assert float(ye) == pytest.approx(wave.samples[0], rel=1e-9)
        assert float(yl) == pytest.approx(wave.linearized[0], rel=1e-9)

    def test_spectrogram_shapes(self, lo, scheme):
        exact = self._wave(lo, scheme)
        times, freqs, power_db = spectrogram_data(exact, nperseg=64)
        assert power_db.shape == (len(freqs), len(times))
        assert np.max(power_db) == pytest.approx(0.0, abs=1e-9)

    def test_spectrogram_of_constant_waveform_is_floor(self):
        flat = Waveform(times=np.arange(512) / 16.0, samples=np.full(512, 3e-4),
                        dc_level=3e-4, sample_rate=16.0)
        times, freqs, power_db = spectrogram_data(flat, nperseg=64)
        assert power_db.shape == (len(freqs), len(times)) and power_db.size
        assert np.all(power_db == -300.0)

    def test_spectrogram_csv(self, tmp_path, lo, scheme):
        exact = self._wave(lo, scheme)
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(path, exact, nperseg=64)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,f,power_db"
        times, freqs, _power = spectrogram_data(exact, nperseg=64)
        assert len(lines) == 1 + len(times) * len(freqs)

    def test_csv_bytes_match_row_writer(self, tmp_path, lo, scheme, literal_csv):
        exact = self._wave(lo, scheme)
        path = tmp_path / "out.csv"
        write_waveform_csv(path, exact)
        assert path.read_bytes() == literal_csv.waveform(exact)
        # Two full chunks of the writer, then a partial one holding the odd cells.
        filler = np.resize(exact.samples, 2 * (CSV_CHUNK_CELLS // 3) + 5)
        odd_cells = np.append(filler, [np.nan, -0.0, 7.0586443e-23])
        odd = Waveform(
            times=np.append(np.arange(len(filler)) / 16.0, [-0.0, 0.0625, 0.125]),
            samples=odd_cells,
            dc_level=7e-23,
            sample_rate=16.0,
            linearized=odd_cells[::-1],
        )
        write_waveform_csv(path, odd)
        assert path.read_bytes() == literal_csv.waveform(odd)
        write_spectrogram_csv(path, exact, nperseg=64)
        assert path.read_bytes() == literal_csv.spectrogram(*spectrogram_data(exact, nperseg=64))

    def test_spectrogram_write_peak_independent_of_rows(self, tmp_path, monkeypatch):
        # the axes go to write_csv as (values, index) pairs, gathered per
        # chunk: a 4x longer table peaks no higher while it is written
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                rr.numerics.write_csv(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(rr.receiver, "write_csv", traced)
        for n in (4000, 16000, 64000):  # the first warms the writer's caches
            write_spectrogram_csv(tmp_path / "spec.csv", _noisy_tones(n))
        assert peaks[2] <= peaks[1] + 64 * 1024

    @pytest.mark.parametrize("n_samples, silent", [(1, True), (100, False), (100, True), (3000, True)])
    def test_spectrogram_bytes_match_row_writer(self, tmp_path, literal_csv, n_samples, silent):
        wave = _noisy_tones(n_samples)
        if silent:
            wave = dataclasses.replace(wave, samples=np.zeros(n_samples))
        times, freqs, power_db = spectrogram_data(wave)
        assert (len(times) == 1) == (n_samples < 256)  # a short record is one segment
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(path, wave)
        assert path.read_bytes() == literal_csv.spectrogram(times, freqs, power_db)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == len(times) * len(freqs)
        if silent:
            assert {row.rsplit(",", 1)[1] for row in rows} == {"-300"}
