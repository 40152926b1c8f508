"""Receiver chain: cell calibration, gains, waveform synthesis, IQ demodulation."""

import numpy as np
import pytest
from scipy import signal

import rydberg_receiver as rr
from rydberg_receiver.lindblad import DriveConfig
from rydberg_receiver.numerics import CSV_CHUNK_ROWS
from rydberg_receiver.receiver import (
    DEFAULT_CELL,
    EA0,
    FILTER_STOPBAND_DB,
    GainVector,
    RfSignalSpec,
    VaporCellParams,
    Waveform,
    _kaiser_bandpass,
    _kaiser_lowpass,
    _rabi_per_field,
    gain_coefficients,
    heterodyne_rabi,
    iq_demodulate,
    linearization_discrepancy,
    photodetector_output,
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
    return modulation_index * lo.rf_rabi[n - 1] / _rabi_per_field(n, scheme)


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

    def test_rabi_beat_structure(self, lo, scheme):
        amp = signal_amplitude(1, lo, scheme, modulation_index=5e-3)
        spec = RfSignalSpec(
            amplitudes=(amp, 0, 0, 0), offsets=FOUR_OFFSETS, phases=(0.3, 0, 0, 0)
        )
        # t = 0: base plus the full beat amplitude times cos(phase)
        v0 = heterodyne_rabi(1, 0.0, spec, lo, scheme)
        beat = _rabi_per_field(1, scheme) * amp
        assert v0 == pytest.approx(lo.rf_rabi[0] + beat * np.cos(0.3), rel=1e-12)
        # averaging over whole beat periods recovers the LO amplitude
        period = TWO_PI / spec.offsets[0]
        t = np.linspace(0.0, 10 * period, 20_000, endpoint=False)
        assert np.mean(heterodyne_rabi(1, t, spec, lo, scheme)) == pytest.approx(
            lo.rf_rabi[0], rel=1e-6
        )

    def test_constant_envelope_halves_beat(self, lo, scheme):
        amp = signal_amplitude(2, lo, scheme, modulation_index=5e-3)
        t = np.linspace(0.0, 5.0, 256)
        kw = dict(amplitudes=(0, amp, 0, 0), offsets=FOUR_OFFSETS, phases=(0, 0.7, 0, 0))
        plain = RfSignalSpec(**kw)
        halved = RfSignalSpec(**kw, envelopes=(None, np.full(t.size, 0.5), None, None))
        base = lo.rf_rabi[1]
        beat = heterodyne_rabi(2, t, plain, lo, scheme) - base
        half = heterodyne_rabi(2, t, halved, lo, scheme) - base
        assert np.max(np.abs(beat)) > 1e-3 * base
        assert np.allclose(half, 0.5 * beat, rtol=0.0, atol=1e-13 * base)

    def test_silent_channel_constant(self, lo, scheme):
        spec = RfSignalSpec(amplitudes=(1e-9, 0, 0, 0), offsets=FOUR_OFFSETS)
        t = np.linspace(0.0, 5.0, 64)
        out = heterodyne_rabi(3, t, spec, lo, scheme)
        assert np.all(out == lo.rf_rabi[2])


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
        # same derivative recomputed here with a different stencil width
        gains = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        step = TWO_PI * 5e-4
        for n in range(1, 5):
            rf = list(lo.rf_rabi)
            rf[n - 1] += step
            y_plus = photodetector_output(lo.with_rf_rabi(rf), DEFAULT_CELL, scheme)
            rf[n - 1] -= 2 * step
            y_minus = photodetector_output(lo.with_rf_rabi(rf), DEFAULT_CELL, scheme)
            expected = _rabi_per_field(n, scheme) * (y_plus - y_minus) / (2 * step)
            assert gains[n] == pytest.approx(expected, rel=1e-4)

    def test_signs_follow_loop_imbalance(self, lo, scheme):
        # zeta < 0 at the operating point, so pushing zeta up (channels 1, 3)
        # brightens the probe and pushing it down (channels 2, 4) dims it
        gains = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        assert gains[1] > 0 and gains[3] > 0
        assert gains[2] < 0 and gains[4] < 0

    def test_analytic_equals_numerical_on_reduced_scheme(self, lo, reduced_scheme):
        # with probe-only decay the two models describe the same physics
        ga = gain_coefficients(lo, DEFAULT_CELL, reduced_scheme, model="analytic")
        gn = gain_coefficients(lo, DEFAULT_CELL, reduced_scheme, model="numerical")
        for n in range(1, 5):
            assert gn[n] == pytest.approx(ga[n], rel=1e-6)

    def test_models_agree_roughly_on_full_scheme(self, lo, scheme):
        # full dissipation shifts the slope ~11%; catches gross unit errors
        ga = gain_coefficients(lo, DEFAULT_CELL, scheme, model="analytic")
        gn = gain_coefficients(lo, DEFAULT_CELL, scheme, model="numerical")
        for n in range(1, 5):
            assert np.sign(gn[n]) == np.sign(ga[n])
            assert abs(gn[n] - ga[n]) / abs(ga[n]) < 0.2

    def test_zero_lo_channel_uses_forward_stencil(self, scheme):
        dark = DriveConfig(omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
                           rf_rabi=(TWO_PI * 2, TWO_PI * 7, TWO_PI * 1, 0.0))
        gains = gain_coefficients(dark, DEFAULT_CELL, scheme, model="numerical")
        assert np.isfinite(gains[4])


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

    def test_unknown_mode(self, lo, scheme):
        spec = self._single_tone(lo, scheme)
        with pytest.raises(ValueError, match="mode"):
            synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                   duration=10.0, sample_rate=16.0, mode="fast")

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
                                      sample_rate=16.0, mode="linearized", gains=gains)
        manual = wave.dc_level + gains[2] * spec.amplitudes[1] * np.cos(
            spec.offsets[1] * wave.times + 0.7
        )
        assert np.allclose(wave.samples, manual, rtol=0, atol=1e-30)

    def test_noise_seeded(self, lo, scheme):
        spec = self._single_tone(lo, scheme)
        kw = dict(duration=20.0, sample_rate=16.0, mode="linearized",
                  noise_std=1e-25)
        a = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, seed=7, **kw)
        b = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, seed=7, **kw)
        c = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, seed=8, **kw)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_exact_mode_spectrum_single_tone(self, lo, scheme):
        # 0.5 MHz tone lands on bin 100 of a 200 us record at 16 MHz
        spec = self._single_tone(lo, scheme, n=2)
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=200.0, sample_rate=16.0, mode="exact")
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
            exact = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, mode="exact", **kw)
            lin = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                         mode="linearized", **kw)
            vals.append(linearization_discrepancy(exact, lin))
        assert vals[1] < 0.02
        assert 3.0 < vals[1] / vals[0] < 5.0

    def test_discrepancy_requires_shared_time_base(self, lo, scheme):
        spec = self._single_tone(lo, scheme)
        a = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                   duration=20.0, sample_rate=16.0)
        b = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                   duration=10.0, sample_rate=16.0)
        with pytest.raises(ValueError, match="time base"):
            linearization_discrepancy(a, b)

    def test_constant_envelope_scales_amplitude(self, lo, scheme):
        spec = self._single_tone(lo, scheme, n=2)
        n_samples = int(20.0 * 16.0)
        env = tuple(
            np.full(n_samples, 0.5) if k == 1 else None for k in range(4)
        )
        scaled = RfSignalSpec(amplitudes=spec.amplitudes, offsets=spec.offsets,
                              phases=spec.phases, envelopes=env)
        full = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, duration=20.0,
                                      sample_rate=16.0, mode="linearized")
        half = synthesize_pd_waveform(scaled, lo, DEFAULT_CELL, scheme, duration=20.0,
                                      sample_rate=16.0, mode="linearized")
        assert np.allclose(half.ac(), 0.5 * full.ac(), rtol=1e-9, atol=1e-32)


class TestDemodulation:
    def _tone_roundtrip(self, lo, scheme, mode):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS, phases=(0.0, 0.7, 0.0, 0.0),
        )
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=200.0, sample_rate=16.0, mode=mode)
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
                                      duration=50.0, sample_rate=16.0,
                                      mode="linearized")
        with pytest.raises(ValueError, match="overlap"):
            iq_demodulate(wave, offsets=(TWO_PI * 0.2, TWO_PI * 0.3),
                          bandwidths=(0.1, 0.1))

    def test_short_record_rejected_in_steady(self, lo, scheme):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS,
        )
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=30.0, sample_rate=16.0,
                                      mode="linearized")
        chans = iq_demodulate(wave, offsets=(spec.offsets[1],), bandwidths=(0.1,))
        with pytest.raises(ValueError, match="transients"):
            chans[0].steady()

    def test_record_shorter_than_filters_rejected(self, lo, scheme):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS,
        )
        wave = synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme,
                                      duration=1.0, sample_rate=16.0,
                                      mode="linearized")
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


class TestExports:
    def _pair(self, lo, scheme):
        spec = RfSignalSpec(
            amplitudes=(0.0, signal_amplitude(2, lo, scheme), 0.0, 0.0),
            offsets=FOUR_OFFSETS,
        )
        kw = dict(duration=10.0, sample_rate=16.0)
        return (
            synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, mode="exact", **kw),
            synthesize_pd_waveform(spec, lo, DEFAULT_CELL, scheme, mode="linearized", **kw),
        )

    def test_waveform_csv(self, tmp_path, lo, scheme):
        exact, lin = self._pair(lo, scheme)
        path = tmp_path / "wave.csv"
        write_waveform_csv(path, exact, lin)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y_exact,y_linearized"
        assert len(lines) == 1 + len(exact.samples)
        t0, ye, yl = lines[1].split(",")
        assert float(t0) == 0.0
        assert float(ye) == pytest.approx(exact.samples[0], rel=1e-9)
        assert float(yl) == pytest.approx(lin.samples[0], rel=1e-9)

    def test_spectrogram_shapes(self, lo, scheme):
        exact, _lin = self._pair(lo, scheme)
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
        exact, _lin = self._pair(lo, scheme)
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(path, exact, nperseg=64)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,f,power_db"
        times, freqs, _power = spectrogram_data(exact, nperseg=64)
        assert len(lines) == 1 + len(times) * len(freqs)

    def test_csv_bytes_match_row_writer(self, tmp_path, lo, scheme, literal_csv):
        exact, lin = self._pair(lo, scheme)
        path = tmp_path / "out.csv"
        write_waveform_csv(path, exact, lin)
        assert path.read_bytes() == literal_csv.waveform(exact, lin)
        # Two full chunks of the writer, then a partial one holding the odd cells.
        filler = np.resize(exact.samples, 2 * CSV_CHUNK_ROWS + 5)
        odd = Waveform(
            times=np.append(np.arange(len(filler)) / 16.0, [-0.0, 0.0625, 0.125]),
            samples=np.append(filler, [np.nan, -0.0, 7.0586443e-23]),
            dc_level=7e-23,
            sample_rate=16.0,
        )
        write_waveform_csv(path, odd, odd)
        assert path.read_bytes() == literal_csv.waveform(odd, odd)
        write_spectrogram_csv(path, exact, nperseg=64)
        assert path.read_bytes() == literal_csv.spectrogram(*spectrogram_data(exact, nperseg=64))
