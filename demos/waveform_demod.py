"""
Four-channel heterodyne waveform and IQ recovery
================================================

Puts four weak RF tones on the air at 200/500/800/1100 kHz offsets from
their local oscillators, synthesizes the photodetector current two ways
(the exact adiabatic response and its first-order model), and then
demodulates the exact waveform back into four complex basebands. The
printed table compares each recovered envelope against the small-signal
prediction |G_n| A_n and quantifies the crosstalk floor.
"""

import argparse
from pathlib import Path

import numpy as np

import rydberg_receiver as rr

TWO_PI = 2.0 * np.pi
OFFSETS = (TWO_PI * 0.2, TWO_PI * 0.5, TWO_PI * 0.8, TWO_PI * 1.1)


def tone_spec(lo, scheme, modulation_index):
    """Equal Rabi-depth tones on all four channels."""
    amps = rr.signal_amplitudes(lo, scheme, modulation_index)
    return rr.RfSignalSpec(amplitudes=amps, offsets=OFFSETS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--duration", type=float, default=200.0, help="record length (us)")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    scheme = rr.cesium_scheme()
    lo = rr.DriveConfig(
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
        rf_rabi=(TWO_PI * 2.0, TWO_PI * 7.0, TWO_PI * 1.0, TWO_PI * 6.0),
    )
    spec = tone_spec(lo, scheme, modulation_index=5e-3)
    kw = dict(duration=args.duration, sample_rate=16.0)

    exact = rr.synthesize_pd_waveform(spec, lo, rr.DEFAULT_CELL, scheme, mode="exact", **kw)
    linear = rr.synthesize_pd_waveform(spec, lo, rr.DEFAULT_CELL, scheme, mode="linearized", **kw)
    print(f"operating output y_LO = {exact.dc_level:.4e} A, "
          f"{len(exact.samples)} samples at {exact.sample_rate:g} MHz")
    disc = rr.linearization_discrepancy(exact, linear)
    print(f"exact vs first-order relative RMS discrepancy: {disc:.2e} "
          f"(quadratic in the modulation depth)")

    gains = rr.gain_coefficients(lo, rr.DEFAULT_CELL, scheme, model="analytic")
    channels = rr.iq_demodulate(exact, OFFSETS, bandwidths=(0.1, 0.1, 0.1, 0.1))
    print("\nchannel  offset(kHz)  |envelope|(A)  predicted(A)  error    phase(rad)")
    for n, ch in zip(range(1, 5), channels):
        predicted = abs(gains[n]) * spec.amplitudes[n - 1]
        err = ch.envelope_magnitude() / predicted - 1.0
        print(f"   {n}       {ch.offset / TWO_PI * 1e3:6.0f}     {ch.envelope_magnitude():.4e}"
              f"    {predicted:.4e}   {err:+.4f}   {ch.envelope_phase():+.4f}")

    # crosstalk floor: one tone on the air, three listeners
    solo_amps = [0.0] * 4
    solo_amps[1] = spec.amplitudes[1]
    solo = rr.RfSignalSpec(amplitudes=tuple(solo_amps), offsets=OFFSETS)
    solo_wave = rr.synthesize_pd_waveform(solo, lo, rr.DEFAULT_CELL, scheme, mode="exact", **kw)
    solo_channels = rr.iq_demodulate(solo_wave, OFFSETS, bandwidths=(0.1, 0.1, 0.1, 0.1))
    active = solo_channels[1].rms()
    worst_leak = max(solo_channels[k].rms() for k in (0, 2, 3))
    print(f"\nonly channel 2 transmitting: isolation "
          f"{20 * np.log10(active / worst_leak):.1f} dB")

    wpath = args.out / "pd_waveform.csv"
    spath = args.out / "pd_spectrogram.csv"
    rr.write_waveform_csv(wpath, exact, linear)
    rr.write_spectrogram_csv(spath, exact)
    print(f"wrote {wpath} and {spath}")


if __name__ == "__main__":
    main()
