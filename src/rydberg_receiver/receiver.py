"""RF-to-optical-to-electrical signal path of the atomic receiver.

The chain: each RF channel beats against its local oscillator, modulating
the channel's effective Rabi amplitude at the offset frequency; the probe
transmission through the vapor cell follows the instantaneous steady-state
probe coherence (adiabatic approximation, valid because every offset sits
far below the probe linewidth); a photodetector converts transmitted power
to current; IQ demodulation splits the current into per-channel complex
basebands.

SI units here (V/m, W, A, m); Rabi amplitudes and offsets cross into the
package-internal rad/us at the module boundary.

Absolute output scale depends on calibration parameters the physics does
not pin down (probe power, responsivity, probe dipole moment); defaults are
declared on :data:`DEFAULT_CELL` and everything downstream that depends on
them (gains, shot-noise variance) is calibration-dependent in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import rho21_from_amplitudes
from .config import EA0, c_light, epsilon_0, hbar
from .lindblad import steady_state_numerical
from .numerics import TWO_PI, write_csv

__all__ = [
    "EA0",
    "VaporCellParams",
    "DEFAULT_CELL",
    "RfSignalSpec",
    "GainVector",
    "Waveform",
    "DemodChannel",
    "validate_heterodyne",
    "heterodyne_rabi",
    "photodetector_output",
    "gain_coefficients",
    "synthesize_pd_waveform",
    "linearization_discrepancy",
    "iq_demodulate",
    "spectrogram_data",
    "write_waveform_csv",
    "write_spectrogram_csv",
]

#: Demodulator filter plan: linear-phase FIR, bandpass width 1.2 B, lowpass
#: cutoff 0.6 B, >= 60 dB stopband (we design for 65), transition 1.5 B.
FILTER_STOPBAND_DB = 65.0
BPF_HALF_WIDTH = 0.6
LPF_CUTOFF = 0.6
TRANSITION_BANDWIDTHS = 1.5

#: Finite-difference step of :func:`gain_coefficients`: 2 pi x 1 kHz (rad/us).
GAIN_STEP = TWO_PI * 1e-3


@dataclass(frozen=True)
class VaporCellParams:
    """Vapor cell, probe beam, and detector calibration (SI).

    The dimensionless susceptibility constant follows from these fields and
    the probe Rabi amplitude via :meth:`xi0`; it multiplies the probe
    coherence in the transmission exponent.

    Attributes
    ----------
    cell_length : float
        Optical path through the vapor (m).
    atomic_density : float
        Ground-state atom density (1/m^3).
    probe_dipole : float
        Probe transition dipole moment (C*m).
    probe_wavelength : float
        Probe wavelength (m).
    probe_power : float
        Optical probe power entering the cell (W). Calibration default.
    responsivity : float
        Photodetector responsivity (A/W). Calibration default.
    """

    cell_length: float = 0.02
    atomic_density: float = 4.89e16
    probe_dipole: float = 3.17 * EA0
    probe_wavelength: float = 852.35e-9
    probe_power: float = 1e-3
    responsivity: float = 1.0

    def __post_init__(self):
        for name in (
            "cell_length",
            "atomic_density",
            "probe_dipole",
            "probe_wavelength",
            "probe_power",
            "responsivity",
        ):
            value = float(getattr(self, name))
            if not value > 0:
                raise ValueError(f"VaporCellParams.{name} must be > 0, got {value}")
            object.__setattr__(self, name, value)

    def xi0(self, omega_p):
        """Susceptibility constant for probe Rabi ``omega_p`` (rad/us).

        ``2 pi d N0 mu_P^2 / (eps0 hbar lambda_P Omega_P)`` with the probe
        Rabi converted to rad/s.
        """
        if not omega_p > 0:
            raise ValueError("xi0: probe Rabi must be > 0")
        return (
            TWO_PI
            * self.cell_length
            * self.atomic_density
            * self.probe_dipole**2
            / (epsilon_0 * hbar * self.probe_wavelength * (omega_p * 1e6))
        )

    @property
    def probe_angular_frequency(self):
        """Probe optical angular frequency (rad/s)."""
        return TWO_PI * c_light / self.probe_wavelength


#: Bundled cesium-cell calibration defaults.
DEFAULT_CELL = VaporCellParams()


def _check_bands(caller, names, offsets, bandwidths):
    """Raise unless every two channels' offsets (rad/us) lie further apart
    than the sum of their bandwidths (MHz), so their bands do not overlap."""
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            sep = abs(offsets[a] - offsets[b]) / TWO_PI
            if sep <= bandwidths[a] + bandwidths[b]:
                raise ValueError(
                    f"{caller}: channels {names[a]} and {names[b]} overlap (offset separation "
                    f"{sep:.4g} MHz <= B_i + B_j = {bandwidths[a] + bandwidths[b]:.4g} MHz)"
                )


@dataclass(frozen=True)
class RfSignalSpec:
    """Incident RF signal plan for the four channels.

    Attributes
    ----------
    amplitudes : tuple of 4 floats
        Signal field amplitudes at the cell (V/m); zero disables a channel.
    offsets : tuple of 4 floats
        Heterodyne offsets delta-omega (rad/us), distinct per active
        channel and separated by more than the bandwidth sum.
    phases : tuple of 4 floats
        Offsets delta-phi (rad).
    bandwidths : tuple of 4 floats
        Baseband bandwidths (MHz).
    envelopes : tuple of 4 (None or ndarray), optional
        Complex modulation envelopes sampled on the synthesis time base;
        ``None`` means an unmodulated tone.
    """

    amplitudes: tuple
    offsets: tuple
    phases: tuple = (0.0, 0.0, 0.0, 0.0)
    bandwidths: tuple = (0.1, 0.1, 0.1, 0.1)
    envelopes: tuple = (None, None, None, None)

    def __post_init__(self):
        for name in ("amplitudes", "offsets", "phases", "bandwidths"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != 4:
                raise ValueError(f"RfSignalSpec.{name}: expected 4 entries")
            object.__setattr__(self, name, vals)
        if any(a < 0 for a in self.amplitudes):
            raise ValueError("RfSignalSpec: amplitudes must be >= 0")
        if any(b <= 0 for b in self.bandwidths):
            raise ValueError("RfSignalSpec: bandwidths must be > 0")
        object.__setattr__(self, "envelopes", tuple(self.envelopes))
        active = self.active_channels()
        _check_bands("RfSignalSpec", active, [self.offsets[n - 1] for n in active],
                     [self.bandwidths[n - 1] for n in active])

    def active_channels(self):
        """1-based indices of channels with nonzero signal amplitude."""
        return tuple(n for n in range(1, 5) if self.amplitudes[n - 1] > 0)


@dataclass(frozen=True)
class GainVector:
    """RF-to-electrical conversion gains, A per (V/m), one per channel.

    Signs follow the slope of the detector output at the operating point;
    magnitudes inherit the calibration of :class:`VaporCellParams`.
    """

    gains: tuple

    def __post_init__(self):
        vals = tuple(float(g) for g in self.gains)
        if len(vals) != 4:
            raise ValueError("GainVector: expected 4 gains")
        if not all(np.isfinite(vals)):
            raise ValueError(f"GainVector: non-finite gain in {vals}")
        object.__setattr__(self, "gains", vals)

    def __getitem__(self, n):
        """Gain of channel ``n`` (1-based)."""
        return self.gains[n - 1]


def _rabi_per_field(n, scheme):
    """mu_n / hbar in (rad/us) per (V/m)."""
    mu = scheme.transition(n).dipole_moment * EA0
    return mu / hbar * 1e-6


def validate_heterodyne(spec, lo, scheme, max_ratio=0.01):
    """Check the weak-signal condition A_RF << A_LO on every active channel.

    Returns the worst amplitude ratio; raises if it exceeds ``max_ratio``
    (or if a channel carries signal with no LO at all, where the heterodyne
    expansion is meaningless).
    """
    worst = 0.0
    for n in spec.active_channels():
        lo_rabi = lo.rf_rabi[n - 1]
        sig_rabi = _rabi_per_field(n, scheme) * spec.amplitudes[n - 1]
        if lo_rabi <= 0:
            raise ValueError(
                f"heterodyne approximation invalid: channel {n} carries signal "
                "but its local oscillator is off"
            )
        worst = max(worst, sig_rabi / lo_rabi)
    if worst > max_ratio:
        raise ValueError(
            f"heterodyne approximation violated: max A_RF/A_LO ratio {worst:.3g} "
            f"exceeds {max_ratio:g}"
        )
    return worst


def _carrier(spec, n, t):
    """Beat carrier of channel ``n``: ``cos(delta_omega_n t + delta_phi_n)``,
    or ``Re(env e^{i(delta_omega_n t + delta_phi_n)})`` with an envelope."""
    phase = spec.offsets[n - 1] * t + spec.phases[n - 1]
    env = spec.envelopes[n - 1]
    if env is None:
        return np.cos(phase)
    return np.real(np.asarray(env) * np.exp(1j * phase))


def heterodyne_rabi(n, t, spec, lo, scheme, max_ratio=0.01):
    """Effective Rabi amplitude of channel ``n`` at time(s) ``t`` (us).

    ``Omega_n(t) = Omega_LO,n + (mu_n/hbar) A_RF,n cos(delta_omega_n t +
    delta_phi_n)``, the first-order beat of the combined LO + signal field.
    """
    validate_heterodyne(spec, lo, scheme, max_ratio=max_ratio)
    t = np.asarray(t, dtype=float)
    base = lo.rf_rabi[n - 1]
    amp = spec.amplitudes[n - 1]
    if amp == 0.0:
        return np.broadcast_to(base, t.shape).copy() if t.shape else base
    return base + _rabi_per_field(n, scheme) * amp * _carrier(spec, n, t)


def _detector_current(cell, omega_p, rho21):
    """``R (P0/2) exp(2 Xi0 Im rho_21)`` for a scalar or array coherence."""
    return cell.responsivity * (cell.probe_power / 2.0) * np.exp(
        2.0 * cell.xi0(omega_p) * rho21.imag
    )


def photodetector_output(drive, cell, scheme, model="analytic"):
    """DC photodetector current at a drive point.

    ``y = R (P0/2) exp(2 Xi0 Im rho_21)``: half the probe power reaches the
    detector at zero susceptibility, and absorption (negative imaginary
    coherence) attenuates it exponentially.

    ``model="analytic"`` evaluates the closed-form coherence;
    ``model="numerical"`` uses the converged full-decay steady state, which
    also covers balanced-loop points where the closed form is degenerate.
    """
    if model == "analytic":
        rho21 = rho21_from_amplitudes(
            drive.omega_p, drive.omega_c, drive.rf_rabi, scheme.decay_rate(2, 1)
        )
    elif model == "numerical":
        rho21 = steady_state_numerical(drive, scheme, method="null_space").coherence(2, 1)
    else:
        raise ValueError(f"photodetector_output: unknown model {model!r}")
    return float(_detector_current(cell, drive.omega_p, rho21))


def gain_coefficients(lo, cell, scheme, model="analytic"):
    """Per-channel RF-to-electrical gains at the LO operating point.

    ``G_n = (mu_n / hbar) * dy/dOmega_n`` via central finite differences
    with step :data:`GAIN_STEP` (one-sided second-order stencil when the LO
    amplitude sits closer than one step to zero). Units: A per (V/m).

    Raises
    ------
    ValueError
        If a derivative comes out non-finite (operating-point error).
    """
    gains = []
    for n in range(1, 5):
        mu_over_hbar = _rabi_per_field(n, scheme)  # (rad/us) per (V/m)
        if mu_over_hbar == 0.0:
            gains.append(0.0)
            continue
        rf = list(lo.rf_rabi)
        base = rf[n - 1]
        if base >= GAIN_STEP:
            stencil = ((GAIN_STEP, 1.0), (-GAIN_STEP, -1.0))
        else:
            stencil = ((0.0, -3.0), (GAIN_STEP, 4.0), (2.0 * GAIN_STEP, -1.0))
        dy = 0.0
        for shift, weight in stencil:
            rf[n - 1] = base + shift
            dy += weight * photodetector_output(lo.with_rf_rabi(rf), cell, scheme, model=model)
        g = mu_over_hbar * (dy / (2.0 * GAIN_STEP))
        if not np.isfinite(g):
            raise ValueError(f"gain_coefficients: non-finite derivative on channel {n}")
        gains.append(g)
    return GainVector(gains=tuple(gains))


@dataclass(frozen=True)
class Waveform:
    """Sampled photodetector output.

    ``dc_level`` is the detector current with every signal off (the LO
    operating output), the natural normalization for modulation depths.
    """

    times: np.ndarray
    samples: np.ndarray
    dc_level: float
    sample_rate: float  # MHz

    def ac(self):
        """Samples with their own mean (DC) removed."""
        return self.samples - float(np.mean(self.samples))


def synthesize_pd_waveform(
    spec,
    lo,
    cell,
    scheme,
    duration,
    sample_rate,
    mode="exact",
    noise_std=0.0,
    seed=None,
    gains=None,
    max_ratio=0.01,
):
    """Photodetector waveform over ``duration`` us at ``sample_rate`` MHz.

    ``mode="exact"`` follows the instantaneous Rabi amplitudes through the
    closed-form coherence sample by sample (adiabatic response; every
    offset is far below the probe linewidth). ``mode="linearized"`` emits
    the first-order model ``y_LO + sum_n G_n A_n cos(delta_omega_n t +
    delta_phi_n)`` plus optional white Gaussian detector noise; its gains
    are the analytic-model derivatives so the two modes differ only at
    second order in the signal amplitudes.

    Raises
    ------
    ValueError
        On undersampling (the rate must exceed four times the highest
        occupied frequency), a record with no sample or
        heterodyne-condition violations.
    """
    needed = 4.0 * max(
        (spec.offsets[n - 1] + np.pi * spec.bandwidths[n - 1]) / TWO_PI
        for n in range(1, 5)
    )
    if sample_rate <= needed:
        raise ValueError(
            f"synthesize_pd_waveform: sample_rate {sample_rate:g} MHz undersamples the "
            f"plan (needs > {needed:g} MHz)"
        )
    validate_heterodyne(spec, lo, scheme, max_ratio=max_ratio)
    n_samples = int(round(duration * sample_rate))
    if n_samples < 1:
        raise ValueError(
            f"synthesize_pd_waveform: {duration:g} us at {sample_rate:g} MHz holds no sample"
        )
    t = np.arange(n_samples) / sample_rate
    y_lo = photodetector_output(lo, cell, scheme, model="analytic")

    if mode == "exact":
        rf_t = [heterodyne_rabi(n, t, spec, lo, scheme, max_ratio=max_ratio) for n in range(1, 5)]
        rho21 = rho21_from_amplitudes(
            lo.omega_p, lo.omega_c, rf_t, scheme.decay_rate(2, 1)
        )
        samples = _detector_current(cell, lo.omega_p, rho21)
    elif mode == "linearized":
        if gains is None:
            gains = gain_coefficients(lo, cell, scheme, model="analytic")
        samples = np.full(n_samples, y_lo)
        for n in spec.active_channels():
            samples = samples + gains[n] * spec.amplitudes[n - 1] * _carrier(spec, n, t)
        if noise_std > 0.0:
            samples = samples + np.random.default_rng(seed).normal(0.0, noise_std, n_samples)
    else:
        raise ValueError(f"synthesize_pd_waveform: unknown mode {mode!r}")

    return Waveform(times=t, samples=samples, dc_level=y_lo, sample_rate=sample_rate)


def linearization_discrepancy(exact, linearized):
    """RMS difference of the DC-removed waveforms, relative to the DC level.

    Each waveform loses its own mean; the residual is the modulation error
    of the first-order model, normalized by the operating output, so it
    scales quadratically with the signal amplitudes (signal-relative
    normalization would scale linearly and hide the Taylor structure).
    """
    if exact.times.shape != linearized.times.shape:
        raise ValueError("linearization_discrepancy: waveforms must share a time base")
    resid = exact.ac() - linearized.ac()
    return float(np.sqrt(np.mean(resid**2)) / exact.dc_level)


# ----------------------------------------------------------------------
# IQ demodulation


@dataclass(frozen=True)
class DemodChannel:
    """One recovered complex baseband channel."""

    offset: float        # rad/us
    bandwidth: float     # MHz
    times: np.ndarray    # us, decimated
    baseband: np.ndarray # complex envelope
    sample_rate: float   # MHz, decimated
    edge_samples: int    # filter-transient guard at each end

    def steady(self):
        """Envelope samples with the filter edge transients discarded."""
        lo = self.edge_samples
        hi = len(self.baseband) - self.edge_samples
        if hi <= lo:
            raise ValueError("DemodChannel: record too short to clear filter transients")
        return self.baseband[lo:hi]

    def envelope_magnitude(self):
        """Mean steady-state envelope magnitude."""
        return float(np.mean(np.abs(self.steady())))

    def envelope_phase(self):
        """Phase of the mean steady-state envelope (rad)."""
        return float(np.angle(np.mean(self.steady())))

    def rms(self):
        """Steady-state RMS of the envelope magnitude."""
        return float(np.sqrt(np.mean(np.abs(self.steady()) ** 2)))


def _kaiser_fir(left, right, transition, fs):
    """Kaiser-window FIR passing ``left..right`` MHz (``left = 0``: lowpass),
    unit gain at DC or mid-band: ``scipy.signal.kaiserord`` + ``firwin``, after
    Oppenheim & Schafer, *Discrete-Time Signal Processing*, 3rd ed., sec. 7.6."""
    nyq = fs / 2.0
    width = transition / nyq
    numtaps = int(np.ceil((FILTER_STOPBAND_DB - 7.95) / 2.285 / (np.pi * width) + 1))
    numtaps += 1 - numtaps % 2  # odd length keeps the filter zero-phase
    beta = 0.1102 * (FILTER_STOPBAND_DB - 8.7)  # Kaiser's beta above 50 dB
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    left, right = left / nyq, right / nyq
    h = (right * np.sinc(right * m) - left * np.sinc(left * m)) * np.kaiser(numtaps, beta)
    return h / np.sum(h * np.cos(np.pi * m * (0.5 * (left + right) if left else 0.0)))


def _kaiser_lowpass(cutoff, transition, fs):
    return _kaiser_fir(0.0, cutoff, transition, fs)


def _kaiser_bandpass(center, half_width, transition, fs):
    return _kaiser_fir(center - half_width, center + half_width, transition, fs)


def iq_demodulate(waveform, offsets, bandwidths):
    """Split a detector waveform into per-channel complex basebands.

    Per channel: bandpass isolate around the offset, mix with
    ``2 cos`` / ``-2 sin`` at the offset, lowpass, decimate. All filters
    are linear-phase FIR applied with centered convolution, so the
    recovered envelope is delay-free; edge samples inside the filter
    transient are flagged and excluded from the steady-state statistics.

    Raises
    ------
    ValueError
        If any two channel bands overlap, or the record is shorter than a
        channel's filters.
    """
    offsets = tuple(float(v) for v in offsets)
    bandwidths = tuple(float(v) for v in bandwidths)
    if len(offsets) != len(bandwidths):
        raise ValueError("iq_demodulate: offsets and bandwidths must pair up")
    _check_bands("iq_demodulate", range(1, len(offsets) + 1), offsets, bandwidths)
    fs = waveform.sample_rate
    x = waveform.ac()
    t = waveform.times
    out = []
    for offset, bw in zip(offsets, bandwidths):
        f0 = offset / TWO_PI
        transition = TRANSITION_BANDWIDTHS * bw
        bpf = _kaiser_bandpass(f0, BPF_HALF_WIDTH * bw, transition, fs)
        lpf = _kaiser_lowpass(LPF_CUTOFF * bw, transition, fs)
        taps = max(len(bpf), len(lpf))
        if len(x) < taps:
            raise ValueError(
                f"iq_demodulate: record of {len(x)} samples is shorter than the "
                f"{taps}-tap filters of the {bw:g} MHz channel"
            )
        band = np.convolve(x, bpf, mode="same")
        i_arm = np.convolve(band * (2.0 * np.cos(offset * t)), lpf, mode="same")
        q_arm = np.convolve(band * (-2.0 * np.sin(offset * t)), lpf, mode="same")
        z = i_arm + 1j * q_arm
        # tolerance absorbs float artifacts like 16 // 0.4 -> 39
        decim = max(1, int(np.floor(fs / (4.0 * bw) + 1e-9)))
        guard = (len(bpf) + len(lpf)) // 2
        out.append(
            DemodChannel(
                offset=offset,
                bandwidth=bw,
                times=t[::decim],
                baseband=z[::decim],
                sample_rate=fs / decim,
                edge_samples=-(-guard // decim),
            )
        )
    return out


# ----------------------------------------------------------------------
# Exports


def spectrogram_data(waveform, nperseg=256):
    """Spectrogram of the DC-removed waveform.

    Returns ``(segment_times_us, frequencies_mhz, power_db)`` with power in
    dB relative to the strongest bin, floored at -300 dB; a constant
    waveform, with no strongest bin, reads -300 dB everywhere. A record
    shorter than ``nperseg`` samples is one segment. The STFT has
    ``scipy.signal.spectrogram``'s defaults: periodic Tukey(0.25) segments
    overlapping by an eighth, each less its mean, and a one-sided density.
    """
    x = waveform.ac()
    fs = waveform.sample_rate
    n = min(nperseg, len(x))
    step = n - n // 8
    r = 8.0 * np.arange(n) / n  # the taper's cosine argument clips to 0 on the flat top
    win = 0.5 * (1 + np.cos(np.pi * (np.minimum(-1 + r, 0) + np.maximum(-7.0 + r, 0))))
    win = win if n > 1 else np.ones(1)  # scipy's 1; the taper's 0 would divide by 0
    seg = np.lib.stride_tricks.sliding_window_view(x, n)[::step]
    spec = np.fft.rfft(win * (seg - np.mean(seg, axis=-1, keepdims=True)))
    # |X|^2 as the complex product conj(X) X, the same rounding as scipy's
    sxx = (np.conjugate(spec) * spec).real.T * (1.0 / (fs * np.sum(win * win)))
    sxx[1 : n - n // 2] *= 2  # every bin but DC and Nyquist has a mirror
    times = np.arange(n / 2, len(x) - n / 2 + 1, step) / float(fs)
    freqs = np.fft.rfftfreq(n, 1 / fs)
    peak = float(np.max(sxx, initial=0.0))
    if peak == 0.0:
        return times, freqs, np.full(sxx.shape, -300.0)
    power_db = 10.0 * np.log10(np.maximum(sxx, peak * 1e-30) / peak)
    return times, freqs, power_db


def write_waveform_csv(path, exact, linearized):
    """Export paired waveforms as ``t, y_exact, y_linearized`` CSV."""
    if exact.times.shape != linearized.times.shape:
        raise ValueError("write_waveform_csv: waveforms must share a time base")
    write_csv(path, "t,y_exact,y_linearized", "%.9g,%.12g,%.12g",
              [(exact.times, exact.samples, linearized.samples)])


def write_spectrogram_csv(path, waveform, nperseg=256):
    """Export a long-form spectrogram CSV with columns ``t, f, power_db``."""
    times, freqs, power_db = spectrogram_data(waveform, nperseg=nperseg)
    t, f = np.meshgrid(times, freqs, indexing="ij")
    write_csv(path, "t,f,power_db", "%.9g,%.9g,%.6g", [(t.ravel(), f.ravel(), power_db.T.ravel())])
