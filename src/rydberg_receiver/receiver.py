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

from .analytic import _rho21_gradient, rho21_from_amplitudes
from .config import EA0, c_light, epsilon_0, hbar
from .lindblad import _stationary_response
from .numerics import TWO_PI, write_csv

#: Demodulator filter plan: linear-phase FIR, bandpass width 1.2 B, lowpass
#: cutoff 0.6 B, >= 60 dB stopband (we design for 65), transition 1.5 B.
FILTER_STOPBAND_DB = 65.0
BPF_HALF_WIDTH = 0.6
LPF_CUTOFF = 0.6
TRANSITION_BANDWIDTHS = 1.5

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
        if len(self.envelopes) != 4:
            raise ValueError("RfSignalSpec.envelopes: expected 4 entries")
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


def signal_amplitudes(lo, scheme, modulation_index):
    """Signal field amplitudes (V/m) of the four channels that modulate
    each channel's LO Rabi amplitude by ``modulation_index``:
    ``A_n = m Omega_LO,n / (mu_n / hbar)``."""
    return tuple(
        modulation_index * lo.rf_rabi[n - 1] / _rabi_per_field(n, scheme) for n in range(1, 5)
    )


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


def _detector_current(cell, omega_p, rho21):
    """``R (P0/2) exp(2 Xi0 Im rho_21)`` for a scalar or array coherence."""
    return cell.responsivity * (cell.probe_power / 2.0) * np.exp(
        2.0 * cell.xi0(omega_p) * rho21.imag
    )


def _operating_point(drive, cell, scheme, model):
    """``(photodetector_output, gain_coefficients)`` at a drive point, from
    one evaluation of the probe coherence ``rho_21`` and its derivatives
    ``d rho_21 / d Omega_n`` under ``model``."""
    if model == "analytic":
        args = (drive.omega_p, drive.omega_c, drive.rf_rabi, scheme.decay_rate(2, 1))
        rho21, drho21 = rho21_from_amplitudes(*args), _rho21_gradient(*args)
    elif model == "numerical":
        rho, drho = _stationary_response(drive, scheme)
        rho21, drho21 = rho.coherence(2, 1), drho[:, 1, 0]
    else:
        raise ValueError(f"photodetector_output: unknown model {model!r}")
    y = _detector_current(cell, drive.omega_p, rho21)
    slope = y * 2.0 * cell.xi0(drive.omega_p) * drho21.imag
    gains = tuple(_rabi_per_field(n, scheme) * slope[n - 1] for n in range(1, 5))
    return float(y), GainVector(gains=gains)


def photodetector_output(drive, cell, scheme, model="analytic"):
    """DC photodetector current at a drive point.

    ``y = R (P0/2) exp(2 Xi0 Im rho_21)``: half the probe power reaches the
    detector at zero susceptibility, and absorption (negative imaginary
    coherence) attenuates it exponentially.

    ``model="analytic"`` evaluates the closed-form coherence;
    ``model="numerical"`` uses the converged full-decay steady state, which
    also covers balanced-loop points where the closed form is degenerate.
    """
    return _operating_point(drive, cell, scheme, model)[0]


def gain_coefficients(lo, cell, scheme, model="analytic"):
    """Per-channel RF-to-electrical gains at the LO operating point.

    ``G_n = (mu_n / hbar) dy/dOmega_n = (mu_n / hbar) y 2 Xi0 Im(d rho_21 /
    d Omega_n)``, the exact derivative of the ``model`` that
    :func:`photodetector_output` evaluates: the quotient rule on the closed
    form, or the linear response of the stationary state. Units: A per (V/m).

    Raises
    ------
    ValueError
        If a gain comes out non-finite (operating-point error).
    """
    return _operating_point(lo, cell, scheme, model)[1]


@dataclass(frozen=True)
class Waveform:
    """Sampled photodetector output: the exact response ``samples`` and, on
    the same ``times``, its first-order model ``linearized`` with the
    ``gains`` it uses (both None unless :func:`synthesize_pd_waveform` built
    the record). ``dc_level`` is the detector current with every signal off
    (the LO operating output), the natural normalization for modulation depths.
    """

    times: np.ndarray
    samples: np.ndarray
    dc_level: float
    sample_rate: float  # MHz
    linearized: np.ndarray = None
    gains: GainVector = None

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
    noise_std=0.0,
    seed=None,
    max_ratio=0.01,
):
    """Photodetector waveform over ``duration`` us at ``sample_rate`` MHz.

    ``samples`` follows the Rabi amplitudes ``Omega_n(t) = Omega_LO,n +
    (mu_n/hbar) A_n c_n(t)``, with the beat carrier ``c_n(t) = cos(delta_omega_n
    t + delta_phi_n)``, through the closed-form coherence sample by sample
    (adiabatic response; every offset is far below the probe linewidth).
    ``linearized`` is the first-order model ``y_LO + sum_n G_n A_n c_n(t)``
    plus optional white Gaussian detector noise; its gains are the
    analytic-model derivatives, so the two forms differ only at second order
    in the signal amplitudes. One analytic evaluation of the operating point
    gives ``y_LO`` and the gains, and each carrier serves both forms.

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
    y_lo, gains = _operating_point(lo, cell, scheme, "analytic")

    rabi = [np.broadcast_to(base, t.shape) for base in lo.rf_rabi]
    linearized = np.full(n_samples, y_lo)
    for n in spec.active_channels():
        carrier = _carrier(spec, n, t)
        amp = spec.amplitudes[n - 1]
        rabi[n - 1] = lo.rf_rabi[n - 1] + _rabi_per_field(n, scheme) * amp * carrier
        linearized = linearized + gains[n] * amp * carrier
    if noise_std > 0.0:
        linearized = linearized + np.random.default_rng(seed).normal(0.0, noise_std, n_samples)
    rho21 = rho21_from_amplitudes(lo.omega_p, lo.omega_c, rabi, scheme.decay_rate(2, 1))
    return Waveform(times=t, samples=_detector_current(cell, lo.omega_p, rho21), dc_level=y_lo,
                    sample_rate=sample_rate, linearized=linearized, gains=gains)


def linearization_discrepancy(waveform):
    """RMS difference of the DC-removed exact and first-order forms of a
    record, relative to the DC level.

    Each form loses its own mean; the residual is the modulation error of
    the first-order model, normalized by the operating output, so it scales
    quadratically with the signal amplitudes (signal-relative normalization
    would scale linearly and hide the Taylor structure).
    """
    resid = waveform.ac() - (waveform.linearized - float(np.mean(waveform.linearized)))
    return float(np.sqrt(np.mean(resid**2)) / waveform.dc_level)


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


def _lowpass_kept(y, taps, decim):
    """``np.convolve(y, taps, mode="same")[::decim]``, bit for bit, computing
    only the kept outputs (polyphase decimation; Crochiere & Rabiner,
    *Multirate Digital Signal Processing*, 1983). ``correlate`` sums each
    output as one BLAS dot of its window with the contiguous reversed taps,
    and ``np.vecdot`` and ``np.dot`` call that same dot; an edge output, whose
    window ``mode="same"`` truncates, gets a dot of exactly the truncated
    length. Needs ``len(taps) <= len(y)``."""
    n, m, left = len(y), len(taps), len(taps) // 2
    rev = taps[::-1].copy()  # a negative stride would leave BLAS
    out = np.empty(-(-n // decim))
    first, last = -(-left // decim), (n - m + left) // decim  # kept full windows
    # a strided view of the kept windows: a gathered copy would hold them all
    windows = np.lib.stride_tricks.sliding_window_view(y, m)[first * decim - left :: decim]
    out[first : last + 1] = np.vecdot(windows, rev)
    for j in (*range(min(first, len(out))), *range(max(first, last + 1), len(out))):
        s = j * decim - left
        lo, hi = max(s, 0), min(s + m, n)
        out[j] = np.dot(y[lo:hi], rev[lo - s : hi - s])
    return out


def iq_demodulate(waveform, offsets, bandwidths):
    """Split a detector waveform into per-channel complex basebands.

    Per channel: bandpass isolate around the offset, mix with
    ``2 cos`` / ``-2 sin`` at the offset, lowpass, decimate. All filters
    are linear-phase FIR applied with centered convolution, so the
    recovered envelope is delay-free; the lowpass is evaluated only at the
    decimated samples. Edge samples inside the filter transient are flagged
    and excluded from the steady-state statistics.

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
        # tolerance absorbs float artifacts like 16 // 0.4 -> 39
        decim = max(1, int(np.floor(fs / (4.0 * bw) + 1e-9)))
        band = np.convolve(x, bpf, mode="same")
        i_arm = _lowpass_kept(band * (2.0 * np.cos(offset * t)), lpf, decim)
        q_arm = _lowpass_kept(band * (-2.0 * np.sin(offset * t)), lpf, decim)
        guard = (len(bpf) + len(lpf)) // 2
        out.append(
            DemodChannel(
                offset=offset,
                bandwidth=bw,
                times=t[::decim],
                baseband=i_arm + 1j * q_arm,
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


def write_waveform_csv(path, waveform):
    """Export a synthesized record as ``t, y_exact, y_linearized`` CSV."""
    write_csv(path, "t,y_exact,y_linearized", "%.9g,%.12g,%.12g",
              [(waveform.times, waveform.samples, waveform.linearized)])


def write_spectrogram_csv(path, waveform, nperseg=256):
    """Export a long-form spectrogram CSV with columns ``t, f, power_db``."""
    times, freqs, power_db = spectrogram_data(waveform, nperseg=nperseg)
    t_index, f_index = np.divmod(np.arange(power_db.size), len(freqs))
    write_csv(path, "t,f,power_db", "%.9g,%.9g,%.6g",
              [((times, t_index), (freqs, f_index), power_db.T.ravel())])
