"""Link-level performance of the multi-channel atomic receiver.

Maps the receiver gains into per-channel signal-to-noise ratios and
Shannon rates under Rayleigh block fading, and compares the three
receiver architectures (cascade-only, parallel-only, hybrid) over
transmit-power and bandwidth sweeps at a common operating point.

Noise model: intrinsic photon shot noise on the detected probe plus
extrinsic blackbody radiation picked up in each RF band. Both scale
linearly with bandwidth; the extrinsic term rides on the channel gain, so
it inherits the receiver calibration exactly like the signal does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import c_light, dbm_to_watts, epsilon_0, hbar, k_B
from .lindblad import DriveConfig
from .numerics import TWO_PI, exp_e1_scaled
from .receiver import DEFAULT_CELL, gain_coefficients, photodetector_output
from .scheme import Architecture

__all__ = [
    "RABI_SET1",
    "RABI_SET2",
    "ARCH_CHANNELS",
    "EnvironmentParams",
    "ChannelModel",
    "blackbody_psd",
    "noise_variances",
    "snr",
    "sum_rate",
    "ergodic_sum_rate",
    "rayleigh_power_samples",
    "monte_carlo_sum_rate",
    "dbm_to_watts",
    "ArchitectureComparison",
    "compare_architectures",
]

LN2 = math.log(2.0)

#: Reference LO amplitude sets (rad/us): a probe-heavy point and a
#: balanced point used for the architecture sweeps.
RABI_SET1 = (TWO_PI * 7.0, TWO_PI * 1.0, TWO_PI * 1.0, TWO_PI * 1.0)
RABI_SET2 = (TWO_PI * 2.0, TWO_PI * 1.0, TWO_PI * 1.0, TWO_PI * 1.0)

#: RF channels each architecture drives (1-based): the cascade uses the
#: three ladder links, the parallel variant the first ladder link plus the
#: shortcut, the hybrid all four.
ARCH_CHANNELS = {
    Architecture.HYBRID: (1, 2, 3, 4),
    Architecture.CRS: (1, 2, 3),
    Architecture.PRS: (1, 4),
}


def blackbody_psd(omega, temperature):
    """One-sided blackbody field spectral density at ``omega`` (rad/s), T (K).

    ``(4 hbar omega^3 / eps0 c^3) (e^x + 1)/(e^x - 1)`` with
    ``x = hbar omega / k_B T``; the occupation factor is evaluated as
    ``coth(x/2)``, which is the same function without overflow at large x.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("blackbody_psd: omega must be > 0")
    if not temperature > 0:
        raise ValueError("blackbody_psd: temperature must be > 0")
    x = hbar * omega / (k_B * temperature)
    factor = 1.0 / np.tanh(x / 2.0)
    out = 4.0 * hbar * omega**3 / (epsilon_0 * c_light**3) * factor
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class EnvironmentParams:
    """Shared noise environment of every channel.

    Attributes
    ----------
    y_lo : float
        Detector operating output with all signals off (A).
    temperature : float
        Antenna/blackbody temperature (K).
    omega_probe : float
        Probe optical angular frequency (rad/s), setting the shot-noise
        quantum.
    """

    y_lo: float
    temperature: float = 300.0
    omega_probe: float = DEFAULT_CELL.probe_angular_frequency

    def __post_init__(self):
        if not self.y_lo > 0:
            raise ValueError("EnvironmentParams: y_lo must be > 0")
        if not self.temperature > 0:
            raise ValueError("EnvironmentParams: temperature must be > 0")
        if not self.omega_probe > 0:
            raise ValueError("EnvironmentParams: omega_probe must be > 0")


@dataclass(frozen=True)
class ChannelModel:
    """One RF channel as seen at the detector output.

    ``sigma_i_sq`` (intrinsic/shot) and ``sigma_e_sq`` (extrinsic/blackbody)
    start at zero; :meth:`with_noise` fills them from an environment so the
    total variance is their sum by construction. Array ``transmit_power``
    or ``bandwidth`` describe a sweep, over which everything broadcasts.

    Attributes
    ----------
    gain : float
        RF-to-electrical gain (A per V/m).
    transmit_power : float or numpy.ndarray
        Transmit power P_T (W).
    bandwidth : float or numpy.ndarray
        Channel bandwidth (Hz).
    rf_frequency : float
        RF carrier angular frequency (rad/s).
    fading_scale : float
        Mean of the Rayleigh fading power |h|^2.
    """

    gain: float
    transmit_power: float
    bandwidth: float
    rf_frequency: float
    fading_scale: float = 1.0
    sigma_i_sq: float = 0.0
    sigma_e_sq: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.gain):
            raise ValueError("ChannelModel: gain must be finite")
        if np.any(self.transmit_power < 0):
            raise ValueError("ChannelModel: transmit_power must be >= 0")
        if not np.all(self.bandwidth > 0):
            raise ValueError("ChannelModel: bandwidth must be > 0")
        if not self.rf_frequency > 0:
            raise ValueError("ChannelModel: rf_frequency must be > 0")
        if not self.fading_scale > 0:
            raise ValueError("ChannelModel: fading_scale must be > 0")
        if np.any(self.sigma_i_sq < 0) or np.any(self.sigma_e_sq < 0):
            raise ValueError("ChannelModel: noise variances must be >= 0")

    @property
    def sigma_sq(self):
        """Total noise variance, intrinsic plus extrinsic."""
        return self.sigma_i_sq + self.sigma_e_sq

    def with_noise(self, env):
        """Copy of the channel with both noise terms filled from ``env``."""
        s_i, s_e = noise_variances(self, env)
        return replace(self, sigma_i_sq=s_i, sigma_e_sq=s_e)

    @property
    def mean_snr(self):
        """Average SNR over fading: :func:`snr` at ``|h|^2 = beta``."""
        return snr(self, self.fading_scale)


def noise_variances(channel, env):
    """Intrinsic and extrinsic noise variances of a channel.

    Intrinsic: shot noise of the detected probe, ``y_LO B hbar omega_P``.
    Extrinsic: blackbody pickup in the RF band referred through the channel
    gain, ``gain^2 B S_BB(omega_RF, T)``.
    """
    s_i = env.y_lo * channel.bandwidth * hbar * env.omega_probe
    s_e = channel.gain**2 * channel.bandwidth * blackbody_psd(
        channel.rf_frequency, env.temperature
    )
    return s_i, s_e


def snr(channel, fading_power):
    """Instantaneous SNR at fading power sample ``|h|^2``."""
    fading_power = np.asarray(fading_power, dtype=float)
    if np.any(fading_power < 0):
        raise ValueError("snr: fading power must be >= 0")
    if not np.all(channel.sigma_sq > 0):
        raise ValueError("snr: zero noise variance (call with_noise first)")
    out = channel.gain**2 * channel.transmit_power * fading_power / channel.sigma_sq
    return out if out.ndim else float(out)


def sum_rate(channels, fading_powers):
    """Instantaneous sum rate (bits/s) at one fading realization per channel."""
    fading_powers = np.asarray(fading_powers, dtype=float)
    if fading_powers.shape != (len(channels),):
        raise ValueError("sum_rate: need one fading power per channel")
    total = 0.0
    for ch, h in zip(channels, fading_powers):
        total += ch.bandwidth * math.log2(1.0 + snr(ch, float(h)))
    return total


def ergodic_sum_rate(channels):
    """Fading-averaged sum rate (bits/s) under Rayleigh power fading.

    Per channel ``(B/ln 2) e^{1/SNR} E1(1/SNR)`` with the average SNR from
    :attr:`ChannelModel.mean_snr`, evaluated through the overflow-free
    scaled exponential integral. A channel with zero transmit power
    contributes zero (the continuous limit); negative average SNR is an
    error. Channels over a power or bandwidth sweep give the rate at every
    sweep point as an array.
    """
    total = 0.0
    for ch in channels:
        gam = np.asarray(ch.mean_snr)
        if np.any(gam < 0):
            raise ValueError("ergodic_sum_rate: negative average SNR")
        on = gam != 0.0
        scaled = np.where(on, exp_e1_scaled(1.0 / np.where(on, gam, 1.0)), 0.0)
        total = total + ch.bandwidth / LN2 * scaled
    return total if np.ndim(total) else float(total)


def rayleigh_power_samples(n, fading_scale=1.0, seed=None):
    """Draw ``n`` Rayleigh fading power samples |h|^2 ~ Exp(mean=scale)."""
    if not fading_scale > 0:
        raise ValueError("rayleigh_power_samples: fading_scale must be > 0")
    return np.random.default_rng(seed).exponential(fading_scale, int(n))


def monte_carlo_sum_rate(channels, n_samples, seed=None):
    """Monte Carlo estimate of the ergodic sum rate (bits/s).

    Independent fading per channel; one shared seed spawns per-channel
    substreams so the estimate is reproducible regardless of channel count.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for ch in channels:
        if ch.transmit_power == 0.0:
            continue
        h = rng.exponential(ch.fading_scale, int(n_samples))
        total += ch.bandwidth / LN2 * float(np.mean(np.log1p(snr(ch, h))))
    return total


# ----------------------------------------------------------------------
# Architecture comparison


def _masked_drive(omega_p, omega_c, rabi_set, active):
    rf = [rabi_set[n - 1] if n in active else 0.0 for n in range(1, 5)]
    return DriveConfig(omega_p=omega_p, omega_c=omega_c, rf_rabi=tuple(rf))


def _arch_channels(scheme, gains, active, p_t, bandwidth, env, beta):
    channels = []
    for n in active:
        omega_rf = scheme.transition(n).carrier_frequency * 1e6  # rad/us -> rad/s
        ch = ChannelModel(
            gain=gains[n],
            transmit_power=p_t,
            bandwidth=bandwidth,
            rf_frequency=omega_rf,
            fading_scale=beta,
        )
        channels.append(ch.with_noise(env))
    return channels


@dataclass(frozen=True)
class ArchitectureComparison:
    """Ergodic sum-rate sweeps for the three architectures.

    ``power_dbm``/``power_rates`` hold the transmit-power sweep at fixed
    bandwidth; ``bandwidth_hz``/``bandwidth_rates`` the bandwidth sweep at
    fixed power. Rates are bits/s keyed by :class:`Architecture`.
    """

    rabi_set: tuple
    gains: dict
    y_lo: dict
    power_dbm: np.ndarray
    power_rates: dict
    power_sweep_bandwidth_hz: float
    bandwidth_hz: np.ndarray
    bandwidth_rates: dict
    bandwidth_sweep_power_dbm: float

    def rate_at_power(self, architecture, p_dbm):
        """Sum rate of one architecture at a swept power point (dBm)."""
        idx = int(np.argmin(np.abs(self.power_dbm - p_dbm)))
        if abs(self.power_dbm[idx] - p_dbm) > 1e-9:
            raise ValueError(f"rate_at_power: {p_dbm} dBm not in the sweep")
        return float(self.power_rates[architecture][idx])

    def rate_at_bandwidth(self, architecture, b_hz):
        """Sum rate of one architecture at a swept bandwidth point (Hz)."""
        idx = int(np.argmin(np.abs(self.bandwidth_hz - b_hz)))
        if abs(self.bandwidth_hz[idx] - b_hz) > max(1e-6, 1e-9 * b_hz):
            raise ValueError(f"rate_at_bandwidth: {b_hz} Hz not in the sweep")
        return float(self.bandwidth_rates[architecture][idx])

    def write_csv(self, path):
        """Long-form CSV: architecture, p_t_dbm, bandwidth_hz, rate_bps.

        The power sweep runs at the fixed sweep bandwidth, the bandwidth
        sweep at the fixed sweep power; each row is fully self-describing.
        """
        order = (Architecture.HYBRID, Architecture.CRS, Architecture.PRS)
        sweeps = (
            (self.power_dbm, self.power_sweep_bandwidth_hz, self.power_rates),
            (self.bandwidth_sweep_power_dbm, self.bandwidth_hz, self.bandwidth_rates),
        )
        with open(path, "w", newline="") as fh:
            fh.write("architecture,p_t_dbm,bandwidth_hz,rate_bps\r\n")
            for p_dbm, b_hz, rates in sweeps:
                for arch in order:
                    table = np.column_stack(np.broadcast_arrays(p_dbm, b_hz, rates[arch]))
                    np.savetxt(fh, table, fmt=f"{arch.value},%.9g,%.9g,%.12g", newline="\r\n")


def compare_architectures(
    scheme,
    rabi_set,
    power_range_dbm,
    bandwidth_range_hz,
    *,
    omega_p,
    omega_c,
    cell=DEFAULT_CELL,
    temperature=300.0,
    beta=1.0,
    power_sweep_bandwidth_hz=100e3,
    bandwidth_sweep_power_dbm=-10.0,
):
    """Ergodic sum rates of hybrid vs cascade vs parallel architectures.

    Every architecture drives the subset of RF channels it supports with
    the amplitudes of ``rabi_set`` (unused channels off) at the same probe
    and coupling point. Gains and operating output come from the full
    steady-state model, because zeroed ladder links make the reduced
    closed form blind to the surviving channels.

    Parameters
    ----------
    power_range_dbm, bandwidth_range_hz : array_like
        Sweep grids; the power sweep runs at ``power_sweep_bandwidth_hz``
        and the bandwidth sweep at ``bandwidth_sweep_power_dbm``.
    """
    power_range_dbm = np.atleast_1d(np.asarray(power_range_dbm, dtype=float))
    bandwidth_range_hz = np.atleast_1d(np.asarray(bandwidth_range_hz, dtype=float))
    if np.any(bandwidth_range_hz <= 0):
        raise ValueError("compare_architectures: bandwidths must be > 0")

    power_w = dbm_to_watts(power_range_dbm)
    sweep_power_w = dbm_to_watts(bandwidth_sweep_power_dbm)
    gains = {}
    y_lo = {}
    power_rates = {}
    bandwidth_rates = {}
    for arch, active in ARCH_CHANNELS.items():
        lo = _masked_drive(omega_p, omega_c, rabi_set, active)
        gains[arch] = gain_coefficients(lo, cell, scheme, model="numerical")
        y_lo[arch] = photodetector_output(lo, cell, scheme, model="numerical")
        env = EnvironmentParams(
            y_lo=y_lo[arch],
            temperature=temperature,
            omega_probe=cell.probe_angular_frequency,
        )
        power_rates[arch] = ergodic_sum_rate(
            _arch_channels(scheme, gains[arch], active, power_w, power_sweep_bandwidth_hz, env, beta)
        )
        bandwidth_rates[arch] = ergodic_sum_rate(
            _arch_channels(scheme, gains[arch], active, sweep_power_w, bandwidth_range_hz, env, beta)
        )
    return ArchitectureComparison(
        rabi_set=tuple(float(v) for v in rabi_set),
        gains=gains,
        y_lo=y_lo,
        power_dbm=power_range_dbm,
        power_rates=power_rates,
        power_sweep_bandwidth_hz=float(power_sweep_bandwidth_hz),
        bandwidth_hz=bandwidth_range_hz,
        bandwidth_rates=bandwidth_rates,
        bandwidth_sweep_power_dbm=float(bandwidth_sweep_power_dbm),
    )
