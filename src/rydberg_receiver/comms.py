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

import numpy as np

from .config import Field, c_light, check_args, dbm_to_watts, epsilon_0, hbar, k_B, record, replace
from .lindblad import DriveConfig
from .numerics import TWO_PI, exp_e1_scaled, write_csv
from .receiver import DEFAULT_CELL, _operating_point
from .scheme import Architecture

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

#: Rules of :func:`blackbody_psd`'s arguments; every noise temperature keeps the second.
_BLACKBODY_RULES = {"omega": Field(sign=">"),
                    "temperature": Field("temperature", 300.0, sign=">")}


def blackbody_psd(omega, temperature):
    """One-sided blackbody field spectral density at ``omega`` (rad/s), T (K).

    ``(4 hbar omega^3 / eps0 c^3) (e^x + 1)/(e^x - 1)`` with
    ``x = hbar omega / k_B T``; the occupation factor is evaluated as
    ``coth(x/2)``, which is the same function without overflow at large x.
    """
    omega = np.asarray(omega, dtype=float)
    check_args("blackbody_psd", _BLACKBODY_RULES, omega=omega, temperature=temperature)
    with np.errstate(divide="ignore", over="ignore"):  # x = inf where k_B T underflows: T -> 0
        x = hbar * omega / (k_B * temperature)
    factor = 1.0 / np.tanh(x / 2.0)
    out = 4.0 * hbar * omega**3 / (epsilon_0 * c_light**3) * factor
    return out if out.ndim else float(out)


@record
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

    RULES = {"y_lo": Field(sign=">"), "temperature": _BLACKBODY_RULES["temperature"],
             "omega_probe": Field("float", DEFAULT_CELL.probe_angular_frequency, sign=">")}


@record
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

    RULES = {"gain": Field(), "transmit_power": Field(sign=">="),
             **dict.fromkeys(("bandwidth", "rf_frequency"), Field(sign=">")),
             "fading_scale": Field("float", 1.0, sign=">"),
             **dict.fromkeys(("sigma_i_sq", "sigma_e_sq"), Field("float", 0.0, sign=">="))}

    @property
    def sigma_sq(self):
        """Total noise variance, intrinsic plus extrinsic."""
        return self.sigma_i_sq + self.sigma_e_sq

    def with_noise(self, env):
        """Copy of the channel with both noise terms filled from ``env``;
        ValueError if their sum underflows to 0."""
        s_i, s_e = noise_variances(self, env)
        if not np.all(s_i + s_e > 0):
            raise ValueError("ChannelModel.with_noise: the noise variance underflows to 0")
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
    try:
        gain_sq = channel.gain**2
    except OverflowError:
        raise ValueError(f"noise_variances: gain {channel.gain} squared overflows") from None
    s_e = gain_sq * channel.bandwidth * blackbody_psd(channel.rf_frequency, env.temperature)
    return s_i, s_e


#: Rule of :func:`snr`'s fading power sample ``|h|^2``.
_SNR_RULES = {"fading_power": Field(sign=">=")}


def snr(channel, fading_power):
    """Instantaneous SNR at fading power sample ``|h|^2``."""
    fading_power = np.asarray(fading_power, dtype=float)
    check_args("snr", _SNR_RULES, fading_power=fading_power)
    if not np.all(channel.sigma_sq > 0):
        raise ValueError("snr: zero noise variance (call with_noise first)")
    out = channel.gain**2 * channel.transmit_power * fading_power / channel.sigma_sq
    return out if out.ndim else float(out)


def ergodic_sum_rate(channels):
    """Fading-averaged sum rate (bits/s) under Rayleigh power fading.

    Per channel ``(B/ln 2) e^{1/SNR} E1(1/SNR)`` with the average SNR from
    :attr:`ChannelModel.mean_snr`, evaluated through the overflow-free
    scaled exponential integral. A channel with zero transmit power
    contributes zero (the continuous limit). Channels over a power or
    bandwidth sweep give the rate at every sweep point as an array, from
    one E1 evaluation over all channels. A mean SNR so small that its
    inverse overflows gives the limit 0.
    """
    return _sum_rates([list(channels)])[0]


def _sum_rates(channel_sets):
    """:func:`ergodic_sum_rate` of each list of channels, from one E1
    evaluation over the channels of every list."""
    gams = [np.array(np.broadcast_arrays(*(ch.mean_snr for ch in chs))) for chs in channel_sets]
    gam = np.concatenate([g.ravel() for g in gams])
    on = gam != 0.0
    with np.errstate(over="ignore"):
        inverse = 1.0 / np.where(on, gam, 1.0)
    # split at the end of each list's SNRs (zip drops the empty last piece)
    scaled = np.split(np.where(on, exp_e1_scaled(inverse), 0.0), np.cumsum([g.size for g in gams]))
    rates = []
    for chs, g, s in zip(channel_sets, gams, scaled):
        total = sum((ch.bandwidth / LN2 * row for ch, row in zip(chs, s.reshape(g.shape))), 0.0)
        rates.append(total if np.ndim(total) else float(total))
    return rates


def monte_carlo_sum_rate(channels, n_samples, seed=None):
    """Monte Carlo estimate of the ergodic sum rate (bits/s).

    Independent fading per channel, every channel drawn from one generator
    seeded with ``seed``, in channel order; a channel with zero transmit power
    draws nothing, so each powered channel's draws depend on those before it.
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
    return [
        ChannelModel(
            gain=gains[n], transmit_power=p_t, bandwidth=bandwidth, fading_scale=beta,
            rf_frequency=scheme.transition(n).carrier_frequency * 1e6,  # rad/us -> rad/s
        ).with_noise(env)
        for n in active
    ]


@record(eq=False)
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
        if not abs(self.power_dbm[idx] - p_dbm) <= 1e-9:
            raise ValueError(f"rate_at_power: {p_dbm} dBm not in the sweep")
        return float(self.power_rates[architecture][idx])

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
        blocks = [
            (arch.value, p_dbm, b_hz, rates[arch]) for p_dbm, b_hz, rates in sweeps for arch in order
        ]
        write_csv(path, "architecture,p_t_dbm,bandwidth_hz,rate_bps", "%s,%.9g,%.9g,%.12g", blocks)


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
    and coupling point. Gains and operating output come from one solve of
    the full steady-state model per architecture, because zeroed ladder
    links make the reduced closed form blind to the surviving channels.

    Parameters
    ----------
    power_range_dbm, bandwidth_range_hz : array_like
        Sweep grids; the power sweep runs at ``power_sweep_bandwidth_hz``
        and the bandwidth sweep at ``bandwidth_sweep_power_dbm``.
    """
    power_range_dbm = np.atleast_1d(np.asarray(power_range_dbm, dtype=float))
    bandwidth_range_hz = np.atleast_1d(np.asarray(bandwidth_range_hz, dtype=float))
    check_args("compare_architectures", {"bandwidths": ChannelModel.RULES["bandwidth"]},
               bandwidths=bandwidth_range_hz)

    power_w = dbm_to_watts(power_range_dbm)
    sweep_power_w = dbm_to_watts(bandwidth_sweep_power_dbm)
    gains = {}
    y_lo = {}
    sweeps = ((power_w, power_sweep_bandwidth_hz), (sweep_power_w, bandwidth_range_hz))
    channel_sets = []  # per architecture, its power sweep then its bandwidth sweep
    for arch, active in ARCH_CHANNELS.items():
        lo = _masked_drive(omega_p, omega_c, rabi_set, active)
        y_lo[arch], gains[arch] = _operating_point(lo, cell, scheme, "numerical")
        env = EnvironmentParams(
            y_lo=y_lo[arch],
            temperature=temperature,
            omega_probe=cell.probe_angular_frequency,
        )
        channel_sets += [
            _arch_channels(scheme, gains[arch], active, *sweep, env, beta) for sweep in sweeps
        ]
    rates = _sum_rates(channel_sets)
    power_rates = dict(zip(ARCH_CHANNELS, rates[::2]))
    bandwidth_rates = dict(zip(ARCH_CHANNELS, rates[1::2]))
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
