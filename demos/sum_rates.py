"""
Ergodic sum rates: hybrid vs cascade vs parallel coupling
=========================================================

Runs the full receiver chain for each RF coupling architecture (which
channels exist is set by the level-scheme topology), converts per-channel
gains and noise into fading-averaged rates, and sweeps transmit power and
bandwidth. The hybrid architecture owns every channel, so it wins
pointwise; the interesting output is by how much, and why the margin over
the parallel-only receiver is so large (the parallel point leaves the
vapor nearly opaque, crushing its gains). It ends with each
architecture's channel count at K = 6 and a seeded Monte Carlo fading
average against one closed-form rate.
"""

import argparse
from pathlib import Path

import numpy as np

import rydberg_receiver as rr
from rydberg_receiver.scheme import Architecture

TWO_PI = 2.0 * np.pi


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--set", choices=("set1", "set2"), default="set2",
                        help="named LO amplitude preset")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    scheme = rr.cesium_scheme()
    rabi_set = rr.RABI_SET1 if args.set == "set1" else rr.RABI_SET2
    comparison = rr.compare_architectures(
        scheme,
        rabi_set,
        power_range_dbm=np.arange(-30.0, 10.0 + 1e-9, 5.0),
        bandwidth_range_hz=np.logspace(4.0, 6.0, 9),
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
    )

    order = (Architecture.HYBRID, Architecture.CRS, Architecture.PRS)
    print(f"LO preset {args.set}: 2pi x {tuple(v / TWO_PI for v in rabi_set)} MHz")
    print("\nper-architecture gains (A per V/m), channels 1..4:")
    for arch in order:
        gains = [f"{comparison.gains[arch][n]:+.2e}" for n in range(1, 5)]
        print(f"  {arch.value:>6}: {'  '.join(gains)}")

    print(f"\npower sweep at B = {comparison.power_sweep_bandwidth_hz / 1e3:.0f} kHz (rates in Mbit/s):")
    print("  P_T(dBm)   hybrid   cascade  parallel")
    for k, p in enumerate(comparison.power_dbm):
        row = [comparison.power_rates[a][k] / 1e6 for a in order]
        print(f"   {p:7.1f}   {row[0]:7.3f}  {row[1]:7.3f}  {row[2]:7.3f}")

    print(f"\nbandwidth sweep at P_T = {comparison.bandwidth_sweep_power_dbm:.0f} dBm:")
    print("  B(kHz)     hybrid   cascade  parallel")
    for k, b in enumerate(comparison.bandwidth_hz):
        row = [comparison.bandwidth_rates[a][k] / 1e6 for a in order]
        print(f"   {b / 1e3:7.1f}   {row[0]:7.3f}  {row[1]:7.3f}  {row[2]:7.3f}")

    h = comparison.rate_at_power(Architecture.HYBRID, -10.0)
    print(f"\nat -10 dBm, 100 kHz: hybrid/cascade = "
          f"{h / comparison.rate_at_power(Architecture.CRS, -10.0):.3f}, "
          f"hybrid/parallel = {h / comparison.rate_at_power(Architecture.PRS, -10.0):.3f}")

    print("\nRF channels at K = 6: " + ", ".join(
        f"{arch.value} {rr.channel_count(arch, 6)}" for arch in order))

    # the hybrid's channels at -10 dBm as compare_architectures builds them, fading sampled
    hybrid = Architecture.HYBRID
    env = rr.EnvironmentParams(y_lo=comparison.y_lo[hybrid])
    channels = [
        rr.ChannelModel(gain=comparison.gains[hybrid][n], transmit_power=rr.dbm_to_watts(-10.0),
                        bandwidth=comparison.power_sweep_bandwidth_hz,
                        rf_frequency=scheme.transition(n).carrier_frequency * 1e6).with_noise(env)
        for n in rr.ARCH_CHANNELS[hybrid]
    ]
    sampled = rr.monte_carlo_sum_rate(channels, 200_000, seed=1)
    print(f"Monte Carlo cross-check (200,000 fading draws per channel): hybrid at -10 dBm "
          f"{sampled / 1e6:.4f} Mbit/s against the closed form's {h / 1e6:.4f} Mbit/s")

    path = args.out / "sum_rates.csv"
    comparison.write_csv(path)
    print(f"wrote both sweeps to {path}")


if __name__ == "__main__":
    main()
