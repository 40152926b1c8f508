"""
Closed form vs full Lindblad dynamics at the operating point
============================================================

Drives the six-level receiver at its documented local-oscillator point,
evolves the density matrix from the ground state, and checks the result
against the reduced-model closed form two ways: a fixed 10 us snapshot
(what a fixed-horizon measurement sees) and the converged steady state
(the Liouvillian null space). The gap between the two is the point of
the demo: 10 us is only ~1.4 relaxation time constants here.
"""

import argparse
from pathlib import Path

import numpy as np

import rydberg_receiver as rr
from rydberg_receiver.analytic import analytic_steady_state

TWO_PI = 2.0 * np.pi


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", type=Path, default=Path("demo_out"),
                        help="directory for the trajectory CSV")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    scheme = rr.cesium_scheme()
    drive = rr.DriveConfig(
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
        rf_rabi=(TWO_PI * 2.0, TWO_PI * 7.0, TWO_PI * 1.0, TWO_PI * 6.0),
    )
    analytic = analytic_steady_state(drive, scheme)

    # how slow is the slowest decaying mode at this drive?
    generator = rr.make_generator(drive, scheme)
    zero_abs, slowest = generator.spectral_report()
    print(f"Liouvillian zero mode |eig| = {zero_abs:.2e}, spectral gap = {-slowest:.4f} rad/us")
    print(f"  -> 10 us covers {-slowest * 10:.2f} relaxation time constants")

    trajectory = rr.evolve(rr.ground_state(), generator, t_end=40.0, dt=1e-4, max_snapshots=401)
    for t_probe in (10.0, 20.0, 40.0):
        k = int(np.argmin(np.abs(trajectory.times - t_probe)))
        f = rr.fidelity(trajectory.state(k), analytic)
        print(f"fidelity(analytic, evolved @ {t_probe:4.0f} us) = {f:.7f}")

    converged = rr.steady_state_numerical(drive, scheme, method="null_space")
    print(f"fidelity(analytic, null-space steady state) = {rr.fidelity(converged, analytic):.7f}")

    pops_num = converged.matrix.diagonal().real
    pops_ana = analytic.matrix.diagonal().real
    print("\nlevel populations (converged numerical vs closed form):")
    for k in range(6):
        print(f"  rho_{k + 1}{k + 1}: {pops_num[k]:.6f}  vs  {pops_ana[k]:.6f}")
    print(f"max population gap: {np.max(np.abs(pops_num - pops_ana)):.2e} "
          f"(the full decay set shifts the true steady state at this level)")

    path = args.out / "operating_point_trajectory.csv"
    trajectory.write_csv(path)
    print(f"\nwrote {len(trajectory)} snapshots to {path}")


if __name__ == "__main__":
    main()
