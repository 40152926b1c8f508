"""Quantum-state fidelity, landscape scans, and LO operating-point search.

The closed-form steady state is exact only away from two breakdown regimes
(balanced loops, zeta ~ 0, and vanishing intermediate drives); this module
quantifies the agreement with the full numerical model via Uhlmann fidelity,
maps it over 2-D slices of the RF amplitude space, and picks a
local-oscillator operating point by constrained grid search.

Scans default to the fixed-horizon protocol (evolve the ground state to
10 us) because that is what a fixed-measurement-time experiment sees and it
keeps the balanced-loop degeneracy out of the stationary solver; the
converged alternative (Liouvillian null space) is available everywhere via
``steady_state_method="null_space"`` and is the default for region averages
and the optimizer, where the transient would otherwise dominate the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticContext, analytic_steady_state
from .lindblad import (
    DEFAULT_DT,
    STEADY_STATE_METHODS,
    DensityMatrix,
    DriveConfig,
    steady_state_numerical,
)
from .numerics import TWO_PI, psd_sqrt

__all__ = [
    "fidelity",
    "PerturbationRegion",
    "FidelityScan",
    "fidelity_scan",
    "average_fidelity",
    "OperatingPointResult",
    "optimize_operating_point",
    "TWO_PI",
]


def fidelity(rho_n, rho_a):
    """Uhlmann fidelity ``[Tr sqrt(sqrt(rho_a) rho_n sqrt(rho_a))]^2``.

    Symmetric in its arguments and confined to [0, 1] up to 1e-9 of
    round-off. Inputs are validated through :class:`DensityMatrix`, so
    invariant-violating matrices raise before any algebra runs.
    """
    if not isinstance(rho_n, DensityMatrix):
        rho_n = DensityMatrix(np.asarray(rho_n))
    if not isinstance(rho_a, DensityMatrix):
        rho_a = DensityMatrix(np.asarray(rho_a))
    sra = psd_sqrt(rho_a.matrix)
    inner = sra @ rho_n.matrix @ sra
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


@dataclass(frozen=True)
class PerturbationRegion:
    """Axis-aligned box of LO drift around a center point in RF space.

    ``samples_per_axis`` grid points are placed per axis (a single point
    when the half width is zero); the region must stay inside the physical
    quadrant ``Omega_n >= 0``.
    """

    center: tuple
    half_widths: tuple
    samples_per_axis: int = 3

    def __post_init__(self):
        center = tuple(float(v) for v in self.center)
        hw = tuple(float(v) for v in self.half_widths)
        if len(center) != 4 or len(hw) != 4:
            raise ValueError("PerturbationRegion: center and half_widths must have 4 entries")
        if any(h < 0 for h in hw):
            raise ValueError("PerturbationRegion: half_widths must be >= 0")
        if any(c - h < 0 for c, h in zip(center, hw)):
            raise ValueError("PerturbationRegion: region leaves the quadrant Omega >= 0")
        if self.samples_per_axis < 1:
            raise ValueError("PerturbationRegion: samples_per_axis must be >= 1")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_widths", hw)

    def axis_samples(self):
        """Per-axis sample values (degenerate axes collapse to the center)."""
        out = []
        for c, h in zip(self.center, self.half_widths):
            if h == 0.0 or self.samples_per_axis == 1:
                out.append(np.array([c]))
            else:
                out.append(np.linspace(c - h, c + h, self.samples_per_axis))
        return out

    def grid(self):
        """All sample points as an (n, 4) array (tensor product of axes)."""
        axes = self.axis_samples()
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _point_fidelity(drive, scheme, method, t_end, dt):
    gamma_21 = scheme.decay_rate(2, 1)
    numerical = steady_state_numerical(drive, scheme, method=method, t_end=t_end, dt=dt)
    analytic = analytic_steady_state(AnalyticContext.from_drive(drive, gamma_21))
    return fidelity(numerical, analytic)


@dataclass(frozen=True)
class FidelityScan:
    """2-D fidelity landscape over two RF amplitude axes.

    ``fidelities[i, j]`` corresponds to ``axis_values[0][i]`` on the first
    varying channel and ``axis_values[1][j]`` on the second; failed points
    are NaN.
    """

    axes: tuple
    axis_values: tuple
    fixed: DriveConfig
    fidelities: np.ndarray

    def drive_at(self, i, j):
        rf = list(self.fixed.rf_rabi)
        rf[self.axes[0] - 1] = float(self.axis_values[0][i])
        rf[self.axes[1] - 1] = float(self.axis_values[1][j])
        return self.fixed.with_rf_rabi(rf)

    def min_point(self):
        """(i, j) of the smallest finite fidelity."""
        f = np.where(np.isnan(self.fidelities), np.inf, self.fidelities)
        i, j = np.unravel_index(int(np.argmin(f)), f.shape)
        return int(i), int(j)

    def write_csv(self, path):
        """Long-form export: one row per grid point with the full RF
        4-vector and the fidelity."""
        rf = [self.drive_at(i, j).rf_rabi for i, j in np.ndindex(self.fidelities.shape)]
        with open(path, "w", newline="") as fh:
            np.savetxt(
                fh,
                np.column_stack([rf, self.fidelities.ravel()]),
                fmt="%.12g",
                delimiter=",",
                newline="\r\n",
                header="omega1,omega2,omega3,omega4,fidelity",
                comments="",
            )


def fidelity_scan(
    fixed,
    axes,
    scheme,
    ranges=None,
    resolution=21,
    steady_state_method="evolve",
    t_end=10.0,
    dt=DEFAULT_DT,
):
    """Fidelity landscape over two varying RF channels.

    Parameters
    ----------
    fixed : DriveConfig
        Drive carrying the non-varying amplitudes (resonant).
    axes : (int, int)
        The two RF channel numbers (1..4) swept by the scan.
    scheme : LevelScheme
        Supplies the full decay set and gamma_21 for the analytic oracle.
    ranges : pair of (lo, hi), optional
        Per-axis sweep ranges in rad/us; defaults to [0, 2 pi * 10].
    resolution : int or (int, int)
        Grid points per axis (>= 2, or 1 for a degenerate single-point
        scan); a count below 1 raises ``ValueError``.
    steady_state_method : {"evolve", "null_space"}
        Numerical-state protocol per grid point; an unknown name raises
        ``ValueError`` before any point is evaluated.

    Returns
    -------
    FidelityScan
        Per-point solver failures are recorded as NaN, never raised.
    """
    a0, a1 = axes
    if not (1 <= a0 <= 4 and 1 <= a1 <= 4 and a0 != a1):
        raise ValueError(f"fidelity_scan: axes must be two distinct RF channels in 1..4, got {axes}")
    if ranges is None:
        ranges = ((0.0, TWO_PI * 10.0), (0.0, TWO_PI * 10.0))
    res = (resolution, resolution) if np.isscalar(resolution) else tuple(resolution)
    if len(res) != 2 or min(res) < 1:
        raise ValueError(
            f"fidelity_scan: resolution must be one or two counts >= 1, got {resolution}"
        )
    values = tuple(
        np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2.0])
        for (lo, hi), n in zip(ranges, res)
    )
    if steady_state_method not in STEADY_STATE_METHODS:
        raise ValueError(f"unknown steady-state method {steady_state_method!r}")

    scan = FidelityScan(
        axes=(a0, a1),
        axis_values=values,
        fixed=fixed,
        fidelities=np.full((len(values[0]), len(values[1])), np.nan),
    )
    for i, j in np.ndindex(scan.fidelities.shape):
        drive = scan.drive_at(i, j)  # a negative amplitude raises here
        try:
            scan.fidelities[i, j] = _point_fidelity(drive, scheme, steady_state_method, t_end, dt)
        except (ValueError, np.linalg.LinAlgError):
            pass  # the point stays NaN
    return scan


def average_fidelity(
    region,
    base_drive,
    scheme,
    steady_state_method="null_space",
    t_end=10.0,
    dt=DEFAULT_DT,
):
    """Mean fidelity over a deterministic tensor grid on a perturbation region.

    The default protocol compares converged (null-space) numerical states
    against the closed form; on the operating plateau the integrand is flat
    to a few 1e-7, so the modest default sampling (3 per axis) is plenty.
    """
    total = 0.0
    points = region.grid()
    for point in points:
        drive = base_drive.with_rf_rabi(point)
        total += _point_fidelity(drive, scheme, steady_state_method, t_end, dt)
    return total / len(points)


@dataclass(frozen=True)
class OperatingPointResult:
    """Outcome of the constrained operating-point search.

    ``accepted`` lists every candidate whose objective is within the
    plateau tolerance of the best value, sorted best-first; ``failures``
    are candidates whose objective could not be evaluated (degenerate
    analytic regime).
    """

    point: tuple
    average_fidelity: float
    accepted: tuple
    evaluated: int
    failures: tuple = ()


def optimize_operating_point(
    search_range,
    sum_constraint,
    region_template=None,
    *,
    base_drive,
    scheme,
    grid_step=TWO_PI * 1.0,
    steady_state_method="null_space",
    t_end=10.0,
    dt=DEFAULT_DT,
    plateau_tolerance=1e-5,
):
    """Exhaustive grid search for the best LO point under a total-drive cap.

    Candidates are the tensor grid ``search_range`` with spacing
    ``grid_step`` on each RF axis, pruned by ``sum(Omega) <=
    sum_constraint``. Each candidate's objective is one
    :func:`average_fidelity` call over the ``region_template``
    (:class:`PerturbationRegion`, its center ignored) moved onto the
    candidate, or over the candidate alone when no template is given. Exact
    objective ties are broken by the smallest amplitude sum, then
    lexicographically.

    Returns
    -------
    OperatingPointResult
        Includes the accepted plateau set: every candidate within
        ``plateau_tolerance`` of the winning objective.

    Raises
    ------
    ValueError
        If no candidate satisfies the constraint or every candidate fails.
    """
    lo, hi = search_range
    if not sum_constraint > 0:
        raise ValueError("optimize_operating_point: sum_constraint must be positive")
    n = int(np.floor((hi - lo) / grid_step + 1e-9)) + 1
    axis = lo + grid_step * np.arange(n)
    candidates = [
        (float(w), float(x), float(y), float(z))
        for w in axis
        for x in axis
        for y in axis
        for z in axis
        if w + x + y + z <= sum_constraint + 1e-12
    ]
    if not candidates:
        raise ValueError("optimize_operating_point: empty feasible set")
    # Tie-break order: smallest total amplitude, then lexicographic.
    candidates.sort(key=lambda c: (sum(c), c))

    if steady_state_method not in STEADY_STATE_METHODS:
        raise ValueError(f"unknown steady-state method {steady_state_method!r}")
    if region_template is None:
        region_template = PerturbationRegion(center=(0.0,) * 4, half_widths=(0.0,) * 4)

    results = []
    for c in candidates:
        # Shrink the template toward the axes so the region never leaves the
        # physical quadrant for near-zero candidates. A negative candidate
        # amplitude is rejected here and raises rather than counting as a
        # failure; a point that fails to evaluate fails its candidate.
        hw = tuple(min(h, v) for h, v in zip(region_template.half_widths, c))
        region = PerturbationRegion(
            center=c, half_widths=hw, samples_per_axis=region_template.samples_per_axis
        )
        try:
            value = average_fidelity(region, base_drive, scheme, steady_state_method, t_end, dt)
        except (ValueError, np.linalg.LinAlgError):
            value = float("nan")
        results.append((c, value))

    finite = [(c, v) for c, v in results if np.isfinite(v)]
    if not finite:
        raise ValueError("optimize_operating_point: every candidate failed to evaluate")
    # max keeps the first of equal values, so ties go by the candidate order
    best, best_val = max(finite, key=lambda cv: cv[1])
    accepted = sorted(
        (cv for cv in finite if cv[1] >= best_val - plateau_tolerance),
        key=lambda cv: (-cv[1], sum(cv[0]), cv[0]),
    )
    return OperatingPointResult(
        point=best,
        average_fidelity=best_val,
        accepted=tuple(accepted),
        evaluated=len(results),
        failures=tuple(c for c, v in results if not np.isfinite(v)),
    )
