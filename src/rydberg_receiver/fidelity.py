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

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .analytic import _closed_form
from .lindblad import (
    DEFAULT_DT,
    DensityMatrix,
    DriveConfig,
    _check_method,
    _first,
    _generator_basis,
    _numerical_states,
    _raise_first,
    _validate_states,
)
from .numerics import TWO_PI, _psd_roots, write_csv

#: Points per chunk of the state chain (validation, closed form, roots,
#: product and SVD), which holds a few ``(d, d)`` matrices per point. On
#: the 625-point maps the traced peak is about 1.6-1.8 MB, against
#: 0.7-1.2 MB for chunks of 16 and 3.4 MB for the whole map in one chunk.
_CHAIN = 256


def _fidelities(eig_n, eig_a):
    """Fidelities of two stacks of validated states, each given by its
    eigenpairs ``(w, v)`` from :func:`~rydberg_receiver.lindblad._validate_states`,
    as the squared nuclear norm ``(Tr |sqrt(rho_n) sqrt(rho_a)|)^2`` (Jozsa,
    J. Mod. Opt. 41, 2315 (1994)), which stays well conditioned where a
    state is rank deficient. Validation bounds every eigenvalue below by
    ``PSD_CLAMP``, and the roots clip what lies above it to zero."""
    singular = np.linalg.svd(_psd_roots(*eig_n) @ _psd_roots(*eig_a), compute_uv=False)
    return np.sum(singular, axis=-1) ** 2


def fidelity(rho_n, rho_a):
    """Uhlmann fidelity ``(Tr |sqrt(rho_n) sqrt(rho_a)|)^2``.

    Symmetric in its arguments and confined to [0, 1] up to 1e-9 of
    round-off. Inputs are validated through :class:`DensityMatrix`, so
    invariant-violating matrices raise, and validation's eigenpairs give the roots.
    """
    eig_n, eig_a = (
        (rho if isinstance(rho, DensityMatrix) else DensityMatrix(np.asarray(rho)))._eig
        for rho in (rho_n, rho_a)
    )
    return float(_fidelities(eig_n, eig_a)[0])


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


def _fidelity_points(base_drive, scheme, thetas, method, t_end, dt):
    """Fidelity of the numerical state against the closed form at each row
    of the ``(N, 4)`` RF amplitudes on ``base_drive``, NaN where a point
    fails, with the record of the first failure per point: trace loss, the
    kernel's, the numerical state's, the closed form's, its state's. An
    error no point could escape (a scheme that is not the six-level hybrid,
    a bad horizon) raises once.

    Chunks of :data:`_CHAIN` points run the stacked kernels that the
    per-point functions run on a block of one: the generator kernels in
    blocks of ``lindblad._BLOCK``, then closed form, validation and fidelity
    on the whole chunk, with one eigendecomposition per state. So every value
    equals ``fidelity(steady_state_numerical(...), analytic_steady_state(...))``.
    An unknown method raises first, then a negative or non-finite
    amplitude raises DriveConfig's error.
    """
    _check_method(method)
    thetas = np.asarray(thetas, dtype=float)
    for theta in thetas[~np.all(np.isfinite(thetas) & (thetas >= 0.0), axis=1)][:1]:
        base_drive.with_rf_rabi(theta)
    values, records = np.full(len(thetas), np.nan), []
    basis = _generator_basis(base_drive, scheme)
    for start in range(0, len(thetas), _CHAIN):
        chunk = thetas[start:start + _CHAIN]
        states_n, found = _numerical_states(basis, chunk, method, t_end, dt)
        states_a, degenerate = _closed_form(
            base_drive.omega_p, base_drive.omega_c, tuple(chunk.T), scheme.decay_rate(2, 1)
        )
        (_, w_n, v_n), invalid_n = _validate_states(states_n)
        (_, w_a, v_a), invalid_a = _validate_states(states_a)
        records.append(_first(found, invalid_n, degenerate, invalid_a))
        ok = np.flatnonzero(records[-1][0] == 0)
        values[start + ok] = _fidelities((w_n[ok], v_n[ok]), (w_a[ok], v_a[ok]))
    return values, tuple(np.concatenate(r) for r in zip(*records))


def _mean(values):
    """Left-to-right mean of a region's point values."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total / len(values)


@dataclass(frozen=True)
class FidelityScan:
    """2-D fidelity landscape over two RF amplitude axes.

    ``fidelities[i, j]`` corresponds to ``axis_values[0][i]`` on the first
    varying channel and ``axis_values[1][j]`` on the second; failed points
    are NaN. ``record`` is the ``(codes, numbers)`` failure record of the
    points in ``np.ndindex`` order (see ``lindblad._REASONS``), None on a
    scan built by hand.
    """

    axes: tuple
    axis_values: tuple
    fixed: DriveConfig
    fidelities: np.ndarray
    record: tuple = None

    def drive_at(self, i, j):
        rf = list(self.fixed.rf_rabi)
        rf[self.axes[0] - 1] = float(self.axis_values[0][i])
        rf[self.axes[1] - 1] = float(self.axis_values[1][j])
        return self.fixed.with_rf_rabi(rf)

    def _rf_grid(self):
        """The RF 4-vector of every grid point, ``(n0 * n1, 4)`` in
        ``np.ndindex`` order; row ``i * n1 + j`` is ``drive_at(i, j).rf_rabi``."""
        n0, n1 = self.fidelities.shape
        rf = np.tile(np.asarray(self.fixed.rf_rabi, dtype=float), (n0 * n1, 1))
        rf[:, self.axes[0] - 1] = np.repeat(self.axis_values[0], n1)
        rf[:, self.axes[1] - 1] = np.tile(self.axis_values[1], n0)
        return rf

    def min_point(self):
        """(i, j) of the smallest finite fidelity."""
        f = np.where(np.isnan(self.fidelities), np.inf, self.fidelities)
        i, j = np.unravel_index(int(np.argmin(f)), f.shape)
        return int(i), int(j)

    def write_csv(self, path):
        """Long-form export: one row per grid point with the full RF
        4-vector and the fidelity."""
        write_csv(path, "omega1,omega2,omega3,omega4,fidelity", ",".join(["%.12g"] * 5),
                  [[*self._rf_grid().T, self.fidelities.ravel()]])


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

    Raises
    ------
    ValueError
        If no point can run: the scheme is not the six-level hybrid, or
        ``t_end`` and ``dt`` are not a valid evolve horizon.
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

    scan = FidelityScan((a0, a1), values, fixed, np.full(tuple(map(len, values)), np.nan))
    found, record = _fidelity_points(fixed, scheme, scan._rf_grid(), steady_state_method, t_end, dt)
    return replace(scan, fidelities=found.reshape(scan.fidelities.shape), record=record)


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
    to a few 1e-7, so the modest default sampling (3 per axis) is plenty. A
    failed point raises the message it raises alone.
    """
    values, record = _fidelity_points(base_drive, scheme, region.grid(), steady_state_method,
                                      t_end, dt)
    _raise_first(*record)
    return _mean(values)


def _candidates(lo, hi, grid_step, sum_constraint):
    """The search lattice's 4-tuples under the sum cap, smallest sum first.

    The axis ascends from ``lo >= 0``, and adding a nonnegative float never
    lowers a float sum, so the first value whose partial sum passes the cap
    ends its loop: the work scales with the feasible set, not with n^4.
    """
    n = int(np.floor((hi - lo) / grid_step + 1e-9)) + 1
    axis = (lo + grid_step * np.arange(n)).tolist()

    def fitting(total):
        return itertools.takewhile(lambda v: total + v <= sum_constraint + 1e-12, axis)

    candidates = [
        (w, x, y, z)
        for w in fitting(0.0)
        for x in fitting(w)
        for y in fitting(w + x)
        for z in axis
        if w + x + y + z <= sum_constraint + 1e-12
    ]
    # Tie-break order: smallest total amplitude, then lexicographic.
    candidates.sort(key=lambda c: (sum(c), c))
    return candidates


@dataclass(frozen=True)
class OperatingPointResult:
    """Outcome of the constrained operating-point search.

    ``accepted`` lists every candidate whose objective is within the
    plateau tolerance of the best value, sorted best-first; ``failures``
    are candidates whose objective could not be evaluated because a point
    of their region failed, for any reason.
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
        If ``search_range`` starts below 0, ``grid_step`` is not positive,
        no candidate satisfies the constraint or every candidate fails, or
        with its own message if no point can run (as in
        :func:`fidelity_scan`).
    """
    lo, hi = search_range
    if not lo >= 0:
        raise ValueError(f"optimize_operating_point: search_range must start at >= 0, got {lo}")
    if not grid_step > 0:
        raise ValueError(f"optimize_operating_point: grid_step must be positive, got {grid_step}")
    if not sum_constraint > 0:
        raise ValueError("optimize_operating_point: sum_constraint must be positive")
    candidates = _candidates(lo, hi, grid_step, sum_constraint)
    if not candidates:
        raise ValueError("optimize_operating_point: empty feasible set")

    if region_template is None:
        region_template = PerturbationRegion(center=(0.0,) * 4, half_widths=(0.0,) * 4)

    # Shrink the template toward the axes so the region never leaves the
    # physical quadrant for near-zero candidates; a point that fails to
    # evaluate fails its candidate.
    grids = []
    for c in candidates:
        hw = tuple(min(h, v) for h, v in zip(region_template.half_widths, c))
        region = PerturbationRegion(
            center=c, half_widths=hw, samples_per_axis=region_template.samples_per_axis
        )
        grids.append(region.grid())
    # Every candidate's region points go through the batched chain as one list.
    values, (codes, numbers) = _fidelity_points(
        base_drive, scheme, np.concatenate(grids), steady_state_method, t_end, dt
    )
    results, start = [], 0
    for c, grid in zip(candidates, grids):  # a failed point is NaN, and so is its mean
        results.append((c, _mean(values[start:start + len(grid)])))
        start += len(grid)

    finite = [(c, v) for c, v in results if np.isfinite(v)]
    if not finite:
        _raise_first(codes, numbers, "optimize_operating_point: every candidate failed to "
                     "evaluate; first failed point: ")
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
