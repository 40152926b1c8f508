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

import numpy as np

from .analytic import _closed_form
from .config import Field, _position, check_args, record
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
from .numerics import TWO_PI, _lattice, _psd_roots, write_csv

#: Points per chunk of the state chain (validation, closed form, roots,
#: product and SVD), which holds a few ``(d, d)`` matrices per point. On
#: the 625-point maps the traced peak is about 1.6-1.8 MB, against
#: 0.7-1.2 MB for chunks of 16 and 3.4 MB for the whole map in one chunk.
_CHAIN = 256

#: Rules of :func:`fidelity_scan`'s sweep: two ``(lo, hi)`` ranges, one or two counts.
_SCAN_RULES = {"ranges": Field(counts=(2,)),
               "resolution": Field("int_list", sign=">", counts=(1, 2))}

#: Rules of :func:`optimize_operating_point`'s arguments; ``search_lo`` starts ``search_range``.
_OPTIMIZE_RULES = {
    "search_range": Field(counts=(2,)), "search_lo": Field("angular_frequency", sign=">="),
    **dict.fromkeys(("grid_step", "sum_constraint"), Field("angular_frequency", sign=">")),
    "plateau_tolerance": Field(sign=">="),
}


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


@record
class PerturbationRegion:
    """Axis-aligned box of LO drift around a center point in RF space.

    ``samples_per_axis`` grid points are placed per axis (a single point
    when the half width is zero); the region must stay inside the physical
    quadrant ``Omega_n >= 0``.
    """

    RULES = {"center": Field("angular_frequency_list", counts=(4,)),
             "half_widths": Field("angular_frequency_list", sign=">=", counts=(4,)),
             "samples_per_axis": Field("int", 3, sign=">")}

    def __post_init__(self):
        if any(c - h < 0 for c, h in zip(self.center, self.half_widths)):
            raise ValueError("PerturbationRegion: region leaves the quadrant Omega >= 0")

    def grid(self):
        """All sample points as an (n, 4) array, the tensor product of the
        axes' samples (a degenerate axis collapses to the center)."""
        n = self.samples_per_axis
        axes = [np.linspace(c - h, c + h, n) if h and n > 1 else [c]
                for c, h in zip(self.center, self.half_widths)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)


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


@record(eq=False)
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
        """The drive of grid point ``(i, j)``."""
        values = ([self.axis_values[0][i]], [self.axis_values[1][j]])
        return self.fixed.with_rf_rabi(_rf_grid(self.fixed, self.axes, values)[0])

    def min_point(self):
        """(i, j) of the smallest finite fidelity."""
        f = np.where(np.isnan(self.fidelities), np.inf, self.fidelities)
        i, j = np.unravel_index(int(np.argmin(f)), f.shape)
        return int(i), int(j)

    def write_csv(self, path):
        """Long-form export: one row per grid point with the full RF
        4-vector and the fidelity."""
        write_csv(path, "omega1,omega2,omega3,omega4,fidelity", ",".join(["%.12g"] * 5),
                  [[*_rf_grid(self.fixed, self.axes, self.axis_values).T,
                    self.fidelities.ravel()]])


def _rf_grid(fixed, axes, axis_values):
    """The RF 4-vector of every point of the grid ``axis_values`` on the RF
    channels ``axes`` of ``fixed``, ``(n0 * n1, 4)`` in ``np.ndindex`` order."""
    n0, n1 = map(len, axis_values)
    rf = np.tile(np.asarray(fixed.rf_rabi, dtype=float), (n0 * n1, 1))
    rf[:, axes[0] - 1] = np.repeat(axis_values[0], n1)
    rf[:, axes[1] - 1] = np.tile(axis_values[1], n0)
    return rf


def fidelity_scan(
    fixed,
    axes,
    scheme,
    ranges=((0.0, TWO_PI * 10.0), (0.0, TWO_PI * 10.0)),
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
    resolution : int, or one or two ints
        Grid points per axis (>= 2, or 1 for a degenerate single-point
        scan); one count serves both axes.
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
        If no point can run: ``ranges`` or ``resolution`` breaks its rule in
        ``_SCAN_RULES``, the scheme is not the six-level hybrid, or ``t_end``
        and ``dt`` are not a valid evolve horizon.
    """
    a0, a1 = axes
    if _position("fidelity_scan.axes", a0, 4) == _position("fidelity_scan.axes", a1, 4):
        raise ValueError(f"fidelity_scan: axes must be two distinct RF channels, got {axes}")
    res = (resolution,) if np.isscalar(resolution) else tuple(resolution)
    check_args("fidelity_scan", _SCAN_RULES,
               ranges=np.asarray(ranges, dtype=float), resolution=res)
    res = res * 2 if len(res) == 1 else res  # one count serves both axes
    values = tuple(
        np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2.0])
        for (lo, hi), n in zip(ranges, res)
    )
    found, record = _fidelity_points(fixed, scheme, _rf_grid(fixed, axes, values),
                                     steady_state_method, t_end, dt)
    return FidelityScan((a0, a1), values, fixed, found.reshape(tuple(map(len, values))), record)


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

    Every coordinate is at least ``lo >= 0``, so none exceeds the cap: the
    axis ends there, however far above it ``hi`` lies.
    """
    cap = sum_constraint + 1e-12
    axis = _lattice(lo, min(hi, cap), grid_step, "optimize_operating_point.grid_step").tolist()
    fitting = (c for c in itertools.product(axis, repeat=4) if c[0] + c[1] + c[2] + c[3] <= cap)
    return sorted(fitting, key=lambda c: (sum(c), c))  # smallest total, then lexicographic


@record
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
    half_widths=(0.0,) * 4,
    samples_per_axis=3,
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
    :func:`average_fidelity` call over the drift box around it: the
    :class:`PerturbationRegion` of ``half_widths``, each shrunk to the
    candidate's own amplitude so the box stays in the quadrant ``Omega >=
    0``, with ``samples_per_axis`` points per axis; zero half widths (the
    default) score the candidate alone. Exact objective ties are broken by
    the smallest amplitude sum, then lexicographically.

    Returns
    -------
    OperatingPointResult
        Includes the accepted plateau set: every candidate within
        ``plateau_tolerance`` of the winning objective.

    Raises
    ------
    ValueError
        If an argument breaks its rule in ``_OPTIMIZE_RULES``, no candidate
        satisfies the constraint
        or every candidate fails, the drift box is no valid
        :class:`PerturbationRegion`, or with its own message if no point can
        run (as in :func:`fidelity_scan`).
    """
    check_args("optimize_operating_point", _OPTIMIZE_RULES, search_range=search_range)
    lo, hi = search_range
    check_args("optimize_operating_point", _OPTIMIZE_RULES, search_lo=lo, grid_step=grid_step,
               sum_constraint=sum_constraint, plateau_tolerance=plateau_tolerance)
    candidates = _candidates(lo, hi, grid_step, sum_constraint)
    if not candidates:
        raise ValueError("optimize_operating_point: empty feasible set")

    # each candidate's drift box, shrunk into the quadrant; a point that fails fails its candidate
    boxes = ([min(h, v) for h, v in zip(half_widths, c, strict=True)] for c in candidates)
    grids = [PerturbationRegion(c, hw, samples_per_axis).grid() for c, hw in zip(candidates, boxes)]
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
