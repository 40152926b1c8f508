"""Rotating-frame Hamiltonians, Liouvillian assembly, evolution, steady state.

The six-level receiver evolves under a Lindblad master equation. In the
rotating frame the Hamiltonian is time independent whenever the closed-loop
RF detuning ``delta = Delta_4 - (Delta_1 + Delta_2 + Delta_3)`` vanishes;
otherwise the loop branch (levels 3 and 6) carries an explicit
``exp(-i delta t)`` phase and no stationary frame exists.

Vectorization is column-major throughout (see :mod:`rydberg_receiver.numerics`):
``vec(rho)[i + 6 j] = rho[i, j]`` zero-based. Under that stacking the
generator acting on ``vec(rho)`` is::

    L = -i (I (x) H - H^T (x) I)
        + sum_(l->k)  gamma * ( conj(J) (x) J - 1/2 (I (x) J^H J + (J^H J)^T (x) I) )

with jump operators ``J = |k><l|`` for each decay channel ``l -> k``.

All angular frequencies are rad/us and times are us, so generator entries
stay O(1e-3 .. 1e2) and ``t = 10`` is a round number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import HERMITICITY_TOL, NULL_SPACE_TOL, null_space, write_csv
from .scheme import require_hybrid_six

__all__ = [
    "DriveConfig",
    "DensityMatrix",
    "Liouvillian",
    "TimeDependentLiouvillian",
    "Trajectory",
    "build_hamiltonian",
    "make_generator",
    "evolve",
    "steady_state",
    "steady_state_numerical",
    "ground_state",
    "basis_state",
    "vectorize",
    "unvectorize",
    "taylor_propagator",
    "DEFAULT_DT",
]

#: Default integrator step (us). At the bundled parameters the generator
#: norm is a few tens of rad/us, so 1e-4 sits two orders below the
#: stability bound dt <= 0.1 / ||L||.
DEFAULT_DT = 1e-4

#: Protocols of :func:`steady_state_numerical`.
STEADY_STATE_METHODS = ("null_space", "evolve")

_TRACE_TOL = 1e-9
_EIG_TOL = -1e-8

#: Raised for a stationary state of a time-dependent generator.
_NO_STATIONARY_FRAME = (
    "steady_state: generator is time dependent (nonzero closed-loop detuning); "
    "no stationary state exists in this frame"
)


@dataclass(frozen=True)
class DriveConfig:
    """All coherent drive parameters of the six-level system.

    Rabi amplitudes are nonnegative (phases are carried separately in
    ``rf_phases``); every angular frequency is rad/us.

    Attributes
    ----------
    omega_p, omega_c : float
        Probe (1-2) and coupling (2-3) Rabi amplitudes.
    rf_rabi : tuple of 4 floats
        RF Rabi amplitudes on channels 1..4 (edges 3-4, 4-5, 5-6, 3-6).
    delta_p, delta_c : float
        Probe and coupling detunings.
    rf_detunings : tuple of 4 floats
    rf_phases : tuple of 4 floats
        Phases (rad) multiplying each RF coupling as ``exp(+i phi)`` on the
        upper triangle.
    """

    omega_p: float
    omega_c: float
    rf_rabi: tuple
    delta_p: float = 0.0
    delta_c: float = 0.0
    rf_detunings: tuple = (0.0, 0.0, 0.0, 0.0)
    rf_phases: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("rf_rabi", "rf_detunings", "rf_phases"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != 4:
                raise ValueError(f"DriveConfig.{name}: expected 4 entries, got {len(vals)}")
            if not all(np.isfinite(vals)):
                raise ValueError(f"DriveConfig.{name}: non-finite entry in {vals}")
            object.__setattr__(self, name, vals)
        for name in ("omega_p", "omega_c", "delta_p", "delta_c"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.omega_p < 0 or self.omega_c < 0 or any(v < 0 for v in self.rf_rabi):
            raise ValueError(
                "DriveConfig: Rabi amplitudes must be >= 0 (carry signs in rf_phases)"
            )

    @property
    def closed_loop_delta(self):
        """delta = Delta_4 - (Delta_1 + Delta_2 + Delta_3), rad/us."""
        d1, d2, d3, d4 = self.rf_detunings
        return d4 - (d1 + d2 + d3)

    @property
    def is_resonant(self):
        """True when every detuning vanishes."""
        return (
            self.delta_p == 0.0
            and self.delta_c == 0.0
            and all(d == 0.0 for d in self.rf_detunings)
        )

    def with_rf_rabi(self, rf_rabi):
        """Copy with the RF Rabi 4-vector replaced."""
        return replace(self, rf_rabi=tuple(float(v) for v in rf_rabi))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, PSD within tolerance.

    The matrix is copied and jointly Hermitized/checked on construction, so
    downstream code can rely on the invariants without revalidating.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"DensityMatrix: expected square matrix, got shape {m.shape}")
        m, errors = _validate_states(m[None])
        if errors[0]:
            raise errors[0]
        m = m[0]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def population(self, k):
        """Occupation of level ``k`` (1-based)."""
        return float(self.matrix[k - 1, k - 1].real)

    def coherence(self, i, j):
        """Matrix element rho_{i,j} (1-based indices)."""
        return complex(self.matrix[i - 1, j - 1])


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


def _validate_states(m):
    """Hermitized ``(B, d, d)`` stack and, per matrix, the ValueError of the
    first :class:`DensityMatrix` invariant it breaks (or None)."""
    herm = np.max(np.abs(m - _dagger(m)), axis=(-2, -1)).tolist()
    traces = np.trace(m, axis1=-2, axis2=-1).tolist()
    m = (m + _dagger(m)) / 2.0
    w0 = np.linalg.eigvalsh(m)[:, 0].tolist() if len(m) else []
    return m, [
        ValueError(f"DensityMatrix: not Hermitian (max |m - m^H| = {h:.3e})") if h > HERMITICITY_TOL
        else ValueError(f"DensityMatrix: trace {tr} deviates from 1 beyond {_TRACE_TOL:.0e}")
        if abs(tr - 1.0) > _TRACE_TOL
        else ValueError(f"DensityMatrix: not PSD (min eigenvalue {w:.3e} below {_EIG_TOL:.0e})")
        if w < _EIG_TOL else None
        for h, tr, w in zip(herm, traces, w0)
    ]


def ground_state(dim=6):
    """|1><1| on a ``dim``-level manifold."""
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(m)


def basis_state(k, dim=6):
    """|k><k| (1-based) on a ``dim``-level manifold."""
    m = np.zeros((dim, dim), dtype=complex)
    m[k - 1, k - 1] = 1.0
    return DensityMatrix(m)


def vectorize(m):
    """Column-major flattening, ``vec(m)[i + dim*j] = m[i, j]``."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvectorize(v, dim=6):
    """Inverse of :func:`vectorize`."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


# ----------------------------------------------------------------------
# Hamiltonian

#: Zero-based index of the loop-closing RF channel (channel 4, edge 3-6).
_LOOP = 3


def build_hamiltonian(drive, scheme, t=0.0):
    """Rotating-frame Hamiltonian of the six-level hybrid at time ``t``.

    Couplings ``Omega/2 * exp(i phi)`` sit on the upper triangle: the probe
    on (1,2), the coupling laser on (2,3), and RF channel n on the edge of
    the scheme's transition n. The loop branch (channel 4) also carries
    ``exp(-i delta t)`` with the closed-loop detuning ``delta``, so the
    operator is Hermitian for every t and time independent when delta = 0.
    The diagonal accumulates detunings down the ladder:
    ``(0, -Dp, -(Dp+Dc), -(Dp+Dc+D1), -(Dp+Dc+D1+D2), -(Dp+Dc+D1+D2+D3))``.
    Entries are rad/us (hbar = 1 internally).

    Raises
    ------
    ValueError
        If ``scheme`` is not the six-level hybrid.
    """
    require_hybrid_six(scheme)
    h = np.zeros((6, 6), dtype=complex)
    h[0, 1] = drive.omega_p / 2.0
    h[1, 2] = drive.omega_c / 2.0
    for n, tr in enumerate(scheme.rf_transitions):
        coupling = (drive.rf_rabi[n] / 2.0) * np.exp(1j * drive.rf_phases[n])
        if n == _LOOP:
            coupling = coupling * np.exp(-1j * drive.closed_loop_delta * t)
        h[tr.lower - 1, tr.upper - 1] += coupling
    h = h + h.conj().T
    dp, dc = drive.delta_p, drive.delta_c
    d1, d2, d3, _d4 = drive.rf_detunings
    np.fill_diagonal(
        h,
        (0.0, -dp, -(dp + dc), -(dp + dc + d1), -(dp + dc + d1 + d2), -(dp + dc + d1 + d2 + d3)),
    )
    return h


# ----------------------------------------------------------------------
# Liouvillians


def _hamiltonian_superop(x):
    """-i (I (x) X - X^T (x) I) under column-major vectorization, for one
    matrix or a stack; entry ``[i + d j, k + d l]`` is built at ``[j, i, l, k]``."""
    d = x.shape[-1]
    eye = np.eye(d)
    left = eye[:, None, :, None] * x[..., None, :, None, :]
    right = np.swapaxes(x, -1, -2)[..., :, None, :, None] * eye[:, None, :]
    return (-1j * (left - right)).reshape(x.shape[:-2] + (d * d, d * d))


@functools.lru_cache(maxsize=8)
def _dissipator(decay_channels, dim):
    """Sum of decay dissipators in vectorized form, built once per scheme
    and shared read-only by every generator."""
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for (src, dst, rate) in decay_channels:
        jump = np.zeros((dim, dim), dtype=complex)
        jump[dst - 1, src - 1] = 1.0
        jj = jump.conj().T @ jump
        out += rate * (
            np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))
        )
    out.setflags(write=False)
    return out


def _trace_errors(m):
    """Per generator of a ``(B, d^2, d^2)`` stack, the ValueError if
    ``||Tr o L|| > 1e-10 max(1, ||L||_F)`` (or None)."""
    defects = np.linalg.norm(_trace_row(m.shape[-1]) @ m, axis=-1).tolist()
    scales = np.linalg.norm(m, axis=(-2, -1)).tolist()
    return [
        ValueError(f"Liouvillian: trace not preserved (||Tr o L|| = {d:.3e})")
        if d > 1e-10 * max(1.0, scale) else None
        for d, scale in zip(defects, scales)
    ]


def _trace_row(n2):
    """``vec(rho) -> Tr(rho)`` as a row, for ``vec`` of length ``n2``."""
    return vectorize(np.eye(math.isqrt(n2))).conj()


@dataclass(frozen=True)
class Liouvillian:
    """Time-independent generator of the vectorized master equation.

    Construction checks trace preservation: the functional extracting
    ``Tr(rho_dot)`` must annihilate every column of the matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        n2 = m.shape[0]
        dim = int(round(n2**0.5))
        if m.ndim != 2 or m.shape != (n2, n2) or dim * dim != n2:
            raise ValueError(f"Liouvillian: expected (d^2, d^2) matrix, got {m.shape}")
        error = _trace_errors(m[None])[0]
        if error:
            raise error
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def norm(self):
        """Spectral norm, used for integrator stability bounds."""
        return float(np.linalg.norm(self.matrix, 2))

    def spectral_report(self):
        """(closest-to-zero |eigenvalue|, largest real part of the rest)."""
        lam = np.linalg.eigvals(self.matrix)
        k = int(np.argmin(np.abs(lam)))
        rest = np.delete(lam, k)
        return float(np.abs(lam[k])), float(np.max(rest.real)) if rest.size else 0.0


@dataclass(frozen=True)
class TimeDependentLiouvillian:
    """Generator ``A + exp(-i delta t) B + exp(+i delta t) C``.

    Produced when the closed-loop detuning is nonzero; the oscillating
    parts come from the loop branch of the Hamiltonian. :func:`evolve`
    integrates it from the three parts and ``delta`` directly (one RK4
    step is a fixed polynomial in the loop phase); :meth:`matrix` gives
    the generator at one time, for oracles and stationarity checks.
    """

    constant: np.ndarray
    loop_lower: np.ndarray   # coefficient of exp(-i delta t)
    loop_raise: np.ndarray   # coefficient of exp(+i delta t)
    delta: float

    def matrix(self, t):
        """Generator evaluated at time ``t`` (us)."""
        phase = np.exp(-1j * self.delta * t)
        return self.constant + phase * self.loop_lower + np.conj(phase) * self.loop_raise

    def norm(self):
        # Upper bound, tight enough for the stability heuristic.
        return float(
            np.linalg.norm(self.constant, 2)
            + np.linalg.norm(self.loop_lower, 2)
            + np.linalg.norm(self.loop_raise, 2)
        )


@dataclass(frozen=True)
class _GeneratorBasis:
    """``L(theta) = constant + sum_k theta_k channels_k``, where channel k is
    the superoperator of its coupling ``units_k = exp(i phi_k)/2`` (upper
    triangle) plus the conjugate, and ``constant`` holds the lasers, the
    detunings and the dissipator. No RF entry shares a position with another
    term, so every sum is exact and a stack assembled here equals the
    generators built one by one."""

    drive: DriveConfig  # the lasers, detunings and RF phases; no RF amplitude
    scheme: object
    constant: np.ndarray
    units: np.ndarray  # (4, d, d)
    channels: np.ndarray  # (4, d^2, d^2)

    def assemble(self, thetas):
        """Generators at each row of the ``(B, 4)`` amplitudes."""
        return self.constant + np.tensordot(thetas, self.channels, axes=1)

    @functools.cached_property
    def norms(self):
        return np.linalg.norm(self.constant, 2), np.linalg.norm(self.channels, 2, axis=(-2, -1))


def _generator_basis(drive, scheme):
    """Basis at ``drive``'s lasers, detunings and RF phases (raises
    ValueError unless ``scheme`` is the six-level hybrid)."""
    return _basis_at(drive.with_rf_rabi((0.0,) * 4), scheme)


@functools.lru_cache(maxsize=8)
def _basis_at(drive, scheme):
    """Built once per scheme and base drive and shared read-only, so the
    generators of a gain stencil or a map reuse one basis."""
    units = np.zeros((4, scheme.size, scheme.size), dtype=complex)
    for n, tr in enumerate(scheme.rf_transitions):
        units[n, tr.lower - 1, tr.upper - 1] = 0.5 * np.exp(1j * drive.rf_phases[n])
    constant = _hamiltonian_superop(build_hamiltonian(drive, scheme))
    constant += _dissipator(scheme.decay_channels, scheme.size)
    basis = _GeneratorBasis(
        drive, scheme, constant, units, _hamiltonian_superop(units + _dagger(units))
    )
    for array in (basis.constant, basis.units, basis.channels):
        array.setflags(write=False)
    return basis


def make_generator(drive, scheme):
    """Generator for the given drive: constant if the loop detuning is
    zero, otherwise the explicit three-part time-dependent form. Both
    evaluate the drive's affine basis at its RF amplitudes.

    Raises
    ------
    ValueError
        If ``scheme`` is not the six-level hybrid.
    """
    basis = _generator_basis(drive, scheme)
    theta = np.array([drive.rf_rabi])
    if drive.closed_loop_delta == 0.0:
        return Liouvillian(basis.assemble(theta)[0])
    # the loop channel's upper coupling carries exp(-i delta t), its conjugate exp(+i delta t)
    loop, theta[0, _LOOP] = theta[0, _LOOP], 0.0
    unit = basis.units[_LOOP]
    return TimeDependentLiouvillian(
        constant=basis.assemble(theta)[0],
        loop_lower=loop * _hamiltonian_superop(unit),
        loop_raise=loop * _hamiltonian_superop(_dagger(unit)),
        delta=drive.closed_loop_delta,
    )


# ----------------------------------------------------------------------
# Evolution


def taylor_propagator(matrix, dt):
    """Degree-4 Taylor polynomial of ``exp(dt * matrix)``, for one matrix
    or a stack ``(B, n, n)``.

    On a linear autonomous system this is algebraically identical to one
    classical RK4 step, so chaining powers of this matrix reproduces the
    RK4 trajectory exactly (up to the order of floating-point rounding).
    """
    a = dt * matrix
    p = np.eye(a.shape[-1], dtype=complex) + a
    term = a
    for k in (2, 3, 4):
        term = term @ a / k
        p += term
    return p


#: Steps per table of loop-phase powers: bounds the table's memory when a
#: single snapshot gap spans 1e5 steps.
_PHASE_BLOCK = 1024


def _rk4_step_polynomial(generator, dt):
    """One RK4 step of a time-dependent generator as a Laurent polynomial.

    At ``t = n dt`` the generator is ``L(p) = A + p B + conj(p) C`` with
    loop phase ``p = exp(-i delta t)``; the stage times ``t + dt/2`` and
    ``t + dt`` multiply ``p`` by ``w = exp(-i delta dt/2)`` and ``w^2``.
    Carrying the stages ``k1..k4`` through as polynomials in ``p`` gives
    the step exactly: ``vec(t + dt) = vec + sum_k p^k D_k vec`` for
    ``k = -4..4``. The identity stays out of ``D_0`` so the increment is
    added to ``vec`` as in the stage-by-stage update.

    Returns the powers ``k`` and the ``D_k`` stacked as ``(9 d^2, d^2)``.
    """
    w = np.exp(-0.5j * generator.delta * dt)

    def stage(s):
        # L(p s) as {power of p: matrix}
        return {
            -1: np.conj(s) * generator.loop_raise,
            0: generator.constant,
            1: s * generator.loop_lower,
        }

    def apply(m, k, h):
        # m (I + h k): the stage generator applied to the stage state
        out = dict(m)
        for i, x in m.items():
            for j, y in k.items():
                term = h * (x @ y)
                out[i + j] = out[i + j] + term if i + j in out else term
        return out

    k1 = stage(1.0)
    k2 = apply(stage(w), k1, 0.5 * dt)
    k3 = apply(stage(w), k2, 0.5 * dt)
    k4 = apply(stage(w * w), k3, dt)
    powers = np.arange(-4, 5)
    zero = np.zeros_like(generator.constant)
    increments = [
        (dt / 6.0)
        * (k1.get(k, zero) + 2.0 * k2.get(k, zero) + 2.0 * k3.get(k, zero) + k4.get(k, zero))
        for k in powers
    ]
    return powers, np.concatenate(increments)


@dataclass(frozen=True)
class Trajectory:
    """Stored snapshots of an evolution run.

    Snapshots are re-Hermitized and trace-renormalized; the raw trace
    drift observed before renormalization is kept for diagnostics.
    """

    times: np.ndarray
    matrices: np.ndarray
    max_trace_drift: float = 0.0

    def __len__(self):
        return len(self.times)

    def state(self, k):
        """Snapshot ``k`` as a validated :class:`DensityMatrix`."""
        return DensityMatrix(self.matrices[k])

    @property
    def final(self):
        return self.state(len(self.times) - 1)

    def populations(self):
        """Real array of shape (n_snapshots, dim)."""
        return np.real(np.einsum("nii->ni", self.matrices))

    def coherence(self, i, j):
        """Time series of rho_{i,j} (1-based)."""
        return self.matrices[:, i - 1, j - 1]

    def write_csv(self, path, all_coherences=False):
        """Export ``t, rho11..rho66, re_rho21, im_rho21`` (and optionally
        every strictly-lower coherence) as CSV."""
        dim = self.matrices.shape[1]
        pairs = [(2, 1)]
        if all_coherences:
            pairs += [(i, j) for i in range(1, dim + 1) for j in range(1, i) if (i, j) != (2, 1)]
        header = ["t"] + [f"rho{k}{k}" for k in range(1, dim + 1)]
        columns = [self.times, *self.populations().T]
        for (i, j) in pairs:
            header += [f"re_rho{i}{j}", f"im_rho{i}{j}"]
            c = self.coherence(i, j)
            columns += [c.real, c.imag]
        write_csv(path, ",".join(header), "%.9g" + ",%.12g" * (len(columns) - 1), [columns])


def _snapshot_boundaries(n_steps, max_snapshots):
    stride = -(-n_steps // (max_snapshots - 1))
    return list(range(0, n_steps, stride)) + [n_steps]


def _clean(vec, dim):
    """Re-Hermitized, trace-normalized states of ``(..., d^2)`` vectors, and
    the trace drift of each."""
    rho = vec.reshape(vec.shape[:-1] + (dim, dim)).swapaxes(-1, -2)
    rho = (rho + _dagger(rho)) / 2.0
    tr = rho.trace(axis1=-2, axis2=-1).real
    return rho / tr[..., None, None], abs(tr - 1.0)


def _horizon_steps(t_end, dt):
    """Number of ``dt`` steps to ``t_end``, after checking both."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"evolve: dt must be finite and positive, got {dt}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"evolve: t_end must be finite and nonnegative, got {t_end}")
    n_steps = int(round(t_end / dt)) if t_end > 0 else 0
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"evolve: t_end = {t_end} is not an integer multiple of dt = {dt}")
    return n_steps


def _stability_error(dt, norm):
    if norm > 0 and dt > 0.1 / norm:
        return ValueError(
            f"evolve: dt = {dt:g} exceeds the stability bound 0.1/||L|| = {0.1 / norm:.3g}"
        )
    return None


def evolve(rho0, generator, t_end, dt=DEFAULT_DT, max_snapshots=1001):
    """Integrate the master equation from ``rho0`` to ``t_end``.

    Fixed-step RK4, run by one snapshot loop; only the step from one
    snapshot to the next depends on the generator kind. For a constant
    generator it is the degree-4 Taylor propagator raised to the gap by
    binary matrix powering (identical algebra, far fewer Python-level
    steps). For a time-dependent generator the four-stage RK4 step is
    expanded once per call into nine matrices, one per power of the loop
    phase (see :func:`_rk4_step_polynomial`); each step then weights them by
    that step's phase powers, which are tabulated in blocks of steps. The
    stage-by-stage loop that assembles the generator at ``t``, ``t + dt/2``
    and ``t + dt`` is kept in the tests as the reference.

    Each stored snapshot is re-Hermitized as ``(rho + rho^H)/2`` and
    trace-renormalized; evolution continues from the cleaned state.

    Parameters
    ----------
    rho0 : DensityMatrix
    generator : Liouvillian or TimeDependentLiouvillian
    t_end : float
        End time (us); finite, nonnegative and an integer multiple of ``dt``.
    dt : float
        Step (us); finite and positive, and rejected if it violates the
        stability bound ``dt <= 0.1 / ||L||``.
    max_snapshots : int
        Cap on stored states, at least 2 (first and last always included).

    Returns
    -------
    Trajectory
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(np.asarray(rho0))
    n_steps = _horizon_steps(t_end, dt)
    if max_snapshots < 2:
        raise ValueError(f"evolve: max_snapshots must be >= 2, got {max_snapshots}")
    error = _stability_error(dt, generator.norm())
    if error:
        raise error

    vec = vectorize(rho0.matrix)
    if isinstance(generator, TimeDependentLiouvillian):
        powers, increments = _rk4_step_polynomial(generator, dt)
        shape = (len(powers), vec.size)

        def advance(vec, first, stop):
            for start in range(first, stop, _PHASE_BLOCK):
                steps = np.arange(start, min(start + _PHASE_BLOCK, stop))
                for row in np.exp(-1j * generator.delta * dt * np.outer(steps, powers)):
                    vec = vec + row @ (increments @ vec).reshape(shape)
            return vec
    else:
        p_step = taylor_propagator(generator.matrix, dt)
        power = functools.cache(lambda gap: np.linalg.matrix_power(p_step, gap))

        def advance(vec, first, stop):
            return power(stop - first) @ vec

    bounds = _snapshot_boundaries(n_steps, max_snapshots) if n_steps else [0]
    mats, drift = [rho0.matrix.copy()], 0.0
    for first, stop in zip(bounds, bounds[1:]):
        rho, d = _clean(advance(vec, first, stop), rho0.dim)
        drift = max(drift, d)
        vec = vectorize(rho)
        mats.append(rho)
    return Trajectory(np.asarray(bounds) * dt, np.asarray(mats), drift)


# ----------------------------------------------------------------------
# Stationary states and the fixed-horizon protocol on stacks of generators.
# Kernels return per-point errors beside the results: None, or what that
# point raises when evaluated alone, so no point fails the rest of a stack.


def _check_method(method):
    if method not in STEADY_STATE_METHODS:
        raise ValueError(f"unknown steady-state method {method!r}")


def _inverse_or_nan(m):
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return np.full_like(m, np.nan)


def _stationary_vectors(generators):
    """Stationary ``vec(rho)`` of each generator: row 0 (redundant, since
    ``Tr o L = 0``) becomes the trace and ``Tr(rho) = 1`` is solved for, the
    "direct" method of Johansson, Nation & Nori, Comput. Phys. Commun. 184,
    1234 (2013). A singular point or one with 1-norm condition number above
    ``1/NULL_SPACE_TOL`` takes the SVD null space, which decides degeneracy."""
    a = generators.copy()
    a[:, 0, :] = _trace_row(a.shape[-1])
    try:
        inverses = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # one singular matrix fails the whole call
        inverses = np.array([_inverse_or_nan(m) for m in a])
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.linalg.norm(a, 1, axis=(-2, -1)) * np.linalg.norm(inverses, 1, axis=(-2, -1))
    vecs, errors = inverses[..., 0], [None] * len(a)
    for k in np.flatnonzero(~(cond <= 1.0 / NULL_SPACE_TOL)):
        basis = null_space(generators[k])
        if len(basis) == 1:
            vecs[k] = basis[0]
        else:
            errors[k] = ValueError(
                f"steady_state: degenerate steady state, null-space dimension {len(basis)}"
            )
    return vecs, errors


def _evolve_vectors(generators, t_end, dt, norm_bounds):
    """``evolve(ground_state(), L, t_end, dt, 2).final`` as vectors, for a
    stack: one stacked Taylor propagator raised to the step count. Upper
    bounds ``norm_bounds`` clear points of the stability bound without an
    SVD; the exact norm decides the rest, so no decision changes."""
    n_steps = _horizon_steps(t_end, dt)
    unclear = np.flatnonzero(~(dt * norm_bounds * (1.0 + 1e-9) <= 0.1))
    errors = [None] * len(generators)
    for k, norm in zip(unclear, np.linalg.norm(generators[unclear], 2, axis=(-2, -1)).tolist()):
        errors[k] = _stability_error(dt, norm)
    ok = [k for k, e in enumerate(errors) if e is None]
    vecs = np.zeros(generators.shape[:2], dtype=complex)
    if ok:
        steps = np.linalg.matrix_power(taylor_propagator(generators[ok], dt), n_steps)
        vecs[ok] = steps[..., 0]  # applied to vec(|1><1|), the first unit vector
    return vecs, errors


def _states(vecs, errors):
    """Cleaned, validated states of the vectors; a failed point keeps its
    error (and holds the ground state)."""
    dim = math.isqrt(vecs.shape[-1])
    vecs = vecs.copy()
    vecs[[k for k, e in enumerate(errors) if e is not None]] = vectorize(ground_state(dim).matrix)
    rho, more = _validate_states(_clean(vecs, dim)[0])
    return rho, [e or m for e, m in zip(errors, more)]


def _only(states, errors):
    """The state of a block of one, or its error raised."""
    if errors[0] is not None:
        raise errors[0]
    return DensityMatrix(states[0])


def _numerical_states(basis, thetas, method, t_end, dt):
    """States of ``method`` at each row of the ``(B, 4)`` RF amplitudes on a
    basis, with per-point errors. Errors shared by every point (a bad
    horizon, a time-dependent ``null_space``) raise; a time-dependent
    generator is evolved point by point."""
    _check_method(method)
    if basis.drive.closed_loop_delta != 0.0:
        if method == "null_space":
            raise TypeError(_NO_STATIONARY_FRAME)
        states, errors = [], []
        for theta in thetas:
            try:
                generator = make_generator(basis.drive.with_rf_rabi(theta), basis.scheme)
                trajectory = evolve(ground_state(), generator, t_end, dt, max_snapshots=2)
                states.append(trajectory.final.matrix)
                errors.append(None)
            except (ValueError, np.linalg.LinAlgError) as exc:
                states.append(ground_state().matrix)
                errors.append(exc)
        return np.array(states), errors
    generators = basis.assemble(thetas)
    if method == "null_space":
        vecs, errors = _stationary_vectors(generators)
    else:  # triangle-inequality bounds on ||L||, for theta >= 0
        bounds = basis.norms[0] + thetas @ basis.norms[1]
        vecs, errors = _evolve_vectors(generators, t_end, dt, bounds)
    return _states(vecs, [e or m for e, m in zip(_trace_errors(generators), errors)])


def steady_state(liouvillian):
    """Stationary state of a constant generator by the trace-row solve (see
    :func:`_stationary_vectors`), run on a block of one.

    Raises
    ------
    TypeError
        For a time-dependent generator (no stationary rotating frame
        exists when the closed-loop detuning is nonzero).
    ValueError
        If the null space is not one-dimensional; the message reports the
        dimension found. Degeneracy occurs at exactly balanced RF loops
        with no upper-manifold decay.
    """
    if isinstance(liouvillian, TimeDependentLiouvillian):
        raise TypeError(_NO_STATIONARY_FRAME)
    return _only(*_states(*_stationary_vectors(liouvillian.matrix[None])))


def steady_state_numerical(drive, scheme, method="null_space", t_end=10.0, dt=DEFAULT_DT):
    """Full-decay numerical steady state at a drive point.

    ``method="null_space"`` solves the stationary problem directly (the
    converged state); ``method="evolve"`` integrates from the ground state
    to ``t_end`` and returns the final snapshot, which is what a
    fixed-horizon experiment sees. The latter is the fidelity maps' path
    run on a block of one, so it equals a map cell.
    """
    _check_method(method)
    if method == "null_space":
        return steady_state(make_generator(drive, scheme))
    thetas = np.array([drive.rf_rabi])
    return _only(*_numerical_states(_generator_basis(drive, scheme), thetas, method, t_end, dt))
