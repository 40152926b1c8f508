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
from dataclasses import dataclass, replace

import numpy as np

from .numerics import HERMITICITY_TOL, null_space
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
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"DensityMatrix: not Hermitian (max |m - m^H| = {herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"DensityMatrix: trace {tr} deviates from 1 beyond {_TRACE_TOL:.0e}")
        m = (m + m.conj().T) / 2.0
        w = np.linalg.eigvalsh(m)
        if float(w[0]) < _EIG_TOL:
            raise ValueError(
                f"DensityMatrix: not PSD (min eigenvalue {w[0]:.3e} below {_EIG_TOL:.0e})"
            )
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
    """-i (I (x) X - X^T (x) I) under column-major vectorization."""
    dim = x.shape[0]
    eye = np.eye(dim)
    return -1j * (np.kron(eye, x) - np.kron(x.T, eye))


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
        trace_functional = vectorize(np.eye(dim)).conj()
        defect = float(np.linalg.norm(trace_functional @ m))
        scale = max(1.0, float(np.linalg.norm(m)))
        if defect > 1e-10 * scale:
            raise ValueError(
                f"Liouvillian: trace not preserved (||Tr o L|| = {defect:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return int(round(self.matrix.shape[0] ** 0.5))

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

    @property
    def dim(self):
        return int(round(self.constant.shape[0] ** 0.5))

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


def make_generator(drive, scheme):
    """Generator for the given drive: constant if the loop detuning is
    zero, otherwise the explicit three-part time-dependent form.

    Raises
    ------
    ValueError
        If ``scheme`` is not the six-level hybrid.
    """
    h = build_hamiltonian(drive, scheme)
    dissipator = _dissipator(scheme.decay_channels, scheme.size)
    delta = drive.closed_loop_delta
    if delta == 0.0:
        return Liouvillian(_hamiltonian_superop(h) + dissipator)
    # Split the loop branch off the t = 0 Hamiltonian.
    loop_edge = scheme.rf_transitions[_LOOP]
    i, j = loop_edge.lower - 1, loop_edge.upper - 1
    loop = np.zeros_like(h)
    loop[i, j] = h[i, j]
    h[i, j] = h[j, i] = 0.0
    return TimeDependentLiouvillian(
        constant=_hamiltonian_superop(h) + dissipator,
        loop_lower=_hamiltonian_superop(loop),
        loop_raise=_hamiltonian_superop(loop.conj().T),
        delta=delta,
    )


# ----------------------------------------------------------------------
# Evolution


def taylor_propagator(matrix, dt):
    """Degree-4 Taylor polynomial of ``exp(dt * matrix)``.

    On a linear autonomous system this is algebraically identical to one
    classical RK4 step, so chaining powers of this matrix reproduces the
    RK4 trajectory exactly (up to the order of floating-point rounding).
    """
    a = dt * matrix
    p = np.eye(a.shape[0], dtype=complex) + a
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
        with open(path, "w", newline="") as fh:
            np.savetxt(
                fh,
                np.column_stack(columns),
                fmt=["%.9g"] + ["%.12g"] * (len(columns) - 1),
                delimiter=",",
                newline="\r\n",
                header=",".join(header),
                comments="",
            )


def _snapshot_boundaries(n_steps, max_snapshots):
    stride = -(-n_steps // (max_snapshots - 1))
    return list(range(0, n_steps, stride)) + [n_steps]


def _clean(vec, dim):
    rho = unvectorize(vec, dim)
    rho = (rho + rho.conj().T) / 2.0
    tr = float(np.trace(rho).real)
    return rho / tr, abs(tr - 1.0)


def evolve(rho0, generator, t_end, dt=DEFAULT_DT, max_snapshots=1001):
    """Integrate the master equation from ``rho0`` to ``t_end``.

    Fixed-step RK4. For a constant generator the per-step update is the
    degree-4 Taylor propagator, applied between snapshots through binary
    matrix powering (identical algebra, far fewer Python-level steps). For
    a time-dependent generator the four-stage RK4 step is expanded once per
    call into nine matrices, one per power of the loop phase (see
    :func:`_rk4_step_polynomial`); each step then weights them by that
    step's phase powers, which are tabulated in blocks of steps. The
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
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"evolve: dt must be finite and positive, got {dt}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"evolve: t_end must be finite and nonnegative, got {t_end}")
    if max_snapshots < 2:
        raise ValueError(f"evolve: max_snapshots must be >= 2, got {max_snapshots}")
    norm = generator.norm()
    if norm > 0 and dt > 0.1 / norm:
        raise ValueError(
            f"evolve: dt = {dt:g} exceeds the stability bound 0.1/||L|| = {0.1 / norm:.3g}"
        )
    n_steps = int(round(t_end / dt)) if t_end > 0 else 0
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"evolve: t_end = {t_end} is not an integer multiple of dt = {dt}")

    dim = rho0.dim
    vec = vectorize(rho0.matrix)
    bounds = _snapshot_boundaries(n_steps, max_snapshots) if n_steps else [0]
    times = [0.0]
    mats = [rho0.matrix.copy()]
    drift = 0.0

    if isinstance(generator, TimeDependentLiouvillian):
        powers, increments = _rk4_step_polynomial(generator, dt)
        shape = (len(powers), vec.size)
        for bi in range(1, len(bounds)):
            for start in range(bounds[bi - 1], bounds[bi], _PHASE_BLOCK):
                steps = np.arange(start, min(start + _PHASE_BLOCK, bounds[bi]))
                phases = np.exp(-1j * generator.delta * dt * np.outer(steps, powers))
                for row in phases:
                    vec = vec + row @ (increments @ vec).reshape(shape)
            rho, d = _clean(vec, dim)
            drift = max(drift, d)
            vec = vectorize(rho)
            times.append(bounds[bi] * dt)
            mats.append(rho)
    else:
        p_step = taylor_propagator(generator.matrix, dt)
        cached = {}
        for bi in range(1, len(bounds)):
            gap = bounds[bi] - bounds[bi - 1]
            if gap not in cached:
                cached[gap] = np.linalg.matrix_power(p_step, gap)
            vec = cached[gap] @ vec
            rho, d = _clean(vec, dim)
            drift = max(drift, d)
            vec = vectorize(rho)
            times.append(bounds[bi] * dt)
            mats.append(rho)

    return Trajectory(
        times=np.asarray(times), matrices=np.asarray(mats), max_trace_drift=drift
    )


def steady_state(liouvillian):
    """Stationary state from the generator's null space.

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
        raise TypeError(
            "steady_state: generator is time dependent (nonzero closed-loop detuning); "
            "no stationary state exists in this frame"
        )
    basis = null_space(liouvillian.matrix)
    if len(basis) != 1:
        raise ValueError(
            f"steady_state: degenerate steady state, null-space dimension {len(basis)}"
        )
    rho, _ = _clean(basis[0], liouvillian.dim)
    return DensityMatrix(rho)


def steady_state_numerical(drive, scheme, method="null_space", t_end=10.0, dt=DEFAULT_DT):
    """Full-decay numerical steady state at a drive point.

    ``method="null_space"`` solves the stationary problem directly (the
    converged state); ``method="evolve"`` integrates from the ground state
    to ``t_end`` and returns the final snapshot, which is what a
    fixed-horizon experiment sees.
    """
    if method not in STEADY_STATE_METHODS:
        raise ValueError(f"steady_state_numerical: unknown method {method!r}")
    gen = make_generator(drive, scheme)
    if method == "null_space":
        return steady_state(gen)
    return evolve(ground_state(), gen, t_end=t_end, dt=dt, max_snapshots=2).final
