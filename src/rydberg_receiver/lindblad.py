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

with jump operators ``J = |k><l|`` for each decay channel ``l -> k``. The
kernels run in real arithmetic on a state's coordinates in a Hermitian
basis (:func:`_hermitian_basis`), where a generator is a real matrix.

All angular frequencies are rad/us and times are us, so generator entries
stay O(1e-3 .. 1e2) and ``t = 10`` is a round number.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import Field, _position, check_args, record, replace
from .numerics import (
    HERMITICITY_TOL, NULL_SPACE_TOL, PSD_CLAMP, _as_square, _finite, null_space, write_csv,
)
from .scheme import require_hybrid_six

#: Default integrator step (us). At the bundled parameters the generator
#: norm is a few tens of rad/us, so 1e-4 sits two orders below the
#: stability bound dt <= 0.1 / ||L||.
DEFAULT_DT = 1e-4

#: Rules of :func:`evolve`'s arguments; every horizon ``(t_end, dt)`` keeps the first two.
_EVOLVE_RULES = {"t_end": Field("time", sign=">="), "dt": Field("time", sign=">"),
                 "max_snapshots": Field("int")}

#: Fewest states :func:`evolve` stores, the first and the last: a bound no sign rule states.
MIN_SNAPSHOTS = 2

#: Protocols of :func:`steady_state_numerical`.
STEADY_STATE_METHODS = ("null_space", "evolve")

_TRACE_TOL = 1e-9

#: Why a point failed: its reason code (0: it did not) indexes the message it raises alone,
#: which its one number fills in. A kernel's record is ``(codes, numbers)`` over its points.
_REASONS = (
    None,
    "DensityMatrix: non-finite entries",
    "DensityMatrix: not Hermitian (max |m - m^H| = {:.3e})",
    f"DensityMatrix: trace {{}} deviates from 1 beyond {_TRACE_TOL:.0e}",
    f"DensityMatrix: not PSD (min eigenvalue {{:.3e}} below {PSD_CLAMP:.0e})",
    "Liouvillian: trace not preserved (||Tr o L|| = {:.3e})",
    "steady_state: degenerate steady state, null-space dimension {:.0f}",
    "evolve: dt exceeds the stability bound 0.1/||L|| = {:.3g}",
    "analytic model degenerate: Lambda = 0 (probe drive and loop "
    "imbalance cannot both vanish, and the RF loop must carry power)",
    "Liouvillian: non-finite entries or norm",
)
(_NON_FINITE, _NOT_HERMITIAN, _TRACE_OFF, _NOT_PSD, _TRACE_LOST, _DEGENERATE, _UNSTABLE,
 _LAMBDA_ZERO, _L_NON_FINITE) = np.arange(1, len(_REASONS), dtype=np.int8)


def _first(*records):
    """Per point, the first failure among the records, in the order given."""
    codes, numbers = records[-1]
    for earlier in reversed(records[:-1]):
        codes, numbers = np.where(earlier[0] != 0, earlier, (codes, numbers))
    return codes.astype(np.int8), numbers


def _raise_first(codes, numbers, prefix=""):
    """Raise the ValueError of the record's first failed point, if any."""
    for k in np.flatnonzero(codes)[:1]:
        raise ValueError(prefix + _REASONS[codes[k]].format(numbers[k]))


#: Raised for a stationary state of a time-dependent generator.
_NO_STATIONARY_FRAME = (
    "steady_state: generator is time dependent (nonzero closed-loop detuning); "
    "no stationary state exists in this frame"
)


@record
class DriveConfig:
    """All coherent drive parameters of the six-level system.

    Each Rabi amplitude is a magnitude, its phase carried in ``rf_phases``;
    every angular frequency is rad/us.

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

    RULES = {**dict.fromkeys(("omega_p", "omega_c"), Field("angular_frequency", sign=">=")),
             "rf_rabi": Field("angular_frequency_list", sign=">=", counts=(4,)),
             **dict.fromkeys(("delta_p", "delta_c"), Field("angular_frequency", 0.0)),
             "rf_detunings": Field("angular_frequency_list", (0.0,) * 4, counts=(4,)),
             "rf_phases": Field("float_list", (0.0,) * 4, counts=(4,))}

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
        return replace(self, rf_rabi=rf_rabi)


@record(eq=False)
class DensityMatrix:
    """Validated quantum state: finite, Hermitian, unit trace, PSD within tolerance.

    The matrix is copied and jointly Hermitized/checked, keeping the check's
    eigenpairs, so downstream code can rely on both without revalidating.
    """

    matrix: np.ndarray

    def __post_init__(self):
        (m, *eig), record = _validate_states(_as_square(self.matrix, "DensityMatrix")[None])
        _raise_first(*record)
        m = m[0]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eig", eig)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def population(self, k):
        """Occupation of level ``k`` (1-based)."""
        return float(np.diag(self.matrix)[_position("DensityMatrix.population", k, self.dim)].real)

    def coherence(self, i, j):
        """Matrix element rho_{i,j} (1-based indices)."""
        i, j = (_position("DensityMatrix.coherence", n, self.dim) for n in (i, j))
        return complex(self.matrix[i, j])


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


def _validate_states(m):
    """Hermitized ``(B, d, d)`` stack with its eigenpairs, ``(m, w, v)`` as
    :func:`numpy.linalg.eigh` returns ``(w, v)``, and its record: per matrix
    the first :class:`DensityMatrix` invariant it breaks. The Hermitized
    matrices are exactly Hermitian, so the eigenpairs are those of any later
    Hermitization too: one decomposition serves the PSD check and the
    fidelity roots. A non-finite matrix is zeroed and fails."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[:, None, None], m, 0.0)
    herm = np.max(np.abs(m - _dagger(m)), axis=(-2, -1))
    traces = np.trace(m, axis1=-2, axis2=-1)
    m = (m + _dagger(m)) / 2.0
    w, v = np.linalg.eigh(m)
    broken = np.array((~finite, herm > HERMITICITY_TOL, abs(traces - 1.0) > _TRACE_TOL,
                       w[:, 0] < PSD_CLAMP))
    first = broken.argmax(axis=0)  # codes _NON_FINITE to _NOT_PSD, in this order
    codes = np.where(broken.any(axis=0), first + _NON_FINITE, 0).astype(np.int8)
    return (m, w, v), (codes, np.choose(first, (herm, herm, traces.real, w[:, 0])))


def ground_state():
    """|1><1| of the six-level system."""
    return basis_state(1)


def basis_state(k):
    """|k><k| (1-based) of the six-level system."""
    k = _position("basis_state", k, 6)
    return DensityMatrix(np.diag(np.arange(6) == k).astype(complex))


def vectorize(m):
    """Column-major flattening, ``vec(m)[i + dim*j] = m[i, j]``."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


@functools.lru_cache(maxsize=4)
def _hermitian_basis(dim):
    """Unitary ``T`` whose row ``m`` is ``G_m`` of an orthonormal Hermitian
    basis, flattened row-major: level ``k`` (zero-based) adds ``|k><k|`` at
    row ``k^2``, then ``(|j><k| + |k><j|)/sqrt2`` and ``i(|k><j| -
    |j><k|)/sqrt2`` for each ``j < k``. ``rho = sum_m x_m G_m`` has real
    coordinates ``x = T vec(rho)``, on which a generator is the real ``T L
    T^H`` (Alicki & Lendi, Lect. Notes Phys. 286 (1987)). Populations keep
    an empty level's coordinates exactly 0, and the solve eliminates lower
    levels first, so decoupled upper levels stay exactly empty."""
    g = np.zeros((dim * dim, dim, dim), dtype=complex)
    for k in range(dim):
        g[k * k, k, k] = 1.0
        for j in range(k):
            sym = k * k + 1 + 2 * j
            g[sym, j, k] = g[sym, k, j] = math.sqrt(0.5)
            g[sym + 1, k, j], g[sym + 1, j, k] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
    t = g.reshape(dim * dim, dim * dim)
    t.setflags(write=False)
    return t


def _to_basis(m, inverse=False):
    """``T m T^H`` (real if ``m`` preserves Hermiticity), or ``T^H m T``."""
    t = _hermitian_basis(math.isqrt(m.shape[-1]))
    return _dagger(t) @ m @ t if inverse else t @ m @ _dagger(t)


def _coordinates(m):
    """Real coordinates of a Hermitian matrix."""
    return (_hermitian_basis(len(m)) @ vectorize(m)).real


def _matrices(x):
    """Hermitian matrices of the ``(..., d^2)`` coordinate vectors."""
    dim = math.isqrt(x.shape[-1])
    return (x @ _hermitian_basis(dim)).reshape(x.shape[:-1] + (dim, dim))


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


@np.errstate(over="ignore", invalid="ignore")  # a norm that overflows is recorded
def _trace_record(m):
    """Per real generator of a ``(B, d^2, d^2)`` stack, a failure unless ``||L||_F``
    is finite and ``||Tr o L|| <= 1e-10 max(1, ||L||_F)``, with ``||Tr o L||``."""
    defects = np.linalg.norm(_trace_row(m.shape[-1]) @ m, axis=-1)
    size = np.linalg.norm(m, axis=(-2, -1))
    lost = np.where(defects <= 1e-10 * np.maximum(1.0, size), 0, _TRACE_LOST)
    return np.where(np.isfinite(size), lost, _L_NON_FINITE), defects


@functools.lru_cache(maxsize=4)
def _trace_row(n2):
    """``x -> Tr(rho)`` as a 0/1 row on coordinates of length ``n2``."""
    row = np.isin(np.arange(n2), np.arange(math.isqrt(n2)) ** 2).astype(float)
    row.setflags(write=False)
    return row


@record(eq=False)
class Liouvillian:
    """Time-independent generator, held as the real ``T L T^H`` on
    coordinates (see :func:`_hermitian_basis`). Construction checks trace
    preservation: the trace row must annihilate every column."""

    real_form: np.ndarray

    def __post_init__(self):
        m = np.array(self.real_form, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or math.isqrt(len(m)) ** 2 != len(m):
            raise ValueError(f"Liouvillian: expected (d^2, d^2) matrix, got {m.shape}")
        _raise_first(*_trace_record(m[None]))
        m.setflags(write=False)
        object.__setattr__(self, "real_form", m)

    @property
    def matrix(self):
        """``L``, the complex superoperator on column-major ``vec(rho)``."""
        return _to_basis(self.real_form, inverse=True)

    def norm(self):
        """Spectral norm, used for integrator stability bounds."""
        return float(np.linalg.norm(self.real_form, 2))

    def spectral_report(self):
        """(closest-to-zero |eigenvalue|, largest real part of the rest)."""
        lam = np.linalg.eigvals(self.real_form)  # similar to ``matrix``: the same spectrum
        k = int(np.argmin(np.abs(lam)))
        rest = np.delete(lam, k)
        return float(np.abs(lam[k])), float(np.max(rest.real)) if rest.size else 0.0


@record(eq=False)
class TimeDependentLiouvillian:
    """Generator ``L(p) = constant + 2 Re(p loop)`` at loop phase ``p =
    exp(-i delta t)``, on coordinates (see :class:`Liouvillian`).

    Produced when the closed-loop detuning is nonzero: ``constant`` is real,
    at zero loop amplitude, and ``loop`` is the loop channel's upper coupling.
    :func:`evolve` integrates it from the two parts and ``delta``;
    :meth:`matrix` gives ``L`` at one time, for oracles and residuals.
    """

    constant: np.ndarray  # (d^2, d^2), real
    loop: np.ndarray  # (d^2, d^2), complex
    delta: float

    def _at(self, p):
        """Real ``L(p)`` at the loop phases ``p``."""
        return self.constant + 2.0 * (p * self.loop).real

    def matrix(self, t):
        """``L`` at time ``t`` (us), on column-major ``vec(rho)``."""
        return _to_basis(self._at(np.exp(-1j * self.delta * t)), inverse=True)

    def norm(self, t_end=math.inf):
        """Bound on ``||L(t)||`` for ``0 <= t <= t_end``, which tends to the
        closed-loop norm as delta goes to 0: ``L(p) - L(1) = 2 Re((p - 1)
        loop)`` with ``|p - 1| <= min(2, |delta| t)``."""
        swing = min(2.0, abs(self.delta) * t_end)
        return float(np.linalg.norm(self._at(1.0), 2) + 2.0 * swing * np.linalg.norm(self.loop, 2))


@record(eq=False)
class _GeneratorBasis:
    """``L(theta) = constant + sum_k theta_k channels_k`` in real form (see
    :class:`Liouvillian`), where channel k is the superoperator of its
    coupling ``exp(i phi_k)/2`` (upper triangle) plus the conjugate, ``2
    Re(loop)`` for the loop, and ``constant`` holds the lasers, the detunings
    and the dissipator. Every generator, one or a stack, is assembled here."""

    drive: DriveConfig  # the lasers, detunings and RF phases; no RF amplitude
    scheme: object
    constant: np.ndarray  # (d^2, d^2), real
    channels: np.ndarray  # (4, d^2, d^2), real
    loop: np.ndarray  # (d^2, d^2), complex

    def assemble(self, thetas):
        """Real generators at each row of the ``(B, 4)`` amplitudes."""
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
    generators of a map and a gain's linear response reuse one basis."""
    units = np.zeros((4, scheme.size, scheme.size), dtype=complex)
    for n, tr in enumerate(scheme.rf_transitions):
        units[n, tr.lower - 1, tr.upper - 1] = 0.5 * np.exp(1j * drive.rf_phases[n])
    constant = _hamiltonian_superop(build_hamiltonian(drive, scheme))
    eye = np.eye(scheme.size)
    for (src, dst, rate) in scheme.decay_channels:  # jump operators J = |dst><src|
        jump = np.zeros((scheme.size, scheme.size))
        jump[dst - 1, src - 1] = 1.0
        jj = jump.T @ jump
        constant += rate * (np.kron(jump, jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj, eye)))
    channels = _to_basis(_hamiltonian_superop(units + _dagger(units))).real
    loop = _to_basis(_hamiltonian_superop(units[_LOOP]))
    basis = _GeneratorBasis(drive, scheme, _to_basis(constant).real, channels, loop)
    for array in (basis.constant, basis.channels, basis.loop):
        array.setflags(write=False)
    return basis


def make_generator(drive, scheme):
    """Generator for the given drive: constant if the loop detuning is
    zero, otherwise the explicit two-part time-dependent form. Both
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
    constant = basis.assemble(theta)[0]
    return TimeDependentLiouvillian(constant, loop * basis.loop, drive.closed_loop_delta)


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
    p = np.eye(a.shape[-1], dtype=a.dtype) + a
    term = a
    for k in (2, 3, 4):
        term = term @ a / k
        p += term
    return p


#: Loop phases at which an open-loop propagator is sampled (odd).
_PHASES = 33


def _rk4_step_polynomial(generator, dt):
    """One RK4 step of a time-dependent generator as a polynomial in the
    loop phase.

    At ``t = n dt`` the generator is the real ``L(p)`` at loop phase ``p =
    exp(-i delta t)``, and the stage times multiply ``p`` by ``w = exp(-i
    delta dt/2)`` and ``w^2``. So the step less the identity is ``sum_k p^k
    E_k``, ``k = -4..4``, whose ``E_k`` a real FFT reads off the four stages
    run on real ``(9, d^2, d^2)`` stacks at the ninth roots of unity. The
    step is real, so ``E_-k = conj(E_k)`` and it is ``I + E_0 + 2 Re sum_k
    p^k E_k``, ``k = 1..4``: returned as ``E_0..E_4``, ``(5, d^2, d^2)``."""
    roots = np.exp(2j * np.pi * np.arange(9) / 9)[:, None, None]
    w = np.exp(-0.5j * generator.delta * dt)
    eye = np.eye(len(generator.constant))
    k1 = generator._at(roots)
    k2 = generator._at(roots * w) @ (eye + 0.5 * dt * k1)
    k3 = generator._at(roots * w) @ (eye + 0.5 * dt * k2)
    k4 = generator._at(roots * w * w) @ (eye + dt * k3)
    increments = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.fft.rfft(increments, axis=0) / 9.0  # E_k = mean of p^-k E(p)


def _phase_weights(theta):
    """Dirichlet weights from samples at the loop phases ``2 pi j / N`` to
    the value at ``theta``, exact on the band ``|K| <= N // 2``: an inverse
    FFT, so no removable zero, with unit sum, which keeps the trace."""
    w = np.fft.irfft(np.exp(-1j * theta * np.arange(_PHASES // 2 + 1)), _PHASES)
    return w / w.sum()


def _compose(first, second, shift, steps):
    """Samples of ``second(theta + shift) @ first(theta)``, and whether their
    band ``|K| > N/4`` is round-off next to ``K = 0`` (about ``0.3 steps
    eps`` after ``steps`` steps), so that the product composes exactly."""
    n = len(first)
    weights = _phase_weights(shift)[(np.arange(n) - np.arange(n)[:, None]) % n]
    product = np.tensordot(weights, second, axes=1) @ first
    c = np.fft.rfft(product.reshape(n, -1), axis=0)
    tail, head = np.abs(c[n // 4 + 1:]).max(), np.abs(c[0]).max()
    return product, tail <= 4.0 * steps * np.finfo(float).eps * head


def _gap_pieces(polynomial, phase_step, gap):
    """Pieces ``(samples, band limited, steps)``, applied in order, of the
    propagator over ``gap`` RK4 steps of ``polynomial``. The m-step
    propagator ``P_m(theta)`` from loop phase ``theta``, smooth and periodic
    so that a few samples hold it (Trefethen & Weideman, SIAM Rev. 56, 385
    (2014)), doubles by ``P_2m(theta) = P_m(theta + m phase_step) @
    P_m(theta)``, and the gap's set bits join an open product the same way,
    while band limited; a square that is not fills the rest of the gap."""
    square = np.eye(polynomial.shape[-1]) + np.fft.irfft(_PHASES * polynomial, _PHASES, axis=0)
    pieces, size, band_limited, left = [], 1, True, gap
    while left:
        if left & size or not band_limited:
            if band_limited and pieces and pieces[-1][1]:
                done = pieces[-1][2]
                product = _compose(pieces.pop()[0], square, done * phase_step, done + size)
                pieces.append((*product, done + size))
            else:
                pieces.append((square, band_limited, size))
            left -= size
        if left and band_limited:
            square, band_limited = _compose(square, square, size * phase_step, 2 * size)
            size *= 2
    return pieces


@record(eq=False)
class Trajectory:
    """Stored snapshots of an evolution run.

    Snapshots are trace-renormalized; the raw trace drift observed before
    renormalization is kept for diagnostics.
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
        i, j = (_position("Trajectory.coherence", n, self.matrices.shape[1]) for n in (i, j))
        return self.matrices[:, i, j]

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


def _clean(x):
    """Trace-normalized ``(..., d^2)`` coordinate vectors, and their trace drifts."""
    tr = x @ _trace_row(x.shape[-1])
    return x / tr[..., None], abs(tr - 1.0)


def _horizon_steps(t_end, dt):
    """Number of ``dt`` steps to ``t_end``, after checking both."""
    check_args("evolve", _EVOLVE_RULES, t_end=t_end, dt=dt)
    n_steps = round(_finite("evolve.dt: the step count", t_end / dt)) if t_end > 0 else 0
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"evolve: t_end = {t_end} is not an integer multiple of dt = {dt}")
    return n_steps


def _stability_record(dt, norms):
    """Instability per entry of ``norms`` where ``dt > 0.1 / ||L||``, with that bound (inf at 0)."""
    bounds = np.divide(0.1, norms, out=np.full(len(norms), np.inf), where=norms > 0.0)
    return np.where(dt > bounds, _UNSTABLE, 0), bounds


def evolve(rho0, generator, t_end, dt=DEFAULT_DT, max_snapshots=1001):
    """Integrate the master equation from ``rho0`` to ``t_end``.

    Fixed-step RK4 on real coordinates (see :class:`Liouvillian`), run by
    one snapshot loop that applies a propagator per gap, cached by gap
    length. For a constant generator it is the degree-4 Taylor propagator
    raised to the gap by binary matrix powering (identical algebra, far
    fewer Python-level steps). For a time-dependent generator the step
    depends on its index only through the loop phase, so the propagator is
    held as its values at ``_PHASES`` starting phases, built by doubling
    (see :func:`_gap_pieces`) and interpolated at the gap's phase. The tests
    keep the stage-by-stage loop as the reference. Each stored snapshot is
    trace-renormalized, and evolution continues from it.

    Parameters
    ----------
    rho0 : DensityMatrix
    generator : Liouvillian or TimeDependentLiouvillian
    t_end : float
        End time (us); finite, nonnegative and an integer multiple of ``dt``.
    dt : float
        Step (us); finite and positive, and rejected if it violates the
        stability bound ``dt <= 0.1 / ||L||`` (for a time-dependent generator
        ``||L||`` is its bound over the horizon, ``generator.norm(t_end)``).
    max_snapshots : int
        Cap on stored states, at least 2 (first and last always included).

    Returns
    -------
    Trajectory
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(np.asarray(rho0))
    n_steps = _horizon_steps(t_end, dt)
    check_args("evolve", _EVOLVE_RULES, max_snapshots=max_snapshots)
    if max_snapshots < MIN_SNAPSHOTS:
        raise ValueError(f"evolve.max_snapshots must be >= {MIN_SNAPSHOTS}, got {max_snapshots}")
    time_dependent = isinstance(generator, TimeDependentLiouvillian)
    norm = generator.norm(t_end) if time_dependent else generator.norm()
    _raise_first(*_stability_record(dt, np.array([norm])))

    x = _coordinates(rho0.matrix)
    if time_dependent:
        polynomial = _rk4_step_polynomial(generator, dt)
        phase_step = -generator.delta * dt
        pieces = functools.cache(lambda gap: _gap_pieces(polynomial, phase_step, gap))

        def advance(x, first, stop):
            for samples, _, steps in pieces(stop - first):
                x = np.tensordot(_phase_weights(first * phase_step), samples, axes=1) @ x
                first += steps
            return x
    else:
        p_step = taylor_propagator(generator.real_form, dt)
        power = functools.cache(lambda gap: np.linalg.matrix_power(p_step, gap))

        def advance(x, first, stop):
            return power(stop - first) @ x

    bounds = _snapshot_boundaries(n_steps, max_snapshots) if n_steps else [0]
    xs, drift = [], 0.0
    for first, stop in zip(bounds, bounds[1:]):
        x, d = _clean(advance(x, first, stop))
        drift = max(drift, d)
        xs.append(x)
    mats = np.concatenate([rho0.matrix[None], _matrices(np.reshape(xs, (-1, x.size)))])
    return Trajectory(np.asarray(bounds) * dt, mats, drift)


# ----------------------------------------------------------------------
# Stationary states and the fixed-horizon protocol on stacks of generators.
# Kernels return a record beside the results (see :data:`_REASONS`): per
# point a reason code, 0 or why that point raises when evaluated alone, and
# the number behind it, so no point fails the rest of a stack.

#: Points per stacked generator block: the stationary solve and the Taylor
#: powers hold a few ``(d^2, d^2)`` matrices per point, so on the 625-point
#: maps blocks of 16 cost about 1.5 MB of peak memory over one point at a
#: time, and the whole map in one stack about 70 MB. Blocks of 64 or 128
#: were no faster.
_BLOCK = 16


def _check_method(method):
    if method not in STEADY_STATE_METHODS:
        raise ValueError(f"unknown steady-state method {method!r}")


def _trace_row_system(generators):
    """The real generators with row 0 (redundant, since ``Tr o L = 0``)
    replaced by the trace, so that ``a @ x = e_0`` fixes ``Tr(rho) = 1``."""
    a = generators.copy()
    a[..., 0, :] = _trace_row(a.shape[-1])
    return a


#: Room for the estimate's shortfall: cond / est stayed below 100 on every lattice sampled.
_COND_MARGIN = 1e3


@functools.lru_cache(maxsize=4)
def _probes(n2):
    """Columns of unit 1-norm: ``e_0``, Higham's ``(-1)^i (1 + i/(n2 - 1))``, ``sin(i + 1)``."""
    i = np.arange(n2)
    r = np.stack([i == 0, (-1.0) ** i * (1 + i / (n2 - 1)), np.sin(i + 1.0)], axis=1)
    r /= np.abs(r).sum(axis=0)
    r.setflags(write=False)
    return r


def _stationary_vectors(generators):
    """Stationary coordinates of each real generator, solved on the trace-row
    system, the "direct" method of Johansson, Nation & Nori, Comput. Phys.
    Commun. 184, 1234 (2013), for the three :func:`_probes` at once: column 0
    of the inverse, and ``est = ||A||_1 max_j ||A^-1 r_j||_1 <= cond_1(A)``
    (Higham & Tisseur, SIAM J. Matrix Anal. Appl. 21, 1185 (2000)). A singular
    point or one with ``est * _COND_MARGIN >= 1/NULL_SPACE_TOL`` takes the SVD
    null space, which decides degeneracy; the record gives its dimension."""
    a = _trace_row_system(generators)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            solved = np.linalg.solve(a, _probes(a.shape[-1]))
        except np.linalg.LinAlgError:  # an exact zero pivot at one point fails the whole call
            singular = np.linalg.slogdet(a).sign == 0.0
            a[singular] = np.eye(a.shape[-1])
            solved = np.linalg.solve(a, _probes(a.shape[-1]))
            solved[singular] = np.nan
        est = np.linalg.norm(a, 1, axis=(-2, -1)) * np.abs(solved).sum(axis=-2).max(axis=-1)
    vecs = solved[..., 0]
    codes, dims = np.zeros(len(a), dtype=np.int8), np.ones(len(a))
    for k in np.flatnonzero(~(est < 1.0 / (_COND_MARGIN * NULL_SPACE_TOL))):
        basis = null_space(generators[k])
        if len(basis) == 1:
            vecs[k] = basis[0]
        else:
            codes[k], dims[k] = _DEGENERATE, len(basis)
    return vecs, (codes, dims)


def _evolve_vectors(generators, n, dt, norm_bounds):
    """``evolve(ground_state(), L, n * dt, dt, 2).final`` as vectors, for a
    stack: the stacked Taylor propagator's power ``n`` (a checked step count)
    applied, bit by bit, to the coordinates of ``|1><1|``, the first unit
    vector. Upper bounds ``norm_bounds`` clear points of the stability bound
    without an SVD; the exact norm decides the rest, so no decision changes.
    The record gives an unstable point's bound ``0.1 / ||L||``."""
    unclear = np.flatnonzero(~(dt * norm_bounds * (1.0 + 1e-9) <= 0.1))
    norms = np.zeros(len(generators))  # 0 clears a point
    if unclear.size:
        norms[unclear] = np.linalg.norm(generators[unclear], 2, axis=(-2, -1))
    record = _stability_record(dt, norms)
    ok = np.flatnonzero(record[0] == 0)
    vecs = np.zeros(generators.shape[:2])
    power, v = taylor_propagator(generators[ok], dt), vecs[ok, :, None]
    v[:, 0] = 1.0
    while n:
        if n & 1:
            v = power @ v
        n >>= 1
        if n:
            power = power @ power
    vecs[ok] = v[..., 0]
    return vecs, record


def _states(vecs, record):
    """Trace-normalized states of the coordinate vectors, NaN where a point failed."""
    failed = record[0][:, None] != 0
    return _matrices(_clean(np.where(failed, np.nan, vecs))[0]), record


def _only(states, record):
    """The state of a block of one, validated, or its failure raised."""
    _raise_first(*record)
    return DensityMatrix(states[0])


def _numerical_states(basis, thetas, method, t_end, dt):
    """Unvalidated ``(N, d, d)`` states of ``method`` at each row of the
    ``(N, 4)`` RF amplitudes on a basis, NaN at a failed point, with their
    record. The generator kernels run on stacks of :data:`_BLOCK` points.
    ``method`` is a checked one of :data:`STEADY_STATE_METHODS`. Errors
    shared by every point (a bad horizon, a time-dependent ``null_space``)
    raise ValueError; a time-dependent generator is evolved point by point,
    once its norm over the horizon clears the stability bound."""
    n = _horizon_steps(t_end, dt) if method == "evolve" else 0
    if basis.drive.closed_loop_delta != 0.0:
        if method == "null_space":
            raise ValueError(_NO_STATIONARY_FRAME)
        states = np.full((len(thetas),) + (basis.scheme.size,) * 2, np.nan, dtype=complex)
        codes, numbers = np.zeros(len(thetas), dtype=np.int8), np.zeros(len(thetas))
        for k, theta in enumerate(thetas):
            generator = make_generator(basis.drive.with_rf_rabi(theta), basis.scheme)
            (codes[k],), (numbers[k],) = _first(
                _trace_record(generator._at(1.0)[None]),
                _stability_record(dt, np.array([generator.norm(t_end)])))
            if not codes[k]:
                states[k] = evolve(ground_state(), generator, t_end, dt, 2).matrices[-1]
        return states, (codes, numbers)
    vecs, records = [], []
    for start in range(0, len(thetas), _BLOCK):
        rows = thetas[start:start + _BLOCK]
        generators = basis.assemble(rows)
        if method == "null_space":
            found = _stationary_vectors(generators)
        else:  # triangle-inequality bounds on ||L||, for theta >= 0
            found = _evolve_vectors(generators, n, dt, basis.norms[0] + rows @ basis.norms[1])
        vecs.append(found[0])
        records.append(_first(_trace_record(generators), found[1]))
    return _states(np.concatenate(vecs), tuple(np.concatenate(r) for r in zip(*records)))


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
    return _only(*_states(*_stationary_vectors(liouvillian.real_form[None])))


def _stationary_response(drive, scheme):
    """Stationary state at a drive point and its derivatives by the four RF
    amplitudes, ``(DensityMatrix, (4, d, d) array)``.

    Differentiating ``L(theta) x = 0`` gives ``L d_n x = -S_n x`` with
    ``S_n`` the channel superoperators of the generator basis; on the
    trace-row system, whose trace row asks ``Tr(d_n rho) = 0``, that is one
    factorization with four right-hand sides (exact linear response of the
    stationary state: Albert, Bradlyn, Fraas & Jiang, PRX 6, 041031 (2016)).
    """
    generator = make_generator(drive, scheme)
    rho = steady_state(generator)
    rhs = -(_generator_basis(drive, scheme).channels @ _coordinates(rho.matrix))
    rhs[:, 0] = 0.0
    return rho, _matrices(np.linalg.solve(_trace_row_system(generator.real_form), rhs.T).T)


def steady_state_numerical(drive, scheme, method="null_space", t_end=10.0, dt=DEFAULT_DT):
    """Full-decay numerical steady state at a drive point.

    ``method="null_space"`` solves the stationary problem directly (the
    converged state); ``method="evolve"`` integrates from the ground state
    to ``t_end`` and returns the final snapshot, which is what a
    fixed-horizon experiment sees. Either is the fidelity maps' path run
    on a block of one, so it equals a map cell.
    """
    _check_method(method)
    thetas = np.array([drive.rf_rabi])
    return _only(*_numerical_states(_generator_basis(drive, scheme), thetas, method, t_end, dt))
