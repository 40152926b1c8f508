"""Closed-form steady state of the resonant six-level receiver.

Under full resonance and with probe decay (channel 2 -> 1) as the only
dissipation, the stationary density matrix has an exact closed form in the
drive amplitudes. The key invariant is the loop imbalance::

    zeta = Omega_1 * Omega_3 - Omega_2 * Omega_4

which gates the probe coherence: at zeta = 0 the two RF paths around the
loop interfere destructively and the probe response vanishes. The common
denominator is::

    Lambda = zeta^2 gamma_21^2 + 2 Omega_P^4 Sigma_Omega^2
             + 2 [ (Omega_2^2 + Omega_3^2) Omega_C^2 + zeta^2 ] Omega_P^2

with ``Sigma_Omega^2 = sum_n Omega_n^2``. Every element below is
implemented term by term as published so this module can serve as an
independent oracle for the numerical engine; discrepancies between the two
are diagnostic signal and must not be papered over here.

Formulas accept numpy arrays in the RF amplitudes and broadcast, which the
receiver chain uses to evaluate megasample waveforms in one call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lindblad import _LAMBDA_ZERO, _REASONS, DensityMatrix, _raise_first


def zeta(rf_rabi):
    """Loop imbalance ``Omega_1 Omega_3 - Omega_2 Omega_4``.

    Accepts any 4-sequence (or broadcastable arrays); one rounding per
    product, so exactly balanced inputs give exactly 0.0.
    """
    o1, o2, o3, o4 = rf_rabi
    return o1 * o3 - o2 * o4


def _lambda_terms(omega_p, omega_c, rf_rabi, gamma_21):
    """Loop imbalance zeta and common denominator Lambda."""
    o1, o2, o3, o4 = rf_rabi
    z = zeta(rf_rabi)
    op2 = omega_p * omega_p
    lam = (
        z * z * gamma_21 * gamma_21
        + 2.0 * op2 * op2 * (o1 * o1 + o2 * o2 + o3 * o3 + o4 * o4)
        + 2.0 * ((o2 * o2 + o3 * o3) * omega_c * omega_c + z * z) * op2
    )
    return z, lam


@np.errstate(over="ignore", invalid="ignore")  # a non-finite gain is raised by its caller
def _rho21_gradient(omega_p, omega_c, rf_rabi, gamma_21):
    """``d rho_21 / d Omega_n`` for n = 1..4, the quotient rule on
    ``Im rho_21 = -Omega_P gamma_21 zeta^2 / Lambda`` with
    ``d zeta / d Omega = (Omega_3, -Omega_4, Omega_1, -Omega_2)``; exactly
    zero wherever the loop is balanced. Assumes Lambda > 0."""
    o1, o2, o3, o4 = rf_rabi
    z, lam = _lambda_terms(omega_p, omega_c, rf_rabi, gamma_21)
    op2 = omega_p * omega_p
    dz = np.array([o3, -o4, o1, -o2])
    dlam = 2.0 * z * dz * (gamma_21 * gamma_21 + 2.0 * op2) + 4.0 * op2 * (
        op2 * np.array([o1, o2, o3, o4]) + omega_c * omega_c * np.array([0.0, o2, o3, 0.0])
    )
    return -1j * (omega_p * gamma_21 * z * (2.0 * dz * lam - z * dlam) / (lam * lam))


def rho21_from_amplitudes(omega_p, omega_c, rf_rabi, gamma_21):
    """Steady-state probe coherence ``rho_21 = -i Omega_P gamma_21 zeta^2 / Lambda``.

    ``rf_rabi`` entries may be arrays: the result broadcasts over
    time-dependent RF amplitudes. Purely imaginary with nonpositive
    imaginary part for nonnegative inputs: the probe is absorbed, never
    amplified. Exactly zero whenever the loop is balanced (zeta = 0).
    Raises unless Lambda is positive at every sample (a NaN fails too).
    """
    z, lam = _lambda_terms(omega_p, omega_c, rf_rabi, gamma_21)
    if not np.all(lam > 0.0):
        raise ValueError(_REASONS[_LAMBDA_ZERO])
    return -1j * omega_p * gamma_21 * z * z / lam


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sample is recorded
def _closed_form(omega_p, omega_c, rf_rabi, gamma_21):
    """Unvalidated closed-form states of a block of samples (``rf_rabi``
    entries may be ``(B,)`` arrays), a ``(B, 6, 6)`` stack, with its record
    (see :data:`~rydberg_receiver.lindblad._REASONS`): a degenerate sample,
    Lambda = 0 or NaN, is held as NaN, with its Lambda."""
    z, lam = (np.atleast_1d(v) for v in _lambda_terms(omega_p, omega_c, rf_rabi, gamma_21))
    valid = lam > 0.0
    record = np.where(valid, 0, _LAMBDA_ZERO), lam
    lam = np.where(valid, lam, np.nan)
    op, oc, g = omega_p, omega_c, gamma_21
    o1, o2, o3, o4 = rf_rabi
    op2 = op * op
    op3 = op2 * op
    op4 = op2 * op2

    rho = np.zeros(lam.shape + (6, 6), dtype=complex)
    rho[:, 0, 0] = (z * z * g * g + ((o2 * o2 + o3 * o3) * oc * oc + z * z) * op2) / lam
    rho[:, 1, 1] = op2 * z * z / lam
    rho[:, 2, 2] = op4 * (o2 * o2 + o3 * o3) / lam
    rho[:, 3, 3] = op2 * (op2 * (o3 * o3 + o4 * o4) + oc * oc * o3 * o3) / lam
    rho[:, 4, 4] = op4 * (o1 * o1 + o4 * o4) / lam
    rho[:, 5, 5] = op2 * (op2 * (o1 * o1 + o2 * o2) + oc * oc * o2 * o2) / lam

    # imaginary entries as 1j * (real expression): one rounding per
    # operation, as the published expressions evaluate in real arithmetic
    rho[:, 1, 0] = -1j * (op * z * z * g / lam)
    rho[:, 2, 0] = -op3 * oc * (o2 * o2 + o3 * o3) / lam
    rho[:, 3, 0] = 1j * (op * oc * o3 * z * g / lam)
    rho[:, 4, 0] = op3 * oc * (o1 * o2 + o3 * o4) / lam
    rho[:, 5, 0] = -1j * (op * oc * o2 * z * g / lam)
    rho[:, 3, 1] = -op2 * oc * o3 * z / lam
    rho[:, 5, 1] = op2 * oc * o2 * z / lam
    rho[:, 4, 2] = -op4 * (o1 * o2 + o3 * o4) / lam
    rho[:, 5, 3] = -op2 * (op2 * (o2 * o3 + o1 * o4) + oc * oc * o2 * o3) / lam

    lower = np.tril(rho, -1)
    rho = rho * np.eye(6) + lower + np.conj(np.swapaxes(lower, -1, -2))
    rho[~valid] = np.nan
    return rho, record


class AnalyticContext(NamedTuple):
    """A drive and its probe decay: the argument of the one-argument call
    ``analytic_steady_state(ctx)`` that ``bench/checks.py`` still makes."""

    drive: object
    gamma_21: float

    @classmethod
    def from_drive(cls, drive, gamma_21):
        return cls(drive, gamma_21)


def analytic_steady_state(drive, scheme=None):
    """Full closed-form stationary density matrix at a resonant drive.

    The call shape of :func:`~rydberg_receiver.lindblad.steady_state_numerical`,
    so an oracle check reads ``fidelity(steady_state_numerical(d, s),
    analytic_steady_state(d, s))``. Of ``scheme`` the closed form reads
    only the probe decay gamma_21 = ``scheme.decay_rate(2, 1)``, the one
    dissipation of the reduced model. It is omitted only when ``drive`` is
    an :class:`AnalyticContext`, which carries gamma_21 itself.

    Populations and the nine structurally nonzero lower-triangle coherences
    are assembled term by term; the remaining coherences
    (3,2), (4,3), (5,2), (6,3), (5,4), (6,5) vanish identically. The upper
    triangle follows by conjugation. The populations share the denominator
    Lambda and their numerators sum to it, so the trace is 1 up to one
    rounding per element. The stacked builder behind it serves whole
    blocks of fidelity-map points.

    Returns
    -------
    DensityMatrix
    """
    if isinstance(drive, AnalyticContext):
        drive, gamma_21 = drive
    else:
        gamma_21 = scheme.decay_rate(2, 1)
    rho, record = _closed_form(drive.omega_p, drive.omega_c, drive.rf_rabi, gamma_21)
    _raise_first(*record)
    return DensityMatrix(rho[0])
