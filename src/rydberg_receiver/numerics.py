"""Dense complex linear-algebra kernels and special functions.

Everything in this module is physics-agnostic: SVD-based null spaces,
positive-semidefinite matrix square roots and the exponential integral E1.

Storage convention
------------------
Matrices are dense ``numpy.ndarray`` values. Wherever a matrix is flattened
to a vector (or a vector reshaped back), the package uses column-major
stacking::

    vec(m)[i + rows * j] = m[i, j]        # zero-based i, j

i.e. ``m.reshape(-1, order="F")`` and ``v.reshape((rows, cols), order="F")``.
The Liouvillian construction in :mod:`rydberg_receiver.lindblad` relies on
this convention; do not mix in row-major flattening.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "TWO_PI",
    "null_space",
    "psd_sqrt",
    "exp_e1_scaled",
]

EULER_GAMMA = 0.57721566490153286061
TWO_PI = 6.283185307179586

# Relative tolerances; see the module docstring of each consumer for
# why these are safe (the zero mode of a valid generator is separated from
# the slowest decay by ~9.4e-4 in the package's internal units).
HERMITICITY_TOL = 1e-9
NULL_SPACE_TOL = 1e-9
PSD_CLAMP = -1e-10


def _as_square(m, name):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def null_space(m):
    """Orthonormal basis of the numerical kernel of a square matrix.

    Returns every right-singular vector ``v`` with ``norm(m @ v) <=
    NULL_SPACE_TOL * norm(m)`` where ``norm(m)`` is the spectral norm
    (largest singular value). For the zero matrix every direction
    qualifies.

    Parameters
    ----------
    m : array_like
        Square complex matrix.

    Returns
    -------
    list of numpy.ndarray
        Orthonormal kernel basis vectors; empty when the kernel is trivial.
    """
    m = _as_square(m, "null_space")
    if m.size == 0:
        return []
    _, s, vh = np.linalg.svd(m)
    scale = s[0]
    if scale == 0.0:
        return [vh[i].conj() for i in range(m.shape[0])]
    return [vh[i].conj() for i in range(len(s)) if s[i] <= NULL_SPACE_TOL * scale]


def psd_sqrt(m):
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in ``[PSD_CLAMP, 0)`` are clamped to zero: numerically
    produced steady states are PSD only up to solver noise. Anything below
    ``PSD_CLAMP`` is a genuine negativity and raises.

    Parameters
    ----------
    m : array_like
        Hermitian PSD matrix (within tolerances).

    Returns
    -------
    numpy.ndarray
        Hermitian PSD matrix ``r`` with ``r @ r`` equal to ``m`` up to
        round-off.

    Raises
    ------
    ValueError
        If the input is not square, not Hermitian within
        ``HERMITICITY_TOL`` (max elementwise ``|m - m^H|``), or has an
        eigenvalue below ``PSD_CLAMP``.
    """
    m = _as_square(m, "psd_sqrt")
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValueError(
            f"psd_sqrt: input is not Hermitian (max |m - m^H| = {dev:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e})"
        )
    # Symmetrize before factorizing so round-off in the input cannot leak
    # into complex eigenvalues.
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    if w.size and float(w[0]) < PSD_CLAMP:
        raise ValueError(
            f"psd_sqrt: matrix is not PSD (min eigenvalue {w[0]:.3e} below "
            f"clamp {PSD_CLAMP:.1e})"
        )
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ v.conj().T
    return (r + r.conj().T) / 2.0


def _e1_series(x):
    # E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^{k+1} x^k / (k * k!); the
    # series is alternating with rapidly shrinking terms for x <= 1.
    total = -EULER_GAMMA - math.log(x)
    term = 1.0  # holds (-x)^k / k!
    for k in range(1, 64):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _e1_cf(x):
    # Modified Lentz evaluation of the continued fraction
    #   e^x E1(x) = 1/(x+1- 1^2/(x+3- 2^2/(x+5- ...)))
    # which converges fast for x > 1 and never overflows.
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError(f"exp_e1_scaled: continued fraction failed to converge at x={x}")


def exp_e1_scaled(x):
    """Overflow-free scaled exponential integral exp(x) * E1(x), elementwise.

    The power series serves ``x <= 1``; for larger ``x``, where the product
    stays O(1/x) while its factors overflow and underflow, a modified-Lentz
    continued fraction computes the product directly. Used by the
    ergodic-rate closed form, whose argument is an inverse SNR that can be
    enormous at low transmit power. Raises ``ValueError`` unless every
    ``x > 0`` (E1 has a branch cut on the nonpositive axis).
    """
    x = np.asarray(x, dtype=float)
    bad = x[~(x > 0.0)]
    if bad.size:
        raise ValueError(f"exp_e1_scaled: domain requires x > 0, got {bad[0]}")
    out = np.array(
        [math.exp(v) * _e1_series(v) if v <= 1.0 else _e1_cf(v) for v in x.ravel().tolist()]
    ).reshape(x.shape)
    return out if out.ndim else float(out)
