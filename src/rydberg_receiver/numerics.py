"""Dense linear-algebra kernels and special functions.

Everything in this module is physics-agnostic: SVD-based null spaces,
positive-semidefinite matrix square roots, the exponential integral E1, the
inclusive step lattice and the CSV table writer.

Storage convention
------------------
Matrices are dense ``numpy.ndarray`` values. Wherever a matrix is flattened
to a vector (or a vector reshaped back), the package uses column-major
stacking::

    vec(m)[i + rows * j] = m[i, j]        # zero-based i, j

i.e. ``m.reshape(-1, order="F")`` and ``v.reshape((rows, cols), order="F")``.
The Liouvillian construction in :mod:`rydberg_receiver.lindblad` relies on
this convention; do not mix in row-major flattening.

Every table the package exports goes through :func:`write_csv`: a bare
header line, one line of comma-joined printf cells per row, CRLF line
ends. It formats its rows with the private module ``_csvrows``, whose
``%g`` kernel reproduces Python's ``%`` byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061
TWO_PI = 6.283185307179586

# Relative tolerances; see the module docstring of each consumer for
# why these are safe (the zero mode of a valid generator is separated from
# the slowest decay by ~9.4e-4 in the package's internal units).
HERMITICITY_TOL = 1e-9
NULL_SPACE_TOL = 1e-9
#: Smallest eigenvalue a positive-semidefinite matrix may have: a state
#: is valid down to it, and roots clip everything above it to zero.
PSD_CLAMP = -1e-8

#: Cells formatted per write by :func:`write_csv` (at least one row), so a
#: table of any size costs a bounded amount of memory on top of its columns.
CSV_CHUNK_CELLS = 4096


def _as_square(m, name, dtype=complex):
    m = np.asarray(m, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def _finite(what, value):
    """The float ``value``; ValueError naming ``what`` unless it is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{what} {value} is not finite")
    return value


def _lattice(lo, hi, step, owner):
    """``lo, lo + step, ...`` up to ``hi`` inclusive, with 1e-9 of a step as slack."""
    count = _finite(f"{owner}: the step count", (hi - lo) / step + 1e-9)
    return lo + step * np.arange(math.floor(count) + 1)


def null_space(m):
    """Orthonormal basis of the numerical kernel of a square matrix.

    Returns every right-singular vector ``v`` with ``norm(m @ v) <=
    NULL_SPACE_TOL * norm(m)`` where ``norm(m)`` is the spectral norm
    (largest singular value). For the zero matrix every direction
    qualifies.

    Parameters
    ----------
    m : array_like
        Square real or complex matrix.

    Returns
    -------
    list of numpy.ndarray
        Orthonormal kernel basis vectors, real for a real matrix; empty when
        the kernel is trivial.
    """
    m = _as_square(m, "null_space", dtype=None)
    _, s, vh = np.linalg.svd(m)
    return [vh[i].conj() for i in range(len(s)) if s[i] <= NULL_SPACE_TOL * s[0]]


def _psd_roots(w, v):
    """Hermitian square roots of a stack of Hermitian matrices from their
    eigenpairs ``(w, v)`` as :func:`numpy.linalg.eigh` returns them,
    eigenvalues clipped at zero."""
    r = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return (r + np.conj(np.swapaxes(r, -1, -2))) / 2.0


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
        If the input is not square, has a non-finite entry, is not
        Hermitian within ``HERMITICITY_TOL`` (max elementwise
        ``|m - m^H|``), or has an eigenvalue below ``PSD_CLAMP``.
    """
    m = _as_square(m, "psd_sqrt")
    if m.size == 0:
        return m
    if not np.isfinite(m).all():
        raise ValueError("psd_sqrt: input has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITICITY_TOL:
        raise ValueError(
            f"psd_sqrt: input is not Hermitian (max |m - m^H| = {dev:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e})"
        )
    # Symmetrize before factorizing so round-off in the input cannot leak
    # into complex eigenvalues.
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    if w[0] < PSD_CLAMP:
        raise ValueError(
            f"psd_sqrt: matrix is not PSD (min eigenvalue {w[0]:.3e} below clamp {PSD_CLAMP:.1e})"
        )
    return _psd_roots(w, v)


def exp_e1_scaled(x):
    """Overflow-free scaled exponential integral exp(x) * E1(x), elementwise.

    The power series serves ``x <= 1``; for larger ``x``, where the product
    stays O(1/x) while its factors overflow and underflow, a modified-Lentz
    continued fraction computes the product directly. Used by the
    ergodic-rate closed form, whose argument is an inverse SNR that can be
    enormous at low transmit power; ``x = inf`` gives the limit 0. Raises
    ``ValueError`` unless every ``x > 0`` (E1 has a branch cut on the
    nonpositive axis). Each element runs its branch's scalar recurrence, with
    libm's ``ln`` and ``exp``, in a vector lane that stops at its own test.
    """
    x = np.asarray(x, dtype=float)
    bad = x[~(x > 0.0)]
    if bad.size:
        raise ValueError(f"exp_e1_scaled: domain requires x > 0, got {bad[0]}")
    flat = x.ravel()
    out = np.zeros(flat.shape)
    # E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^{k+1} x^k / (k * k!); the
    # series is alternating with rapidly shrinking terms for x <= 1.
    series = np.flatnonzero(flat <= 1.0)
    lane, v, term = series, flat[series], np.ones(series.size)  # term: (-x)^k / k!
    total = -EULER_GAMMA - np.array(list(map(math.log, v.tolist())))
    for k in range(1, 64):
        if not lane.size:
            break
        term *= -v / k
        contrib = -term / k
        total += contrib
        out[lane] = total
        keep = ~(np.abs(contrib) < 1e-18 * np.maximum(np.abs(total), 1e-300))
        lane, v, term, total = lane[keep], v[keep], term[keep], total[keep]
    out[series] *= list(map(math.exp, flat[series].tolist()))
    # Modified Lentz evaluation of the continued fraction
    #   e^x E1(x) = 1/(x+1- 1^2/(x+3- 2^2/(x+5- ...)))
    # which converges fast for x > 1 and never overflows.
    tiny = 1e-300
    lane = np.flatnonzero((flat > 1.0) & (flat < np.inf))
    b, c = flat[lane] + 1.0, np.full(lane.size, 1.0 / tiny)
    d = h = 1.0 / b
    for i in range(1, 200):
        if not lane.size:
            break
        a = -float(i * i)
        b = b + 2.0
        d = a * d + b
        d[d == 0.0] = tiny
        c = b + a / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-15
        out[lane[done]] = h[done]
        keep = ~done
        lane, b, c, d, h = lane[keep], b[keep], c[keep], d[keep], h[keep]
    if lane.size:
        x0 = flat[lane[0]]
        raise RuntimeError(f"exp_e1_scaled: continued fraction failed to converge at x={x0}")
    return out.reshape(x.shape) if x.ndim else float(out[0])


def write_csv(path, header, fmt, blocks):
    """Write a table as CSV: the ``header`` line, then one ``fmt`` row per
    row of each block, every line ended by CRLF, as UTF-8.

    ``fmt`` is comma-joined printf cells such as ``"%.9g,%.12g"``, each
    ``%d``, ``%s`` or ``%.<p>g`` with ``p`` from 1 to 12; any other text
    raises ``ValueError``. Each block is a sequence of columns broadcast
    together; no blocks gives the header alone. A column may be a pair
    ``(values, index)``, standing for ``values[index]``: an axis repeated
    over a long-form table. A scalar column (a channel number, an
    architecture name) is the one-value pair ``(value, 0)``, repeated on
    every row of its block. The bytes are those of ``(fmt + "\r\n") % row``
    for every row: each value of a pair is formatted by ``%``, once, with
    the separator after it, and gathered by index, the other ``%g`` cells
    by the exact vector kernel of ``_csvrows`` and the other cells by ``%``.
    Rows are formatted ``CSV_CHUNK_CELLS // len(block)`` at a time (at
    least one) into a NUL-padded word matrix, whose NULs are deleted as the
    chunk is written; so no cell may contain a NUL.
    """
    # imported here, so that a process that writes no table does not compile it
    from ._csvrows import cell_words, format_rows, split_format

    cells = split_format(fmt)
    with open(path, "wb") as fh:
        fh.write((header + "\r\n").encode())
        for block in blocks:
            block = [c if isinstance(c, tuple) or np.ndim(c) else (np.reshape(c, 1), 0)
                     for c in block]
            # a pair's values are formatted once, separator included; its index gathers their words
            words = {k: cell_words(cells[k][0], np.asarray(c[0]))
                     for k, c in enumerate(block) if isinstance(c, tuple)}
            indexed = (c[1] if k in words else c for k, c in enumerate(block))
            columns = np.broadcast_arrays(np.empty(1), *indexed)[1:]  # scalars alone: one row
            step = max(1, CSV_CHUNK_CELLS // len(columns))
            for start in range(0, len(columns[0]), step):
                rows = slice(start, start + step)
                chunk = [words[k][c[rows]] if k in words else c[rows]
                         for k, c in enumerate(columns)]
                fh.write(format_rows(cells, chunk))
