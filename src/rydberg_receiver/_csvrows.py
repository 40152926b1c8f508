"""Byte-exact CSV rows for :func:`rydberg_receiver.numerics.write_csv`.

A row's ``%g`` cells come from :func:`g_cells`, a numpy kernel that gives
the bytes of Python's ``"%.{p}g" % v`` for ``p <= 12`` and hands the cells
near a rounding tie back to ``%``; ``%d`` and ``%s`` cells are formatted by
``%``. ``write_csv`` imports this module at its first write, so a process
that writes no table does not compile it.

Each chunk of rows is laid out in a matrix of 8-byte words, one row per
table row, in which every part of the row (literal text, a cell) takes
whole words, NUL-padded; deleting the NULs leaves the CSV bytes.
"""

import functools
import re

import numpy as np

#: A row format's conversions: ``%d``, ``%s`` and ``%.<p>g``.
CONVERSION = re.compile(r"%(\.\d+g|[ds])")
#: Most significant digits of a ``%g`` cell the kernel formats: a mantissa
#: below 10**12 is scaled with an error under 2.3e-4, so a cell that the
#: kernel rounds (more than 1e-3 from a tie) rounds as the exact value does.
MAX_DIGITS = 12
#: Bound on the decimal exponent ``|e|`` of a kernel cell, so the value and
#: its scale ``10**(p-1-e)`` are normal floats.
MAX_EXPONENT = 280
#: 8-byte words per kernel cell: the sign and ``0.000`` prefix, 12 digits
#: each followed by a byte for the point, and the ``e-123`` exponent.
CELL_WORDS = 5


def split_format(fmt):
    """The row ``fmt + "\r\n"`` split by :data:`CONVERSION`: literal text
    at even indices, conversions such as ``.9g`` at odd ones.

    Raises ``ValueError`` for any other ``%`` conversion, and for ``%g``
    precisions outside 1 to 12.
    """
    pieces = CONVERSION.split(fmt + "\r\n")
    if any("%" in text for text in pieces[::2]) or any(
        c.endswith("g") and not 1 <= int(c[1:-1]) <= MAX_DIGITS for c in pieces[1::2]
    ):
        raise ValueError(f"write_csv: unsupported conversion in {fmt!r}")
    return pieces


def cell_words(conversion, values):
    """The cells ``("%" + conversion) % v`` of ``values``, NUL-padded to
    whole 8-byte words: a ``(len(values), words)`` uint64 array."""
    strings = [(("%" + conversion) % v).encode() for v in values.tolist()]
    width = max(1, -(-max(map(len, strings), default=0) // 8))
    return np.array(strings, dtype=f"S{8 * width}").view(np.uint64).reshape(len(strings), width)


def format_rows(literals, conversions, columns):
    """CSV bytes of the rows of ``columns``, formatted by ``conversions``,
    with ``literals[k]`` before column ``k`` and ``literals[-1]`` after the
    last. A column of ``%d``/``%s`` cells may come formatted, as the
    :func:`cell_words` of its rows."""
    others = {  # the %d and %s cells, and those formatted beforehand
        k: column if column.ndim == 2 else cell_words(conversion, column)
        for k, (conversion, column) in enumerate(zip(conversions, columns))
        if conversion[-1] != "g"
    }
    template, offsets, floats, p, tails = _row_layout(
        literals, conversions, tuple(c.shape[1] for c in others.values())
    )
    n = len(columns[0])
    # a bytearray holds the matrix, so the NULs are deleted without a copy
    buf = bytearray(8 * n * template.size)
    matrix = np.frombuffer(buf, np.uint64).reshape(n, template.size)
    matrix[:] = template
    for k, cells in others.items():
        matrix[:, offsets[k]:offsets[k] + cells.shape[1]] = cells
    if floats:
        first = offsets[list(floats), None] + template.size * np.arange(n)
        x = np.array([columns[k] for k in floats], dtype=float)
        g_cells(x, p, tails, matrix.reshape(-1), first)
    return buf.translate(None, b"\0")


@functools.lru_cache(maxsize=64)
def _row_layout(literals, conversions, widths):
    """Where each part of a CSV row goes in its row of 8-byte words.

    ``widths`` are the words of the ``%d``/``%s`` cells, in order. Returns
    the row ``template`` holding the literal bytes, each column's first word
    (``offsets``), and for the ``%g`` columns (``floats``) their precisions
    ``p`` and ``tails``: a literal of up to 3 bytes after a ``%g`` cell
    rides in the top bytes of the cell's last word.
    """
    row, offsets, floats, p, tails = [_words(literals[0])], [], [], [], []
    width, others = row[0].size, iter(widths)
    for k, (conversion, text) in enumerate(zip(conversions, literals[1:])):
        offsets.append(width)
        if conversion[-1] == "g":
            floats.append(k)
            p.append(int(conversion[1:-1]))
            fold = len(text) <= 3
            tails.append(_words(bytes(5) + text)[0] if fold else 0)
            text = b"" if fold else text
            words = CELL_WORDS
        else:
            words = next(others)
        row += [np.zeros(words, np.uint64), _words(text)]
        width += words + row[-1].size
    layout = (
        np.concatenate(row),
        np.array(offsets),
        tuple(floats),
        np.array(p)[:, None],
        np.array(tails, dtype=np.uint64)[:, None],
    )
    for part in layout:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return layout


def _words(text):
    """``text`` NUL-padded to whole 8-byte words, as uint64."""
    return np.frombuffer(text.ljust(8 * -(-len(text) // 8), b"\0"), np.uint64)


@functools.cache
def _g_tables():
    """Read-only lookup tables of :func:`g_cells`, byte strings as 8-byte
    uint64 words: ``(groups, digits, masks, heads, exponents, powers)``.

    - ``groups[g]`` spells the 4-digit group ``g`` with a ``.`` after each
      digit; ``g = 10000`` spells ``1000``, the top group of a carry.
    - ``digits[g + 10001 * j]`` counts the digits of a 12-digit mantissa
      up to the last nonzero one of ``g`` as its group ``j``; 0 if ``g`` is 0.
    - ``masks[j, 13 * k + q]`` keeps, of group ``j``'s word, the digits
      among the first ``k`` of the mantissa and the ``.`` after digit ``q``
      (``q = 12``: none).
    - ``heads[2 * (e + MAX_EXPONENT) + negative]`` is the sign and, for
      ``-4 <= e < 0``, the ``0.``, ``0.0``, ... that precedes the digits.
    - ``exponents[e + MAX_EXPONENT]`` is ``e%+03d``; the last word is empty.
    - ``powers[k + MAX_EXPONENT + 20]`` is the float nearest ``10**k``.
    """

    def pack(strings):
        return np.frombuffer(b"".join(s.ljust(8, b"\0") for s in strings), np.uint64)

    g = np.append(np.arange(10000, dtype=np.int16), 1000)  # the carry's group spells 1000
    digit = (g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.int8)
    nonzero = digit != 0
    used = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 0).astype(np.int8)
    spelled = np.full((10001, 4, 2), ord("."), np.uint8)
    spelled[..., 0] = digit + ord("0")
    # mask [group j, kept k, point q, digit i, digit or point byte]
    position = (4 * np.arange(3)[:, None] + np.arange(4))[:, None, None, :]
    k = np.arange(13)
    masks = np.zeros((3, 13, 13, 4, 2), np.uint8)
    masks[..., 0] = 0xFF * (position < k[:, None, None])
    masks[..., 1] = 0xFF * (position == k[:, None])
    exps = range(-MAX_EXPONENT, MAX_EXPONENT + 1)
    prefix = {e: b"0." + b"0" * (-e - 1) for e in range(-4, 0)}
    tables = (
        spelled.reshape(-1, 8).view(np.uint64).ravel(),
        np.concatenate([np.where(used > 0, used + 4 * j, 0).astype(np.int8) for j in range(3)]),
        masks.reshape(3, -1, 8).view(np.uint64)[..., 0],
        pack([sign + prefix.get(e, b"") for e in exps for sign in (b"", b"-")]),
        pack([b"e%+03d" % e for e in exps] + [b""]),
        np.array([float("1e%d" % k) for k in range(-MAX_EXPONENT - 20, MAX_EXPONENT + 21)]),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def g_cells(x, p, tails, out, first):
    """Write ``"%.{p}g" % v`` for every value of ``x`` into ``out``, byte-exact.

    ``x`` is a ``(columns, rows)`` float array and ``p`` a ``(columns, 1)``
    integer array of precisions from 1 to 12. The cell of ``x[j, i]`` takes
    the ``CELL_WORDS`` uint64 words of the flat array ``out`` from index
    ``first[j, i]`` on, its bytes NUL-padded in place; the cell leaves the
    top 3 bytes of its last word NUL, and ``tails[j, 0]`` fills them.

    With ``e = floor(log10|v|)``, corrected by one where the scaled value
    leaves ``[10**(p-1), 10**p)``, the mantissa ``|v| * 10**(p-1-e)`` is
    rounded to an integer; a carry to ``10**p`` bumps ``e``. The digits are
    laid out by ``%g``'s rules: scientific when ``e < -4`` or ``e >= p``,
    trailing zeros stripped, no point without a digit after it. The
    mantissa's float error is below 2.3e-4 (two roundings at ``10**12``),
    so a mantissa more than 1e-3 from a tie rounds as the exact value does.
    The cells within 1e-3 of a tie (about 0.2% of uniformly spread
    fractions), zeros, non-finite values and ``|e| >= 280`` are formatted by
    ``%`` instead.
    """
    groups, digits, masks, heads, exponents, powers = _g_tables()
    off = MAX_EXPONENT + 20
    a = np.abs(x)
    ok = (a >= 10.0 ** -MAX_EXPONENT) & (a < 10.0 ** MAX_EXPONENT)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    lo, hi = powers[off + p - 1], powers[off + p]
    m = a * powers[(off - 1) + p - e]
    fix = (m < lo) | (m >= hi)  # log10 rounded across a power of ten
    if fix.any():
        e[fix] += np.where(m[fix] < np.broadcast_to(lo, m.shape)[fix], -1, 1)
        m[fix] = a[fix] * powers[((off - 1) + p - e)[fix]]
    n = np.rint(m)
    ok &= np.abs(m - n) < 0.499
    # the 12-digit mantissa as three 4-digit groups, exactly in float
    n *= powers[off + MAX_DIGITS - p]
    g0 = np.floor(n / 1e8)
    n -= g0 * 1e8
    g1 = np.floor(n / 1e4)
    n -= g1 * 1e4
    g = (g0.astype(np.intp), g1.astype(np.intp), n.astype(np.intp))
    e += g[0] == 10000
    sci = (e < -4) | (e >= p)
    # the significant digits, and the zeros of an integer part beyond them
    shown = np.maximum(np.maximum(digits[g[0]], digits[g[1] + 10001]), digits[g[2] + 20002])
    shown = np.maximum(shown, np.where(sci, 0, e + 1))
    # the point follows digit q = e, or 0 in scientific notation, if a digit follows it
    q = np.where(sci, 0, e)
    q[(q < 0) | (q + 1 >= shown)] = 12
    code = 13 * shown + q
    out[first] = heads[2 * (e + MAX_EXPONENT) + (x < 0)]
    for j in range(3):
        out[first + (1 + j)] = groups[g[j]] & masks[j][code]
    out[first + 4] = exponents[np.where(sci, e + MAX_EXPONENT, -1)] | tails
    rest = np.nonzero(~ok)
    if rest[0].size:
        pairs = zip(np.broadcast_to(p, x.shape)[rest].tolist(), x[rest].tolist())
        text = np.array([b"%.*g" % pair for pair in pairs], f"S{8 * CELL_WORDS - 8}")
        words = np.empty((len(text), CELL_WORDS), np.uint64)
        words[:, :-1] = text.view(np.uint64).reshape(len(text), -1)
        words[:, -1] = tails[rest[0], 0]
        out[first[rest][:, None] + np.arange(CELL_WORDS)] = words
