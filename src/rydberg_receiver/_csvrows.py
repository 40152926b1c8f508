"""Byte-exact CSV rows for :func:`rydberg_receiver.numerics.write_csv`.

A row format is comma-joined cells, each ``%d``, ``%s`` or ``%.<p>g``. A
row's ``%g`` cells come from :func:`g_cells`, a numpy kernel that gives
the bytes of Python's ``"%.{p}g" % v`` for ``p <= 12`` and hands the cells
near a rounding tie back to ``%``; ``%d`` and ``%s`` cells are formatted by
``%``. ``write_csv`` imports this module at its first write, so a process
that writes no table does not compile it.

Each chunk of rows is laid out in a matrix of 8-byte words, one row per
table row, in which every cell takes whole words, NUL-padded, with the
separator after it (a comma, or the row's CRLF) inside its own words;
deleting the NULs leaves the CSV bytes.
"""

import functools
import re

import numpy as np

#: One cell of a row format: ``%d``, ``%s`` or ``%.<p>g``.
CELL = re.compile(r"%(?:\.([0-9]+)g|[ds])")
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
    """The cells of the row ``fmt + "\r\n"``: for each comma-joined cell
    of ``fmt``, its printf piece with the separator after it (``"%.9g,"``,
    ``"%d\r\n"``) and its ``%g`` precision (0 for ``%d`` and ``%s``).

    Raises ``ValueError`` unless every cell is ``%d``, ``%s`` or ``%.<p>g``
    with ``p`` from 1 to 12.
    """
    cells = fmt.split(",")
    found = [CELL.fullmatch(cell) for cell in cells]
    if not all(m and (m[1] is None or 1 <= int(m[1]) <= MAX_DIGITS) for m in found):
        raise ValueError(f"write_csv: unsupported conversion in {fmt!r}")
    ends = [","] * (len(cells) - 1) + ["\r\n"]
    return tuple((cell + end, int(m[1] or 0)) for cell, end, m in zip(cells, ends, found))


def cell_words(piece, values):
    """The cells ``piece % v`` of ``values``, NUL-padded to whole 8-byte
    words: a ``(len(values), words)`` uint64 array."""
    strings = [(piece % v).encode() for v in values.tolist()]
    width = max(1, -(-max(map(len, strings), default=0) // 8))
    return np.array(strings, dtype=f"S{8 * width}").view(np.uint64).reshape(len(strings), width)


def format_rows(cells, columns):
    """CSV bytes of the rows of ``columns``, column ``k`` formatted by
    ``cells[k]`` of :func:`split_format`. A column may come formatted, as
    the :func:`cell_words` of its rows."""
    columns = [c if c.ndim == 2 or cell[1] else cell_words(cell[0], c)
               for cell, c in zip(cells, columns)]
    widths = tuple(c.shape[1] if c.ndim == 2 else 0 for c in columns)
    offsets, floats, p, tails = _row_layout(cells, widths)
    n, width = len(columns[0]), offsets[-1]
    # a bytearray holds the matrix, so the NULs are deleted without a copy
    buf = bytearray(8 * n * width)
    matrix = np.frombuffer(buf, np.uint64).reshape(n, width)
    for k, column in enumerate(columns):
        if column.ndim == 2:
            matrix[:, offsets[k]:offsets[k + 1]] = column
    if floats:
        first = offsets[list(floats), None] + width * np.arange(n)
        x = np.array([columns[k] for k in floats], dtype=float)
        g_cells(x, p, tails, matrix.reshape(-1), first)
    return buf.translate(None, b"\0")


@functools.lru_cache(maxsize=64)
def _row_layout(cells, widths):
    """Where each cell of a CSV row goes in its row of 8-byte words.

    ``widths[k]`` is the words of cell ``k`` if it comes formatted, 0 if
    the kernel formats it. Returns each cell's first word and, last, the
    row's width (``offsets``), and for the kernel cells (``floats``) their
    precisions ``p`` and ``tails``: the separator, in the top bytes of the
    cell's last word.
    """
    floats = tuple(k for k, w in enumerate(widths) if not w)
    ends = [cells[k][0].partition("g")[2].encode() for k in floats]
    layout = (
        np.cumsum([0] + [w or CELL_WORDS for w in widths]),
        floats,
        np.array([cells[k][1] for k in floats])[:, None],
        np.frombuffer(b"".join(bytes(5) + end.ljust(3, b"\0") for end in ends), np.uint64)[:, None],
    )
    for part in layout:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return layout


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
