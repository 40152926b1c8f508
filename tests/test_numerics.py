"""Linear-algebra kernels, the exponential integral and the CSV writer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from rydberg_receiver._csvrows import _row_layout, cell_words, g_cells, split_format
from rydberg_receiver.numerics import (
    CSV_CHUNK_CELLS,
    exp_e1_scaled,
    null_space,
    psd_sqrt,
    write_csv,
)


class TestExpIntegral:
    def test_against_scipy_oracle(self):
        # both-branch coverage: series (x <= 1) and continued fraction (x > 1)
        x = np.logspace(-6, np.log10(700.0), 400)
        ours = exp_e1_scaled(x)
        ref = np.exp(x) * exp1(x)
        assert np.allclose(ours, ref, rtol=1e-12, atol=0.0)

    def test_reference_value_at_one(self):
        # E1(1), 14 digits (standard tabulated value)
        assert exp_e1_scaled(1.0) / np.e == pytest.approx(0.21938393439552, abs=1e-13)

    def test_branch_continuity(self):
        below = exp_e1_scaled(1.0 - 1e-13)
        above = exp_e1_scaled(1.0 + 1e-13)
        assert abs(below - above) < 1e-12

    def test_nonpositive_rejected(self):
        for bad in (0.0, -3.0, np.nan, [1.0, 0.0]):
            with pytest.raises(ValueError, match="domain"):
                exp_e1_scaled(bad)

    def test_array_matches_scalar_calls(self):
        x = np.array([[1e-300, 0.05, 1.0 - 1e-13, 1.0], [1.0 + 1e-13, 20.0, 700.0, 1e300]])
        out = exp_e1_scaled(x)
        assert out.shape == x.shape
        scalars = [exp_e1_scaled(float(v)) for v in x.ravel()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(out.ravel(), scalars)
        assert exp_e1_scaled(np.empty(0)).shape == (0,)

    def test_bit_equal_to_scalar_reference(self, literal_e1):
        edges = [1e-300, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e300]
        for x in (np.array(edges), np.logspace(-6, 4, 4000)):
            assert np.array_equal(exp_e1_scaled(x), literal_e1(x))
        for v in edges:
            assert exp_e1_scaled(float(v)) == literal_e1(float(v))

    def test_concatenation_bit_equal_to_pieces(self):
        # each lane runs its own recurrence, so one call over several
        # argument arrays equals a call per array
        rng = np.random.default_rng(26)
        pieces = [
            10.0 ** rng.uniform(-8, 4, 700),
            np.array([1.0, np.nextafter(1.0, 2.0), np.inf, 1e300, 1e-300]),
            10.0 ** rng.uniform(-1, 1, (30, 9)),
            np.empty(0),
        ]
        whole = exp_e1_scaled(np.concatenate([x.ravel() for x in pieces]))
        split = np.split(whole, np.cumsum([x.size for x in pieces])[:-1])
        for x, part in zip(pieces, split):
            assert np.array_equal(part.reshape(x.shape), exp_e1_scaled(x))

    def test_infinity_is_the_limit(self):
        # e^x E1(x) ~ 1/x -> 0; the SNR of a subnormal mean power inverts to inf
        assert exp_e1_scaled(np.inf) == 0.0
        assert type(exp_e1_scaled(np.inf)) is float
        assert np.array_equal(exp_e1_scaled([np.inf, 1.0]), [0.0, exp_e1_scaled(1.0)])

    def test_scaled_variant_no_overflow(self):
        # e^x E1(x) ~ 1/x - 1/x^2 + 2/x^3 for large x; plain e^x overflows
        x = 1e6
        assert exp_e1_scaled(x) == pytest.approx(1 / x - 1 / x**2 + 2 / x**3, rel=1e-6)
        assert np.isfinite(exp_e1_scaled(1e300))

    def test_derivative_identity(self):
        # d/dx [e^x E1(x)] = e^x E1(x) - 1/x
        x, h = 3.7, 1e-6
        fd = (exp_e1_scaled(x + h) - exp_e1_scaled(x - h)) / (2 * h)
        assert fd == pytest.approx(exp_e1_scaled(x) - 1 / x, rel=1e-7)


class TestNullSpace:
    def test_known_kernel(self):
        # rank-2 3x3 with kernel along (1, -2, 1)/sqrt(6)
        m = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 2.0]])
        m = np.vstack([m, m.sum(axis=0)])
        vecs = null_space(m)
        assert len(vecs) == 1
        v = vecs[0]
        assert np.linalg.norm(m @ v) < 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_full_rank_empty(self):
        assert null_space(np.eye(4)) == []

    def test_empty_matrix_empty_basis(self):
        assert null_space(np.zeros((0, 0))) == []

    def test_zero_matrix_full_basis(self):
        vecs = null_space(np.zeros((3, 3)))
        assert len(vecs) == 3

    def test_complex_kernel_conjugation(self):
        # kernel vector of a complex matrix must actually satisfy m v = 0
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        m = b @ b.conj().T  # rank 3, one-dimensional kernel
        vecs = null_space(m)
        assert len(vecs) == 1
        assert np.linalg.norm(m @ vecs[0]) < 1e-10


class TestPsdSqrt:
    def test_square_recovers(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = b @ b.conj().T
        s = psd_sqrt(m)
        assert np.allclose(s @ s, m, atol=1e-10 * np.linalg.norm(m))
        assert np.allclose(s, s.conj().T, atol=1e-12)

    def test_tiny_negative_eigenvalue_clamped(self):
        m = np.diag([1.0, -1e-12])
        s = psd_sqrt(m)
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-6)

    def test_genuinely_indefinite_rejected(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_rejects_non_hermitian(self):
        # PSD once symmetrized, so only the Hermiticity check can reject it
        with pytest.raises(ValueError, match="not Hermitian"):
            psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            psd_sqrt(np.zeros((2, 3)))

    @pytest.mark.parametrize("diagonal", [[np.nan, 1.0], [np.inf, 0.0]])
    def test_rejects_non_finite(self, diagonal):
        # a NaN used to give an all-NaN root, an inf a RuntimeWarning
        with pytest.raises(ValueError, match="non-finite"):
            psd_sqrt(np.diag(diagonal))


PRECISIONS = (6, 9, 12)


def _g_strings(x, p):
    """Each value of the ``(columns, rows)`` array ``x`` as the kernel
    formats it at the column's precision ``p[j, 0]``, one list per column."""
    out = np.full(x.size * 5, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)  # every byte is written
    g_cells(x, p, np.zeros((len(x), 1), np.uint64), out, 5 * np.arange(x.size).reshape(x.shape))
    cells = [w.tobytes().replace(b"\0", b"").decode() for w in out.reshape(-1, 5)]
    return [cells[j * x.shape[1]:(j + 1) * x.shape[1]] for j in range(x.shape[0])]


def _assert_g_exact(values, p):
    values = np.asarray(values, dtype=float)
    expected = ["%.*g" % (p, v) for v in values.tolist()]
    assert _g_strings(values[None, :], np.array([[p]]))[0] == expected


def _near_ties(rng, p, count, exponent_range=(-20, 20)):
    """Values whose p-digit mantissa lies within 1e-3 of a rounding tie,
    the cells where scaled float arithmetic could round either way."""
    mantissa = rng.integers(10 ** (p - 1), 10**p, count) + 0.5
    mantissa += rng.uniform(-2e-3, 2e-3, count) * (rng.random(count) < 0.7)
    return mantissa * 10.0 ** (rng.integers(*exponent_range, count) - (p - 1))


class TestGeneralFormatKernel:
    """``g_cells`` against Python's ``"%.{p}g" % v``, byte for byte."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(min_value=-1e15, max_value=1e15),
                st.floats(min_value=-1e-3, max_value=1e-3),
            ),
            min_size=1,
            max_size=50,
        ),
        p=st.sampled_from(PRECISIONS),
    )
    def test_matches_percent_format(self, values, p):
        _assert_g_exact(values, p)

    @pytest.mark.parametrize("p", PRECISIONS)
    def test_specials(self, p):
        tiny = np.finfo(float).smallest_subnormal
        _assert_g_exact([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-280, 9.99e279, 1e280,
                         -1e300, np.finfo(float).max, 2.0**-1022], p)

    @pytest.mark.parametrize("p", PRECISIONS)
    def test_exact_and_near_ties(self, p):
        rng = np.random.default_rng(25 + p)
        ties = (2 * rng.integers(10 ** (p - 1), 10**p, 2000) + 1) / 2  # N + 1/2, exactly
        eighths = rng.integers(-(10 ** (p + 1)), 10 ** (p + 1), 4000) / 8
        _assert_g_exact(np.concatenate([ties, ties * 10.0, -ties * 1000.0, eighths]), p)
        _assert_g_exact(_near_ties(rng, p, 20000), p)

    @pytest.mark.parametrize("p", PRECISIONS)
    def test_notation_switch_and_carries(self, p):
        # %g is fixed for -4 <= e < p and scientific otherwise, with e taken
        # after rounding: values just below a power of ten carry into it
        edges = 10.0 ** np.array([-6, -5, -4, -3, 0, p - 2, p - 1, p, p + 1])
        below = edges * (1 - 0.5 * 10.0**-p)
        values = np.concatenate([edges, below, np.nextafter(below, 0), np.nextafter(below, 2 * edges),
                                 np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        carries = [9.9999999999995e-7, 999999.5, 0.00099999995, 99999.95, 9999999.5, 99999999999.5,
                   0.000099999995, 999999999999.5, 1e11 - 0.5, 12340000.0, 1200.0, 100.0]
        _assert_g_exact(np.concatenate([values, -values, carries]), p)

    def test_log10_off_by_a_decade_is_corrected(self, monkeypatch):
        # the decade comes from floor(log10|v|); a log10 that rounds across a
        # power of ten is corrected by the range check on the scaled value
        rng = np.random.default_rng(5)
        values = rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)
        exact = np.log10
        skew = np.where(np.arange(values.size) % 2, 0.3, -0.3)  # 0.3 decades either way
        monkeypatch.setattr(np, "log10", lambda a: exact(a) + skew.reshape(a.shape))
        for p in PRECISIONS:
            _assert_g_exact(values, p)

    def test_random_magnitudes(self):
        rng = np.random.default_rng(2025)
        values = rng.standard_normal(30000) * 10.0 ** rng.integers(-300, 300, 30000)
        for p in PRECISIONS:
            _assert_g_exact(values, p)

    def test_mixed_precisions_in_one_call(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 14, 500)
        got = _g_strings(np.array([values, -values, values]), np.array([[6], [9], [12]]))
        for column, v, p in zip(got, (values, -values, values), PRECISIONS):
            assert column == ["%.*g" % (p, x) for x in v.tolist()]


class TestWriteCsv:
    def test_rows_match_percent_format(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10) * 10.0 ** rng.integers(-9, 9, 10)
        x[:3] = 0.0, np.nan, 1234565.0  # cells that % formats (a tie at %.6g)
        # each cell carries the separator after it: a comma, or the row's CRLF
        fmt = "%s,%d,%.6g,%.12g,%.9g"
        blocks = [
            ("tag", np.arange(10), x, -x, x),
            (np.array(["u", "vw"]), 3, 1.5, x[:2], 2.0),
            (np.array(["", ""]), 0, 0.25, x[:2], x[2:4]),
        ]
        rows = [("tag", k, a, -a, a) for k, a in enumerate(x.tolist())]
        rows += [("u", 3, 1.5, x[0], 2.0), ("vw", 3, 1.5, x[1], 2.0)]
        rows += [("", 0, 0.25, x[0], x[2]), ("", 0, 0.25, x[1], x[3])]
        path = tmp_path / "t.csv"
        write_csv(path, "name,k,a,b,c", fmt, blocks)
        expected = "name,k,a,b,c\r\n" + "".join((fmt + "\r\n") % row for row in rows)
        assert path.read_bytes() == expected.encode()

    def test_a_block_of_scalars_is_one_row(self, tmp_path):
        fmt, path = "%d,%.9g", tmp_path / "t.csv"
        write_csv(path, "a,b", fmt, [(3, 2.5), (np.arange(2), 0.5), (np.int64(4), np.float64(1 / 3))])
        rows = [(3, 2.5), (0, 0.5), (1, 0.5), (4, 1 / 3)]
        expected = "a,b\r\n" + "".join((fmt + "\r\n") % row for row in rows)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("fmt, blocks, counts", [
        ("%d,%d", [([1, 2],)], "1 columns for 2 cells"),  # wrote the row "1,2," with no CRLF
        ("%d", [([1, 2], [3, 4])], "2 columns for 1 cells"),  # dropped a column
        ("%d", [([1],), ()], "0 columns for 1 cells"),  # ZeroDivisionError after the header
    ])
    def test_column_count_must_equal_cell_count(self, tmp_path, fmt, blocks, counts):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=counts):
            write_csv(path, "a,b", fmt, blocks)
        assert not path.exists()

    def test_a_short_cell_and_its_comma_share_a_word(self):
        # "1," is one word, so a demod row is 16 words wide, not 17
        cells = split_format("%d,%.9g,%.12g,%.12g")
        channels = cell_words(cells[0][0], np.arange(1, 5))
        assert _row_layout(cells, (channels.shape[1], 0, 0, 0))[0][-1] == 16

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_comma_joined_rows_match_row_writer(self, tmp_path_factory, literal_csv, data):
        # any comma-joined format of %d, %s and %.<p>g cells, over blocks
        # that mix arrays, scalars and (values, index) pairs
        kinds = {
            "%d": st.integers(-10**12, 10**12),
            "%s": st.text(alphabet="abXY-_ .\u00e9", min_size=1, max_size=12),
            "%g": st.floats(allow_nan=True, allow_infinity=True),
        }
        formats = data.draw(st.lists(
            st.sampled_from(["%d", "%s"]) | st.integers(1, 12).map("%.{}g".format),
            min_size=1, max_size=6,
        ))
        fmt, rows, blocks = ",".join(formats), [], []
        for _ in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(1, 9))
            shapes = data.draw(st.lists(st.sampled_from(["array", "scalar", "pair", "pair at"]),
                                        min_size=len(formats), max_size=len(formats)))
            if "array" not in shapes and "pair" not in shapes:
                shapes[0] = "array"
            block, table = [], []
            for f, shape in zip(formats, shapes):
                size = {"array": n, "scalar": 1}.get(shape)
                values = data.draw(st.lists(kinds[f[0] + f[-1]], min_size=size or 1,
                                            max_size=size or n))
                last = len(values) - 1
                if shape == "array":
                    block.append(np.array(values))
                elif shape == "scalar":
                    block.append(values[0])
                elif shape == "pair at":  # a scalar index
                    block.append((np.array(values), data.draw(st.integers(0, last))))
                else:
                    index = data.draw(st.lists(st.integers(0, last), min_size=n, max_size=n))
                    block.append((np.array(values), np.array(index)))
                column = block[-1]
                if isinstance(column, tuple):
                    column = column[0][column[1]]
                table.append(np.broadcast_to(column, n).tolist())
            blocks.append(tuple(block))
            rows += zip(*table)
        header = ",".join(f"c{k}" for k in range(len(formats)))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, fmt, blocks)
        assert path.read_bytes() == literal_csv.table(header, fmt, rows)

    def test_scalar_columns_share_one_row_layout(self, tmp_path, literal_csv):
        # a scalar column is a one-value pair, not literal text: 90 blocks
        # with 90 distinct channel numbers lay their rows out once
        y = np.linspace(-1.0, 1.0, 5)
        _row_layout.cache_clear()
        path = tmp_path / "t.csv"
        write_csv(path, "k,y", "%d,%.12g", [(k, y) for k in range(10, 100)])
        assert _row_layout.cache_info().currsize == 1
        rows = [(k, v) for k in range(10, 100) for v in y.tolist()]
        assert path.read_bytes() == literal_csv.table("k,y", "%d,%.12g", rows)

    @pytest.mark.parametrize("fmt", [
        "%.13g", "%.0g", "%f", "%5.3g", "%x", "%%",
        # a row format is comma-joined cells, with no other text
        "%d -- %.9g", "%d;%d", "x%d", "%d,", "",
    ])
    def test_rejects_unsupported_conversions(self, tmp_path, fmt):
        with pytest.raises(ValueError, match="unsupported conversion"):
            write_csv(tmp_path / "t.csv", "a", fmt, [(np.ones(2),)])

    def test_peak_memory_independent_of_rows(self, tmp_path):
        # cells are formatted CSV_CHUNK_CELLS at a time, so a 4x longer
        # waveform table peaks no higher
        peaks = []
        for n in (64000, 256000):
            t = np.arange(n) / 16.0
            y = 1e-4 * (1.0 + 0.01 * np.sin(0.3 * t))
            columns = [(t, y, -y)]
            path = tmp_path / f"w{n}.csv"
            write_csv(path, "t,y_exact,y_linearized", "%.9g,%.12g,%.12g", columns)  # warm
            tracemalloc.start()
            try:
                write_csv(path, "t,y_exact,y_linearized", "%.9g,%.12g,%.12g", columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024

    @pytest.mark.parametrize("n", [1, 7, 2 * (CSV_CHUNK_CELLS // 3) + 5])
    def test_pairs_match_row_writer(self, tmp_path, literal_csv, n):
        # a pair (values, index) is the column values[index]: indices out of
        # order and repeated, special values, %s values, scalar columns and
        # a scalar index; the last n straddles chunks
        rng = np.random.default_rng(n)
        axis = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5e-7, 2.0**60, 123456.789, -1e300])
        names = np.array(["hybrid", "crs", "a-name-over-eight-bytes"])
        a, b = rng.integers(0, len(axis), n), rng.integers(0, len(names), n)
        y = rng.standard_normal(n)
        header, fmt = "k,a,y,name,b,c", "%d,%.9g,%.12g,%s,%.6g,%s"
        blocks = [(7, (axis, a), y, (names, b), (axis, a[::-1]), "x"),
                  (np.arange(n), 2.5, y, (names, 2), (axis, a), (names, b))]
        rows = [(7, axis[i], v, names[j], axis[m], "x")
                for i, v, j, m in zip(a.tolist(), y.tolist(), b.tolist(), a[::-1].tolist())]
        rows += [(k, 2.5, v, names[2], axis[i], names[j])
                 for k, (v, i, j) in enumerate(zip(y.tolist(), a.tolist(), b.tolist()))]
        path = tmp_path / "t.csv"
        write_csv(path, header, fmt, blocks)
        assert path.read_bytes() == literal_csv.table(header, fmt, rows)

    def test_empty_index_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "t.csv"
        empty = np.zeros(0, dtype=int)
        write_csv(path, "t,f", "%.9g,%.9g", [((np.ones(3), empty), (np.zeros(0), empty))])
        assert path.read_bytes() == b"t,f\r\n"
