"""Linear-algebra kernels and the exponential integral."""

import numpy as np
import pytest
from scipy.special import exp1

from rydberg_receiver.numerics import (
    exp_e1_scaled,
    null_space,
    psd_sqrt,
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
