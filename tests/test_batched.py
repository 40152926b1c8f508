"""The batched affine engine against the per-point chain.

Fidelity maps and the LO search evaluate their points in chunks
(`fidelity._CHAIN` points each): the generator kernels run in stacked blocks
of `lindblad._BLOCK` points, then validation, closed form and fidelity run
once per chunk, with one eigendecomposition per state. The public per-point
functions run the same kernels on a block of one. These tests hold the two
to `np.array_equal`, with the same NaN pattern, over random drives and
random removals of decay channels, also across chunk edges, and check the
gates a block must keep: degenerate points, the integrator's stability
bound and time-dependent generators, and the chain's memory bound.
"""

import importlib
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydberg_receiver as rr
from rydberg_receiver.analytic import _closed_form
from rydberg_receiver.cli import main
from rydberg_receiver.config import replace
from rydberg_receiver.lindblad import (
    STEADY_STATE_METHODS,
    _evolve_vectors,
    _generator_basis,
    _hermitian_basis,
    _REASONS,
    _numerical_states,
    _trace_row,
    taylor_propagator,
)
from rydberg_receiver.scheme import Architecture, LevelScheme

TWO_PI = 2.0 * np.pi
_SCHEME = rr.cesium_scheme()
fidelity_module = importlib.import_module("rydberg_receiver.fidelity")

#: Point counts around the block size: one, a block less one, a block,
#: a block plus one and two blocks plus one.
SIZES = (1, 15, 16, 17, 33)

amplitudes = st.one_of(st.just(0.0), st.floats(0.0, TWO_PI * 10.0))
lasers = st.floats(TWO_PI * 0.5, TWO_PI * 10.0)
detunings = st.floats(-TWO_PI, TWO_PI)
phases = st.floats(-np.pi, np.pi)


@st.composite
def closed_loop_drives(draw):
    """Random drive with a vanishing closed-loop detuning (delta = 0)."""
    cascade = draw(st.tuples(detunings, detunings, detunings))
    return rr.DriveConfig(
        omega_p=draw(lasers),
        omega_c=draw(lasers),
        rf_rabi=(0.0,) * 4,
        delta_p=draw(detunings),
        delta_c=draw(detunings),
        rf_detunings=cascade + (sum(cascade),),
        rf_phases=draw(st.tuples(phases, phases, phases, phases)),
    )


@st.composite
def open_loop_drives(draw):
    """Random drive with a nonzero closed-loop detuning."""
    drive = draw(closed_loop_drives())
    d1, d2, d3, d4 = drive.rf_detunings
    delta = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.01, TWO_PI))
    return replace(drive, rf_detunings=(d1, d2, d3, d4 + delta))


@st.composite
def schemes(draw):
    """The bundled scheme with a random subset of its decay channels."""
    keep = draw(st.lists(st.booleans(), min_size=len(_SCHEME.decay_channels),
                         max_size=len(_SCHEME.decay_channels)))
    return LevelScheme(
        levels=_SCHEME.levels,
        architecture=Architecture.HYBRID,
        rf_transitions=_SCHEME.rf_transitions,
        decay_channels=tuple(c for c, k in zip(_SCHEME.decay_channels, keep) if k),
    )


@st.composite
def amplitude_rows(draw, n):
    """``n`` RF amplitude rows; some are exactly balanced loops (a, b, b, a)."""
    rows = []
    for _ in range(n):
        a, b, c, d = draw(st.tuples(amplitudes, amplitudes, amplitudes, amplitudes))
        rows.append((a, b, b, a) if draw(st.booleans()) else (a, b, c, d))
    return np.array(rows, dtype=float)


def per_point(drive, scheme, theta, method, t_end, dt):
    """The public per-point chain of one map point: its fidelity and None,
    or NaN and the message it raises."""
    point = drive.with_rf_rabi(theta)
    try:
        numerical = rr.steady_state_numerical(point, scheme, method=method, t_end=t_end, dt=dt)
        return rr.fidelity(numerical, rr.analytic_steady_state(point, scheme)), None
    except (ValueError, np.linalg.LinAlgError) as exc:
        return float("nan"), str(exc)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    drive=closed_loop_drives(),
    scheme=schemes(),
    method=st.sampled_from(STEADY_STATE_METHODS),
    data=st.data(),
)
def test_batched_fidelities_equal_per_point(drive, scheme, method, data):
    check_batched_equals_per_point(drive, scheme, method, data)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    drive=closed_loop_drives(),
    scheme=schemes(),
    method=st.sampled_from(STEADY_STATE_METHODS),
    data=st.data(),
)
def test_batched_fidelities_equal_per_point_across_chunk_edges(drive, scheme, method, data):
    # chunks of 20 over blocks of 16: SIZES straddle both edges, and the
    # failed points of a draw fall inside chunks
    with mock.patch.object(fidelity_module, "_CHAIN", 20):
        check_batched_equals_per_point(drive, scheme, method, data)


def check_batched_equals_per_point(drive, scheme, method, data):
    thetas = data.draw(amplitude_rows(data.draw(st.sampled_from(SIZES))))
    # a short horizon; the larger step breaks the stability bound for most
    # drives, the smaller one for few
    t_end, dt = 0.2, data.draw(st.sampled_from((1e-3, 2e-3)))
    values, (codes, numbers) = fidelity_module._fidelity_points(
        drive, scheme, thetas, method, t_end, dt
    )
    expected, messages = zip(
        *(per_point(drive, scheme, theta, method, t_end, dt) for theta in thetas)
    )
    assert np.array_equal(values, expected, equal_nan=True)
    assert list(codes != 0) == list(np.isnan(expected))
    # each failed point's record, formatted, is what the point raises alone
    formatted = [_REASONS[c] and _REASONS[c].format(x) for c, x in zip(codes, numbers)]
    assert formatted == list(messages)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(drive=closed_loop_drives(), scheme=schemes(), data=st.data())
def test_stacked_assembly_equals_make_generator(drive, scheme, data):
    thetas = data.draw(amplitude_rows(data.draw(st.sampled_from(SIZES))))
    stack = _generator_basis(drive, scheme).assemble(thetas)
    for generator, theta in zip(stack, thetas):
        single = rr.make_generator(drive.with_rf_rabi(theta), scheme)
        assert np.array_equal(generator, single.real_form)


def kron_generator(drive, scheme, t=0.0):
    """The column-major superoperator at time ``t`` built term by term from
    Kronecker products: ``-i (I (x) H - H^T (x) I)`` plus each decay's
    dissipator."""
    h, eye = rr.build_hamiltonian(drive, scheme, t), np.eye(6)
    out = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for src, dst, rate in scheme.decay_channels:
        jump = np.zeros((6, 6))
        jump[dst - 1, src - 1] = 1.0
        jj = jump.T @ jump
        out += rate * (np.kron(jump, jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye)))
    return out


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(drive=st.one_of(closed_loop_drives(), open_loop_drives()), scheme=schemes(), data=st.data())
def test_real_generators_map_back_to_the_superoperator(drive, scheme, data):
    thetas = data.draw(amplitude_rows(data.draw(st.sampled_from(SIZES))))
    stack = _generator_basis(drive, scheme).assemble(thetas)  # at t = 0
    assert stack.dtype == np.float64
    t = _hermitian_basis(6)
    time = data.draw(st.floats(0.0, 20.0))
    for real, theta in zip(stack, thetas):
        point = drive.with_rf_rabi(theta)
        oracle = kron_generator(point, scheme)
        scale = np.linalg.norm(oracle)
        assert np.linalg.norm(_trace_row(36) @ real) <= 1e-13 * scale
        assert np.linalg.norm(t.conj().T @ real @ t - oracle) <= 1e-13 * scale
        generator = rr.make_generator(point, scheme)
        if isinstance(generator, rr.TimeDependentLiouvillian):
            # the real L(p) at the loop phase of the drawn time
            phase = np.exp(-1j * generator.delta * time)
            real_at_t = generator.constant + 2.0 * (phase * generator.loop).real
            assert real_at_t.dtype == np.float64
            assert np.linalg.norm(_trace_row(36) @ real_at_t) <= 1e-13 * scale
            matrix = generator.matrix(time)
        else:
            matrix = generator.matrix
        oracle = kron_generator(point, scheme, time)
        assert np.linalg.norm(matrix - oracle) <= 1e-13 * np.linalg.norm(oracle)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(drive=closed_loop_drives(), rf=st.tuples(amplitudes, amplitudes, amplitudes, amplitudes))
def test_solve_state_matches_svd_null_space(drive, rf):
    generator = rr.make_generator(drive.with_rf_rabi(rf), _SCHEME)
    basis = rr.null_space(generator.matrix)
    assert len(basis) == 1  # every drive is non-degenerate under the full decay set
    kernel = basis[0].reshape((6, 6), order="F")
    svd_state = kernel / np.trace(kernel)
    # The SVD kernel vector is itself accurate only to about eps ||L|| / gap
    # (Wedin); without a probe drive that reaches 5e-11, while the solve
    # returns the stationary ground state exactly.
    s = np.linalg.svd(generator.matrix, compute_uv=False)
    tolerance = 1e-12 + 8.0 * np.finfo(float).eps * s[0] / s[-2]
    assert np.max(np.abs(rr.steady_state(generator).matrix - svd_state)) <= tolerance


class TestVectorPowers:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1023, 1024, 100000])
    def test_matches_matrix_power_column(self, scheme, op_drive, n):
        # the map kernel applies the propagator's binary powers to the first
        # unit vector instead of multiplying them out; column 0 of the
        # matrix power is the same vector up to rounding
        rng = np.random.default_rng(n)
        basis = _generator_basis(op_drive, scheme)
        thetas = TWO_PI * rng.uniform(0.0, 10.0, (16, 4))
        generators = basis.assemble(thetas)
        dt = 1e-4
        vecs, (codes, _) = _evolve_vectors(
            generators, n, dt, basis.norms[0] + thetas @ basis.norms[1]
        )
        assert not codes.any()
        expected = np.linalg.matrix_power(taylor_propagator(generators, dt), n)[..., 0]
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.max(np.abs(vecs - expected) / scale) <= 1e-13


class TestGates:
    def test_degenerate_point_inside_a_block(self, reduced_scheme, op_drive):
        # probe decay only: the balanced loop (a, b, b, a) keeps a dark state
        thetas = np.tile(op_drive.rf_rabi, (17, 1))
        thetas[:, 0] += TWO_PI * 0.1 * np.arange(17)
        thetas[5] = (TWO_PI * 3.0, TWO_PI * 5.0, TWO_PI * 5.0, TWO_PI * 3.0)
        values, (codes, _) = fidelity_module._fidelity_points(
            op_drive, reduced_scheme, thetas, "null_space", 10.0, 1e-4
        )
        assert np.isnan(values[5])
        assert np.all(np.isfinite(np.delete(values, 5)))
        assert np.flatnonzero(codes).tolist() == [5]
        assert "degenerate" in _REASONS[codes[5]]
        generator = rr.make_generator(op_drive.with_rf_rabi(thetas[5]), reduced_scheme)
        with pytest.raises(ValueError, match="degenerate"):
            rr.steady_state(generator)

    @pytest.mark.parametrize("detuning", [0.0, TWO_PI * 0.04])
    def test_failed_points_are_nan_in_both_kernels(self, scheme, op_drive, detuning):
        # the kernels return unvalidated stacks, NaN at a failed point, for
        # the stacked propagator and for the open loop's point-by-point evolve
        drive = replace(op_drive, rf_detunings=(0.0, 0.0, 0.0, detuning))
        thetas = TWO_PI * np.array([[0.0, 0.0, 2.0, 2.0], [10.0, 10.0, 2.0, 2.0], [0.0] * 4])
        states, (codes, _) = _numerical_states(
            _generator_basis(drive, scheme), thetas, "evolve", 0.2, 1.25e-3
        )
        closed, (degenerate, _) = _closed_form(
            drive.omega_p, drive.omega_c, tuple(thetas.T), scheme.decay_rate(2, 1)
        )
        assert "stability bound" in _REASONS[codes[1]]
        assert (codes == 0).tolist() == [True, False, True]
        assert (degenerate == 0).tolist() == [True, True, False]
        for stack, failed in ((states, 1), (closed, 2)):
            assert np.isnan(stack[failed]).all()
            assert np.isfinite(np.delete(stack, failed, axis=0)).all()

    def test_stability_bound_gates_exactly_the_per_point_failures(self, scheme, op_drive):
        values = np.linspace(0.0, TWO_PI * 10.0, 9)
        norms = [
            rr.make_generator(op_drive.with_rf_rabi((x, y) + op_drive.rf_rabi[2:]), scheme).norm()
            for x in values for y in values
        ]
        dt = 0.1 / float(np.median(norms))
        t_end = 20 * dt
        scan = rr.fidelity_scan(
            op_drive, (1, 2), scheme, ranges=((0.0, TWO_PI * 10.0),) * 2, resolution=9,
            steady_state_method="evolve", t_end=t_end, dt=dt,
        )
        raises = np.zeros(scan.fidelities.shape, dtype=bool)
        for i, j in np.ndindex(raises.shape):
            try:
                rr.evolve(rr.ground_state(), rr.make_generator(scan.drive_at(i, j), scheme),
                          t_end=t_end, dt=dt, max_snapshots=2)
            except ValueError as exc:
                assert "stability bound" in str(exc)
                raises[i, j] = True
        assert 0 < raises.sum() < raises.size
        assert np.array_equal(np.isnan(scan.fidelities), raises)

    def test_open_loop_evolve_map_equals_per_point(self, scheme, op_drive):
        # a 40 kHz loop detuning makes every point's generator time
        # dependent; at dt = 1.25e-3 the largest amplitudes break the
        # stability bound over the horizon (91.6 rad/us against 0.1/dt = 80)
        drive = replace(op_drive, rf_rabi=(0.0, 0.0, TWO_PI * 2.0, TWO_PI * 2.0),
                        rf_detunings=(0.0, 0.0, 0.0, TWO_PI * 0.04))
        t_end, dt = 0.2, 1.25e-3
        scan = rr.fidelity_scan(
            drive, (1, 2), scheme, ranges=((0.0, TWO_PI * 10.0),) * 2, resolution=3,
            steady_state_method="evolve", t_end=t_end, dt=dt,
        )
        for i, j in np.ndindex(scan.fidelities.shape):
            point = scan.drive_at(i, j)
            generator = rr.make_generator(point, scheme)
            assert isinstance(generator, rr.TimeDependentLiouvillian)
            try:
                final = rr.evolve(rr.ground_state(), generator, t_end, dt, max_snapshots=2).final
                expected = rr.fidelity(final, rr.analytic_steady_state(point, scheme))
            except ValueError as exc:
                assert "stability bound" in str(exc)
                expected = float("nan")
            assert np.array_equal(scan.fidelities[i, j], expected, equal_nan=True)
            assert np.array_equal(
                per_point(drive, scheme, point.rf_rabi, "evolve", t_end, dt)[0], expected,
                equal_nan=True,
            )
        assert 0 < np.isnan(scan.fidelities).sum() < scan.fidelities.size

    @pytest.mark.parametrize("method", STEADY_STATE_METHODS)
    def test_memory_peak(self, scheme, op_drive, method):
        # a 25 x 25 map holds one chunk of states and one block of
        # generators: about 1.6-1.8 MB, against about 3.4 MB for the whole
        # map in one chunk
        rr.fidelity_scan(op_drive, (2, 3), scheme, resolution=2, steady_state_method=method)
        tracemalloc.start()
        try:
            rr.fidelity_scan(op_drive, (2, 3), scheme, resolution=25, steady_state_method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

    @pytest.mark.parametrize("command, section", [
        ("fidelity-map", "[scan]\nresolution = 2\nmethod = null_space\n"),
        ("steady-state", ""),  # null_space is its default
        ("optimize-lo", "[optimize]\nmethod = null_space\n"),
    ])
    def test_time_dependent_null_space_exits_2(self, tmp_path, capsys, command, section):
        # the refusal is a ValueError: the drive's loop detuning rules the method out
        cfg = tmp_path / "td.ini"
        cfg.write_text("[drive]\nrf_detunings_khz = 1, 1, 2, 40\n\n" + section)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "time dependent" in capsys.readouterr().err
        assert not out.exists()


def _mp_sqrt(m):
    a = mpmath.matrix(m.tolist())
    w, q = mpmath.eigh(a)
    return q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * q.transpose_conj()


def _mp_fidelity(rho_n, rho_a):
    """Uhlmann fidelity of the float inputs in 50-digit arithmetic."""
    with mpmath.workdps(50):
        root = _mp_sqrt(rho_a)
        inner = root * mpmath.matrix(rho_n.tolist()) * root
        w, _ = mpmath.eigh((inner + inner.transpose_conj()) / 2)
        return float(mpmath.fsum(mpmath.sqrt(max(mpmath.re(x), 0)) for x in w) ** 2)


class TestFidelityAgainstMpmath:
    """The nuclear-norm fidelity against a 50-digit reference on the same
    float states, on the 25 x 25 null-space map over axes (2, 3) at the
    CLI's default drive."""

    AXIS = np.linspace(0.0, TWO_PI * 10.0, 25)

    def _states(self, scheme, omega_2, omega_3):
        detunings = tuple(scheme.transition(n).detuning for n in range(1, 5))
        drive = rr.DriveConfig(
            omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
            rf_rabi=(TWO_PI * 2.0, omega_2, omega_3, TWO_PI * 6.0), rf_detunings=detunings,
        )
        numerical = rr.steady_state_numerical(drive, scheme)
        return numerical.matrix, rr.analytic_steady_state(drive, scheme).matrix

    def test_balanced_loop_cell(self, scheme):
        # Omega_3 = 3 Omega_2 balances the loop; the closed form is rank
        # deficient there, where the form Tr sqrt(sqrt(a) n sqrt(a)) was
        # 2.0e-8 off
        rho_n, rho_a = self._states(scheme, self.AXIS[3], self.AXIS[9])
        assert rr.zeta((TWO_PI * 2.0, self.AXIS[3], self.AXIS[9], TWO_PI * 6.0)) == 0.0
        assert abs(rr.fidelity(rho_n, rho_a) - _mp_fidelity(rho_n, rho_a)) <= 1e-9

    def test_random_cell(self, scheme):
        rho_n, rho_a = self._states(scheme, self.AXIS[7], self.AXIS[18])
        assert abs(rr.fidelity(rho_n, rho_a) - _mp_fidelity(rho_n, rho_a)) <= 1e-13
