"""The batched affine engine against the per-point chain.

Fidelity maps and the LO search evaluate their points in stacked blocks
(`fidelity._BLOCK` points each); the public per-point functions run the same
kernels on a block of one. These tests hold the two to `np.array_equal`,
with the same NaN pattern, over random drives and random removals of decay
channels, and check the gates a block must keep: degenerate points, the
integrator's stability bound and time-dependent generators.
"""

import importlib
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydberg_receiver as rr
from rydberg_receiver.cli import main
from rydberg_receiver.lindblad import STEADY_STATE_METHODS, _clean, _generator_basis
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
    """The public per-point chain of one map point; NaN where it raises."""
    point = drive.with_rf_rabi(theta)
    try:
        numerical = rr.steady_state_numerical(point, scheme, method=method, t_end=t_end, dt=dt)
        return rr.fidelity(numerical, rr.analytic_steady_state(point, scheme))
    except (ValueError, np.linalg.LinAlgError):
        return float("nan")


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    drive=closed_loop_drives(),
    scheme=schemes(),
    method=st.sampled_from(STEADY_STATE_METHODS),
    data=st.data(),
)
def test_batched_fidelities_equal_per_point(drive, scheme, method, data):
    thetas = data.draw(amplitude_rows(data.draw(st.sampled_from(SIZES))))
    # a short horizon; the larger step breaks the stability bound for most
    # drives, the smaller one for few
    t_end, dt = 0.2, data.draw(st.sampled_from((1e-3, 2e-3)))
    values, errors = fidelity_module._fidelity_points(drive, scheme, thetas, method, t_end, dt)
    expected = [per_point(drive, scheme, theta, method, t_end, dt) for theta in thetas]
    assert np.array_equal(values, expected, equal_nan=True)
    assert [e is not None for e in errors] == list(np.isnan(expected))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(drive=closed_loop_drives(), scheme=schemes(), data=st.data())
def test_stacked_assembly_equals_make_generator(drive, scheme, data):
    thetas = data.draw(amplitude_rows(data.draw(st.sampled_from(SIZES))))
    stack = _generator_basis(drive, scheme).assemble(thetas)
    for generator, theta in zip(stack, thetas):
        single = rr.make_generator(drive.with_rf_rabi(theta), scheme)
        assert np.array_equal(generator, single.matrix)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(drive=closed_loop_drives(), rf=st.tuples(amplitudes, amplitudes, amplitudes, amplitudes))
def test_solve_state_matches_svd_null_space(drive, rf):
    generator = rr.make_generator(drive.with_rf_rabi(rf), _SCHEME)
    basis = rr.null_space(generator.matrix)
    assert len(basis) == 1  # every drive is non-degenerate under the full decay set
    svd_state, _ = _clean(basis[0], 6)
    # The SVD kernel vector is itself accurate only to about eps ||L|| / gap
    # (Wedin); without a probe drive that reaches 5e-11, while the solve
    # returns the stationary ground state exactly.
    s = np.linalg.svd(generator.matrix, compute_uv=False)
    tolerance = 1e-12 + 8.0 * np.finfo(float).eps * s[0] / s[-2]
    assert np.max(np.abs(rr.steady_state(generator).matrix - svd_state)) <= tolerance


class TestGates:
    def test_degenerate_point_inside_a_block(self, reduced_scheme, op_drive):
        # probe decay only: the balanced loop (a, b, b, a) keeps a dark state
        thetas = np.tile(op_drive.rf_rabi, (17, 1))
        thetas[:, 0] += TWO_PI * 0.1 * np.arange(17)
        thetas[5] = (TWO_PI * 3.0, TWO_PI * 5.0, TWO_PI * 5.0, TWO_PI * 3.0)
        values, errors = fidelity_module._fidelity_points(
            op_drive, reduced_scheme, thetas, "null_space", 10.0, 1e-4
        )
        assert np.isnan(values[5])
        assert np.all(np.isfinite(np.delete(values, 5)))
        assert "degenerate" in str(errors[5])
        generator = rr.make_generator(op_drive.with_rf_rabi(thetas[5]), reduced_scheme)
        with pytest.raises(ValueError, match="degenerate"):
            rr.steady_state(generator)

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
        # dependent; at dt = 1e-3 the largest amplitudes break the stability bound
        drive = replace(op_drive, rf_rabi=(0.0, 0.0, TWO_PI * 2.0, TWO_PI * 2.0),
                        rf_detunings=(0.0, 0.0, 0.0, TWO_PI * 0.04))
        t_end, dt = 0.2, 1e-3
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
                per_point(drive, scheme, point.rf_rabi, "evolve", t_end, dt), expected,
                equal_nan=True,
            )
        assert 0 < np.isnan(scan.fidelities).sum() < scan.fidelities.size

    def test_time_dependent_null_space_map_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "td.ini"
        cfg.write_text(
            "[drive]\nrf_detunings_khz = 1, 1, 2, 40\n\n"
            "[scan]\nresolution = 2\nmethod = null_space\n"
        )
        code = main(["fidelity-map", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "time dependent" in capsys.readouterr().err


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
