"""Master-equation engine: Hamiltonians, Liouvillians, propagation,
steady states. Oracles: closed-form two-level decay, scipy expm, and a
stiff-tolerance scipy ODE integration for the time-dependent branch."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.integrate import solve_ivp

import rydberg_receiver as rr
from rydberg_receiver.config import replace
from rydberg_receiver.lindblad import (
    DriveConfig,
    Liouvillian,
    TimeDependentLiouvillian,
    Trajectory,
    _coordinates,
    _gap_pieces,
    _hermitian_basis,
    _matrices,
    _rk4_step_polynomial,
    _trace_row,
    build_hamiltonian,
)
from rydberg_receiver.scheme import Architecture, LevelScheme

TWO_PI = 2.0 * np.pi


class TestDriveConfig:
    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            DriveConfig(omega_p=1.0, omega_c=1.0, rf_rabi=(-1.0, 0, 0, 0))

    def test_closed_loop_delta(self):
        d = DriveConfig(
            omega_p=1.0,
            omega_c=1.0,
            rf_rabi=(1, 1, 1, 1),
            rf_detunings=(0.1, 0.2, 0.3, 0.6),
        )
        assert d.closed_loop_delta == pytest.approx(0.0, abs=1e-15)
        assert not d.is_resonant
        d2 = DriveConfig(omega_p=1.0, omega_c=1.0, rf_rabi=(1, 1, 1, 1))
        assert d2.is_resonant

    def test_with_rf_rabi(self, op_drive):
        d = op_drive.with_rf_rabi((1.0, 2.0, 3.0, 4.0))
        assert d.rf_rabi == (1.0, 2.0, 3.0, 4.0)
        assert d.omega_p == op_drive.omega_p


class TestHamiltonian:
    def test_resonant_elements(self, op_drive, scheme):
        h = build_hamiltonian(op_drive, scheme)
        # probe element is half the Rabi amplitude
        assert h[0, 1] == pytest.approx(np.pi * 5.7, rel=1e-15)
        assert h[1, 2] == pytest.approx(np.pi * 0.97, rel=1e-15)
        # RF channels sit on 3-4, 4-5, 5-6 and the 3-6 loop branch
        assert h[2, 3] == pytest.approx(np.pi * 2.0, rel=1e-15)
        assert h[3, 4] == pytest.approx(np.pi * 7.0, rel=1e-15)
        assert h[4, 5] == pytest.approx(np.pi * 1.0, rel=1e-15)
        assert h[2, 5] == pytest.approx(np.pi * 6.0, rel=1e-15)
        assert np.allclose(h, h.conj().T)
        assert np.count_nonzero(h) == 12
        assert np.allclose(np.diag(h), 0.0)

    def test_general_diagonal_accumulates_detunings(self, scheme):
        d = DriveConfig(
            omega_p=1.0,
            omega_c=1.0,
            rf_rabi=(1, 1, 1, 1),
            delta_p=0.1,
            delta_c=0.2,
            rf_detunings=(0.3, 0.4, 0.5, 1.2),
        )
        h = build_hamiltonian(d, scheme)
        assert np.allclose(
            np.real(np.diag(h)), [0.0, -0.1, -0.3, -0.6, -1.0, -1.5], atol=1e-15
        )

    def test_loop_element_oscillates_at_delta(self, scheme):
        # delta = 0.4 - (0.1 + 0.1 + 0.1) = 0.1; at t = pi/delta the loop
        # element flips sign relative to t = 0
        d = DriveConfig(
            omega_p=1.0,
            omega_c=1.0,
            rf_rabi=(1, 1, 1, 2),
            rf_detunings=(0.1, 0.1, 0.1, 0.4),
        )
        h0 = build_hamiltonian(d, scheme, t=0.0)
        h1 = build_hamiltonian(d, scheme, t=np.pi / 0.1)
        assert h1[2, 5] == pytest.approx(-h0[2, 5], rel=1e-10)
        assert h0[2, 5] == pytest.approx(1.0, rel=1e-12)

    def test_loop_phase_convention(self, scheme):
        d = DriveConfig(
            omega_p=1.0, omega_c=1.0, rf_rabi=(1, 1, 1, 2), rf_phases=(0, 0, 0, np.pi / 2)
        )
        h = build_hamiltonian(d, scheme)
        # upper-triangle carries e^{+i phi}
        assert h[2, 5] == pytest.approx(1.0j, rel=1e-12)
        assert h[5, 2] == pytest.approx(-1.0j, rel=1e-12)


    def test_only_hybrid_six_simulated(self, op_drive, scheme):
        cascade = LevelScheme(
            levels=scheme.levels,
            architecture=Architecture.CRS,
            rf_transitions=scheme.rf_transitions[:3],
            decay_channels=scheme.decay_channels,
        )
        for build in (rr.build_hamiltonian, rr.make_generator):
            with pytest.raises(ValueError, match="CRS with K=6 and 3 RF transitions"):
                build(op_drive, cascade)


class TestVectorization:
    def test_column_major_layout(self):
        m = np.arange(36, dtype=complex).reshape(6, 6)
        v = rr.vectorize(m)
        # vec[i + 6 j] = m[i, j]
        assert v[0 + 6 * 1] == m[0, 1]
        assert v[3 + 6 * 5] == m[3, 5]
        assert np.allclose(v.reshape((6, 6), order="F"), m)


class TestRealBasis:
    def test_orthonormal_hermitian_and_level_by_level(self):
        t = _hermitian_basis(6)
        g = t.reshape(36, 6, 6)
        assert np.array_equal(g, g.conj().swapaxes(-1, -2))
        assert np.max(np.abs(t @ t.conj().T - np.eye(36))) <= 1e-15
        for k in range(6):
            assert np.array_equal(g[k * k], np.diag(np.eye(6)[k]))  # |k><k| opens level k
            for m in range(k * k, (k + 1) ** 2):  # then its coherences with the levels below
                assert np.argwhere(g[m]).max() == k
        # the trace is the sum of the population coordinates
        assert np.array_equal((t @ rr.vectorize(np.eye(6))).real, _trace_row(36))

    def test_coordinates_round_trip(self, op_drive, scheme):
        rho = rr.steady_state(rr.make_generator(op_drive, scheme)).matrix
        x = _coordinates(rho)
        assert x.dtype == np.float64
        back = _matrices(x)
        assert np.array_equal(back, back.conj().T)  # real coordinates are exactly Hermitian
        assert np.max(np.abs(back - rho)) <= 1e-15

    @pytest.mark.parametrize("rf_mhz", [(0.0, 7.0, 1.0, 0.0), (0.0, 1.0, 1.0, 0.0),
                                        (0.0, 0.0, 0.0, 0.0)])
    def test_decoupled_levels_stay_exactly_empty(self, op_drive, scheme, rf_mhz):
        # with Omega_1 = Omega_4 = 0 nothing drives levels 4-6, so both the
        # stationary solve and the propagators leave them exactly empty
        drive = op_drive.with_rf_rabi([TWO_PI * v for v in rf_mhz])
        generator = rr.make_generator(drive, scheme)
        states = [
            rr.steady_state(generator),
            rr.steady_state_numerical(drive, scheme, method="evolve", t_end=1.0),
            rr.evolve(rr.ground_state(), generator, t_end=1.0, dt=1e-3, max_snapshots=3).final,
        ]
        for rho in states:
            assert rho.population(3) > 0.0
            assert not np.any(rho.matrix[3:]) and not np.any(rho.matrix[:, 3:])


class TestLiouvillian:
    def test_trace_preservation_functional(self, op_drive, scheme):
        lv = rr.make_generator(op_drive, scheme)
        ones = rr.vectorize(np.eye(6))
        assert np.linalg.norm(ones.conj() @ lv.matrix) < 1e-10 * lv.norm()

    def test_spectrum_stable(self, op_drive, scheme):
        lv = rr.make_generator(op_drive, scheme)
        zero_abs, max_rest = lv.spectral_report()
        # one eigenvalue pinned at zero, everything else strictly decaying
        assert zero_abs < 1e-10 * lv.norm()
        assert max_rest < 0.0

    def test_pure_decay_oracle(self, scheme):
        # all drives off: rho_22(t) = e^{-gamma t}, rho_11(t) = 1 - e^{-gamma t}
        drive = DriveConfig(omega_p=0.0, omega_c=0.0, rf_rabi=(0, 0, 0, 0))
        gen = rr.make_generator(drive, scheme)
        gamma = scheme.decay_rate(2, 1)
        traj = rr.evolve(rr.basis_state(2), gen, t_end=0.05, dt=1e-5, max_snapshots=11)
        pops = traj.populations()
        expected = np.exp(-gamma * traj.times)
        assert np.allclose(pops[:, 1], expected, rtol=1e-8)
        assert np.allclose(pops[:, 0], 1.0 - expected, rtol=0, atol=1e-9)

    def test_drives_off_ground_state_stationary(self, scheme):
        drive = DriveConfig(omega_p=0.0, omega_c=0.0, rf_rabi=(0, 0, 0, 0))
        gen = rr.make_generator(drive, scheme)
        assert np.linalg.norm(gen.matrix @ rr.vectorize(rr.ground_state().matrix)) < 1e-12

    def test_non_finite_generator_loses_trace(self):
        # an infinite entry on the trace row makes the bound infinite too
        on_trace_row = np.zeros((36, 36))
        on_trace_row[0, 0] = np.inf
        for m in (np.full((36, 36), np.nan), on_trace_row):
            with pytest.raises(ValueError, match="non-finite entries or norm"):
                Liouvillian(m)


class TestEvolve:
    def test_expm_oracle(self, op_drive, scheme):
        gen = rr.make_generator(op_drive, scheme)
        rho0 = rr.ground_state()
        traj = rr.evolve(rho0, gen, t_end=0.5, dt=1e-3, max_snapshots=2)
        exact = (expm(gen.matrix * 0.5) @ rr.vectorize(rho0.matrix)).reshape((6, 6), order="F")
        assert np.max(np.abs(traj.final.matrix - exact)) < 1e-8

    def test_invariants_along_trajectory(self, op_drive, scheme):
        gen = rr.make_generator(op_drive, scheme)
        traj = rr.evolve(rr.ground_state(), gen, t_end=2.0, dt=1e-4, max_snapshots=41)
        for k in range(len(traj.times)):
            m = traj.state(k).matrix
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert np.allclose(m, m.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(m).min() > -1e-10
        assert traj.max_trace_drift < 1e-12

    def test_snapshot_count_and_grid(self, op_drive, scheme):
        gen = rr.make_generator(op_drive, scheme)
        traj = rr.evolve(rr.ground_state(), gen, t_end=1.0, dt=1e-3, max_snapshots=11)
        assert len(traj.times) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, rel=1e-12)

    def test_trajectories_compare_by_identity(self, op_drive, scheme):
        # a generated __eq__ would compare arrays and raise, a generated __hash__ raise TypeError
        gen = rr.make_generator(op_drive, scheme)
        first, second = (rr.evolve(rr.ground_state(), gen, t_end=0.1, dt=1e-3, max_snapshots=2)
                         for _ in range(2))
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_unstable_dt_rejected(self, op_drive, scheme):
        gen = rr.make_generator(op_drive, scheme)
        with pytest.raises(ValueError, match="dt"):
            rr.evolve(rr.ground_state(), gen, t_end=1.0, dt=0.5)

    def test_fewer_than_two_snapshots_rejected(self, op_drive, scheme):
        gen = rr.make_generator(op_drive, scheme)
        for max_snapshots in (1, 0, -4):
            with pytest.raises(ValueError, match="max_snapshots must be >= 2"):
                rr.evolve(rr.ground_state(), gen, t_end=0.01, dt=1e-3, max_snapshots=max_snapshots)

    def test_non_multiple_t_end_rejected(self, op_drive, scheme):
        gen = rr.make_generator(op_drive, scheme)
        with pytest.raises(ValueError, match="multiple"):
            rr.evolve(rr.ground_state(), gen, t_end=1.00005, dt=1e-3)

    def test_matches_literal_rk4_stepping(self, op_drive, scheme):
        # binary powering of the one-step propagator must equal step-by-step
        # application (linear constant system)
        gen = rr.make_generator(op_drive, scheme)
        dt = 1e-3
        p = rr.taylor_propagator(gen.matrix, dt)
        v = rr.vectorize(rr.ground_state().matrix)
        for _ in range(200):
            v = p @ v
        traj = rr.evolve(rr.ground_state(), gen, t_end=0.2, dt=dt, max_snapshots=2)
        assert np.max(np.abs(traj.final.matrix - v.reshape((6, 6), order="F"))) < 1e-11


class TestTimeDependent:
    def _open_loop_drive(self):
        return DriveConfig(
            omega_p=TWO_PI * 5.7,
            omega_c=TWO_PI * 0.97,
            rf_rabi=(TWO_PI * 2, TWO_PI * 7, TWO_PI * 1, TWO_PI * 6),
            rf_detunings=(0.0, 0.0, 0.0, TWO_PI * 0.05),
        )

    def test_generator_type_switches_on_delta(self, op_drive, scheme):
        assert isinstance(rr.make_generator(op_drive, scheme), Liouvillian)
        td = rr.make_generator(self._open_loop_drive(), scheme)
        assert isinstance(td, TimeDependentLiouvillian)
        assert td.delta == pytest.approx(TWO_PI * 0.05)

    def test_matrix_periodicity(self, scheme):
        td = rr.make_generator(self._open_loop_drive(), scheme)
        period = TWO_PI / td.delta
        assert np.allclose(td.matrix(0.3), td.matrix(0.3 + period), atol=1e-12)
        assert not np.allclose(td.matrix(0.0), td.matrix(period / 2.0), atol=1e-6)

    def test_solve_ivp_oracle(self, scheme):
        td = rr.make_generator(self._open_loop_drive(), scheme)
        v0 = rr.vectorize(rr.ground_state().matrix)
        sol = solve_ivp(
            lambda t, v: td.matrix(t) @ v,
            (0.0, 1.0),
            v0,
            rtol=1e-10,
            atol=1e-12,
            method="DOP853",
        )
        traj = rr.evolve(rr.ground_state(), td, t_end=1.0, dt=1e-4, max_snapshots=2)
        assert np.max(np.abs(rr.vectorize(traj.final.matrix) - sol.y[:, -1])) < 1e-7

    def test_norm_bound_is_continuous_in_delta(self, op_drive, scheme):
        # the bound over the horizon tends to the closed-loop norm as delta
        # goes to 0, so an infinitesimal loop detuning keeps the closed
        # loop's admissible step
        closed = rr.make_generator(op_drive, scheme)
        td = rr.make_generator(replace(op_drive, rf_detunings=(0.0, 0.0, 0.0, 1e-9)), scheme)
        assert td.norm(1.0) == pytest.approx(closed.norm(), rel=1e-6)
        open_loop = rr.evolve(rr.ground_state(), td, t_end=1.0, dt=1e-3, max_snapshots=2)
        closed_loop = rr.evolve(rr.ground_state(), closed, t_end=1.0, dt=1e-3, max_snapshots=2)
        assert np.max(np.abs(open_loop.final.matrix - closed_loop.final.matrix)) < 1e-7

    def test_norm_bounds_the_generator_over_the_horizon(self, scheme):
        td = rr.make_generator(self._open_loop_drive(), scheme)
        t_end = 4.0  # |delta| t_end = 1.26 < 2: tighter than the bound for all t
        assert td.norm(t_end) < td.norm()
        worst = max(np.linalg.norm(td.matrix(t), 2) for t in np.linspace(0.0, t_end, 41))
        assert worst <= td.norm(t_end)

    #: a fast loop (delta = 2pi x 2.8 MHz: 0.7 turns over 2500 steps of
    #: 1e-4) with RF phases, so every Laurent power matters, and the
    #: benchmark's slow loop (delta = 2pi x 50 kHz at 8 MHz RF)
    _LOOPS = {
        "fast": DriveConfig(
            omega_p=TWO_PI * 5.7,
            omega_c=TWO_PI * 0.97,
            rf_rabi=(TWO_PI * 2, TWO_PI * 7, TWO_PI * 1, TWO_PI * 6),
            rf_detunings=(TWO_PI * 0.3, -TWO_PI * 0.2, TWO_PI * 0.1, TWO_PI * 3.0),
            rf_phases=(0.3, -1.1, 2.0, 0.7),
        ),
        "slow": DriveConfig(
            omega_p=TWO_PI * 5.7,
            omega_c=TWO_PI * 0.97,
            rf_rabi=(TWO_PI * 8,) * 4,
            rf_detunings=(TWO_PI * 1e-3, TWO_PI * 1e-3, TWO_PI * 2e-3, TWO_PI * 54e-3),
        ),
    }

    @pytest.mark.parametrize(
        "loop, n_steps, max_snapshots, dt",
        [
            pytest.param("fast", 2500, 2, 1e-4, id="2500-2"),  # one gap, not a power of two
            pytest.param("fast", 1000, 11, 1e-4, id="1000-11"),
            # the last gap (142 steps) is one shorter than the stride (143)
            pytest.param("slow", 1000, 8, 1e-4, id="slow-1000-8"),
            # the largest dt the gate admits, 0.1 / norm(t_end)
            pytest.param("fast", 2500, 2, None, id="largest-dt-2500-2"),
        ],
    )
    def test_matches_literal_rk4_stepping(
        self, scheme, literal_rk4, loop, n_steps, max_snapshots, dt
    ):
        td = rr.make_generator(self._LOOPS[loop], scheme)
        if dt is None:
            # |delta| t_end > 2, so the horizon bound is the all-time one;
            # doubling stops earliest, and the gap takes several pieces
            dt = 0.1 / td.norm()
            assert dt == 0.1 / td.norm(n_steps * dt)
            pieces = _gap_pieces(_rk4_step_polynomial(td, dt), -td.delta * dt, n_steps)
            assert len(pieces) > 2 and not pieces[-1][1]
        traj = rr.evolve(
            rr.ground_state(), td, t_end=n_steps * dt, dt=dt, max_snapshots=max_snapshots
        )
        assert len(traj.times) == max_snapshots
        assert literal_rk4(traj, td, dt) <= 1e-12

    def test_invariants_along_trajectory(self, scheme):
        td = rr.make_generator(self._open_loop_drive(), scheme)
        traj = rr.evolve(rr.ground_state(), td, t_end=2.0, dt=1e-4, max_snapshots=41)
        for k in range(len(traj.times)):
            m = traj.state(k).matrix
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert np.allclose(m, m.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(m).min() > -1e-10
        assert traj.max_trace_drift < 1e-12

    def test_memory_peak(self, scheme):
        # the phase-sampled propagators of a 30,000-step, 101-snapshot run
        # hold only the live square, the open product and one temporary
        td = rr.make_generator(self._open_loop_drive(), scheme)
        tracemalloc.start()
        try:
            rr.evolve(rr.ground_state(), td, t_end=3.0, dt=1e-4, max_snapshots=101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_open_loop_coherence_keeps_oscillating(self, op_drive, scheme):
        # 50 kHz loop mismatch: rho_63 never settles, it keeps beating at delta.
        # Amplitude over the last 2 us of a 10 us run must exceed 10% of its
        # mean magnitude; the resonant run is flat over the same window.
        det = rr.evolve(
            rr.ground_state(),
            rr.make_generator(self._open_loop_drive(), scheme),
            t_end=10.0,
            dt=1e-4,
            max_snapshots=501,
        )
        win = det.coherence(6, 3)[det.times >= 8.0]
        assert np.ptp(np.abs(win)) > 0.10 * np.mean(np.abs(win))

        # resonant control: rho_63 is a vanishing coherence there, so by the
        # same window it has decayed well below the open-loop plateau
        res = rr.evolve(
            rr.ground_state(), rr.make_generator(op_drive, scheme), t_end=10.0,
            dt=1e-4, max_snapshots=501,
        )
        decayed = res.coherence(6, 3)[res.times >= 8.0]
        assert np.mean(np.abs(win)) > 5.0 * np.mean(np.abs(decayed))


class TestSteadyState:
    def test_unique_and_stationary(self, op_drive, scheme):
        lv = rr.make_generator(op_drive, scheme)
        rho = rr.steady_state(lv)
        resid = np.linalg.norm(lv.matrix @ rr.vectorize(rho.matrix))
        assert resid < 1e-10 * lv.norm()
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_evolve_route_approaches_null_space(self, op_drive, scheme):
        rho_t = rr.steady_state_numerical(op_drive, scheme, method="evolve", t_end=160.0)
        rho_s = rr.steady_state_numerical(op_drive, scheme, method="null_space")
        assert np.max(np.abs(rho_t.matrix - rho_s.matrix)) < 1e-9

    def test_time_dependent_rejected(self, scheme):
        drive = DriveConfig(
            omega_p=1.0, omega_c=1.0, rf_rabi=(1, 1, 1, 1), rf_detunings=(0, 0, 0, 0.3)
        )
        with pytest.raises(TypeError, match="stationary"):
            rr.steady_state(rr.make_generator(drive, scheme))

    def test_degenerate_kernel_rejected(self, scheme):
        # no drives, probe decay only: every Rydberg population is invariant
        reduced = LevelScheme(
            levels=scheme.levels,
            architecture=Architecture.HYBRID,
            rf_transitions=scheme.rf_transitions,
            decay_channels=((2, 1, scheme.decay_rate(2, 1)),),
        )
        drive = DriveConfig(omega_p=0.0, omega_c=0.0, rf_rabi=(0, 0, 0, 0))
        with pytest.raises(ValueError, match="degenerate"):
            rr.steady_state_numerical(drive, reduced, method="null_space")

    def test_bad_method_rejected(self, op_drive, scheme):
        with pytest.raises(ValueError, match="method"):
            rr.steady_state_numerical(op_drive, scheme, method="magic")


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            rr.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            rr.DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            rr.DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
        non_finite = (
            np.diag([np.nan, 1.0]),  # on the diagonal: every comparison is False
            np.array([[0.5, np.nan], [np.nan, 0.5]]),  # off the diagonal
            np.diag([np.inf, 0.0]),
            np.full((2, 2), np.nan),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic warns
            for m in non_finite:
                with pytest.raises(ValueError, match="non-finite"):
                    rr.DensityMatrix(m)

    def test_accessors(self):
        rho = rr.basis_state(3)
        assert rho.population(3) == 1.0
        assert rho.population(1) == 0.0
        assert rho.coherence(3, 1) == 0.0
        assert rho.dim == 6

    def test_matrix_read_only(self):
        rho = rr.ground_state()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.5


class TestTrajectoryCsv:
    def test_layout(self, op_drive, scheme, tmp_path):
        gen = rr.make_generator(op_drive, scheme)
        traj = rr.evolve(rr.ground_state(), gen, t_end=0.01, dt=1e-3, max_snapshots=3)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,rho11,rho22,rho33,rho44,rho55,rho66,re_rho21,im_rho21"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0

    def test_all_coherences_layout(self, op_drive, scheme, tmp_path):
        gen = rr.make_generator(op_drive, scheme)
        traj = rr.evolve(rr.ground_state(), gen, t_end=0.01, dt=1e-3, max_snapshots=2)
        path = tmp_path / "traj_full.csv"
        traj.write_csv(path, all_coherences=True)
        header = path.read_text().splitlines()[0].split(",")
        # 1 time + 6 populations + 15 lower-triangle coherences x (re, im)
        assert len(header) == 1 + 6 + 30
        assert "re_rho65" in header and "im_rho31" in header

    @pytest.mark.parametrize("all_coherences", [False, True])
    def test_bytes_match_row_writer(self, op_drive, scheme, tmp_path, literal_csv, all_coherences):
        gen = rr.make_generator(op_drive, scheme)
        traj = rr.evolve(rr.ground_state(), gen, t_end=0.01, dt=1e-3, max_snapshots=4)
        matrices = traj.matrices.copy()
        matrices[1, 1, 0] = complex(-0.0, np.nan)
        matrices[2, 5, 5] = -0.0
        matrices[2, 4, 2] = complex(np.inf, -0.0)
        odd = Trajectory(times=np.array([-0.0, *traj.times[1:]]), matrices=matrices)
        path = tmp_path / "traj.csv"
        for trajectory in (traj, odd):
            trajectory.write_csv(path, all_coherences=all_coherences)
            assert path.read_bytes() == literal_csv.trajectory(trajectory, all_coherences)


#: Two-level real generator that keeps the populations and damps both
#: coherence coordinates at rate 1: trace preserving, ||L|| = 1.
_DAMPING = Liouvillian(np.diag([0.0, 0.0, -1.0, -1.0]))


class TestFailureMessages:
    """The full text of every failure reason, through its public
    single-point entry; the stacked kernels record the same reasons."""

    @pytest.mark.parametrize("call, text", [
        pytest.param(
            lambda: rr.DensityMatrix(np.diag([np.nan, 1.0])),
            "DensityMatrix: non-finite entries",
            id="non-finite"),
        pytest.param(
            lambda: rr.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]])),
            "DensityMatrix: not Hermitian (max |m - m^H| = 5.000e-01)",
            id="non-Hermitian"),
        pytest.param(
            lambda: rr.DensityMatrix(0.5 * np.eye(6)),
            "DensityMatrix: trace 3.0 deviates from 1 beyond 1e-09",  # a real trace
            id="trace-off"),
        pytest.param(
            lambda: rr.DensityMatrix(np.diag([1.5, -0.5])),
            "DensityMatrix: not PSD (min eigenvalue -5.000e-01 below -1e-08)",
            id="non-PSD"),
        pytest.param(
            lambda: Liouvillian(np.eye(4)),
            "Liouvillian: trace not preserved (||Tr o L|| = 1.414e+00)",
            id="trace-loss"),
        pytest.param(
            lambda: rr.steady_state(Liouvillian(np.zeros((4, 4)))),
            "steady_state: degenerate steady state, null-space dimension 4",
            id="degenerate"),
        pytest.param(
            lambda: rr.evolve(rr.DensityMatrix(np.eye(2) / 2), _DAMPING, t_end=1.0, dt=0.5),
            "evolve: dt exceeds the stability bound 0.1/||L|| = 0.1",
            id="unstable"),
        pytest.param(
            lambda: rr.analytic_steady_state(
                DriveConfig(omega_p=1.0, omega_c=1.0, rf_rabi=(0, 0, 0, 0)), rr.cesium_scheme()
            ),
            "analytic model degenerate: Lambda = 0 (probe drive and loop imbalance cannot "
            "both vanish, and the RF loop must carry power)",
            id="closed-form-degenerate"),
        pytest.param(
            lambda: Liouvillian(np.diag([np.inf, 0.0, 0.0, 0.0])),
            "Liouvillian: non-finite entries or norm",
            id="generator-non-finite"),
    ])
    def test_full_text(self, call, text):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == text
