"""Uhlmann fidelity, landscape scans, and the LO operating-point search."""

import importlib

import numpy as np
import pytest

import rydberg_receiver as rr
from rydberg_receiver.analytic import analytic_steady_state
from rydberg_receiver.config import replace
from rydberg_receiver.fidelity import (
    FidelityScan,
    OperatingPointResult,
    PerturbationRegion,
    average_fidelity,
    fidelity,
    fidelity_scan,
    optimize_operating_point,
)
from rydberg_receiver.lindblad import DensityMatrix, DriveConfig

TWO_PI = 2.0 * np.pi
fidelity_module = importlib.import_module("rydberg_receiver.fidelity")


def random_density(rng, dim=6):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(rr.ground_state(), rr.ground_state()) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(rr.basis_state(1), rr.basis_state(2)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_vs_pure(self):
        mixed = DensityMatrix(np.eye(6) / 6.0)
        assert fidelity(mixed, rr.basis_state(3)) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_pure_overlap(self):
        # F(|psi><psi|, |phi><phi|) = |<psi|phi>|^2
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[1] = 1.0 / np.sqrt(2.0)
        plus = DensityMatrix(np.outer(psi, psi.conj()))
        assert fidelity(plus, rr.basis_state(1)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("method", ["null_space", "evolve"])
    def test_per_point_oracle_decomposes_each_state_once(self, op_drive, scheme, method,
                                                          monkeypatch):
        # validation's eigenpairs stay with the DensityMatrix and give the
        # fidelity roots: two states, two eigendecompositions
        eigh, decomposed = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            decomposed.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        value = fidelity(
            rr.steady_state_numerical(op_drive, scheme, method=method, t_end=0.1, dt=1e-3),
            analytic_steady_state(op_drive, scheme),
        )
        assert sum(decomposed) == 2
        assert 0.0 <= value <= 1.0 + 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a, b = random_density(rng), random_density(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_bounded(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            f = fidelity(random_density(rng), random_density(rng))
            assert -1e-9 <= f <= 1.0 + 1e-9

    def test_raw_arrays_accepted(self):
        assert fidelity(np.eye(6) / 6.0, np.eye(6) / 6.0) == pytest.approx(1.0, abs=1e-12)

    def test_valid_state_with_negative_eigenvalue(self):
        # valid to DensityMatrix's PSD bound, so its root clips the -5e-9
        sigma = DensityMatrix(np.diag([0.5 + 5e-9, 0.5, -5e-9, 0.0, 0.0, 0.0]))
        assert fidelity(rr.ground_state(), sigma) == pytest.approx(0.5, abs=1e-8)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(6), rr.ground_state())  # trace 6, not a state


class TestPerturbationRegion:
    def test_validation(self):
        with pytest.raises(ValueError, match="4 entries"):
            PerturbationRegion(center=(1.0, 2.0), half_widths=(0.1, 0.1))
        with pytest.raises(ValueError, match=">= 0"):
            PerturbationRegion(center=(1.0,) * 4, half_widths=(0.1, -0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="quadrant"):
            PerturbationRegion(center=(0.05, 1.0, 1.0, 1.0), half_widths=(0.1,) * 4)
        with pytest.raises(ValueError, match="samples_per_axis"):
            PerturbationRegion(center=(1.0,) * 4, half_widths=(0.1,) * 4, samples_per_axis=0)

    def test_grid_shape_full(self):
        region = PerturbationRegion(center=(1.0,) * 4, half_widths=(0.1,) * 4, samples_per_axis=3)
        grid = region.grid()
        assert grid.shape == (81, 4)
        assert np.all(grid >= 0.9 - 1e-15)
        assert np.any(np.all(grid == 1.0, axis=1))  # center is a sample

    def test_degenerate_axis_collapses(self):
        region = PerturbationRegion(
            center=(1.0, 2.0, 3.0, 4.0), half_widths=(0.1, 0.0, 0.1, 0.1), samples_per_axis=3
        )
        assert region.grid().shape == (27, 4)
        assert np.all(region.grid()[:, 1] == 2.0)

    def test_single_sample_is_center(self):
        region = PerturbationRegion(center=(1.0, 2.0, 3.0, 4.0), half_widths=(0.5,) * 4,
                                    samples_per_axis=1)
        assert np.array_equal(region.grid(), [[1.0, 2.0, 3.0, 4.0]])


class TestFidelityScan:
    def _fixed(self):
        return DriveConfig(omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
                           rf_rabi=(TWO_PI * 2, TWO_PI * 7, TWO_PI * 1, TWO_PI * 6))

    def test_axes_validated(self, scheme):
        with pytest.raises(ValueError, match="axes"):
            fidelity_scan(self._fixed(), (2, 2), scheme)
        with pytest.raises(ValueError, match="axes"):
            fidelity_scan(self._fixed(), (0, 3), scheme)

    @pytest.mark.parametrize("axes, message", [
        ((1.5, 4), r"^fidelity_scan\.axes: 1\.5 is not in 1\.\.4$"),
        ((True, 4), r"^fidelity_scan\.axes: True is not in 1\.\.4$"),
        ((np.float64(2.0), 4), r"^fidelity_scan\.axes: 2\.0 is not in 1\.\.4$"),
        ((0, 3), r"^fidelity_scan\.axes: 0 is not in 1\.\.4$"),
        ((2, 5), r"^fidelity_scan\.axes: 5 is not in 1\.\.4$"),
        ((3, 3), r"^fidelity_scan: axes must be two distinct RF channels, got \(3, 3\)$"),
    ])
    def test_bad_axes_raise_before_any_point(self, scheme, axes, message):
        with pytest.raises(ValueError, match=message):
            fidelity_scan(self._fixed(), axes, scheme, resolution=2,
                          steady_state_method="null_space")

    def test_resolution_validated(self, scheme):
        for resolution in (0, -3, (2, 0), (3, 4, 5)):
            with pytest.raises(ValueError, match="resolution"):
                fidelity_scan(self._fixed(), (2, 3), scheme, resolution=resolution)

    def test_single_point_matches_direct_route(self, scheme):
        drive = self._fixed()
        scan = fidelity_scan(
            drive, (2, 3), scheme,
            ranges=((drive.rf_rabi[1], drive.rf_rabi[1]), (drive.rf_rabi[2], drive.rf_rabi[2])),
            resolution=1, steady_state_method="null_space",
        )
        assert scan.fidelities.shape == (1, 1)
        numerical = rr.steady_state_numerical(drive, scheme, method="null_space")
        analytic = analytic_steady_state(drive, scheme)
        assert scan.fidelities[0, 0] == pytest.approx(fidelity(numerical, analytic), abs=1e-12)

    def test_grid_layout_and_min_point(self, scheme):
        scan = fidelity_scan(
            self._fixed(), (2, 3), scheme,
            ranges=((TWO_PI * 1, TWO_PI * 9), (TWO_PI * 1, TWO_PI * 9)),
            resolution=3, steady_state_method="null_space",
        )
        assert scan.fidelities.shape == (3, 3)
        assert np.all(np.isfinite(scan.fidelities))
        assert np.all((scan.fidelities > -1e-9) & (scan.fidelities < 1 + 1e-9))
        i, j = scan.min_point()
        assert scan.fidelities[i, j] == np.nanmin(scan.fidelities)
        drive = scan.drive_at(i, j)
        assert drive.rf_rabi[1] == scan.axis_values[0][i]
        assert drive.rf_rabi[2] == scan.axis_values[1][j]
        assert drive.rf_rabi[0] == self._fixed().rf_rabi[0]

    def test_failed_points_become_nan(self, scheme):
        # (0, 0) on axes (2, 3) with channels 1 and 4 silent: Lambda = 0 there
        fixed = DriveConfig(omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
                            rf_rabi=(0.0, TWO_PI, TWO_PI, 0.0))
        scan = fidelity_scan(
            fixed, (2, 3), scheme, ranges=((0.0, TWO_PI), (0.0, TWO_PI)),
            resolution=2, steady_state_method="null_space",
        )
        assert np.isnan(scan.fidelities[0, 0])
        assert np.isfinite(scan.fidelities[1, 1])

    def test_bad_horizon_raises_its_own_message(self, scheme):
        # 10 us is no multiple of 0.3 us: no point can run, so the map raises
        with pytest.raises(ValueError) as exc:
            fidelity_scan(self._fixed(), (2, 3), scheme, resolution=3,
                          steady_state_method="evolve", t_end=10.0, dt=0.3)
        assert str(exc.value) == "evolve: t_end = 10.0 is not an integer multiple of dt = 0.3"

    def test_open_loop_bad_horizon_raises(self, scheme):
        # a closed-loop detuning: the time-dependent path, evolved point by point
        fixed = replace(self._fixed(), rf_detunings=(0.0, 0.0, 0.0, TWO_PI * 0.05))
        with pytest.raises(ValueError, match="not an integer multiple of dt = 0.3"):
            fidelity_scan(fixed, (2, 3), scheme, resolution=2,
                          steady_state_method="evolve", t_end=10.0, dt=0.3)

    def test_non_hybrid_scheme_raises(self, scheme_text):
        cut = slice(scheme_text.index("[transition.4]"), scheme_text.index("[decay.2-1]"))
        cascade = rr.parse_scheme(
            scheme_text.replace(scheme_text[cut], "").replace("Hybrid", "CRS")
        )
        with pytest.raises(ValueError, match="only the six-level hybrid scheme"):
            fidelity_scan(self._fixed(), (2, 3), cascade, resolution=2,
                          steady_state_method="null_space")

    def test_negative_amplitude_raises_not_nan(self, scheme):
        with pytest.raises(ValueError, match=r"DriveConfig\.rf_rabi must be >= 0"):
            fidelity_scan(
                self._fixed(), (1, 4), scheme, ranges=((-TWO_PI, TWO_PI), (0.0, TWO_PI)),
                resolution=2, steady_state_method="null_space",
            )

    def test_range_not_finite_is_named(self, scheme):
        with pytest.raises(ValueError, match=r"fidelity_scan\.ranges must be finite"):
            fidelity_scan(
                self._fixed(), (1, 4), scheme, ranges=((0.0, 1.0), (0.0, np.inf)),
                resolution=2, steady_state_method="null_space",
            )

    def test_csv_export(self, tmp_path, scheme):
        scan = fidelity_scan(
            self._fixed(), (2, 3), scheme,
            ranges=((TWO_PI * 2, TWO_PI * 8), (TWO_PI * 2, TWO_PI * 8)),
            resolution=2, steady_state_method="null_space",
        )
        path = tmp_path / "scan.csv"
        scan.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "omega1,omega2,omega3,omega4,fidelity"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(self._fixed().rf_rabi[0])

    def test_csv_bytes_match_row_writer(self, tmp_path, literal_csv):
        scan = FidelityScan(
            axes=(4, 2),
            axis_values=(np.array([-0.0, TWO_PI * 3]), np.array([TWO_PI, TWO_PI * 2.5, 1e-7])),
            fixed=self._fixed(),
            fidelities=np.array([[0.99, np.nan, -0.0], [1.0, 0.123456789012345, 1e-20]]),
        )
        path = tmp_path / "scan.csv"
        scan.write_csv(path)
        assert path.read_bytes() == literal_csv.fidelity_scan(scan)


class TestAverageFidelity:
    def test_zero_width_region_equals_point(self, scheme, op_drive):
        region = PerturbationRegion(center=op_drive.rf_rabi, half_widths=(0.0,) * 4)
        avg = average_fidelity(region, op_drive, scheme)
        numerical = rr.steady_state_numerical(op_drive, scheme, method="null_space")
        analytic = analytic_steady_state(op_drive, scheme)
        assert avg == pytest.approx(fidelity(numerical, analytic), abs=1e-12)

    def test_plateau_average_high(self, scheme, op_drive):
        # 2 kHz LO drift around the operating point barely moves the fidelity
        region = PerturbationRegion(
            center=op_drive.rf_rabi, half_widths=(TWO_PI * 2e-3,) * 4, samples_per_axis=2
        )
        avg = average_fidelity(region, op_drive, scheme)
        assert avg > 0.999

    def test_degenerate_point_raises_its_message(self, reduced_scheme, op_drive):
        # probe decay only: the balanced loop at the region's center keeps a
        # dark state, and the region raises that point's own message
        center = TWO_PI * np.array([3.0, 5.0, 5.0, 3.0])
        region = PerturbationRegion(center=center, half_widths=(TWO_PI * 0.1, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError) as alone:
            rr.steady_state(rr.make_generator(op_drive.with_rf_rabi(center), reduced_scheme))
        assert "degenerate" in str(alone.value)
        with pytest.raises(ValueError) as averaged:
            average_fidelity(region, op_drive, reduced_scheme)
        assert str(averaged.value) == str(alone.value)


class TestOptimizer:
    def _base(self):
        return DriveConfig(omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
                           rf_rabi=(TWO_PI, TWO_PI, TWO_PI, TWO_PI))

    def test_unknown_method_raises_before_any_point(self, scheme, monkeypatch):
        solves = []
        monkeypatch.setattr(
            importlib.import_module("rydberg_receiver.fidelity"),
            "_numerical_states",
            lambda *args, **kwargs: solves.append(args),
        )
        with pytest.raises(ValueError, match="method 'bogus'"):
            optimize_operating_point(
                (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0,
                base_drive=self._base(), scheme=scheme, steady_state_method="bogus",
            )
        with pytest.raises(ValueError, match="method 'bogus'"):
            fidelity_scan(self._base(), (1, 2), scheme, resolution=2, steady_state_method="bogus")
        assert solves == []

    def test_matches_brute_force_oracle(self, scheme):
        base = self._base()
        result = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 7.0), TWO_PI * 30.0,
            base_drive=base, scheme=scheme, grid_step=TWO_PI * 1.0,
        )
        # independent exhaustive pass over the same candidate lattice
        axis = TWO_PI * np.array([5.0, 6.0, 7.0])
        best_val, best_pt = -np.inf, None
        for w in axis:
            for x in axis:
                for y in axis:
                    for z in axis:
                        if w + x + y + z > TWO_PI * 30.0 + 1e-12:
                            continue
                        drive = base.with_rf_rabi((w, x, y, z))
                        num = rr.steady_state_numerical(drive, scheme, method="null_space")
                        ana = analytic_steady_state(drive, scheme)
                        val = fidelity(num, ana)
                        if val > best_val:
                            best_val, best_pt = val, (w, x, y, z)
        assert result.average_fidelity == best_val
        assert result.point == pytest.approx(best_pt)
        assert result.evaluated == 81

    @staticmethod
    def _all_tuples_filtered(lo, hi, grid_step, sum_constraint):
        """The candidate list as every n^4 tuple of the axis, filtered."""
        n = int(np.floor((hi - lo) / grid_step + 1e-9)) + 1
        axis = lo + grid_step * np.arange(n)
        candidates = [
            (float(w), float(x), float(y), float(z))
            for w in axis
            for x in axis
            for y in axis
            for z in axis
            if w + x + y + z <= sum_constraint + 1e-12
        ]
        candidates.sort(key=lambda c: (sum(c), c))
        return candidates

    @pytest.mark.parametrize("lo, hi, step, cap", [
        (0.0, 3.0, 1.0, 3.5),  # the benchmark's lattice: k = 0..3, sum(k) <= 3.5
        (0.0, 3 * 1.237, 1.237, 1.237 * 3.5),
        (0.0, 3 * 0.813, 0.813, 0.813 * 3.5),
        (TWO_PI * 5.0, TWO_PI * 7.0, TWO_PI, TWO_PI * 22.0),
        (0.0, TWO_PI * 2.0, TWO_PI, TWO_PI * 3.0),  # sums land on the cap
        (0.1, 0.75, 0.1, 1.0),  # steps that do not sum exactly
        (0.0, 0.6, 0.1, 0.3),
        (0.0, 5.0, 1.0, 100.0),  # the cap prunes nothing
        (2.0, 4.0, 1.0, 1.0),  # the cap admits nothing
    ])
    def test_candidates_equal_the_filtered_lattice(self, lo, hi, step, cap):
        expected = self._all_tuples_filtered(lo, hi, step, cap)
        assert fidelity_module._candidates(lo, hi, step, cap) == expected

    def test_fine_axis_builds_only_feasible_candidates(self):
        # 1001 points per axis, of which the four under the cap make 256 tuples; 35 fit
        step = TWO_PI * 0.01
        candidates = fidelity_module._candidates(0.0, TWO_PI * 10.0, step, 3 * step)
        assert len(candidates) == 35
        assert candidates[0] == (0.0,) * 4
        assert all(sum(c) <= 3 * step + 1e-12 for c in candidates)

    @pytest.mark.parametrize("step", [1.0, TWO_PI * 1.2, 0.813])
    def test_search_ceiling_far_above_the_cap(self, step):
        # a ceiling of 1e300 steps builds no axis beyond the cap
        far = fidelity_module._candidates(0.0, 1e300, step, 3.5 * step)
        assert far == fidelity_module._candidates(0.0, 3 * step, step, 3.5 * step)

    def test_nonpositive_grid_step_raises(self, scheme):
        for grid_step in (0.0, -TWO_PI, float("nan")):
            with pytest.raises(ValueError, match=r"optimize_operating_point\.grid_step must be "):
                optimize_operating_point(
                    (TWO_PI * 5.0, TWO_PI * 2.0), TWO_PI * 30.0,
                    base_drive=self._base(), scheme=scheme, grid_step=grid_step,
                )

    def test_sum_constraint_prunes(self, scheme):
        result = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 7.0), TWO_PI * 22.0,
            base_drive=self._base(), scheme=scheme, grid_step=TWO_PI * 1.0,
        )
        assert sum(result.point) <= TWO_PI * 22.0 + 1e-9
        for candidate, _val in result.accepted:
            assert sum(candidate) <= TWO_PI * 22.0 + 1e-9
        assert result.evaluated < 81

    def test_accepted_plateau_sorted(self, scheme):
        result = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 7.0), TWO_PI * 30.0,
            base_drive=self._base(), scheme=scheme, grid_step=TWO_PI * 1.0,
            plateau_tolerance=1e-3,
        )
        vals = [v for _c, v in result.accepted]
        assert vals == sorted(vals, reverse=True)
        assert result.accepted[0][1] == result.average_fidelity
        assert all(v >= result.average_fidelity - 1e-3 for v in vals)

    def test_region_objective_with_single_sample_matches_point(self, scheme):
        base = self._base()
        with_region = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0, (TWO_PI * 1e-3,) * 4, 1,
            base_drive=base, scheme=scheme, grid_step=TWO_PI * 1.0,
        )
        point_only = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0,
            base_drive=base, scheme=scheme, grid_step=TWO_PI * 1.0,
        )
        assert with_region.average_fidelity == point_only.average_fidelity

    def test_accepted_objectives_are_shrunken_region_averages(self, scheme):
        # 2 samples on two axes; the all-zero candidate fails on the analytic side
        half_widths = (TWO_PI * 0.1, TWO_PI * 0.1, 0.0, 0.0)
        result = optimize_operating_point(
            (0.0, TWO_PI * 2.0), TWO_PI * 3.0, half_widths, samples_per_axis=2,
            base_drive=self._base(), scheme=scheme, grid_step=TWO_PI, plateau_tolerance=1.0,
        )
        assert result.failures == ((0.0, 0.0, 0.0, 0.0),)
        assert len(result.accepted) == result.evaluated - 1
        for candidate, value in result.accepted:
            hw = tuple(min(h, v) for h, v in zip(half_widths, candidate))
            region = PerturbationRegion(center=candidate, half_widths=hw, samples_per_axis=2)
            assert value == average_fidelity(region, self._base(), scheme)

    def test_empty_feasible_set(self, scheme):
        with pytest.raises(ValueError, match="empty feasible"):
            optimize_operating_point(
                (TWO_PI * 5.0, TWO_PI * 7.0), TWO_PI * 1.0,
                base_drive=self._base(), scheme=scheme, grid_step=TWO_PI,
            )

    def test_all_candidates_failing(self, scheme):
        # the only candidate is (0,0,0,0): analytic side degenerate
        with pytest.raises(ValueError, match="every candidate failed"):
            optimize_operating_point(
                (0.0, 0.0), TWO_PI, base_drive=self._base(), scheme=scheme,
                grid_step=TWO_PI,
            )

    def test_bad_horizon_raises_its_own_message(self, scheme):
        with pytest.raises(ValueError) as exc:
            optimize_operating_point(
                (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0, base_drive=self._base(),
                scheme=scheme, grid_step=TWO_PI, steady_state_method="evolve",
                t_end=10.0, dt=0.3,
            )
        assert str(exc.value) == "evolve: t_end = 10.0 is not an integer multiple of dt = 0.3"

    def test_bad_constraint(self, scheme):
        with pytest.raises(ValueError, match="sum_constraint"):
            optimize_operating_point(
                (0.0, TWO_PI), 0.0, base_drive=self._base(), scheme=scheme
            )
        for search_range in ((0.0, np.inf), (0.0, np.nan), [0.0, np.inf]):
            with pytest.raises(ValueError, match="search_range must be finite"):
                optimize_operating_point(
                    search_range, TWO_PI * 30.0, base_drive=self._base(), scheme=scheme
                )
        # a negative lower bound is named, with or without a drift box
        for half_widths in ((0.0,) * 4, (1.0,) * 4):
            with pytest.raises(ValueError, match=r"optimize_operating_point\.search_lo must be >= 0"):
                optimize_operating_point(
                    (-TWO_PI * 2.0, TWO_PI * 4.0), TWO_PI * 30.0, half_widths,
                    base_drive=self._base(), scheme=scheme, grid_step=TWO_PI * 2.0,
                )

    def test_invalid_drift_box_raises(self, scheme):
        for half_widths, samples, message in [
            ((-1.0, 0.0, 0.0, 0.0), 3, "half_widths must be >= 0"),
            ((0.0,) * 4, 0, r"PerturbationRegion\.samples_per_axis must be > 0"),
            ((0.0,) * 3, 3, None),  # not four half widths
        ]:
            with pytest.raises(ValueError, match=message):
                optimize_operating_point(
                    (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0, half_widths, samples,
                    base_drive=self._base(), scheme=scheme, grid_step=TWO_PI,
                )

    def test_result_type(self, scheme):
        result = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0,
            base_drive=self._base(), scheme=scheme, grid_step=TWO_PI,
        )
        assert isinstance(result, OperatingPointResult)
        assert result.failures == ()
