"""Uhlmann fidelity, landscape scans, and the LO operating-point search."""

import importlib

import numpy as np
import pytest

import rydberg_receiver as rr
from rydberg_receiver.analytic import analytic_steady_state
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

    def test_negative_amplitude_raises_not_nan(self, scheme):
        with pytest.raises(ValueError, match="Rabi amplitudes must be >= 0"):
            fidelity_scan(
                self._fixed(), (1, 4), scheme, ranges=((-TWO_PI, TWO_PI), (0.0, TWO_PI)),
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
        template = PerturbationRegion(
            center=(TWO_PI,) * 4, half_widths=(TWO_PI * 1e-3,) * 4, samples_per_axis=1
        )
        with_region = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0, template,
            base_drive=base, scheme=scheme, grid_step=TWO_PI * 1.0,
        )
        point_only = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0,
            base_drive=base, scheme=scheme, grid_step=TWO_PI * 1.0,
        )
        assert with_region.average_fidelity == point_only.average_fidelity

    def test_accepted_objectives_are_shrunken_region_averages(self, scheme):
        # 2 samples on two axes; the all-zero candidate fails on the analytic side
        template = PerturbationRegion(
            center=(TWO_PI,) * 4, half_widths=(TWO_PI * 0.1, TWO_PI * 0.1, 0.0, 0.0),
            samples_per_axis=2,
        )
        result = optimize_operating_point(
            (0.0, TWO_PI * 2.0), TWO_PI * 3.0, template,
            base_drive=self._base(), scheme=scheme, grid_step=TWO_PI, plateau_tolerance=1.0,
        )
        assert result.failures == ((0.0, 0.0, 0.0, 0.0),)
        assert len(result.accepted) == result.evaluated - 1
        for candidate, value in result.accepted:
            hw = tuple(min(h, v) for h, v in zip(template.half_widths, candidate))
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

    def test_bad_constraint(self, scheme):
        with pytest.raises(ValueError, match="sum_constraint"):
            optimize_operating_point(
                (0.0, TWO_PI), 0.0, base_drive=self._base(), scheme=scheme
            )
        # a negative lower bound is named, with or without a template
        for template in (None, PerturbationRegion(center=(1.0,) * 4, half_widths=(1.0,) * 4)):
            with pytest.raises(ValueError, match="search_range must start at >= 0"):
                optimize_operating_point(
                    (-TWO_PI * 2.0, TWO_PI * 4.0), TWO_PI * 30.0, template,
                    base_drive=self._base(), scheme=scheme, grid_step=TWO_PI * 2.0,
                )

    def test_result_type(self, scheme):
        result = optimize_operating_point(
            (TWO_PI * 5.0, TWO_PI * 6.0), TWO_PI * 30.0,
            base_drive=self._base(), scheme=scheme, grid_step=TWO_PI,
        )
        assert isinstance(result, OperatingPointResult)
        assert result.failures == ()
