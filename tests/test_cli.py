"""End-to-end CLI coverage: exit codes, artifacts, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from rydberg_receiver import cli, lindblad, receiver
from rydberg_receiver.cli import SCHEMAS, _resolve_drive, main
from rydberg_receiver.config import _key_table, parse_config
from rydberg_receiver.lindblad import (
    DriveConfig, make_generator, steady_state, steady_state_numerical, vectorize,
)
from rydberg_receiver.receiver import iq_demodulate, signal_amplitudes
from rydberg_receiver.scheme import Architecture

TWO_PI = 2.0 * np.pi


def run(tmp_path, *argv, config=None, name="run.ini"):
    args = list(argv)
    if config is not None:
        path = tmp_path / name
        path.write_text(config)
        args += ["--config", str(path)]
    return main(args)


class TestParsing:
    def test_version_subprocess(self, package_env):
        out = subprocess.run(
            [sys.executable, "-m", "rydberg_receiver.cli", "--version"],
            capture_output=True, text=True, env=package_env,
        )
        assert out.returncode == 0
        assert "0.1.0" in out.stdout

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    def test_missing_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_shared_common_options_match_per_command_copies(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        assert len(commands) == 7
        argv = ["--config", "c.ini", "--scheme", "s.ini", "--out", "o", "--seed", "3",
                "--workers", "2", "--dry-run"]
        for name, parser in commands.items():
            copy = cli._Parser(prog=f"rydberg-receiver {name}")
            cli._add_common(copy)
            copy.set_defaults(func=getattr(cli, "cmd_" + name.replace("-", "_")))
            assert parser.format_help() == copy.format_help()
            assert parser.parse_args(argv) == copy.parse_args(argv)
            assert parser.parse_args([]) == copy.parse_args([])

    def test_json_encodes_the_four_foreign_types(self, tmp_path):
        path = tmp_path / "out.json"
        cli._dump_json(path, {"z": np.complex128(1 - 2j), "arch": Architecture.CRS,
                              "v": np.arange(2.0), "n": (np.int64(3), np.float32(0.5))})
        assert json.loads(path.read_text()) == {
            "z": {"re": 1.0, "im": -2.0}, "arch": "CRS", "v": [0.0, 1.0], "n": [3, 0.5]}
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            cli._dump_json(path, {"x": object()})

    def test_type_error_in_a_command_propagates(self, tmp_path, monkeypatch):
        # exit 2 is the ValueError family: any other exception is a bug, and ends in a traceback
        def broken(cfg, scheme, seed):
            raise TypeError("a bug")

        monkeypatch.setattr(cli, "cmd_validate_scheme", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["validate-scheme", "--out", str(tmp_path / "out")])

    def test_bad_common_option_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["waveform", "--seed", "x"])
        assert exc.value.code == 1
        assert "invalid int value" in capsys.readouterr().err


class TestMemoryBackstop:
    """A size that passes the load checks but not the machine's memory exits
    2 with a message. The commands are patched to raise, so no test
    allocates its way to the error."""

    @pytest.mark.parametrize("command, func", [
        ("fidelity-map", "cmd_fidelity_map"),
        ("waveform", "cmd_waveform"),
        ("sumrate", "cmd_sumrate"),
    ])
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch, command, func):
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def raise_memory_error(cfg, scheme, seed):
            raise MemoryError(message)

        monkeypatch.setattr(cli, func, raise_memory_error)
        out = tmp_path / "out"
        assert main([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_bare_memory_error_is_named(self, tmp_path, capsys, monkeypatch):
        def raise_memory_error(cfg, scheme, seed):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_steady_state", raise_memory_error)
        assert main(["steady-state", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"


#: case -> (edits of the bundled scheme file, what the error names after the file's path)
BROKEN_SCHEMES = {
    "missing-parity": ([("label = 60D5/2\nparity = +1", "label = 60D5/2")],
                       "[level.3] missing key 'parity'"),
    "missing-carrier": ([("carrier_ghz = 3.054\n", "")],
                        "[transition.2] missing key 'carrier_<unit>'"),
    "level-0": ([("[level.1]", "[level.0]")],
                "[level.N] must be numbered 1..6, got [0, 2, 3, 4, 5, 6]"),
    "level-gap": ([("[level.5]", "[level.7]")],
                  "[level.N] must be numbered 1..6, got [1, 2, 3, 4, 6, 7]"),
    "past-K": ([("lower = 5\nupper = 6", "lower = 5\nupper = 7")],
               "LevelScheme: transition 3 upper: 7 is not in 1..6"),
    # a CRS file skips the hybrid edge check, so only the rule on `lower` stops it
    "crs-lower-0": ([("architecture = Hybrid", "architecture = CRS"),
                     ("lower = 3\nupper = 6", "lower = 0\nupper = 6")],
                    "[transition.4] lower must be > 0"),
}


class TestValidateScheme:
    def test_bundled_scheme_valid(self, capsys):
        assert main(["validate-scheme"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out.lower()

    def test_broken_scheme_exits_1(self, tmp_path, capsys):
        scheme = tmp_path / "broken.ini"
        scheme.write_text(
            "[scheme]\narchitecture = Hybrid\n"
            + "\n".join(
                f"[level.{k}]\nlabel = L{k}\nparity = 1" for k in range(1, 7)
            )
            + "\n[transition.1]\nlower = 3\nupper = 4\ncarrier_ghz = 3\n"
            "dipole_ea0 = 100\ndetuning_khz = 0\nband = rf\n"
            "[transition.2]\nlower = 4\nupper = 5\ncarrier_ghz = 3\n"
            "dipole_ea0 = 100\ndetuning_khz = 0\nband = rf\n"
            "[transition.3]\nlower = 5\nupper = 6\ncarrier_ghz = 3\n"
            "dipole_ea0 = 100\ndetuning_khz = 0\nband = rf\n"
            "[transition.4]\nlower = 3\nupper = 6\ncarrier_ghz = 3\n"
            "dipole_ea0 = 100\ndetuning_khz = 0\nband = rf\n"
            "[decay.2-1]\nrate_mhz = 5.2\n"
        )
        # parses fine but every transition links equal parities
        assert main(["validate-scheme", "--scheme", str(scheme)]) == 1
        assert "parity violation" in capsys.readouterr().out

    def test_malformed_scheme_value_exits_1(self, tmp_path, capsys):
        scheme = tmp_path / "bad.ini"
        scheme.write_text("[scheme]\narchitecture = Hybrid\n[level.1]\nlabel = g\nparity = 2\n")
        assert main(["validate-scheme", "--scheme", str(scheme)]) == 1
        assert "parity" in capsys.readouterr().err

    def test_unreadable_scheme_exits_1(self, tmp_path, capsys, scheme_text):
        latin1 = tmp_path / "latin1.ini"
        latin1.write_bytes(scheme_text.replace("6S1/2", "6S1/2 \xe9").encode("latin-1"))
        for path in (tmp_path / "none.ini", tmp_path, latin1):
            assert main(["validate-scheme", "--scheme", str(path)]) == 1
            assert f"{path}: cannot read scheme" in capsys.readouterr().err

    def test_cascade_scheme_valid_but_not_simulated(self, tmp_path, capsys, scheme_text):
        cut = slice(scheme_text.index("[transition.4]"), scheme_text.index("[decay.2-1]"))
        cascade = scheme_text.replace(scheme_text[cut], "")
        path = tmp_path / "cascade.ini"
        path.write_text(cascade.replace("architecture = Hybrid", "architecture = CRS"))
        assert main(["validate-scheme", "--scheme", str(path)]) == 0
        for command in ("steady-state", "sumrate"):
            capsys.readouterr()
            code = main([command, "--scheme", str(path), "--out", str(tmp_path / command)])
            assert code == 1
            assert "CRS with K=6 and 3 RF transitions" in capsys.readouterr().err

    def test_misnumbered_or_negative_rate_scheme_exits_1(
        self, tmp_path, capsys, scheme_text, renumbered_scheme_text
    ):
        renumbered = tmp_path / "renumbered.ini"
        renumbered.write_text(renumbered_scheme_text)
        negative = tmp_path / "negative.ini"
        negative.write_text(scheme_text.replace("rate_khz = 0.8", "rate_khz = -0.8"))
        cases = [(renumbered, list(SCHEMAS), "RF edges"),
                 (negative, ["validate-scheme", "steady-state"], "negative")]
        for path, names, message in cases:
            for command in names:
                capsys.readouterr()
                code = main([command, "--scheme", str(path), "--out", str(tmp_path / "o")])
                assert code == 1
                assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-scheme", "steady-state"])
    @pytest.mark.parametrize("case", list(BROKEN_SCHEMES))
    def test_broken_scheme_file_names_its_section(self, tmp_path, capsys, scheme_text, command,
                                                  case):
        edits, named = BROKEN_SCHEMES[case]
        text = scheme_text
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "broken.ini"
        path.write_text(text)
        assert main([command, "--scheme", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: {named}" in err
        assert "Traceback" not in err


class TestSteadyState:
    def test_default_run_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["steady-state", "--out", str(out)]) == 0
        rows = (out / "steady_state.csv").read_text().strip().splitlines()
        assert rows[0] == "i,j,re,im"
        assert len(rows) == 1 + 36
        summary = json.loads((out / "summary.json").read_text())
        pops = summary["populations"]
        assert len(pops) == 6
        assert sum(pops) == pytest.approx(1.0, abs=1e-9)
        assert summary["analytic_comparison"]["max_abs_difference"] < 0.05
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "steady-state"
        assert manifest["scheme"] == "bundled:cesium-six-level"
        assert "timestamp" not in json.dumps(manifest).lower()
        assert str(out) not in (out / "manifest.json").read_text()

    def test_analytic_method(self, tmp_path):
        cfg = "[steady_state]\nmethod = analytic\n"
        out = tmp_path / "out"
        assert run(tmp_path, "steady-state", "--out", str(out), config=cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "analytic"
        assert summary["liouvillian_residual"] is None

    def test_open_loop_residual_is_taken_at_t_end(self, tmp_path, scheme):
        # an open loop's L(t) turns with time: the residual is ||d rho/dt|| at t_end
        cfg = "[drive]\nrf_detunings_khz = 1, 1, 2, 24\n[steady_state]\nmethod = evolve\n"
        out = tmp_path / "out"
        assert run(tmp_path, "steady-state", "--out", str(out), config=cfg) == 0
        values = parse_config(cfg, SCHEMAS["steady-state"])
        drive, ss = _resolve_drive(values["drive"], scheme), values["steady_state"]
        rho = steady_state_numerical(drive, scheme, "evolve", ss["t_end"], ss["dt"])
        expected = np.linalg.norm(
            make_generator(drive, scheme).matrix(ss["t_end"]) @ vectorize(rho.matrix))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["liouvillian_residual"] == pytest.approx(expected, rel=1e-9)

    def test_unknown_method_exits_1(self, tmp_path, capsys):
        cfg = "[steady_state]\nmethod = magic\n"
        assert run(tmp_path, "steady-state", "--out", str(tmp_path / "o"), config=cfg) == 1
        assert "method" in capsys.readouterr().err

    def test_config_error_exits_1_and_names_key(self, tmp_path, capsys):
        cfg = "[drive]\nomega_p_mhz = fast\n"
        code = run(tmp_path, "steady-state", "--out", str(tmp_path / "o"), config=cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert "omega_p_mhz" in err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = "[drive]\nomega_probe_mhz = 5.7\n"
        code = run(tmp_path, "steady-state", "--out", str(tmp_path / "o"), config=cfg)
        assert code == 1
        assert "omega_probe_mhz" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = main(["steady-state", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_cannot_be_a_directory_exits_1(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("a file")
        assert main(["steady-state", "--out", str(blocker / below)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_degenerate_analytic_point_exits_2(self, tmp_path, capsys):
        # all RF off: the closed form rejects this drive at runtime
        cfg = (
            "[drive]\nrf_rabi_mhz = 0, 0, 0, 0\n"
            "[steady_state]\nmethod = analytic\n"
        )
        code = run(tmp_path, "steady-state", "--out", str(tmp_path / "o"), config=cfg)
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_null_space_builds_one_generator(self, tmp_path, monkeypatch):
        # the stationary solve and the Liouvillian residual share one generator
        calls = []

        def counted(*args):
            calls.append(args)
            return make_generator(*args)

        for module in (lindblad, cli):
            monkeypatch.setattr(module, "make_generator", counted)
        cfg = "[steady_state]\nmethod = null_space\n"
        assert run(tmp_path, "steady-state", "--out", str(tmp_path / "o"), config=cfg) == 0
        assert len(calls) == 1

    def test_csv_bytes_match_row_writer(self, tmp_path, scheme, literal_csv):
        out = tmp_path / "out"
        assert main(["steady-state", "--out", str(out)]) == 0
        drive = _resolve_drive(parse_config("", SCHEMAS["steady-state"])["drive"], scheme)
        rho = steady_state(make_generator(drive, scheme))
        assert (out / "steady_state.csv").read_bytes() == literal_csv.steady_state(rho.matrix)

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["steady-state", "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["dry_run"] is True
        assert "steady_state.csv" in payload["would_write"]


class TestDynamics:
    CFG = "[dynamics]\nt_end_us = 2\nmax_snapshots = 21\n"

    def test_artifacts_and_determinism(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(tmp_path, "dynamics", "--out", str(out_a), config=self.CFG) == 0
        assert run(tmp_path, "dynamics", "--out", str(out_b), config=self.CFG) == 0
        for name in ("trajectory.csv", "summary.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        rows = (out_a / "trajectory.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t,rho11,")
        assert len(rows) == 1 + 21
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["snapshots"] == 21
        assert summary["max_trace_drift"] < 1e-10
        assert sum(summary["final_populations"]) == pytest.approx(1.0, abs=1e-9)

    def test_bad_initial_level_exits_1(self, tmp_path, capsys):
        cfg = self.CFG + "initial_level = 9\n"
        assert run(tmp_path, "dynamics", "--out", str(tmp_path / "o"), config=cfg) == 1
        assert "initial_level" in capsys.readouterr().err

    def test_unstable_step_exits_2(self, tmp_path, capsys):
        cfg = "[dynamics]\nt_end_us = 1\ndt_us = 0.5\n"
        assert run(tmp_path, "dynamics", "--out", str(tmp_path / "o"), config=cfg) == 2

    def test_huge_integer_dry_run(self, tmp_path, capsys):
        # an integer key is checked as it is, never converted to float
        cfg = "[dynamics]\nmax_snapshots = 1" + "0" * 400 + "\n"
        out = tmp_path / "o"
        assert run(tmp_path, "dynamics", "--out", str(out), "--dry-run", config=cfg) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["dynamics"]["max_snapshots"] == 10**400
        assert not out.exists()


class TestFidelityMap:
    def test_small_scan(self, tmp_path, capsys):
        cfg = (
            "[scan]\naxes = 2, 3\n"
            "range_lo_mhz = 2, 2\nrange_hi_mhz = 8, 8\n"
            "resolution = 2\nmethod = null_space\n"
        )
        out = tmp_path / "out"
        assert run(tmp_path, "fidelity-map", "--out", str(out), config=cfg) == 0
        rows = (out / "fidelity_map.csv").read_text().strip().splitlines()
        assert rows[0] == "omega1,omega2,omega3,omega4,fidelity"
        assert len(rows) == 1 + 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["points"] == 4
        assert summary["failures"] == 0
        assert 0.0 < summary["min_fidelity"] <= summary["max_fidelity"] <= 1.0 + 1e-9
        assert len(summary["min_point_rf_rabi"]) == 4

    @pytest.mark.parametrize("workers", ["2", "0", "-3"])
    def test_workers_flag_changes_nothing(self, tmp_path, capsys, workers):
        cfg = "[scan]\nresolution = 3\nmethod = null_space\n"
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert run(tmp_path, "fidelity-map", "--out", str(plain), config=cfg) == 0
        assert run(
            tmp_path, "fidelity-map", "--out", str(flagged), "--workers", workers, config=cfg
        ) == 0
        names = sorted(path.name for path in plain.iterdir())
        assert names == sorted(path.name for path in flagged.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (flagged / name).read_bytes()

    def test_bad_axes_exits_1(self, tmp_path, capsys):
        cfg = "[scan]\naxes = 1, 2, 3\n"
        assert run(tmp_path, "fidelity-map", "--out", str(tmp_path / "o"), config=cfg) == 1

    def test_all_points_failed_exits_2(self, tmp_path, capsys):
        # dt exceeds the stability bound at every point, so every point is NaN
        cfg = "[scan]\nresolution = 2\nmethod = evolve\ndt_us = 0.01\n"
        out = tmp_path / "out"
        assert run(tmp_path, "fidelity-map", "--out", str(out), config=cfg) == 2
        err = capsys.readouterr().err
        assert "fidelity-map: all 4 grid points failed" in err
        assert "; first failed point: evolve: dt exceeds the stability bound" in err
        assert not out.exists()

    def test_overflowing_generator_fails_open_and_closed_loops_alike(self, tmp_path, capsys):
        # a 1e300 coupling overflows the generator's norm whether or not the loop is detuned
        for detunings in ("0, 0, 0, 0", "1, 1, 2, 24"):
            cfg = (f"[drive]\nomega_c_ghz = 1e300\nrf_detunings_khz = {detunings}\n"
                   "[scan]\nresolution = 2\n")
            assert run(tmp_path, "fidelity-map", "--out", str(tmp_path / "out"), config=cfg) == 2
            assert capsys.readouterr().err == (
                "error: fidelity-map: all 4 grid points failed; first failed point: "
                "Liouvillian: non-finite entries or norm\n")


class TestOptimizeLo:
    def test_tiny_window(self, tmp_path, capsys):
        cfg = (
            "[optimize]\nsearch_lo_mhz = 5\nsearch_hi_mhz = 6\n"
            "grid_step_mhz = 1\nsum_constraint_mhz = 30\n"
            "samples_per_axis = 1\n"
        )
        out = tmp_path / "out"
        assert run(tmp_path, "optimize-lo", "--out", str(out), config=cfg) == 0
        payload = json.loads((out / "operating_point.json").read_text())
        assert payload["evaluated"] == 16
        assert payload["average_fidelity"] > 0.99
        assert len(payload["operating_point_rad_per_us"]) == 4
        assert payload["operating_point_mhz"][0] == pytest.approx(
            payload["operating_point_rad_per_us"][0] / TWO_PI
        )

    def test_infeasible_constraint_exits_2(self, tmp_path, capsys):
        cfg = (
            "[optimize]\nsearch_lo_mhz = 5\nsearch_hi_mhz = 6\n"
            "grid_step_mhz = 1\nsum_constraint_mhz = 1\n"
        )
        assert run(tmp_path, "optimize-lo", "--out", str(tmp_path / "o"), config=cfg) == 2

    def test_every_candidate_failed_says_why(self, tmp_path, capsys):
        # the one candidate is RF-off, where the closed form is degenerate
        cfg = "[optimize]\nsearch_hi_mhz = 1\nsum_constraint_mhz = 0.5\n"
        assert run(tmp_path, "optimize-lo", "--out", str(tmp_path / "o"), config=cfg) == 2
        err = capsys.readouterr().err
        assert "every candidate failed to evaluate; first failed point: analytic model " \
            "degenerate: Lambda = 0" in err


class TestWaveform:
    def test_default_pipeline(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["waveform", "--out", str(out)]) == 0
        for name in (
            "waveform.csv", "demod.csv", "spectrogram.csv", "summary.json", "manifest.json"
        ):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["samples"] == 3200
        assert summary["linearization_rms_over_dc"] < 0.02
        assert len(summary["channels"]) == 4
        for ch in summary["channels"]:
            assert abs(ch["magnitude_ratio"] - 1.0) < 0.03
        rows = (out / "waveform.csv").read_text().strip().splitlines()
        assert rows[0] == "t,y_exact,y_linearized"
        assert len(rows) == 1 + 3200
        demod_header = (out / "demod.csv").read_text().splitlines()[0]
        assert demod_header == "channel,t,re,im"

    def test_balanced_loop_writes_null_ratio(self, tmp_path):
        # zeta = 0: every gain is exactly 0, so no envelope is expected and
        # there is no ratio to write
        cfg = "[drive]\nrf_rabi_mhz = 1, 1, 1, 1\n[waveform]\nspectrogram = false\n"
        out = tmp_path / "out"
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 0

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}, which is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["gains_a_per_v_per_m"] == [0.0] * 4
        assert [ch["magnitude_ratio"] for ch in summary["channels"]] == [None] * 4

    def test_one_evaluation_per_record(self, tmp_path, monkeypatch, scheme, op_drive):
        # one operating point per record, and one carrier per active channel
        # serving both the exact and the first-order form
        calls = {"_operating_point": 0, "_carrier": 0}
        for name in calls:
            original = getattr(receiver, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(receiver, name, counted)
        assert run(tmp_path, "waveform", "--out", str(tmp_path / "out")) == 0
        assert calls == {"_operating_point": 1, "_carrier": 4}
        calls.update(dict.fromkeys(calls, 0))
        amps = (0.0, signal_amplitudes(op_drive, scheme, 5e-3)[1], 0.0, 0.0)
        spec = receiver.RfSignalSpec(amplitudes=amps, offsets=(TWO_PI * 0.2, TWO_PI * 0.5,
                                                               TWO_PI * 0.8, TWO_PI * 1.1))
        receiver.synthesize_pd_waveform(spec, op_drive, receiver.DEFAULT_CELL, scheme,
                                        duration=10.0, sample_rate=16.0)
        assert calls == {"_operating_point": 1, "_carrier": 1}

    def test_drive_keys_it_does_not_read_exit_1(self, tmp_path, capsys):
        # the closed form reads only omega_p, omega_c and rf_rabi: an open
        # loop with detunings and phases would be silently simulated as resonant
        cfg = ("[drive]\ndelta_p_mhz = 3\nrf_detunings_khz = 1, 1, 2, 500\n"
               "rf_phases = 0.5, 1, 0, 2\n")
        out = tmp_path / "out"
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 1
        assert "[drive] unknown key 'delta_p_mhz'" in capsys.readouterr().err
        assert not out.exists()

    def test_default_amplitudes_come_from_the_modulation_index(self, tmp_path, scheme):
        cfg = "[waveform]\nspectrogram = false\ndemodulate = false\n"
        out = tmp_path / "out"
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 0
        defaults = parse_config("", SCHEMAS["waveform"])
        drive = DriveConfig(**defaults["drive"])
        expected = signal_amplitudes(drive, scheme, defaults["signal"]["modulation_index"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["amplitudes_v_per_m"] == list(expected)

    def test_demod_csv_bytes_match_row_writer(self, tmp_path, monkeypatch, literal_csv):
        demodulated = []

        def capture(*args, **kwargs):
            demodulated.append(iq_demodulate(*args, **kwargs))
            return demodulated[-1]

        monkeypatch.setattr(cli, "iq_demodulate", capture)
        out = tmp_path / "out"
        cfg = "[waveform]\nspectrogram = false\n"
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 0
        expected = literal_csv.demod((1, 2, 3, 4), demodulated[0])
        assert (out / "demod.csv").read_bytes() == expected

    def test_empty_demod_set_writes_header(self, tmp_path, literal_csv):
        out = tmp_path / "out"
        cfg = (
            "[signal]\namplitudes = 0, 0, 0, 0\n"
            "[waveform]\nduration_us = 50\nspectrogram = false\n"
        )
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 0
        assert (out / "demod.csv").read_bytes() == literal_csv.demod((), [])
        assert json.loads((out / "summary.json").read_text())["channels"] == []

    def test_silent_signal_spectrogram_at_floor(self, tmp_path, recwarn):
        out = tmp_path / "out"
        cfg = "[signal]\namplitudes = 0, 0, 0, 0\n[waveform]\nduration_us = 50\n"
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 0
        rows = (out / "spectrogram.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[2] for row in rows} == {"-300"}
        assert not recwarn.list

    def test_short_record_without_demodulation_is_quiet(self, tmp_path, capsys, recwarn):
        # a record shorter than the spectrogram segment is one segment
        cfg = "[waveform]\nduration_us = 1\ndemodulate = false\n"
        assert run(tmp_path, "waveform", "--out", str(tmp_path / "out"), config=cfg) == 0
        assert capsys.readouterr().err == ""
        assert not recwarn.list

    def test_dry_run_plan_follows_flags(self, tmp_path, capsys):
        cfg = "[waveform]\nduration_us = 20\ndemodulate = false\nspectrogram = false\n"
        out = tmp_path / "out"
        assert run(tmp_path, "waveform", "--out", str(out), "--dry-run", config=cfg) == 0
        planned = json.loads(capsys.readouterr().out)["would_write"]
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert planned == manifest["outputs"] + ["manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(planned)

    def test_record_shorter_than_filters_exits_2(self, tmp_path, capsys):
        cfg = "[waveform]\nduration_us = 1\n"
        assert run(tmp_path, "waveform", "--out", str(tmp_path / "o"), config=cfg) == 2
        err = capsys.readouterr().err
        assert "record of 16 samples" in err and "425-tap filters" in err

    @pytest.mark.parametrize(
        "duration, message", [("1", "425-tap filters"), ("0.01", "holds no sample")]
    )
    def test_failed_run_writes_no_file(self, tmp_path, capsys, duration, message):
        out = tmp_path / "out"
        out.mkdir()
        cfg = f"[waveform]\nduration_us = {duration}\n"
        assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_overlapping_signal_plan_exits_2(self, tmp_path, capsys):
        cfg = "[signal]\noffsets_mhz = 0.2, 0.25, 0.8, 1.1\n"
        assert run(tmp_path, "waveform", "--out", str(tmp_path / "o"), config=cfg) == 2
        assert "overlap" in capsys.readouterr().err

    def test_undersampled_plan_exits_2(self, tmp_path, capsys):
        cfg = "[waveform]\nsample_rate_mhz = 2\n"
        assert run(tmp_path, "waveform", "--out", str(tmp_path / "o"), config=cfg) == 2
        assert "undersamples" in capsys.readouterr().err


class TestNumpyOnlyRuntime:
    def test_commands_never_import_scipy(self, tmp_path, package_env):
        # a fresh interpreter, so a lazy import inside a command shows too
        cfg = tmp_path / "wave.ini"
        cfg.write_text("[waveform]\nduration_us = 100\ndemodulate = true\nspectrogram = true\n")
        script = (
            "import json, sys\n"
            "import rydberg_receiver\n"
            "import rydberg_receiver.cli as cli\n"
            f"assert cli.main(['steady-state', '--out', {str(tmp_path / 'ss')!r}]) == 0\n"
            f"assert cli.main(['waveform', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 'wf')!r}]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=package_env)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "wf" / "spectrogram.csv").exists()
        assert json.loads(out.stdout.splitlines()[-1]) == []


class TestGcFreeze:
    def test_first_call_freezes_once_and_later_garbage_is_collected(self, tmp_path, package_env):
        # a fresh interpreter, so the first main() call is the process's first
        script = (
            "import gc, json, weakref\n"
            "import rydberg_receiver.cli as cli\n"
            "assert cli.main(['validate-scheme']) == 0\n"
            "first = gc.get_freeze_count()\n"
            "class Node:\n"
            "    pass\n"
            "node = Node()\n"
            "node.self = node\n"
            "alive = weakref.ref(node)\n"
            "del node\n"
            "assert cli.main(['validate-scheme']) == 0\n"
            "second = gc.get_freeze_count()\n"
            "gc.collect()\n"
            "print(json.dumps([first, second, alive() is None]))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=package_env, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        first, second, collected = json.loads(out.stdout.splitlines()[-1])
        assert first > 0
        assert second == first
        assert collected


class TestSumrate:
    CFG = (
        "[sumrate]\nrabi_set = set2\n"
        "power_min_dbm = -10\npower_max_dbm = 0\npower_step_db = 5\n"
        "bandwidths_mhz = 0.05, 0.1\n"
    )

    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(tmp_path, "sumrate", "--out", str(out), config=self.CFG) == 0
        rows = (out / "rates.csv").read_text().strip().splitlines()
        assert rows[0] == "architecture,p_t_dbm,bandwidth_hz,rate_bps"
        assert len(rows) == 1 + 3 * (3 + 2)
        archs = {row.split(",")[0] for row in rows[1:]}
        assert archs == {"Hybrid", "CRS", "PRS"}
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["y_lo"]) == {"Hybrid", "CRS", "PRS"}
        rates = summary["rate_at_max_power"]
        assert rates["Hybrid"] >= rates["CRS"] >= rates["PRS"] > 0

    def test_message_reads_the_rates_at_max_power(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(tmp_path, "sumrate", "--out", str(out), config=self.CFG) == 0
        rates = json.loads((out / "summary.json").read_text())["rate_at_max_power"]
        rows = [row.split(",") for row in (out / "rates.csv").read_text().splitlines()[1:]]
        last = {row[0]: float(row[3]) for row in rows if row[1] == "0" and row[2] == "100000"}
        assert last == pytest.approx(rates, rel=1e-11)
        assert (f"hybrid {rates['Hybrid']:.4g} bit/s, cascade {rates['CRS']:.4g} bit/s, "
                f"parallel {rates['PRS']:.4g} bit/s") in capsys.readouterr().out

    def test_record_rule_in_command_exits_2(self, tmp_path, capsys):
        # so dense a cell absorbs the whole probe: the operating output y_lo is 0
        cfg = self.CFG + "[cell]\natomic_density_per_m3 = 1e30\n"
        out = tmp_path / "out"
        assert run(tmp_path, "sumrate", "--out", str(out), config=cfg) == 2
        assert "the photodetector output underflows to 0 A" in capsys.readouterr().err
        assert not out.exists()

    def test_power_sweep_stops_at_max(self, tmp_path, capsys):
        # 40 dB in 7 dB steps: -30 .. 5 dBm, not rounded up past power_max_dbm
        cfg = (
            "[sumrate]\nrabi_set = set2\n"
            "power_min_dbm = -30\npower_max_dbm = 10\npower_step_db = 7\n"
            "bandwidths_mhz = 0.05\nbandwidth_sweep_power_dbm = -30\n"
        )
        out = tmp_path / "out"
        assert run(tmp_path, "sumrate", "--out", str(out), config=cfg) == 0
        rows = (out / "rates.csv").read_text().strip().splitlines()[1:]
        powers = sorted({float(row.split(",")[1]) for row in rows})
        assert powers == [-30.0, -23.0, -16.0, -9.0, -2.0, 5.0]
        assert "sumrate at 5 dBm" in capsys.readouterr().out

    def test_bad_rabi_set_exits_1(self, tmp_path, capsys):
        cfg = "[sumrate]\nrabi_set = set9\n"
        assert run(tmp_path, "sumrate", "--out", str(tmp_path / "o"), config=cfg) == 1

    def test_bad_power_range_exits_1(self, tmp_path, capsys):
        cfg = "[sumrate]\npower_min_dbm = 0\npower_max_dbm = -10\n"
        assert run(tmp_path, "sumrate", "--out", str(tmp_path / "o"), config=cfg) == 1


def _ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


#: Small valid runs of the commands whose keys the load-time checks guard.
SMALL_RUNS = {
    "optimize-lo": {
        "optimize": {
            "search_lo_mhz": "5", "search_hi_mhz": "6", "grid_step_mhz": "1",
            "sum_constraint_mhz": "30", "samples_per_axis": "1",
        },
    },
    "fidelity-map": {"scan": {"resolution": "2", "method": "null_space"}},
    "sumrate": {
        "sumrate": {
            "rabi_set": "set2", "power_min_dbm": "-10", "power_max_dbm": "0",
            "power_step_db": "5", "bandwidths_mhz": "0.05, 0.1",
        },
    },
    "waveform": {"waveform": {"spectrogram": "false"}},
    "dynamics": {"dynamics": {"t_end_us": "0.01", "max_snapshots": "3"}},
}


@pytest.mark.parametrize("command", ["steady-state", "dynamics"])
def test_zero_probe_runs_without_the_detector(tmp_path, command):
    sections = {name: dict(keys) for name, keys in SMALL_RUNS.get(command, {}).items()}
    sections["drive"] = {"omega_p_mhz": "0"}
    assert run(tmp_path, command, "--out", str(tmp_path / "out"), config=_ini(sections)) == 0


#: Configs whose counts, squares or quotients leave the finite floats: a step so
#: small that its count is infinite, a square that overflows, a quotient by an
#: underflowed zero.
NON_FINITE_INTERMEDIATES = [
    ("dynamics", "[dynamics]\ndt_us = 5e-324\n"),
    ("fidelity-map", "[scan]\ndt_us = 5e-324\n"),
    ("sumrate", "[sumrate]\npower_step_db = 5e-324\n"),
    ("optimize-lo", "[optimize]\ngrid_step_hz = 1e-310\n"),
    ("waveform", "[signal]\nbandwidths_ghz = 5e-324, 5e-324, 5e-324, 5e-324\n"),
    # a filter width that underflows to 0
    ("waveform", "[signal]\nbandwidths_mhz = 5e-324, 5e-324, 5e-324, 5e-324\n"),
    ("waveform", "[cell]\nprobe_dipole_ea0 = 1e300\n"),
    ("sumrate", "[cell]\nprobe_dipole_ea0 = 1e300\n"),
    ("waveform", "[drive]\nomega_p_ghz = 5e-324\n"),
    ("sumrate", "[drive]\nomega_p_ghz = 5e-324\n"),
    ("sumrate", "[cell]\nresponsivity_a_per_w = 1e300\n"),
    # a sample count that overflows to inf
    ("waveform", "[waveform]\nduration_us = 1e300\nsample_rate_mhz = 1e10\n"),
    # a generator norm that overflows: a numpy warning would fail the run here
    ("steady-state", "[drive]\nomega_p_ghz = 1e300\n"),
    ("dynamics", "[drive]\nrf_rabi_ghz = 1e300, 1, 1, 1\n"),
    ("fidelity-map", "[drive]\nomega_c_ghz = 1e300\n[scan]\nresolution = 2\n"),
    # a closed-form gain gradient that overflows to NaN
    ("waveform", "[drive]\nomega_c_ghz = 1e300\n"),
    # a noise so large that the linearization residual's square overflows
    ("waveform", "[waveform]\nnoise_std = 1e300\n"),
]


@pytest.mark.parametrize("command, cfg", NON_FINITE_INTERMEDIATES)
def test_non_finite_intermediate_exits_with_a_message(tmp_path, capsys, command, cfg):
    out = tmp_path / "out"
    assert run(tmp_path, command, "--out", str(out), config=cfg) in (1, 2)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, named", [
    ("[drive]\nomega_c_ghz = 1e300\n", "the gain of RF channel 1 is nan A per (V/m), not finite"),
    ("[waveform]\nnoise_std = 1e300\n", "the residual RMS over DC inf is not finite"),
])
def test_non_finite_waveform_result_exits_2_naming_it(tmp_path, capsys, cfg, named):
    out = tmp_path / "out"
    assert run(tmp_path, "waveform", "--out", str(out), config=cfg) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_temperature_underflowing_k_b_t_is_the_zero_temperature_limit(tmp_path, capsys):
    # k_B T underflows to 0, so x = hbar omega / k_B T is inf and coth(x/2) = 1: the rates
    # of a cold run, with no numpy warning
    rates = []
    for temperature in ("5e-324", "1e-10"):
        sections = {name: dict(keys) for name, keys in SMALL_RUNS["sumrate"].items()}
        sections["sumrate"]["temperature_k"] = temperature
        out = tmp_path / temperature
        assert run(tmp_path, "sumrate", "--out", str(out), config=_ini(sections)) == 0
        assert capsys.readouterr().err == ""
        rates.append((out / "rates.csv").read_bytes())
    assert rates[0] == rates[1]


@pytest.mark.parametrize("command, cfg, named", [
    ("waveform", "[cell]\nresponsivity_a_per_w = 5e-324\n", "photodetector output underflows to 0"),
    ("sumrate", "[cell]\nresponsivity_a_per_w = 5e-324\n", "photodetector output underflows to 0"),
    ("sumrate", "[sumrate]\nbandwidths_ghz = 5e-324\n", "noise variance underflows to 0"),
])
def test_quantity_underflowing_to_0_exits_2_naming_it(tmp_path, capsys, command, cfg, named):
    out = tmp_path / "out"
    assert run(tmp_path, command, "--out", str(out), config=cfg) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [("fidelity-map", "scan"), ("optimize-lo", "optimize")])
def test_bad_horizon_exits_2_with_its_cause(tmp_path, capsys, command, section):
    # 10 us is no multiple of 0.3 us: no point can run, and the message says why
    sections = {name: dict(keys) for name, keys in SMALL_RUNS[command].items()}
    sections[section].update(method="evolve", t_end_us="10", dt_us="0.3")
    out = tmp_path / "out"
    assert run(tmp_path, command, "--out", str(out), config=_ini(sections)) == 2
    err = capsys.readouterr().err
    assert err == "error: evolve: t_end = 10.0 is not an integer multiple of dt = 0.3\n"
    assert not out.exists()


class TestLoadTimeChecks:
    @pytest.mark.parametrize(
        "command, section, key, raw, named",
        [
            ("optimize-lo", "optimize", "search_lo_mhz", "-1", "search_lo"),
            ("optimize-lo", "optimize", "grid_step_mhz", "0", "grid_step"),
            ("optimize-lo", "optimize", "search_hi_mhz", "inf", "search_hi"),
            ("optimize-lo", "optimize", "search_hi_mhz", "nan", "search_hi"),
            ("optimize-lo", "optimize", "plateau_tolerance", "nan", "plateau_tolerance"),
            ("optimize-lo", "optimize", "samples_per_axis", "0", "samples_per_axis"),
            ("optimize-lo", "optimize", "method", "bogus", "method"),
            ("fidelity-map", "scan", "method", "bogus", "method"),
            ("sumrate", "sumrate", "beta", "0", "beta"),
            ("sumrate", "sumrate", "temperature_k", "-5", "temperature"),
            ("sumrate", "sumrate", "power_step_db", "inf", "power_step_db"),
            ("sumrate", "sumrate", "bandwidth_sweep_power_dbm", "nan", "bandwidth_sweep_power_dbm"),
            ("sumrate", "sumrate", "bandwidth_sweep_power_dbm", "4000", "bandwidth_sweep_power_dbm"),
            ("sumrate", "sumrate", "power_max_dbm", "4000", "power_max_dbm"),
            ("sumrate", "sumrate", "bandwidths_mhz", "0.05, 0", "bandwidths"),
            ("sumrate", "sumrate", "power_sweep_bandwidth_mhz", "0", "power_sweep_bandwidth"),
            ("sumrate", "sumrate", "bandwidths_mhz", "0.05, 1e303", "bandwidths overflows in Hz"),
            ("sumrate", "sumrate", "power_sweep_bandwidth_ghz", "1e300",
             "power_sweep_bandwidth overflows in Hz"),
            ("waveform", "signal", "modulation_index", "nan", "modulation_index"),
            ("waveform", "waveform", "noise_std", "-1", "noise_std"),
            ("waveform", "waveform", "noise_std", "nan", "noise_std"),
            ("waveform", "cell", "probe_power_dbm", "4000", "probe_power_dbm"),
            ("fidelity-map", "scan", "resolution", "0", "resolution"),
            ("fidelity-map", "scan", "resolution", "-3", "resolution"),
            ("fidelity-map", "scan", "resolution", "3, 4, 5", "resolution"),
            ("fidelity-map", "scan", "axes", "1, 1", "axes"),
            ("fidelity-map", "scan", "axes", "1, 5", "axes"),
            ("fidelity-map", "scan", "range_lo_mhz", "0, 0, 0", "range_lo"),
            ("fidelity-map", "scan", "range_lo_mhz", "-1, 0", "range_lo"),
            ("fidelity-map", "scan", "range_hi_mhz", "0, -2", "range_hi"),
            ("waveform", "cell", "cell_length_m", "-1", "cell_length"),
            ("waveform", "cell", "probe_power_dbm", "-4000", "probe_power"),
            ("sumrate", "cell", "responsivity_a_per_w", "0", "responsivity"),
            ("waveform", "drive", "rf_rabi_mhz", "2, -7, 1, 6", "rf_rabi"),
            ("sumrate", "drive", "omega_c_mhz", "-0.97", "omega_c"),
            ("sumrate", "drive", "omega_p_mhz", "0", "omega_p"),
            ("waveform", "drive", "omega_p_mhz", "0", "omega_p"),
            ("sumrate", "sumrate", "rabi_mhz", "7, -1, 1, 1", "rabi"),
            ("waveform", "signal", "modulation_index", "-1", "modulation_index"),
            ("waveform", "signal", "amplitudes", "-1, 0, 0, 0", "amplitudes"),
            ("waveform", "signal", "amplitudes", "0, 0, 0", "amplitudes"),
            ("waveform", "signal", "bandwidths_mhz", "0, 0.1, 0.1, 0.1", "bandwidths"),
            ("waveform", "waveform", "duration_us", "0", "duration"),
            ("waveform", "waveform", "duration_us", "-5", "duration"),
            ("waveform", "waveform", "sample_rate_mhz", "0", "sample_rate"),
            ("waveform", "drive", "rf_rabi_mhz", "2, 7, 1", "rf_rabi"),
            ("fidelity-map", "drive", "rf_rabi_mhz", "2, 7, 1, 6, 1", "rf_rabi"),
            ("steady-state", "drive", "rf_detunings_mhz", "0, 0", "rf_detunings"),
            ("steady-state", "drive", "rf_phases", "0, 0, 0", "rf_phases"),
            ("waveform", "signal", "offsets_mhz", "0.2, 0.5, 0.8", "offsets"),
            ("waveform", "signal", "phases", "0, 0, 0, 0, 0", "phases"),
            ("waveform", "signal", "bandwidths_mhz", "0.1, 0.1, 0.1", "bandwidths"),
            ("dynamics", "dynamics", "max_snapshots", "1", "max_snapshots"),
            ("dynamics", "dynamics", "max_snapshots", "0", "max_snapshots"),
            ("dynamics", "dynamics", "max_snapshots", "-4", "max_snapshots"),
        ],
    )
    def test_bad_value_exits_1_naming_key(self, tmp_path, capsys, command, section, key, raw, named):
        sections = {name: dict(keys) for name, keys in SMALL_RUNS.get(command, {}).items()}
        sections.setdefault(section, {})[key] = raw
        out = tmp_path / "out"
        assert run(tmp_path, command, "--out", str(out), config=_ini(sections)) == 1
        err = capsys.readouterr().err
        assert f"[{section}] {named}" in err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "command, section, keys, named",
        [
            ("sumrate", "sumrate", {"rabi_set": "bogus"}, "rabi_set"),
            ("sumrate", "sumrate", {"power_min_dbm": "10", "power_max_dbm": "-30"},
             "power_max_dbm"),
            ("optimize-lo", "optimize", {"search_lo_mhz": "5", "search_hi_mhz": "1"}, "search_hi"),
            ("dynamics", "dynamics", {"initial_level": "9"}, "initial_level"),
            ("dynamics", "dynamics", {"max_snapshots": "1"}, "max_snapshots"),
            ("fidelity-map", "scan", {"range_lo_mhz": "5, 5", "range_hi_mhz": "1, 1"},
             "range_hi"),
        ],
    )
    def test_checked_before_dry_run(self, tmp_path, capsys, command, section, keys, named, dry_run):
        out = tmp_path / "out"
        flags = ["--dry-run"] if dry_run else []
        assert run(tmp_path, command, "--out", str(out), *flags, config=_ini({section: keys})) == 1
        assert f"{tmp_path / 'run.ini'}: [{section}] {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, scheme_edit, message",
        [
            ("[drive]\nomega_p = 5.7\n", None,
             "[drive] unknown key 'omega_p' (needs a unit suffix: omega_p_ghz, omega_p_mhz, "
             "omega_p_khz, omega_p_hz)"),
            (None, ("carrier_ghz", "carrier"),
             "[transition.1] unknown key 'carrier' (needs a unit suffix: carrier_ghz, "
             "carrier_mhz, carrier_khz, carrier_hz)"),
        ],
        ids=["run-config", "scheme-file"],
    )
    def test_bare_dimensioned_key_names_unit_suffixes(
        self, tmp_path, capsys, scheme_text, config, scheme_edit, message
    ):
        argv = ["steady-state", "--out", str(tmp_path / "out")]
        if scheme_edit:
            path = tmp_path / "scheme.ini"
            path.write_text(scheme_text.replace(*scheme_edit, 1))
            argv += ["--scheme", str(path)]
        assert run(tmp_path, *argv, config=config) == 1
        assert message in capsys.readouterr().err


def _rule_cases():
    """One violating value for each sign, count and choice rule in SCHEMAS."""
    cases = []
    for command, schema in SCHEMAS.items():
        for section, fields in schema.items():
            table = _key_table(fields)
            for key, field in fields.items():
                # a unit with a plain factor, so that 0 and -1 keep their sign
                raw = next(
                    raw for raw, (base, _, factor) in table.items()
                    if base == key and not callable(factor)
                )
                entries = field.counts[0] if field.counts else 1
                if field.sign:
                    value = ", ".join(["0" if field.sign == ">" else "-1"] * entries)
                    cases.append((command, section, raw, value, key))
                if field.counts:
                    value = ", ".join(["1"] * (max(field.counts) + 1))
                    cases.append((command, section, raw, value, key))
                if field.choices:
                    cases.append((command, section, raw, "bogus", key))
    return cases


@pytest.mark.parametrize("command, section, raw, value, key", _rule_cases())
def test_every_declared_rule_exits_1_under_dry_run(
    tmp_path, capsys, command, section, raw, value, key
):
    out = tmp_path / "out"
    config = _ini({section: {raw: value}})
    assert run(tmp_path, command, "--out", str(out), "--dry-run", config=config) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not out.exists()
