"""Strict INI parsing with unit-suffixed keys."""

from pathlib import Path

import numpy as np
import pytest
from scipy.constants import e, physical_constants

import rydberg_receiver
from rydberg_receiver import comms, config, receiver, scheme
from rydberg_receiver.config import ConfigError, Field, load_config, parse_config

TWO_PI = 2.0 * np.pi

SCHEMA = {
    "drive": {
        "omega_p": Field("angular_frequency", default=TWO_PI * 5.7),
        "rf_rabi": Field("angular_frequency_list", default=(1.0, 2.0, 3.0, 4.0)),
        "label": Field("str", default="op"),
        "use_loop": Field("bool", default=True),
        "points": Field("int", default=3),
        "weights": Field("float_list", default=(1.0,)),
    },
    "cell": {
        "length": Field("length", default=0.01),
        "density": Field("density", default=4.89e16),
        "power": Field("power", default=1e-3),
        "temperature": Field("temperature", default=300.0),
        "dipole": Field("dipole", default=1e-29),
        "duration": Field("time", default=200.0),
        "bandwidth": Field("ordinary_frequency", default=0.1),
    },
}

VALID = """
[drive]
omega_p_mhz = 5.7
rf_rabi_khz = 2000, 7000, 1000, 6000
label = set one
use_loop = no
points = 5
weights = 0.5, 0.5

[cell]
length_cm = 2
density_per_cm3 = 4.89e10
power_dbm = 0
temperature_k = 300
dipole_ea0 = 3.17
duration_ms = 0.2
bandwidth_khz = 100
"""


class TestUnitConversions:
    def test_full_document(self):
        out = parse_config(VALID, SCHEMA)
        drive, cell = out["drive"], out["cell"]
        assert drive["omega_p"] == pytest.approx(TWO_PI * 5.7, rel=1e-12)
        assert drive["rf_rabi"] == pytest.approx(
            (TWO_PI * 2, TWO_PI * 7, TWO_PI * 1, TWO_PI * 6), rel=1e-12
        )
        assert drive["label"] == "set one"
        assert drive["use_loop"] is False
        assert drive["points"] == 5
        assert drive["weights"] == (0.5, 0.5)
        assert cell["length"] == pytest.approx(0.02, rel=1e-12)
        assert cell["density"] == pytest.approx(4.89e16, rel=1e-12)
        assert cell["power"] == pytest.approx(1e-3, rel=1e-12)
        assert cell["temperature"] == 300.0
        assert cell["duration"] == pytest.approx(200.0, rel=1e-12)
        assert cell["bandwidth"] == pytest.approx(0.1, rel=1e-12)

    def test_angular_frequency_suffixes(self):
        for suffix, factor in (("ghz", TWO_PI * 1e3), ("mhz", TWO_PI),
                               ("khz", TWO_PI * 1e-3), ("hz", TWO_PI * 1e-9)):
            text = f"[drive]\nomega_p_{suffix} = 2.0\n"
            out = parse_config(text, SCHEMA)
            assert out["drive"]["omega_p"] == pytest.approx(2.0 * factor, rel=1e-12)

    def test_power_suffixes(self):
        for raw, expected in (("power_w = 0.25", 0.25), ("power_mw = 250", 0.25),
                              ("power_dbm = -30", 1e-6)):
            out = parse_config(f"[cell]\n{raw}\n", SCHEMA)
            assert out["cell"]["power"] == pytest.approx(expected, rel=1e-12)

    def test_dipole_in_bohr_radii(self):
        out = parse_config("[cell]\ndipole_ea0 = 3.17\n", SCHEMA)
        ea0 = e * physical_constants["Bohr radius"][0]
        assert out["cell"]["dipole"] == pytest.approx(3.17 * ea0, rel=1e-12)


class TestDefaults:
    def test_empty_text_fills_defaults(self):
        out = parse_config("", SCHEMA)
        assert out["drive"]["omega_p"] == TWO_PI * 5.7
        assert out["cell"]["length"] == 0.01
        assert out["cell"]["temperature"] == 300.0


class TestStrictness:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[laser\]"):
            parse_config("[laser]\npower_w = 1\n", SCHEMA)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'colour'"):
            parse_config("[drive]\ncolour = red\n", SCHEMA)

    def test_bare_key_without_unit_suffix(self):
        with pytest.raises(ConfigError, match="unknown key 'omega_p'"):
            parse_config("[drive]\nomega_p = 5.7\n", SCHEMA)

    def test_duplicate_unit_variants_named(self):
        text = "[drive]\nomega_p_mhz = 5.7\nomega_p_khz = 5700\n"
        with pytest.raises(ConfigError, match="'omega_p_mhz' and 'omega_p_khz'"):
            parse_config(text, SCHEMA)

    def test_default_section_rejected(self):
        with pytest.raises(ConfigError, match="DEFAULT"):
            parse_config("[DEFAULT]\nx = 1\n[drive]\n", SCHEMA)

    def test_malformed_ini(self):
        with pytest.raises(ConfigError):
            parse_config("omega_p_mhz = 5.7\n", SCHEMA)  # key before any section


class TestValueErrors:
    def test_bad_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("[drive]\nomega_p_mhz = fast\n", SCHEMA)

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config("[drive]\npoints = 2.5\n", SCHEMA)

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config("[drive]\nuse_loop = maybe\n", SCHEMA)

    def test_bad_list(self):
        with pytest.raises(ConfigError, match="comma-separated numbers"):
            parse_config("[drive]\nrf_rabi_mhz = 1, two, 3, 4\n", SCHEMA)

    def test_empty_list(self):
        with pytest.raises(ConfigError, match="empty list"):
            parse_config("[drive]\nweights =\n", SCHEMA)

    def test_error_names_location(self):
        with pytest.raises(ConfigError, match=r"site\.ini: \[drive\] omega_p_mhz"):
            parse_config("[drive]\nomega_p_mhz = fast\n", SCHEMA, origin="site.ini")


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(VALID)
        out = load_config(path, SCHEMA)
        assert out["cell"]["length"] == pytest.approx(0.02)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.ini", SCHEMA)


class TestConstants:
    def test_only_config_reads_scipy_constants(self):
        src = Path(config.__file__).parent
        readers = sorted(p.name for p in src.glob("*.py") if "scipy.constants" in p.read_text())
        assert readers == ["config.py"]

    def test_one_definition_per_constant(self):
        assert config.EA0 == e * physical_constants["Bohr radius"][0]
        assert rydberg_receiver.EA0 is receiver.EA0 is config.EA0
        assert rydberg_receiver.dbm_to_watts is comms.dbm_to_watts is config.dbm_to_watts
        assert scheme.ANGULAR_FREQUENCY_SUFFIXES is config.ANGULAR_FREQUENCY_SUFFIXES
        omega_probe = comms.EnvironmentParams(y_lo=1.0).omega_probe
        assert omega_probe == receiver.DEFAULT_CELL.probe_angular_frequency
