"""Strict INI parsing with unit-suffixed keys."""

import ast
import dataclasses
import importlib
import re
from dataclasses import MISSING
from pathlib import Path

import numpy as np
import pytest
import scipy.constants
from scipy.constants import e, physical_constants

import rydberg_receiver
from rydberg_receiver import comms, config, lindblad, receiver, scheme
from rydberg_receiver.config import ConfigError, Field, load_config, parse_config
from rydberg_receiver.fidelity import PerturbationRegion, fidelity_scan, optimize_operating_point

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

    def test_unknown_kind_is_a_schema_bug_not_a_config_error(self):
        # a typo in a Field the package declares must not exit 1 blaming the user's file
        with pytest.raises(TypeError, match="unknown kind 'flaot'"):
            config._key_table({"x": Field("flaot")})


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


#: record -> (constructor, valid arguments, {numeric field: its sign rule or None})
RECORDS = {
    "DriveConfig": (
        lindblad.DriveConfig, {"omega_p": 1.0, "omega_c": 1.0, "rf_rabi": (1.0,) * 4},
        {"omega_p": ">=", "omega_c": ">=", "rf_rabi": ">=", "delta_p": None, "delta_c": None,
         "rf_detunings": None, "rf_phases": None},
    ),
    "VaporCellParams": (
        receiver.VaporCellParams, {},
        dict.fromkeys(("cell_length", "atomic_density", "probe_dipole", "probe_wavelength",
                       "probe_power", "responsivity"), ">"),
    ),
    "RfSignalSpec": (
        receiver.RfSignalSpec,
        {"amplitudes": (1.0, 0.0, 0.0, 0.0), "offsets": (TWO_PI * 0.2, TWO_PI * 0.5,
                                                          TWO_PI * 0.8, TWO_PI * 1.1)},
        {"amplitudes": ">=", "offsets": None, "phases": None, "bandwidths": ">"},
    ),
    "GainVector": (receiver.GainVector, {"gains": (1.0, 2.0, 3.0, 4.0)}, {"gains": None}),
    "PerturbationRegion": (
        PerturbationRegion, {"center": (1.0,) * 4, "half_widths": (0.1,) * 4},
        {"center": None, "half_widths": ">="},
    ),
    "EnvironmentParams": (
        comms.EnvironmentParams, {"y_lo": 1e-22},
        dict.fromkeys(("y_lo", "temperature", "omega_probe"), ">"),
    ),
    "ChannelModel": (
        comms.ChannelModel,
        {"gain": 1.0, "transmit_power": 1.0, "bandwidth": 1.0, "rf_frequency": 1.0},
        {"gain": None, "transmit_power": ">=", "bandwidth": ">", "rf_frequency": ">",
         "fading_scale": ">", "sigma_i_sq": ">=", "sigma_e_sq": ">="},
    ),
    "RfTransition": (
        scheme.RfTransition,
        {"lower": 3, "upper": 4, "carrier_frequency": 1.0, "dipole_moment": 1.0},
        {"carrier_frequency": ">", "dipole_moment": ">", "detuning": None},
    ),
}

#: ChannelModel fields that may hold a sweep array.
SWEPT = ("transmit_power", "bandwidth", "sigma_i_sq", "sigma_e_sq")


def _rule_cases():
    """(record, field, bad value, the rule it breaks) for every numeric field:
    NaN, inf, a value against its sign and, for a 4-vector, two entries."""
    for record, (make, kwargs, fields) in RECORDS.items():
        for name, sign in fields.items():
            base = getattr(make(**kwargs), name)
            bad = [(np.nan, "must be finite"), (np.inf, "must be finite")]
            if sign:
                bad.append(({">": 0.0, ">=": -1.0}[sign], f"must be {sign} 0"))
            for value, rule in bad:
                if isinstance(base, tuple):
                    yield record, name, (value,) + base[1:], rule
                else:
                    yield record, name, value, rule
                    if record == "ChannelModel" and name in SWEPT:
                        yield record, name, np.array([base, value]), rule
            if isinstance(base, tuple):
                yield record, name, base[:2], "must have 4 entries"


class TestRecordRules:
    @pytest.mark.parametrize(
        "record, name, value, rule", list(_rule_cases()),
        ids=lambda x: repr(x).replace(" ", "") if not isinstance(x, str) else x,
    )
    def test_every_numeric_field_keeps_its_rule(self, record, name, value, rule):
        make, kwargs, _ = RECORDS[record]
        with pytest.raises(ValueError, match=rf"^{record}\.{name} {rule}"):
            make(**{**kwargs, name: value})

    def test_fields_held_as_floats(self):
        drive = lindblad.DriveConfig(omega_p=1, omega_c=np.float64(2.0),
                                     rf_rabi=np.array([1, 2, 3, 4]))
        assert type(drive.omega_p) is float and type(drive.omega_c) is float
        assert drive.rf_rabi == (1.0, 2.0, 3.0, 4.0)
        assert all(type(v) is float for v in drive.rf_rabi)
        sweep = np.array([1.0, 2.0])
        assert comms.ChannelModel(gain=1.0, transmit_power=sweep, bandwidth=1.0,
                                  rf_frequency=1.0).transmit_power is sweep

    def test_integers_are_not_converted(self):
        huge = 10**400
        assert config.rule_breach(Field("int", None, sign=">"), huge) is None
        assert config.rule_breach(Field("int", None, sign=">"), -huge) == "must be > 0"


@config.record
class _Probe:
    RULES = {"width": Field(sign=">"), "pair": Field("float_list", (1.0, 2.0), counts=(2,))}
    label: str = "probe"

    def __post_init__(self):
        object.__setattr__(self, "seen", (self.width, self.pair))


#: ``(name, default)`` of every field of each record with ``RULES``, MISSING where the
#: field is required, in the order positional construction fills them.
FIELD_ORDER = {
    lindblad.DriveConfig: [
        ("omega_p", MISSING), ("omega_c", MISSING), ("rf_rabi", MISSING), ("delta_p", 0.0),
        ("delta_c", 0.0), ("rf_detunings", (0.0, 0.0, 0.0, 0.0)),
        ("rf_phases", (0.0, 0.0, 0.0, 0.0)),
    ],
    receiver.VaporCellParams: [
        ("cell_length", 0.02), ("atomic_density", 4.89e16),
        ("probe_dipole", 2.6876380974730977e-29), ("probe_wavelength", 8.5235e-07),
        ("probe_power", 0.001), ("responsivity", 1.0),
    ],
    receiver.RfSignalSpec: [
        ("amplitudes", MISSING), ("offsets", MISSING), ("phases", (0.0, 0.0, 0.0, 0.0)),
        ("bandwidths", (0.1, 0.1, 0.1, 0.1)), ("envelopes", (None, None, None, None)),
    ],
    receiver.GainVector: [("gains", MISSING)],
    comms.EnvironmentParams: [
        ("y_lo", MISSING), ("temperature", 300.0), ("omega_probe", 2209950803436209.5),
    ],
    comms.ChannelModel: [
        ("gain", MISSING), ("transmit_power", MISSING), ("bandwidth", MISSING),
        ("rf_frequency", MISSING), ("fading_scale", 1.0), ("sigma_i_sq", 0.0),
        ("sigma_e_sq", 0.0),
    ],
    PerturbationRegion: [("center", MISSING), ("half_widths", MISSING), ("samples_per_axis", 3)],
    scheme.Level: [("parity", MISSING), ("label", "")],
    scheme.RfTransition: [
        ("lower", MISSING), ("upper", MISSING), ("carrier_frequency", MISSING),
        ("dipole_moment", MISSING), ("detuning", 0.0), ("application_band", ""),
    ],
}


def _names_dataclass(node):
    return (isinstance(node, ast.Name) and node.id == "dataclass"
            or isinstance(node, ast.Attribute) and node.attr == "dataclass"
            or isinstance(node, ast.alias) and node.name == "dataclass")


class TestRecord:
    def test_rule_fields_then_own_fields(self):
        assert [(f.name, f.default) for f in dataclasses.fields(_Probe)] == [
            ("width", MISSING), ("pair", (1.0, 2.0)), ("label", "probe")]
        probe = _Probe(2, (3, 4), "x")
        assert (probe.width, probe.pair, probe.label) == (2.0, (3.0, 4.0), "x")
        with pytest.raises(TypeError):
            _Probe()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _Probe(1.0).width = 2.0

    def test_rule_error_names_record_and_field(self):
        with pytest.raises(ValueError, match=r"^_Probe\.width must be > 0"):
            _Probe(0.0)
        with pytest.raises(ValueError, match=r"^_Probe\.pair must have 2 entries"):
            _Probe(1.0, (1.0,))

    def test_own_post_init_sees_checked_floats(self):
        width, pair = _Probe(np.int64(2), np.array([3, 4])).seen
        assert type(width) is float and pair == (3.0, 4.0)
        assert all(type(v) is float for v in pair)

    def test_eq_false_compares_by_identity(self):
        @config.record(eq=False)
        class Holder:
            values: np.ndarray

        values = np.zeros(2)
        one, other = Holder(values), Holder(values)
        assert one == one and one != other
        assert hash(one) == object.__hash__(one)

    def test_value_equality_and_hashing(self):
        assert _Probe(2, (3, 4)) == _Probe(2.0, (3.0, 4.0))
        assert hash(_Probe(2, (3, 4))) == hash(_Probe(2.0, (3.0, 4.0)))
        same = dataclasses.replace(DRIVE)
        assert same is not DRIVE and same == DRIVE and hash(same) == hash(DRIVE)
        levels = scheme.cesium_scheme()
        assert {levels: 1}[scheme.cesium_scheme()] == 1

    @pytest.mark.parametrize("record", FIELD_ORDER, ids=lambda cls: cls.__name__)
    def test_field_order(self, record):
        assert [(f.name, f.default) for f in dataclasses.fields(record)] == FIELD_ORDER[record]

    def test_only_record_builds_a_dataclass(self):
        src = Path(config.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            builder = {
                id(node) for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and func.name == "record"
                and path.name == "config.py"
                for node in ast.walk(func)
            }
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if _names_dataclass(node) and id(node) not in builder
                and not (path.name == "config.py" and isinstance(node, ast.alias))
            ]
        assert found == []

    def test_no_class_body_annotates_a_rule_field(self):
        src = Path(config.__file__).parent
        twice = []
        for path in sorted(src.glob("*.py")):
            module = importlib.import_module(f"rydberg_receiver.{path.stem}")
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    rules = vars(getattr(module, node.name)).get("RULES", {})
                    twice += [
                        f"{node.name}.{stmt.target.id}" for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.target.id in rules
                    ]
        assert twice == []


DRIVE = lindblad.DriveConfig(omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
                             rf_rabi=(TWO_PI * 2, TWO_PI * 7, TWO_PI * 1, TWO_PI * 6))
OFFSETS = (TWO_PI * 0.2, TWO_PI * 0.5, TWO_PI * 0.8, TWO_PI * 1.1)


def _evolve(scheme, t_end=0.01, dt=1e-3, max_snapshots=3):
    generator = lindblad.make_generator(DRIVE, scheme)
    return lindblad.evolve(lindblad.ground_state(), generator, t_end, dt, max_snapshots)


def _scan(scheme, resolution):
    return fidelity_scan(DRIVE, (1, 4), scheme, resolution=resolution,
                         steady_state_method="null_space")


def _optimize(scheme, search_range=None, search_lo=0.0, sum_constraint=TWO_PI * 4.0, **kwargs):
    return optimize_operating_point(
        (search_lo, TWO_PI) if search_range is None else search_range, sum_constraint,
        base_drive=DRIVE, scheme=scheme, **{"grid_step": TWO_PI, **kwargs},
    )


def _synthesize(scheme, duration=1.0, sample_rate=16.0, noise_std=0.0):
    spec = receiver.RfSignalSpec(amplitudes=(0.0,) * 4, offsets=OFFSETS)
    return receiver.synthesize_pd_waveform(spec, DRIVE, receiver.DEFAULT_CELL, scheme,
                                           duration, sample_rate, noise_std)


def _region(scheme, samples_per_axis):
    return PerturbationRegion((1.0,) * 4, (0.1,) * 4, samples_per_axis)


def _snr(scheme, fading_power):
    channel = comms.ChannelModel(gain=1.0, transmit_power=1.0, bandwidth=1.0, rf_frequency=1.0)
    return comms.snr(channel.with_noise(comms.EnvironmentParams(y_lo=1e-22)), fading_power)


#: owner -> (call of (scheme, argument=value), {argument: its rules}). A finite
#: search_range leaves search_lo only its sign to break.
ARGUMENTS = {
    "evolve": (_evolve, {"t_end": ("finite", ">="), "dt": ("finite", ">"),
                         "max_snapshots": ("finite", "int")}),
    "fidelity_scan": (_scan, {"resolution": ("finite", ">", "int")}),
    "optimize_operating_point": (
        _optimize,
        {"search_range": ("finite",), "search_lo": (">=",), "grid_step": ("finite", ">"),
         "sum_constraint": ("finite", ">"), "plateau_tolerance": ("finite", ">=")},
    ),
    "synthesize_pd_waveform": (
        _synthesize, {"duration": ("finite", ">"), "sample_rate": ("finite", ">"),
                      "noise_std": ("finite", ">=")},
    ),
    "PerturbationRegion": (_region, {"samples_per_axis": ("finite", ">", "int")}),
    "snr": (_snr, {"fading_power": ("finite", ">=")}),
}


def _argument_cases():
    """(owner, argument, bad value, the rule it breaks) for every argument the
    library checks by its declared rule: NaN, inf, a value against its sign
    and, for an integer, a fraction."""
    for owner, (_, arguments) in ARGUMENTS.items():
        for name, rules in arguments.items():
            integer = "int" in rules
            for rule in rules:
                if rule == "finite":
                    bad = [(np.nan, "must be finite"), (np.inf, "must be finite")]
                elif rule == "int":
                    bad = [(2.5, "must be an integer")]
                else:
                    against = {">": 0, ">=": -1}[rule]
                    bad = [(against if integer else float(against), f"must be {rule} 0")]
                for value, breach in bad:
                    yield owner, name, value, breach


class TestArgumentRules:
    @pytest.mark.parametrize(
        "owner, name, value, rule", list(_argument_cases()),
        ids=lambda x: repr(x).replace(" ", "") if not isinstance(x, str) else x,
    )
    def test_every_checked_argument_keeps_its_rule(self, scheme, owner, name, value, rule):
        call, _ = ARGUMENTS[owner]
        with pytest.raises(ValueError, match=rf"^{owner}\.{name} {rule}"):
            call(scheme, **{name: value})

    def test_integer_rule(self):
        rule = Field("int_list", None, sign=">")
        assert config.rule_breach(rule, (3, np.int64(4))) is None
        assert config.rule_breach(rule, (3, 4.0)) == "must be an integer, got (3, 4.0)"
        assert config.rule_breach(Field("float", None, sign=">"), 4) is None
        assert config.rule_breach(Field("int", choices=(1, -1)), 3) == "must be one of 1, -1"

    def test_integer_fields_keep_their_rules(self):
        with pytest.raises(ValueError, match=r"^Level\.parity must be one of 1, -1$"):
            scheme.Level(2)
        valid = {"lower": 3, "upper": 4, "carrier_frequency": 1.0, "dipole_moment": 1.0}
        for name in ("lower", "upper"):
            for value, rule in ((0, "must be > 0"), (-1, "must be > 0"),
                                (3.0, "must be an integer")):
                with pytest.raises(ValueError, match=rf"^RfTransition\.{name} {rule}"):
                    scheme.RfTransition(**{**valid, name: value})


#: accessor -> (call of (scheme, a 1-based number), how many numbers it accepts)
ACCESSORS = {
    "basis_state": (lambda scheme, k: lindblad.basis_state(k), 6),
    "DensityMatrix.population": (lambda scheme, k: lindblad.ground_state().population(k), 6),
    "DensityMatrix.coherence": (lambda scheme, k: lindblad.ground_state().coherence(k, 1), 6),
    "Trajectory.coherence": (lambda scheme, k: _evolve(scheme).coherence(1, k), 6),
    "LevelScheme.level": (lambda scheme, k: scheme.level(k), 6),
    "LevelScheme.transition": (lambda scheme, k: scheme.transition(k), 4),
    "GainVector": (lambda scheme, k: receiver.GainVector((1.0, 2.0, 3.0, 4.0))[k], 4),
}


class TestOneBasedNumbers:
    @pytest.mark.parametrize("owner", list(ACCESSORS))
    # an unchecked n - 1 wraps 0 to the last entry, and True is the int 1
    @pytest.mark.parametrize("bad", [0, None, True], ids=["zero", "count+1", "True"])
    def test_every_accessor_rejects_a_number_out_of_range(self, scheme, owner, bad):
        call, count = ACCESSORS[owner]
        call(scheme, count)
        number = count + 1 if bad is None else bad
        message = rf"^{re.escape(owner)}: {number} is not in 1\.\.{count}$"
        with pytest.raises(ValueError, match=message):
            call(scheme, number)

    def test_numbers_are_positions(self, scheme):
        assert lindblad.basis_state(3).population(3) == 1.0
        assert scheme.level(1).label == "6S1/2" and scheme.transition(4).lower == 3
        assert receiver.GainVector((1.0, 2.0, 3.0, 4.0))[1] == 1.0


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(VALID)
        out = load_config(path, SCHEMA)
        assert out["cell"]["length"] == pytest.approx(0.02)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.ini", SCHEMA)

    def test_directory_or_non_utf8_file(self, tmp_path):
        latin1 = tmp_path / "latin1.ini"
        latin1.write_bytes("[drive]\nlabel = caf\xe9\n".encode("latin-1"))
        for path in (tmp_path, latin1):
            with pytest.raises(ConfigError, match="cannot read config"):
                load_config(path, SCHEMA)


class TestConstants:
    def test_no_module_imports_scipy(self):
        src = Path(config.__file__).parent
        importers = sorted(
            p.name for p in src.glob("*.py")
            if "import scipy" in p.read_text() or "from scipy" in p.read_text()
        )
        assert importers == []

    def test_one_ini_reader(self):
        src = Path(config.__file__).parent
        importers = sorted(
            p.name for p in src.glob("*.py")
            if "import configparser" in p.read_text() or "from configparser" in p.read_text()
        )
        assert importers == ["config.py"]
        calls = [
            node.func for node in ast.walk(ast.parse(Path(scheme.__file__).read_text()))
            if isinstance(node, ast.Call)
        ]
        assert not [f for f in calls if getattr(f, "id", getattr(f, "attr", None)) == "open"]

    def test_every_rule_is_declared_at_import(self):
        # a Field built in a function body would be a per-call copy of a rule
        src = Path(config.__file__).parent
        inside = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Field"
        ]
        assert inside == []

    def test_literals_equal_scipy_constants(self):
        assert config.hbar == scipy.constants.hbar
        assert config.epsilon_0 == scipy.constants.epsilon_0
        assert config.c_light == scipy.constants.c
        assert config.e_charge == scipy.constants.e
        assert config.k_B == scipy.constants.k
        assert config.BOHR_RADIUS == physical_constants["Bohr radius"][0]

    def test_one_definition_per_constant(self):
        assert config.EA0 == e * physical_constants["Bohr radius"][0]
        assert rydberg_receiver.EA0 is receiver.EA0 is config.EA0
        assert rydberg_receiver.dbm_to_watts is comms.dbm_to_watts is config.dbm_to_watts
        assert scheme.read_ini is config.read_ini
        assert scheme.convert_section is config.convert_section
        omega_probe = comms.EnvironmentParams(y_lo=1.0).omega_probe
        assert omega_probe == receiver.DEFAULT_CELL.probe_angular_frequency
