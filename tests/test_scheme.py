"""Level-scheme model: channel counting, parity validation, file parsing."""

import numpy as np
import pytest

from rydberg_receiver.cli import SCHEMAS, _resolve_drive
from rydberg_receiver.config import ConfigError, parse_config
from rydberg_receiver.lindblad import Liouvillian, make_generator
from rydberg_receiver.scheme import (
    Architecture,
    Level,
    LevelScheme,
    RfTransition,
    cesium_scheme,
    channel_count,
    parse_scheme,
    validate_scheme,
)

TWO_PI = 2.0 * np.pi


class TestChannelCount:
    def test_six_levels(self):
        assert channel_count(Architecture.HYBRID, 6) == 4
        assert channel_count(Architecture.CRS, 6) == 3
        assert channel_count(Architecture.PRS, 6) == 2

    def test_eight_levels(self):
        assert channel_count(Architecture.HYBRID, 8) == 7
        assert channel_count(Architecture.CRS, 8) == 5
        assert channel_count(Architecture.PRS, 8) == 3

    def test_hybrid_decomposition_identity(self):
        # hybrid(K) = cascade(K) + parallel(K - 2): the loop branch rides on
        # a cascade whose last two levels are recycled by the star
        for k in range(6, 21):
            assert channel_count(Architecture.HYBRID, k) == channel_count(
                Architecture.CRS, k
            ) + channel_count(Architecture.PRS, k - 2)

    def test_hybrid_below_six_rejected(self):
        with pytest.raises(ValueError, match="smallest feasible configuration occurs at K=6"):
            channel_count(Architecture.HYBRID, 5)

    def test_small_manifolds_rejected(self):
        with pytest.raises(ValueError):
            channel_count(Architecture.CRS, 3)
        with pytest.raises(ValueError):
            channel_count(Architecture.PRS, 3)

    def test_string_architecture_accepted(self):
        assert channel_count("Hybrid", 6) == 4


class TestBundledScheme:
    def test_loads_and_validates(self, scheme):
        assert scheme.size == 6
        report = validate_scheme(scheme)
        assert report.valid
        assert report.parity_violations == ()
        assert report.odd_loops == ()

    def test_channel_numbering(self, scheme):
        # channels are numbered by the ladder walk, with the loop branch last
        pairs = [(t.lower, t.upper) for t in (scheme.transition(n) for n in range(1, 5))]
        assert pairs == [(3, 4), (4, 5), (5, 6), (3, 6)]

    def test_table_values(self, scheme):
        t2 = scheme.transition(2)
        assert t2.carrier_frequency == pytest.approx(TWO_PI * 3.054e3, rel=1e-12)
        assert t2.dipole_moment == pytest.approx(7886.52, rel=1e-12)
        assert t2.detuning == pytest.approx(TWO_PI * 1e-3, rel=1e-12)
        assert t2.application_band == "sub-6GHz"
        assert scheme.decay_rate(2, 1) == pytest.approx(TWO_PI * 5.2, rel=1e-12)
        assert scheme.decay_rate(6, 3) == pytest.approx(TWO_PI * 0.16e-3, rel=1e-12)
        assert scheme.decay_rate(6, 1) == 0.0

    def test_parities_alternate(self, scheme):
        assert [scheme.level(i).parity for i in range(1, 7)] == [1, -1, 1, -1, 1, -1]

    def test_loop_detuning_closed(self, scheme):
        # 4 kHz - (1 + 1 + 2) kHz: the documented detunings close the loop,
        # so the CLI's drive on the bundled scheme has a constant generator
        drive = _resolve_drive(parse_config("", SCHEMAS["steady-state"])["drive"], scheme)
        assert drive.closed_loop_delta == 0.0
        assert isinstance(make_generator(drive, scheme), Liouvillian)


def _levels(parities):
    return tuple(Level(parity=p, label=f"L{k}") for k, p in enumerate(parities, 1))


class TestValidation:
    def test_parity_violation_reported(self):
        # 3-4 connects equal parities: dipole-forbidden
        scheme = LevelScheme(
            levels=_levels([1, -1, 1, 1]),
            architecture=Architecture.CRS,
            rf_transitions=(RfTransition(lower=3, upper=4, carrier_frequency=1.0, dipole_moment=1.0),),
            decay_channels=((2, 1, 1.0),),
        )
        report = validate_scheme(scheme)
        assert not report.valid
        assert any("3-4" in v for v in report.parity_violations)

    def test_odd_loop_reported(self):
        # triangle 3-4-5 cannot be two-colored: odd RF loop
        scheme = LevelScheme(
            levels=_levels([1, -1, 1, -1, 1]),
            architecture=Architecture.PRS,
            rf_transitions=(
                RfTransition(lower=3, upper=4, carrier_frequency=1.0, dipole_moment=1.0),
                RfTransition(lower=4, upper=5, carrier_frequency=1.0, dipole_moment=1.0),
                RfTransition(lower=3, upper=5, carrier_frequency=1.0, dipole_moment=1.0),
            ),
            decay_channels=((2, 1, 1.0),),
        )
        report = validate_scheme(scheme)
        assert not report.valid
        assert report.odd_loops
        # the reported cycle is a genuine odd-length RF cycle
        assert len(report.odd_loops[0]) % 2 == 1
        assert "odd" in report.summary().lower()

    def test_hybrid_six_requires_canonical_edges(self, scheme, renumbered_scheme_text):
        with pytest.raises(ValueError, match="RF edges"):
            LevelScheme(
                levels=scheme.levels,
                architecture=Architecture.HYBRID,
                rf_transitions=scheme.rf_transitions[:3],
                decay_channels=scheme.decay_channels,
            )
        # the right edges under the wrong channel numbers
        with pytest.raises(ConfigError, match="RF edges"):
            parse_scheme(renumbered_scheme_text)

    def test_float_decay_level_rejected(self, scheme):
        channels = scheme.decay_channels[:-1] + ((6.0, 2.5, 1.0),)
        with pytest.raises(ValueError, match=r"^LevelScheme: decay \(6\.0,2\.5\): 2\.5 is not in"):
            LevelScheme(scheme.levels, scheme.architecture, scheme.rf_transitions, channels)

    def test_upward_decay_rejected(self, scheme):
        with pytest.raises(ValueError, match="downward"):
            LevelScheme(
                levels=scheme.levels,
                architecture=Architecture.HYBRID,
                rf_transitions=scheme.rf_transitions,
                decay_channels=((1, 2, 1.0),),
            )
        with pytest.raises(ValueError, match="rate for 3->2 must be >= 0"):
            LevelScheme(
                levels=scheme.levels,
                architecture=Architecture.HYBRID,
                rf_transitions=scheme.rf_transitions,
                decay_channels=((3, 2, -1.0),),
            )
        for rate in (np.nan, np.inf):
            with pytest.raises(ValueError, match="rate for 3->2 must be finite"):
                LevelScheme(
                    levels=scheme.levels,
                    architecture=Architecture.HYBRID,
                    rf_transitions=scheme.rf_transitions,
                    decay_channels=((3, 2, rate),),
                )

    def test_transition_ordering_validated(self):
        with pytest.raises(ValueError):
            RfTransition(lower=4, upper=3, carrier_frequency=1.0, dipole_moment=1.0)


_MINIMAL = """\
[scheme]
architecture = CRS

[level.1]
label = g
parity = +1

[level.2]
label = e
parity = -1

[level.3]
label = r1
parity = +1

[level.4]
label = r2
parity = -1

[transition.1]
lower = 3
upper = 4
carrier_ghz = 10.0
dipole_ea0 = 100.0

[decay.2-1]
rate_mhz = 5.0
"""


class TestParsing:
    def test_minimal_round_trip(self):
        scheme = parse_scheme(_MINIMAL)
        assert scheme.size == 4
        assert scheme.architecture is Architecture.CRS
        assert scheme.transition(1).carrier_frequency == pytest.approx(TWO_PI * 1e4)
        assert scheme.transition(1).detuning == 0.0
        assert scheme.decay_rate(2, 1) == pytest.approx(TWO_PI * 5.0)

    def test_unknown_key_rejected(self):
        # in every kind of section
        for after in ("label = g", "architecture = CRS", "dipole_ea0 = 100.0", "rate_mhz = 5.0"):
            bad = _MINIMAL.replace(after, f"{after}\ncolour = red")
            with pytest.raises(ConfigError, match="unknown key 'colour'"):
                parse_scheme(bad)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("[decay.2-1]", "[decay.02-1]\nrate_mhz = 5.0\n[decay.2-1]"),
             r"\[decay.2-1\] repeats an earlier section's number"),
            (("[transition.1]", "[transition.2]"), r"numbered 1..1, got \[2\]"),
            (("carrier_ghz = 10.0", "carrier_ghz = -10.0"),
             r"\[transition.1\] carrier must be > 0"),
            (("dipole_ea0 = 100.0", "dipole_ea0 = 0"), "dipole_ea0 must be > 0"),
            (("rate_mhz = 5.0", "rate_mhz = nan"), "rate must be finite"),
            (("[level.4]", "[level.4.1]"), r"unknown section \[level.4.1\]"),
        ],
    )
    def test_section_and_value_rules(self, edit, message):
        with pytest.raises(ConfigError, match=message):
            parse_scheme(_MINIMAL.replace(*edit))

    def test_percent_is_literal(self):
        scheme = parse_scheme(_MINIMAL.replace("label = g", "label = 100% g%%"))
        assert scheme.level(1).label == "100% g%%"

    def test_missing_unit_suffix_rejected(self):
        bad = _MINIMAL.replace("carrier_ghz = 10.0", "carrier = 10.0")
        with pytest.raises(ConfigError, match="carrier"):
            parse_scheme(bad)

    def test_duplicate_unit_variants_rejected(self):
        bad = _MINIMAL.replace("rate_mhz = 5.0", "rate_mhz = 5.0\nrate_khz = 5000.0")
        with pytest.raises(ConfigError, match="rate"):
            parse_scheme(bad)

    def test_bad_parity_rejected(self):
        bad = _MINIMAL.replace("parity = +1", "parity = 2", 1)
        with pytest.raises(ConfigError, match="parity"):
            parse_scheme(bad)

    def test_transitions_sorted_by_section_number(self):
        # declare the sections out of order; channel numbering must follow
        # the section numbers, not file position
        text = _MINIMAL.replace("[transition.1]", "[transition.2]")
        text += """
[transition.1]
lower = 2
upper = 3
carrier_ghz = 1.0
dipole_ea0 = 1.0
"""
        scheme = parse_scheme(text)
        assert (scheme.transition(1).lower, scheme.transition(1).upper) == (2, 3)
        assert (scheme.transition(2).lower, scheme.transition(2).upper) == (3, 4)

    def test_bundled_equals_fresh_load(self, scheme):
        # every value of data/cesium_six_level.ini, as file literal x unit factor
        ghz, mhz, khz = TWO_PI * 1e3, TWO_PI, TWO_PI * 1e-3
        labels = ("6S1/2", "6P3/2", "60D5/2", "62P3/2", "61D5/2", "60F7/2")
        expected = LevelScheme(
            levels=tuple(Level((-1) ** (k + 1), label) for k, label in enumerate(labels, 1)),
            architecture=Architecture.HYBRID,
            rf_transitions=(
                RfTransition(3, 4, 30.615 * ghz, 2329.67, 1.0 * khz, "mmWave"),
                RfTransition(4, 5, 3.054 * ghz, 7886.52, 1.0 * khz, "sub-6GHz"),
                RfTransition(5, 6, 45.342 * ghz, 711.764, 2.0 * khz, "high-mmWave"),
                RfTransition(3, 6, 79.01 * ghz, 250.939, 4.0 * khz, "satellite"),
            ),
            decay_channels=(
                (2, 1, 5.2 * mhz), (3, 2, 0.8 * khz), (4, 3, 0.4 * khz),
                (5, 4, 0.2 * khz), (6, 5, 0.15 * khz), (6, 3, 0.16 * khz),
            ),
        )
        assert cesium_scheme() == scheme == expected
