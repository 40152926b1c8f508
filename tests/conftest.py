"""Shared fixtures: the bundled scheme, a probe-decay-only variant, and
the documented operating point."""

import sys
from importlib import resources

import numpy as np
import pytest

import rydberg_receiver as rr
from rydberg_receiver.scheme import Architecture, LevelScheme

TWO_PI = 2.0 * np.pi


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run, capture or not."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(verdicts):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def scheme():
    return rr.cesium_scheme()


@pytest.fixture(scope="session")
def scheme_text():
    """The bundled scheme file's text."""
    return resources.files("rydberg_receiver").joinpath("data/cesium_six_level.ini").read_text()


@pytest.fixture(scope="session")
def renumbered_scheme_text(scheme_text):
    """The bundled scheme file with transitions 1 (3-4) and 4 (3-6) swapped."""
    return (
        scheme_text.replace("[transition.1]", "[transition.x]")
        .replace("[transition.4]", "[transition.1]")
        .replace("[transition.x]", "[transition.4]")
    )


@pytest.fixture(scope="session")
def reduced_scheme(scheme):
    """Only the probe decay retained: the regime where the closed form is
    exact, so numerical and analytic steady states must coincide."""
    return LevelScheme(
        levels=scheme.levels,
        architecture=Architecture.HYBRID,
        rf_transitions=scheme.rf_transitions,
        decay_channels=((2, 1, scheme.decay_rate(2, 1)),),
    )


@pytest.fixture(scope="session")
def op_drive():
    """Documented LO operating point, fully resonant."""
    return rr.DriveConfig(
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
        rf_rabi=(TWO_PI * 2.0, TWO_PI * 7.0, TWO_PI * 1.0, TWO_PI * 6.0),
    )
