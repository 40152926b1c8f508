"""Shared fixtures: the bundled scheme, a probe-decay-only variant, the
documented operating point, and the stage-by-stage RK4 reference."""

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


def _literal_rk4(generator, vec, dt, start, stop):
    """RK4 from step ``start`` to step ``stop`` of a time-dependent generator,
    assembled at ``t``, ``t + dt/2`` and ``t + dt`` for every step: the
    reference for :func:`rydberg_receiver.evolve`'s integrator."""
    for step in range(start, stop):
        t = step * dt
        m1 = generator.matrix(t)
        m2 = generator.matrix(t + 0.5 * dt)
        m4 = generator.matrix(t + dt)
        k1 = m1 @ vec
        k2 = m2 @ (vec + (0.5 * dt) * k1)
        k3 = m2 @ (vec + (0.5 * dt) * k2)
        k4 = m4 @ (vec + dt * k3)
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vec


@pytest.fixture(scope="session")
def literal_rk4():
    """Check a trajectory of ``evolve`` gap by gap against the literal RK4
    loop, started from each stored snapshot and cleaned as ``evolve``
    cleans; returns the largest elementwise difference."""

    def check(trajectory, generator, dt):
        bounds = np.rint(trajectory.times / dt).astype(int)
        worst = 0.0
        for k in range(1, len(bounds)):
            vec = rr.vectorize(trajectory.matrices[k - 1])
            rho = rr.unvectorize(_literal_rk4(generator, vec, dt, bounds[k - 1], bounds[k]))
            rho = (rho + rho.conj().T) / 2.0
            rho = rho / np.trace(rho).real
            worst = max(worst, float(np.max(np.abs(rho - trajectory.matrices[k]))))
        return worst

    return check
