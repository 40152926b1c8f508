"""Shared fixtures: a fresh interpreter's environment, the bundled scheme,
its probe-decay-only variants, the documented operating point, the stage-by-stage RK4 reference, the
row-by-row CSV reference, the scalar E1 reference and the full-rate
demodulator reference."""

import csv
import io
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from importlib import resources

import numpy as np
import pytest

import rydberg_receiver as rr
from rydberg_receiver import receiver
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
def package_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    package_root = str(Path(rr.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


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
def probe_decay_scheme(scheme):
    """``probe_decay_scheme(gamma_21)``: the bundled scheme, parsed once,
    with the probe decay at rate ``gamma_21`` (rad/us) as its only channel:
    the regime where the closed form is exact."""

    def make(gamma_21):
        return LevelScheme(
            levels=scheme.levels,
            architecture=Architecture.HYBRID,
            rf_transitions=scheme.rf_transitions,
            decay_channels=((2, 1, gamma_21),),
        )

    return make


@pytest.fixture(scope="session")
def reduced_scheme(scheme, probe_decay_scheme):
    """Only the bundled probe decay retained, so numerical and analytic
    steady states must coincide."""
    return probe_decay_scheme(scheme.decay_rate(2, 1))


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
            vec = _literal_rk4(generator, vec, dt, bounds[k - 1], bounds[k])
            rho = vec.reshape((6, 6), order="F")
            rho = (rho + rho.conj().T) / 2.0
            rho = rho / np.trace(rho).real
            worst = max(worst, float(np.max(np.abs(rho - trajectory.matrices[k]))))
        return worst

    return check


def _csv_bytes(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def _trajectory_csv(trajectory, all_coherences=False):
    dim = trajectory.matrices.shape[1]
    header = ["t"] + [f"rho{k}{k}" for k in range(1, dim + 1)] + ["re_rho21", "im_rho21"]
    extra = []
    if all_coherences:
        extra = [(i, j) for i in range(1, dim + 1) for j in range(1, i) if (i, j) != (2, 1)]
        for (i, j) in extra:
            header += [f"re_rho{i}{j}", f"im_rho{i}{j}"]
    rows = []
    pops = trajectory.populations()
    for k, t in enumerate(trajectory.times):
        row = [f"{t:.9g}"] + [f"{p:.12g}" for p in pops[k]]
        c21 = trajectory.matrices[k, 1, 0]
        row += [f"{c21.real:.12g}", f"{c21.imag:.12g}"]
        for (i, j) in extra:
            c = trajectory.matrices[k, i - 1, j - 1]
            row += [f"{c.real:.12g}", f"{c.imag:.12g}"]
        rows.append(row)
    return _csv_bytes(header, rows)


def _fidelity_scan_csv(scan):
    rows = []
    for i in range(scan.fidelities.shape[0]):
        for j in range(scan.fidelities.shape[1]):
            rf = scan.drive_at(i, j).rf_rabi
            val = scan.fidelities[i, j]
            rows.append([f"{v:.12g}" for v in rf] + [f"{val:.12g}" if np.isfinite(val) else "nan"])
    return _csv_bytes(["omega1", "omega2", "omega3", "omega4", "fidelity"], rows)


def _comparison_csv(comparison):
    order = (Architecture.HYBRID, Architecture.CRS, Architecture.PRS)
    rows = []
    for arch in order:
        for i, p in enumerate(comparison.power_dbm):
            rows.append([arch.value, f"{p:.9g}", f"{comparison.power_sweep_bandwidth_hz:.9g}",
                         f"{comparison.power_rates[arch][i]:.12g}"])
    for arch in order:
        for i, b in enumerate(comparison.bandwidth_hz):
            rows.append([arch.value, f"{comparison.bandwidth_sweep_power_dbm:.9g}", f"{b:.9g}",
                         f"{comparison.bandwidth_rates[arch][i]:.12g}"])
    return _csv_bytes(["architecture", "p_t_dbm", "bandwidth_hz", "rate_bps"], rows)


def _waveform_csv(waveform):
    rows = [
        [f"{t:.9g}", f"{ye:.12g}", f"{yl:.12g}"]
        for t, ye, yl in zip(waveform.times, waveform.samples, waveform.linearized)
    ]
    return _csv_bytes(["t", "y_exact", "y_linearized"], rows)


def _spectrogram_csv(times, freqs, power_db):
    rows = [
        [f"{t:.9g}", f"{f:.9g}", f"{power_db[i, j]:.6g}"]
        for j, t in enumerate(times)
        for i, f in enumerate(freqs)
    ]
    return _csv_bytes(["t", "f", "power_db"], rows)


def _steady_state_csv(matrix):
    rows = [
        [i + 1, j + 1, f"{matrix[i, j].real:.12g}", f"{matrix[i, j].imag:.12g}"]
        for i in range(6)
        for j in range(6)
    ]
    return _csv_bytes(["i", "j", "re", "im"], rows)


def _demod_csv(active, demods):
    rows = [
        [n, f"{t:.9g}", f"{z.real:.12g}", f"{z.imag:.12g}"]
        for n, ch in zip(active, demods)
        for t, z in zip(ch.times, ch.baseband)
    ]
    return _csv_bytes(["channel", "t", "re", "im"], rows)


def _table_csv(header, fmt, rows):
    formats = fmt.split(",")
    return _csv_bytes(header.split(","), [[f % v for f, v in zip(formats, row)] for row in rows])


@pytest.fixture(scope="session")
def literal_csv():
    """Each CSV file of the package as bytes, written row by row with
    ``csv.writer`` and per-cell format strings: the reference for the
    package's chunked ``numerics.write_csv``."""
    return SimpleNamespace(
        trajectory=_trajectory_csv,
        fidelity_scan=_fidelity_scan_csv,
        comparison=_comparison_csv,
        waveform=_waveform_csv,
        spectrogram=_spectrogram_csv,
        steady_state=_steady_state_csv,
        demod=_demod_csv,
        table=_table_csv,  # any table: rows of values, one %-format per comma-separated cell
    )


def _e1_series(x):
    total = -rr.numerics.EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 64):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _e1_cf(x):
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError(f"continued fraction failed to converge at x={x}")


def _literal_exp_e1_scaled(x):
    x = np.asarray(x, dtype=float)
    out = np.array(
        [math.exp(v) * _e1_series(v) if v <= 1.0 else _e1_cf(v) for v in x.ravel().tolist()]
    ).reshape(x.shape)
    return out if out.ndim else float(out)


@pytest.fixture(scope="session")
def literal_e1():
    """``exp(x) E1(x)`` one Python float at a time: the power series for
    ``x <= 1`` and the modified-Lentz continued fraction above, the scalar
    reference for the vector kernel ``numerics.exp_e1_scaled``."""
    return _literal_exp_e1_scaled


def _literal_iq_demodulate(waveform, offsets, bandwidths):
    """Per channel: bandpass, mix and lowpass both arms at the full sample
    rate with ``np.convolve``, then keep every ``decim``-th sample."""
    fs, x, t = waveform.sample_rate, waveform.ac(), waveform.times
    out = []
    for offset, bw in zip(offsets, bandwidths):
        transition = receiver.TRANSITION_BANDWIDTHS * bw
        bpf = receiver._kaiser_bandpass(offset / TWO_PI, receiver.BPF_HALF_WIDTH * bw, transition, fs)
        lpf = receiver._kaiser_lowpass(receiver.LPF_CUTOFF * bw, transition, fs)
        band = np.convolve(x, bpf, mode="same")
        i_arm = np.convolve(band * (2.0 * np.cos(offset * t)), lpf, mode="same")
        q_arm = np.convolve(band * (-2.0 * np.sin(offset * t)), lpf, mode="same")
        z = i_arm + 1j * q_arm
        decim = max(1, int(np.floor(fs / (4.0 * bw) + 1e-9)))
        guard = (len(bpf) + len(lpf)) // 2
        out.append(receiver.DemodChannel(offset=offset, bandwidth=bw, times=t[::decim],
                                         baseband=z[::decim], sample_rate=fs / decim,
                                         edge_samples=-(-guard // decim)))
    return out


@pytest.fixture(scope="session")
def literal_demod():
    """``iq_demodulate`` with both lowpass arms filtered at the full rate and
    then decimated: the reference for the kept-output lowpass."""
    return _literal_iq_demodulate
