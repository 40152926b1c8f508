"""Property tests: invariants of the generator over random drives, and the
CLI's exit-code contract over random mutations of the bundled scheme file,
over bad integrator times and over bad values of range-checked keys."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydberg_receiver as rr
from rydberg_receiver.cli import main

TWO_PI = 2.0 * np.pi

_SCHEME = rr.cesium_scheme()

amplitudes = st.floats(0.0, TWO_PI * 10.0)
phases = st.floats(-np.pi, np.pi)
detunings = st.floats(-TWO_PI, TWO_PI)


@st.composite
def drives(draw):
    cascade = draw(st.tuples(detunings, detunings, detunings))
    loop_delta = draw(st.one_of(st.just(0.0), st.floats(-TWO_PI * 0.1, TWO_PI * 0.1)))
    return rr.DriveConfig(
        omega_p=draw(amplitudes),
        omega_c=draw(amplitudes),
        rf_rabi=draw(st.tuples(amplitudes, amplitudes, amplitudes, amplitudes)),
        delta_p=draw(detunings),
        delta_c=draw(detunings),
        rf_detunings=cascade + (sum(cascade) + loop_delta,),
        rf_phases=draw(st.tuples(phases, phases, phases, phases)),
    )


def _trace_defect(matrix):
    """||Tr o L|| relative to max(1, ||L||)."""
    trace_functional = rr.vectorize(np.eye(6)).conj()
    return np.linalg.norm(trace_functional @ matrix) / max(1.0, np.linalg.norm(matrix))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(drive=drives(), t=st.floats(0.0, 20.0))
def test_generator_invariants(literal_rk4, drive, t):
    h = rr.build_hamiltonian(drive, _SCHEME, t)
    assert np.array_equal(h, h.conj().T)

    generator = rr.make_generator(drive, _SCHEME)
    if drive.closed_loop_delta != 0.0:
        assert isinstance(generator, rr.TimeDependentLiouvillian)
        assert _trace_defect(generator.constant) < 1e-10
        assert _trace_defect(generator.matrix(t)) < 1e-10
        # 50 steps at half the stability bound against the literal RK4 loop
        dt = 0.05 / generator.norm()
        traj = rr.evolve(rr.ground_state(), generator, t_end=50 * dt, dt=dt, max_snapshots=2)
        assert literal_rk4(traj, generator, dt) <= 1e-12
        return
    assert isinstance(generator, rr.Liouvillian)
    assert _trace_defect(generator.matrix) < 1e-10
    if rr.zeta(drive.rf_rabi) != 0.0:
        rho = rr.steady_state(generator).matrix
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-8


_TRANSITIONS = [f"transition.{n}" for n in range(1, 5)]
_DECAYS = [f"decay.{src}-{dst}" for (src, dst, _rate) in _SCHEME.decay_channels]

mutations = st.one_of(
    st.tuples(st.just("renumber"), st.permutations(_TRANSITIONS)),
    st.tuples(st.just("drop"), st.sampled_from(_TRANSITIONS)),
    st.tuples(st.just("architecture"), st.sampled_from(["CRS", "PRS", "Hybrid"])),
    st.tuples(st.just("flip"), st.sampled_from(_DECAYS)),
)


def _mutate(text, edits):
    """Apply ``edits`` to the section blocks of a scheme file."""
    head, *blocks = re.split(r"(?m)^(?=\[)", text)
    sections = {block[1 : block.index("]")]: block for block in blocks}
    for kind, arg in edits:
        if kind == "renumber":
            present = [name for name in _TRANSITIONS if name in sections]
            bodies = [sections.pop(name).split("]", 1)[1] for name in present]
            for name, body in zip([n for n in arg if n in present], bodies):
                sections[name] = f"[{name}]{body}"
        elif kind == "drop":
            sections.pop(arg, None)
        elif kind == "architecture":
            sections["scheme"] = f"[scheme]\narchitecture = {arg}\n\n"
        else:
            sections[arg] = sections[arg].replace(" = ", " = -", 1)
    return head + "".join(sections.values())


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(mutations, min_size=1, max_size=3))
def test_mutated_scheme_exit_codes(scheme_text, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scheme.ini"
        path.write_text(_mutate(scheme_text, edits))
        code = main(["steady-state", "--scheme", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    dt=st.sampled_from([0.0, -1e-4, float("nan"), float("inf"), 1e-4, 0.5]),
    t_end=st.sampled_from([0.0, -1.0, float("nan"), float("inf"), 0.01, 0.01005]),
    max_snapshots=st.sampled_from([0, 1, 3]),
)
def test_dynamics_time_inputs_exit_codes(dt, t_end, max_snapshots):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(
            f"[dynamics]\ndt_us = {dt!r}\nt_end_us = {t_end!r}\n"
            f"max_snapshots = {max_snapshots}\n"
        )
        code = main(["dynamics", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)


#: Range-checked keys of three commands, each with a valid value that keeps
#: the run small; the optimizer's grid step stays coarse because the
#: candidate grid grows as n^4.
_CHECKED_KEYS = {
    "optimize-lo": {
        ("optimize", "search_lo_mhz"): "5",
        ("optimize", "search_hi_mhz"): "6",
        ("optimize", "grid_step_mhz"): "3",
        ("optimize", "sum_constraint_mhz"): "30",
        ("optimize", "samples_per_axis"): "1",
        ("optimize", "plateau_tolerance"): "1e-5",
    },
    "sumrate": {
        ("sumrate", "beta"): "1",
        ("sumrate", "temperature_k"): "300",
        ("sumrate", "bandwidths_mhz"): "0.1",
        ("sumrate", "power_sweep_bandwidth_mhz"): "0.1",
        ("sumrate", "power_step_db"): "10",
        ("sumrate", "bandwidth_sweep_power_dbm"): "-10",
    },
    "waveform": {
        ("signal", "modulation_index"): "5e-3",
        ("waveform", "noise_std"): "1e-25",
        ("waveform", "spectrogram"): "false",
    },
}


@pytest.mark.parametrize("command", sorted(_CHECKED_KEYS))
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_checked_keys_exit_codes(command, data):
    keys = _CHECKED_KEYS[command]
    spoiled = data.draw(
        st.dictionaries(
            st.sampled_from([k for k in keys if k[1] != "spectrogram"]),
            st.sampled_from(["0", "-1", "nan", "inf"]),
            min_size=1,
            max_size=3,
        )
    )
    sections = {}
    for (section, key), valid in keys.items():
        value = spoiled.get((section, key), valid)
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "run.ini"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
