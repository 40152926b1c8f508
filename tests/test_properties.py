"""Property tests: invariants of the generator over random drives, and the
CLI's exit-code contract over random mutations of the bundled scheme file,
over bad integrator times and over extreme values of every number key."""

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
from rydberg_receiver.cli import SCHEMAS, main
from rydberg_receiver.config import _key_table

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
        rr.Liouvillian(generator.constant)  # raises unless the trace row annihilates it
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
_LEVELS = [f"level.{k}" for k in range(1, _SCHEME.size + 1)]
_NUMBERED = _LEVELS + _TRANSITIONS + _DECAYS

#: (section, key prefix, values), each of which spoils a scheme file: a value
#: that is not finite, and a carrier or dipole that is not > 0.
_BAD_VALUES = [
    (name, key, ("nan", "inf", "-inf") + (("0", "-30.615") if key != "detuning" else ()))
    for name in _TRANSITIONS for key in ("carrier", "dipole_ea0", "detuning")
] + [(name, "rate", ("nan", "inf")) for name in _DECAYS]

#: Edits that each make the file invalid wherever they land.
_SPOILERS = ("typo", "duplicate", "value")

mutations = st.one_of(
    st.tuples(st.just("renumber"), st.permutations(_TRANSITIONS)),
    st.tuples(st.just("drop"), st.sampled_from(_TRANSITIONS)),
    st.tuples(st.just("architecture"), st.sampled_from(["CRS", "PRS", "Hybrid"])),
    st.tuples(st.just("flip"), st.sampled_from(_DECAYS)),
    st.tuples(st.just("percent"), st.sampled_from(_LEVELS)),
    st.tuples(st.just("typo"), st.sampled_from(["scheme"] + _NUMBERED)),
    st.tuples(st.just("duplicate"), st.sampled_from(_NUMBERED)),
    st.sampled_from(_BAD_VALUES).flatmap(
        lambda bad: st.tuples(st.just("value"), st.just(bad[:2]), st.sampled_from(bad[2]))
    ),
)


def _mutate(text, edits):
    """Apply ``edits`` to the section blocks of a scheme file.

    Spoiling edits go last, so that no later edit drops or rewrites the
    section they spoiled. Returns the text and whether a spoiling edit
    landed on a section that is still there.
    """
    head, *blocks = re.split(r"(?m)^(?=\[)", text)
    sections = {block[1 : block.index("]")]: block for block in blocks}
    spoiled = False
    for kind, arg, *value in sorted(edits, key=lambda edit: edit[0] in _SPOILERS):
        target = arg[0] if kind == "value" else arg
        if kind in _SPOILERS + ("percent",) and target not in sections:
            continue
        spoiled = spoiled or kind in _SPOILERS
        if kind == "renumber":
            present = [name for name in _TRANSITIONS if name in sections]
            bodies = [sections.pop(name).split("]", 1)[1] for name in present]
            for name, body in zip([n for n in arg if n in present], bodies):
                sections[name] = f"[{name}]{body}"
        elif kind == "drop":
            sections.pop(arg, None)
        elif kind == "architecture":
            sections["scheme"] = f"[scheme]\narchitecture = {arg}\n\n"
        elif kind == "flip":
            sections[arg] = sections[arg].replace(" = ", " = -", 1)
        elif kind == "percent":
            sections[arg] = re.sub(r"(?m)^label = .*$", r"\g<0> 100%", sections[arg])
        elif kind == "typo":
            # drop the second letter of the section's first key
            sections[arg] = re.sub(r"(?m)^(\w)\w", r"\1", sections[arg], count=1)
        elif kind == "duplicate":
            # the same number written with a leading zero
            copy = sections[arg].replace(".", ".0", 1)
            sections[copy[1 : copy.index("]")]] = copy
        else:
            key = arg[1]
            sections[target] = re.sub(
                rf"(?m)^({key}\w*) = .*$", rf"\1 = {value[0]}", sections[target]
            )
    return head + "".join(sections.values()), spoiled


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(mutations, min_size=1, max_size=3))
def test_mutated_scheme_exit_codes(scheme_text, edits):
    text, spoiled = _mutate(scheme_text, edits)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "scheme.ini"
        path.write_text(text)
        code = main(["steady-state", "--scheme", str(path), "--out", str(Path(tmp) / "out")])
    assert code == 1 if spoiled else code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _number_slots():
    """Regexes whose group 1 is one 1-based number of the bundled scheme file:
    a section's number, a transition's ``lower`` or ``upper``, or one end of a decay."""
    for name in _LEVELS + _TRANSITIONS:
        kind, n = name.split(".")
        yield rf"(?m)^\[{kind}\.({n})\]"
    for name in _TRANSITIONS:
        for key in ("lower", "upper"):
            yield rf"(?ms)^\[{re.escape(name)}\][^[]*?^{key} = (\d+)"
    for (src, dst, _rate) in _SCHEME.decay_channels:
        yield rf"(?m)^\[decay\.({src})-{dst}\]"
        yield rf"(?m)^\[decay\.{src}-({dst})\]"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    slot=st.sampled_from(list(_number_slots())),
    number=st.sampled_from([0, -1, _SCHEME.size + 1]),
    architecture=st.sampled_from(["Hybrid", "CRS", "PRS"]),
)
def test_spoiled_number_exits_1(scheme_text, slot, number, architecture):
    # a CRS or PRS file skips the hybrid edge check, so only the numbering rules stop it
    text = scheme_text.replace("architecture = Hybrid", f"architecture = {architecture}")
    found = re.search(slot, text)
    text = text[: found.start(1)] + str(number) + text[found.end(1) :]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "scheme.ini"
        path.write_text(text)
        code = main(["validate-scheme", "--scheme", str(path)])
    assert code == 1
    assert "Traceback" not in err.getvalue()


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


#: A small valid run of each command; ``optimize-lo`` searches the output
#: digests' 35-candidate lattice.
_BASE_RUNS = {
    "steady-state": {},
    "dynamics": {"dynamics": {"t_end_us": "0.01", "max_snapshots": "3"}},
    "fidelity-map": {"scan": {"resolution": "2", "method": "null_space"}},
    "optimize-lo": {"optimize": {
        "search_lo_mhz": "0", "search_hi_mhz": "3.6", "grid_step_mhz": "1.2",
        "sum_constraint_mhz": "4.2", "half_widths_khz": "2, 1.5, 2.5, 1",
        "samples_per_axis": "3", "method": "null_space",
    }},
    "waveform": {"waveform": {"duration_us": "20", "spectrogram": "false"}},
    "sumrate": {"sumrate": {
        "rabi_set": "set2", "power_min_dbm": "-10", "power_max_dbm": "0",
        "power_step_db": "5", "bandwidths_mhz": "0.05, 0.1",
    }},
}

#: Keys whose values scale a run's work (horizon, resolution, duration, sample
#: rate, sweep step, snapshots, samples per axis, sum cap): checked under --dry-run.
_WORK_KEYS = {"t_end", "dt", "resolution", "duration", "sample_rate", "power_step_db",
              "max_snapshots", "samples_per_axis", "sum_constraint"}

#: Values drawn for each plain kind of number.
_DRAWS = {"float": ("0", "-1", "5e-324", "1e300", "nan", "inf"),
          "int": ("0", "-1", "1", str(10**21))}


def _numeric_keys(command):
    """``{(section, base key): (raw key, draws, entries)}`` of every number key of
    ``command``, each in a unit with a plain factor."""
    keys = {}
    for section, fields in SCHEMAS[command].items():
        for raw, (base, (plain, _), factor) in _key_table(fields).items():
            if plain in _DRAWS and not callable(factor) and (section, base) not in keys:
                counts = fields[base].counts
                keys[section, base] = (raw, _DRAWS[plain], counts[0] if counts else 1)
    return keys


@pytest.mark.parametrize("command", sorted(_BASE_RUNS))
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_checked_keys_exit_codes(command, data):
    keys = _numeric_keys(command)
    spoiled = data.draw(st.lists(st.sampled_from(sorted(keys)), min_size=1, max_size=3,
                                 unique=True))
    sections = {}
    for section, items in _BASE_RUNS[command].items():
        table = _key_table(SCHEMAS[command][section])
        sections[section] = {table[raw][0]: f"{raw} = {value}" for raw, value in items.items()}
    for section, base in spoiled:
        raw, draws, entries = keys[section, base]
        value = ", ".join([data.draw(st.sampled_from(draws))] * entries)
        sections.setdefault(section, {})[base] = f"{raw} = {value}"
    text = "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines.values())
                   for name, lines in sections.items())
    dry_run = ["--dry-run"] if any(base in _WORK_KEYS for _, base in spoiled) else []
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "run.ini"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out"), *dry_run])
    assert code in (0, 1, 2), text
    assert "Traceback" not in err.getvalue()
