"""Byte identity of the CLI's products: the sha256 of every file and of
stdout of a fixed set of runs, checked against ``data/output_digests.json``.

The runs are the default run of every command but ``optimize-lo``, the
benchmark's 35-candidate ``optimize-lo`` lattice under two search ceilings,
one open-loop ``dynamics`` and one open-loop ``steady-state`` (nonzero loop
detuning), one ``steady-state`` with every RF channel off (no closed form),
one ``waveform`` at a balanced loop (every gain 0, so a ``null``
magnitude ratio) and one noisy ``waveform`` without ``--seed`` (drawn from
seed 0).

A change that moves an output byte on purpose regenerates the file and
names the moved files::

    PYTHONPATH=src python tests/test_output_digests.py

The digests hold for the numpy version and BLAS build recorded with them;
a mismatch names both, so that a different platform is told apart from a
moved byte.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from rydberg_receiver.cli import main

DATA = Path(__file__).parent / "data" / "output_digests.json"

#: k * 1.2 MHz on four axes, sum(k) <= 3: 35 candidates of 81 region points,
#: under the search ceiling ``search_hi_{hi}``.
_LATTICE_35 = (
    "[optimize]\nsearch_lo_mhz = 0\nsearch_hi_{hi}\ngrid_step_mhz = 1.2\n"
    "sum_constraint_mhz = 4.2\nhalf_widths_khz = 2, 1.5, 2.5, 1\n"
    "samples_per_axis = 3\nmethod = null_space\n"
)

#: Each run by name: its command and its INI text (None: the defaults).
RUNS = {
    "steady-state": ("steady-state", None),
    "dynamics": ("dynamics", None),
    "fidelity-map": ("fidelity-map", None),
    "waveform": ("waveform", None),
    "sumrate": ("sumrate", None),
    "validate-scheme": ("validate-scheme", None),
    "optimize-lo-35": ("optimize-lo", _LATTICE_35.format(hi="mhz = 3.6")),
    # the same candidates under a ceiling far above the sum cap
    "optimize-lo-35-far-hi": ("optimize-lo", _LATTICE_35.format(hi="ghz = 1e300")),
    "dynamics-open-loop": ("dynamics", (
        "[drive]\nrf_detunings_khz = 1, 1, 2, 24\n\n"
        "[dynamics]\nt_end_us = 1\ndt_us = 0.0001\nmax_snapshots = 11\n"
    )),
    "waveform-balanced-loop": ("waveform", "[drive]\nrf_rabi_mhz = 1, 1, 1, 1\n"),
    # noise and no --seed: the same bytes on every run
    "waveform-noise-no-seed": ("waveform", "[waveform]\nnoise_std = 1e-25\n"),
    "steady-state-open-loop": ("steady-state", (
        "[drive]\nrf_detunings_khz = 1, 1, 2, 24\n\n"
        "[steady_state]\nmethod = evolve\nt_end_us = 1\n"
    )),
    # every RF channel off: no closed form to compare with
    "steady-state-rf-off": ("steady-state", "[drive]\nrf_rabi_mhz = 0, 0, 0, 0\n"),
}


def platform():
    """The numpy version and BLAS build the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('openblas configuration', blas.get('version'))}",
    }


def digests(work):
    """``{run: {file name or "stdout": sha256}}`` of every run, made under ``work``."""
    found = {}
    for name, (command, config) in RUNS.items():
        out = work / name / "out"
        argv = [command, "--out", str(out)]
        if config is not None:
            path = work / name / "run.ini"
            path.parent.mkdir(parents=True)
            path.write_text(config)
            argv += ["--config", str(path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{name}: exit {code}")
        files = sorted(out.iterdir()) if out.exists() else []
        found[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        found[name]["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return found


def test_far_ceiling_finds_the_same_operating_point():
    runs = json.loads(DATA.read_text())["runs"]
    point = runs["optimize-lo-35"]["operating_point.json"]
    assert runs["optimize-lo-35-far-hi"]["operating_point.json"] == point


def test_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(DATA.read_text())
    got = digests(tmp_path)
    moved = sorted(
        f"{run}/{name}"
        for run in recorded["runs"].keys() | got.keys()
        for name in recorded["runs"].get(run, {}).keys() | got.get(run, {}).keys()
        if recorded["runs"].get(run, {}).get(name) != got.get(run, {}).get(name)
    )
    here = platform()
    assert not moved, (
        f"output bytes moved in {moved}; digests recorded with numpy {recorded['numpy']}, "
        f"BLAS {recorded['blas']}; this run has numpy {here['numpy']}, BLAS {here['blas']}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        runs = digests(Path(work))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({**platform(), "runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
