"""Every function the benchmark tracer wraps still exists on the package,
with the parameters its hooks read, and returns what its hooks read.

A renamed or deleted function, or a renamed parameter, would otherwise
surface only when a traced benchmark run (``bench/run.py --trace 1``)
fails to install its wrappers or breaks inside a hook.
"""

import importlib
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rydberg_receiver as rr

TWO_PI = 2.0 * np.pi
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    # Executed from its source text, so nothing (no bytecode cache) is
    # written under bench/.
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


def _module(name):
    return importlib.import_module(f"rydberg_receiver.{name}")


@pytest.mark.parametrize("mod, attr", [entry[:2] for entry in tracer.LAYERS + tracer.COUNTED])
def test_wrapped_function_resolves(mod, attr):
    assert callable(getattr(_module(mod), attr))


@pytest.mark.parametrize("mod, cls, attr", [entry[:3] for entry in tracer.COUNTED_METHODS])
def test_wrapped_method_resolves(mod, cls, attr):
    # install() replaces the method from the class dict, not an inherited one
    assert callable(vars(getattr(_module(mod), cls))[attr])


def test_cli_import_loads_every_traced_module(package_env):
    # install() indexes sys.modules after `import rydberg_receiver.cli` alone,
    # so a module imported lazily by a command would break every traced run
    names = {entry[0] for entry in tracer.LAYERS + tracer.COUNTED + tracer.COUNTED_METHODS}
    names.add("fidelity")  # install() patches its ProcessPoolExecutor
    script = (
        "import json, sys\n"
        "import rydberg_receiver.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=package_env)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    assert sorted(n for n in names if f"rydberg_receiver.{n}" not in loaded) == []


def _entry(table, mod, attr):
    return next(entry for entry in table if entry[:2] == (mod, attr))


@pytest.mark.parametrize(
    "mod, attr, hook, param",
    [
        ("lindblad", "evolve", "_evolve_name", "generator"),
        ("receiver", "gain_coefficients", "_after_gain", "model"),
        ("receiver", "iq_demodulate", "_before_demod", "waveform"),
    ],
)
def test_hook_parameter_bound(mod, attr, hook, param):
    # the hook reads arguments[param] from the call bound to the signature
    assert getattr(tracer, hook) in _entry(tracer.LAYERS, mod, attr)
    assert param in inspect.signature(getattr(_module(mod), attr)).parameters


def test_generator_matrix_takes_time_first():
    # _after_generator reads args[1]: the time, right after self
    mod, cls, attr, _, hook = tracer.COUNTED_METHODS[0]
    assert hook is tracer._after_generator
    method = vars(getattr(_module(mod), cls))[attr]
    assert list(inspect.signature(method).parameters)[:2] == ["self", "t"]


class _Counters:
    """The one method of the tracer that the after hooks call."""

    def __init__(self):
        self.added = []

    def add(self, key, value):
        self.added.append((key, value))


def test_hooks_read_return_values(scheme, op_drive):
    # each hook that reads a return value, fed a real one
    counters = _Counters()
    amps = rr.signal_amplitudes(op_drive, scheme, 5e-3)
    spec = rr.RfSignalSpec(amplitudes=amps, offsets=tuple(TWO_PI * f for f in (0.2, 0.5, 0.8, 1.1)))
    wave = rr.synthesize_pd_waveform(spec, op_drive, rr.DEFAULT_CELL, scheme,
                                     duration=1.0, sample_rate=16.0)
    tracer._after_synthesis(counters, {}, wave)
    # the RF-off corner of this 2x2 scan is degenerate in the closed form
    dark = op_drive.with_rf_rabi((0.0,) * 4)
    scan = rr.fidelity_scan(dark, (1, 2), scheme, ranges=((0.0, TWO_PI * 2),) * 2,
                            resolution=2, steady_state_method="null_space")
    tracer._after_scan(counters, {}, scan)
    result = rr.optimize_operating_point((TWO_PI, TWO_PI), TWO_PI * 4,
                                         base_drive=op_drive, scheme=scheme)
    tracer._after_optimize(counters, {}, result)
    assert counters.added == [
        ("receiver.synthesize_pd_waveform.samples", 16),
        ("fidelity.points", 4),
        ("fidelity.failed_points", 1),
        ("fidelity.points", 1),
        ("fidelity.failed_points", 0),
    ]
