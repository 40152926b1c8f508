"""Every function the benchmark tracer wraps still exists on the package,
with the parameters its hooks read.

A renamed or deleted function, or a renamed parameter, would otherwise
surface only when a traced benchmark run (``bench/run.py --trace 1``)
fails to install its wrappers or breaks inside a hook.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

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
