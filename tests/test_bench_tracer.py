"""Every function the benchmark tracer wraps still exists on the package.

A renamed or deleted function would otherwise surface only when a traced
benchmark run (``bench/run.py --trace 1``) fails to install its wrappers.
"""

import importlib
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
