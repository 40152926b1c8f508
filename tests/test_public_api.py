"""The public API: ``rydberg_receiver.__all__`` is its one declaration."""

import ast
import importlib
import pkgutil
from pathlib import Path

import rydberg_receiver as rr


def test_all_has_no_duplicates():
    assert len(rr.__all__) == len(set(rr.__all__))


def test_every_entry_resolves():
    assert [name for name in rr.__all__ if not hasattr(rr, name)] == []


def test_no_submodule_declares_all():
    declaring = [
        info.name for info in pkgutil.iter_modules(rr.__path__)
        if hasattr(importlib.import_module(f"{rr.__name__}.{info.name}"), "__all__")
    ]
    assert declaring == []


def test_every_name_has_a_recorded_caller():
    # a use, not a definition: a name, an attribute or a string naming it (the
    # benchmark's tracer names what it wraps), outside __init__.py
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src").rglob("*.py") if p.name != "__init__.py"]
    files += [*(root / "demos").glob("*.py"), *(root / "bench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert sorted(set(rr.__all__) - used) == []
