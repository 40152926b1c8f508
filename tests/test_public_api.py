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
    # benchmark's tracer names what it wraps), outside __init__.py; a public
    # method or property of a public class in src/ is used by attribute name
    root = Path(__file__).resolve().parents[1]
    sources = list((root / "src").rglob("*.py"))
    files = [p for p in sources if p.name != "__init__.py"]
    files += [*(root / "demos").glob("*.py"), *(root / "bench").glob("*.py")]
    names, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    methods = {
        f"{cls.name}.{item.name}"
        for path in sources
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    assert sorted(set(rr.__all__) - names - attributes) == []
    assert sorted(m for m in methods if m.split(".")[1] not in attributes) == []
