"""The public API: ``rydberg_receiver.__all__`` is its one declaration."""

import importlib
import pkgutil

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
