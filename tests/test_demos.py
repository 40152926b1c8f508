"""Smoke test of the demos: each runs to exit 0 as a fresh process, and
takes from the package only names in ``rydberg_receiver.__all__``.

The demos write into ``demo_out/`` under the working directory, so each
runs in its own temporary directory. ``optimize_lo.py`` only prints: its
721-candidate default search takes about 3 to 4 s on a 2-vCPU machine.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydberg_receiver as rr

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "fidelity_landscape", "optimize_lo", "steady_state_validation", "sum_rates", "waveform_demod"
)
#: Demos that print their findings and write no file.
PRINT_ONLY = ("optimize_lo",)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if demo in PRINT_ONLY:
        assert not (tmp_path / "demo_out").exists()
    else:
        assert any((tmp_path / "demo_out").iterdir())


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_imports_only_public_names(demo):
    tree = ast.parse((ROOT / "demos" / f"{demo}.py").read_text())
    imports = [alias for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] == rr.__name__]
    assert [alias.name for alias in imports] == [rr.__name__] * len(imports)
    aliases = {alias.asname or alias.name for alias in imports}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == rr.__name__:
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            used.add(node.attr)
    assert used, "the demo takes nothing from the package"
    assert sorted(used - set(rr.__all__)) == []
