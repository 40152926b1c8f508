"""Smoke test of the demos: each runs to exit 0 as a fresh process.

The demos write into ``demo_out/`` under the working directory, so each
runs in its own temporary directory. ``optimize_lo.py`` only prints: its
721-candidate default search takes about 3 to 4 s on a 2-vCPU machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
