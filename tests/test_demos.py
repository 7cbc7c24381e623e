"""Every script under demos/ runs to completion with its smallest
arguments, in a subprocess as a reader would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = {
    "ablation_table.py": ["--epochs", "2"],
    "autodiff_basics.py": [],
    "camera_geometry.py": [],
    "simulate_scene.py": [],
    "train_small.py": ["--epochs", "2", "--scenes", "8"],
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_exits_zero(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *DEMOS[script]],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
