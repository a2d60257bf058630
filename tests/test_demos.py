"""Every demo script runs to the end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run():
    assert len(DEMOS) == 6
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, (demo.name, proc.stderr)
        assert "Traceback" not in proc.stdout + proc.stderr, demo.name
