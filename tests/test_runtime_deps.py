"""spinctl's runtime needs numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import spinctl

SMOKE = Path(__file__).with_name("no_scipy_smoke.py")


def test_spinctl_runs_with_scipy_unimportable():
    src = str(Path(spinctl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(SMOKE)], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "numpy alone" in out.stdout
