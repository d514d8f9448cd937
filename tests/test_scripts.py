"""The scripts run end to end against the library's current signatures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reecurve

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(reecurve.__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["identity_timing.py", "--s", "1"],
    ["identity_timing.py", "--s", "2", "--backend", "points", "--trials", "1"],
    ["weight_survey.py", "--s", "1", "--samples", "1", "--audit-levels", "1"],
    ["weight_survey.py", "--s", "2", "--samples", "1", "--audit-levels", "2"],
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
